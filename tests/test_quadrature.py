"""Quadrature tests against independent closed-form, numerical and
stochastic oracles.

The program's half-space moments are Beta closed forms; the tests check
them against nested scipy quad of the defining quarter-plane integral

    J(p, a, m) = integral over t>0, r>0 of t^a r^m ((1+t)^2 + r^2)^(-p),

with the full half-space moment sphere_area(n-2) * J(p, a, b + n - 2).
The Beta oracle (r = (1+t) u, then s = 1/(1+t)) is kept for the Monte
Carlo tests:
    J(p, a, m) = 1/2 * B((m+1)/2, p - (m+1)/2) * B(a+1, 2p - m - a - 2).
"""

import math
from math import lgamma

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from halfbubble.errors import (DomainError, PoisonedEstimateError,
                               UnsupportedPatternError)
from halfbubble.quadrature import (_MC_CHUNK, MCEstimate, MomentKey, MomentTable,
                                   angular_moment, half_line_moment, mc_halfspace,
                                   moment, panel_gauss_nodes, quadratic_sphere_moment,
                                   sphere_area)


def beta(x: float, y: float) -> float:
    return math.exp(lgamma(x) + lgamma(y) - lgamma(x + y))


def oracle_moment(n: int, p: float, a: int, b: int) -> float:
    m = b + n - 2
    J = 0.5 * beta(0.5 * (m + 1), p - 0.5 * (m + 1)) * beta(a + 1.0, 2 * p - m - a - 2.0)
    return sphere_area(n - 2) * J


def half_line_quad(c: float, p: float, scale: float = 1.0) -> float:
    """integral over r > 0 of r^c (scale^2 + r^2)^(-p), by adaptive quad."""
    return scipy_quad(lambda r: r ** c * (scale * scale + r * r) ** (-p),
                      0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def quad_moment(n: int, p: float, a: int, b: int) -> float:
    """The half-space moment by nested quad over the quarter plane."""
    m = b + n - 2
    J = scipy_quad(lambda t: t ** a * half_line_quad(m, p, 1.0 + t),
                   0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return sphere_area(n - 2) * J


def program_keys(n: int) -> list:
    """Every moment key the program reads: I1..I4, the gradient route of
    A, and the four radial factors of the solvability check."""
    return [MomentKey(n - 2, 2, 0), MomentKey(n, 2, 4), MomentKey(n, 4, 2),
            MomentKey(n - 2, 0, 2), MomentKey(n - 1, 0, 0),
            MomentKey(n + 1, 2, 3), MomentKey(n + 1, 2, 2),
            MomentKey(n + 1, 3, 2), MomentKey(n, 2, 2)]


class TestSphereArea:
    def test_frozen_values(self):
        # S^1 circumference, S^2 area, and S^9 = pi^5/12
        assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
        assert sphere_area(9) == pytest.approx(math.pi ** 5 / 12.0, rel=1e-14)

    def test_recursion(self):
        # omega_m = 2 pi omega_{m-2} / (m - 1)
        for m in range(3, 15):
            assert sphere_area(m) == pytest.approx(
                2 * math.pi * sphere_area(m - 2) / (m - 1), rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sphere_area(-1)


class TestAngularMoments:
    def test_total_mass(self):
        for n in (8, 11, 13):
            assert angular_moment(n, ()) == pytest.approx(sphere_area(n - 2), rel=1e-14)

    def test_odd_patterns_vanish(self):
        assert angular_moment(11, (1,)) == 0.0
        assert angular_moment(11, (2, 1)) == 0.0
        assert angular_moment(11, (3, 0, 1)) == 0.0

    @pytest.mark.parametrize("n", [9, 11, 14])
    def test_quadratic_and_quartic(self, n):
        d = n - 1
        w = sphere_area(d - 1)
        assert angular_moment(n, (2,)) == pytest.approx(w / d, rel=1e-13)
        assert angular_moment(n, (4,)) == pytest.approx(3 * w / (d * (d + 2)), rel=1e-13)
        assert angular_moment(n, (2, 2)) == pytest.approx(w / (d * (d + 2)), rel=1e-13)

    def test_sum_rule(self):
        # sum_i <theta_i^2> = total mass
        n = 11
        assert (n - 1) * angular_moment(n, (2,)) == pytest.approx(
            angular_moment(n, ()), rel=1e-13)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedPatternError):
            angular_moment(11, (4, 2))
        with pytest.raises(UnsupportedPatternError):
            angular_moment(11, (6,))

    def test_monte_carlo_cross_check(self):
        n = 11
        d = n - 1
        rng = np.random.default_rng(20260814)
        g = rng.standard_normal((400_000, d))
        theta = g / np.linalg.norm(g, axis=1, keepdims=True)
        w = sphere_area(d - 1)
        stat = theta[:, 0] ** 2 * theta[:, 1] ** 2
        est = w * float(np.mean(stat))
        se = w * float(np.std(stat)) / math.sqrt(len(stat))
        assert abs(est - angular_moment(n, (2, 2))) < 5 * se


class TestQuadraticSphereMoment:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_pattern_table_at_k2(self, seed):
        d = 10
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((d, d))
        S = 0.5 * (S + S.T)
        S -= np.trace(S) / d * np.eye(d)
        # For traceless symmetric S: <(theta^T S theta)^2> = 2 ||S||_F^2 w / (d (d+2))
        want = 2.0 * float(np.sum(S * S)) * sphere_area(d - 1) / (d * (d + 2))
        assert quadratic_sphere_moment(S, 2) == pytest.approx(want, rel=1e-12)

    def test_k1_traceless_vanishes(self):
        d = 10
        rng = np.random.default_rng(7)
        S = rng.standard_normal((d, d))
        S = 0.5 * (S + S.T)
        S -= np.trace(S) / d * np.eye(d)
        assert abs(quadratic_sphere_moment(S, 1)) < 1e-14 * np.linalg.norm(S)

    def test_identity_matrix_all_orders(self):
        # theta^T I theta = 1, so every power integrates to the sphere area
        d = 7
        for K in range(5):
            assert quadratic_sphere_moment(np.eye(d), K) == pytest.approx(
                sphere_area(d - 1), rel=1e-12)

    def test_monte_carlo_k3_k4(self):
        d = 10
        rng = np.random.default_rng(42)
        S = rng.standard_normal((d, d))
        S = 0.5 * (S + S.T)
        S -= np.trace(S) / d * np.eye(d)
        g = rng.standard_normal((600_000, d))
        theta = g / np.linalg.norm(g, axis=1, keepdims=True)
        y = np.einsum("bi,ij,bj->b", theta, S, theta)
        w = sphere_area(d - 1)
        for K in (3, 4):
            mc = w * float(np.mean(y ** K))
            se = w * float(np.std(y ** K)) / math.sqrt(len(y))
            assert abs(quadratic_sphere_moment(S, K) - mc) < 5 * se


class TestPanelGauss:
    def test_matches_analytic_value(self):
        # int_0^2 int_0^2 cos(x) e^-y (1 + x y) dy dx in closed form
        F = lambda x, y: np.cos(x) * np.exp(-y) * (1 + x * y)
        edges = np.linspace(0, 2, 9)
        x, w = panel_gauss_nodes(edges, 10)
        got = w @ F(x[:, None], x) @ w
        s2, c2, e2 = math.sin(2.0), math.cos(2.0), math.exp(-2.0)
        want = s2 * (1 - e2) + (2 * s2 + c2 - 1) * (1 - 3 * e2)
        assert got == pytest.approx(want, rel=1e-13)


class TestHalfSpaceMoments:
    @pytest.mark.parametrize("n,p,a,b", [
        (11, 9.0, 2, 0),    # I1 exponents
        (11, 11.0, 2, 4),   # I2
        (11, 11.0, 4, 2),   # I3
        (11, 9.0, 0, 2),    # I4
        (11, 8.5, 1, 3),    # fractional power off the named set
        (13, 12.0, 3, 1),
        (8, 8.0, 2, 2),
    ])
    def test_against_beta_oracle(self, n, p, a, b):
        key = MomentKey(p=p, a=a, b=b)
        assert moment(n, key) == pytest.approx(quad_moment(n, p, a, b), rel=1e-12)
        assert moment(n, key) == pytest.approx(oracle_moment(n, p, a, b), rel=1e-13)

    @pytest.mark.parametrize("n", range(11, 16))
    def test_program_keys_match_nested_quad(self, n):
        for key in program_keys(n):
            assert moment(n, key) == pytest.approx(
                quad_moment(n, key.p, key.a, key.b), rel=1e-12), key

    @pytest.mark.parametrize("n", range(11, 16))
    def test_boundary_half_line_moments_match_quad(self, n):
        # the radial integrals of A's boundary route and of B
        for c, p in [(n - 2.0, n - 1.0), (n - 2.0, n - 2.0)]:
            assert half_line_moment(c, p) == pytest.approx(
                half_line_quad(c, p), rel=1e-12)

    def test_divergent_key_rejected(self):
        with pytest.raises(DomainError):
            moment(11, MomentKey(p=6.0, a=2, b=0))

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            MomentKey(p=9.0, a=-1, b=0)

    def test_named_ratios_n11(self):
        # frozen: I1/I2 = 4(n-2)/(n+1) = 3 and I3/I2 = 12/((n-2)(n+1)) = 1/9 at n=11
        table = MomentTable(n=11)
        assert table.named("I1") / table.named("I2") == pytest.approx(3.0, rel=1e-9)
        assert table.named("I3") / table.named("I2") == pytest.approx(1.0 / 9.0, rel=1e-9)

    @pytest.mark.parametrize("n", [11, 12, 15])
    def test_named_ratios_general_n(self, n):
        table = MomentTable(n=n)
        assert table.named("I1") / table.named("I2") == pytest.approx(
            4.0 * (n - 2) / (n + 1), rel=1e-8)
        assert table.named("I3") / table.named("I2") == pytest.approx(
            12.0 / ((n - 2) * (n + 1)), rel=1e-8)

    def test_half_line_moment_oracle(self):
        # integral r^c (1+r^2)^-p = 1/2 B((c+1)/2, p-(c+1)/2)
        for c, p in [(9.0, 9.0), (10.0, 11.0), (4.0, 6.5), (0.0, 2.0)]:
            assert half_line_moment(c, p) == pytest.approx(
                half_line_quad(c, p), rel=1e-12)

    def test_half_line_divergent(self):
        with pytest.raises(DomainError):
            half_line_moment(5.0, 3.0)
        with pytest.raises(DomainError):  # r^-1 at the origin
            half_line_moment(-1.0, 3.0)


class TestMonteCarlo:
    def test_recovers_moment(self):
        n = 11
        key = MomentKey(p=9.0, a=2, b=0)
        want = oracle_moment(n, 9.0, 2, 0)

        def f(t, z):
            q = (1.0 + t) ** 2 + np.einsum("bi,bi->b", z, z)
            return t ** 2 * q ** -9.0

        est = mc_halfspace(n, f, n_samples=200_000, seed=5)
        assert isinstance(est, MCEstimate)
        assert abs(est.mean - want) < 5 * est.std_error
        assert est.std_error < 0.05 * abs(want)

    def test_deterministic(self):
        n = 11
        f = lambda t, z: np.exp(-t - np.einsum("bi,bi->b", z, z))
        a = mc_halfspace(n, f, n_samples=50_000, seed=99)
        b = mc_halfspace(n, f, n_samples=50_000, seed=99)
        assert a == b

    def test_seed_changes_stream(self):
        n = 11
        f = lambda t, z: np.exp(-t - np.einsum("bi,bi->b", z, z))
        a = mc_halfspace(n, f, n_samples=20_000, seed=1)
        b = mc_halfspace(n, f, n_samples=20_000, seed=2)
        assert a.mean != b.mean

    def test_poisoned_sample_reported(self):
        n = 11

        def f(t, z):
            out = np.ones_like(t)
            out[t > 1.0] = np.nan
            return out

        with pytest.raises(PoisonedEstimateError) as ei:
            mc_halfspace(n, f, n_samples=10_000, seed=3)
        assert ei.value.t > 1.0
        assert ei.value.z.shape == (n - 1,)

    def test_rows_match_single_passes(self):
        # a (k, B) integrand shares the samples; each row's estimate is the
        # one its own pass would give, bit for bit, across chunks too
        n = 5

        def rows(t, z):
            r2 = np.einsum("bi,bi->b", z, z)
            return np.stack([np.exp(-t - r2), t * np.exp(-r2), (1.0 + r2 + t) ** -4.0])

        n_samples = _MC_CHUNK + 1000
        ests = mc_halfspace(n, rows, n_samples=n_samples, seed=17)
        assert isinstance(ests, tuple) and len(ests) == 3
        for k, est in enumerate(ests):
            single = mc_halfspace(n, lambda t, z: rows(t, z)[k], n_samples=n_samples,
                                  seed=17)
            assert est == single

    def test_rows_weighted_one_at_a_time(self):
        # an integrand may return rows it keeps: they are read, not
        # weighted in place, and no weighted copy of them all is held
        import tracemalloc

        n_samples = 60_000
        kept = np.full((28, n_samples), 2.0)
        tracemalloc.start()
        try:
            ests = mc_halfspace(5, lambda t, z: kept, n_samples=n_samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(kept == 2.0)
        assert len(set(ests)) == 1
        assert peak < 0.75 * kept.nbytes, peak

    def test_poisoned_row_reported(self):
        def rows(t, z):
            bad = np.ones_like(t)
            bad[t > 1.0] = np.inf
            return np.stack([np.ones_like(t), bad])

        with pytest.raises(PoisonedEstimateError) as ei:
            mc_halfspace(5, rows, n_samples=1000, seed=3)
        assert ei.value.t > 1.0

    def test_variance_survives_large_mean(self):
        # weighted values 1e6 + cos(t): mean/std about 1.4e6, over three
        # chunks; sum-of-squares minus mean^2 loses the variance here
        n, d, nu = 3, 2, 3.0
        t_scale, z_scale = 0.8, 0.5
        log_norm = (lgamma(0.5 * (nu + d)) - lgamma(0.5 * nu)
                    - 0.5 * d * math.log(nu * math.pi) - d * math.log(z_scale))
        seen = []

        def weighted(t):
            return 1e6 + np.cos(t)

        def f(t, z):
            seen.append(t)
            log_q = (math.log(2.0 / (math.pi * t_scale)) - np.log1p((t / t_scale) ** 2)
                     + log_norm - 0.5 * (nu + d)
                     * np.log1p(np.einsum("bi,bi->b", z, z) / (nu * z_scale ** 2)))
            return weighted(t) * np.exp(log_q)

        n_samples = 2 * _MC_CHUNK + 12345
        est = mc_halfspace(n, f, n_samples=n_samples, seed=8, t_scale=t_scale,
                           z_scale=z_scale)
        x = weighted(np.concatenate(seen))
        assert x.size == n_samples
        assert x.mean() / x.std() >= 1e6
        ref = math.sqrt(np.sum((x - x.mean()) ** 2) / n_samples / (n_samples - 1))
        assert est.std_error == pytest.approx(ref, rel=1e-10)
