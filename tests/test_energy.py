"""Energy coefficients and slope experiments.

Closed-form Beta oracles for A and B, Monte Carlo oracles for the G terms,
assembly identities for phi, and the two slope experiments on shared
big-domain corrector solutions.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline
from scipy.special import beta as beta_fn

from halfbubble import cli, corrector, energy
from halfbubble.bubble import eval_U, eval_U_grad, eval_U_hess
from halfbubble.corrector import (GridConfig, _MAP_SCALE, _compress, _stretch,
                                  _y_of_z, solve_vq)
from halfbubble.energy import (
    IDENTITY_DELTAS,
    ReducedCoefficients,
    _angular_coefficients,
    _ladder_terms,
    SlopeExperiment,
    compute_A,
    compute_A_boundary,
    compute_A_gradient,
    compute_B,
    compute_G_terms,
    compute_phi,
    cutoff_chi,
    residual_slope,
    verify_A4_L2_L3_identity,
)
from halfbubble.errors import BudgetError, DomainError, ValidationFailure
from halfbubble.geometry import generate_sample, metric_expansion
from halfbubble.quadrature import (
    MomentKey,
    mc_halfspace,
    moment,
    quadratic_sphere_moment,
    sphere_area,
)
from metric_reference import ref_metric_divergence, ref_metric_g

DIMS = (11, 13, 15)


def fitpack_spline(prof):
    """FITPACK's interpolating quintic on the profile's nodes: the
    reference for the profile's own interpolant and for the mixed partial,
    which the profile does not evaluate."""
    return RectBivariateSpline(prof.tau, prof.sigma, prof.psi, kx=5, ky=5)


def zero_curvature_point(n):
    pt = generate_sample(n, seed=0)
    m = n - 1
    return dataclasses.replace(
        pt, S=np.zeros((m, m)), Rbar=np.zeros((m, m, m, m)),
        D2=0.0, Rnnnn=0.0, Wbar2=0.0)


@pytest.fixture(scope="module")
def point11():
    return generate_sample(11, seed=1)


@pytest.fixture(scope="module")
def sol11(point11):
    """The program's corrector: the Richardson profile on the default grid
    (192 cells, caps 160)."""
    return solve_vq(point11)


# ---------------------------------------------------------------------------


class TestProfileConstants:
    @pytest.mark.parametrize("n", DIMS)
    def test_A_matches_beta_oracle(self, n):
        boundary_oracle = sphere_area(n - 2) * 0.5 * beta_fn(
            (n - 1) / 2.0, (n - 1) / 2.0)
        oracle = (n - 2.0) / (2.0 * (n - 1.0)) * boundary_oracle
        assert compute_A(n) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("n", DIMS)
    def test_A_positive(self, n):
        assert compute_A(n) > 0.0

    @pytest.mark.parametrize("n", DIMS)
    def test_gradient_route_matches_beta_oracle(self, n):
        oracle = (n - 2.0) ** 2 * sphere_area(n - 2) * 0.5 \
            * beta_fn((n - 1) / 2.0, (n - 1) / 2.0) / (n - 2.0)
        assert compute_A_gradient(n) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("n", DIMS)
    def test_divergence_theorem_ties_the_two_routes(self, n):
        # the half-space moment against the boundary half-line moment:
        # two Beta closed forms, tied by the divergence theorem
        grad = compute_A_gradient(n)
        boundary = compute_A_boundary(n)
        assert grad == pytest.approx((n - 2.0) * boundary, rel=1e-8)

    @pytest.mark.parametrize("n", DIMS)
    def test_B_matches_beta_oracle(self, n):
        oracle = 0.25 * sphere_area(n - 2) * beta_fn(
            (n - 1) / 2.0, (n - 3) / 2.0)
        assert compute_B(n) == pytest.approx(oracle, rel=1e-8)

    def test_B_positive(self):
        for n in DIMS:
            assert compute_B(n) > 0.0

    def test_B_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            compute_B(4)

    def test_B_stable_under_node_doubling(self):
        # fixed-panel Gauss evaluation of the same radial integrand at two
        # node counts; doubling must not move the value beyond 1e-10
        n = 11

        def gauss_value(order):
            edges = np.concatenate([[0.0], np.geomspace(0.05, 60.0, 60)])
            x, w = np.polynomial.legendre.leggauss(order)
            total = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                r = mid + half * x
                total += half * np.sum(w * r ** (n - 2)
                                       * (1 + r * r) ** (-(n - 2.0)))
            tail = 60.0 ** (n - 2 - 2 * (n - 2) + 1) / (n - 3.0)
            return 0.5 * sphere_area(n - 2) * total, tail

        v1, tail = gauss_value(10)
        v2, _ = gauss_value(20)
        assert abs(v1 - v2) <= 1e-10 * abs(v2)
        assert abs(v2 - compute_B(n)) <= 1e-8 * abs(v2) + tail


class TestGTerms:
    def test_G1_identically_zero(self, point11):
        G1, _, _ = compute_G_terms(point11)
        assert G1 == 0.0

    @pytest.mark.parametrize("n", DIMS)
    def test_closed_forms(self, n):
        pt = generate_sample(n, seed=2)
        I2 = moment(n, MomentKey(n, 2, 4))
        _, G2, G3 = compute_G_terms(pt)
        assert G2 == pytest.approx(
            (n - 2.0) ** 2 / (n * n - 1.0) * I2 * pt.D2, rel=1e-12)
        assert G3 == pytest.approx(
            6.0 * (n - 2.0) / (n * n - 1.0) * I2 * pt.s_norm_sq(), rel=1e-12)

    def test_G3_nonnegative_on_battery(self):
        for n in DIMS:
            for seed in range(4):
                _, _, G3 = compute_G_terms(generate_sample(n, seed=seed))
                assert G3 >= 0.0

    def test_G3_mc_oracle(self, point11):
        # defining integral: sum_i (1/12)(c_i + 8 (S^2)_ii) int t^4 (dU_i)^2
        # with a synthetic diagonal c summing to Rnnnn = -2 ||S||^2
        pt = point11
        n = pt.n
        m = n - 1
        rng = np.random.default_rng(7)
        c = rng.normal(size=m)
        c += (pt.Rnnnn - c.sum()) / m
        weights = (c + 8.0 * np.diag(pt.S @ pt.S)) / 12.0

        def integrand(t, z):
            gu = eval_U_grad(n, t, z)[:, :m]
            return t ** 4 * np.einsum("i,bi->b", weights, gu ** 2)

        est = mc_halfspace(n, integrand, n_samples=400000, seed=3,
                           t_scale=1.5, z_scale=1.5)
        _, _, G3 = compute_G_terms(pt)
        assert est.std_error <= 0.05 * abs(G3)
        assert abs(est.mean - G3) <= 3.0 * est.std_error

    def test_G2_mc_oracle(self, point11):
        # defining integral: (n-2)^2/2 int T_ijkl z_i z_j z_k z_l t^2 Q^-n
        # with the gauge-normalized quartic tensor: nn-trace free, contraction D2
        pt = point11
        n = pt.n
        m = n - 1
        T4 = metric_expansion(pt, seed=0).T4
        assert np.einsum("ijij->", T4) == pytest.approx(pt.D2, rel=1e-10)
        assert np.abs(np.einsum("iikl->kl", T4)).max() < 1e-12
        T4r = T4.reshape(m * m, m * m)

        def integrand(t, z):
            Q = (1.0 + t) ** 2 + np.einsum("bi,bi->b", z, z)
            zz = (z[:, :, None] * z[:, None, :]).reshape(len(z), m * m)
            quart = np.einsum("bq,bq->b", zz @ T4r, zz)
            return 0.5 * (n - 2.0) ** 2 * t ** 2 * quart * Q ** (-float(n))

        est = mc_halfspace(n, integrand, n_samples=10 ** 6, seed=4,
                           t_scale=1.0, z_scale=1.0)
        _, G2, _ = compute_G_terms(pt)
        assert est.std_error <= 0.35 * abs(G2)
        assert abs(est.mean - G2) <= 3.0 * est.std_error


class TestPhi:
    def test_record_fields_and_assembly(self, point11, sol11):
        co = compute_phi(point11, sol11)
        n = co.n
        term_R = (n - 2.0) * (n - 8.0) / (4.0 * (n * n - 1.0)) \
            * point11.Rnnnn * co.I2
        term_W = -(n - 2.0) / (96.0 * (n - 1.0) ** 2) * point11.Wbar2 * co.I4
        assert co.phi == pytest.approx(0.5 * co.pairing + term_R + term_W,
                                       rel=1e-14)
        assert co.label == point11.label
        assert co.B > 0 and co.A > 0 and co.G3 >= 0

    def test_phi_negative_on_battery(self):
        for n in DIMS:
            for seed in (1, 2, 3):
                pt = generate_sample(n, seed=seed)
                co = compute_phi(pt, solve_vq(pt))
                assert co.phi < 0.0

    def test_weyl_denominator_variants(self, point11, sol11):
        co_sq = compute_phi(point11, sol11, weyl_denominator="96(n-1)^2")
        co_lin = compute_phi(point11, sol11, weyl_denominator="96(n-1)")
        n = point11.n
        # the two variants differ exactly by the (n-1) factor on the Weyl term
        diff_oracle = -(n - 2.0) * point11.Wbar2 * co_sq.I4 / 96.0 \
            * (1.0 / (n - 1.0) - 1.0 / (n - 1.0) ** 2)
        assert co_lin.phi - co_sq.phi == pytest.approx(diff_oracle, rel=1e-12)
        assert co_lin.phi < co_sq.phi < 0.0

    def test_weyl_denominator_rejects_unknown(self, point11, sol11):
        with pytest.raises(DomainError):
            compute_phi(point11, sol11, weyl_denominator="96n")

    def test_zero_curvature_gives_zero_phi(self):
        pt = zero_curvature_point(11)
        co = compute_phi(pt, solve_vq(pt))
        assert co.phi == 0.0 and co.pairing == 0.0
        assert co.G2 == 0.0 and co.G3 == 0.0

    def test_weyl_only_point_strictly_negative(self):
        pt = dataclasses.replace(zero_curvature_point(11), Wbar2=1.0)
        co = compute_phi(pt, solve_vq(pt))
        assert co.pairing == 0.0
        assert co.phi < 0.0

    def test_phi_linear_in_Rnnnn_and_Wbar2(self, sol11, point11):
        def phi_at(**kw):
            return compute_phi(dataclasses.replace(point11, **kw), sol11).phi

        base = phi_at(Rnnnn=0.0)
        a, b = -0.7, -1.9
        assert phi_at(Rnnnn=a) + phi_at(Rnnnn=b) - base == pytest.approx(
            phi_at(Rnnnn=a + b), rel=1e-12)
        base_w = phi_at(Wbar2=0.0)
        assert phi_at(Wbar2=0.25) + phi_at(Wbar2=1.5) - base_w == \
            pytest.approx(phi_at(Wbar2=1.75), rel=1e-12)

    def test_pairing_enters_with_factor_half(self, point11, sol11):
        co = compute_phi(point11, sol11)
        co_ref = compute_phi(dataclasses.replace(point11), sol11)
        assert co.phi == co_ref.phi
        # remove the closed-form terms; what is left is pairing / 2
        n = co.n
        term_R = (n - 2.0) * (n - 8.0) / (4.0 * (n * n - 1.0)) \
            * point11.Rnnnn * co.I2
        term_W = -(n - 2.0) / (96.0 * (n - 1.0) ** 2) * point11.Wbar2 * co.I4
        assert co.phi - term_R - term_W == pytest.approx(0.5 * co.pairing,
                                                         rel=1e-12)

    def test_positive_phi_raises_validation_failure(self, point11, sol11):
        # force a positive assembly by flipping Rnnnn to a large positive
        # value: the invariant phi <= 0 must be enforced, not silently kept
        bad = dataclasses.replace(point11, Rnnnn=50.0)
        with pytest.raises(ValidationFailure):
            compute_phi(bad, sol11)


class TestCutoff:
    def test_plateau_and_support(self):
        s = np.array([0.0, 0.2, 0.5])
        assert np.all(cutoff_chi(s) == 1.0)
        assert np.all(cutoff_chi(np.array([1.0, 1.7, 30.0])) == 0.0)

    def test_derivatives_match_finite_differences(self):
        # stay clear of the joins: chi is C^2 there but the third
        # derivative jumps, which poisons the second central difference
        s = np.linspace(0.3, 1.2, 37)
        h = 1e-4
        s = s[(np.abs(s - 0.5) > 5 * h) & (np.abs(s - 1.0) > 5 * h)]
        d1 = (cutoff_chi(s + h) - cutoff_chi(s - h)) / (2 * h)
        d2 = (cutoff_chi(s + h) - 2 * cutoff_chi(s) + cutoff_chi(s - h)) / h ** 2
        assert np.abs(cutoff_chi(s, 1) - d1).max() < 1e-6
        assert np.abs(cutoff_chi(s, 2) - d2).max() < 1e-5

    def test_c2_join(self):
        for s in (0.5, 1.0):
            for order in (1, 2):
                assert cutoff_chi(np.array([s]), order)[0] == 0.0

    def test_monotone(self):
        s = np.linspace(0.0, 1.0, 101)
        assert np.all(np.diff(cutoff_chi(s)) <= 0.0)


class TestSlopeExperimentType:
    def test_rejects_short_ladder(self):
        with pytest.raises(DomainError):
            SlopeExperiment(deltas=np.geomspace(0.01, 0.5, 4),
                            values=np.ones(4), slope=1.0, intercept=0.0,
                            band=0.1)

    def test_rejects_narrow_ladder(self):
        with pytest.raises(DomainError):
            SlopeExperiment(deltas=np.geomspace(0.05, 0.5, 6),
                            values=np.ones(6), slope=1.0, intercept=0.0,
                            band=0.1)

    def test_accepts_conforming_ladder(self):
        exp = SlopeExperiment(deltas=np.geomspace(0.01, 0.5, 7),
                              values=np.ones(7), slope=1.0, intercept=0.0,
                              band=0.1)
        assert exp.status == "ok"

    def test_degenerate_skips_ladder_checks(self):
        exp = SlopeExperiment(deltas=np.array([0.1]), values=np.array([0.0]),
                              slope=float("nan"), intercept=float("nan"),
                              band=float("nan"), status="degenerate")
        assert exp.status == "degenerate"


def _panel_edges(cap, count):
    """Panel edges on [0, cap], geometric away from a linear start."""
    lead = cap / count / 4.0
    return np.concatenate([[0.0], np.geomspace(lead, cap, count)])


def _full_grid_chi_tr(t, r, delta):
    """The cutoff chi(delta rho) and its (t, r) partials, the formula on
    every point."""
    rho = np.sqrt(t * t + r * r)
    rho_safe = np.maximum(rho, 1e-300)
    s = delta * rho
    c1 = cutoff_chi(s, 1) * delta
    return cutoff_chi(s), c1 * t / rho_safe, c1 * r / rho_safe


def _dressed_bulk(point, prof, delta, t, r):
    """The identity's three bulk integrands at (t, r), with the cutoff
    dressed into U and psi and their (t, r) derivatives: the S and the
    flat part of the metric cross term and the corrector Dirichlet core,
    each times the sphere's r^(n-2).  U and its gradient are read from the
    dense eval_U / eval_U_grad at z = r e_1."""
    n = point.n
    cY, cYY, cS2 = _angular_coefficients(point)
    t, r = np.broadcast_arrays(t, r)
    chi, ct, cr = _full_grid_chi_tr(t, r, delta)
    u = eval_U(n, t, _on_axis(n, r))
    grad = eval_U_grad(n, t, _on_axis(n, r))
    u_t, u_r = grad[..., n - 1], grad[..., 0]
    psi, psi_t, psi_r, *_ = prof.eval(t, r)
    uc_r = u_r * chi + u * cr
    uc_t = u_t * chi + u * ct
    vc = psi * chi
    vc_t = psi_t * chi + psi * ct
    vc_r = psi_r * chi + psi * cr
    w = r ** (n - 2)
    cross_S = t * t * uc_r * (cYY * vc_r + 2.0 * (cS2 - cYY) * vc / r)
    cross_flat = cY * (uc_t * vc_t + uc_r * vc_r)
    dir_core = cYY * (vc_t ** 2 + vc_r ** 2) + 4.0 * (cS2 - cYY) * (vc / r) ** 2
    return np.stack([cross_S * w, cross_flat * w, dir_core * w])


def _boundary_parts(point, prof, delta, r):
    """The boundary Taylor integrands (chi u)^(p-2) (chi psi)^2 r^(n-2)
    and (chi u)^(p-3) (chi psi)^3 r^(n-2) on t = 0, at r inside the
    cutoff's support."""
    n = point.n
    p = 2.0 * (n - 1.0) / (n - 2.0)
    chi = cutoff_chi(delta * r)
    uc = eval_U(n, np.zeros_like(r), _on_axis(n, r)) * chi
    vc = prof.eval(np.zeros_like(r), r)[0] * chi
    w = r ** (n - 2)
    return uc ** (p - 2.0) * vc ** 2 * w, uc ** (p - 3.0) * vc ** 3 * w


def _on_axis(n, r):
    """z = r e_1 in R^(n-1)."""
    z = np.zeros(np.shape(r) + (n - 1,))
    z[..., 0] = r
    return z


def _A4(point, delta, R2, R3):
    n = point.n
    p = 2.0 * (n - 1.0) / (n - 2.0)
    _, cYY, _ = _angular_coefficients(point)
    c_n = (n - 2.0) ** 2 / (2.0 * (n - 1.0))
    cY3 = quadratic_sphere_moment(point.S, 3)
    return (-(c_n * p * (p - 1.0) / 2.0) * delta ** 4 * cYY * R2
            - (c_n * p * (p - 1.0) * (p - 2.0) / 6.0) * delta ** 6 * cY3 * R3)


def _ref_identity_terms(point, sol, delta, panels=40, order=10):
    """Cartesian reference for the identity terms at one delta: 40
    boundary panels on [0, 1/delta] and their 40 x 40 tensor panels, 10
    Gauss nodes per panel and axis, a t-panel's row of r-panels at a
    time, with U read from the dense eval_U at z = r e_1 and the Taylor
    ratio from the jet's psi."""
    n = point.n
    prof = sol.profile
    cap = 1.0 / delta
    edges = _panel_edges(cap, panels)
    x_nodes, x_weights = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x_nodes).ravel()
    weights = (half[:, None] * x_weights).ravel()
    quad, cubic = _boundary_parts(point, prof, delta, nodes)
    A4 = _A4(point, delta, np.sum(weights * quad), np.sum(weights * cubic))

    r_probe = np.geomspace(1e-2, cap, 200)
    ratio = (delta ** 2 * np.abs(prof.eval(np.zeros_like(r_probe), r_probe)[0])
             * max(np.abs(np.linalg.eigvalsh(point.S)).max(), 1e-300)
             / eval_U(n, np.zeros_like(r_probe), _on_axis(n, r_probe)))

    totals = np.zeros(3)
    for s in range(0, nodes.size, order):
        t = nodes[s:s + order, None]
        vals = _dressed_bulk(point, prof, delta, t, nodes[None, :])
        totals += np.sum(vals * weights[s:s + order, None] * weights, axis=(1, 2))
    return {"A4": A4, "L2": delta ** 4 * (totals[0] + totals[1]),
            "L3": 0.5 * delta ** 4 * totals[2], "ratio_max": float(np.max(ratio))}


class TestIdentityExperiment:
    def test_slope_and_coefficient(self, point11, sol11):
        exp = verify_A4_L2_L3_identity(point11, sol11)
        assert exp.status == "ok"
        assert exp.slope >= 4.5
        assert exp.slope - exp.band > 4.2
        c4, target = exp.extras["c4_fit"], exp.extras["c4_target"]
        assert abs(c4 - target) <= 0.02 * abs(target)
        assert target == pytest.approx(0.5 * sol11.pairing(), rel=1e-14)

    def test_taylor_region_never_clipped(self, point11, sol11):
        exp = verify_A4_L2_L3_identity(point11, sol11)
        assert exp.extras["taylor_ratio_max"] < 0.5

    def test_one_pass_matches_rung_by_rung(self, point11, sol11):
        # each rung's A4, L2 and L3 from the one pass equal today's dressed
        # integrands evaluated rung by rung on the same polar nodes; the
        # remainder cancels about 4 digits of the sum, so it is bounded
        # against |sum|, not against itself
        deltas = np.asarray(IDENTITY_DELTAS)
        got = energy._identity_ladder(point11, sol11, deltas)
        rho, w_rho, theta, w_theta = energy._polar_nodes(deltas)
        t, r = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
        prof = sol11.profile
        pairing = sol11.pairing()
        for k, delta in enumerate(deltas):
            vals = _dressed_bulk(point11, prof, delta, t, r)
            totals = np.sum(vals * (w_rho * rho)[:, None] * w_theta, axis=(1, 2))
            inside = delta * rho < 1.0
            quad, cubic = _boundary_parts(point11, prof, delta, rho[inside])
            want = {"A4": _A4(point11, delta, np.sum(w_rho[inside] * quad),
                              np.sum(w_rho[inside] * cubic)),
                    "L2": delta ** 4 * (totals[0] + totals[1]),
                    "L3": 0.5 * delta ** 4 * totals[2]}
            for key in ("A4", "L2", "L3"):
                assert got[key][k] == pytest.approx(want[key], rel=1e-13, abs=0.0), (delta, key)
            total = got["A4"][k] + got["L2"][k] + got["L3"][k]
            want_total = want["A4"] + want["L2"] + want["L3"]
            remainder = total - 0.5 * delta ** 4 * pairing
            want_remainder = want_total - 0.5 * delta ** 4 * pairing
            assert abs(remainder - want_remainder) <= 1e-12 * abs(want_total), delta

    def test_batched_terms_match_panel_loop(self, point11, sol11):
        # the polar one pass against the Cartesian panel rule of 40 x 40
        # panels per rung, to that rule's own error: against a refined
        # polar rule (8 angular panels of 20 nodes, 200 geometric radial
        # panels of 12 nodes) it is off by up to 2.5e-8 in A4, 4.4e-8 in
        # L2 and L3, and 7.1e-8 of |sum| in the sum, where the one pass is
        # off by 1e-9 or less
        exp = verify_A4_L2_L3_identity(point11, sol11)
        got = energy._identity_ladder(point11, sol11, exp.deltas)
        pairing = sol11.pairing()
        ratios = []
        for k, d in enumerate(exp.deltas):
            ref = _ref_identity_terms(point11, sol11, float(d))
            for key in ("A4", "L2", "L3"):
                assert got[key][k] == pytest.approx(ref[key], rel=5e-8, abs=0.0), (d, key)
            ref_total = ref["A4"] + ref["L2"] + ref["L3"]
            ref_remainder = ref_total - 0.5 * d ** 4 * pairing
            assert abs(exp.values[k] - ref_remainder) <= 1e-7 * abs(ref_total), d
            assert got["ratio_max"][k] == ref["ratio_max"]
            ratios.append(ref["ratio_max"])
        assert exp.extras["taylor_ratio_max"] == max(ratios)

    @pytest.mark.parametrize("n", [11, 15])
    def test_grid_jet_matches_spline_partials(self, n, sol11, sol15_far):
        # the profile jet on the identity ladder's polar nodes against one
        # partial each from FITPACK's evaluator, mapped by the chain rule;
        # the innermost radial node (t, r -> 0) is also bounded on its own
        # scale.  FITPACK evaluates this profile's own coefficients
        prof = (sol11 if n == 11 else sol15_far).profile
        spline = fitpack_spline(prof)
        spline.tck = (*spline.tck[:2], prof._coef.ravel())
        rho, _, theta, _ = energy._polar_nodes(IDENTITY_DELTAS)
        t, r = rho[:, None] * np.cos(theta), rho[:, None] * np.sin(theta)
        tau, sigma = _compress(t, _MAP_SCALE), _compress(r, _MAP_SCALE)
        x, y = tau.ravel(), sigma.ravel()
        want = (spline(x, y, grid=False).reshape(t.shape),
                spline(x, y, dx=1, grid=False).reshape(t.shape)
                / _stretch(tau, _MAP_SCALE)[1],
                spline(x, y, dy=1, grid=False).reshape(t.shape)
                / _stretch(sigma, _MAP_SCALE)[1])
        for got, ref in zip(prof.eval(t, r), want):
            assert got.shape == ref.shape
            err = np.abs(got - ref)
            assert np.max(err) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(err[0]) <= 1e-13 * np.max(np.abs(ref[0]))

    def test_one_profile_eval_per_ladder(self, point11, sol11, monkeypatch):
        # the profile's first derivatives are evaluated once per ladder, on
        # every polar node at once; each rung only sums over the radial nodes
        sol11.pairing()
        calls, real = [], corrector.Profile2D.eval

        def counted(self, t, r, **kwargs):
            calls.append((np.broadcast(t, r).size, kwargs))
            return real(self, t, r, **kwargs)

        monkeypatch.setattr(corrector.Profile2D, "eval", counted)
        verify_A4_L2_L3_identity(point11, sol11)
        rho, _, theta, _ = energy._polar_nodes(IDENTITY_DELTAS)
        assert calls == [(rho.size * theta.size, {"order": 1})]

    @pytest.mark.parametrize("delta", [0.5 * 10.0 ** -1.5, 0.5])
    def test_whole_grid_psi_equals_its_row_blocks(self, point11, sol11, delta):
        # the delta-free pieces of a block of radial nodes do not depend
        # on the block: a rung's own support, evaluated alone, gives the
        # bits the whole node set gave there
        rho, _, theta, w_theta = energy._polar_nodes(IDENTITY_DELTAS)
        inside = delta * rho < 1.0
        whole = energy._bulk_pieces(point11, sol11, rho, theta, w_theta)
        block = energy._bulk_pieces(point11, sol11, rho[inside], theta, w_theta)
        assert np.array_equal(whole[..., inside], block)

    def test_zero_curvature_is_degenerate(self):
        pt = zero_curvature_point(11)
        sol = solve_vq(pt)
        exp = verify_A4_L2_L3_identity(pt, sol)
        assert exp.status == "degenerate"
        assert np.all(exp.values == 0.0)

    def test_small_grid_rejected_for_deep_ladder(self, point11):
        # caps 40, below the fixed ladder's reach of 63.2
        grid = GridConfig(n_t=48, n_r=48, t_max=40.0, r_max=40.0)
        with pytest.raises(DomainError):
            verify_A4_L2_L3_identity(point11, solve_vq(point11, grid))


class TestResidualSlope:
    def test_slope_in_window(self, point11, sol11):
        exp = residual_slope(point11, sol11, mc_samples=60000, seed=0)
        assert exp.status == "ok"
        assert 2.7 <= exp.slope <= 3.3

    def test_v_omission_degrades_slope_to_two(self, point11, sol11):
        exp = residual_slope(point11, mc_samples=40000, seed=0)
        assert abs(exp.slope - 2.0) <= 0.3

    def test_cancellation_one_order_faster(self, point11, sol11):
        exp = residual_slope(point11, sol11, mc_samples=40000, seed=0)
        fast = exp.extras["cancel_slope_sum"]
        each = max(exp.extras["cancel_slope_v"],
                   exp.extras["cancel_slope_metric"])
        assert fast >= each + 0.8

    def test_cancellation_one_pass_matches_three(self, point11, sol11):
        # every rung's main norm and its three cancellation norms share one
        # sample set, read in pieces; each is the norm a pass of its own on
        # the same seed gives, bit for bit, from a row of the ladder terms
        # evaluated on each chunk whole
        n = 11
        p = 2.0 * n / (n + 2.0)
        deltas = np.geomspace(0.02, 0.7, 5)
        samples = energy._PIECE + 904
        exp = residual_slope(point11, sol11, deltas=deltas,
                             mc_samples=samples, seed=5, max_rel_error=1.0)
        me = metric_expansion(point11, seed=0, deg3_scale=5.0)
        for kind, key in enumerate(("norms", "cancel_sum", "cancel_v_alone",
                                    "cancel_metric_alone")):
            for k in (0, len(deltas) - 1):
                want = mc_halfspace(
                    n, lambda t, z: np.abs(_ladder_terms(
                        point11, sol11, me, deltas, t, z)[kind, k]) ** p,
                    n_samples=samples, seed=5, t_scale=0.8,
                    z_scale=0.5).mean ** (1.0 / p)
                assert exp.extras[key][k] == want, (key, k)

    @pytest.mark.parametrize("with_corrector", [True, False])
    def test_one_sample_set_for_the_ladder(self, point11, sol11,
                                           monkeypatch, with_corrector):
        # one residual_slope draws one sample set: one mc_halfspace call,
        # whose rows are every rung's main estimate and, with the
        # corrector, its three cancellation estimates
        calls, real = [], energy.mc_halfspace

        def counted(n, integrand, n_samples, seed, **kwargs):
            ests = real(n, integrand, n_samples, seed, **kwargs)
            calls.append((n_samples, seed, len(ests)))
            return ests

        monkeypatch.setattr(energy, "mc_halfspace", counted)
        sol = sol11 if with_corrector else None
        deltas = np.geomspace(0.02, 0.7, 5)
        residual_slope(point11, sol, deltas=deltas, mc_samples=2000, seed=1,
                       max_rel_error=1.0)
        assert calls == [(2000, 1, 5 * (4 if with_corrector else 1))]

    def test_ladder_norms_positive(self, point11, sol11):
        # every rung's residual norm and cancellation sum is a positive
        # number, not a zero from a term that dropped out
        exp = residual_slope(point11, sol11, deltas=np.geomspace(0.02, 0.7, 5),
                             mc_samples=2000, seed=1, max_rel_error=1.0)
        assert np.all(exp.extras["norms"] > 0)
        assert np.all(exp.extras["cancel_sum"] > 0)

    def test_zero_curvature_degenerate(self):
        pt = zero_curvature_point(11)
        sol = solve_vq(pt)
        exp = residual_slope(pt, sol, mc_samples=1000, seed=0)
        assert exp.status == "degenerate"

    def test_budget_error_on_starved_sampler(self, point11, sol11):
        with pytest.raises(BudgetError):
            residual_slope(point11, sol11, mc_samples=1500, seed=0,
                           deltas=np.geomspace(0.015, 0.5, 5),
                           max_rel_error=0.05)

    def test_budget_error_message_prints_plain_numbers(self, point11,
                                                       sol11):
        # no error is allowed, so the first rung fails
        with pytest.raises(BudgetError) as info:
            residual_slope(point11, sol11, mc_samples=1500, seed=0,
                           deltas=[0.015, 0.03, 0.06, 0.12, 0.5],
                           max_rel_error=0.0)
        exc = info.value
        assert str(exc) == (
            f"MC variance too high at delta=0.015: norm {exc.best_estimate!r} "
            f"+- {exc.error_estimate!r} from 1500 samples; raise mc_samples")


# ---------------------------------------------------------------------------
# Dense references for the residual ladder's structured integrand: every
# Hessian and gradient built as a per-sample (B, n, n) / (B, n) array and
# contracted with the reference g = Minv - I entry by entry.


def _dense_v_derivatives(sol, t, z):
    """(value, gradient, Hessian) of the corrector, derivative slots ordered
    (z_1..z_{n-1}, t)."""
    n = sol.point.n
    S = sol.point.S
    B = z.shape[0]
    r = np.sqrt(np.sum(z * z, axis=-1))
    r_safe = np.maximum(r, 1e-9)
    theta = z / r_safe[:, None]
    Y = _y_of_z(S, z)
    Sz = z @ S
    p, p_t, p_r, p_tt, p_rr = sol.profile.eval(t, r)
    # the mixed partial, which Profile2D.eval does not return, from
    # FITPACK's quintic on the same nodes
    Lt = Lr = _MAP_SCALE
    tau, sigma = _compress(t, Lt), _compress(r, Lr)
    p_tr = fitpack_spline(sol.profile)(tau, sigma, dx=1, dy=1, grid=False) / (
        _stretch(tau, Lt)[1] * _stretch(sigma, Lr)[1])
    dY = (2.0 * Sz - 2.0 * Y[:, None] * z) / r_safe[:, None] ** 2
    eye = np.eye(n - 1)
    d2Y = (2.0 * S[None] / r_safe[:, None, None] ** 2
           - 4.0 * (Sz[:, :, None] * z[:, None, :] + Sz[:, None, :] * z[:, :, None])
           / r_safe[:, None, None] ** 4
           - 2.0 * Y[:, None, None] * eye[None] / r_safe[:, None, None] ** 2
           + 8.0 * Y[:, None, None] * z[:, :, None] * z[:, None, :]
           / r_safe[:, None, None] ** 4)
    grad = np.empty((B, n))
    grad[:, : n - 1] = p_r[:, None] * theta * Y[:, None] + p[:, None] * dY
    grad[:, n - 1] = p_t * Y
    hess = np.empty((B, n, n))
    tt = theta[:, :, None] * theta[:, None, :]
    hess[:, : n - 1, : n - 1] = (
        p_rr[:, None, None] * tt * Y[:, None, None]
        + p_r[:, None, None] * (eye[None] - tt) / r_safe[:, None, None] * Y[:, None, None]
        + p_r[:, None, None] * (theta[:, :, None] * dY[:, None, :]
                                + theta[:, None, :] * dY[:, :, None])
        + p[:, None, None] * d2Y)
    cross = p_tr[:, None] * theta * Y[:, None] + p_t[:, None] * dY
    hess[:, : n - 1, n - 1] = cross
    hess[:, n - 1, : n - 1] = cross
    hess[:, n - 1, n - 1] = p_tt * Y
    return p * Y, grad, hess


def _dense_shell(n, delta, t_all, z_all):
    """Kept samples and chi with its gradient, Laplacian and Hessian."""
    keep = delta * np.sqrt(t_all * t_all + np.sum(z_all * z_all, axis=1)) < 1.0
    t, z = t_all[keep], z_all[keep]
    x = np.concatenate([z, t[:, None]], axis=1)
    rho = np.sqrt(np.sum(x * x, axis=1))
    rho_safe = np.maximum(rho, 1e-8)
    xhat = x / rho_safe[:, None]
    s = delta * rho
    chi = cutoff_chi(s)
    chi1 = cutoff_chi(s, 1) * delta
    chi2 = cutoff_chi(s, 2) * delta * delta
    grad_chi = chi1[:, None] * xhat
    lap_chi = chi2 + chi1 * (n - 1.0) / rho_safe
    hess_chi = (chi2[:, None, None] * xhat[:, :, None] * xhat[:, None, :]
                + (chi1 / rho_safe)[:, None, None]
                * (np.eye(n)[None] - xhat[:, :, None] * xhat[:, None, :]))
    return keep, t, z, chi, grad_chi, lap_chi, hess_chi


def _dense_dressed(u, gu, hu, chi, grad_chi, lap_chi, hess_chi, lap_u):
    """Laplacian, gradient and Hessian of chi * f from the jets of f."""
    lap = chi * lap_u + 2.0 * np.einsum("bi,bi->b", gu, grad_chi) + u * lap_chi
    hess = (chi[:, None, None] * hu + gu[:, :, None] * grad_chi[:, None, :]
            + grad_chi[:, :, None] * gu[:, None, :] + u[:, None, None] * hess_chi)
    return lap, chi[:, None] * gu + u[:, None] * grad_chi, hess


def _dense_residual_integrand(sol, me, delta, include_v):
    """F and, per sample, the sum of the magnitudes of the terms it adds
    up (the scale of its rounding floor)."""
    n = sol.point.n
    m = n - 1

    def F(t_all, z_all):
        out_all = np.zeros(t_all.shape[0])
        mag_all = np.zeros(t_all.shape[0])
        keep, t, z, chi, grad_chi, lap_chi, hess_chi = _dense_shell(
            n, delta, t_all, z_all)
        # U is harmonic: its own Laplacian term is exactly zero
        lap, grad, hess = _dense_dressed(
            eval_U(n, t, z), eval_U_grad(n, t, z), eval_U_hess(n, t, z),
            chi, grad_chi, lap_chi, hess_chi, 0.0)
        if include_v:
            v, gv, hv = _dense_v_derivatives(sol, t, z)
            lap_V, grad_V, hess_V = _dense_dressed(
                v, gv, hv, chi, grad_chi, lap_chi, hess_chi,
                np.einsum("bii->b", hv))
            lap = lap + delta * delta * lap_V
            grad = grad + delta * delta * grad_V
            hess = hess + delta * delta * hess_V
        g = ref_metric_g(me, delta * t, delta * z, 4)
        div = ref_metric_divergence(me, delta * t, delta * z)
        out = lap + np.einsum("bij,bij->b", g, hess[:, :m, :m])
        out += delta * np.einsum("bj,bj->b", div, grad[:, :m])
        out_all[keep] = out
        mag_all[keep] = (np.abs(lap) + np.abs(g * hess[:, :m, :m]).sum(axis=(1, 2))
                         + delta * np.abs(div * grad[:, :m]).sum(axis=1))
        return out_all, mag_all

    return F


def _dense_cancellation_parts(sol, me, delta):
    n = sol.point.n
    m = n - 1

    def parts(t_all, z_all):
        out = np.zeros((2, t_all.shape[0]))
        keep, t, z, chi, grad_chi, lap_chi, hess_chi = _dense_shell(
            n, delta, t_all, z_all)
        v, gv, hv = _dense_v_derivatives(sol, t, z)
        lap_V, _, _ = _dense_dressed(v, gv, hv, chi, grad_chi, lap_chi,
                                     hess_chi, np.einsum("bii->b", hv))
        out[0, keep] = delta * delta * lap_V
        M2 = ref_metric_g(me, delta * t, delta * z, 2)
        out[1, keep] = chi * np.einsum("bij,bij->b", M2, eval_U_hess(n, t, z)[:, :m, :m])
        return out

    return parts


def _proposal_samples(n, count, seed, t_scale=0.8, z_scale=0.5, nu=3.0):
    """Draws shaped like mc_halfspace's proposal (half-Cauchy t, Student z)."""
    rng = np.random.default_rng(seed)
    t = np.abs(rng.standard_cauchy(count)) * t_scale
    w = rng.chisquare(nu, count)
    z = z_scale * rng.standard_normal((count, n - 1)) * np.sqrt(nu / w)[:, None]
    return t, z


@pytest.fixture(scope="module")
def sol15_far():
    grid = GridConfig(n_t=48, n_r=48, t_max=160.0, r_max=160.0)
    return solve_vq(generate_sample(15, seed=1), grid=grid)


class TestStructuredResidual:
    RUNGS = (0.01, 0.056, 0.316)

    @pytest.fixture(params=[11, 15])
    def sol(self, request, sol11, sol15_far):
        return sol11 if request.param == 11 else sol15_far

    @pytest.mark.parametrize("include_v", [True, False])
    def test_integrand_matches_dense(self, sol, include_v):
        # row 0 of the ladder terms, at every rung
        me = metric_expansion(sol.point, seed=0, deg3_scale=5.0)
        t, z = _proposal_samples(sol.point.n, 4000, seed=11)
        rows = _ladder_terms(sol.point, sol if include_v else None, me,
                             self.RUNGS, t, z)
        assert rows.shape == (4 if include_v else 1, len(self.RUNGS), 4000)
        for got, delta in zip(rows[0], self.RUNGS):
            want, mag = _dense_residual_integrand(sol, me, delta, include_v)(t, z)
            assert np.count_nonzero(want) > 1000
            # 1e-13 of max|F|, plus a floor of ~9 ulp of the terms F sums,
            # for a rung where F cancels to a small fraction of its terms,
            # below what either evaluation order resolves
            bound = 1e-13 * np.max(np.abs(want)) + 2e-15 * mag
            assert np.all(np.abs(got - want) <= bound)

    def test_cancellation_parts_match_dense(self, sol):
        # rows 2 and 3 of the ladder terms, at every rung, and row 1 their
        # sum
        me = metric_expansion(sol.point, seed=0, deg3_scale=5.0)
        t, z = _proposal_samples(sol.point.n, 4000, seed=12)
        rows = _ladder_terms(sol.point, sol, me, self.RUNGS, t, z)
        for k, delta in enumerate(self.RUNGS):
            want = _dense_cancellation_parts(sol, me, delta)(t, z)
            got = rows[2:, k]
            for row_got, row_want in zip(got, want):
                assert np.max(np.abs(row_got - row_want)) \
                    <= 1e-13 * np.max(np.abs(row_want))
            assert np.array_equal(rows[1, k], got[0] + got[1])


class TestCsvExport:
    """The record behind each coefficients.csv row and the file the
    command line writes from it."""

    def test_header(self, tmp_path):
        path = tmp_path / "coefficients.csv"
        cli._write_coefficients(path, {})
        assert path.read_text().splitlines() == [
            "label,n,A,B,I2,I4,pairing,G2,G3,phi,"
            "slope_residual,slope_identity"]

    def test_row_with_missing_slopes(self, tmp_path):
        co = ReducedCoefficients(label="p", n=11, A=1.0, B=1.0, I2=1.0,
                                 I4=1.0, G2=0.0, G3=0.0, pairing=0.0,
                                 phi=0.0)
        path = tmp_path / "coefficients.csv"
        cli._write_coefficients(path, {"p": (None, co)})
        row = path.read_text().splitlines()[1]
        assert row.endswith(",,")
        assert len(row.split(",")) == 12

    def test_record_rejects_bad_invariants(self):
        with pytest.raises(ValidationFailure):
            ReducedCoefficients(label="x", n=11, A=1.0, B=-1.0, I2=1.0,
                                I4=1.0, G2=0.0, G3=0.0, pairing=0.0, phi=0.0)
        with pytest.raises(ValidationFailure):
            ReducedCoefficients(label="x", n=11, A=1.0, B=1.0, I2=1.0,
                                I4=1.0, G2=0.0, G3=-0.5, pairing=0.0,
                                phi=0.0)
