"""Profile and kernel tests: frozen point values, finite-difference
cross-checks of every derivative order, and the residual suites."""

import numpy as np
import pytest

from halfbubble import bubble
from halfbubble.bubble import check_bubble_residual, eval_U_jet
from bubble_reference import (eval_kernel, eval_U, eval_U_grad, eval_U_hess, eval_U_third,
                              kernel_dt, kernel_laplacian, shifted_radius_sq)


def sample_points(n, count, seed):
    rng = np.random.default_rng(seed)
    t = 10.0 ** rng.uniform(-2, 1.5, count)
    z = rng.standard_normal((count, n - 1)) * 10.0 ** rng.uniform(-1, 1, (count, 1))
    return t, z


class TestProfileValues:
    def test_frozen_center_value(self):
        # n=11: U(1, 0) = ((1+1)^2)^{-9/2} = 1/512
        assert eval_U_jet(11, 1.0, 0.0)[0] == pytest.approx(1.0 / 512.0, rel=1e-15)

    def test_origin_is_one(self):
        for n in (7, 11, 14):
            assert eval_U_jet(n, 0.0, 0.0)[0] == pytest.approx(1.0, rel=1e-15)

    def test_radial_reduction_consistent(self):
        n = 11
        t, z = sample_points(n, 50, 0)
        rr = np.sum(z * z, axis=-1)
        assert np.allclose(eval_U(n, t, z), eval_U_jet(n, t, rr)[0], rtol=1e-14)

    def test_far_field_decay(self):
        # U * rho^{n-2} -> 1 along rays
        n = 11
        rho = 1e6
        assert eval_U_jet(n, 0.0, rho * rho)[0] * rho ** (n - 2) == pytest.approx(1.0, abs=1e-5)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestDerivativeStack:
    """The dense reference against differences of itself, and the span
    scalars u1, u2, u3 against differences and against the reference."""
    n = 11

    def test_gradient_fd(self):
        n = self.n
        t, z = sample_points(n, 20, 1)
        grad = eval_U_grad(n, t, z)
        for i in range(n - 1):
            e = np.zeros(n - 1)
            e[i] = 1.0
            fd = central_diff(lambda h: eval_U(n, t, z + h * e[None, :] - z * 0), 0.0)
            assert np.allclose(grad[:, i], fd, rtol=1e-8, atol=1e-14)
        fd_t = central_diff(lambda h: eval_U(n, t + h, z), 0.0)
        assert np.allclose(grad[:, n - 1], fd_t, rtol=1e-8, atol=1e-14)

    def test_hessian_fd(self):
        n = self.n
        t, z = sample_points(n, 12, 2)
        hess = eval_U_hess(n, t, z)
        fd_t = central_diff(lambda h: eval_U_grad(n, t + h, z), 0.0)
        assert np.allclose(hess[:, :, n - 1], fd_t, rtol=1e-7, atol=1e-13)
        e = np.zeros(n - 1)
        e[3] = 1.0
        fd_z3 = central_diff(lambda h: eval_U_grad(n, t, z + h * e[None, :]), 0.0)
        assert np.allclose(hess[:, :, 3], fd_z3, rtol=1e-7, atol=1e-13)

    def test_hessian_symmetry(self):
        n = self.n
        t, z = sample_points(n, 30, 3)
        hess = eval_U_hess(n, t, z)
        assert np.allclose(hess, np.swapaxes(hess, -1, -2), rtol=0, atol=0)

    def test_third_fd(self):
        n = self.n
        t, z = sample_points(n, 8, 4)
        third = eval_U_third(n, t, z)
        fd_t = central_diff(lambda h: eval_U_hess(n, t + h, z), 0.0, h=1e-4)
        assert np.allclose(third[..., n - 1], fd_t, rtol=5e-5, atol=1e-12)
        e = np.zeros(n - 1)
        e[0] = 1.0
        fd_z0 = central_diff(lambda h: eval_U_hess(n, t, z + h * e[None, :]), 0.0, h=1e-4)
        assert np.allclose(third[..., 0], fd_z0, rtol=5e-5, atol=1e-12)

    def test_tr_derivatives(self):
        # U_t and the radial derivative u1 r of the jet against differences
        # of its own U in (t, r)
        n = self.n
        t = np.array([0.3, 1.7])
        r = np.array([0.9, 2.2])
        U = lambda t, r: eval_U_jet(n, t, r * r)[0]
        _, u_t, u1, *_ = eval_U_jet(n, t, r * r)
        assert np.allclose(u1 * r, central_diff(lambda h: U(t, r + h), 0.0), rtol=1e-9)
        assert np.allclose(u_t, central_diff(lambda h: U(t + h, r), 0.0), rtol=1e-9)

    def test_span_coefficients_fd(self):
        # each span scalar is the next one's potential: d u_k = u_{k+1} w,
        # so d/dt u_k = u_{k+1} (1 + t) and d/dr u_k = u_{k+1} r
        n = self.n
        t = np.array([0.02, 0.3, 1.7, 12.0])
        r = np.array([0.05, 0.9, 2.2, 7.0])
        u1 = lambda t, r: eval_U_jet(n, t, r * r)[2]
        u2 = lambda t, r: eval_U_jet(n, t, r * r)[4]
        Q = (1.0 + t) ** 2 + r * r
        for lo, hi in ((u1, u2(t, r)), (u2, bubble._u3(n, Q))):
            assert np.allclose(central_diff(lambda h: lo(t + h, r), 0.0, h=1e-6),
                               hi * (1.0 + t), rtol=1e-8, atol=0)
            assert np.allclose(central_diff(lambda h: lo(t, r + h), 0.0, h=1e-6),
                               hi * r, rtol=1e-8, atol=0)

    def test_jet_matches_dense_stack(self):
        # gradient u1 w, Hessian u1 I + u2 w w^T and third derivative
        # u2 (I w + its other slot orders) + u3 w w w at w = (z, 1 + t),
        # zero Laplacian
        n = self.n
        t, z = sample_points(n, 40, 8)
        U, u_t, u1, zero_b, u2, zero_e, lap = eval_U_jet(n, t, np.sum(z * z, axis=-1))
        w = np.concatenate([z, (1.0 + t)[:, None]], axis=1)
        assert np.allclose(U, eval_U(n, t, z), rtol=1e-14, atol=0)
        grad = eval_U_grad(n, t, z)
        assert np.allclose(u1[:, None] * w, grad, rtol=1e-13, atol=0)
        assert np.allclose(u_t, grad[:, n - 1], rtol=1e-13, atol=0)
        hess = u1[:, None, None] * np.eye(n) + u2[:, None, None] * w[:, :, None] * w[:, None, :]
        scale = np.abs(eval_U_hess(n, t, z)).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(hess - eval_U_hess(n, t, z)) <= 1e-13 * scale)
        assert (zero_b, zero_e, lap) == (0.0, 0.0, 0.0)
        u3 = bubble._u3(n, shifted_radius_sq(t, z))
        iw = np.eye(n)[None, :, :, None] * w[:, None, None, :]
        www = w[:, :, None, None] * w[:, None, :, None] * w[:, None, None, :]
        third = (u2[:, None, None, None] * (iw + iw.transpose(0, 1, 3, 2) + iw.transpose(0, 3, 2, 1))
                 + u3[:, None, None, None] * www)
        ref = eval_U_third(n, t, z)
        scale = np.abs(ref).max(axis=(1, 2, 3), keepdims=True)
        assert np.all(np.abs(third - ref) <= 1e-13 * scale)


class TestResiduals:
    def test_interior_harmonic(self):
        # the span-form Laplacian n u1 + u2 Q against the size of its terms
        n = 11
        t, z = sample_points(n, 200, 5)
        lap, _ = bubble._laplacians(n, t, z)
        u1 = eval_U_jet(n, t, np.sum(z * z, axis=-1))[2]
        assert np.max(np.abs(lap / (n * u1))) < 1e-13

    def test_boundary_identity(self):
        n = 11
        _, z = sample_points(n, 200, 6)
        U, u_t, *_ = eval_U_jet(n, 0.0, np.sum(z * z, axis=-1))
        term = (n - 2) * U ** (n / (n - 2))
        assert np.max(np.abs((u_t + term) / term)) < 1e-13

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_full_report(self, n):
        report = check_bubble_residual(n, n_points=300, seed=7)
        assert report.passed(1e-12)
        assert report.interior_max < 1e-12
        assert report.boundary_max < 1e-12
        assert report.kernel_interior_max < 1e-12
        assert report.kernel_boundary_max < 1e-12

    def test_defaults_are_the_checked_points(self):
        # verify (at the default --seed) and criterion 2 check 10^4 points
        # at seed 1
        report = check_bubble_residual(11)
        assert report.n_points == 10 ** 4
        assert report == check_bubble_residual(11, 10 ** 4, seed=1)

    def test_verify_default_points_at_seed_2(self):
        # verify's points at --n 11 --seed 2 put a boundary point at
        # |z| = 0.999994, where j_n (1.2e-6) and dj_n/dt nearly vanish but
        # their summands (about 0.2) do not
        assert check_bubble_residual(11, 10 ** 4, seed=2).passed(1e-12)

    def test_perturbed_jet_fails(self, monkeypatch):
        # the suite reads the jet the ladders read: a relative change of
        # 1e-9 in its u2 shows in the Laplacians and in the boundary pairs
        jet = bubble.eval_U_jet

        def perturbed(n, t, rr):
            U, u_t, u1, zero_b, u2, zero_e, lap = jet(n, t, rr)
            return U, u_t, u1, zero_b, u2 * (1.0 + 1e-9), zero_e, lap

        monkeypatch.setattr(bubble, "eval_U_jet", perturbed)
        report = check_bubble_residual(11, 10 ** 4, seed=1)
        assert not report.passed(1e-12)
        assert report.interior_max > 1e-10
        assert report.kernel_interior_max > 1e-10
        assert report.kernel_boundary_max > 1e-10


class TestKernel:
    n = 11

    def test_dilation_center_value(self):
        # j_n(0, 0) = (n-2)/2, by the reference and by the span form
        # (whose coupling n U^{2/s} is n at the origin)
        n = self.n
        assert eval_kernel(n, n, 0.0, np.zeros(n - 1)) == pytest.approx(4.5, rel=1e-14)
        _, kj, _ = bubble._kernel_boundary(n, np.zeros((1, n - 1)))
        assert kj[0, n - 1] / n == pytest.approx(4.5, rel=1e-14)

    def test_translation_matches_gradient(self):
        n = self.n
        t, z = sample_points(n, 40, 8)
        grad = eval_U_grad(n, t, z)
        for b in range(1, n):
            assert np.allclose(eval_kernel(n, b, t, z), grad[:, b - 1], rtol=1e-13)

    def test_dilation_is_scale_derivative(self):
        # j_n = d/dlam [ lam^{(n-2)/2} U(lam t, lam z) ] at lam = 1
        n = self.n
        t, z = sample_points(n, 40, 9)

        def scaled(lam):
            return lam ** ((n - 2) / 2.0) * eval_U(n, lam * t, lam * z)

        fd = central_diff(scaled, 1.0, h=1e-6)
        assert np.allclose(eval_kernel(n, n, t, z), fd, rtol=1e-7, atol=1e-12)

    def test_kernel_dt_fd(self):
        n = self.n
        t, z = sample_points(n, 25, 10)
        for b in (1, 5, n):
            fd = central_diff(lambda h: eval_kernel(n, b, t + h, z), 0.0)
            assert np.allclose(kernel_dt(n, b, t, z), fd, rtol=1e-7, atol=1e-12)

    def test_kernel_harmonic(self):
        n = self.n
        t, z = sample_points(n, 60, 11)
        Q = shifted_radius_sq(t, z)
        s = float(n - 2)
        scale = s * (s + 2) * (s + 4) * Q ** (-(s + 3) / 2.0)
        _, laps = bubble._laplacians(n, t, z)
        for b in (1, 7, n):
            assert np.max(np.abs(laps[:, b - 1] / scale)) < 1e-12

    def test_kernel_boundary_pair(self):
        # includes points on and next to |z| = 1, where j_n and dj_n/dt
        # vanish and the pair is measured against its summands
        n = self.n
        _, z = sample_points(n, 60, 12)
        unit = z / np.linalg.norm(z, axis=1, keepdims=True)
        z = np.concatenate([z, unit, unit * (1.0 + 6e-6), unit * (1.0 - 6e-6)])
        dj, kj, scale = bubble._kernel_boundary(n, z)
        for b in (2, n):
            assert np.max(np.abs(dj + kj)[:, b - 1] / scale[:, b - 1]) < 1e-12


class TestSharedStack:
    """The n kernel elements share one set of span scalars; each element's
    slice matches its own dense stack from the reference, within rounding."""

    @pytest.mark.parametrize("n", [11, 15])
    def test_slices_match_per_element_stacks(self, n):
        t, z = sample_points(n, 200, 21)
        Q = shifted_radius_sq(t, z)
        s = n - 2.0
        eps = np.finfo(float).eps
        lap, lap_j = bubble._laplacians(n, t, z)
        # Laplacians: both sides are rounding residues of terms of size
        # n |u1| (U), base Q^(-(s+3)/2) (translations) and base Q^(-(s+2)/2)
        # (the dilation)
        base = s * (s + 2) * (s + 4)
        dense = np.einsum("baa->b", eval_U_hess(n, t, z))
        assert np.all(np.abs(lap - dense) <= 64 * eps * s * n * Q ** (-(s + 2) / 2.0))
        for b in range(1, n + 1):
            size = base * Q ** (-(s + 3 if b < n else s + 2) / 2.0)
            assert np.all(np.abs(lap_j[:, b - 1] - kernel_laplacian(n, b, t, z))
                          <= 64 * eps * size)
        # t-derivatives and values on the boundary, against the largest of
        # the summands of their pair
        t0 = np.zeros(len(t))
        U, u_t, *_ = eval_U_jet(n, 0.0, np.sum(z * z, axis=-1))
        assert np.allclose(u_t, eval_U_grad(n, t0, z)[:, n - 1], rtol=1e-14, atol=0)
        dj, kj, scale = bubble._kernel_boundary(n, z)
        k = n * U ** (2.0 / s)
        for b in range(1, n + 1):
            assert np.all(np.abs(dj[:, b - 1] - kernel_dt(n, b, t0, z)) <= 16 * eps * scale[:, b - 1])
            assert np.all(np.abs(kj[:, b - 1] - k * eval_kernel(n, b, t0, z))
                          <= 16 * eps * scale[:, b - 1])
