"""Profile and kernel tests: frozen point values, finite-difference
cross-checks of every derivative order, and the residual suites."""

import numpy as np
import pytest

from halfbubble.bubble import (BubbleParams, BubbleResidualReport, boundary_residual,
                               check_bubble_residual,
                               eval_kernel, eval_kernel_dt, eval_U, eval_U_dr_tr,
                               eval_U_dt_tr, eval_U_grad, eval_U_hess, eval_U_scaled,
                               eval_U_third, eval_U_tr, interior_residual,
                               kernel_boundary_residual, kernel_laplacian,
                               peak_amplitude, shifted_radius_sq)
from halfbubble.errors import DomainError


def sample_points(n, count, seed):
    rng = np.random.default_rng(seed)
    t = 10.0 ** rng.uniform(-2, 1.5, count)
    z = rng.standard_normal((count, n - 1)) * 10.0 ** rng.uniform(-1, 1, (count, 1))
    return t, z


class TestProfileValues:
    def test_frozen_center_value(self):
        # n=11: U(1, 0) = ((1+1)^2)^{-9/2} = 1/512
        assert eval_U(11, 1.0, np.zeros(10)) == pytest.approx(1.0 / 512.0, rel=1e-15)

    def test_origin_is_one(self):
        for n in (7, 11, 14):
            assert eval_U(n, 0.0, np.zeros(n - 1)) == pytest.approx(1.0, rel=1e-15)

    def test_radial_reduction_consistent(self):
        n = 11
        t, z = sample_points(n, 50, 0)
        r = np.linalg.norm(z, axis=-1)
        assert np.allclose(eval_U(n, t, z), eval_U_tr(n, t, r), rtol=1e-14)

    def test_far_field_decay(self):
        # U * rho^{n-2} -> 1 along rays
        n = 11
        rho = 1e6
        z = np.zeros(n - 1)
        z[0] = rho
        assert eval_U(n, 0.0, z) * rho ** (n - 2) == pytest.approx(1.0, abs=1e-5)

    def test_bad_z_shape_rejected(self):
        with pytest.raises(DomainError):
            eval_U(11, 0.0, np.zeros(9))


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestDerivativeStack:
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
        n = self.n
        t = np.array([0.3, 1.7])
        r = np.array([0.9, 2.2])
        fd = central_diff(lambda h: eval_U_tr(n, t, r + h), 0.0)
        assert np.allclose(eval_U_dr_tr(n, t, r), fd, rtol=1e-9)
        fd = central_diff(lambda h: eval_U_tr(n, t + h, r), 0.0)
        assert np.allclose(eval_U_dt_tr(n, t, r), fd, rtol=1e-9)


class TestResiduals:
    def test_interior_harmonic(self):
        n = 11
        t, z = sample_points(n, 200, 5)
        assert np.max(np.abs(interior_residual(n, t, z))) < 1e-13

    def test_boundary_identity(self):
        n = 11
        _, z = sample_points(n, 200, 6)
        assert np.max(np.abs(boundary_residual(n, z))) < 1e-13

    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_full_report(self, n):
        report = check_bubble_residual(n, n_points=300, seed=7)
        assert report.passed(1e-12)
        assert report.interior_max < 1e-12
        assert report.boundary_max < 1e-12
        assert report.kernel_interior_max < 1e-12
        assert report.kernel_boundary_max < 1e-12


class TestKernel:
    n = 11

    def test_dilation_center_value(self):
        # j_n(0, 0) = (n-2)/2
        n = self.n
        assert eval_kernel(n, n, 0.0, np.zeros(n - 1)) == pytest.approx(4.5, rel=1e-14)

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
        dt = eval_kernel_dt(n, t, z)
        for b in (1, 5, n):
            fd = central_diff(lambda h: eval_kernel(n, b, t + h, z), 0.0)
            assert np.allclose(dt[:, b - 1], fd, rtol=1e-7, atol=1e-12)

    def test_kernel_harmonic(self):
        n = self.n
        t, z = sample_points(n, 60, 11)
        Q = shifted_radius_sq(t, z)
        s = float(n - 2)
        scale = s * (s + 2) * (s + 4) * Q ** (-(s + 3) / 2.0) * np.sqrt(Q) ** 0
        laps = kernel_laplacian(n, t, z)
        for b in (1, 7, n):
            lap = laps[:, b - 1]
            assert np.max(np.abs(lap / scale)) < 1e-12

    def test_kernel_boundary_pair(self):
        n = self.n
        _, z = sample_points(n, 60, 12)
        res = kernel_boundary_residual(n, z)
        for b in (2, n):
            assert np.max(np.abs(res[:, b - 1])) < 1e-12

    def test_bad_index(self):
        with pytest.raises(DomainError):
            eval_kernel(11, 0, 0.0, np.zeros(10))
        with pytest.raises(DomainError):
            eval_kernel(11, 12, 0.0, np.zeros(10))


# ---------------------------------------------------------------------------
# Per-kernel-element reference: one derivative stack per element b, as the
# residual check assembled it before the stack was shared across b.


def _ref_kernel_dt(n, b, t, z):
    grad = eval_U_grad(n, t, z)
    hess = eval_U_hess(n, t, z)
    if b <= n - 1:
        return hess[..., b - 1, n - 1]
    s = n - 2.0
    zdot = np.einsum("...i,...i->...", np.asarray(z, dtype=float), hess[..., : n - 1, n - 1])
    return (s / 2.0) * grad[..., n - 1] + zdot + grad[..., n - 1] + t * hess[..., n - 1, n - 1]


def _ref_kernel_laplacian(n, b, t, z):
    third = eval_U_third(n, t, z)
    lap_grad = np.einsum("...aab->...b", third)
    if b <= n - 1:
        return lap_grad[..., b - 1]
    hess = eval_U_hess(n, t, z)
    lap_U = np.einsum("...aa->...", hess)
    y = np.concatenate([z, (1.0 + t)[..., None]], axis=-1)
    y[..., n - 1] -= 1.0  # y = (z, t)
    s = n - 2.0
    return (s / 2.0) * lap_U + 2.0 * lap_U + np.einsum("...b,...b->...", y, lap_grad)


def _ref_kernel_boundary_residual(n, b, z):
    t0 = np.zeros(z.shape[:-1])
    jb = eval_kernel(n, b, t0, z)
    djb = _ref_kernel_dt(n, b, t0, z)
    coupling = n * eval_U(n, t0, z) ** (2.0 / (n - 2.0))
    scale = np.maximum(np.abs(djb), np.abs(coupling * jb))
    scale = np.where(scale > 0, scale, 1.0)
    return (djb + coupling * jb) / scale


def _ref_check_bubble_residual(n, n_points, seed):
    """check_bubble_residual with the per-b loop."""
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-3.0, 4.0, n_points)
    t_frac = rng.uniform(0.0, 1.0, n_points)
    t = radii * t_frac
    dirs = rng.standard_normal((n_points, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = dirs * (radii * np.sqrt(1.0 - t_frac ** 2))[:, None]
    Q = shifted_radius_sq(t, z)
    s = float(n - 2)
    base = s * (s + 2) * (s + 4)
    kern_int = 0.0
    kern_bd = 0.0
    for b in range(1, n + 1):
        lap = _ref_kernel_laplacian(n, b, t, z)
        scale = base * Q ** (-(s + 2 if b == n else s + 3) / 2.0)
        kern_int = max(kern_int, float(np.max(np.abs(lap / scale))))
        kern_bd = max(kern_bd, float(np.max(np.abs(_ref_kernel_boundary_residual(n, b, z)))))
    return BubbleResidualReport(
        n=n, n_points=n_points,
        interior_max=float(np.max(np.abs(interior_residual(n, t, z)))),
        boundary_max=float(np.max(np.abs(boundary_residual(n, z)))),
        kernel_interior_max=kern_int, kernel_boundary_max=kern_bd)


class TestSharedStack:
    @pytest.mark.parametrize("n", [11, 15])
    def test_slices_match_per_element_stacks(self, n):
        t, z = sample_points(n, 500, 21)
        t[:50] = 0.0
        dt = eval_kernel_dt(n, t, z)
        lap = kernel_laplacian(n, t, z)
        bdry = kernel_boundary_residual(n, z)
        for b in range(1, n + 1):
            assert np.array_equal(dt[:, b - 1], _ref_kernel_dt(n, b, t, z))
            assert np.array_equal(lap[:, b - 1], _ref_kernel_laplacian(n, b, t, z))
            assert np.array_equal(bdry[:, b - 1], _ref_kernel_boundary_residual(n, b, z))

    @pytest.mark.parametrize("n", [11, 15])
    def test_report_matches_per_element_loop(self, n):
        assert check_bubble_residual(n, n_points=1000, seed=1) \
            == _ref_check_bubble_residual(n, 1000, 1)


class TestScaledFamily:
    def test_scaling_identity(self):
        n = 11
        delta = 0.37
        t, z = sample_points(n, 30, 13)
        lhs = eval_U_scaled(n, delta, delta * t, delta * z)
        rhs = delta ** (-(n - 2) / 2.0) * eval_U(n, t, z)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_peak_amplitude(self):
        # frozen: n=11, delta=0.1 -> 0.1^{-4.5}
        assert peak_amplitude(11, 0.1) == pytest.approx(10.0 ** 4.5, rel=1e-13)
        assert eval_U_scaled(11, 0.1, 0.0, np.zeros(10)) == pytest.approx(
            10.0 ** 4.5, rel=1e-13)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            BubbleParams(11, 0.0)
        with pytest.raises(DomainError):
            BubbleParams(2, 0.5)
        with pytest.raises(DomainError):
            eval_U_scaled(11, -1.0, 0.0, np.zeros(10))
