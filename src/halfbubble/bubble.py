"""The standard decaying profile on the half-space and its derivative stack.

Conventions: a point is (t, z) with t >= 0, z in R^{n-1}; w = (z, 1+t) is the
shifted position, Q = |w|^2 = (1+t)^2 + |z|^2, s = n - 2.  The profile

    U(t, z) = Q^(-s/2)

is harmonic on t > 0 and satisfies the nonlinear boundary condition
dU/dt + s U^{n/s} = 0 at t = 0.  Its kernel family consists of the n-1
translations j_b = d U / d z_b and the dilation generator
j_n = (s/2) U + z . grad_z U + t dU/dt; each kernel element j solves the
linearized pair (Laplacian j = 0, dj/dt + n U^{2/s} j = 0 at t = 0).

All evaluators are vectorized: t has shape (...,), z has shape (..., n-1),
and derivative axes are appended last with the z-slots first and the t-slot
at index n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "shifted_radius_sq",
    "eval_U",
    "eval_U_grad",
    "eval_U_hess",
    "eval_U_third",
    "eval_U_jet",
    "eval_kernel",
    "eval_kernel_dt",
    "kernel_laplacian",
    "interior_residual",
    "boundary_residual",
    "kernel_boundary_residual",
    "BubbleResidualReport",
    "check_bubble_residual",
]


def _check_z(n: int, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != n - 1:
        raise DomainError(f"z must have trailing dimension n-1={n - 1}, got {z.shape}")
    return z


def shifted_radius_sq(t, z) -> np.ndarray:
    """Q = (1+t)^2 + |z|^2."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return (1.0 + t) ** 2 + np.sum(z * z, axis=-1)


def _w(t, z) -> np.ndarray:
    """Shifted position (z, 1+t), shape (..., n)."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.concatenate([z, (1.0 + t)[..., None]], axis=-1)


def eval_U(n: int, t, z) -> np.ndarray:
    z = _check_z(n, z)
    return shifted_radius_sq(t, z) ** (-(n - 2) / 2.0)


def eval_U_grad(n: int, t, z) -> np.ndarray:
    """Gradient (d/dz_1, ..., d/dz_{n-1}, d/dt) U, shape (..., n)."""
    z = _check_z(n, z)
    s = n - 2.0
    w = _w(t, z)
    Q = shifted_radius_sq(t, z)
    return -s * w * Q[..., None] ** (-(s + 2) / 2.0)


def eval_U_hess(n: int, t, z) -> np.ndarray:
    """Full Hessian of U, shape (..., n, n)."""
    z = _check_z(n, z)
    s = n - 2.0
    w = _w(t, z)
    Q = shifted_radius_sq(t, z)
    qa = Q[..., None, None]
    eye = np.eye(n)
    ww = w[..., :, None] * w[..., None, :]
    return -s * eye * qa ** (-(s + 2) / 2.0) + s * (s + 2) * ww * qa ** (-(s + 4) / 2.0)


def eval_U_third(n: int, t, z) -> np.ndarray:
    """Third derivative tensor of U, shape (..., n, n, n)."""
    z = _check_z(n, z)
    s = n - 2.0
    w = _w(t, z)
    Q = shifted_radius_sq(t, z)
    qa = Q[..., None, None, None]
    eye = np.eye(n)
    d_ab_wc = eye[..., :, :, None] * w[..., None, None, :]
    d_ac_wb = eye[..., :, None, :] * w[..., None, :, None]
    d_bc_wa = eye[..., None, :, :] * w[..., :, None, None]
    www = w[..., :, None, None] * w[..., None, :, None] * w[..., None, None, :]
    return (s * (s + 2) * (d_ab_wc + d_ac_wb + d_bc_wa) * qa ** (-(s + 4) / 2.0)
            - s * (s + 2) * (s + 4) * www * qa ** (-(s + 6) / 2.0))


def eval_U_jet(n: int, t, rr) -> tuple:
    """U and its derivatives from t and rr = |z|^2, in the span form
    (U, U_t, u1, 0, u2, 0, 0): gradient u1 w and Hessian u1 I + u2 w w^T at
    w = (z, 1 + t), and Laplacian 0 (U is harmonic).  The zero slots match
    the span-form corrector jet (corrector.eval_v_derivatives); the radial
    derivative is u1 r.  t and rr broadcast."""
    s = n - 2.0
    Q = (1.0 + t) ** 2 + rr
    u1 = -s * Q ** (-(s + 2) / 2.0)
    return (Q ** (-s / 2.0), u1 * (1.0 + t), u1, 0.0,
            s * (s + 2) * Q ** (-(s + 4) / 2.0), 0.0, 0.0)


def eval_kernel(n: int, b: int, t, z) -> np.ndarray:
    """Kernel element j_b: translations for b <= n-1, dilation for b = n."""
    if not 1 <= b <= n:
        raise DomainError(f"kernel index must be in 1..{n}, got {b}")
    z = _check_z(n, z)
    s = n - 2.0
    Q = shifted_radius_sq(t, z)
    if b <= n - 1:
        return -s * z[..., b - 1] * Q ** (-(s + 2) / 2.0)
    t = np.asarray(t, dtype=float)
    # (s/2) U + y . grad U = s Q^{-s/2} ((1+t)/Q - 1/2)
    return s * Q ** (-s / 2.0) * ((1.0 + t) / Q - 0.5)


def eval_kernel_dt(n: int, t, z) -> np.ndarray:
    """Time derivatives of all kernel elements, shape (..., n): slot b-1
    holds dj_b/dt, from one gradient/Hessian stack."""
    z = _check_z(n, z)
    t = np.asarray(t, dtype=float)
    grad = eval_U_grad(n, t, z)
    hess = eval_U_hess(n, t, z)
    out = hess[..., n - 1].copy()
    # d/dt [ (s/2) U + z.grad_z U + t dU/dt ]
    s = n - 2.0
    zdot = np.einsum("...i,...i->...", z, hess[..., : n - 1, n - 1])
    out[..., n - 1] = ((s / 2.0) * grad[..., n - 1] + zdot + grad[..., n - 1]
                       + t * hess[..., n - 1, n - 1])
    return out


def kernel_laplacian(n: int, t, z) -> np.ndarray:
    """Laplacians of all kernel elements, shape (..., n) with slot b-1 for
    j_b, assembled from one derivative stack.

    Vanishes identically; returned unsimplified so verification suites can
    measure the floating-point residual.
    """
    z = _check_z(n, z)
    third = eval_U_third(n, t, z)
    lap = np.einsum("...aab->...b", third)   # Laplacians of the d_b U
    hess = eval_U_hess(n, t, z)
    lap_U = np.einsum("...aa->...", hess)
    y = _w(t, z).copy()
    y[..., n - 1] -= 1.0  # y = (z, t)
    s = n - 2.0
    dilation = ((s / 2.0) * lap_U + 2.0 * lap_U
                + np.einsum("...b,...b->...", y, lap))
    lap[..., n - 1] = dilation
    return lap


def interior_residual(n: int, t, z) -> np.ndarray:
    """Laplacian of U divided by the natural curvature scale of its terms.

    Assembles trace(Hessian) without simplification; the two terms cancel
    exactly in real arithmetic, so the result measures rounding only.
    """
    hess = eval_U_hess(n, t, z)
    lap = np.einsum("...aa->...", hess)
    s = n - 2.0
    Q = shifted_radius_sq(t, z)
    scale = s * n * Q ** (-(s + 2) / 2.0)
    return lap / scale


def boundary_residual(n: int, z) -> np.ndarray:
    """dU/dt + (n-2) U^{n/(n-2)} at t = 0, relative to the term size."""
    z = _check_z(n, z)
    t0 = np.zeros(np.asarray(z, dtype=float).shape[:-1])
    grad = eval_U_grad(n, t0, z)
    U0 = eval_U(n, t0, z)
    s = n - 2.0
    term = s * U0 ** (n / s)
    return (grad[..., n - 1] + term) / term


def kernel_boundary_residual(n: int, z) -> np.ndarray:
    """dj_b/dt + n U^{2/(n-2)} j_b at t = 0, relative to the term scale,
    for all b: shape (..., n) with slot b-1 for j_b."""
    z = _check_z(n, z)
    t0 = np.zeros(np.asarray(z, dtype=float).shape[:-1])
    jb = np.stack([eval_kernel(n, b, t0, z) for b in range(1, n + 1)], axis=-1)
    djb = eval_kernel_dt(n, t0, z)
    U0 = eval_U(n, t0, z)
    coupling = (n * U0 ** (2.0 / (n - 2.0)))[..., None]
    scale = np.maximum(np.abs(djb), np.abs(coupling * jb))
    scale = np.where(scale > 0, scale, 1.0)
    return (djb + coupling * jb) / scale


@dataclass(frozen=True)
class BubbleResidualReport:
    """Worst relative residuals of the profile and kernel equations."""
    n: int
    n_points: int
    interior_max: float
    boundary_max: float
    kernel_interior_max: float
    kernel_boundary_max: float

    def passed(self, tol: float) -> bool:
        worst = max(self.interior_max, self.boundary_max,
                    self.kernel_interior_max, self.kernel_boundary_max)
        return worst <= tol


_RESIDUAL_BLOCK = 1000   # points per block: bounds the (B, n, n, n) stack


def _residual_maxima(n: int, t: np.ndarray, z: np.ndarray) -> tuple:
    """Worst interior, boundary, kernel-interior and kernel-boundary
    residuals over the points (t, z)."""
    Q = shifted_radius_sq(t, z)
    s = float(n - 2)
    interior = float(np.max(np.abs(interior_residual(n, t, z))))
    bdry = float(np.max(np.abs(boundary_residual(n, z))))
    # scale = magnitude of the intermediates that cancel: translations carry
    # one factor w_b <= sqrt(Q); the dilation row adds a y-contraction worth
    # another sqrt(Q)
    base = s * (s + 2) * (s + 4)
    scale_translation = base * Q ** (-(s + 3) / 2.0)
    scale_dilation = base * Q ** (-(s + 2) / 2.0)
    lap = kernel_laplacian(n, t, z)
    kern_int = max(float(np.max(np.abs(lap[:, :-1] / scale_translation[:, None]))),
                   float(np.max(np.abs(lap[:, -1] / scale_dilation))))
    kern_bd = float(np.max(np.abs(kernel_boundary_residual(n, z))))
    return interior, bdry, kern_int, kern_bd


def check_bubble_residual(n: int, n_points: int = 400, seed: int = 0) -> BubbleResidualReport:
    """Sample the half-space and measure all profile/kernel residuals.

    Points cover seven orders of magnitude in radius with random directions,
    so both the core and the far field are exercised.  They are evaluated
    in blocks; every residual is pointwise, so the maxima do not depend on
    the block size.
    """
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-3.0, 4.0, n_points)
    t_frac = rng.uniform(0.0, 1.0, n_points)
    t = radii * t_frac
    dirs = rng.standard_normal((n_points, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = dirs * (radii * np.sqrt(1.0 - t_frac ** 2))[:, None]

    blocks = [_residual_maxima(n, t[k:k + _RESIDUAL_BLOCK], z[k:k + _RESIDUAL_BLOCK])
              for k in range(0, n_points, _RESIDUAL_BLOCK)]
    interior, bdry, kern_int, kern_bd = (float(v) for v in np.max(blocks, axis=0))
    return BubbleResidualReport(n=n, n_points=n_points, interior_max=interior,
                                boundary_max=bdry, kernel_interior_max=kern_int,
                                kernel_boundary_max=kern_bd)
