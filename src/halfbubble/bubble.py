"""The standard decaying profile on the half-space, its span-form jet and
the residual suite of the profile and its kernel.

Conventions: a point is (t, z) with t >= 0, z in R^{n-1}; w = (z, 1+t) is the
shifted position, Q = |w|^2 = (1+t)^2 + |z|^2, s = n - 2.  The profile

    U(t, z) = Q^(-s/2)

is harmonic on t > 0 and satisfies the nonlinear boundary condition
dU/dt + s U^{n/s} = 0 at t = 0.  Its kernel family consists of the n-1
translations j_b = d U / d z_b and the dilation generator
j_n = (s/2) U + y . grad U with y = (z, t); each kernel element j solves the
linearized pair (Laplacian j = 0, dj/dt + n U^{2/s} j = 0 at t = 0).

U depends on (t, z) only through Q, so its derivatives are spans of w and
the identity with per-point scalar coefficients:

    grad U = u1 w,   Hess U = u1 I + u2 w w^T,
    D^3 U = u2 (I w + its two other slot orders) + u3 w w w,

with u1 = -s Q^(-(s+2)/2), u2 = s(s+2) Q^(-(s+4)/2) and
u3 = -s(s+2)(s+4) Q^(-(s+6)/2).  Every evaluator works on these scalars, so
no derivative tensor is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["eval_U_jet", "BubbleResidualReport", "check_bubble_residual"]


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


def _u3(n: int, Q) -> np.ndarray:
    """Third span coefficient of U at Q: the w w w part of D^3 U."""
    s = n - 2.0
    return -s * (s + 2) * (s + 4) * Q ** (-(s + 6) / 2.0)


def _laplacians(n: int, t: np.ndarray, z: np.ndarray) -> tuple:
    """Laplacians of U, shape (B,), and of the n kernel elements, shape
    (B, n) with slot b-1 for j_b, from the span scalars.

    Laplacian U = n u1 + u2 Q and grad Laplacian U = c w with
    c = (n+2) u2 + u3 Q, so the translations give w_b c and the dilation
    (s/2 + 2) Laplacian U + (y . w) c.  They vanish in exact arithmetic
    and are returned unsimplified, so they measure rounding."""
    rr = np.sum(z * z, axis=-1)
    Q = (1.0 + t) ** 2 + rr
    _, _, u1, _, u2, _, _ = eval_U_jet(n, t, rr)
    lap = n * u1 + u2 * Q
    c = (n + 2.0) * u2 + _u3(n, Q) * Q
    dilation = ((n - 2.0) / 2.0 + 2.0) * lap + (rr + t * (1.0 + t)) * c
    return lap, np.column_stack([z * c[:, None], dilation])


def _kernel_boundary(n: int, z: np.ndarray) -> tuple:
    """At t = 0, per kernel element (shape (B, n), slot b-1 for j_b): dj/dt,
    the coupling n U^{2/s} j, and the largest of the summands that cancel
    in their sum.  Translations: dj_b/dt = u2 z_b, j_b = u1 z_b; dilation:
    dj_n/dt = (s/2 + 1) u1 + u2 |z|^2, j_n = (s/2) U + u1 |z|^2."""
    s = n - 2.0
    rr = np.sum(z * z, axis=-1)
    U, _, u1, _, u2, _, _ = eval_U_jet(n, 0.0, rr)
    k = n * U ** (2.0 / s)
    dil = np.stack([(s / 2.0 + 1.0) * u1, u2 * rr, k * (s / 2.0) * U, k * u1 * rr])
    dj = np.column_stack([u2[:, None] * z, dil[0] + dil[1]])
    kj = np.column_stack([(k * u1)[:, None] * z, dil[2] + dil[3]])
    scale = np.column_stack([np.maximum(np.abs(dj[:, :-1]), np.abs(kj[:, :-1])),
                             np.max(np.abs(dil), axis=0)])
    return dj, kj, scale


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


def check_bubble_residual(n: int, n_points: int = 10 ** 4, seed: int = 1) -> BubbleResidualReport:
    """Sample the half-space and measure all profile/kernel residuals.

    Points cover seven orders of magnitude in radius with random directions,
    so both the core and the far field are exercised.  Each residual is
    divided by the size of the terms that cancel in it.
    """
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-3.0, 4.0, n_points)
    t_frac = rng.uniform(0.0, 1.0, n_points)
    t = radii * t_frac
    dirs = rng.standard_normal((n_points, n - 1))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = dirs * (radii * np.sqrt(1.0 - t_frac ** 2))[:, None]

    s = float(n - 2)
    rr = np.sum(z * z, axis=-1)
    Q = (1.0 + t) ** 2 + rr
    lap, lap_j = _laplacians(n, t, z)
    # each Laplacian over the size of its terms: n |u1| for U's, |u3| Q |w_b|
    # with |w_b| <= sqrt(Q) for a translation's; the dilation's y . w adds
    # another sqrt(Q)
    base = s * (s + 2) * (s + 4)
    interior = np.abs(lap) / (s * n * Q ** (-(s + 2) / 2.0))
    kern_int = max(np.max(np.abs(lap_j[:, :-1]) / (base * Q ** (-(s + 3) / 2.0))[:, None]),
                   np.max(np.abs(lap_j[:, -1]) / (base * Q ** (-(s + 2) / 2.0))))

    U0, U0_t, *_ = eval_U_jet(n, 0.0, rr)
    term = s * U0 ** (n / s)
    dj, kj, scale = _kernel_boundary(n, z)
    kern_bd = np.abs(dj + kj) / np.where(scale > 0, scale, 1.0)
    return BubbleResidualReport(
        n=n, n_points=n_points, interior_max=float(np.max(interior)),
        boundary_max=float(np.max(np.abs((U0_t + term) / term))),
        kernel_interior_max=float(kern_int), kernel_boundary_max=float(np.max(kern_bd)))
