"""Dense reference for the bubble, shared by the test modules.

Evaluates U, its full derivative tensors (gradient (B, n), Hessian
(B, n, n), third derivative (B, n, n, n)) and the kernel elements with
their t-derivatives and Laplacians, one element at a time, straight from
the definitions; the corrector source from its closed form.  Derivative
axes hold the z-slots first and the t-slot at index n-1.  The library
reads only the span-form scalars of halfbubble.bubble; the tests hold
them, and the quantities built from them, to this reference, and use it
as an independent oracle elsewhere.
"""

import numpy as np


def shifted_radius_sq(t, z):
    """Q = (1+t)^2 + |z|^2."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return (1.0 + t) ** 2 + np.sum(z * z, axis=-1)


def _w(t, z):
    """Shifted position (z, 1+t), shape (..., n)."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    return np.concatenate([z, (1.0 + t)[..., None]], axis=-1)


def eval_U(n, t, z):
    return shifted_radius_sq(t, z) ** (-(n - 2) / 2.0)


def eval_U_grad(n, t, z):
    """Gradient (d/dz_1, ..., d/dz_{n-1}, d/dt) U, shape (..., n)."""
    s = n - 2.0
    Q = shifted_radius_sq(t, z)
    return -s * _w(t, z) * Q[..., None] ** (-(s + 2) / 2.0)


def eval_U_hess(n, t, z):
    """Full Hessian of U, shape (..., n, n)."""
    s = n - 2.0
    w = _w(t, z)
    qa = shifted_radius_sq(t, z)[..., None, None]
    ww = w[..., :, None] * w[..., None, :]
    return (-s * np.eye(n) * qa ** (-(s + 2) / 2.0)
            + s * (s + 2) * ww * qa ** (-(s + 4) / 2.0))


def eval_U_third(n, t, z):
    """Third derivative tensor of U, shape (..., n, n, n)."""
    s = n - 2.0
    w = _w(t, z)
    qa = shifted_radius_sq(t, z)[..., None, None, None]
    eye = np.eye(n)
    d_ab_wc = eye[..., :, :, None] * w[..., None, None, :]
    d_ac_wb = eye[..., :, None, :] * w[..., None, :, None]
    d_bc_wa = eye[..., None, :, :] * w[..., :, None, None]
    www = w[..., :, None, None] * w[..., None, :, None] * w[..., None, None, :]
    return (s * (s + 2) * (d_ab_wc + d_ac_wb + d_bc_wa) * qa ** (-(s + 4) / 2.0)
            - s * (s + 2) * (s + 4) * www * qa ** (-(s + 6) / 2.0))


def eval_kernel(n, b, t, z):
    """Kernel element j_b: translations for b <= n-1, dilation for b = n."""
    s = n - 2.0
    z = np.asarray(z, dtype=float)
    Q = shifted_radius_sq(t, z)
    if b <= n - 1:
        return -s * z[..., b - 1] * Q ** (-(s + 2) / 2.0)
    # (s/2) U + y . grad U = s Q^{-s/2} ((1+t)/Q - 1/2)
    return s * Q ** (-s / 2.0) * ((1.0 + np.asarray(t, dtype=float)) / Q - 0.5)


def kernel_dt(n, b, t, z):
    """dj_b/dt from the gradient and Hessian of U."""
    hess = eval_U_hess(n, t, z)
    if b <= n - 1:
        return hess[..., b - 1, n - 1]
    # d/dt [ (s/2) U + z . grad_z U + t dU/dt ]
    u_t = eval_U_grad(n, t, z)[..., n - 1]
    zdot = np.einsum("...i,...i->...", np.asarray(z, dtype=float), hess[..., : n - 1, n - 1])
    return ((n - 2.0) / 2.0) * u_t + zdot + u_t + t * hess[..., n - 1, n - 1]


def kernel_laplacian(n, b, t, z):
    """Laplacian of j_b from the traces of the Hessian and third
    derivative of U."""
    lap_grad = np.einsum("...aab->...b", eval_U_third(n, t, z))
    if b <= n - 1:
        return lap_grad[..., b - 1]
    lap_U = np.einsum("...aa->...", eval_U_hess(n, t, z))
    y = _w(t, z)
    y[..., n - 1] -= 1.0  # y = (z, t)
    return (((n - 2.0) / 2.0) * lap_U + 2.0 * lap_U
            + np.einsum("...b,...b->...", y, lap_grad))


def eval_source(point, t, z):
    """Half-space corrector source f(t, z) = n(n-2) t^2 (z . S z) Q^{-(n+2)/2}."""
    n = point.n
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    quad = np.einsum("...i,ij,...j->...", z, point.S, z)
    return n * (n - 2.0) * t * t * quad * shifted_radius_sq(t, z) ** (-(n + 2) / 2.0)
