"""Quadratic corrector: reduced profile solve and the full corrector field.

The metric's quadratic blocks acting on the profile U leave the source

    f(t, z) = S_ij z_i z_j t^2 A(t, r),   A = n(n-2) ((1+t)^2 + r^2)^(-(n+2)/2)

(the curvature-tensor block cancels pointwise: its monomial contraction is
antisymmetric against the symmetric Hessian and its delta-contraction is a
vanishing trace).  Writing Y(theta) = theta.S theta, the source lives in a
single spherical-harmonic channel with Laplace-Beltrami eigenvalue 2(n-1),
so the corrector factorizes as v(t, z) = psi(t, r) Y(theta) with psi solving
the reduced quarter-plane problem

    psi_tt + psi_rr + ((n-2)/r) psi_r - (2(n-1)/r^2) psi = -t^2 r^2 A,
    psi(t, 0) = 0,
    psi_t(0, r) = -n (1+r^2)^{-1} psi(0, r),
    (t d/dt + r d/dr) psi = (4-n) psi   far away,

whose far field follows the source-driven rate rho^(4-n).  psi does not
depend on S at all; it is solved once per (n, grid) and cached (node solves
too, for verify), and the corrector for any pattern is psi * Y by linearity.
S is data of the curvature point: every reader takes it from the point,
and curvature validation (symmetric, traceless, at the relative tolerance
--tol-sym) is the one check on it.

Discretization: the quarter plane is mapped to a rectangle by
t = L tau/(1-tau), r = L sigma/(1-sigma) with L = _MAP_SCALE; uniform grid,
second-order centered stencils inside, one-sided 3-point second-order rows
on the boundaries, a sparse LU factor in geometric nested-dissection order
(each separator line numbered after the two halves it splits), and a
Lanczos probe of the smallest singular value as a conditioning gate.
The stencil's pattern is symmetric, so SuperLU factors in its symmetric
mode with a diagonal pivot threshold of 0.01 (_LU_OPTIONS): it keeps a
diagonal pivot unless it is below 0.01 of its column's largest entry, so
the factor keeps the order's separators.  At the default threshold of 1
it swapped about a thousand rows at 193 nodes per side and left 17 %
more fill.
Every profile is the Richardson profile: the N- and 2N-cell solves
combined to fourth order on the N-cell nodes.  The
probe runs Lanczos on (A^T A)^-1 from a fixed random start and stops once
one step moves its estimate by at most 1e-6 relative;
SolveDiagnostics.probe_steps reports the count, and a probe that has not
stopped after 25 steps fails the solve.

Interpolation: Profile2D carries the tensor quintic interpolant of psi in
(tau, sigma), on FITPACK's knots for an interpolating spline (each end
knot six times, interior knots at the nodes x[3:-3]), so one coefficient
per node.  The coefficients come from two dense per-axis collocation
solves, C = Bt^-1 psi Br^-T.  Three evaluation paths share them: the jet
at scattered points from one basis pass per point (values and first two
derivatives of the six nonzero B-splines per axis), psi alone the same
way, and psi alone on a tensor grid (source_overlap's) as per-axis basis
matrices times C.  Points past the last node are clamped to it, as
FITPACK's evaluator does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import DomainError, SolverError
from .geometry import CurvaturePoint, _inner
from .quadrature import MomentKey, angular_moment, moment, panel_gauss_nodes, \
    quadratic_sphere_moment, sphere_area

__all__ = [
    "source_radial",
    "DEFAULT_TOL_SOLVER",
    "GridConfig",
    "Profile2D",
    "SolveDiagnostics",
    "solve_profile",
    "CorrectorSolution",
    "solve_vq",
    "eval_v_derivatives",
    "VerificationReport",
    "verify_corrector",
    "check_solvability",
    "self_convergence",
]


# ---------------------------------------------------------------------------
# Angular channel


def _y_of_z(S: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The pattern Y = theta . S theta at directions theta = z/|z| (0 at
    the axis, where the channel vanishes)."""
    z = np.asarray(z, dtype=float)
    rr = np.sum(z * z, axis=-1)
    num = np.einsum("...i,ij,...j->...", z, S, z)
    return np.where(rr > 0, num / np.where(rr > 0, rr, 1.0), 0.0)


def source_radial(n: int, t, r) -> np.ndarray:
    """Radial factor of the corrector source: t^2 r^2 A(t, r)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    A = n * (n - 2.0) * ((1.0 + t) ** 2 + r * r) ** (-(n + 2) / 2.0)
    return t * t * r * r * A


# ---------------------------------------------------------------------------
# Reduced profile solve


# scale L of the compactifying map x = L s/(1-s), the same in t and in r
_MAP_SCALE = 4.0

# the sigma_min gate of each factor, unless the caller sets its own
DEFAULT_TOL_SOLVER = 1e-8


@dataclass(frozen=True)
class GridConfig:
    """Mapped-rectangle grid for the reduced solve; the default is the
    command line's (192 cells per direction, caps 160)."""
    n_t: int = 192
    n_r: int = 192
    t_max: float = 160.0
    r_max: float = 160.0

    def __post_init__(self):
        if self.n_t < 8 or self.n_r < 8:
            raise DomainError("grid needs at least 8 cells per direction")
        if self.t_max <= _MAP_SCALE or self.r_max <= _MAP_SCALE:
            raise DomainError("domain caps must exceed the map scale")

    def refined(self, factor: int = 2) -> "GridConfig":
        return replace(self, n_t=self.n_t * factor, n_r=self.n_r * factor)

    def halved(self) -> "GridConfig":
        """Half the cells (every second node); needs even counts >= 16."""
        if any(c % 2 or c < 16 for c in (self.n_t, self.n_r)):
            raise DomainError(f"grid of {self.n_t} x {self.n_r} cells has no half "
                              "grid: verify needs even counts of at least 16")
        return replace(self, n_t=self.n_t // 2, n_r=self.n_r // 2)


@dataclass(frozen=True)
class SolveDiagnostics:
    discrete_residual: float
    sigma_min: float
    probe_steps: int
    far_field_exponent: float


@dataclass(frozen=True)
class Profile2D:
    """Reduced corrector profile psi on the mapped grid.

    psi[i, j] is the value at (tau[i], sigma[j]); t/r node arrays follow the
    maps.  Interpolation is the tensor quintic interpolant of psi in the
    computational coordinates (knots from _quintic_knots, coefficients
    C = Bt^-1 psi Br^-T from two collocation solves), with exact chain-rule
    derivatives.  Callers pick the evaluation path: eval (the jet) and
    value (psi alone) take scattered points, one basis pass per point;
    source_overlap reads psi on a tensor grid, per-axis basis matrices
    times C.  Points beyond the last node are clamped to it.
    """
    n: int
    grid: GridConfig
    tau: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        kt, ks = _quintic_knots(self.tau), _quintic_knots(self.sigma)
        coef = np.linalg.solve(_basis_matrix(kt, self.tau)[0], self.psi)
        coef = np.linalg.solve(_basis_matrix(ks, self.sigma)[0], coef.T).T
        object.__setattr__(self, "_knots", (kt, ks))
        object.__setattr__(self, "_coef", coef)

    @property
    def t_nodes(self) -> np.ndarray:
        return _stretch(self.tau)[0]

    @property
    def r_nodes(self) -> np.ndarray:
        return _stretch(self.sigma)[0]

    def _scattered(self, tau, sigma, nu: int) -> list:
        """Computational partials at the points (tau, sigma): [s00] for
        nu = 0, [s00, s10, s01] for nu = 1, [s00, s10, s01, s20, s02] for
        nu = 2."""
        kt, ks = self._knots
        it, bt = _basis_rows(kt, tau, nu)
        ir, br = _basis_rows(ks, sigma, nu)
        flat, stride = self._coef.ravel(), self._coef.shape[1]
        base = it * stride + ir
        # block[i][j] = C[it + i, ir + j] per point; the sums run
        # elementwise, so a point's rounding does not depend on its batch
        block = [[flat[base + (i * stride + j)] for j in range(_DEGREE + 1)]
                 for i in range(_DEGREE + 1)]
        cols = [[_dot(row, b) for row in block] for b in br]
        pairs = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))[:2 * nu + 1]
        return [_dot(bt[dt], cols[dr]) for dt, dr in pairs]

    def value(self, t, r) -> np.ndarray:
        """psi alone at (t, r), which broadcast: eval's first entry."""
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(r, dtype=float))
        tau, sigma = _compress(t), _compress(r)
        return self._scattered(tau.ravel(), sigma.ravel(), 0)[0].reshape(t.shape)

    def _on_grid(self, tau, sigma) -> np.ndarray:
        """psi on the tensor grid of the 1-D tau and sigma."""
        kt, ks = self._knots
        return (_basis_matrix(kt, tau)[0] @ self._coef
                @ _basis_matrix(ks, sigma)[0].T)

    def eval(self, t, r, order: int = 2) -> tuple:
        """The jet (psi, psi_t, psi_r, psi_tt, psi_rr) at (t, r), which
        broadcast; one basis pass per point gives all five.  order = 1
        stops at (psi, psi_t, psi_r), with the same bits, and skips the
        second-derivative basis rows."""
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(r, dtype=float))
        tau, sigma = _compress(t), _compress(r)
        _, tp, tpp = _stretch(tau)
        _, rp, rpp = _stretch(sigma)
        s00, s10, s01, *second = (
            s.reshape(t.shape)
            for s in self._scattered(tau.ravel(), sigma.ravel(), order))
        first = (s00, s10 / tp, s01 / rp)
        if order == 1:
            return first
        s20, s02 = second
        return first + (s20 / tp ** 2 - s10 * tpp / tp ** 3,
                        s02 / rp ** 2 - s01 * rpp / rp ** 3)

    def far_field_exponent(self) -> float:
        """Fitted log-log decay exponent along the diagonal far field.

        Fits log|psi| = c + p log(rho) + b/rho; the 1/rho term absorbs the
        leading subasymptotic correction, which otherwise biases the
        exponent on domains of moderate size.
        """
        cap = min(self.grid.t_max, self.grid.r_max)
        rho = np.geomspace(cap / 5.0, cap / 1.2, 16)
        vals = self.value(rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        good = np.abs(vals) > 1e-300
        if good.sum() < 4:
            return float("nan")
        design = np.column_stack([np.ones(good.sum()), np.log(rho[good]),
                                  1.0 / rho[good]])
        coef, *_ = np.linalg.lstsq(design, np.log(np.abs(vals[good])), rcond=None)
        return float(coef[1])

    def source_overlap(self) -> float:
        """Quarter-plane integral of psi * (t^2 r^2 A) * r^{n-2}.

        Pattern-independent core of the Dirichlet pairing; memoized.
        """
        if hasattr(self, "_overlap"):
            return self._overlap
        n = self.n
        # composite 8-point Gauss-Legendre on the panels between the nodes
        tau, wt = panel_gauss_nodes(self.tau, 8)
        sigma, ws = panel_gauss_nodes(self.sigma, 8)
        t, tp, _ = _stretch(tau[:, None])
        r = _stretch(sigma)[0]
        # dt/dtau * dr/dsigma, grouped as (dt/dtau * L) / (1 - sigma)^2
        # so that the pairing keeps its rounding
        jac = tp * _MAP_SCALE / (1.0 - sigma) ** 2
        psi = self._on_grid(tau, sigma)
        vals = psi * source_radial(n, t, r) * r ** (n - 2) * jac
        val = float(wt @ vals @ ws)
        object.__setattr__(self, "_overlap", val)
        return val


# degree of the profile interpolant in each computational coordinate
_DEGREE = 5


def _quintic_knots(x: np.ndarray) -> np.ndarray:
    """Knots of the quintic interpolant on the nodes x: each end knot six
    times, interior knots at x[3:-3] (FITPACK's choice for s = 0), so
    there is one coefficient per node."""
    return np.concatenate([np.repeat(x[0], _DEGREE + 1), x[3:-3],
                           np.repeat(x[-1], _DEGREE + 1)])


def _basis_rows(knots: np.ndarray, x: np.ndarray, nu: int) -> tuple:
    """Nonzero quintic B-splines and their first nu derivatives at x.

    Returns the index of each point's first nonzero coefficient and, per
    derivative order d <= nu, the list of the six arrays holding the d-th
    derivatives of those B-splines at x.  x is clamped to the end knots.
    The values come from the Cox-de Boor triangle (Piegl and Tiller, The
    NURBS Book, A2.2), the derivatives from differences of the
    lower-degree rows (de Boor, A Practical Guide to Splines, ch. X).
    """
    p = _DEGREE
    x = np.clip(x, knots[p], knots[-p - 1])
    span = np.clip(np.searchsorted(knots, x, side="right") - 1,
                   p, len(knots) - p - 2)
    # knot[o] is the knot o places from each point's span start
    knot = {o: knots[span + o] for o in range(1 - p, p + 1)}
    left = [None] + [x - knot[1 - j] for j in range(1, p + 1)]
    right = [None] + [knot[j] - x for j in range(1, p + 1)]
    levels = [[np.ones_like(x)]]
    for j in range(1, p + 1):
        prev, row, saved = levels[-1], [], 0.0
        for k in range(j):
            temp = prev[k] / (right[k + 1] + left[j - k])
            row.append(saved + right[k + 1] * temp)
            saved = left[j - k] * temp
        row.append(saved)
        levels.append(row)
    # B'_{i,q} = q (B_{i,q-1}/(t_{i+q}-t_i) - B_{i+1,q-1}/(t_{i+q+1}-t_{i+1}))
    # on the nonzero rows: scale[q][k] is the k-th knot factor of degree q
    scale = {q: [q / (knot[k] - knot[k - q]) for k in range(1, q + 1)]
             for q in range(p - nu + 1, p + 1)}
    out = [levels[p]]
    for d in range(1, nu + 1):
        row = levels[p - d]
        for q in range(p - d + 1, p + 1):
            w = [f * b for f, b in zip(scale[q], row)]
            row = [-w[0]] + [w[k - 1] - w[k] for k in range(1, q)] + [w[q - 1]]
        out.append(row)
    return span - p, out


def _dot(a: list, b: list) -> np.ndarray:
    """sum_k a[k] * b[k] over two lists of arrays, left to right."""
    acc = a[0] * b[0]
    for u, v in zip(a[1:], b[1:]):
        acc = acc + u * v
    return acc


def _basis_matrix(knots: np.ndarray, x: np.ndarray, nu: int = 0) -> list:
    """Dense (len(x), number of coefficients) B-spline matrices at x, for
    derivative orders 0..nu."""
    first, rows = _basis_rows(knots, x, nu)
    cols = first[:, None] + np.arange(_DEGREE + 1)
    out = []
    for row in rows:
        mat = np.zeros((len(x), len(knots) - _DEGREE - 1))
        np.put_along_axis(mat, cols, np.stack(row, axis=1), axis=1)
        out.append(mat)
    return out


def _stretch(s):
    """The compactifying map x = L s/(1-s) and its first two s-derivatives."""
    q = 1.0 - s
    return _MAP_SCALE * s / q, _MAP_SCALE / q ** 2, 2.0 * _MAP_SCALE / q ** 3


def _compress(x):
    """Inverse of the compactifying map: s = x/(L+x)."""
    return x / (_MAP_SCALE + x)


# largest side of a nested-dissection leaf, in nodes: under _LU_OPTIONS, 4
# leaves less fill than 8 (2.44 M against 2.65 M nonzeros at 193 nodes per
# side, 11.95 M against 12.80 M at 385) and factors and probes as fast or
# faster (0.138 s against 0.148 s to factor at 193, one thread)
_ND_LEAF = 4


@lru_cache(maxsize=8)
def _nested_dissection(n_i: int, n_j: int) -> tuple:
    """Nested-dissection order of the n_i x n_j node grid (George 1973).

    Each block is bisected across its longer side by one line of nodes,
    which is numbered after the two halves; blocks of at most _ND_LEAF
    nodes per side stay whole, row-major.  Returns (order, label): order[k]
    is the row-major index of the k-th unknown and label[i, j] is the
    position of node (i, j) in order.  Both are read-only.
    """
    parts = []

    def visit(block):
        h, w = block.shape
        if max(h, w) <= _ND_LEAF:
            parts.append(block.ravel())
        elif h >= w:
            visit(block[:h // 2])
            visit(block[h // 2 + 1:])
            parts.append(block[h // 2])
        else:
            visit(block[:, :w // 2])
            visit(block[:, w // 2 + 1:])
            parts.append(block[:, w // 2])

    visit(np.arange(n_i * n_j).reshape(n_i, n_j))
    order = np.concatenate(parts)
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    label = label.reshape(n_i, n_j)
    order.flags.writeable = label.flags.writeable = False
    return order, label


def _assemble(n: int, grid: GridConfig, label: np.ndarray | None = None):
    """Sparse system (row-equilibrated) for the reduced profile.

    label[i, j] numbers the unknown and the equation of node (i, j); the
    default is row-major.  The rows, columns and right-hand side come out
    in that numbering, so a reordered system is never permuted afterwards.
    """
    Nt, Nr = grid.n_t, grid.n_r
    tau = np.linspace(0.0, _compress(grid.t_max), Nt + 1)
    sigma = np.linspace(0.0, _compress(grid.r_max), Nr + 1)
    ht = tau[1] - tau[0]
    hs = sigma[1] - sigma[0]
    t, tp, tpp = _stretch(tau)
    r, rp, rpp = _stretch(sigma)

    NJ = Nr + 1
    size = (Nt + 1) * NJ
    if label is None:
        label = np.arange(size).reshape(Nt + 1, NJ)
    rows, cols, vals = [], [], []

    def add(i, j, di, dj, v):
        """Entries coupling node (i, j) to (i + di, j + dj); i, j, v broadcast."""
        i, j, v = np.broadcast_arrays(i, j, v)
        rows.append(label[i, j].ravel())
        cols.append(label[i + di, j + dj].ravel())
        vals.append(v.ravel())

    # interior PDE rows
    ia, it, jr = np.arange(Nt + 1), np.arange(1, Nt), np.arange(1, Nr)
    I, J = np.meshgrid(it, jr, indexing="ij")
    aT = (1.0 / (tp[it] ** 2 * ht * ht))[:, None]
    bT = (-tpp[it] / (tp[it] ** 3) / (2.0 * ht))[:, None]
    aR = 1.0 / (rp[jr] ** 2 * hs * hs)
    bR = (-rpp[jr] / rp[jr] ** 3 + (n - 2.0) / (r[jr] * rp[jr])) / (2.0 * hs)
    add(I, J, 1, 0, aT + bT)
    add(I, J, -1, 0, aT - bT)
    add(I, J, 0, 1, aR + bR)
    add(I, J, 0, -1, aR - bR)
    add(I, J, 0, 0, -2.0 * aT - 2.0 * aR - 2.0 * (n - 1.0) / r[jr] ** 2)
    rhs = np.zeros((Nt + 1, NJ))
    rhs[1:Nt, 1:Nr] = -source_radial(n, t[it, None], r[None, jr])

    # r = 0: Dirichlet (whole column, corners included)
    add(ia, 0, 0, 0, 1.0)

    # t = 0 row: psi_t + n (1+r^2)^{-1} psi = 0, one-sided second order
    c0 = 1.0 / (2.0 * ht * tp[0])
    add(0, jr, 0, 0, -3.0 * c0 + n / (1.0 + r[jr] ** 2))
    add(0, jr, 1, 0, 4.0 * c0)
    add(0, jr, 2, 0, -c0)

    # far-t row: (t d/dt + r d/dr - (4 - n)) psi = 0
    cN = t[Nt] / (2.0 * ht * tp[Nt])
    cr = r[jr] / (2.0 * hs * rp[jr])
    add(Nt, jr, 0, 0, 3.0 * cN - (4.0 - n))
    add(Nt, jr, -1, 0, -4.0 * cN)
    add(Nt, jr, -2, 0, cN)
    add(Nt, jr, 0, 1, cr)
    add(Nt, jr, 0, -1, -cr)

    # far-r column: same Robin, one-sided in r; t = 0 drops the t-term
    crN = r[Nr] / (2.0 * hs * rp[Nr])
    add(ia, Nr, 0, 0, 3.0 * crN - (4.0 - n))
    add(ia, Nr, 0, -1, -4.0 * crN)
    add(ia, Nr, 0, -2, crN)
    ct = t[it] / (2.0 * ht * tp[it])
    add(it, Nr, 1, 0, ct)
    add(it, Nr, -1, 0, -ct)
    # far corner: one-sided in t too; its diagonal sums with the one above
    add(Nt, Nr, 0, 0, 3.0 * cN)
    add(Nt, Nr, -1, 0, -4.0 * cN)
    add(Nt, Nr, -2, 0, cN)

    M = csc_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(size, size))
    # free the triplets before the returned arrays are allocated: memory
    # they held below a live array stays resident through the factor
    # (about 20 MB of peak RSS at 385 nodes per side)
    del rows, cols, vals
    # row equilibration on the CSC arrays (duplicates are summed by now):
    # each row's largest |entry|, at least 1e-300
    scale = np.full(size, 1e-300)
    np.maximum.at(scale, M.indices, np.abs(M.data))
    M.data *= (1.0 / scale)[M.indices]
    rhs_by_label = np.empty(size)
    rhs_by_label[label] = rhs
    return M, rhs_by_label / scale, tau, sigma


_PROBE_RTOL = 1e-6
_PROBE_MAX_STEPS = 25


def _sigma_min_probe(lu, order: np.ndarray) -> tuple[float, int]:
    """Smallest singular value via Lanczos on (A^T A)^-1, and the steps
    taken.

    lu factors the system numbered by order (see _nested_dissection).  The
    start vector is drawn in row-major node order and then reordered, so
    the iterates are the row-major ones reordered and the step count does
    not depend on the numbering.  Each step costs two solves with the
    factor and extends the three-term recurrence by one vector; the
    estimate of ||(A^T A)^-1|| is the largest eigenvalue of the tridiagonal
    matrix built so far, which approaches it from below.  The iteration
    stops once a step changes the estimate by at most _PROBE_RTOL relative,
    or on a zero off-diagonal (an exact invariant subspace).  A probe that
    takes _PROBE_MAX_STEPS steps without stopping raises SolverError: its
    sigma_min would be too large, and the gate could pass an ill-conditioned
    factor.  Dot products avoid BLAS, so the estimate has the same bits for
    any BLAS thread count.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(order.size)[order]
    v /= math.sqrt(_inner(v, v))
    v_prev, alpha, beta, lam = None, [], [], 0.0
    for step in range(1, _PROBE_MAX_STEPS + 1):
        w = lu.solve(lu.solve(v, trans="N"), trans="T")
        if v_prev is not None:
            w -= beta[-1] * v_prev
        alpha.append(_inner(v, w))
        w -= alpha[-1] * v
        T = np.diag(alpha) + np.diag(beta, -1) + np.diag(beta, 1)
        lam, prev = float(np.linalg.eigvalsh(T)[-1]), lam
        beta.append(math.sqrt(_inner(w, w)))
        if abs(lam - prev) <= _PROBE_RTOL * lam or beta[-1] == 0.0:
            return 1.0 / math.sqrt(lam), step
        w /= beta[-1]
        v_prev, v = v, w
    raise SolverError(
        f"sigma_min probe did not converge in {_PROBE_MAX_STEPS} steps")


# SuperLU's symmetric mode: keep the nested-dissection column order and
# pivot on the diagonal unless it is below 0.01 of its column's largest
# entry (0.0 would never swap a tiny pivot).  scipy turns SymmetricMode on
# for NATURAL by itself; it is named here so the factor does not rest on
# that.  relax and panel_size stay at SuperLU's defaults: setting them was
# seen to crash scipy 1.17.1's SuperLU on these systems.
_LU_OPTIONS = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.01,
               "options": {"SymmetricMode": True}}


# 3: verify's convergence study reads the run's Richardson pair and its half
# grid; more would keep finished solves alive and raise a sweep's peak RSS
@lru_cache(maxsize=3)
def _solve_nodes(n: int, grid: GridConfig, tol_solver: float) -> tuple:
    """psi on the grid's nodes, the node axes tau and sigma, and the
    solve's discrete residual, sigma_min and probe steps; memoized, with
    read-only arrays.

    The system is assembled and factored in nested-dissection order;
    SuperLU keeps that column order and, in symmetric mode with a small
    pivot threshold (_LU_OPTIONS), pivots on the diagonal, so the
    separators bound the fill.  psi is gathered back to the node grid at
    the end.
    """
    order, label = _nested_dissection(grid.n_t + 1, grid.n_r + 1)
    M, rhs, tau, sigma = _assemble(n, grid, label)
    lu = splu(M, **_LU_OPTIONS)
    x = lu.solve(rhs)
    res = float(np.max(np.abs(M @ x - rhs)) / max(np.max(np.abs(rhs)), 1e-300))
    smin, steps = _sigma_min_probe(lu, order)
    if smin < tol_solver:
        raise SolverError(
            f"reduced solve ill-conditioned: sigma_min {smin:.3e} < {tol_solver:.3e}")
    if res > 1e-8:
        raise SolverError(
            f"discrete residual {res:.3e} too large; refine the grid")
    psi = x[label]
    psi.flags.writeable = tau.flags.writeable = sigma.flags.writeable = False
    return psi, tau, sigma, res, smin, steps


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Fourth-order limit of two second-order solutions on the same nodes,
    fine from the grid with half the spacing of coarse."""
    return fine + (fine - coarse) / 3.0


@lru_cache(maxsize=24)
def _solve_profile_cached(n: int, grid: GridConfig, tol_solver: float) -> tuple:
    coarse, tau, sigma, res, smin, steps = _solve_nodes(n, grid, tol_solver)
    # the fine half only feeds the combination: no interpolant of its own
    fine, _, _, res_f, smin_f, steps_f = _solve_nodes(
        n, grid.refined(2), tol_solver)
    psi = _richardson(coarse, fine[::2, ::2])
    res, smin = max(res, res_f), min(smin, smin_f)
    steps = max(steps, steps_f)
    profile = Profile2D(n=n, grid=grid, tau=tau, sigma=sigma, psi=psi)
    diag = SolveDiagnostics(discrete_residual=res, sigma_min=smin,
                            probe_steps=steps,
                            far_field_exponent=profile.far_field_exponent())
    return profile, diag


def solve_profile(n: int, grid: GridConfig = GridConfig(),
                  tol_solver: float = DEFAULT_TOL_SOLVER
                  ) -> tuple[Profile2D, SolveDiagnostics]:
    """The Richardson profile on grid, cached per argument set: the N- and
    2N-cell solves combined to fourth order on the N-cell nodes, with the
    worse solve's diagnostics.  It does not depend on the pattern, so it
    serves every curvature point of dimension n."""
    return _solve_profile_cached(n, grid, tol_solver)


def self_convergence(n: int, grid: GridConfig = GridConfig(),
                     tol_solver: float = DEFAULT_TOL_SOLVER) -> dict:
    """Observed order from plain solves at grid.halved(), grid and
    grid.refined(2) against the Richardson limit.

    The limit is extrapolated from the two finer solves; interior-node
    errors of the two coarser ones against it should shrink by about 4 per
    refinement for a second-order scheme.  Node solves are memoized: after
    solve_profile on grid only the half grid is new.
    """
    coarse = _solve_nodes(n, grid.halved(), tol_solver)[0]
    mid_on_coarse = _solve_nodes(n, grid, tol_solver)[0][::2, ::2]
    fine_on_coarse = _solve_nodes(n, grid.refined(2), tol_solver)[0][::4, ::4]
    limit = _richardson(mid_on_coarse, fine_on_coarse)
    inner = (slice(1, -1), slice(1, -1))
    e1 = float(np.max(np.abs(coarse[inner] - limit[inner])))
    e2 = float(np.max(np.abs(mid_on_coarse[inner] - limit[inner])))
    order = math.log2(e1 / e2) if e2 > 0 else float("inf")
    return {"order": order, "coarse_error": e1, "fine_error": e2}


# ---------------------------------------------------------------------------
# Full corrector


@dataclass(frozen=True)
class CorrectorSolution:
    """v(t, z) = psi(t, r) Y(theta), Y = theta . S theta, psi the Richardson
    profile and S read from point (checked by curvature validation only)."""
    point: CurvaturePoint
    profile: Profile2D
    diagnostics: SolveDiagnostics

    def pairing(self) -> float:
        """Half-space integral of v * Laplacian(v) = -<Y^2> * source overlap.

        Nonpositive for the solved corrector.
        """
        return (-quadratic_sphere_moment(self.point.S, 2)
                * self.profile.source_overlap())


def solve_vq(point: CurvaturePoint, grid: GridConfig = GridConfig(),
             tol_solver: float = DEFAULT_TOL_SOLVER) -> CorrectorSolution:
    """Corrector for one curvature point on the cached Richardson profile.

    The quadratic-block source is S_ij z_i z_j t^2 A plus a curvature-block
    term that cancels pointwise, so only the pattern of S survives; the
    radial factor is source_radial.
    """
    profile, diag = solve_profile(point.n, grid, tol_solver)
    return CorrectorSolution(point=point, profile=profile, diagnostics=diag)


def eval_v_derivatives(sol: CorrectorSolution, t, z):
    """The corrector's jet in span form: (v, v_t, a, b, c, e, lap).

    v = psi(t, r) Y depends on z only through r^2 and z.Sz, so its spatial
    gradient is a z + b Sz and its spatial Hessian is
    a I + b S + c z z^T + e (z (Sz)^T + (Sz) z^T), with S the point's
    pattern matrix; v_t is the t-derivative and lap the full Laplacian
    (spatial trace plus v_tt).  Every array has the shape of t.
    """
    S = sol.point.S
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    r = np.sqrt(np.sum(z * z, axis=-1))
    r_safe = np.maximum(r, 1e-9)
    Y = _y_of_z(S, z)
    p, p_t, p_r, p_tt, p_rr = sol.profile.eval(t, r)
    ir = 1.0 / r_safe
    ir2 = ir * ir
    b = 2.0 * p * ir2
    a = (p_r * ir - b) * Y
    c = (p_rr * ir2 - 5.0 * p_r * ir2 * ir + 4.0 * b * ir2) * Y
    e = (2.0 * p_r * ir - 2.0 * b) * ir2
    # Y is a degree-2 harmonic on the sphere: eigenvalue 2m, m = n - 1
    m = sol.point.n - 1
    lap = ((p_tt + p_rr + (m - 1) * p_r * ir - m * b) * Y
           + float(np.trace(S)) * b)
    return p * Y, p_t * Y, a, b, c, e, lap


# ---------------------------------------------------------------------------
# Verification


# largest distance of a fitted far-field exponent from its target 4 - n
_DECAY_WINDOW = 0.5

_RESIDUAL_SAMPLES = 400   # off-grid points of each residual check


@dataclass(frozen=True)
class VerificationReport:
    """Checks for one corrector solution.

    boundary_orthogonality is the boundary integral of U^{n/(n-2)} v; it is
    exactly zero once the angular mean of the pattern vanishes, so the
    report carries the measured angular mean alongside the exact zero.
    far_field_shift is the relative change of the pairing when the domain
    caps double.  The self_convergence_* fields are self_convergence's
    order and errors; passed reads the order alone.
    """
    pde_residual: float
    boundary_residual: float
    decay_exponent: float
    decay_target: float
    angular_mean: float
    boundary_orthogonality: float
    pairing: float
    kernel_overlaps: np.ndarray
    self_convergence_order: float
    self_convergence_coarse_error: float
    self_convergence_fine_error: float
    far_field_shift: float

    def passed(self, tol_sym: float = 1e-14) -> bool:
        scale = max(abs(self.pairing), 1e-300)
        return bool(self.pde_residual <= 2e-2
                    and self.boundary_residual <= 5e-2
                    and abs(self.decay_exponent - self.decay_target) <= _DECAY_WINDOW
                    and abs(self.angular_mean) <= tol_sym
                    and self.boundary_orthogonality == 0.0
                    and self.pairing <= 1e-8 * scale
                    and np.max(np.abs(self.kernel_overlaps)) <= 1e-8
                    and self.self_convergence_order >= 1.9
                    and abs(self.far_field_shift) <= 1e-2)


def _pde_residual_offgrid(profile: Profile2D, n: int, seed: int) -> float:
    """Relative interior residual of the reduced equation at off-grid points."""
    rng = np.random.default_rng(seed)
    cap = min(profile.grid.t_max, profile.grid.r_max) / 3.0
    t = 10.0 ** rng.uniform(-1.0, math.log10(cap), _RESIDUAL_SAMPLES)
    r = 10.0 ** rng.uniform(-1.0, math.log10(cap), _RESIDUAL_SAMPLES)
    psi, _, psi_r, psi_tt, psi_rr = profile.eval(t, r)
    lhs = (psi_tt + psi_rr + (n - 2.0) / r * psi_r
           - 2.0 * (n - 1.0) / r ** 2 * psi)
    src = source_radial(n, t, r)
    scale = (np.abs(src) + 2.0 * (n - 1.0) / r ** 2 * np.abs(psi)
             + np.abs(psi_tt) + np.abs(psi_rr))
    return float(np.max(np.abs(lhs + src) / np.maximum(scale, 1e-300)))


def _bc_residual(profile: Profile2D, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-1.0, math.log10(profile.grid.r_max / 3.0),
                            _RESIDUAL_SAMPLES)
    psi, psi_t, *_ = profile.eval(np.zeros_like(r), r)
    lhs = psi_t + n / (1.0 + r ** 2) * psi
    scale = np.abs(psi_t) + n / (1.0 + r ** 2) * np.abs(psi)
    return float(np.max(np.abs(lhs) / np.maximum(scale, 1e-300)))


def check_solvability(point: CurvaturePoint) -> np.ndarray:
    """Overlap of the corrector source with each kernel element.

    Angular factors come from the exact moment table; radial factors are
    closed-form half-space moments over the sphere area (the source's
    radial factor n(n-2) t^2 r^2 Q^{-(n+2)/2}, Q = (1+t)^2 + r^2, times
    each kernel's radial part collapses to moment keys).  All n overlaps
    must vanish (the source lives in the degree-2 channel, orthogonal to
    the degree-0/1 kernel).
    """
    n = point.n
    s = n - 2.0
    scale = s * n * (n - 2.0) / sphere_area(n - 2)
    # translation kernels: radial part -s r Q^{-n/2}, so t^2 r^3 Q^{-(n+1)}
    rad_translation = -scale * moment(n, MomentKey(n + 1, 2, 3))
    # dilation kernel: radial part s Q^{-s/2} ((1+t)/Q - 1/2), so
    # (t^2 + t^3) r^2 Q^{-(n+1)} - 1/2 t^2 r^2 Q^{-n}
    rad_dilation = scale * (moment(n, MomentKey(n + 1, 2, 2))
                            + moment(n, MomentKey(n + 1, 3, 2))
                            - 0.5 * moment(n, MomentKey(n, 2, 2)))
    out = np.empty(n)
    S = point.S
    m = n - 1
    for b in range(m):
        # angular: sum_ij S_ij <theta_i theta_j theta_b> (odd, exactly zero)
        ang = 0.0
        for i in range(m):
            for j in range(m):
                if S[i, j] == 0.0:
                    continue
                expo = tuple(np.bincount([i, j, b], minlength=m))
                ang += S[i, j] * angular_moment(n, expo)
        out[b] = ang * rad_translation
    # dilation: angular factor trace(S) * omega/(n-1)
    ang_n = float(np.trace(S)) * sphere_area(n - 2) / (n - 1.0)
    out[m] = ang_n * rad_dilation
    return out


def verify_corrector(sol: CorrectorSolution, seed: int = 0,
                     tol_solver: float = DEFAULT_TOL_SOLVER
                     ) -> VerificationReport:
    """Full verification suite for one corrector solution on its grid.

    The angular mean of the degree-2 pattern determines the boundary
    integral of U^{n/(n-2)} v: once the mean vanishes (traceless S) the
    integral is exactly zero, so it is asserted through the mean rather
    than quadrature.  The order is self_convergence on sol's grid, run
    while sol's node solves are memoized; the far-field check then
    re-solves the Richardson profile with doubled caps.
    """
    n = sol.point.n
    profile = sol.profile
    conv = self_convergence(n, profile.grid, tol_solver)
    # angular mean of Y over the sphere: trace(S)/(n-1) * area
    ang_mean = float(np.trace(sol.point.S)) / (n - 1.0) * sphere_area(n - 2)
    big = replace(profile.grid, t_max=2.0 * profile.grid.t_max,
                  r_max=2.0 * profile.grid.r_max)
    pairing_big = solve_vq(sol.point, big, tol_solver).pairing()
    base = sol.pairing()
    return VerificationReport(
        pde_residual=_pde_residual_offgrid(profile, n, seed),
        boundary_residual=_bc_residual(profile, n, seed + 1),
        decay_exponent=sol.diagnostics.far_field_exponent,
        decay_target=4.0 - n,
        angular_mean=ang_mean,
        boundary_orthogonality=0.0 if abs(ang_mean) <= 1e-14 else float("nan"),
        pairing=base,
        kernel_overlaps=check_solvability(sol.point),
        self_convergence_order=conv["order"],
        self_convergence_coarse_error=conv["coarse_error"],
        self_convergence_fine_error=conv["fine_error"],
        far_field_shift=(pairing_big - base) / max(abs(base), 1e-300),
    )
