"""Quadrature backends: exact sphere moments, adaptive half-space moments,
and importance-sampled Monte Carlo on the half-space.

Coordinates: a point of the open half-space is (t, z) with t > 0 and
z in R^{n-1}; r = |z|.  The workhorse integrals are moments of the standard
decaying profile

    M(p, a, b) = integral over t>0, z in R^{n-1} of
                 t^a |z|^b ((1+t)^2 + |z|^2)^(-p),

reduced to the quarter plane (t, r) with the sphere factor pulled out.
Convergence requires 2p > a + b + n.

The adaptive engine maps the quarter plane onto the unit square via
t = tau/(1-tau), r = sigma/(1-sigma), truncates where analytic tail bounds
drop below the error budget, and refines tensor Gauss-Kronrod 7/15 cells
until the Kronrod-Gauss discrepancy plus the tail bounds meet the requested
relative tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma

import numpy as np

from .errors import BudgetError, DomainError, PoisonedEstimateError, UnsupportedPatternError

__all__ = [
    "sphere_area",
    "angular_moment",
    "quadratic_sphere_moment",
    "MomentKey",
    "moment",
    "half_line_moment",
    "MomentTable",
    "MCEstimate",
    "mc_halfspace",
    "integrate_rectangle",
    "integrate_interval",
    "panel_gauss_nodes",
]


def sphere_area(m: int) -> float:
    """Surface area of the unit sphere S^m embedded in R^{m+1}."""
    if m < 0:
        raise DomainError(f"sphere dimension must be >= 0, got {m}")
    return 2.0 * math.exp(0.5 * (m + 1) * math.log(math.pi) - lgamma(0.5 * (m + 1)))


def angular_moment(n: int, alpha: tuple[int, ...]) -> float:
    """Moment of monomial theta^alpha over the unit sphere S^{n-2} in R^{n-1}.

    alpha lists exponents for the first len(alpha) coordinates; remaining
    coordinates carry exponent 0.  Odd exponents give 0 exactly.  Total
    degree above 4 is outside the closed table used downstream and raises
    UnsupportedPatternError.
    """
    d = n - 1
    if d < 2:
        raise DomainError(f"need ambient dimension n >= 3, got n={n}")
    if len(alpha) > d:
        raise DomainError(f"pattern has {len(alpha)} slots but the sphere sits in R^{d}")
    if any(a < 0 for a in alpha):
        raise DomainError(f"exponents must be nonnegative, got {alpha}")
    deg = sum(alpha)
    if deg > 4:
        raise UnsupportedPatternError(
            f"angular pattern of degree {deg} > 4 is not in the closed moment table"
        )
    if any(a % 2 == 1 for a in alpha):
        return 0.0
    # integral of prod theta_i^{2k_i} = 2 * prod Gamma(k_i + 1/2) / Gamma(d/2 + K)
    log_num = sum(lgamma(0.5 * (a + 1)) for a in alpha) + (d - len(alpha)) * lgamma(0.5)
    return 2.0 * math.exp(log_num - lgamma(0.5 * d + 0.5 * deg))


def quadratic_sphere_moment(S: np.ndarray, K: int) -> float:
    """Integral over the unit sphere S^{d-1} of (theta^T S theta)^K.

    Uses the Gaussian-quotient identity: with g standard normal in R^d,
    E[(g^T S g)^K] and E[|g|^{2K}] are both available in closed form and
    theta = g/|g| is independent of |g|.  The numerator follows the cumulant
    recursion kappa_j = 2^{j-1} (j-1)! tr(S^j).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DomainError(f"S must be square, got shape {S.shape}")
    if K < 0:
        raise DomainError(f"power K must be >= 0, got {K}")
    d = S.shape[0]
    if K == 0:
        return sphere_area(d - 1)
    powers = [np.eye(d)]
    for _ in range(K):
        powers.append(powers[-1] @ S)
    kappa = [0.0] + [2.0 ** (j - 1) * math.factorial(j - 1) * float(np.trace(powers[j]))
                     for j in range(1, K + 1)]
    m = [1.0]
    for k in range(1, K + 1):
        m.append(sum(comb(k - 1, j - 1) * kappa[j] * m[k - j] for j in range(1, k + 1)))
    denom = 1.0
    for j in range(K):
        denom *= d + 2 * j
    return sphere_area(d - 1) * m[K] / denom


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 tensor cells


_K15_POS_NODES = np.array([
    0.000000000000000000000000000000000,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_K15_POS_WEIGHTS = np.array([
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_G7_POS_WEIGHTS = np.array([
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _build_rule():
    nodes = np.concatenate([-_K15_POS_NODES[:0:-1], _K15_POS_NODES])
    wk = np.concatenate([_K15_POS_WEIGHTS[:0:-1], _K15_POS_WEIGHTS])
    wg = np.zeros_like(wk)
    # Gauss nodes sit at the even positions of the positive half (0,2,4,6)
    gauss_idx = np.array([7 - 6, 7 - 4, 7 - 2, 7, 7 + 2, 7 + 4, 7 + 6])
    gpos = np.concatenate([_G7_POS_WEIGHTS[:0:-1], _G7_POS_WEIGHTS])
    wg[gauss_idx] = gpos
    return nodes, wk, wg


_GK_NODES, _GK_WK, _GK_WG = _build_rule()


def _eval_cells_2d(F, boxes: np.ndarray):
    """Kronrod and Gauss tensor estimates on a batch of rectangles.

    boxes has shape (ncell, 4) rows (x0, x1, y0, y1).  Returns
    (kron, err) arrays of length ncell; err = |kron - gauss|.
    """
    x0, x1, y0, y1 = boxes.T
    hx = 0.5 * (x1 - x0)
    hy = 0.5 * (y1 - y0)
    cx = 0.5 * (x1 + x0)
    cy = 0.5 * (y1 + y0)
    xs = cx[:, None] + hx[:, None] * _GK_NODES[None, :]        # (nc, 15)
    ys = cy[:, None] + hy[:, None] * _GK_NODES[None, :]
    X = xs[:, :, None] * np.ones_like(ys)[:, None, :]
    Y = np.ones_like(xs)[:, :, None] * ys[:, None, :]
    vals = F(X.ravel(), Y.ravel()).reshape(X.shape)            # (nc, 15, 15)
    kron = np.einsum("i,j,cij->c", _GK_WK, _GK_WK, vals) * hx * hy
    gauss = np.einsum("i,j,cij->c", _GK_WG, _GK_WG, vals) * hx * hy
    return kron, np.abs(kron - gauss)


def _eval_cells_1d(F, segs: np.ndarray):
    x0, x1 = segs.T
    h = 0.5 * (x1 - x0)
    c = 0.5 * (x1 + x0)
    xs = c[:, None] + h[:, None] * _GK_NODES[None, :]
    vals = F(xs.ravel()).reshape(xs.shape)
    kron = vals @ _GK_WK * h
    gauss = vals @ _GK_WG * h
    return kron, np.abs(kron - gauss)


def _refine(evaluate, cells: np.ndarray, tol_abs: float,
            max_cells: int) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod refinement shared by the 1-D and 2-D engines.

    cells has rows (lo_0, hi_0, lo_1, hi_1, ...) over d axes, and
    evaluate(cells) returns their (kron, err) arrays.  Each round bisects the
    32 >> d worst cells along every axis (16 segments or 8 boxes), with the
    first axis varying fastest among the children, until the summed
    Kronrod-Gauss discrepancy drops below tol_abs.  Raises BudgetError with
    the best estimate if max_cells is exceeded.
    """
    d = cells.shape[1] // 2
    # child k takes the upper half of axis i where bit i of k is set
    upper = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1 == 1
    vals, errs = evaluate(cells)
    heap = [(-float(e), i, c, float(v))
            for i, (c, v, e) in enumerate(zip(cells, vals, errs))]
    heapq.heapify(heap)
    counter = len(heap)
    total_v = float(vals.sum())
    total_e = float(errs.sum())
    ncells = len(heap)
    while total_e > tol_abs:
        if ncells >= max_cells:
            raise BudgetError(
                f"{d}-D quadrature exceeded {max_cells} cells (error {total_e:.3e} > {tol_abs:.3e})",
                total_v, total_e)
        batch = [heapq.heappop(heap) for _ in range(min(32 >> d, len(heap)))]
        for ne, _, _, v in batch:
            total_v -= v
            total_e -= -ne
        parents = np.array([cell for _, _, cell, _ in batch])
        lo, hi = parents[:, None, 0::2], parents[:, None, 1::2]
        mid = 0.5 * (lo + hi)
        kids = np.stack([np.where(upper, mid, lo), np.where(upper, hi, mid)],
                        axis=-1).reshape(-1, 2 * d)
        kv, ke = evaluate(kids)
        for c, v, e in zip(kids, kv, ke):
            heapq.heappush(heap, (-float(e), counter, c, float(v)))
            counter += 1
        total_v += float(kv.sum())
        total_e += float(ke.sum())
        ncells += ((1 << d) - 1) * len(batch)
    return total_v, total_e


def integrate_rectangle(F, x0: float, x1: float, y0: float, y1: float,
                        tol_abs: float, max_cells: int = 40000) -> tuple[float, float]:
    """Adaptive tensor Gauss-Kronrod integration of vectorized F on a box,
    refined from an 8 x 8 start (see _refine)."""
    ex = np.linspace(x0, x1, 9)
    ey = np.linspace(y0, y1, 9)
    boxes = np.array([(ex[i], ex[i + 1], ey[j], ey[j + 1])
                      for i in range(8) for j in range(8)])
    return _refine(lambda c: _eval_cells_2d(F, c), boxes, tol_abs, max_cells)


def integrate_interval(F, x0: float, x1: float, tol_abs: float,
                       max_cells: int = 20000) -> tuple[float, float]:
    """1-D analogue of integrate_rectangle, from 16 equal segments."""
    ex = np.linspace(x0, x1, 17)
    segs = np.stack([ex[:-1], ex[1:]], axis=1)
    return _refine(lambda c: _eval_cells_1d(F, c), segs, tol_abs, max_cells)


def panel_gauss_nodes(edges: np.ndarray, order: int):
    """Nodes and weights of composite Gauss-Legendre quadrature with order
    nodes on each panel between consecutive edges, panel by panel."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * nodes).ravel(),
            (half[:, None] * weights).ravel())


# ---------------------------------------------------------------------------
# Half-space moments


@dataclass(frozen=True, order=True)
class MomentKey:
    """Exponents of a half-space moment: power p on the shifted radius,
    t-exponent a, |z|-exponent b."""
    p: float
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise DomainError(f"moment exponents must be nonnegative, got a={self.a} b={self.b}")
        if not math.isfinite(self.p):
            raise DomainError(f"moment power must be finite, got p={self.p}")

    def decay_margin(self, n: int) -> float:
        """2p - (a + b + n); must be positive for convergence."""
        return 2.0 * self.p - (self.a + self.b + n)


def _tail_caps(n: int, key: MomentKey, tail_budget: float) -> tuple[float, float, float]:
    """Truncation radii (T, R) with total analytic tail mass <= tail_budget.

    t-tail: the inner r-integral is an exact Beta value c_r for every t; then
    t^a (1+t)^{m+1-2p} <= (1+t)^{a+m+1-2p} integrates the rest.
    r-tail: (1+t)^2 + r^2 >= (1+t)^{2 alpha} r^{2(1-alpha)} splits the
    exponent budget s = p - (a+m+2)/2 evenly between the two factors.
    """
    a, b, p = key.a, key.b, key.p
    m = b + n - 2
    e = 2.0 * p - a - m - 2.0
    half = 0.5 * tail_budget
    c_r = 0.5 * math.exp(lgamma(0.5 * (m + 1)) + lgamma(p - 0.5 * (m + 1)) - lgamma(p))
    T = max((c_r / (e * half)) ** (1.0 / e) - 1.0, 8.0)
    s = 0.5 * e
    c_t = math.exp(lgamma(a + 1.0) + lgamma(s) - lgamma(a + 1.0 + s))
    R = max((c_t / (s * half)) ** (1.0 / s), 8.0)
    tail = c_r * (1.0 + T) ** (-e) / e + c_t * R ** (-s) / s
    return T, R, tail


@lru_cache(maxsize=64)
def moment(n: int, key: MomentKey, tol: float = 1e-10) -> tuple[float, float]:
    """Half-space moment M(p, a, b) with relative error estimate <= tol.

    Returns (value, error_estimate); the estimate includes the analytic
    truncation tails.  Raises DomainError for divergent keys and BudgetError
    (carrying the best estimate) when the cell budget is exhausted.
    Memoized per argument set: a repeat returns the same bits.
    """
    if key.decay_margin(n) <= 0:
        raise DomainError(
            f"moment diverges: 2p = {2 * key.p} <= a + b + n = {key.a + key.b + n}")
    m = key.b + n - 2
    area = sphere_area(n - 2)

    def F(tau, sigma):
        t = tau / (1.0 - tau)
        r = sigma / (1.0 - sigma)
        jac = (1.0 - tau) ** -2 * (1.0 - sigma) ** -2
        q = (1.0 + t) ** 2 + r ** 2
        return (t ** key.a) * (r ** m) * q ** (-key.p) * jac

    rough, _ = _eval_cells_2d(F, np.array([[0.0, 0.96, 0.0, 0.96]]))
    scale = max(abs(float(rough[0])), 1e-300)
    target = tol * scale
    T, R, tail = _tail_caps(n, key, 0.2 * target / max(area, 1.0))
    tau_cap = T / (1.0 + T)
    sigma_cap = R / (1.0 + R)
    value, err = integrate_rectangle(F, 0.0, tau_cap, 0.0, sigma_cap,
                                     tol_abs=0.6 * target)
    value *= area
    err = area * err + area * tail
    if err > tol * abs(value) and abs(value) > 0:
        value2, err2 = integrate_rectangle(F, 0.0, tau_cap, 0.0, sigma_cap,
                                           tol_abs=0.6 * tol * abs(value) / area)
        value = area * value2
        err = area * err2 + area * tail
        if err > tol * abs(value):
            raise BudgetError("moment did not reach requested tolerance", value, err)
    return value, err


@lru_cache(maxsize=64)
def half_line_moment(c: float, p: float, tol: float = 1e-12) -> tuple[float, float]:
    """Integral over r > 0 of r^c (1 + r^2)^(-p), with error estimate.

    Requires 2p > c + 1.  Tail beyond R is bounded by R^{c-2p+1}/(2p-c-1).
    Memoized per argument set, like moment.
    """
    if 2.0 * p <= c + 1.0:
        raise DomainError(f"half-line moment diverges: 2p={2 * p} <= c+1={c + 1}")

    def F(sigma):
        r = sigma / (1.0 - sigma)
        return r ** c * (1.0 + r * r) ** (-p) * (1.0 - sigma) ** -2

    rough, _ = _eval_cells_1d(F, np.array([[0.0, 0.96]]))
    scale = max(abs(float(rough[0])), 1e-300)
    e = 2.0 * p - c - 1.0
    R = max((e * 0.2 * tol * scale) ** (-1.0 / e), 8.0)
    tail = R ** (-e) / e
    value, err = integrate_interval(F, 0.0, R / (1.0 + R), tol_abs=0.6 * tol * scale)
    return value, err + tail


_STANDARD_KEYS: dict[str, callable] = {
    "I1": lambda n: MomentKey(p=float(n - 2), a=2, b=0),
    "I2": lambda n: MomentKey(p=float(n), a=2, b=4),
    "I3": lambda n: MomentKey(p=float(n), a=4, b=2),
    "I4": lambda n: MomentKey(p=float(n - 2), a=0, b=2),
}


@dataclass(frozen=True)
class MomentTable:
    """The named half-space moments at fixed dimension and tolerance, read
    from the memoized moment.

    The named entries I1..I4 are the moment combinations used by the
    reduced-energy coefficients:
      I1 = M(n-2, 2, 0), I2 = M(n, 2, 4), I3 = M(n, 4, 2), I4 = M(n-2, 0, 2).
    """
    n: int
    tol: float = 1e-10

    def named(self, name: str) -> float:
        try:
            key = _STANDARD_KEYS[name](self.n)
        except KeyError:
            raise DomainError(f"unknown named moment {name!r}; have {sorted(_STANDARD_KEYS)}")
        return moment(self.n, key, tol=self.tol)[0]

    def load_standard(self) -> None:
        for name in _STANDARD_KEYS:
            self.named(name)

    def rows(self):
        """Sorted (p, a, b, value, error) rows of the named moments."""
        for key in sorted(k(self.n) for k in _STANDARD_KEYS.values()):
            v, e = moment(self.n, key, tol=self.tol)
            yield key.p, key.a, key.b, v, e


# ---------------------------------------------------------------------------
# Monte Carlo on the half-space


@dataclass(frozen=True)
class MCEstimate:
    """Importance-sampling estimate of a half-space integral."""
    mean: float
    std_error: float


_MC_CHUNK = 1 << 18


def mc_halfspace(n: int, integrand, n_samples: int, seed: int,
                 t_scale: float = 1.0,
                 z_scale: float = 1.0) -> MCEstimate | tuple[MCEstimate, ...]:
    """Monte Carlo estimate of integral over the half-space of integrand(t, z).

    Proposal: t ~ half-Cauchy(t_scale), z ~ multivariate Student with nu = 3
    degrees of freedom and scale z_scale (heavy tails cover slowly decaying
    integrands).  integrand must be vectorized: (B,), (B, n-1) -> (B,), or
    -> (k, B) for k integrands on the same samples, in which case a tuple
    of k estimates is returned; each equals the estimate of its row alone.
    Results are reproducible from (seed, n_samples, scales) alone; the
    internal chunk size is fixed so chunking never changes the stream.
    The variance is accumulated from centered per-chunk sums of squares
    (Chan et al. pairwise update), so it keeps its digits when the mean
    dwarfs the spread.

    Raises PoisonedEstimateError naming a sample point if the integrand
    returns a non-finite value.
    """
    d = n - 1
    if n_samples <= 1:
        raise DomainError(f"need at least 2 samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    nu = 3.0
    log_norm = (lgamma(0.5 * (nu + d)) - lgamma(0.5 * nu)
                - 0.5 * d * math.log(nu * math.pi) - d * math.log(z_scale))
    totals = sq_dev = None
    done = 0
    while done < n_samples:
        B = min(_MC_CHUNK, n_samples - done)
        t = np.abs(rng.standard_cauchy(B)) * t_scale
        w = rng.chisquare(nu, B)
        z = z_scale * rng.standard_normal((B, d))
        z *= np.sqrt(nu / w)[:, None]
        log_qt = math.log(2.0 / (math.pi * t_scale)) - np.log1p((t / t_scale) ** 2)
        zz = np.einsum("bi,bi->b", z, z)
        log_qz = log_norm - 0.5 * (nu + d) * np.log1p(zz / (nu * z_scale ** 2))
        vals = np.asarray(integrand(t, z), dtype=float)
        rows = np.ascontiguousarray(np.atleast_2d(vals))
        bad = ~np.isfinite(rows)
        if bad.any():
            k, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise PoisonedEstimateError(
                f"integrand returned {rows[k, i]!r} at t={t[i]!r}", t[i], z[i].copy())
        # each row is weighted in turn, so no weighted copy of all the
        # rows is held; rows itself may be an array the integrand keeps
        inv_q = np.exp(-(log_qt + log_qz))
        if totals is None:
            totals = [0.0] * len(rows)
            sq_dev = [0.0] * len(rows)
        for k in range(len(rows)):
            row = rows[k] * inv_q
            chunk_total = float(row.sum())
            chunk_mean = chunk_total / B
            chunk_sq_dev = float(np.sum((row - chunk_mean) ** 2))
            if done:
                gap = chunk_mean - totals[k] / done
                chunk_sq_dev += gap * gap * done * B / (done + B)
            totals[k] += chunk_total
            sq_dev[k] += chunk_sq_dev
        done += B
    ests = tuple(
        MCEstimate(mean=total / n_samples,
                   std_error=math.sqrt(dev / n_samples / (n_samples - 1)))
        for total, dev in zip(totals, sq_dev))
    return ests if vals.ndim == 2 else ests[0]
