"""Quadrature backends: exact sphere moments, closed-form half-space
moments, and importance-sampled Monte Carlo on the half-space.

Coordinates: a point of the open half-space is (t, z) with t > 0 and
z in R^{n-1}; r = |z|.  The workhorse integrals are moments of the standard
decaying profile

    M(p, a, b) = integral over t>0, z in R^{n-1} of
                 t^a |z|^b ((1+t)^2 + |z|^2)^(-p),

reduced to the quarter plane (t, r) with the sphere factor pulled out.
Convergence requires 2p > a + b + n.  Each such moment is a product of two
Beta functions (see moment), and so is the boundary-plane half-line moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, lgamma

import numpy as np

from .errors import DomainError, PoisonedEstimateError, UnsupportedPatternError

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


def _beta(x: float, y: float) -> float:
    return math.exp(lgamma(x) + lgamma(y) - lgamma(x + y))


def moment(n: int, key: MomentKey) -> float:
    """Half-space moment M(p, a, b) in closed form.

    Substituting r = (1+t) u in the quarter-plane integral splits it into
    a half-line moment in u and a Beta integral in t (DLMF 5.12.3):
      M(p, a, b) = |S^{n-2}| * 1/2 B((c+1)/2, p - (c+1)/2)
                   * B(a+1, 2p - c - a - 2),   c = b + n - 2.
    Raises DomainError for divergent keys.
    """
    if key.decay_margin(n) <= 0:
        raise DomainError(
            f"moment diverges: 2p = {2 * key.p} <= a + b + n = {key.a + key.b + n}")
    c = key.b + n - 2.0
    return (sphere_area(n - 2) * 0.5 * _beta(0.5 * (c + 1.0), key.p - 0.5 * (c + 1.0))
            * _beta(key.a + 1.0, 2.0 * key.p - c - key.a - 2.0))


def half_line_moment(c: float, p: float) -> float:
    """Integral over r > 0 of r^c (1 + r^2)^(-p) = 1/2 B((c+1)/2, p - (c+1)/2).

    Requires -1 < c < 2p - 1.
    """
    if not -1.0 < c < 2.0 * p - 1.0:
        raise DomainError(
            f"half-line moment diverges: need -1 < c = {c} < 2p - 1 = {2 * p - 1}")
    return 0.5 * _beta(0.5 * (c + 1.0), p - 0.5 * (c + 1.0))


_STANDARD_KEYS: dict[str, callable] = {
    "I1": lambda n: MomentKey(p=float(n - 2), a=2, b=0),
    "I2": lambda n: MomentKey(p=float(n), a=2, b=4),
    "I3": lambda n: MomentKey(p=float(n), a=4, b=2),
    "I4": lambda n: MomentKey(p=float(n - 2), a=0, b=2),
}


@dataclass(frozen=True)
class MomentTable:
    """The named half-space moments at fixed dimension.

    The named entries I1..I4 are the moment combinations used by the
    reduced-energy coefficients:
      I1 = M(n-2, 2, 0), I2 = M(n, 2, 4), I3 = M(n, 4, 2), I4 = M(n-2, 0, 2).
    """
    n: int

    def named(self, name: str) -> float:
        try:
            key = _STANDARD_KEYS[name](self.n)
        except KeyError:
            raise DomainError(f"unknown named moment {name!r}; have {sorted(_STANDARD_KEYS)}")
        return moment(self.n, key)

    def rows(self):
        """Sorted (p, a, b, value) rows of the named moments."""
        for key in sorted(k(self.n) for k in _STANDARD_KEYS.values()):
            yield key.p, key.a, key.b, moment(self.n, key)


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
