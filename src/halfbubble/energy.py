"""Reduced-energy coefficients and the two slope experiments.

Coefficient layer: A and B are fixed by the dimension (profile integrals),
G2/G3/phi depend on the curvature data and the corrector pairing.  Every
closed-form route has an independent quadrature or Monte Carlo route in the
tests.

Slope experiments:

* verify_A4_L2_L3_identity assembles the three quartic-order energy terms
  of the perturbed test function (boundary Taylor term, metric cross term,
  corrector Dirichlet term) on a delta-ladder and checks that their sum
  reproduces half the corrector pairing at order delta^4, with the
  remainder decaying at slope >= 4.5.

* residual_slope estimates the L^{2n/(n+2)} norm of the curved-metric
  Laplacian applied to the dressed bubble plus corrector by importance
  Monte Carlo, in bubble coordinates where the delta-prefactors cancel
  exactly, and fits the decay slope (3 when the corrector is included, 2
  when it is omitted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bubble import eval_U_jet
from .corrector import CorrectorSolution, GridConfig, eval_v_derivatives
from .errors import BudgetError, DomainError, ValidationFailure
from .geometry import CurvaturePoint, MetricExpansion, metric_expansion, metric_invariants
from .quadrature import (
    MomentKey,
    MomentTable,
    half_line_moment,
    mc_halfspace,
    moment,
    panel_gauss_nodes,
    quadratic_sphere_moment,
    sphere_area,
)

__all__ = [
    "ReducedCoefficients",
    "SlopeExperiment",
    "WEYL_DENOMINATORS",
    "IDENTITY_DELTAS",
    "RESIDUAL_DELTAS",
    "check_ladder_domain",
    "check_slope_ladder",
    "compute_A",
    "compute_B",
    "compute_G_terms",
    "compute_phi",
    "cutoff_chi",
    "verify_A4_L2_L3_identity",
    "residual_slope",
]


WEYL_DENOMINATORS = ("96(n-1)", "96(n-1)^2")

# the quartic identity's fixed ladder, and the residual ladder's default
# with the corrector and without it (see residual_slope)
IDENTITY_DELTAS = tuple(np.geomspace(0.5 * 10.0 ** -1.5, 0.5, 7))
RESIDUAL_DELTAS = tuple(np.geomspace(1e-2, 10.0 ** -0.5, 7))
_RESIDUAL_DELTAS_NO_V = tuple(np.geomspace(1e-4, 10.0 ** -2.5, 7))


# ---------------------------------------------------------------------------
# Coefficients


@dataclass(frozen=True)
class ReducedCoefficients:
    """Per-point coefficient record of the reduced energy."""
    label: str
    n: int
    A: float
    B: float
    I2: float
    I4: float
    G2: float
    G3: float
    pairing: float
    phi: float

    def __post_init__(self):
        if not self.B > 0:
            raise ValidationFailure(f"B must be positive, got {self.B}")
        if self.G3 < 0:
            raise ValidationFailure(f"G3 must be nonnegative, got {self.G3}")


def compute_A(n: int) -> float:
    """Profile energy constant A, assembled from the gradient and boundary
    integrals.

    The gradient integrand is (n-2)^2 Q^{-(n-1)}, integrated over the half
    space; the boundary integrand is (1+r^2)^{-(n-1)} over the boundary
    plane.  The two are tied by the divergence theorem (gradient integral =
    (n-2) * boundary integral), which the tests check via both routes.
    """
    return (0.5 * compute_A_gradient(n)
            - (n - 2.0) ** 2 / (2.0 * (n - 1.0)) * compute_A_boundary(n, tol=1e-10))


def compute_A_gradient(n: int) -> float:
    """Half-space integral of |grad U|^2 via 2D quadrature."""
    val, _ = moment(n, MomentKey(n - 1, 0, 0), tol=1e-10)
    return (n - 2.0) ** 2 * val


def compute_A_boundary(n: int, tol: float = 1e-12) -> float:
    """Boundary integral of U(0, z)^{2(n-1)/(n-2)} via 1D quadrature."""
    radial, _ = half_line_moment(n - 2, n - 1, tol=tol)
    return sphere_area(n - 2) * radial


def compute_B(n: int) -> float:
    """Half of the boundary integral of U(0, z)^2."""
    if n < 5:
        raise DomainError("B integral needs n >= 5 for integrability")
    radial, _ = half_line_moment(n - 2, n - 2)
    return 0.5 * sphere_area(n - 2) * radial


def compute_G_terms(point: CurvaturePoint,
                    I2: float | None = None) -> tuple[float, float, float]:
    """(G1, G2, G3).  G1 vanishes identically; G2 carries the double
    contraction of the curvature-derivative block, G3 the squared second
    fundamental block."""
    n = point.n
    if I2 is None:
        I2 = MomentTable(n).named("I2")
    G2 = (n - 2.0) ** 2 / (n * n - 1.0) * I2 * point.D2
    G3 = 6.0 * (n - 2.0) / (n * n - 1.0) * I2 * point.s_norm_sq()
    return 0.0, G2, G3


def compute_phi(point: CurvaturePoint, sol: CorrectorSolution,
                weyl_denominator: str = "96(n-1)^2",
                tol_quad: float = 1e-10) -> ReducedCoefficients:
    """Assemble phi and the full coefficient record for one point.

    phi = pairing/2 + (n-2)(n-8)/(4(n^2-1)) * Rnnnn * I2
        - (n-2)/denom * Wbar2 * I4,
    with the Weyl denominator selectable between the two published variants
    (default the squared one).  phi <= 0 is asserted; a positive value
    signals an invalid input or a solver failure.
    """
    if weyl_denominator not in WEYL_DENOMINATORS:
        raise DomainError(
            f"weyl_denominator must be one of {WEYL_DENOMINATORS}")
    n = point.n
    if sol.point.n != n:
        raise DomainError("corrector solution dimension mismatch")
    table = MomentTable(n, tol=tol_quad)
    I2, I4 = table.named("I2"), table.named("I4")
    _, G2, G3 = compute_G_terms(point, I2=I2)
    pairing = sol.pairing()
    denom = 96.0 * (n - 1.0)
    if weyl_denominator == "96(n-1)^2":
        denom *= (n - 1.0)
    phi = (0.5 * pairing
           + (n - 2.0) * (n - 8.0) / (4.0 * (n * n - 1.0)) * point.Rnnnn * I2
           - (n - 2.0) / denom * point.Wbar2 * I4)
    if phi > 1e-12 * max(abs(pairing), abs(point.Rnnnn) * I2, 1.0):
        raise ValidationFailure(
            f"phi = {phi!r} > 0 for point {point.label}: invalid curvature "
            "data or corrector failure")
    return ReducedCoefficients(
        label=point.label, n=n, A=compute_A(n), B=compute_B(n), I2=I2, I4=I4,
        G2=G2, G3=G3, pairing=pairing, phi=phi)


# ---------------------------------------------------------------------------
# Slope experiments: shared pieces


@dataclass(frozen=True)
class SlopeExperiment:
    """A measured quantity on a geometric delta-ladder with a log-log fit.

    status: "ok" for a completed fit, "degenerate" when the input makes the
    quantity vanish identically and no fit is meaningful.
    """
    deltas: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    band: float
    status: str = "ok"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float))
        if self.status == "ok":
            check_slope_ladder(d)


def check_slope_ladder(deltas) -> None:
    """Reject a ladder too short for a log-log fit: at least 5 rungs
    spanning at least 1.5 decades."""
    d = np.asarray(deltas, dtype=float)
    if len(d) < 5:
        raise DomainError("slope ladder needs at least 5 points")
    if d.max() / d.min() < 10.0 ** 1.5 * (1.0 - 1e-12):
        raise DomainError("slope ladder must span >= 1.5 decades")


def check_ladder_domain(deltas, grid: GridConfig) -> None:
    """Reject a ladder whose smallest rung reads the corrector profile past
    the caps of grid: rung delta reaches rho = 1/delta."""
    cap = 1.0 / float(np.min(deltas))
    if cap > grid.t_max or cap > grid.r_max:
        raise DomainError(
            f"delta ladder needs the profile solved out to rho = {cap}, "
            f"grid covers ({grid.t_max}, {grid.r_max})")


def _fit_loglog(deltas, values, sigmas=None):
    """Weighted linear fit of log|value| vs log delta.

    Returns (slope, intercept, band) where band is twice the slope's
    standard error from the fit covariance.
    """
    x = np.log(np.asarray(deltas, dtype=float))
    vals = np.abs(np.asarray(values, dtype=float))
    if np.any(vals == 0.0):
        raise DomainError("log-log fit needs nonzero values")
    y = np.log(vals)
    if sigmas is None:
        w = np.ones_like(x)
    else:
        sig_log = np.asarray(sigmas, dtype=float) / vals
        w = 1.0 / np.maximum(sig_log, 1e-12) ** 2
    W = np.sum(w)
    xbar = np.sum(w * x) / W
    ybar = np.sum(w * y) / W
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    var = np.sum(w * resid ** 2) / dof / sxx
    return float(slope), float(intercept), 2.0 * math.sqrt(max(var, 0.0))


def cutoff_chi(s, order: int = 0) -> np.ndarray:
    """C^2 cutoff: 1 on [0, 1/2], 0 on [1, inf), quintic blend between.

    order selects the derivative (0, 1, 2) with respect to s.
    """
    s = np.asarray(s, dtype=float)
    u = np.clip((s - 0.5) / 0.5, 0.0, 1.0)
    if order == 0:
        blend = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
        return 1.0 - blend
    inside = (s > 0.5) & (s < 1.0)
    if order == 1:
        d = 30.0 * u ** 2 * (u - 1.0) ** 2
        return np.where(inside, -d / 0.5, 0.0)
    if order == 2:
        d2 = 60.0 * u * (u - 1.0) * (2.0 * u - 1.0)
        return np.where(inside, -d2 / 0.25, 0.0)
    raise DomainError("cutoff derivatives supported up to order 2")


def _chi_tr(t, r, delta):
    """Cutoff in bubble coordinates (support rho <= 1/delta) and its exact
    first (t, r) partial derivatives, for t, r >= 0, which broadcast.  On
    delta rho <= 1/2 they are exactly 1, 0 and 0, so the blend is only
    evaluated on the band delta rho > 1/2."""
    t, r = np.broadcast_arrays(t, r)
    rho = np.sqrt(t * t + r * r)
    s = delta * rho
    band = s > 0.5
    chi, ct, cr = np.ones(s.shape), np.zeros(s.shape), np.zeros(s.shape)
    s, rho = s[band], rho[band]
    c1 = cutoff_chi(s, 1) * delta
    chi[band] = cutoff_chi(s)
    ct[band] = c1 * t[band] / rho
    cr[band] = c1 * r[band] / rho
    return chi, ct, cr


def _angular_coefficients(point: CurvaturePoint):
    """Angular moments of the degree-2 channel, all computed from the data.

    cY:   mean of Y over the sphere (zero for traceless S, kept numerical)
    cYY:  mean-square integral <Y^2>
    cS2:  integral of theta.S^2 theta
    The gradient moment <|grad_theta Y|^2> equals 4 (cS2 - cYY), which the
    tests confirm against the eigenvalue route 2(n-1) <Y^2>.
    """
    n = point.n
    S = point.S
    area = sphere_area(n - 2)
    cY = float(np.trace(S)) / (n - 1.0) * area
    cYY = quadratic_sphere_moment(S, 2)
    cS2 = float(np.trace(S @ S)) / (n - 1.0) * area
    return cY, cYY, cS2


def _panel_edges(cap: float, count: int) -> np.ndarray:
    """Panel edges on [0, cap], geometric away from a linear start."""
    lead = cap / count / 4.0
    return np.concatenate([[0.0], np.geomspace(lead, cap, count)])


# ---------------------------------------------------------------------------
# Identity experiment


# t-rows of the identity grid per bulk block: 80 rows of 400 nodes keep a
# block's arrays at 256 kB each
_BULK_ROWS = 80


def _identity_terms(point: CurvaturePoint, sol: CorrectorSolution,
                    delta: float) -> dict:
    """A4, L2, L3 at one delta, reduced to 1D/2D quadrature in bubble
    coordinates with the cutoff dressed in."""
    n = point.n
    p = 2.0 * (n - 1.0) / (n - 2.0)
    prof = sol.profile
    cY, cYY, cS2 = _angular_coefficients(point)
    grad_moment = 4.0 * (cS2 - cYY)
    cap = 1.0 / delta

    # --- boundary Taylor term (t = 0 line) ---
    def boundary_parts(r):
        u = eval_U_jet(n, 0.0, r * r)[0]
        chi = cutoff_chi(delta * r)
        psi = prof.value(np.zeros_like(r), r)
        uc = u * chi
        vc = psi * chi
        w = r ** (n - 2)
        quad = uc ** (p - 2.0) * vc ** 2 * w
        cubic = uc ** (p - 3.0) * vc ** 3 * w
        return quad, cubic

    # the 10 Gauss nodes of each of 40 panels in one batch: 1D for the
    # boundary line, their tensor grid for the 2D integrals
    nodes, weights = panel_gauss_nodes(_panel_edges(cap, 40), 10)
    quad, cubic = boundary_parts(nodes)
    R2 = float(np.sum(weights * quad))
    R3 = float(np.sum(weights * cubic))
    c_n = (n - 2.0) ** 2 / (2.0 * (n - 1.0))
    cY3 = quadratic_sphere_moment(point.S, 3)
    A4 = -(c_n * p * (p - 1.0) / 2.0) * delta ** 4 * cYY * R2 \
        - (c_n * p * (p - 1.0) * (p - 2.0) / 6.0) * delta ** 6 * cY3 * R3

    # Taylor validity: the corrector perturbation must stay below half the
    # profile on the boundary support
    r_probe = np.geomspace(1e-2, cap, 200)
    ratio = (delta ** 2 * np.abs(prof.value(np.zeros_like(r_probe), r_probe))
             * max(np.abs(np.linalg.eigvalsh(point.S)).max(), 1e-300)
             / eval_U_jet(n, 0.0, r_probe * r_probe)[0])
    ratio_max = float(np.max(ratio))

    # --- 2D integrals, on the tensor grid of a column t and a row r, with
    # psi and its first partials on that grid ---
    def bulk(t, r, psi, psi_t, psi_r):
        chi, ct, cr = _chi_tr(t, r, delta)
        u, u_t, u1, *_ = eval_U_jet(n, t, r * r)
        u_r = u1 * r
        uc_r = u_r * chi + u * cr
        uc_t = u_t * chi + u * ct
        vc = psi * chi
        vc_t = psi_t * chi + psi * ct
        vc_r = psi_r * chi + psi * cr
        w = r ** (n - 2)
        r_safe = np.maximum(r, 1e-300)
        # metric cross term: S part plus the flat part carried by <Y>
        cross_S = t * t * uc_r * (cYY * vc_r + 2.0 * (cS2 - cYY) * vc / r_safe)
        cross_flat = cY * (uc_t * vc_t + uc_r * vc_r)
        # corrector Dirichlet energy
        dir_core = cYY * (vc_t ** 2 + vc_r ** 2) + grad_moment * (vc / r_safe) ** 2
        return np.stack([cross_S * w, cross_flat * w, dir_core * w])

    # psi on the whole node grid, each axis basis built once; then the
    # r-sums of _BULK_ROWS t-rows at a time, so a block's arrays stay in
    # cache; the same sums as reducing the whole grid at once
    psi_grid = prof.eval_grid(nodes, nodes)
    rows = np.empty((3, nodes.size))
    for s in range(0, nodes.size, _BULK_ROWS):
        block = slice(s, s + _BULK_ROWS)
        rows[:, block] = bulk(nodes[block, None], nodes[None, :],
                              *(a[block] for a in psi_grid)) @ weights
    totals = rows @ weights
    L2 = delta ** 4 * (totals[0] + totals[1])
    L3 = 0.5 * delta ** 4 * totals[2]
    return {"A4": A4, "L2": L2, "L3": L3, "ratio_max": ratio_max,
            "R2": R2, "R3": R3}


def verify_A4_L2_L3_identity(point: CurvaturePoint,
                             sol: CorrectorSolution) -> SlopeExperiment:
    """Quartic-order energy identity on the fixed delta-ladder
    IDENTITY_DELTAS = geomspace(0.5 * 10^-1.5, 0.5, 7).

    The sum of the boundary Taylor term, the metric cross term, and the
    corrector Dirichlet term equals half the corrector pairing at order
    delta^4; the remainder must decay with slope >= 4.5.  The fitted
    delta^4 coefficient of the sum is compared against half the pairing
    (within 2%) and both are attached to extras.
    """
    deltas = np.asarray(IDENTITY_DELTAS)
    pairing = sol.pairing()
    if np.all(point.S == 0.0):
        return SlopeExperiment(deltas=deltas, values=np.zeros_like(deltas),
                               slope=float("nan"), intercept=float("nan"),
                               band=float("nan"), status="degenerate",
                               extras={"pairing": pairing})
    check_ladder_domain(deltas, sol.profile.grid)
    sums = []
    remainders = []
    ratio_max = 0.0
    for d in deltas:
        terms = _identity_terms(point, sol, float(d))
        total = terms["A4"] + terms["L2"] + terms["L3"]
        sums.append(total)
        remainders.append(total - 0.5 * d ** 4 * pairing)
        ratio_max = max(ratio_max, terms["ratio_max"])
    sums = np.asarray(sums)
    remainders = np.asarray(remainders)
    slope, intercept, band = _fit_loglog(deltas, remainders)
    # regression for the delta^4 coefficient of the raw sum, on the 5
    # asymptotic rungs delta <= 0.2 (above that the terms beyond the
    # (delta^4, delta^6) basis contaminate the fit), scaled by delta^4 so
    # every rung counts equally
    low = deltas <= 0.2
    design = np.column_stack([np.ones(np.count_nonzero(low)),
                              deltas[low] ** 2])
    coef, *_ = np.linalg.lstsq(design, sums[low] / deltas[low] ** 4,
                               rcond=None)
    return SlopeExperiment(
        deltas=deltas, values=remainders, slope=slope, intercept=intercept,
        band=band, status="ok",
        extras={"pairing": pairing, "c4_fit": float(coef[0]),
                "c4_target": 0.5 * pairing, "c6_fit": float(coef[1]),
                "sums": sums, "taylor_ratio_max": ratio_max})


# ---------------------------------------------------------------------------
# Residual slope experiment


# proposal scales of the residual and cancellation Monte Carlo (t, z)
_MC_T_SCALE = 0.8
_MC_Z_SCALE = 0.5


def _cutoff_shell(n: int, delta: float, t_all: np.ndarray, z_all: np.ndarray):
    """Samples inside the cutoff support rho < 1/delta (bubble coordinates)
    and the cutoff's jets there.

    Returns (keep, t, z, rr, cut): the mask over the input samples, the
    kept samples with rr = |z|^2, and cut = (chi, c1, c2, lap_chi): chi(delta
    rho), whose gradient is c1 x and Hessian c1 I + c2 x x^T at x = (z, t),
    and its Laplacian.
    """
    rr_all = np.sum(z_all * z_all, axis=1)
    keep = delta * np.sqrt(t_all * t_all + rr_all) < 1.0
    t, z, rr = t_all[keep], z_all[keep], rr_all[keep]
    rho = np.sqrt(rr + t * t)
    rho_safe = np.maximum(rho, 1e-8)
    s = delta * rho
    chi1 = cutoff_chi(s, 1) * delta
    chi2 = cutoff_chi(s, 2) * delta * delta
    c1 = chi1 / rho_safe
    return keep, t, z, rr, (cutoff_chi(s), c1, (chi2 - c1) / (rho_safe * rho_safe),
                            chi2 + chi1 * (n - 1.0) / rho_safe)


def _dress(jet, cut, t, rr, zSz):
    """chi f from the span-form jet (f, f_t, a, b, c, e, lap f) of f (see
    eval_v_derivatives): (lap, k_I, k_S, k_zz, k_sym), with spatial
    gradient k_I z + k_S Sz and spatial Hessian
    k_I I + k_S S + k_zz z z^T + k_sym (z (Sz)^T + (Sz) z^T)."""
    f, f_t, a, b, c, e, lap_f = jet
    chi, c1, c2, lap_chi = cut
    lap = chi * lap_f + 2.0 * c1 * (a * rr + b * zSz + f_t * t) + f * lap_chi
    return (lap, chi * a + f * c1, chi * b, chi * c + 2.0 * a * c1 + f * c2,
            chi * e + b * c1)


def _residual_integrand(point: CurvaturePoint, sol: CorrectorSolution | None,
                        me: MetricExpansion, delta: float):
    """Pointwise residual F(x) of the curved Laplacian on the dressed
    bubble plus corrector, in bubble coordinates; on the bubble alone when
    sol is None.

    The delta-prefactors of the L^{2n/(n+2)} norm cancel exactly in these
    coordinates, so the norm of F is the reported residual norm.  With
    W = chi (U + delta^2 v) and g = Minv - I the spatial block,

        F = lap W + g : Hess_z W + delta div . grad_z W.

    U and chi depend on z only through |z|^2, and v = psi Y only through
    |z|^2 and z.Sz (S the pattern matrix).  So grad_z W lies in
    span{z, Sz} and Hess_z W in span{I, S, z z^T, z (Sz)^T + (Sz) z^T},
    the coefficient of I being that of z and the coefficient of S that of
    Sz; F is lap W plus those coefficients times four invariants of g --
    tr g, g : S, z.gz and z.g(Sz) + (Sz).gz -- and times div.z and div.Sz,
    all six from geometry.metric_invariants.  No n x n Hessian and no
    per-sample g is formed.
    """
    n = point.n

    def F(t_all, z_all):
        out_all = np.zeros(t_all.shape[0])
        keep, t, z, rr, cut = _cutoff_shell(n, delta, t_all, z_all)
        if not keep.any():
            return out_all
        jet = eval_U_jet(n, t, rr)
        zSz = 0.0
        if sol is not None:
            zSz = np.sum(z * (z @ sol.point.S), axis=1)
            jet = [f + delta * delta * h
                   for f, h in zip(jet, eval_v_derivatives(sol, t, z))]
        lap, k_I, k_S, k_zz, k_sym = _dress(jet, cut, t, rr, zSz)

        tr_g, g_S, zgz, zg_sym, div_z, div_Sz = metric_invariants(me, t, z, delta)
        out = lap + k_zz * zgz + k_I * (tr_g + delta * div_z)
        if sol is not None:
            out += k_S * (g_S + delta * div_Sz) + k_sym * zg_sym
        out_all[keep] = out
        return out_all

    return F


def residual_slope(point: CurvaturePoint, sol: CorrectorSolution | None = None,
                   eps: float = 0.0, tie_eps: bool = False,
                   deltas=None, mc_samples: int = 100000, seed: int = 0,
                   metric_seed: int = 0, deg3_scale: float = 5.0,
                   max_rel_error: float = 0.25, map=map) -> SlopeExperiment:
    """Curved-Laplacian residual norm on a delta-ladder, with log-log fit.

    The residual is that of the dressed bubble plus the corrector of sol,
    or of the bubble alone when sol is None.  The norm is estimated by
    importance MC of the p-th power (p = 2n/(n+2)) and converted by the
    delta method.  eps affects only the reported combined bound column
    eps*delta + delta^3; with tie_eps the column uses eps = delta^3 per
    rung so both contributions are visible.  extras also carries the
    per-rung norms, their standard errors, and, with the corrector, the
    cancellation diagnostics (the corrector's flat Laplacian against the
    metric quadratic term must decay about one order faster than either
    term alone).

    Each power law is read inside its dominance window, so the default
    ladder depends on sol: with the corrector the cubic jets set the
    decay and the ladder sits above the quadratic/cubic crossover (about
    delta = 0.008 at the default deg3_scale); without it the uncancelled
    quadratic term is what remains and the ladder sits below.  The low
    ladder is available precisely because the bubble alone never touches
    the corrector spline, whose solve domain caps 1/delta otherwise.

    The ladder is one ordered list of independent jobs, each drawing from
    a seed of its own: rung by rung, the main estimate, which raises
    BudgetError when its standard error exceeds max_rel_error of its norm,
    then the cancellation estimate.  map(fn, jobs) runs them and yields
    their results in that order.  The builtin map runs each job in this
    thread as its result is read; a ThreadPoolExecutor's map submits them
    all at once and cancels the jobs not yet started once a result raises.
    Either way the values and the error raised are those of a serial run.
    """
    n = point.n
    p = 2.0 * n / (n + 2.0)
    if deltas is None:
        deltas = _RESIDUAL_DELTAS_NO_V if sol is None else RESIDUAL_DELTAS
    deltas = np.asarray(deltas, dtype=float)
    degenerate = np.all(point.S == 0.0) and np.all(point.Rbar == 0.0)
    if degenerate:
        return SlopeExperiment(deltas=deltas, values=np.zeros_like(deltas),
                               slope=float("nan"), intercept=float("nan"),
                               band=float("nan"), status="degenerate",
                               extras={"reason": "zero curvature"})
    if sol is not None:
        check_ladder_domain(deltas, sol.profile.grid)
    me = metric_expansion(point, seed=metric_seed, deg3_scale=deg3_scale)
    jobs = []
    for k, d in enumerate(deltas):
        jobs.append(partial(_residual_norm, point, sol, me, float(d), p,
                            mc_samples, seed + k, max_rel_error))
        if sol is not None:
            jobs.append(partial(_cancellation_norms, point, sol, me, float(d),
                                p, mc_samples // 2, seed + 1000 + k))
    results = list(map(lambda job: job(), jobs))
    if sol is not None:
        results, cancel = results[::2], results[1::2]
    norms, errs = (np.asarray(column) for column in zip(*results))
    slope, intercept, band = _fit_loglog(deltas, norms, sigmas=errs)
    eps_column = deltas ** 3 if tie_eps else np.full_like(deltas, eps)
    extras = {
        "norms": norms, "std_errors": errs,
        "eps_column": eps_column,
        "bound_column": eps_column * deltas + deltas ** 3,
    }
    if sol is not None:
        for key, vals in zip(("sum", "v_alone", "metric_alone"), zip(*cancel)):
            extras["cancel_" + key] = np.asarray(vals)
        for key, vals in zip(("sum", "v", "metric"), zip(*cancel)):
            extras["cancel_slope_" + key] = _fit_loglog(deltas, vals)[0]
    return SlopeExperiment(deltas=deltas, values=norms, slope=slope,
                           intercept=intercept, band=band, status="ok",
                           extras=extras)


def _residual_norm(point, sol, me, delta, p, n_samples, seed, max_rel_error):
    """The residual norm at one rung and its standard error: an MC
    estimate of the integral of |F|^p, F the residual integrand, taken to
    the power 1/p by the delta method.  BudgetError when the error exceeds
    max_rel_error of the norm."""
    F = _residual_integrand(point, sol, me, delta)
    est = mc_halfspace(point.n, lambda t, z: np.abs(F(t, z)) ** p,
                       n_samples=n_samples, seed=seed,
                       t_scale=_MC_T_SCALE, z_scale=_MC_Z_SCALE)
    norm = float(est.mean ** (1.0 / p))
    err = float(abs(est.std_error / p * est.mean ** (1.0 / p - 1.0)))
    if norm > 0 and err > max_rel_error * norm:
        raise BudgetError(
            f"MC variance too high at delta={delta!r}: norm {norm!r} "
            f"+- {err!r} from {n_samples} samples; raise mc_samples",
            norm, err)
    return norm, err


def _cancellation_parts(sol: CorrectorSolution, me: MetricExpansion,
                        delta: float):
    """The two terms the cancellation diagnostics compare, as one (2, B)
    integrand: delta^2 lap(chi v), and chi g2 : Hess_z U with g2 the
    degree-2 part of Minv - I, which is chi (u1 tr g2 + u2 z.g2 z)."""
    n = sol.point.n

    def parts(t_all, z_all):
        out = np.zeros((2, t_all.shape[0]))
        keep, t, z, rr, cut = _cutoff_shell(n, delta, t_all, z_all)
        if keep.any():
            zSz = np.sum(z * (z @ sol.point.S), axis=1)
            lap_V = _dress(eval_v_derivatives(sol, t, z), cut, t, rr, zSz)[0]
            out[0, keep] = delta * delta * lap_V
            _, _, u1, _, u2, _, _ = eval_U_jet(n, t, rr)
            tr_g2, _, zg2z, *_ = metric_invariants(me, t, z, delta, through_degree=2)
            out[1, keep] = cut[0] * (u1 * tr_g2 + u2 * zg2z)
        return out

    return parts


def _cancellation_norms(point, sol, me, delta, p, n_samples, seed):
    """L^p norms of the corrector's flat Laplacian, the metric quadratic
    term on the bubble, and their sum (chi-dressed), from one set of
    samples: (sum, corrector alone, metric alone)."""
    parts = _cancellation_parts(sol, me, delta)

    def powers(t_all, z_all):
        tv, tm = parts(t_all, z_all)
        return np.abs(np.stack([tv + tm, tv, tm])) ** p

    ests = mc_halfspace(point.n, powers, n_samples=n_samples, seed=seed,
                        t_scale=_MC_T_SCALE, z_scale=_MC_Z_SCALE)
    return tuple(est.mean ** (1.0 / p) for est in ests)
