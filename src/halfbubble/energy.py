"""Reduced-energy coefficients and the two slope experiments.

Coefficient layer: A and B are fixed by the dimension (Beta closed forms
of profile integrals, see quadrature.moment), G2/G3/phi depend on the
curvature data and the corrector pairing.  Every closed-form route has an
independent quadrature or Monte Carlo route in the tests.

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
            - (n - 2.0) ** 2 / (2.0 * (n - 1.0)) * compute_A_boundary(n))


def compute_A_gradient(n: int) -> float:
    """Half-space integral of |grad U|^2, the moment M(n-1, 0, 0)."""
    return (n - 2.0) ** 2 * moment(n, MomentKey(n - 1, 0, 0))


def compute_A_boundary(n: int) -> float:
    """Boundary integral of U(0, z)^{2(n-1)/(n-2)}, a half-line moment."""
    return sphere_area(n - 2) * half_line_moment(n - 2, n - 1)


def compute_B(n: int) -> float:
    """Half of the boundary integral of U(0, z)^2."""
    if n < 5:
        raise DomainError("B integral needs n >= 5 for integrability")
    return 0.5 * sphere_area(n - 2) * half_line_moment(n - 2, n - 2)


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
                weyl_denominator: str = "96(n-1)^2") -> ReducedCoefficients:
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
    table = MomentTable(n)
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


# ---------------------------------------------------------------------------
# Identity experiment


# the identity ladder's one polar node set (t, r) = rho (cos theta, sin
# theta): radial panels of _RADIAL_ORDER Gauss nodes between 0,
# _RADIAL_PANELS geometric edges from the largest rung's cap / 160 to the
# smallest rung's cap, and every rung's cutoff joins 1/(2 delta) and
# 1/delta, where chi is only C^2; the angle on _ANGLE_PANELS panels of
# _ANGLE_ORDER Gauss nodes on [0, pi/2]
_RADIAL_PANELS = 40
_RADIAL_ORDER = 10
_ANGLE_PANELS = 4
_ANGLE_ORDER = 16


def _polar_nodes(deltas) -> tuple:
    """(rho, w_rho, theta, w_theta): the identity ladder's radial and
    angular Gauss nodes and weights for the rungs deltas."""
    caps = 1.0 / np.asarray(deltas, dtype=float)
    edges = np.unique(np.concatenate([
        [0.0], np.geomspace(caps.min() / 160.0, caps.max(), _RADIAL_PANELS),
        0.5 * caps, caps]))
    rho, w_rho = panel_gauss_nodes(edges, _RADIAL_ORDER)
    theta, w_theta = panel_gauss_nodes(
        np.linspace(0.0, 0.5 * math.pi, _ANGLE_PANELS + 1), _ANGLE_ORDER)
    return rho, w_rho, theta, w_theta


def _bulk_pieces(point: CurvaturePoint, sol: CorrectorSolution, rho, theta,
                 w_theta) -> np.ndarray:
    """The delta-free pieces of the identity's three bulk integrands at the
    radial nodes rho, reduced over theta, shape (3, 3, len(rho)).

    The integrands are the S part and the flat part of the metric cross
    term and the corrector Dirichlet core, on the dressed chi U and
    chi psi.  The gradient of chi(delta rho) is c e with c = delta
    chi'(delta rho) and e = (cos theta, sin theta), so each integrand is
    chi^2, chi c and c^2 times a delta-free piece; pieces[k, j] is the
    piece of integrand k at factor j, in the area element
    rho drho dtheta times the sphere's r^(n-2).
    """
    n = point.n
    s = n - 2.0
    cY, cYY, cS2 = _angular_coefficients(point)
    cos, sin = np.cos(theta), np.sin(theta)
    t, r = rho[:, None] * cos, rho[:, None] * sin
    Q = (1.0 + t) ** 2 + r * r
    u = Q ** (-s / 2.0)
    u1 = -s * u / Q
    u_t, u_r = u1 * (1.0 + t), u1 * r
    psi, psi_t, psi_r = sol.profile.eval(t, r, order=1)
    # radial derivatives, and the bracket the S part pairs with U_r
    u_rho, psi_rho = cos * u_t + sin * u_r, cos * psi_t + sin * psi_r
    bracket = cYY * psi_r + 2.0 * (cS2 - cYY) * psi / r
    tt = t * t
    pieces = np.stack([
        [tt * u_r * bracket, tt * sin * (cYY * u_r * psi + u * bracket),
         cYY * tt * sin * sin * u * psi],
        [cY * (u_t * psi_t + u_r * psi_r), cY * (u * psi_rho + psi * u_rho),
         cY * u * psi],
        [cYY * (psi_t * psi_t + psi_r * psi_r)
         + 4.0 * (cS2 - cYY) * (psi / r) ** 2,
         2.0 * cYY * psi * psi_rho, cYY * psi * psi]])
    return np.einsum("kjia,ia,a->kji", pieces,
                     r ** (n - 2) * rho[:, None], w_theta)


def _identity_ladder(point: CurvaturePoint, sol: CorrectorSolution,
                     deltas) -> dict:
    """A4, L2, L3 and the Taylor ratio of every rung, as arrays over
    deltas, from one evaluation of what does not depend on delta on the
    polar nodes of _polar_nodes: the bulk pieces (see _bulk_pieces), and
    on the boundary t = 0 the pieces u^(p-2) psi^2 and u^(p-3) psi^3 of
    (chi u)^(p-2) (chi psi)^2 = chi^p u^(p-2) psi^2 and the cubic alike.
    Each rung is then sums over the radial nodes of its chi and c."""
    n = point.n
    p = 2.0 * (n - 1.0) / (n - 2.0)
    prof = sol.profile
    _, cYY, _ = _angular_coefficients(point)
    c_n = (n - 2.0) ** 2 / (2.0 * (n - 1.0))
    cY3 = quadratic_sphere_moment(point.S, 3)
    s_max = max(np.abs(np.linalg.eigvalsh(point.S)).max(), 1e-300)
    rho, w_rho, theta, w_theta = _polar_nodes(deltas)
    bulk = _bulk_pieces(point, sol, rho, theta, w_theta)
    u0 = (1.0 + rho * rho) ** (-(n - 2.0) / 2.0)
    psi0 = prof.value(np.zeros_like(rho), rho)
    w0 = w_rho * rho ** (n - 2)
    quad = u0 ** (p - 2.0) * psi0 ** 2 * w0
    cubic = u0 ** (p - 3.0) * psi0 ** 3 * w0
    out = {key: [] for key in ("A4", "L2", "L3", "ratio_max")}
    for delta in deltas:
        chi = cutoff_chi(delta * rho)
        c = cutoff_chi(delta * rho, 1) * delta
        totals = np.einsum("kji,ji,i->k", bulk,
                           np.stack([chi * chi, chi * c, c * c]), w_rho)
        chi_p = chi ** p
        R2, R3 = float(np.sum(chi_p * quad)), float(np.sum(chi_p * cubic))
        out["A4"].append(
            -(c_n * p * (p - 1.0) / 2.0) * delta ** 4 * cYY * R2
            - (c_n * p * (p - 1.0) * (p - 2.0) / 6.0) * delta ** 6 * cY3 * R3)
        out["L2"].append(delta ** 4 * (totals[0] + totals[1]))
        out["L3"].append(0.5 * delta ** 4 * totals[2])
        # Taylor validity: the corrector perturbation must stay below half
        # the profile on the boundary support
        r_probe = np.geomspace(1e-2, 1.0 / delta, 200)
        ratio = (delta ** 2 * np.abs(prof.value(np.zeros_like(r_probe), r_probe))
                 * s_max / eval_U_jet(n, 0.0, r_probe * r_probe)[0])
        out["ratio_max"].append(float(np.max(ratio)))
    return {key: np.asarray(vals) for key, vals in out.items()}


def verify_A4_L2_L3_identity(point: CurvaturePoint,
                             sol: CorrectorSolution) -> SlopeExperiment:
    """Quartic-order energy identity on the fixed delta-ladder
    IDENTITY_DELTAS = geomspace(0.5 * 10^-1.5, 0.5, 7).

    The sum of the boundary Taylor term, the metric cross term, and the
    corrector Dirichlet term equals half the corrector pairing at order
    delta^4; the remainder must decay with slope >= 4.5.  The fitted
    delta^4 coefficient of the sum is compared against half the pairing
    (within 2%) and both are attached to extras.

    Every rung is read off one node set in polar coordinates (t, r) =
    rho (cos theta, sin theta): Gauss panels in rho whose edges include
    each rung's cutoff joins 1/(2 delta) and 1/delta, times Gauss panels
    in theta on [0, pi/2] (see _polar_nodes).  Only the cutoff depends on
    delta, so the bubble, the profile jet and the integrands' delta-free
    pieces are evaluated once and reduced over theta; each rung is a
    radial sum of those pieces times chi^2, chi c and c^2 (c = delta
    chi'), and chi^p on the boundary (see _identity_ladder).
    """
    deltas = np.asarray(IDENTITY_DELTAS)
    pairing = sol.pairing()
    if np.all(point.S == 0.0):
        return SlopeExperiment(deltas=deltas, values=np.zeros_like(deltas),
                               slope=float("nan"), intercept=float("nan"),
                               band=float("nan"), status="degenerate",
                               extras={"pairing": pairing})
    check_ladder_domain(deltas, sol.profile.grid)
    terms = _identity_ladder(point, sol, deltas)
    sums = terms["A4"] + terms["L2"] + terms["L3"]
    remainders = sums - 0.5 * deltas ** 4 * pairing
    ratio_max = float(np.max(terms["ratio_max"]))
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


# samples per piece of the residual ladder's delta-free pass: whatever
# the sample count, a piece's temporaries peak near 7 MB at n = 11 and
# 11 MB at n = 15 (tracemalloc)
_PIECE = 4096


def _cutoff_jets(n: int, delta: float, rho: np.ndarray):
    """chi(delta rho) in bubble coordinates and its jets at rho = |(z, t)|:
    (chi, c1, c2, lap_chi), whose gradient is c1 x and Hessian
    c1 I + c2 x x^T at x = (z, t).  All four vanish from delta rho = 1 on.
    """
    rho_safe = np.maximum(rho, 1e-8)
    s = delta * rho
    chi1 = cutoff_chi(s, 1) * delta
    chi2 = cutoff_chi(s, 2) * delta * delta
    c1 = chi1 / rho_safe
    return (cutoff_chi(s), c1, (chi2 - c1) / (rho_safe * rho_safe),
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


def _degree_sum(split, delta):
    """sum_e delta^e split[e - 1] over the degrees split holds."""
    return np.einsum("e,e...->...", delta ** np.arange(1.0, len(split) + 1.0),
                     split)


def _ladder_terms(point: CurvaturePoint, sol: CorrectorSolution | None,
                  me: MetricExpansion, deltas, t_all, z_all) -> np.ndarray:
    """Every rung's residual at the samples, from one evaluation of the
    parts that do not depend on delta, shape (R, len(deltas), B).

    Row 0 is the pointwise residual F of the curved Laplacian on the
    dressed bubble plus corrector, in bubble coordinates; on the bubble
    alone when sol is None, which gives R = 1.  With the corrector, rows
    1..3 are the cancellation terms tv + tm, tv and tm: tv = delta^2
    lap(chi v), the corrector's flat Laplacian, and tm = chi g2 : Hess_z U
    = chi (u1 tr g2 + u2 z.g2 z), with g2 the degree-2 part of Minv - I.

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

    The bubble jet, the corrector jet, z.Sz and the invariants' degree
    split are evaluated once, on the samples inside the smallest rung's
    cutoff support; each rung then applies its cutoff, which vanishes
    outside its own support, and sums the split.  Every step acts sample
    by sample, so a sample's bits do not depend on its batch.
    """
    n = point.n
    out = np.zeros((1 if sol is None else 4, len(deltas), t_all.shape[0]))
    rr_all = np.sum(z_all * z_all, axis=1)
    rho_all = np.sqrt(t_all * t_all + rr_all)
    reach = min(deltas) * rho_all < 1.0
    if not reach.any():
        return out
    t, z, rr, rho = t_all[reach], z_all[reach], rr_all[reach], rho_all[reach]
    zSz = np.sum(z * (z @ point.S), axis=1)
    U = eval_U_jet(n, t, rr)
    V = None if sol is None else eval_v_derivatives(sol, t, z)
    split = metric_invariants(me, t, z)
    for k, delta in enumerate(deltas):
        cut = _cutoff_jets(n, delta, rho)
        jet = U if V is None else [f + delta * delta * h for f, h in zip(U, V)]
        lap, k_I, k_S, k_zz, k_sym = _dress(jet, cut, t, rr, zSz)
        tr_g, g_S, zgz, zg_sym, div_z, div_Sz = _degree_sum(split, delta)
        out[0, k, reach] = (lap + k_zz * zgz + k_I * (tr_g + delta * div_z)
                            + k_S * (g_S + delta * div_Sz) + k_sym * zg_sym)
        if V is not None:
            tv = delta * delta * _dress(V, cut, t, rr, zSz)[0]
            tr_g2, zg2z = _degree_sum(split[:2, [0, 2]], delta)
            tm = cut[0] * (U[2] * tr_g2 + U[4] * zg2z)
            out[1:, k, reach] = tv + tm, tv, tm
    return out


def residual_slope(point: CurvaturePoint, sol: CorrectorSolution | None = None,
                   deltas=None, mc_samples: int = 100000, seed: int = 0,
                   metric_seed: int = 0, deg3_scale: float = 5.0,
                   max_rel_error: float = 0.25) -> SlopeExperiment:
    """Curved-Laplacian residual norm on a delta-ladder, with log-log fit.

    The residual is that of the dressed bubble plus the corrector of sol,
    or of the bubble alone when sol is None.  The norm is estimated by
    importance MC of the p-th power (p = 2n/(n+2)) and converted by the
    delta method.  extras carries the per-rung norms, their standard
    errors, and, with the corrector, the cancellation diagnostics (the
    corrector's flat Laplacian against the metric quadratic term must
    decay about one order faster than either term alone).

    Each power law is read inside its dominance window, so the default
    ladder depends on sol: with the corrector the cubic jets set the
    decay and the ladder sits above the quadratic/cubic crossover (about
    delta = 0.008 at the default deg3_scale); without it the uncancelled
    quadratic term is what remains and the ladder sits below.  The low
    ladder is available precisely because the bubble alone never touches
    the corrector spline, whose solve domain caps 1/delta otherwise.

    Every rung reads one set of mc_samples samples drawn from seed: one
    mc_halfspace call estimates the |F|^p of every rung and, with the
    corrector, the three cancellation norms of every rung, as rows of one
    integrand evaluated in pieces of _PIECE samples (see _ladder_terms).
    The rungs' gates are then checked in ladder order: BudgetError names
    the first rung whose standard error exceeds max_rel_error of its norm.
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

    def powers(t_all, z_all):
        rows = np.empty((1 if sol is None else 4, len(deltas), t_all.shape[0]))
        for s in range(0, t_all.shape[0], _PIECE):
            piece = slice(s, s + _PIECE)
            rows[..., piece] = np.abs(_ladder_terms(
                point, sol, me, deltas, t_all[piece], z_all[piece])) ** p
        return rows.reshape(-1, t_all.shape[0])

    ests = mc_halfspace(n, powers, n_samples=mc_samples, seed=seed,
                        t_scale=_MC_T_SCALE, z_scale=_MC_Z_SCALE)
    norms, errs = [], []
    for delta, est in zip(deltas, ests):
        norm = float(est.mean ** (1.0 / p))
        err = float(abs(est.std_error / p * est.mean ** (1.0 / p - 1.0)))
        if norm > 0 and err > max_rel_error * norm:
            raise BudgetError(
                f"MC variance too high at delta={float(delta)!r}: norm "
                f"{norm!r} +- {err!r} from {mc_samples} samples; raise "
                "mc_samples", norm, err)
        norms.append(norm)
        errs.append(err)
    norms, errs = np.asarray(norms), np.asarray(errs)
    slope, intercept, band = _fit_loglog(deltas, norms, sigmas=errs)
    extras = {"norms": norms, "std_errors": errs}
    if sol is not None:
        K = len(deltas)
        cancel = [np.asarray([est.mean ** (1.0 / p) for est in ests[K * i:K * (i + 1)]])
                  for i in (1, 2, 3)]
        for key, vals in zip(("sum", "v_alone", "metric_alone"), cancel):
            extras["cancel_" + key] = vals
        for key, vals in zip(("sum", "v", "metric"), cancel):
            extras["cancel_slope_" + key] = _fit_loglog(deltas, vals)[0]
    return SlopeExperiment(deltas=deltas, values=norms, slope=slope,
                           intercept=intercept, band=band, status="ok",
                           extras=extras)
