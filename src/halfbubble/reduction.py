"""Finite-dimensional reduced functional and the blow-up family.

G(lambda, q) = lambda * gamma(q) * B + lambda^4 * phi(q) over a finite
table of boundary sample points.  For admissible points (gamma > 0,
phi < 0) the lambda-maximum is closed-form; the blow-up point is the
discrete argmax of the value function q -> G(lambda*(q), q), and the
family rows record the concentration ladder delta = lambda0 eps^{1/3}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionImpossibleError, DomainError, ValidationFailure

DEFAULT_EPS_LADDER = tuple(float(e) for e in np.geomspace(1e-4, 1e-1, 7))
# ulps find_blowup_point may move lambda0 up to make every family row exact
_SNAP_ULPS = 1 << 16

__all__ = [
    "DEFAULT_EPS_LADDER",
    "ReducedFunctional",
    "BlowUpFamily",
    "FamilyRow",
    "HessianReport",
    "eval_G",
    "critical_lambda",
    "find_blowup_point",
    "family_table",
    "hessian_check",
    "neighborhood_coords",
]


@dataclass(frozen=True)
class ReducedFunctional:
    """Sampled reduced functional: per-label (gamma, phi), constant B."""
    n: int
    B: float
    labels: tuple
    gamma: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        gamma = np.asarray(self.gamma, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phi", phi)
        if len(labels) == 0:
            raise ValidationFailure("reduced functional table is empty")
        if len(set(labels)) != len(labels):
            raise ValidationFailure("duplicate labels in table")
        if gamma.shape != (len(labels),) or phi.shape != (len(labels),):
            raise ValidationFailure("gamma/phi must align with labels")
        if not self.B > 0:
            raise ValidationFailure(f"B must be positive, got {self.B}")
        if np.any(phi > 0):
            bad = labels[int(np.argmax(phi > 0))]
            raise ValidationFailure(f"phi > 0 at label {bad}")
        object.__setattr__(self, "_index",
                           {lab: i for i, lab in enumerate(labels)})

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown label {label!r}") from None

    def admissible_mask(self) -> np.ndarray:
        return (self.gamma > 0) & (self.phi < 0)

    def inadmissible(self) -> dict:
        """By label, why each row outside admissible_mask() cannot carry
        the family: G(., q) has no positive maximum in lambda there."""
        return {label: f"phi = {float(p)!r}" if not p < 0
                else f"gamma = {float(g)!r}"
                for label, g, p, ok in zip(self.labels, self.gamma, self.phi,
                                           self.admissible_mask()) if not ok}


@dataclass(frozen=True)
class FamilyRow:
    eps: float
    delta: float
    peak: float
    phi_bound: float


@dataclass(frozen=True)
class BlowUpFamily:
    """Blow-up family at the selected boundary point.

    bracket is the compact lambda-interval containing every admissible
    critical lambda; stability is "discrete-argmax" unless a neighborhood
    check upgraded it.
    """
    n: int
    lambda0: float
    q0: str
    bracket: tuple
    value: float
    stability: str

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise ValidationFailure("lambda0 must be positive")
        a, b = self.bracket
        if not (a <= self.lambda0 <= b):
            raise ValidationFailure(
                f"lambda0 {self.lambda0} outside bracket ({a}, {b})")


def eval_G(rf: ReducedFunctional, lam: float, label: str) -> float:
    """G(lambda, q) = lambda gamma(q) B + lambda^4 phi(q)."""
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    i = rf.index_of(label)
    return lam * rf.gamma[i] * rf.B + lam ** 4 * rf.phi[i]


def critical_lambda(rf: ReducedFunctional, label: str) -> float:
    """Unique positive maximizer of G(., q): lambda^3 = -B gamma / (4 phi).

    Requires gamma > 0 and phi < 0 strictly; otherwise G has no interior
    positive maximum and the construction fails at q.
    """
    i = rf.index_of(label)
    if not rf.admissible_mask()[i]:
        raise ConstructionImpossibleError(
            f"no critical lambda at {label!r}: {rf.inadmissible()[label]}")
    return (-rf.B * rf.gamma[i] / (4.0 * rf.phi[i])) ** (1.0 / 3.0)


def find_blowup_point(rf: ReducedFunctional,
                      eps_ladder=DEFAULT_EPS_LADDER) -> BlowUpFamily:
    """Discrete argmax of q -> G(lambda*(q), q) = (3/4) B gamma(q) lambda*(q).

    Ties break to the lexicographically smallest label.  The bracket spans
    (min lambda* / 2, 2 max lambda*) over admissible points.  lambda0 is
    lambda*(q0) moved up to the nearest float at which every rung of
    eps_ladder has an exact family row (_amplitude): at most about 2e-14
    relative on the default ladder, where G is stationary.  value is the
    closed form (3/4) B gamma(q0) lambda0 at that lambda0.
    """
    mask = rf.admissible_mask()
    if not mask.any():
        raise ConstructionImpossibleError("no admissible point: " + "; ".join(
            f"{label}: {why}" for label, why in rf.inadmissible().items()))
    idx = np.flatnonzero(mask)
    lams = np.array([critical_lambda(rf, rf.labels[i]) for i in idx])
    values = 0.75 * rf.B * rf.gamma[idx] * lams
    best_value = values.max()
    near = np.isclose(values, best_value, rtol=1e-14, atol=0.0)
    candidates = sorted(rf.labels[i] for i, hit in zip(idx, near) if hit)
    q0 = candidates[0]
    k = int(np.where(idx == rf.index_of(q0))[0][0])
    bracket = (0.5 * float(lams.min()), 2.0 * float(lams.max()))
    lambda0 = _exact_lambda0(rf.n, float(lams[k]), eps_ladder)
    return BlowUpFamily(n=rf.n, lambda0=lambda0, q0=q0, bracket=bracket,
                        value=0.75 * rf.B * float(rf.gamma[idx[k]]) * lambda0,
                        stability="discrete-argmax")


def _amplitude(n: int, lambda0: float, eps: float) -> tuple:
    """One family row's (delta, peak): delta = lambda0 eps^{1/3} and
    peak = delta^{-(n-2)/2}, and whether peak * delta^{(n-2)/2} is exactly
    1.0, which rounding decides afresh for every lambda0."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    half = (n - 2.0) / 2.0
    delta = lambda0 * eps ** (1.0 / 3.0)
    peak = 1.0 / delta ** half
    return delta, peak, peak * delta ** half == 1.0


def _exact_lambda0(n: int, lam: float, eps_ladder) -> float:
    """The least float >= lam whose family rows are all exact."""
    ladder = [float(eps) for eps in eps_ladder]
    for _ in range(_SNAP_ULPS):
        if all(_amplitude(n, lam, eps)[2] for eps in ladder):
            return lam
        lam = float(np.nextafter(lam, np.inf))
    raise ValidationFailure(
        f"no lambda0 within {_SNAP_ULPS} ulps makes every family row exact")


def family_table(fam: BlowUpFamily, eps_ladder,
                 phi_bound_coeff: float = 1.0) -> list:
    """Rows (eps, delta, peak, phi_bound) for the concentration ladder.

    delta = lambda0 eps^{1/3}; peak = delta^{-(n-2)/2}; the remainder
    bound column is phi_bound_coeff * eps.  Given the ladder, fam's lambda0
    from find_blowup_point makes peak * delta^{(n-2)/2} exactly 1.0 in
    every row.
    """
    rows = []
    for eps in eps_ladder:
        eps = float(eps)
        delta, peak, _ = _amplitude(fam.n, fam.lambda0, eps)
        rows.append(FamilyRow(eps=eps, delta=delta, peak=peak,
                              phi_bound=phi_bound_coeff * eps))
    deltas = [row.delta for row in rows]
    peaks = [row.peak for row in rows]
    order = np.argsort([-row.eps for row in rows])
    deltas_sorted = np.array(deltas)[order]
    peaks_sorted = np.array(peaks)[order]
    if len(rows) > 1:
        if not np.all(np.diff(deltas_sorted) < 0):
            raise ValidationFailure("delta must decrease as eps decreases")
        if not np.all(np.diff(peaks_sorted) > 0):
            raise ValidationFailure("peak must increase as eps decreases")
    return rows


@dataclass(frozen=True)
class HessianReport:
    """Discrete 2x2 Hessian of G at (lambda0, q0) on a 1D q-neighborhood."""
    status: str                 # "ok" or "inconclusive"
    classification: str         # "negative-definite", "indefinite", ...
    lambda_lambda_fd: float | None
    lambda_lambda_closed: float
    mixed_fd: float | None
    q_second_fd: float | None
    footnotes: tuple = field(default_factory=tuple)


_FOOTNOTES = (
    "lambda-lambda entry: 12 lambda0^2 phi(q0); an alternative published "
    "normalization states 2 phi(q0) for the same entry.",
    "critical lambda taken as the positive real root; an alternative "
    "reading writes it with a leading minus sign.",
)


def neighborhood_coords(labels, coords=None) -> np.ndarray:
    """1D coordinates of a path of at least 3 distinct labels: equal
    spacing by default, else finite and strictly monotone, either way."""
    if len(labels) < 3:
        raise DomainError("neighborhood must contain at least 3 labels")
    if len(set(labels)) != len(labels):
        raise DomainError(f"neighborhood {list(labels)} repeats a label")
    if coords is None:
        return np.arange(len(labels), dtype=float)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (len(labels),):
        raise DomainError("coords must align with the neighborhood")
    steps = np.diff(coords)
    if not (np.isfinite(coords).all()
            and ((steps > 0).all() or (steps < 0).all())):
        raise DomainError(
            f"coords {coords.tolist()} must be finite and strictly monotone")
    return coords


def hessian_check(rf: ReducedFunctional, lambda0: float, q0: str,
                  neighborhood, coords=None) -> HessianReport:
    """Finite-difference 2x2 Hessian on (lambda, q) at the family point.

    neighborhood is an ordered sequence of labels along a 1D path through
    the sample table; coords optionally supplies their 1D coordinates, as
    neighborhood_coords checks them.  The lambda-lambda entry is compared
    with its closed form 12 lambda0^2 phi; the mixed entry is reported (zero
    only when gamma and phi are both stationary at q0); the q-entry
    classifies the discrete concavity.  q0 on the path boundary leaves no
    room for central differences: status "inconclusive", and the
    finite-difference entries are None.
    """
    labels = list(neighborhood)
    coords = neighborhood_coords(labels, coords)
    if q0 not in labels:
        raise DomainError(f"q0 {q0!r} not in the supplied neighborhood")
    i0 = rf.index_of(q0)
    phi0 = float(rf.phi[i0])
    h = 1e-3 * lambda0
    closed = 12.0 * lambda0 ** 2 * phi0
    mid = labels.index(q0)
    if mid == 0 or mid == len(labels) - 1:
        return HessianReport(
            status="inconclusive", classification="inconclusive",
            lambda_lambda_fd=None, lambda_lambda_closed=float(closed),
            mixed_fd=None, q_second_fd=None,
            footnotes=_FOOTNOTES)

    def G(lam, lab):
        return eval_G(rf, lam, lab)

    d2_lam = (G(lambda0 + h, q0) - 2.0 * G(lambda0, q0)
              + G(lambda0 - h, q0)) / h ** 2

    hq_plus = coords[mid + 1] - coords[mid]
    hq_minus = coords[mid] - coords[mid - 1]
    qp, qm = labels[mid + 1], labels[mid - 1]
    mixed = (G(lambda0 + h, qp) - G(lambda0 - h, qp)
             - G(lambda0 + h, qm) + G(lambda0 - h, qm)) \
        / (2.0 * h * (hq_plus + hq_minus))
    d2_q = 2.0 * (hq_minus * G(lambda0, qp) - (hq_plus + hq_minus)
                  * G(lambda0, q0) + hq_plus * G(lambda0, qm)) \
        / (hq_plus * hq_minus * (hq_plus + hq_minus))

    hess = np.array([[d2_lam, mixed], [mixed, d2_q]])
    eigs = np.linalg.eigvalsh(hess)
    if np.all(eigs < 0):
        classification = "negative-definite"
    elif np.all(eigs <= 0):
        classification = "negative-semidefinite"
    else:
        classification = "indefinite"
    return HessianReport(status="ok", classification=classification,
                         lambda_lambda_fd=float(d2_lam),
                         lambda_lambda_closed=float(closed),
                         mixed_fd=float(mixed), q_second_fd=float(d2_q),
                         footnotes=_FOOTNOTES)
