"""Curvature data model and boundary-adapted metric expansions.

A CurvaturePoint packages the curvature data of one boundary point in the
adapted frame: the boundary curvature tensor Rbar (indexed so that
Rbar[i,k,j,l] y_k y_l contracts into the (i,j) slot of the metric block),
the symmetric traceless tensor S of the y_n^2 block, and the scalars D2,
Rnnnn, Wbar2, gamma used by the reduced-energy coefficients.

Index conventions: m = n - 1 spatial slots 0..m-1; the distinguished normal
direction appears only through scalars (Rnnnn, D2) and the power of y_n in
each block.  Rbar symmetries: antisymmetric in (i,k) and (j,l), symmetric
under pair swap (i,k) <-> (j,l), first Bianchi identity, and all single
traces vanish.

The inverse-metric expansion around the point is

    ginv(y) = I + B2(y) + B3(y) + B4(y) + O(|y|^5),
    B2 = (1/3) Rbar[i,k,j,l] y_k y_l + S y_n^2,
    B3 = (1/6) R1[i,k,j,l,mu] y_k y_l y_mu + S1[i,j,k] y_n^2 y_k
         + (1/3) S1n y_n^3,
    B4 = (1/15) sum_s (Rbar y^2)[i,s] (Rbar y^2)[j,s] + trace rider
         + generic low-rank quartic + ((1/2) T4
         + (1/3) Sym_ij(Rbar[i,k,s,l] S[s,j])) y_n^2 y_k y_l
         + (1/3) T3 y_n^3 y + (1/12) (T5 + 8 S.S) y_n^4.

The derivative tensors R1, S1, S1n, T4, T3, T5 and the generic quartic are
not determined by the CurvaturePoint; they are generated synthetically from
a seed.  Their traces are solved so that det ginv = 1 + O(|y|^5)
(normalized volume element); solving those traces forces
trace(T5) = Rnnnn = -2 ||S||^2, the same identity the curvature validator
enforces.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import DomainError, InputFormatError

__all__ = [
    "check_dim",
    "CurvaturePoint",
    "IdentityCheck",
    "CurvatureReport",
    "validate_curvature",
    "weyl_part",
    "weyl_norm_consistency",
    "generate_sample",
    "make_battery",
    "load_curvature_file",
    "save_curvature_file",
    "MetricExpansion",
    "metric_expansion",
    "metric_invariants",
]

# samples per metric_invariants block: a multiple of 8, so no block
# leaves a ragged column edge for the BLAS kernels, and small enough that
# a block's features (about 1.5 MB at n = 11, 3.4 MB at n = 15) stay in
# cache
_BLOCK = 512

# the feature count of the invariant operators is zero-padded to a
# multiple of _DEPTH_STEP.  OpenBLAS sums a product's K terms in blocks of
# its depth Q (256 on Haswell, 384 on Skylake-X) while more than 2Q are
# left, and cuts a rest R, Q < R < 2Q, at (R + 1) // 2 in its threaded
# driver but at R / 2 rounded up to the kernel's row unroll (at most 16)
# in its one-thread driver.  With K a multiple of 32, so is R, and the two
# cuts agree: the bits do not depend on the BLAS thread count, as they did
# unpadded at n = 12..14.
_DEPTH_STEP = 32


def check_dim(n: int) -> int:
    """Gate on the ambient dimension: the blow-up construction and the
    coefficient chains implemented here hold for integers n >= 11.
    Returns n as an int."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = None
    if isinstance(n, bool) or k is None or k != n:
        raise DomainError(f"dimension must be an integer, got {n!r}")
    if k < 11:
        raise DomainError(f"dimension n={k} not supported (need n >= 11)")
    return k


def _sym2(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def _traceless(A: np.ndarray) -> np.ndarray:
    m = A.shape[0]
    return A - np.trace(A) / m * np.eye(m)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed without BLAS, so the bits do not depend on its threads."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, without BLAS: np.linalg.norm takes a BLAS dot,
    whose bits depend on the BLAS thread count once a has more than 10^4
    entries, as the m^4 curvature tensors have from n = 12 on."""
    a = np.ravel(a)
    return math.sqrt(_inner(a, a))


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CurvaturePoint:
    """Curvature data of one boundary point."""
    label: str
    n: int
    Rbar: np.ndarray
    S: np.ndarray
    D2: float
    Rnnnn: float
    Wbar2: float
    gamma: float

    def __post_init__(self):
        m = self.n - 1
        Rbar = np.asarray(self.Rbar, dtype=float)
        S = np.asarray(self.S, dtype=float)
        if Rbar.shape != (m, m, m, m):
            raise InputFormatError(
                f"point {self.label!r}: Rbar must have shape {(m, m, m, m)}, got {Rbar.shape}")
        if S.shape != (m, m):
            raise InputFormatError(
                f"point {self.label!r}: S must have shape {(m, m)}, got {S.shape}")
        for name in ("D2", "Rnnnn", "Wbar2", "gamma"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise InputFormatError(f"point {self.label!r}: {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if not np.all(np.isfinite(Rbar)) or not np.all(np.isfinite(S)):
            raise InputFormatError(f"point {self.label!r}: tensor entries must be finite")
        object.__setattr__(self, "Rbar", _as_readonly(Rbar))
        object.__setattr__(self, "S", _as_readonly(S))

    @property
    def m(self) -> int:
        return self.n - 1

    def s_norm_sq(self) -> float:
        return float(np.sum(self.S * self.S))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.tol


@dataclass(frozen=True)
class CurvatureReport:
    label: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def validate_curvature(point: CurvaturePoint, tol: float = 1e-12) -> CurvatureReport:
    """Check every algebraic identity the data must satisfy, Wbar2 against
    the squared norm of the Weyl part of Rbar among them.

    Violations are measured relative to the Frobenius norm of the tensors
    involved (or to 1 when everything vanishes), so tol is relative.
    """
    R, S = point.Rbar, point.S
    nR = max(_norm(R), 1e-30)
    nS = max(_norm(S), 1e-30)
    checks = []

    def add(name, violation, scale):
        checks.append(IdentityCheck(name, float(violation) / max(scale, 1e-30), tol))

    add("rbar_antisym_ik", _norm(R + R.transpose(1, 0, 2, 3)), nR)
    add("rbar_antisym_jl", _norm(R + R.transpose(0, 1, 3, 2)), nR)
    add("rbar_pair_symmetry", _norm(R - R.transpose(2, 3, 0, 1)), nR)
    # first Bianchi with slots (i,k,j,l) read as Riemann (a,b,c,d)
    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    add("rbar_first_bianchi", _norm(bianchi), nR)
    add("rbar_ricci_trace", _norm(np.einsum("ikil->kl", R)), nR)
    add("s_symmetric", _norm(S - S.T), nS)
    add("s_traceless", abs(np.trace(S)), nS)
    s2 = point.s_norm_sq()
    rn = point.Rnnnn
    add("rnnnn_identity", abs(rn + 2.0 * s2), max(abs(rn), 2.0 * s2))
    add("wbar2_nonnegative", max(-point.Wbar2, 0.0), max(abs(point.Wbar2), 1.0))
    add("wbar2_identity", weyl_norm_consistency(point), 1.0)
    return CurvatureReport(label=point.label, checks=tuple(checks))


def _kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Product with curvature symmetries in the (i,k,j,l) slot convention."""
    return (np.einsum("ij,kl->ikjl", h, k) + np.einsum("kl,ij->ikjl", h, k)
            - np.einsum("il,kj->ikjl", h, k) - np.einsum("kj,il->ikjl", h, k))


def weyl_part(T: np.ndarray) -> np.ndarray:
    """Trace-free (Weyl) projection of a curvature-symmetric 4-tensor."""
    m = T.shape[0]
    if m < 4:
        raise DomainError(f"Weyl projection needs slot dimension >= 4, got {m}")
    g = np.eye(m)
    ric = np.einsum("ikil->kl", T)
    scal = float(np.trace(ric))
    E = ric - scal / m * g
    return (T - _kulkarni_nomizu(E, g) / (m - 2.0)
            - scal / (2.0 * m * (m - 1.0)) * _kulkarni_nomizu(g, g))


def weyl_norm_consistency(point: CurvaturePoint) -> float:
    """Relative gap between stored Wbar2 and |weyl_part(Rbar)|^2."""
    w = weyl_part(point.Rbar)
    val = float(np.sum(w * w))
    scale = max(abs(point.Wbar2), abs(val), 1e-30)
    return abs(val - point.Wbar2) / scale


def _random_curvature_tensor(m: int, rng: np.random.Generator, norm: float) -> np.ndarray:
    """Random tensor with all curvature symmetries, zero traces, given norm.

    Sums a few Kulkarni-Nomizu products of random symmetric matrices (these
    carry the full symmetry set including Bianchi), then projects off the
    Ricci part and rescales.
    """
    T = np.zeros((m, m, m, m))
    for _ in range(3):
        h = _sym2(rng.standard_normal((m, m)))
        k = _sym2(rng.standard_normal((m, m)))
        T += _kulkarni_nomizu(h, k)
    W = weyl_part(T)
    cur = _norm(W)
    if cur == 0.0:
        raise DomainError("degenerate random draw produced a zero Weyl tensor")
    return W * (norm / cur)


def generate_sample(n: int, seed: int, scale: float = 1.0,
                    label: str | None = None) -> CurvaturePoint:
    """Random admissible curvature point (passes validate_curvature).

    Both tensor norms are set to scale exactly, so downstream magnitudes are
    predictable: ||S||^2 = scale^2, Rnnnn = -2 scale^2.
    """
    check_dim(n)
    m = n - 1
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    Rbar = _random_curvature_tensor(m, rng, scale)
    S = _traceless(_sym2(rng.standard_normal((m, m))))
    S *= scale / _norm(S)
    s2 = float(np.sum(S * S))
    W = weyl_part(Rbar)
    return CurvaturePoint(
        label=label if label is not None else f"sample-{seed}",
        n=n,
        Rbar=Rbar,
        S=S,
        D2=float(rng.standard_normal()) * scale ** 2,
        Rnnnn=-2.0 * s2,
        Wbar2=float(np.sum(W * W)),
        gamma=float(rng.uniform(0.5, 2.0)),
    )


def make_battery(n: int, count: int, seed: int) -> list[CurvaturePoint]:
    """Deterministic battery of admissible points, labels battery-00.."""
    if count < 1:
        raise DomainError(f"battery needs count >= 1, got {count}")
    root = np.random.SeedSequence(seed)
    out = []
    for i, child in enumerate(root.spawn(count)):
        sub_seed = int(child.generate_state(1)[0])
        out.append(generate_sample(n, sub_seed, label=f"battery-{i:02d}"))
    return out


# ---------------------------------------------------------------------------
# JSON interchange


_POINT_FIELDS = {"label", "Rbar", "S", "D2", "Rnnnn", "Wbar2", "gamma"}


def load_curvature_file(path) -> tuple[int, list[CurvaturePoint]]:
    """Read {"n": ..., "points": [...]}; unknown fields, an empty point
    list and a repeated label are rejected.  The file is strict JSON: UTF-8
    without a BOM, and no NaN, Infinity or number that overflows a double."""
    with open(path, "rb") as fh:
        try:
            data = orjson.loads(fh.read())
        except orjson.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: top level must be an object")
    extra = set(data) - {"n", "points"}
    if extra:
        raise InputFormatError(f"{path}: unknown top-level fields {sorted(extra)}")
    if "n" not in data or "points" not in data:
        raise InputFormatError(f"{path}: need fields 'n' and 'points'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputFormatError(f"{path}: 'n' must be an integer, got {n!r}")
    if not isinstance(data["points"], list) or not data["points"]:
        raise InputFormatError(f"{path}: 'points' must be a nonempty list")
    points = []
    for idx, rec in enumerate(data["points"]):
        if not isinstance(rec, dict):
            raise InputFormatError(f"{path}: points[{idx}] must be an object")
        extra = set(rec) - _POINT_FIELDS
        if extra:
            raise InputFormatError(f"{path}: points[{idx}] has unknown fields {sorted(extra)}")
        missing = _POINT_FIELDS - set(rec)
        if missing:
            raise InputFormatError(f"{path}: points[{idx}] missing fields {sorted(missing)}")
        if any(p.label == str(rec["label"]) for p in points):
            raise InputFormatError(f"{path}: points[{idx}] repeats label {rec['label']!r}")
        try:
            points.append(CurvaturePoint(
                label=str(rec["label"]), n=n,
                Rbar=np.asarray(rec["Rbar"], dtype=float),
                S=np.asarray(rec["S"], dtype=float),
                D2=float(rec["D2"]), Rnnnn=float(rec["Rnnnn"]),
                Wbar2=float(rec["Wbar2"]), gamma=float(rec["gamma"])))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: points[{idx}]: {exc}") from exc
    return n, points


def save_curvature_file(path, n: int, points: list[CurvaturePoint]) -> None:
    data = {"n": int(n), "points": [{
        "label": p.label,
        "Rbar": p.Rbar.tolist(),
        "S": p.S.tolist(),
        "D2": p.D2,
        "Rnnnn": p.Rnnnn,
        "Wbar2": p.Wbar2,
        "gamma": p.gamma,
    } for p in points]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Metric expansion


def _sym4(T: np.ndarray) -> np.ndarray:
    out = np.zeros_like(T)
    for perm in itertools.permutations(range(4)):
        out += T.transpose(perm)
    return out / 24.0


@dataclass(frozen=True)
class MetricExpansion:
    """Evaluatable block expansion of the inverse boundary metric.

    Dense blocks use slot order (i, j, monomial slots...) except R1 which
    keeps the curvature order (i, k, j, l, mu).  The generic quartic spatial
    part is low-rank: a[i,j] (y.Qy)^2 for the one pair lowrank = (a, Q),
    with a traceless up to rounding (its trace still enters Ncorr).

    metric_invariants, which the Monte Carlo residual ladder reads, forms
    no matrix per sample.  Every matrix its invariants contract g with is
    symmetric, so it works on packed g: the M = m(m+1)/2 entries i <= j
    (the pairs in packed), the off-diagonal ones holding g_ij + g_ji.
    inv_ops[d] maps the monomial features of one sample, through degree
    d and zero-padded (see _DEPTH_STEP), to packed g and the divergence in
    one product; the square P P^T / 15 of the degree-2 block is contracted
    through P itself.  Only the truncations the residual ladder reads are
    built: d = 4 for the integrand and d = 2 for the cancellation
    diagnostics.
    """
    point: CurvaturePoint
    R1: np.ndarray          # (m,m,m,m,m) degree-3 spatial
    S1: np.ndarray          # (m,m,m) y_n^2 y_k block
    S1n: np.ndarray         # (m,m)   y_n^3 block
    T4: np.ndarray          # (m,m,m,m) y_n^2 y^2 second-derivative part
    T3: np.ndarray          # (m,m,m) y_n^3 y block
    T5: np.ndarray          # (m,m)   y_n^4 second-derivative part
    Ncorr: np.ndarray       # (m,m,m,m) trace rider on delta_ij, quartic in y
    lowrank: tuple          # (a, Q) adding a[i,j] (y.Qy)^2
    # invariants, on the packed monomials v2p (w_k w_l for the pairs
    # k <= l of packed): P_op v2p is Rbar y^2 with row (c, i) holding
    # P_ic; v2p . (N_packed v2p) is the trace rider's nc and Q_packed v2p
    # the low-rank q
    packed: np.ndarray = field(init=False, repr=False)     # (2, M) int
    cubic_packed: np.ndarray = field(init=False, repr=False)  # (2, C(m+2,3)) int
    inv_ops: dict = field(init=False, repr=False)          # d -> (M + m, F_d padded)
    P_op: np.ndarray = field(init=False, repr=False)       # (m^2, M)
    N_packed: np.ndarray = field(init=False, repr=False)   # (M, M)
    Q_packed: np.ndarray = field(init=False, repr=False)   # (1, M)

    def __post_init__(self):
        m = self.m
        mm = m * m
        R, S = self.point.Rbar, self.point.S
        # mixed block: coefficient of y_n^2 y_k y_l, (1/2) T4
        # + (1/3) Sym_ij(Rbar . S), symmetrized over the monomial slots
        rs = np.einsum("iksl,sj->ijkl", R, S)
        rs = 0.5 * (rs + rs.transpose(1, 0, 2, 3))
        K = self.T4 / 2.0 + rs / 3.0
        K = 0.5 * (K + K.transpose(0, 1, 3, 2))
        # packed pairs i <= j ordered by j, then i: the pairs with j <= mu
        # are the first (mu+1)(mu+2)/2, so v2p[:(mu+1)(mu+2)/2] w_mu are
        # the cubic monomials whose largest slot is mu, listed by
        # cubic_packed as (pair, mu) in order of mu
        ju, iu = np.tril_indices(m)
        firsts = (np.arange(m) + 1) * (np.arange(m) + 2) // 2
        pair = np.concatenate([np.arange(c) for c in firsts])
        last = np.repeat(np.arange(m), firsts)
        for name, a in (("packed", np.stack([iu, ju])),
                        ("cubic_packed", np.stack([pair, last]))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        # degree-3 spatial: every slot triple (k, l, mu) adds its entry to
        # the row of its sorted monomial k <= l <= mu
        a, b, c = np.sort(np.indices((m, m, m)).reshape(3, -1), axis=0)
        cubic_row = c * (c + 1) * (c + 2) // 6 + b * (b + 1) // 2 + a

        def on_cubic(values):
            # per slot triple (k, l, mu) -> rows of its cubic monomial
            out = np.zeros((pair.size, values.shape[1]))
            np.add.at(out, cubic_row, values)
            return out

        # degree-4 spatial divergence: the four slot-contractions of the
        # (1/15) product (two vanish by antisymmetry / Ricci-flatness but
        # are kept numerical) plus the trace rider's derivative
        c1 = np.einsum("iisl,jmsp->jlmp", R, R)
        c2 = np.einsum("iksi,jmsp->jkmp", R, R)
        c3 = np.einsum("iksl,jisp->jklp", R, R)
        c4 = np.einsum("iksl,jmsi->jklm", R, R)
        div4 = (c1 + c2 + c3 + c4) / 15.0 + 4.0 / m * self.Ncorr
        # degree-3 spatial divergence: the derivative hits the three
        # monomial slots of R1
        div3 = (np.einsum("iijlm->jlm", self.R1) + np.einsum("ikjim->jkm", self.R1)
                + np.einsum("ikjli->jkl", self.R1)) / 6.0
        # degree 2: both contractions are traces of Rbar (vanish for
        # admissible data; kept numerical so nothing is assumed)
        div2 = (np.einsum("iijl->jl", R) + np.einsum("ikji->jk", R)) / 3.0

        def pack_cols(op):
            # columns (i, j) of a full block -> packed columns i <= j
            op = np.asarray(op, dtype=float).reshape(-1, mm)
            return op[:, iu * m + ju] + np.where(iu != ju, op[:, ju * m + iu], 0.0)

        def pack_rows(op):
            # rows (k, l) acting on v2 -> rows acting on v2p
            return pack_cols(op.reshape(mm, -1).T).T

        # feature blocks in evaluation order (see _invariant_terms) with
        # their degree e in (w, s) and their rows: a feature of degree e
        # carries the degree-e part of packed g and the divergence of the
        # degree-(e + 1) part
        M = len(iu)
        a, Q = self.lowrank
        blocks = [
            (1, np.zeros((m, M)), div2.T),                                          # w
            (2, pack_cols(pack_rows(R.transpose(1, 3, 0, 2).reshape(mm, mm))) / 3.0,
             pack_rows(div3.reshape(m, mm).T)),                                     # v2p
            (2, pack_cols(S), np.einsum("iji->j", self.S1)[None]),                  # s^2
            (3, pack_cols(on_cubic(self.R1.transpose(1, 3, 4, 0, 2).reshape(m * mm, mm)
                                   / 6.0)),
             on_cubic(div4.transpose(1, 2, 3, 0).reshape(m * mm, m))),              # cubic
            (3, pack_cols(self.S1.reshape(mm, m).T),
             2.0 * np.einsum("ijil->jl", K).T),                                     # w s^2
            (3, pack_cols(self.S1n) / 3.0, np.einsum("iji->j", self.T3)[None] / 3.0),  # s^3
            (3, np.zeros((m, M)), 4.0 * Q @ a),                                     # q w
            (4, pack_cols(np.eye(m)) / m, np.zeros((1, m))),                        # nc
            (4, pack_cols(a), np.zeros((1, m))),                                    # q^2
            (4, pack_cols(pack_rows(K.reshape(mm, mm).T)), np.zeros((M, m))),       # v2p s^2
            (4, pack_cols(self.T3.reshape(mm, m).T) / 3.0, np.zeros((m, m))),       # w s^3
            (4, pack_cols(self.T5 + 8.0 * (S @ S)) / 12.0, np.zeros((1, m))),       # s^4
        ]

        def features_to_ops(rows):
            # zero feature rows up to a multiple of _DEPTH_STEP, transposed
            pad = np.zeros((-len(rows) % _DEPTH_STEP, rows.shape[1]))
            return _as_readonly(np.concatenate([rows, pad]).T)

        object.__setattr__(self, "inv_ops", {
            degree: features_to_ops(np.concatenate([
                np.hstack([g, div * (e < degree)])
                for e, g, div in blocks if e <= degree]))
            for degree in (2, 4)})
        ops = {
            "P_op": pack_rows(R.transpose(1, 3, 2, 0).reshape(mm, mm)).T,
            "N_packed": pack_rows(pack_rows(self.Ncorr.reshape(mm, mm)).T).T,
            "Q_packed": pack_cols(Q),
        }
        for name, op in ops.items():
            object.__setattr__(self, name, _as_readonly(op))

    @property
    def m(self) -> int:
        return self.point.m


def _gauge_T4(m: int, X: np.ndarray, D2: float) -> np.ndarray:
    """Impose sym(ij), sym(kl), zero ij-trace per (kl), full contraction D2."""
    X = 0.5 * (X + X.transpose(1, 0, 2, 3))
    X = 0.5 * (X + X.transpose(0, 1, 3, 2))
    tr = np.einsum("iikl->kl", X)
    X = X - np.einsum("ij,kl->ijkl", np.eye(m) / m, tr)
    eye = np.eye(m)
    # E: zero ij-trace per (kl), full contraction (m^2+m)/2 - 1
    E = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)) \
        - np.einsum("ij,kl->ijkl", eye, eye) / m
    cur = float(np.einsum("ijij->", X))
    return X + (D2 - cur) / ((m * m + m) / 2.0 - 1.0) * E


def metric_expansion(point: CurvaturePoint, seed: int = 0,
                     deg3_scale: float = 1.0) -> MetricExpansion:
    """Build the degree-<=4 inverse-metric expansion at a curvature point.

    deg3_scale multiplies the synthetic degree-3 blocks (third jet of the
    metric, unconstrained by the curvature data).  The default keeps them
    at unit tensor norm; slope experiments raise it so the cubic term is
    visible against the determined quartic content.
    """
    m = point.m
    R = point.Rbar
    rng = np.random.default_rng(seed)
    R1 = deg3_scale * np.stack(
        [_random_curvature_tensor(m, rng, 1.0) for _ in range(m)], axis=-1)
    S1 = deg3_scale * np.stack(
        [_sym2(rng.standard_normal((m, m))) for _ in range(m)], axis=-1)
    S1n = deg3_scale * _sym2(rng.standard_normal((m, m)))
    T4raw = rng.standard_normal((m, m, m, m))
    T3 = np.stack([_sym2(rng.standard_normal((m, m))) for _ in range(m)], axis=-1)
    T5raw = _sym2(rng.standard_normal((m, m)))
    a = _traceless(_sym2(rng.standard_normal((m, m))) / m)
    Q = _sym2(rng.standard_normal((m, m))) / m

    # the traces that det ginv = 1 + O(|y|^5) fixes
    S1 = S1 - np.einsum("ij,k->ijk", np.eye(m) / m, np.einsum("iik->k", S1))
    S1n = _traceless(S1n)
    T4 = _gauge_T4(m, T4raw, point.D2)
    T3 = T3 - np.einsum("ij,k->ijk", np.eye(m) / m, np.einsum("iik->k", T3))
    T5 = T5raw + (point.Rnnnn - np.trace(T5raw)) / m * np.eye(m)
    # trace rider: tr_ij B4_spatial(y) must match the quartic-spatial part
    # of (1/2) tr(B2(y)^2), i.e. (1/18) tr((Rbar y^2)^2)
    needed = np.einsum("ikjl,jmip->klmp", R, R) / 18.0
    quad_tr = np.einsum("iksl,imsp->klmp", R, R) / 15.0
    low_tr = float(np.trace(a)) * np.einsum("kl,mp->klmp", Q, Q)
    Ncorr = _sym4(needed - quad_tr - low_tr)
    return MetricExpansion(point=point, R1=R1, S1=S1, S1n=S1n,
                           T4=T4, T3=T3, T5=T5, Ncorr=Ncorr, lowrank=(a, Q))


def _batch(t, z, m):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[-1] != m:
        raise DomainError(f"z must have trailing dimension {m}, got {z.shape}")
    if t.shape[0] != z.shape[0]:
        t = np.broadcast_to(t, (z.shape[0],))
    return t, z


def metric_invariants(me: MetricExpansion, t, z, delta: float,
                      through_degree: int = 4) -> np.ndarray:
    """What the residual integrand reads of g = Minv - I (the spatial
    block, truncated at through_degree 2 or 4) and of its divergence, at
    y = (delta z, delta t), shape (6, B):

        tr g,  g : S,  z.gz,  z.g(Sz) + (Sz).gz,  div.z,  div.Sz

    with S the point's pattern matrix me.point.S.  The quadratic forms take
    z and Sz themselves, not delta z.  No per-sample matrix is formed: see
    MetricExpansion.

    The samples go through in blocks of _BLOCK, the last one zero-padded
    to full size and trimmed, so every BLAS call sees the same shape and a
    sample's bits do not depend on the batch it came in.
    """
    if through_degree not in me.inv_ops:
        raise DomainError(f"metric invariants are built through degree 2 or 4, "
                          f"not {through_degree}")
    m = me.m
    t, z = _batch(t, z, m)
    size = z.shape[0]
    out = np.empty((6, size))
    for s in range(0, size, _BLOCK):
        k = min(_BLOCK, size - s)
        tb, zb = t[s:s + k], z[s:s + k]
        if k < _BLOCK:
            tb = np.concatenate([tb, np.zeros(_BLOCK - k)])
            zb = np.concatenate([zb, np.zeros((_BLOCK - k, m))])
        out[:, s:s + k] = _invariant_terms(me, tb, zb, delta, through_degree)[:, :k]
    return out


def _invariant_terms(me: MetricExpansion, t: np.ndarray, z: np.ndarray,
                     delta: float, through_degree: int) -> np.ndarray:
    # samples along the last axis, so every feature row is contiguous
    m = me.m
    S = me.point.S
    iu, ju = me.packed
    zt = z.T.copy()
    w, s = delta * zt, delta * t
    s2 = s * s
    v2 = w[iu] * w[ju]
    features = [w, v2, s2[None]]
    if through_degree == 4:
        pair, last = me.cubic_packed
        s3 = s2 * s
        q = me.Q_packed @ v2
        nc = np.einsum("qb,qb->b", me.N_packed @ v2, v2)
        features += [v2[pair] * w[last], w * s2, s3[None],
                     q * w,
                     nc[None], q * q, v2 * s2, w * s3, (s2 * s2)[None]]
    ops = me.inv_ops[through_degree]
    F = np.empty((ops.shape[1], t.size))
    rows = sum(len(f) for f in features)
    np.concatenate(features, out=F[:rows])
    F[rows:] = 0.0
    gd = ops @ F
    g, div = gd[:iu.size], gd[iu.size:]
    Szt = S.T @ zt
    out = np.empty((6, t.size))
    out[:2] = np.stack([iu == ju, S[iu, ju]]) @ g
    out[2] = np.einsum("qb,qb->b", g, zt[iu] * zt[ju])
    out[3] = np.einsum("qb,qb->b", g, zt[iu] * Szt[ju] + Szt[iu] * zt[ju])
    out[4] = np.einsum("jb,jb->b", div, zt)
    out[5] = np.einsum("jb,jb->b", div, Szt)
    if through_degree == 4:
        # P P^T / 15 with P_ic = Rbar[i,k,c,l] w_k w_l: its trace, its
        # contraction with S and its quadratic forms, through P^T z, P^T Sz
        P = (me.P_op @ v2).reshape(m, m, -1)          # [c, i] = P_ic
        SP = np.matmul(S.T, P)                         # [c, j] = (S^T P)_jc
        u = np.einsum("cib,ib->cb", P, zt)
        out[0] += np.einsum("cib,cib->b", P, P) / 15.0
        out[1] += np.einsum("cib,cib->b", SP, P) / 15.0
        out[2] += np.einsum("cb,cb->b", u, u) / 15.0
        out[3] += 2.0 * np.einsum("cb,cb->b", u, np.einsum("cib,ib->cb", P, Szt)) / 15.0
    return out
