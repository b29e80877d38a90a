"""Correctness checks on the artifacts of one `halfbubble pipeline` run.

Every expected value is computed here, apart from the program: moments and
the constants A and B from their Beta-function closed forms, G2, G3 and
phi from the curvature input and the row's pairing by the formula of
`compute_phi`, the blow-up point and critical scale from the reduced
energy G(lambda) = B gamma lambda + phi lambda^4, and the family rows from
delta = lambda0 eps^(1/3).  Slopes are checked against the decay orders
the method must show.  Nothing is compared with stored output.

`check_run` returns a list of failure strings; empty means the run passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# relative tolerances: quadrature is asked for 1e-9 (moments) and 1e-10
# (A, B), so 1e-8 leaves room for the error estimate without hiding a
# wrong formula
TOL_QUAD = 1e-8
TOL_FORMULA = 1e-8
TOL_EXACT = 1e-12
DEFAULT_EPS = [10.0 ** (-4.0 + 0.5 * k) for k in range(7)]

COEFF_HEADER = ("label,n,A,B,I2,I4,pairing,G2,G3,phi,"
                "slope_residual,slope_identity")


def beta(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def sphere_area(k: int) -> float:
    """Area of the unit sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def moment_oracle(n: int, p: float, a: int, b: int) -> float:
    """Half-space integral of t^a |z|^b ((1+t)^2 + |z|^2)^(-p).

    With m = b + n - 2, substituting r = (1+t) u and s = 1/(1+t) splits the
    quarter-plane integral into two Beta integrals.
    """
    m = b + n - 2
    quarter = 0.5 * beta(0.5 * (m + 1), p - 0.5 * (m + 1)) \
        * beta(a + 1.0, 2.0 * p - m - a - 2.0)
    return sphere_area(n - 2) * quarter


def constants(n: int) -> dict:
    """Closed forms of A, B, I2 and I4 at dimension n."""
    area = sphere_area(n - 2)
    return {
        "A": (n - 2.0) / (2.0 * (n - 1.0)) * area
        * 0.5 * beta((n - 1) / 2.0, (n - 1) / 2.0),
        "B": 0.25 * area * beta((n - 1) / 2.0, (n - 3) / 2.0),
        "I2": moment_oracle(n, float(n), 2, 4),
        "I4": moment_oracle(n, float(n - 2), 0, 2),
    }


def _close(value: float, target: float, rel: float, scale: float = 0.0) -> bool:
    return abs(value - target) <= rel * max(abs(target), scale)


def read_coefficients(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != COEFF_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    names = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        rec = dict(zip(names, line.split(",")))
        rows[rec["label"]] = rec
    return rows


def _check_coefficients(n: int, points: dict, rows: dict) -> list:
    failures = []
    if sorted(rows) != sorted(points):
        return [f"coefficients.csv labels {sorted(rows)} != inputs {sorted(points)}"]
    c = constants(n)
    pairings = []
    for label in sorted(rows):
        row, pt = rows[label], points[label]
        got = {k: float(row[k]) for k in
               ("A", "B", "I2", "I4", "pairing", "G2", "G3", "phi")}
        if int(row["n"]) != n:
            failures.append(f"{label}: n = {row['n']}, expected {n}")
        for key in ("A", "B", "I2", "I4"):
            if not _close(got[key], c[key], TOL_QUAD):
                failures.append(f"{label}: {key} = {got[key]!r}, closed form "
                                f"{c[key]!r}")
        s_norm_sq = sum(x * x for row_s in pt["S"] for x in row_s)
        g2_per_d2 = (n - 2.0) ** 2 / (n * n - 1.0) * c["I2"]
        G2 = g2_per_d2 * pt["D2"]
        G3 = 6.0 * (n - 2.0) / (n * n - 1.0) * c["I2"] * s_norm_sq
        terms = (0.5 * got["pairing"],
                 (n - 2.0) * (n - 8.0) / (4.0 * (n * n - 1.0))
                 * pt["Rnnnn"] * c["I2"],
                 -(n - 2.0) / (96.0 * (n - 1.0) ** 2) * pt["Wbar2"] * c["I4"])
        phi = sum(terms)
        # D2 may be near zero, so G2 is compared on the scale of |D2| = 1
        if not _close(got["G2"], G2, TOL_FORMULA, g2_per_d2):
            failures.append(f"{label}: G2 = {got['G2']!r}, expected {G2!r}")
        if not _close(got["G3"], G3, TOL_FORMULA):
            failures.append(f"{label}: G3 = {got['G3']!r}, expected {G3!r}")
        if not _close(got["phi"], phi, TOL_FORMULA, sum(abs(t) for t in terms)):
            failures.append(f"{label}: phi = {got['phi']!r}, expected {phi!r}")
        if not got["pairing"] < 0.0:
            failures.append(f"{label}: pairing {got['pairing']!r} not negative")
        if not got["phi"] < 0.0:
            failures.append(f"{label}: phi {got['phi']!r} not negative")
        pairings.append(got["pairing"])
    # unit-norm traceless S gives the same <Y^2>, hence the same pairing
    if any(not _close(p, pairings[0], TOL_EXACT) for p in pairings):
        failures.append(f"pairing differs across unit-norm points: {pairings}")
    return failures


def _check_reduction(n: int, points: dict, rows: dict, reduction: dict,
                     family_csv: str) -> list:
    failures = []
    B = constants(n)["B"]
    best = None
    for label in sorted(rows):
        gamma, phi = points[label]["gamma"], float(rows[label]["phi"])
        lam = (-B * gamma / (4.0 * phi)) ** (1.0 / 3.0)
        value = 0.75 * B * gamma * lam
        if best is None or value > best[0] * (1.0 + 1e-14):
            best = (value, label, lam)
    _, q0, lambda0 = best
    if reduction.get("q0") != q0:
        failures.append(f"q0 = {reduction.get('q0')!r}, expected {q0!r}")
        return failures
    if not _close(reduction["lambda0"], lambda0, TOL_EXACT):
        failures.append(f"lambda0 = {reduction['lambda0']!r}, expected "
                        f"(-B gamma / 4 phi)^(1/3) = {lambda0!r}")
    family = reduction.get("family", [])
    if len(family) != len(DEFAULT_EPS):
        return failures + [f"family has {len(family)} rows, expected 7"]
    csv_rows = family_csv.splitlines()[1:]
    for k, (row, eps) in enumerate(zip(family, DEFAULT_EPS)):
        if not _close(row["eps"], eps, TOL_EXACT):
            failures.append(f"family row {k}: eps {row['eps']!r} != {eps!r}")
        delta = reduction["lambda0"] * row["eps"] ** (1.0 / 3.0)
        if not _close(row["delta"], delta, TOL_EXACT):
            failures.append(f"family row {k}: delta {row['delta']!r} != "
                            f"lambda0 eps^(1/3) = {delta!r}")
        unit = row["peak"] * row["delta"] ** ((n - 2.0) / 2.0)
        if abs(unit - 1.0) > TOL_EXACT:
            failures.append(f"family row {k}: peak delta^((n-2)/2) = {unit!r}")
        csv = [float(x) for x in csv_rows[k].split(",")] \
            if k < len(csv_rows) else []
        if csv != [row["eps"], row["delta"], row["peak"], row["phi_bound"]]:
            failures.append(f"family.csv row {k} differs from reduction.json")
    return failures


def _check_slopes(report: dict, rows: dict) -> list:
    failures = []
    slopes = report.get("slopes", {})
    residual = slopes.get("residual", {})
    identity = slopes.get("identity", {})
    res = residual.get("slope", float("nan"))
    ident = identity.get("slope", float("nan"))
    if not 2.7 <= res <= 3.3:
        failures.append(f"residual slope {res!r} not in [2.7, 3.3]")
    if not ident >= 4.5:
        failures.append(f"identity slope {ident!r} below 4.5")
    total = residual.get("cancel_slope_sum", float("nan"))
    singles = (residual.get("cancel_slope_v", float("nan")),
               residual.get("cancel_slope_metric", float("nan")))
    if not all(total > s for s in singles):
        failures.append(f"cancellation slope {total!r} not above the single "
                        f"terms {singles}")
    row = rows.get(report.get("q0"), {})
    if row.get("slope_residual") != repr(res) or \
            row.get("slope_identity") != repr(ident):
        failures.append("coefficients.csv slopes differ from the report")
    return failures


def check_run(out_dir, curvature_file, n: int, with_slopes: bool) -> list:
    """Failures of one pipeline run's artifacts against the checks above."""
    out_dir = Path(out_dir)
    data = json.loads(Path(curvature_file).read_text(encoding="utf-8"))
    points = {p["label"]: p for p in data["points"]}
    try:
        rows = read_coefficients(out_dir / "coefficients.csv")
        reduction = json.loads((out_dir / "reduction.json").read_text())
        report = json.loads((out_dir / "pipeline_report.json").read_text())
        family_csv = (out_dir / "family.csv").read_text()
    except (OSError, ValueError, KeyError) as exc:
        return [f"artifacts unreadable: {exc}"]
    failures = _check_coefficients(n, points, rows)
    if report.get("error") or report.get("quarantined"):
        failures.append(f"pipeline report: error {report.get('error')!r}, "
                        f"quarantined {report.get('quarantined')!r}")
    if report.get("q0") != reduction.get("q0"):
        failures.append("pipeline report and reduction disagree on q0")
    if not failures:
        failures += _check_reduction(n, points, rows, reduction, family_csv)
    if with_slopes:
        failures += _check_slopes(report, rows)
    return [f"n={n}: {f}" for f in failures]


def tree_bytes(root) -> dict:
    """Relative path -> bytes of every file under root."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare_trees(a, b) -> list:
    """Failures where two artifact trees are not byte-identical."""
    ta, tb = tree_bytes(a), tree_bytes(b)
    if sorted(ta) != sorted(tb):
        return [f"file sets differ: {sorted(set(ta) ^ set(tb))}"]
    return [f"{name} differs" for name in ta if ta[name] != tb[name]]
