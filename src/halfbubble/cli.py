"""Deterministic batch pipeline over the library modules.

Subcommands: verify, moments, solve-vq, phi, reduce, family,
residual-slope, pipeline.  Each one that reads points runs a prefix of one
stage chain: points (curvature file or generated battery) -> curvature
validation -> solve and coefficients -> reduction -> artifact writers.  So
every subcommand quarantines a point that fails validation with the reason
`pipeline` gives, and `verify` checks the configured points on the
configured grid, with the convergence order of that grid's own solves.
Flags mirror RunConfig fields; a JSON config file supplies defaults that
flags override.  Exit codes: 0 success, 2
input/domain/validation problem, 3 numeric budget exhausted, 4 filesystem
error.  Every artifact is written by _write_csv or _write_json here: no
timestamps, and every float as its shortest round-trip repr, so identical
config and inputs produce byte-identical files.  Everything runs in the
calling thread, points one after another, and no environment variable is
read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bubble import check_bubble_residual
from .config import RunConfig
from .corrector import solve_vq, verify_corrector, check_solvability
from .energy import (
    IDENTITY_DELTAS,
    RESIDUAL_DELTAS,
    WEYL_DENOMINATORS,
    check_ladder_domain,
    compute_B,
    compute_phi,
    residual_slope,
    verify_A4_L2_L3_identity,
)
from .errors import (
    BudgetError,
    ConstructionImpossibleError,
    DomainError,
    HalfBubbleError,
    InputFormatError,
    PoisonedEstimateError,
    SolverError,
    ValidationFailure,
)
from .geometry import (
    load_curvature_file,
    make_battery,
    validate_curvature,
)
from .quadrature import MomentTable, angular_moment, sphere_area
from .reduction import (
    BlowUpFamily,
    ReducedFunctional,
    eval_G,
    family_table,
    find_blowup_point,
    hessian_check,
    neighborhood_coords,
)


COEFFICIENTS_HEADER = ("label,n,A,B,I2,I4,pairing,G2,G3,phi,"
                       "slope_residual,slope_identity")
FAMILY_COLUMNS = ("eps", "delta", "peak", "phi_bound")


def _f(x) -> str:
    return repr(float(x))


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not valid UTF-8: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    # numpy floats are floats; arrays and other numpy scalars go via tolist()
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 default=lambda obj: obj.tolist()) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """header, then one line per row: str fields as they are, None blank,
    any other field as its shortest round-trip float repr."""
    lines = [header] + [
        ",".join(x if isinstance(x, str) else "" if x is None else _f(x)
                 for x in row)
        for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# stages: points -> validation -> solve + coefficients -> reduction


def _valid_points(cfg: RunConfig):
    """The configured points (curvature file, or a generated battery), the
    ones that pass curvature validation, and the quarantine reason of each
    other one by label."""
    if cfg.curvature_file:
        file_n, points = load_curvature_file(cfg.curvature_file)
        if file_n != cfg.n:
            raise InputFormatError(
                f"curvature file has n={file_n}, config has n={cfg.n}")
    else:
        points = make_battery(cfg.n, 5, cfg.seed)
    valid, quarantined = [], {}
    for point in points:
        report = validate_curvature(point, tol=cfg.tol_sym)
        if report.passed:
            valid.append(point)
        else:
            quarantined[point.label] = "curvature validation: " + "; ".join(
                f.name for f in report.failures())
    return points, valid, quarantined


def _map_points(points, worker, quarantined: dict) -> dict:
    """worker(point) for each point in turn, by label in label order.

    Failures do not abort the batch: the label goes into quarantined with
    the error text.
    """
    results = {}
    for point in points:
        try:
            results[point.label] = worker(point)
        except HalfBubbleError as exc:
            quarantined[point.label] = f"{type(exc).__name__}: {exc}"
    return dict(sorted(results.items()))


def _solve_point(cfg: RunConfig, point):
    """solve_vq on the configured grid, which defaults to solve_vq's."""
    return solve_vq(point, grid=cfg.grid(), tol_solver=cfg.tol_solver)


def _coefficients(cfg: RunConfig, points, quarantined: dict) -> dict:
    """(solution, coefficients) by label; failed points join quarantined."""
    def worker(point):
        sol = _solve_point(cfg, point)
        return sol, compute_phi(point, sol,
                                weyl_denominator=cfg.weyl_denominator)
    return _map_points(points, worker, quarantined)


def _write_coefficients(path: Path, results: dict, slopes=None) -> None:
    """coefficients.csv; slopes maps a label to (residual, identity)."""
    _write_csv(path, COEFFICIENTS_HEADER, (
        (c.label, str(c.n), c.A, c.B, c.I2, c.I4, c.pairing, c.G2, c.G3,
         c.phi, *(slopes or {}).get(label, (None, None)))
        for label, (_, c) in results.items()))


def _build_reduced_functional(cfg: RunConfig, points, phis: dict,
                              quarantined: dict):
    """Merge geometry gamma with per-point phi by label.

    Points already quarantined are skipped.  Points without a phi, or with
    phi > 0, join quarantined rather than aborting the batch.
    """
    labels, gammas, phi_values = [], [], []
    for point in sorted(points, key=lambda p: p.label):
        label = point.label
        if label in quarantined:
            continue
        phi = phis.get(label)
        if phi is None:
            quarantined[label] = "no coefficient row"
            continue
        if phi > 0.0:
            quarantined[label] = f"phi positive ({phi!r})"
            continue
        labels.append(label)
        gammas.append(point.gamma)
        phi_values.append(phi)
    if not labels:
        raise ConstructionImpossibleError(
            "no admissible point: every table row was quarantined")
    return ReducedFunctional(n=cfg.n, B=compute_B(cfg.n), labels=tuple(labels),
                             gamma=np.asarray(gammas),
                             phi=np.asarray(phi_values))


def _reduction(cfg: RunConfig, points, phis: dict, quarantined: dict,
               neighborhood=None, coords=None) -> tuple:
    """The reduced functional and the reduction.json payload."""
    rf = _build_reduced_functional(cfg, points, phis, quarantined)
    fam = find_blowup_point(rf, cfg.eps_ladder)
    hessian = (dataclasses.asdict(hessian_check(
        rf, fam.lambda0, fam.q0, neighborhood, coords=coords))
        if neighborhood else
        {"status": "not-run", "classification": fam.stability})
    payload = {**dataclasses.asdict(fam), "B": rf.B,
               "family": _family_rows(cfg, fam), "hessian": hessian,
               "quarantined": quarantined}
    inadmissible = rf.inadmissible()
    if inadmissible:
        payload["inadmissible"] = inadmissible
    return rf, payload


def _family_rows(cfg: RunConfig, fam) -> list:
    return [{key: getattr(r, key) for key in FAMILY_COLUMNS}
            for r in family_table(fam, cfg.eps_ladder,
                                  phi_bound_coeff=cfg.phi_bound_coeff)]


def _write_family(out: Path, payload: dict) -> None:
    _write_csv(out / "family.csv", ",".join(FAMILY_COLUMNS),
               ([row[key] for key in FAMILY_COLUMNS]
                for row in payload["family"]))


def _write_reduction(out: Path, payload: dict) -> None:
    _write_json(out / "reduction.json", payload)
    _write_family(out, payload)


def _write_residual_ladder(cfg: RunConfig, label: str, exp, eps: float = 0.0,
                           tie_eps: bool = False) -> None:
    """Each rung's norm and standard error, with the bound column
    eps*delta + delta^3 (eps = delta^3 per rung with tie_eps); a degenerate
    experiment has no fit, so those three cells stay blank."""
    deltas = exp.deltas
    if exp.status == "degenerate":
        columns = [[None] * len(deltas)] * 3
    else:
        eps_column = deltas ** 3 if tie_eps else np.full_like(deltas, eps)
        columns = [exp.extras["std_errors"], eps_column,
                   eps_column * deltas + deltas ** 3]
    _write_csv(Path(cfg.out_dir) / "plots" / f"residual_ladder_{label}.csv",
               "delta,norm,std_error,eps,bound",
               ([d, exp.values[k]] + [col[k] for col in columns]
                for k, d in enumerate(deltas)))


def _slope_ladders(cfg: RunConfig, point, sol,
                   with_identity: bool = True) -> tuple:
    """(identity, residual) experiments of one point on the configured
    ladders; identity is None without with_identity.  The residual ladder
    runs on the bubble alone when sol is None.

    The identity ladder runs first, so its error is raised before the
    residual ladder starts, and nothing is written before both return.
    """
    identity = verify_A4_L2_L3_identity(point, sol) if with_identity else None
    residual = residual_slope(
        point, sol, deltas=cfg.delta_ladder or None,
        mc_samples=cfg.mc_samples, seed=cfg.seed,
        metric_seed=cfg.metric_seed, deg3_scale=cfg.deg3_scale)
    return identity, residual


def _slope_summary(exp) -> dict:
    summary = {"status": exp.status, "slope": exp.slope,
               "intercept": exp.intercept, "band": exp.band}
    for key in ("cancel_slope_sum", "cancel_slope_v", "cancel_slope_metric"):
        if key in exp.extras:
            summary[key] = exp.extras[key]
    return summary


# ---------------------------------------------------------------------------
# verify / moments


def _moment_identity_suite(table: MomentTable) -> dict:
    n, tol = table.n, 1e-6
    I1, I2, I3 = table.named("I1"), table.named("I2"), table.named("I3")
    checks = {
        "I1_over_I2": {
            "value": I1 / I2, "target": 4.0 * (n - 2) / (n + 1)},
        "I3_over_I2": {
            "value": I3 / I2, "target": 12.0 / ((n - 2) * (n + 1))},
        "quartic_angular_factor": {
            "value": angular_moment(n, (4,)) / angular_moment(n, (2, 2)),
            "target": 3.0},
        "t2_zi4": {
            "value": angular_moment(n, (4,)) / sphere_area(n - 2) * I2,
            "target": 3.0 / (n * n - 1.0) * I2},
        "t2_zi2_zj2": {
            "value": angular_moment(n, (2, 2)) / sphere_area(n - 2) * I2,
            "target": 1.0 / (n * n - 1.0) * I2},
    }
    passed = True
    for item in checks.values():
        scale = max(abs(item["target"]), 1e-300)
        item["rel_error"] = abs(item["value"] - item["target"]) / scale
        item["passed"] = item["rel_error"] <= tol
        passed = passed and item["passed"]
    return {"passed": passed, "tol": tol, "checks": checks}


def cmd_verify(cfg: RunConfig, args) -> int:
    cfg.grid().halved()  # verify's convergence check needs it: fail early
    suites = {}

    bubble = check_bubble_residual(cfg.n, n_points=10000, seed=cfg.seed)
    suites["bubble"] = {
        "passed": bubble.passed(1e-12),
        "tol": 1e-12,
        "interior_max": bubble.interior_max,
        "boundary_max": bubble.boundary_max,
        "kernel_interior_max": bubble.kernel_interior_max,
        "kernel_boundary_max": bubble.kernel_boundary_max,
    }

    suites["moments"] = _moment_identity_suite(MomentTable(n=cfg.n))

    points, _, quarantined = _valid_points(cfg)
    suites["geometry"] = {"passed": not quarantined, "points": len(points),
                          "quarantined": quarantined}

    overlap_max = max(
        float(np.max(np.abs(check_solvability(p))))
        for p in points)
    suites["solvability"] = {"passed": overlap_max <= 1e-8,
                             "overlap_max": overlap_max, "tol": 1e-8}

    report = verify_corrector(_solve_point(cfg, points[0]), seed=cfg.seed,
                              tol_solver=cfg.tol_solver)
    suites["corrector"] = {
        "passed": report.passed(tol_sym=cfg.tol_sym),
        "pde_residual": report.pde_residual,
        "boundary_residual": report.boundary_residual,
        "decay_exponent": report.decay_exponent,
        "decay_target": report.decay_target,
        "self_convergence_order": report.self_convergence_order,
        "self_convergence_coarse_error": report.self_convergence_coarse_error,
        "self_convergence_fine_error": report.self_convergence_fine_error,
        "far_field_shift": report.far_field_shift,
        "pairing": report.pairing,
        "kernel_overlap_max": float(np.max(np.abs(report.kernel_overlaps))),
    }

    passed = all(s["passed"] for s in suites.values())
    _write_json(Path(cfg.out_dir) / "verify_report.json",
                {"n": cfg.n, "seed": cfg.seed, "passed": passed,
                 "suites": suites})
    return 0 if passed else 2


def cmd_moments(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    table = MomentTable(n=cfg.n)
    _write_csv(out / "moments.csv", "n,p,a,b,value",
               ((str(cfg.n), p, str(a), str(b), v)
                for p, a, b, v in table.rows()))
    _write_json(out / "moment_identities.json", _moment_identity_suite(table))
    return 0


# ---------------------------------------------------------------------------
# solve-vq / phi


def cmd_solve_vq(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir) / "profiles"
    _, valid, quarantined = _valid_points(cfg)
    solutions = _map_points(valid, lambda p: _solve_point(cfg, p), quarantined)
    for label, sol in solutions.items():
        grid = sol.profile.grid
        _write_json(out / f"{label}.json", {
            "label": label,
            "n": sol.point.n,
            "residual": sol.diagnostics.discrete_residual,
            "decay_exponent": sol.diagnostics.far_field_exponent,
            "pairing": sol.pairing(),
            "grid": {"n_t": grid.n_t, "n_r": grid.n_r,
                     "t_max": grid.t_max, "r_max": grid.r_max},
        })
    if solutions:
        # one profile per dimension: every point's corrector shares it
        profile = next(iter(solutions.values())).profile
        t, r = np.meshgrid(profile.t_nodes, profile.r_nodes, indexing="ij")
        _write_csv(out / f"profile_n{cfg.n}.csv", "t,r,psi",
                   zip(t.ravel(), r.ravel(), profile.psi.ravel()))
    _write_json(Path(cfg.out_dir) / "solve_report.json",
                {"solved": sorted(solutions), "quarantined": quarantined})
    return 0


def cmd_phi(cfg: RunConfig, args) -> int:
    _, valid, quarantined = _valid_points(cfg)
    results = _coefficients(cfg, valid, quarantined)
    _write_coefficients(Path(cfg.out_dir) / "coefficients.csv", results)
    _write_json(Path(cfg.out_dir) / "phi_report.json",
                {"computed": sorted(results), "quarantined": quarantined})
    return 0


# ---------------------------------------------------------------------------
# reduce / family


def _read_coefficients_csv(path: Path, n: int) -> dict:
    """phi by label from a coefficients CSV of dimension n."""
    lines = [line.strip() for line in _read_text(path).split("\n")
             if line.strip()]
    if not lines or lines[0] != COEFFICIENTS_HEADER:
        raise InputFormatError(
            f"{path}: expected header {COEFFICIENTS_HEADER!r}")
    names = lines[0].split(",")
    phis = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise InputFormatError(f"{path}: malformed row {line!r}")
        rec = dict(zip(names, parts))
        if rec["n"] != str(n):
            raise InputFormatError(
                f"{path}: row {rec['label']!r} has n={rec['n']}, config n={n}")
        try:
            phi = float(rec["phi"])
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise InputFormatError(
                f"{path}: phi {rec['phi']!r} is not a finite number")
        if rec["label"] in phis:
            raise InputFormatError(f"{path}: repeated label {rec['label']!r}")
        phis[rec["label"]] = phi
    return phis


def _neighborhood(points, neighborhood: str, coords: str) -> tuple:
    """--neighborhood labels and --coords, checked before any solve."""
    if not neighborhood:
        return None, None
    labels = neighborhood.split(",")
    unknown = sorted(set(labels) - {p.label for p in points})
    if unknown:
        raise DomainError(f"neighborhood labels {unknown} are not points")
    try:
        values = [float(x) for x in coords.split(",")] if coords else None
    except ValueError:
        raise InputFormatError(f"coords {coords!r} are not numbers") from None
    return labels, neighborhood_coords(labels, values)


def _reduce_from_cfg(cfg: RunConfig, coefficients: str = "",
                     neighborhood: str = "", coords: str = "") -> dict:
    """reduction.json payload from the coefficients CSV, computed if absent."""
    points, valid, quarantined = _valid_points(cfg)
    labels, values = _neighborhood(points, neighborhood, coords)
    coeff_path = Path(coefficients or Path(cfg.out_dir) / "coefficients.csv")
    # a named file is read as given, so a missing one fails (exit 4)
    if coefficients or coeff_path.exists():
        phis = _read_coefficients_csv(coeff_path, cfg.n)
    else:
        results = _coefficients(cfg, valid, quarantined)
        _write_coefficients(coeff_path, results)
        phis = {label: float(c.phi) for label, (_, c) in results.items()}
    return _reduction(cfg, valid, phis, quarantined,
                      neighborhood=labels, coords=values)[1]


def cmd_reduce(cfg: RunConfig, args) -> int:
    _write_reduction(Path(cfg.out_dir), _reduce_from_cfg(
        cfg, args.coefficients, args.neighborhood, args.coords))
    return 0


def cmd_family(cfg: RunConfig, args) -> int:
    """Rows for the configured eps ladder at the lambda0 of reduction.json
    (header only if it carries an error), else of a fresh reduction."""
    report = Path(cfg.out_dir) / "reduction.json"
    if report.exists():
        try:
            payload = json.loads(_read_text(report))
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{report}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputFormatError(f"{report}: top level must be an object")
        if payload.get("n") != cfg.n:
            raise InputFormatError(
                f"{report}: report has n={payload.get('n')}, config n={cfg.n}")
        if not payload.get("error"):
            try:
                fam = BlowUpFamily(**{f.name: payload[f.name] for f in
                                      dataclasses.fields(BlowUpFamily)})
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"{report}: malformed report ({exc!r})") from exc
            payload["family"] = _family_rows(cfg, fam)
    else:
        payload = _reduce_from_cfg(cfg)
    _write_family(Path(cfg.out_dir), payload)
    return 0


# ---------------------------------------------------------------------------
# residual-slope


def cmd_residual_slope(cfg: RunConfig, args) -> int:
    if not args.omit_corrector:
        # the ladder reads the corrector: its reach is checked before a solve
        check_ladder_domain(cfg.delta_ladder or RESIDUAL_DELTAS, cfg.grid())
    points, _, quarantined = _valid_points(cfg)
    label = args.label or points[0].label
    if label in quarantined:
        raise ValidationFailure(f"point {label!r}: {quarantined[label]}")
    point = next((p for p in points if p.label == label), None)
    if point is None:
        raise DomainError(f"unknown point label {label!r}")
    # the bubble-alone ladder never reads a corrector, so none is solved
    sol = None if args.omit_corrector else _solve_point(cfg, point)
    _, exp = _slope_ladders(cfg, point, sol, with_identity=False)
    _write_residual_ladder(cfg, label, exp, args.eps, args.tie_eps)
    _write_json(Path(cfg.out_dir) / f"residual_slope_{label}.json",
                _slope_summary(exp))
    return 0


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(cfg: RunConfig, args) -> int:
    if not args.skip_slopes:
        # both ladders read the corrector: their reach is checked before a solve
        check_ladder_domain(IDENTITY_DELTAS, cfg.grid())
        check_ladder_domain(cfg.delta_ladder or RESIDUAL_DELTAS, cfg.grid())
    out = Path(cfg.out_dir)
    points, valid, quarantined = _valid_points(cfg)
    results = _coefficients(cfg, valid, quarantined)
    phis = {label: float(c.phi) for label, (_, c) in results.items()}
    slopes, slopes_summary, selected, error = {}, {}, None, ""
    outputs = ["coefficients.csv", "family.csv", "pipeline_report.json",
               "reduction.json"]
    try:
        rf, payload = _reduction(cfg, valid, phis, quarantined)
    except ConstructionImpossibleError as exc:
        error = str(exc)
        payload = {"n": cfg.n, "family": [], "quarantined": quarantined,
                   "error": error}
    else:
        selected = payload["q0"]
        if not args.skip_slopes:
            point = next(p for p in valid if p.label == selected)
            sol = results[selected][0]
            identity, residual = _slope_ladders(cfg, point, sol)
            _write_residual_ladder(cfg, selected, residual)
            slopes[selected] = (residual.slope, identity.slope)
            slopes_summary = {"identity": _slope_summary(identity),
                              "residual": _slope_summary(residual)}
            _write_csv(out / "plots" / f"identity_ladder_{selected}.csv",
                       "delta,value", zip(identity.deltas, identity.values))
            outputs += [f"plots/residual_ladder_{selected}.csv",
                        f"plots/identity_ladder_{selected}.csv"]
        lo, hi = payload["bracket"]
        _write_csv(out / "plots" / "G_curves.csv", "label,lambda,G", (
            (label, lam, eval_G(rf, float(lam), label))
            for label, ok in zip(rf.labels, rf.admissible_mask()) if ok
            for lam in np.linspace(lo, hi, 65)))
        outputs.append("plots/G_curves.csv")

    _write_reduction(out, payload)
    _write_coefficients(out / "coefficients.csv", results, slopes)
    _write_json(out / "pipeline_report.json", {
        "n": cfg.n,
        "points": sorted(p.label for p in points),
        "quarantined": quarantined,
        "q0": selected,
        "slopes": slopes_summary,
        "outputs": sorted(outputs),
        "error": error,
    })
    if error:
        print(error, file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    def ladder(text):
        return [float(x) for x in text.split(",")] if text else []

    def nonnegative(text):
        value = float(text)
        if not (math.isfinite(value) and value >= 0.0):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite number >= 0")
        return value

    parser = argparse.ArgumentParser(
        prog="halfbubble",
        description="Verification pipeline for the half-space bubble "
                    "blow-up construction.",
        epilog="Exit codes: 0 success, 2 input/validation, "
               "3 numeric budget, 4 filesystem.")
    parser.add_argument("--config", default="", help="JSON config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol-sym", type=float, dest="tol_sym")
    parser.add_argument("--tol-solver", type=float, dest="tol_solver")
    parser.add_argument("--t-max", type=float, dest="t_max")
    parser.add_argument("--r-max", type=float, dest="r_max")
    parser.add_argument("--h", type=float)
    parser.add_argument("--delta-ladder", type=ladder, dest="delta_ladder",
                        help="comma-separated, strictly increasing, in (0,1)")
    parser.add_argument("--eps-ladder", type=ladder, dest="eps_ladder",
                        help="comma-separated, strictly increasing, in (0,1)")
    parser.add_argument("--weyl-denominator", dest="weyl_denominator",
                        choices=list(WEYL_DENOMINATORS))
    parser.add_argument("--mc-samples", type=int, dest="mc_samples")
    parser.add_argument("--metric-seed", type=int, dest="metric_seed")
    parser.add_argument("--deg3-scale", type=float, dest="deg3_scale")
    parser.add_argument("--phi-bound-coeff", type=float,
                        dest="phi_bound_coeff")
    parser.add_argument("--curvature", dest="curvature_file",
                        help="curvature sample JSON; omitted: generated "
                             "5-point battery")
    parser.add_argument("--out-dir", dest="out_dir")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="invariant battery on the configured "
                                  "points and grid; exit 0 iff green")
    sub.add_parser("moments", help="moment table and identity report")
    sub.add_parser("solve-vq", help="corrector profiles per point")
    sub.add_parser("phi", help="reduced-energy coefficients per point")
    p_reduce = sub.add_parser("reduce", help="blow-up point selection")
    p_reduce.add_argument("--coefficients", default="",
                          help="coefficients CSV, which must exist (default "
                               "<out-dir>/coefficients.csv, computed if absent)")
    p_reduce.add_argument("--neighborhood", default="",
                          help="comma-separated ordered labels around q0")
    p_reduce.add_argument("--coords", default="",
                          help="comma-separated coordinates for the neighborhood")
    sub.add_parser("family", help="concentration ladder CSV")
    p_slope = sub.add_parser("residual-slope", help="residual norm ladder")
    p_slope.add_argument("--label", default="",
                         help="point to run (default the first point)")
    eps = p_slope.add_mutually_exclusive_group()
    eps.add_argument("--eps", type=nonnegative, default=0.0,
                     help="eps of the bound column eps*delta + delta^3")
    eps.add_argument("--tie-eps", action="store_true", dest="tie_eps",
                     help="eps = delta^3 per rung")
    p_slope.add_argument("--omit-corrector", action="store_true",
                         dest="omit_corrector",
                         help="residual of the bubble alone, on its own "
                              "lower default ladder; no corrector is solved")
    p_pipe = sub.add_parser("pipeline", help="end-to-end batch run")
    p_pipe.add_argument("--skip-slopes", action="store_true",
                        dest="skip_slopes",
                        help="skip the slope experiments on the selected point")
    return parser


def config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        text = _read_text(args.config)
        try:
            base = RunConfig.from_json(text).to_dict()
        except (InputFormatError, DomainError, ValidationFailure) as exc:
            raise type(exc)(f"{args.config}: {exc}") from exc
    for name in (f.name for f in dataclasses.fields(RunConfig)):
        if getattr(args, name, None) is not None:
            base[name] = getattr(args, name)
    return RunConfig.from_dict(base)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](cfg, args)
    except (BudgetError, PoisonedEstimateError, SolverError) as exc:
        print(f"numeric budget failure: {exc}", file=sys.stderr)
        return 3
    except (InputFormatError, DomainError, ValidationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
