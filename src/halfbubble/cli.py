"""Deterministic batch pipeline over the library modules.

Subcommands: verify, moments, solve-vq, phi, reduce, family,
residual-slope, pipeline.  Flags mirror RunConfig fields; a JSON config
file supplies defaults that flags override.  Exit codes: 0 success,
2 input/domain/validation problem, 3 numeric budget exhausted,
4 filesystem error.  Outputs carry no timestamps and all floats are
written with their shortest round-trip repr, so identical config and
inputs produce byte-identical files.  Points are processed one after
another and no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bubble import check_bubble_residual
from .config import RunConfig
from .corrector import solve_vq, verify_corrector, check_solvability
from .energy import (
    WEYL_DENOMINATORS,
    compute_B,
    compute_phi,
    energy_csv_header,
    energy_csv_row,
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
    ReducedFunctional,
    eval_G,
    family_table,
    find_blowup_point,
    hessian_check,
)


def _f(x) -> str:
    return repr(float(x))


def _py(obj):
    """Recursively convert numpy scalars and arrays for json.dumps."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        # bool subclasses int, so this branch must come first
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_py(payload), indent=2, sort_keys=True) + "\n")


def _load_points(cfg: RunConfig):
    """Points from the configured curvature file, or a generated battery."""
    if cfg.curvature_file:
        file_n, points = load_curvature_file(cfg.curvature_file)
        if file_n != cfg.n:
            raise InputFormatError(
                f"curvature file has n={file_n}, config has n={cfg.n}")
        return points
    return make_battery(cfg.n, 5, cfg.seed)


def _map_points(points, worker):
    """Apply worker(point) to each point in turn; results ordered by label.

    Failures do not abort the batch: the quarantine dict maps the label to
    the error text.
    """
    results, quarantined = {}, {}
    for point in points:
        try:
            results[point.label] = worker(point)
        except HalfBubbleError as exc:
            quarantined[point.label] = f"{type(exc).__name__}: {exc}"
    return dict(sorted(results.items())), dict(sorted(quarantined.items()))


# ---------------------------------------------------------------------------
# verify


def _moment_identity_suite(cfg: RunConfig, tol: float = 1e-6) -> dict:
    n = cfg.n
    table = MomentTable(n=n, tol=cfg.tol_quad)
    table.load_standard()
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


def cmd_verify(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
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

    suites["moments"] = _moment_identity_suite(cfg)

    battery = make_battery(cfg.n, 20, cfg.seed)
    geometry_ok = True
    for point in battery:
        report = validate_curvature(point, tol=cfg.tol_sym)
        geometry_ok = geometry_ok and report.passed
    suites["geometry"] = {"passed": geometry_ok, "points": len(battery)}

    overlap_max = max(
        float(np.max(np.abs(check_solvability(p, tol_quad=cfg.tol_quad))))
        for p in battery)
    suites["solvability"] = {"passed": overlap_max <= 1e-8,
                             "overlap_max": overlap_max, "tol": 1e-8}

    sol = solve_vq(battery[0], tol_solver=cfg.tol_solver,
                   richardson=cfg.richardson)
    report = verify_corrector(sol, n_samples=400, seed=cfg.seed,
                              with_convergence=True, with_far_field=True,
                              tol_solver=cfg.tol_solver)
    suites["corrector"] = {
        "passed": report.passed(tol_sym=cfg.tol_sym),
        "pde_residual": report.pde_residual,
        "boundary_residual": report.boundary_residual,
        "decay_exponent": report.decay_exponent,
        "decay_target": report.decay_target,
        "self_convergence_order": report.self_convergence_order,
        "far_field_shift": report.far_field_shift,
        "pairing": report.pairing,
        "kernel_overlap_max": float(np.max(np.abs(report.kernel_overlaps))),
    }

    passed = all(s["passed"] for s in suites.values())
    _write_json(out / "verify_report.json",
                {"n": cfg.n, "seed": cfg.seed, "passed": passed,
                 "suites": suites})
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# moments


def cmd_moments(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = MomentTable(n=cfg.n, tol=cfg.tol_quad)
    table.load_standard()
    table.to_csv(out / "moments.csv")
    _write_json(out / "moment_identities.json", _moment_identity_suite(cfg))
    return 0


# ---------------------------------------------------------------------------
# solve-vq


def _solve_point(cfg: RunConfig, point):
    return solve_vq(point, grid=cfg.grid(), tol_solver=cfg.tol_solver,
                    richardson=cfg.richardson)


def _profile_sidecar(sol) -> dict:
    grid = sol.profile.grid
    return {
        "label": sol.point.label,
        "n": sol.point.n,
        "residual": sol.diagnostics.discrete_residual,
        "decay_exponent": sol.profile.far_field_exponent(),
        "pairing": sol.pairing(),
        "grid": {"n_t": grid.n_t, "n_r": grid.n_r,
                 "t_max": grid.t_max, "r_max": grid.r_max},
    }


def cmd_solve_vq(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir) / "profiles"
    points = _load_points(cfg)
    solutions, quarantined = _map_points(points, lambda p: _solve_point(cfg, p))
    for label, sol in solutions.items():
        out.mkdir(parents=True, exist_ok=True)
        sol.profile.to_csv(out / f"{label}.csv")
        _write_json(out / f"{label}.json", _profile_sidecar(sol))
    _write_json(Path(cfg.out_dir) / "solve_report.json",
                {"solved": sorted(solutions), "quarantined": quarantined})
    return 0


# ---------------------------------------------------------------------------
# phi


def _phi_for_point(cfg: RunConfig, point):
    sol = _solve_point(cfg, point)
    coeffs = compute_phi(point, sol, weyl_denominator=cfg.weyl_denominator,
                         tol_quad=cfg.tol_quad)
    return sol, coeffs


def _write_coefficients(path: Path, rows: dict) -> None:
    lines = [energy_csv_header()]
    for label in sorted(rows):
        lines.append(rows[label])
    _write_text(path, "\n".join(lines) + "\n")


def cmd_phi(cfg: RunConfig) -> int:
    points = _load_points(cfg)
    results, quarantined = _map_points(
        points, lambda p: _phi_for_point(cfg, p))
    rows = {label: energy_csv_row(coeffs)
            for label, (sol, coeffs) in results.items()}
    _write_coefficients(Path(cfg.out_dir) / "coefficients.csv", rows)
    _write_json(Path(cfg.out_dir) / "phi_report.json",
                {"computed": sorted(rows), "quarantined": quarantined})
    return 0


# ---------------------------------------------------------------------------
# reduce / family


def _read_coefficients_csv(path: Path) -> dict:
    """phi by label from a coefficients CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != energy_csv_header():
        raise InputFormatError(
            f"{path}: expected header {energy_csv_header()!r}")
    names = lines[0].split(",")
    phis = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise InputFormatError(f"{path}: malformed row {line!r}")
        rec = dict(zip(names, parts))
        try:
            phis[rec["label"]] = float(rec["phi"])
        except ValueError:
            raise InputFormatError(
                f"{path}: phi {rec['phi']!r} is not a number") from None
    return phis


def _build_reduced_functional(cfg: RunConfig, points, phis: dict):
    """Merge geometry gamma with per-point phi by label.

    Points without a phi, or with phi > 0, are quarantined rather than
    aborting the batch.
    """
    labels, gammas, phi_values, quarantined = [], [], [], {}
    by_label = {p.label: p for p in points}
    for label in sorted(by_label):
        point = by_label[label]
        phi = phis.get(label)
        if phi is None:
            quarantined[label] = "no coefficient row"
            continue
        if phi > 0.0:
            quarantined[label] = f"phi positive ({phi!r})"
            continue
        if phi == 0.0:
            quarantined[label] = "inadmissible: phi = 0"
        if point.gamma <= 0.0:
            quarantined.setdefault(
                label, f"inadmissible: gamma = {point.gamma!r}")
        labels.append(label)
        gammas.append(point.gamma)
        phi_values.append(phi)
    if not labels:
        raise ConstructionImpossibleError(
            "no admissible point: every table row was quarantined")
    rf = ReducedFunctional(n=cfg.n, B=compute_B(cfg.n), labels=tuple(labels),
                           gamma=np.asarray(gammas), phi=np.asarray(phi_values))
    return rf, quarantined


def _reduction_payload(cfg: RunConfig, rf, quarantined,
                       neighborhood=None, coords=None) -> dict:
    fam = find_blowup_point(rf)
    rows = family_table(fam, cfg.eps_ladder,
                        phi_bound_coeff=cfg.phi_bound_coeff)
    if neighborhood:
        hess = hessian_check(rf, fam.lambda0, fam.q0, neighborhood,
                             coords=coords)
        hessian = {
            "status": hess.status,
            "classification": hess.classification,
            "lambda_lambda_fd": hess.lambda_lambda_fd,
            "lambda_lambda_closed": hess.lambda_lambda_closed,
            "mixed_fd": hess.mixed_fd,
            "q_second_fd": hess.q_second_fd,
            "footnotes": list(hess.footnotes),
        }
    else:
        hessian = {"status": "not-run", "classification": fam.stability}
    return {
        "n": cfg.n,
        "B": rf.B,
        "lambda0": fam.lambda0,
        "q0": fam.q0,
        "bracket": list(fam.bracket),
        "value": fam.value,
        "stability": fam.stability,
        "family": [{"eps": r.eps, "delta": r.delta, "peak": r.peak,
                    "phi_bound": r.phi_bound} for r in rows],
        "hessian": hessian,
        "quarantined": quarantined,
    }


def _family_csv_text(payload: dict) -> str:
    lines = ["eps,delta,peak,phi_bound"]
    for row in payload["family"]:
        lines.append(",".join(_f(row[k])
                              for k in ("eps", "delta", "peak", "phi_bound")))
    return "\n".join(lines) + "\n"


def _g_curves_csv_text(rf, payload: dict) -> str:
    lo, hi = payload["bracket"]
    lams = np.linspace(lo, hi, 65)
    lines = ["label,lambda,G"]
    for label in rf.labels:
        if not rf.admissible_mask()[rf.index_of(label)]:
            continue
        for lam in lams:
            lines.append(f"{label},{_f(lam)},{_f(eval_G(rf, float(lam), label))}")
    return "\n".join(lines) + "\n"


def _reduce_payload_from_cfg(cfg: RunConfig, args) -> tuple:
    points = _load_points(cfg)
    named = getattr(args, "coefficients", "")
    coeff_path = Path(named or Path(cfg.out_dir) / "coefficients.csv")
    # a named file is read as given, so a missing one fails (exit 4)
    if named or coeff_path.exists():
        phis = _read_coefficients_csv(coeff_path)
    else:
        results, _ = _map_points(points, lambda p: _phi_for_point(cfg, p))
        _write_coefficients(Path(cfg.out_dir) / "coefficients.csv",
                            {label: energy_csv_row(coeffs)
                             for label, (sol, coeffs) in results.items()})
        phis = {label: float(coeffs.phi)
                for label, (sol, coeffs) in results.items()}
    rf, quarantined = _build_reduced_functional(cfg, points, phis)
    neighborhood = None
    coords = None
    if getattr(args, "neighborhood", ""):
        neighborhood = args.neighborhood.split(",")
        if getattr(args, "coords", ""):
            coords = np.asarray([float(x) for x in args.coords.split(",")])
    payload = _reduction_payload(cfg, rf, quarantined,
                                 neighborhood=neighborhood, coords=coords)
    return rf, payload


def cmd_reduce(cfg: RunConfig, args) -> int:
    rf, payload = _reduce_payload_from_cfg(cfg, args)
    _write_json(Path(cfg.out_dir) / "reduction.json", payload)
    _write_text(Path(cfg.out_dir) / "family.csv", _family_csv_text(payload))
    return 0


def cmd_family(cfg: RunConfig, args) -> int:
    report = Path(cfg.out_dir) / "reduction.json"
    if report.exists():
        with open(report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("n") != cfg.n:
            raise InputFormatError(
                f"{report}: report has n={payload.get('n')}, config n={cfg.n}")
    else:
        _, payload = _reduce_payload_from_cfg(cfg, args)
    _write_text(Path(cfg.out_dir) / "family.csv", _family_csv_text(payload))
    return 0


# ---------------------------------------------------------------------------
# residual-slope


def _slope_ladder_csv_text(exp) -> str:
    lines = ["delta,norm,std_error,eps,bound"]
    errs = exp.extras.get("std_errors")
    eps_col = exp.extras.get("eps_column")
    bound = exp.extras.get("bound_column")
    for k, d in enumerate(exp.deltas):
        lines.append(",".join([
            _f(d), _f(exp.values[k]),
            _f(errs[k]) if errs is not None else "",
            _f(eps_col[k]) if eps_col is not None else "",
            _f(bound[k]) if bound is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def _slope_summary(exp) -> dict:
    summary = {"status": exp.status, "slope": exp.slope,
               "intercept": exp.intercept, "band": exp.band}
    for key in ("cancel_slope_sum", "cancel_slope_v", "cancel_slope_metric"):
        if key in exp.extras:
            summary[key] = exp.extras[key]
    return summary


def cmd_residual_slope(cfg: RunConfig, args) -> int:
    points = _load_points(cfg)
    label = getattr(args, "label", "") or points[0].label
    by_label = {p.label: p for p in points}
    if label not in by_label:
        raise DomainError(f"unknown point label {label!r}")
    point = by_label[label]
    sol = _solve_point(cfg, point)
    deltas = np.asarray(cfg.delta_ladder) if cfg.delta_ladder else None
    exp = residual_slope(point, sol, eps=getattr(args, "eps", 0.0),
                         tie_eps=getattr(args, "tie_eps", False),
                         deltas=deltas, mc_samples=cfg.mc_samples,
                         seed=cfg.seed,
                         include_v=not getattr(args, "omit_corrector", False),
                         metric_seed=cfg.metric_seed,
                         deg3_scale=cfg.deg3_scale)
    out = Path(cfg.out_dir)
    _write_text(out / "plots" / f"residual_ladder_{label}.csv",
                _slope_ladder_csv_text(exp))
    _write_json(out / f"residual_slope_{label}.json", _slope_summary(exp))
    return 0


# ---------------------------------------------------------------------------
# pipeline


def cmd_pipeline(cfg: RunConfig, args) -> int:
    out = Path(cfg.out_dir)
    points = _load_points(cfg)
    valid_points, quarantined = [], {}
    for point in points:
        report = validate_curvature(point, tol=cfg.tol_sym)
        if report.passed:
            valid_points.append(point)
        else:
            quarantined[point.label] = "curvature validation: " + "; ".join(
                f.name for f in report.failures())

    results, quarantined_solve = _map_points(
        valid_points, lambda p: _phi_for_point(cfg, p))
    quarantined.update(quarantined_solve)

    solutions = {label: sol for label, (sol, _) in results.items()}
    coeff_objects = {label: coeffs for label, (_, coeffs) in results.items()}

    slope_rows = {}
    slopes_summary = {}
    selected = None
    outputs = ["coefficients.csv", "pipeline_report.json"]

    try:
        phis = {label: float(c.phi) for label, c in coeff_objects.items()}
        survivors = [p for p in valid_points if p.label in phis]
        rf, quarantined_reduce = _build_reduced_functional(cfg, survivors, phis)
        quarantined.update(quarantined_reduce)
        payload = _reduction_payload(cfg, rf, quarantined)
        selected = payload["q0"]

        if not getattr(args, "skip_slopes", False):
            point = next(p for p in survivors if p.label == selected)
            sol = solutions[selected]
            identity = verify_A4_L2_L3_identity(point, sol)
            deltas = (np.asarray(cfg.delta_ladder)
                      if cfg.delta_ladder else None)
            residual = residual_slope(point, sol, deltas=deltas,
                                      mc_samples=cfg.mc_samples,
                                      seed=cfg.seed,
                                      metric_seed=cfg.metric_seed,
                                      deg3_scale=cfg.deg3_scale)
            slope_rows[selected] = (residual.slope, identity.slope)
            slopes_summary = {"identity": _slope_summary(identity),
                              "residual": _slope_summary(residual)}
            _write_text(out / "plots" / f"residual_ladder_{selected}.csv",
                        _slope_ladder_csv_text(residual))
            id_lines = ["delta,value"]
            for k, d in enumerate(identity.deltas):
                id_lines.append(f"{_f(d)},{_f(identity.values[k])}")
            _write_text(out / "plots" / f"identity_ladder_{selected}.csv",
                        "\n".join(id_lines) + "\n")
            outputs += [f"plots/residual_ladder_{selected}.csv",
                        f"plots/identity_ladder_{selected}.csv"]

        _write_json(out / "reduction.json", payload)
        _write_text(out / "family.csv", _family_csv_text(payload))
        _write_text(out / "plots" / "G_curves.csv",
                    _g_curves_csv_text(rf, payload))
        outputs += ["reduction.json", "family.csv", "plots/G_curves.csv"]
        family_error = ""
    except ConstructionImpossibleError as exc:
        family_error = str(exc)
        _write_json(out / "reduction.json",
                    {"n": cfg.n, "family": [], "quarantined": quarantined,
                     "error": family_error})
        _write_text(out / "family.csv", "eps,delta,peak,phi_bound\n")
        outputs += ["reduction.json", "family.csv"]

    rows = {}
    for label, coeffs in coeff_objects.items():
        res_slope, id_slope = slope_rows.get(label, (None, None))
        rows[label] = energy_csv_row(coeffs, slope_residual=res_slope,
                                     slope_identity=id_slope)
    _write_coefficients(out / "coefficients.csv", rows)

    _write_json(out / "pipeline_report.json", {
        "n": cfg.n,
        "points": sorted(p.label for p in points),
        "quarantined": quarantined,
        "q0": selected,
        "slopes": slopes_summary,
        "outputs": sorted(outputs),
        "error": family_error,
    })
    if family_error:
        print(f"no admissible point: {family_error}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfbubble",
        description="Verification pipeline for the half-space bubble "
                    "blow-up construction.",
        epilog="Exit codes: 0 success, 2 input/validation, "
               "3 numeric budget, 4 filesystem.")
    parser.add_argument("--config", default="", help="JSON config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol-quad", type=float, dest="tol_quad")
    parser.add_argument("--tol-sym", type=float, dest="tol_sym")
    parser.add_argument("--tol-solver", type=float, dest="tol_solver")
    parser.add_argument("--t-max", type=float, dest="t_max")
    parser.add_argument("--r-max", type=float, dest="r_max")
    parser.add_argument("--h", type=float)
    parser.add_argument("--delta-ladder", dest="delta_ladder",
                        help="comma-separated, strictly increasing, in (0,1)")
    parser.add_argument("--eps-ladder", dest="eps_ladder",
                        help="comma-separated, strictly increasing, in (0,1)")
    parser.add_argument("--weyl-denominator", dest="weyl_denominator",
                        choices=list(WEYL_DENOMINATORS))
    parser.add_argument("--mc-samples", type=int, dest="mc_samples")
    parser.add_argument("--metric-seed", type=int, dest="metric_seed")
    parser.add_argument("--deg3-scale", type=float, dest="deg3_scale")
    parser.add_argument("--richardson", action=argparse.BooleanOptionalAction,
                        default=None)
    parser.add_argument("--phi-bound-coeff", type=float,
                        dest="phi_bound_coeff")
    parser.add_argument("--curvature", dest="curvature_file",
                        help="curvature sample JSON; omitted: generated "
                             "5-point battery")
    parser.add_argument("--out-dir", dest="out_dir")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="full invariant battery; exit 0 iff green")
    sub.add_parser("moments", help="moment table and identity report")
    sub.add_parser("solve-vq", help="corrector profiles per point")
    sub.add_parser("phi", help="reduced-energy coefficients per point")
    p_reduce = sub.add_parser("reduce", help="blow-up point selection")
    p_family = sub.add_parser("family", help="concentration ladder CSV")
    for p in (p_reduce, p_family):
        p.add_argument("--coefficients", default="",
                       help="coefficients CSV, which must exist (default "
                            "<out-dir>/coefficients.csv, computed if absent)")
        p.add_argument("--neighborhood", default="",
                       help="comma-separated ordered labels around q0")
        p.add_argument("--coords", default="",
                       help="comma-separated coordinates for the neighborhood")
    p_slope = sub.add_parser("residual-slope", help="residual norm ladder")
    p_slope.add_argument("--label", default="")
    p_slope.add_argument("--eps", type=float, default=0.0)
    p_slope.add_argument("--tie-eps", action="store_true", dest="tie_eps")
    p_slope.add_argument("--omit-corrector", action="store_true",
                         dest="omit_corrector")
    p_pipe = sub.add_parser("pipeline", help="end-to-end batch run")
    p_pipe.add_argument("--skip-slopes", action="store_true",
                        dest="skip_slopes",
                        help="skip the slope experiments on the selected point")
    return parser


_CONFIG_FIELDS = (
    "n", "seed", "tol_quad", "tol_sym", "tol_solver", "t_max", "r_max", "h",
    "delta_ladder", "eps_ladder", "weyl_denominator", "mc_samples",
    "metric_seed", "deg3_scale", "richardson", "phi_bound_coeff",
    "curvature_file", "out_dir",
)


def config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = RunConfig.from_json(fh.read()).to_dict()
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name in ("delta_ladder", "eps_ladder") and isinstance(value, str):
            value = [float(x) for x in value.split(",")] if value else []
        base[name] = value
    return RunConfig.from_dict(base)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "moments":
            return cmd_moments(cfg)
        if args.command == "solve-vq":
            return cmd_solve_vq(cfg)
        if args.command == "phi":
            return cmd_phi(cfg)
        if args.command == "reduce":
            return cmd_reduce(cfg, args)
        if args.command == "family":
            return cmd_family(cfg, args)
        if args.command == "residual-slope":
            return cmd_residual_slope(cfg, args)
        if args.command == "pipeline":
            return cmd_pipeline(cfg, args)
        raise DomainError(f"unknown command {args.command!r}")
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
