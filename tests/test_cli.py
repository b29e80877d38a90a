"""End-to-end checks for the command line driver and its config plumbing.

Every subcommand is exercised through ``cli.main(argv)`` against a
temporary output directory, on deliberately coarse grids so the whole
file stays cheap.  Determinism is checked at the byte level: repeated
runs with the same flags must produce identical files.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfbubble import cli, corrector, energy
from halfbubble.config import RunConfig
from halfbubble.corrector import (GridConfig, self_convergence, solve_profile,
                                  solve_vq, verify_corrector)
from halfbubble.energy import (IDENTITY_DELTAS, RESIDUAL_DELTAS, ReducedCoefficients,
                               SlopeExperiment)
from halfbubble.errors import DomainError, InputFormatError, SolverError, ValidationFailure
from halfbubble.geometry import CurvaturePoint, make_battery, save_curvature_file
from halfbubble.quadrature import MCEstimate, MomentKey, MomentTable

# Coarse-but-honest settings shared by the subcommand tests.  h = 0.02
# gives a 50 x 50 solver grid, enough for every pipeline stage to run
# while keeping each invocation well under a second.
FAST = ["--seed", "1", "--h", "0.02", "--t-max", "30", "--r-max", "30"]


def run(out_dir, *argv):
    return cli.main([*FAST, "--out-dir", str(out_dir), *argv])


def read(path):
    return path.read_bytes()


def artifacts(root):
    """Every file under root, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fast_config(*argv):
    return cli.config_from_args(cli.build_parser().parse_args([*FAST, *argv]))


def with_trace(point, rel):
    """point with rel * |S| added to the trace of S, spread over the
    diagonal; only s_traceless notices a small rel."""
    S = point.S + rel * np.linalg.norm(point.S) / point.m * np.eye(point.m)
    return dataclasses.replace(point, S=S)


def assert_float_cells(cells):
    """Each cell is the shortest round-trip repr of its float."""
    for cell in cells:
        assert repr(float(cell)) == cell, cell


# ----------------------------------------------------------------------
# artifact writers


class TestArtifactWriters:
    def test_csv_fields(self, tmp_path):
        path = tmp_path / "sub" / "t.csv"
        cli._write_csv(path, "a,b,c,d,e", [
            ("x", 0.1, None, np.float64(1e-300), 3),
            ("y", -0.0, float("nan"), np.float32(0.5), 2.0 ** 60)])
        assert path.read_bytes() == (b"a,b,c,d,e\n"
                                     b"x,0.1,,1e-300,3.0\n"
                                     b"y,-0.0,nan,0.5,1.152921504606847e+18\n")

    def test_header_only_without_rows(self, tmp_path):
        cli._write_csv(tmp_path / "t.csv", "eps,delta", [])
        assert (tmp_path / "t.csv").read_bytes() == b"eps,delta\n"

    def test_json_numpy_values(self, tmp_path):
        cli._write_json(tmp_path / "t.json", {
            "b": np.bool_(True), "a": np.float64(0.1), "i": np.int64(3),
            "v": np.arange(2.0), "t": (np.float32(0.5), None)})
        assert (tmp_path / "t.json").read_text() == (
            '{\n  "a": 0.1,\n  "b": true,\n  "i": 3,\n'
            '  "t": [\n    0.5,\n    null\n  ],\n'
            '  "v": [\n    0.0,\n    1.0\n  ]\n}\n')

    def test_coefficient_rows_with_and_without_slopes(self, tmp_path):
        co = ReducedCoefficients(label="q7", n=11, A=1.5, B=2.5, I2=0.25,
                                 I4=4.0, G2=-0.5, G3=0.75, pairing=-2e-5,
                                 phi=-1e-5)
        path = tmp_path / "coefficients.csv"
        cli._write_coefficients(path, {"q7": (None, co)},
                                {"q7": (3.01, 5.9)})
        header, row = path.read_text().splitlines()
        assert header == cli.COEFFICIENTS_HEADER
        assert row.split(",") == ["q7", "11", "1.5", "2.5", "0.25", "4.0",
                                  "-2e-05", "-0.5", "0.75", "-1e-05",
                                  "3.01", "5.9"]
        assert cli._read_coefficients_csv(path, 11) == {"q7": -1e-5}
        cli._write_coefficients(path, {"q7": (None, co)})
        assert path.read_text().splitlines()[1].endswith(",-1e-05,,")

    def test_bound_column_combines_eps_and_delta_cubed(self, tmp_path):
        deltas = np.geomspace(0.02, 0.7, 5)
        exp = SlopeExperiment(deltas=deltas, values=deltas ** 3, slope=3.0,
                              intercept=0.0, band=0.1,
                              extras={"std_errors": 0.01 * deltas ** 3})
        cfg = RunConfig(out_dir=str(tmp_path))
        path = tmp_path / "plots" / "residual_ladder_q7.csv"

        def columns(**eps):
            cli._write_residual_ladder(cfg, "q7", exp, **eps)
            header, *rows = path.read_text().splitlines()
            assert header == "delta,norm,std_error,eps,bound"
            return np.array([[float(x) for x in row.split(",")]
                             for row in rows]).T

        d, norm, err, eps, bound = columns(eps=0.1)
        assert np.array_equal(d, deltas) and np.array_equal(norm, deltas ** 3)
        assert np.array_equal(err, 0.01 * deltas ** 3)
        assert np.array_equal(eps, np.full(5, 0.1))
        assert np.array_equal(bound, 0.1 * deltas + deltas ** 3)
        _, _, _, eps, bound = columns(eps=0.1, tie_eps=True)
        assert np.array_equal(eps, deltas ** 3)
        assert np.array_equal(bound, deltas ** 4 + deltas ** 3)

    def test_degenerate_ladder_leaves_error_and_bound_blank(self, tmp_path):
        deltas = np.geomspace(0.02, 0.7, 5)
        exp = SlopeExperiment(deltas=deltas, values=np.zeros(5),
                              slope=float("nan"), intercept=float("nan"),
                              band=float("nan"), status="degenerate")
        cli._write_residual_ladder(RunConfig(out_dir=str(tmp_path)), "q7",
                                   exp, eps=0.1)
        rows = (tmp_path / "plots" / "residual_ladder_q7.csv").read_text()
        assert [row.split(",")[2:] for row in rows.splitlines()[1:]] == \
            [["", "", ""]] * 5


# ----------------------------------------------------------------------
# RunConfig


class TestRunConfig:
    def test_json_roundtrip_is_byte_identical(self):
        cfg = RunConfig()
        text = cfg.to_json()
        again = RunConfig.from_dict(json.loads(text)).to_json()
        assert again == text

    def test_roundtrip_preserves_custom_fields(self):
        cfg = RunConfig(
            n=13,
            seed=7,
            h=1.0 / 64,
            delta_ladder=(0.001, 0.003, 0.01, 0.03, 0.1),
            mc_samples=2500,
            deg3_scale=2.5,
        )
        back = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg
        assert back.delta_ladder == (0.001, 0.003, 0.01, 0.03, 0.1)

    def test_grid_mapping(self):
        grid = RunConfig(h=1.0 / 96, t_max=40.0, r_max=48.0).grid()
        assert (grid.n_t, grid.n_r) == (96, 96)
        assert (grid.t_max, grid.r_max) == (40.0, 48.0)

    def test_library_defaults_are_the_programs(self):
        # one source for the default grid and sigma_min gate: the default
        # run solves the profile that solve_vq's defaults solve
        cfg = RunConfig()
        assert cfg.grid() == GridConfig()
        assert cfg.tol_solver == corrector.DEFAULT_TOL_SOLVER
        for solver in (solve_profile, solve_vq, self_convergence,
                       verify_corrector):
            default = inspect.signature(solver).parameters["tol_solver"].default
            assert default == cfg.tol_solver, solver.__name__
        point = make_battery(11, 1, 1)[0]
        assert cli._solve_point(cfg, point).profile is solve_vq(point).profile

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(InputFormatError, match="unknown"):
            RunConfig.from_dict({"n": 11, "bogus": 3})

    def test_from_json_reports_syntax_location(self):
        with pytest.raises(InputFormatError, match="line"):
            RunConfig.from_json('{"n": 11,\n "seed": }\n')

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 4},
            {"h": 0.0},
            {"h": 0.2},
            # removed field: every moment is a closed form
            {"tol_quad": 1e-9},
            {"tol_sym": -1e-12},
            {"t_max": 4.0},
            {"mc_samples": 10},
            {"weyl_denominator": "bogus"},
            {"delta_ladder": (0.01, 0.02, 0.03)},
            {"deg3_scale": -1.0},
            {"phi_bound_coeff": 0.0},
            {"eps_ladder": (0.1, 0.01)},
            {"eps_ladder": (0.5, 1.5)},
            {"delta_ladder": (0.0, 0.1)},
            {"n": 10},
            {"n": 11.5},
            {"n": True},
            {"h": "0.1"},
            {"mc_samples": "5000"},
            {"mc_samples": 5000.0},
            {"seed": True},
            {"metric_seed": 1.5},
            {"tol_solver": True},
            {"deg3_scale": "5"},
            # removed field: every solve is the Richardson pair
            {"richardson": True},
            {"richardson": False},
            {"weyl_denominator": 96},
            {"curvature_file": 0},
            {"delta_ladder": ["x"]},
            {"eps_ladder": (0.01, True)},
            {"eps_ladder": "0.01,0.1"},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises((ValidationFailure, DomainError, InputFormatError)):
            RunConfig.from_dict(kwargs)

    def test_integral_dimension_stored_as_int(self):
        cfg = RunConfig.from_json('{"n": 12.0}')
        assert cfg.n == 12 and type(cfg.n) is int
        assert cfg.to_json() == RunConfig(n=12).to_json()

    def test_empty_delta_ladder_allowed(self):
        assert RunConfig(delta_ladder=()).delta_ladder == ()


class TestConfigMerge:
    """Config file values load first, command line flags win."""

    def parse(self, argv):
        args = cli.build_parser().parse_args([*argv, "moments"])
        return cli.config_from_args(args)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(RunConfig(mc_samples=2500, seed=9).to_json())
        cfg = self.parse(["--config", str(path), "--mc-samples", "3000"])
        assert cfg.mc_samples == 3000
        assert cfg.seed == 9

    def test_ladder_flag_parsing(self):
        cfg = self.parse(["--eps-ladder", "1e-4,1e-3,1e-2"])
        assert cfg.eps_ladder == (1e-4, 1e-3, 1e-2)

    def test_defaults_without_file(self):
        assert self.parse([]) == RunConfig()


# ----------------------------------------------------------------------
# moments / verify


class TestMomentsCommand:
    def test_writes_table_and_identities(self, tmp_path):
        assert run(tmp_path, "moments") == 0
        rows = (tmp_path / "moments.csv").read_text().splitlines()
        assert rows[0] == "n,p,a,b,value"
        report = json.loads((tmp_path / "moment_identities.json").read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"].values())

    def test_rows_are_the_standard_moments(self, tmp_path):
        assert run(tmp_path, "moments") == 0
        rows = [line.split(",") for line in
                (tmp_path / "moments.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4
        for (n, p, a, b, value), want in zip(rows, MomentTable(n=11).rows()):
            assert n == "11" and a == str(want[1]) and b == str(want[2])
            assert_float_cells([p, value])
            assert MomentKey(float(p), int(a), int(b)) \
                == MomentKey(*want[:3])
            assert float(value) == want[3]


class TestVerifyCommand:
    def test_checks_configured_points_and_grid(self, tmp_path, monkeypatch):
        path = tmp_path / "pts.json"
        save_curvature_file(path, 11, make_battery(11, 3, 7))
        grids = []

        def spy(point, grid, **kwargs):
            grids.append(grid)
            return solve_vq(point, grid=grid, **kwargs)

        monkeypatch.setattr(cli, "solve_vq", spy)
        run(tmp_path / "out", "--curvature", str(path), "verify")
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["suites"]["geometry"] == {
            "passed": True, "points": 3, "quarantined": {}}
        args = cli.build_parser().parse_args([*FAST, "verify"])
        assert grids == [cli.config_from_args(args).grid()]

    def test_default_battery_is_green(self, tmp_path):
        assert cli.main(["--seed", "1", "--out-dir", str(tmp_path), "verify"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert set(report["suites"]) == {
            "bubble",
            "moments",
            "geometry",
            "solvability",
            "corrector",
        }
        assert all(s["passed"] for s in report["suites"].values())

    def test_default_grid_reuses_the_run_solves(self, tmp_path, monkeypatch):
        # the Richardson pair (193^2 and 385^2 unknowns), the half grid of
        # the convergence study (97^2) and the far-field pair on doubled caps
        corrector._solve_nodes.cache_clear()
        corrector._solve_profile_cached.cache_clear()
        sizes, real_splu = [], corrector.splu

        def counting_splu(M, **kwargs):
            sizes.append(M.shape[0])
            return real_splu(M, **kwargs)

        monkeypatch.setattr(corrector, "splu", counting_splu)
        assert cli.main(["--seed", "1", "--out-dir", str(tmp_path),
                         "verify"]) == 0
        assert sorted(sizes) == [97 ** 2, 193 ** 2, 193 ** 2, 385 ** 2,
                                 385 ** 2]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        cfg = RunConfig()
        study = corrector.self_convergence(cfg.n, cfg.grid(), cfg.tol_solver)
        assert report["suites"]["corrector"]["self_convergence_order"] == \
            study["order"]

    def test_report_carries_the_convergence_errors(self, tmp_path):
        # the errors behind the order, as self_convergence gives them on
        # the run's grid
        run(tmp_path, "verify")
        suite = json.loads(
            (tmp_path / "verify_report.json").read_text())["suites"]["corrector"]
        cfg = fast_config("verify")
        study = corrector.self_convergence(cfg.n, cfg.grid(), cfg.tol_solver)
        assert (suite["self_convergence_order"],
                suite["self_convergence_coarse_error"],
                suite["self_convergence_fine_error"]) == \
            (study["order"], study["coarse_error"], study["fine_error"])

    def test_quarantined_first_point_fails_the_geometry_suite(self, tmp_path):
        # the corrector suite still checks points[0], which validation failed
        points = make_battery(11, 2, 1)
        points[0] = with_trace(points[0], 1e-10)
        path = tmp_path / "pts.json"
        save_curvature_file(path, 11, points)
        out = tmp_path / "out"
        assert run(out, "--curvature", str(path), "verify") == 2
        report = json.loads((out / "verify_report.json").read_text())
        assert report["passed"] is False
        assert report["suites"]["geometry"] == {
            "passed": False, "points": 2,
            "quarantined": {"battery-00": "curvature validation: s_traceless"}}

    @pytest.mark.parametrize("h,cells", [("0.010526315789473684", 95),
                                         ("0.125", 8)])
    def test_grid_without_half_grid_is_exit_2_before_solving(
            self, tmp_path, monkeypatch, capsys, h, cells):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid check")

        monkeypatch.setattr(corrector, "splu", no_solve)
        monkeypatch.setattr(cli, "solve_vq", no_solve)
        out = tmp_path / "out"
        assert cli.main(["--h", h, "--out-dir", str(out), "verify"]) == 2
        assert f"grid of {cells} x {cells} cells has no half grid" in \
            capsys.readouterr().err
        assert not out.exists()


# ----------------------------------------------------------------------
# solve-vq / phi


class TestSolveAndPhi:
    def test_solve_vq_writes_profiles_and_sidecars(self, tmp_path):
        assert run(tmp_path, "solve-vq") == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["quarantined"] == {}
        # one profile CSV for the dimension, one JSON sidecar per point
        assert sorted(p.name for p in (tmp_path / "profiles").iterdir()) == \
            sorted(["profile_n11.csv"]
                   + [f"{label}.json" for label in report["solved"]])
        csv = tmp_path / "profiles" / "profile_n11.csv"
        assert csv.read_text().splitlines()[0] == "t,r,psi"
        for label in report["solved"]:
            side = json.loads(
                (tmp_path / "profiles" / f"{label}.json").read_text()
            )
            assert side["residual"] < 1e-8
            assert side["pairing"] < 0

    def test_profile_rows_in_node_order(self, tmp_path):
        assert run(tmp_path, "solve-vq") == 0
        cfg = fast_config("solve-vq")
        point = make_battery(11, 5, 1)[0]
        sol = cli._solve_point(cfg, point)
        lines = (tmp_path / "profiles" / "profile_n11.csv").read_text() \
            .splitlines()
        assert lines[0] == "t,r,psi"
        cells = [line.split(",") for line in lines[1:]]
        assert_float_cells(c for row in cells for c in row)
        t, r, psi = sol.profile.t_nodes, sol.profile.r_nodes, sol.profile.psi
        # t outer, r inner: row i * len(r) + j holds (t[i], r[j], psi[i, j])
        table = np.array(cells, dtype=float).reshape(len(t), len(r), 3)
        assert table[0, 0].tolist() == [0.0, 0.0, 0.0]
        assert np.array_equal(table[..., 0], np.broadcast_to(t[:, None], psi.shape))
        assert np.array_equal(table[..., 1], np.broadcast_to(r, psi.shape))
        assert np.array_equal(table[..., 2], psi)
        side = json.loads(
            (tmp_path / "profiles" / f"{point.label}.json").read_text())
        assert side["decay_exponent"] == sol.profile.far_field_exponent()

    def test_phi_outputs_are_negative_on_battery(self, tmp_path):
        assert run(tmp_path, "phi") == 0
        rows = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert rows[0].startswith("label,n,A,B,I2,I4,pairing,G2,G3,phi")
        phi_col = rows[0].split(",").index("phi")
        phis = [float(r.split(",")[phi_col]) for r in rows[1:]]
        assert len(phis) == 5
        assert all(p < 0 for p in phis)

    def test_tol_sym_alone_gates_the_pattern_trace(self, tmp_path):
        points = make_battery(11, 2, 1)
        points[1] = with_trace(points[1], 1e-10)
        path = tmp_path / "pts.json"
        save_curvature_file(path, 11, points)
        strict, loose = tmp_path / "strict", tmp_path / "loose"
        assert run(strict, "--curvature", str(path), "phi") == 0
        report = json.loads((strict / "phi_report.json").read_text())
        assert report["quarantined"] == {
            "battery-01": "curvature validation: s_traceless"}
        assert run(loose, "--curvature", str(path), "--tol-sym", "1e-8",
                   "phi") == 0
        report = json.loads((loose / "phi_report.json").read_text())
        assert report == {"computed": ["battery-00", "battery-01"],
                          "quarantined": {}}
        labels = [row.split(",")[0] for row in
                  (loose / "coefficients.csv").read_text().splitlines()[1:]]
        assert labels == ["battery-00", "battery-01"]

    def test_coefficients_header_and_blank_slopes(self, tmp_path):
        assert run(tmp_path, "phi") == 0
        path = tmp_path / "coefficients.csv"
        header, *rows = path.read_text().splitlines()
        assert header == ("label,n,A,B,I2,I4,pairing,G2,G3,phi,"
                          "slope_residual,slope_identity")
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 12 and cells[1] == "11"
            assert cells[10:] == ["", ""]
            assert_float_cells(cells[2:10])
        assert cli._read_coefficients_csv(path, 11) == {
            row.split(",")[0]: float(row.split(",")[9]) for row in rows}


# ----------------------------------------------------------------------
# pipeline / reduce / family


class TestPipeline:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert run(tmp_path / sub, "pipeline", "--skip-slopes") == 0
        for name in (
            "coefficients.csv",
            "family.csv",
            "reduction.json",
            "pipeline_report.json",
            os.path.join("plots", "G_curves.csv"),
        ):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name

    def test_import_leaves_heavy_scipy_out(self):
        # a fresh interpreter importing the CLI loads none of these
        # subpackages: their import time is most of a run's set-up
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        heavy = ("scipy.interpolate", "scipy.special", "scipy.optimize",
                 "scipy.spatial", "scipy.fft")
        probe = ("import sys, halfbubble.cli; "
                 f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == []

    def test_fresh_processes_are_byte_identical(self, tmp_path):
        # two new interpreters start from cold profile caches; this process
        # may already hold warm ones from earlier tests
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for sub in ("proc-a", "proc-b"):
            subprocess.run(
                [sys.executable, "-m", "halfbubble.cli", *FAST,
                 "--out-dir", str(tmp_path / sub), "pipeline", "--skip-slopes"],
                env=env, check=True, timeout=600)
        assert run(tmp_path / "in-process", "pipeline", "--skip-slopes") == 0
        reference = artifacts(tmp_path / "proc-a")
        assert "coefficients.csv" in reference
        for sub in ("proc-b", "in-process"):
            other = artifacts(tmp_path / sub)
            assert sorted(other) == sorted(reference), sub
            for name in reference:
                assert other[name] == reference[name], (sub, name)

    def test_report_contents(self, tmp_path):
        assert run(tmp_path, "pipeline", "--skip-slopes") == 0
        report = json.loads((tmp_path / "pipeline_report.json").read_text())
        assert report["quarantined"] == {}
        assert report["q0"] in report["points"]
        reduction = json.loads((tmp_path / "reduction.json").read_text())
        assert reduction["q0"] == report["q0"]
        assert reduction["lambda0"] > 0
        assert len(reduction["family"]) == len(RunConfig().eps_ladder)
        lo, hi = reduction["bracket"]
        assert 0 < lo < reduction["lambda0"] < hi

    def test_flat_curvature_gives_no_admissible_point(self, tmp_path, capsys):
        k = 10
        flat = CurvaturePoint(
            label="flat-00",
            n=11,
            Rbar=np.zeros((k, k, k, k)),
            S=np.zeros((k, k)),
            D2=0.0,
            Rnnnn=0.0,
            Wbar2=0.0,
            gamma=0.9,
        )
        path = tmp_path / "flat.json"
        save_curvature_file(path, 11, [flat])
        code = run(
            tmp_path / "out", "--curvature", str(path), "pipeline", "--skip-slopes"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("no admissible point") == 1
        assert "flat-00: phi = 0.0" in err
        report = json.loads((tmp_path / "out" / "reduction.json").read_text())
        assert "error" in report
        family = (tmp_path / "out" / "family.csv").read_text().splitlines()
        assert family == ["eps,delta,peak,phi_bound"]

    def test_every_point_quarantined_is_reported_once(self, tmp_path, capsys):
        points = [dataclasses.replace(p, Wbar2=50.0 * p.Wbar2)
                  for p in make_battery(11, 2, 1)]
        path = tmp_path / "tampered.json"
        save_curvature_file(path, 11, points)
        code = run(tmp_path / "out", "--curvature", str(path), "pipeline",
                   "--skip-slopes")
        assert code == 2
        assert capsys.readouterr().err == (
            "no admissible point: every table row was quarantined\n")
        report = json.loads(
            (tmp_path / "out" / "pipeline_report.json").read_text())
        assert report["error"] == (
            "no admissible point: every table row was quarantined")

    def test_inadmissible_point_is_kept_not_quarantined(self, tmp_path):
        # gamma <= 0 leaves the point in the table without a lambda-maximum:
        # reported as inadmissible, never as quarantined (dropped)
        points = make_battery(11, 3, 1)
        points[1] = dataclasses.replace(points[1], gamma=-0.5)
        path = tmp_path / "negative-gamma.json"
        save_curvature_file(path, 11, points)
        out = tmp_path / "out"
        assert run(out, "--curvature", str(path), "pipeline",
                   "--skip-slopes") == 0
        reduction = json.loads((out / "reduction.json").read_text())
        report = json.loads((out / "pipeline_report.json").read_text())
        assert reduction["inadmissible"] == {"battery-01": "gamma = -0.5"}
        assert reduction["quarantined"] == report["quarantined"] == {}
        assert reduction["q0"] == report["q0"] != "battery-01"
        curves = (out / "plots" / "G_curves.csv").read_text().splitlines()
        labels = {line.split(",")[0] for line in curves[1:]}
        assert labels == {"battery-00", "battery-02"}

    def test_tampered_wbar2_is_quarantined(self, tmp_path):
        points = make_battery(11, 2, 1)
        points[1] = dataclasses.replace(points[1], Wbar2=50.0 * points[1].Wbar2)
        path = tmp_path / "tampered.json"
        save_curvature_file(path, 11, points)
        code = run(tmp_path / "out", "--curvature", str(path), "pipeline", "--skip-slopes")
        assert code == 0
        report = json.loads((tmp_path / "out" / "pipeline_report.json").read_text())
        assert report["quarantined"] == {
            "battery-01": "curvature validation: wbar2_identity"}
        assert report["q0"] == "battery-00"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-vq"],
            ["phi"],
            ["reduce"],
            ["pipeline", "--skip-slopes"],
            ["residual-slope", "--label", "battery-01", "--omit-corrector"],
            ["verify"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_quarantines_tampered_point(self, tmp_path, capsys,
                                                      argv):
        # a smaller Wbar2 makes the tampered point the most attractive one,
        # so a command that skips validation selects it
        points = make_battery(11, 3, 0)
        points[1] = dataclasses.replace(points[1], Wbar2=0.02 * points[1].Wbar2)
        path = tmp_path / "tampered.json"
        save_curvature_file(path, 11, points)
        reason = "curvature validation: wbar2_identity"
        out = tmp_path / "out"
        code = run(out, "--curvature", str(path), *argv)
        if argv[0] == "residual-slope":
            assert code == 2
            assert reason in capsys.readouterr().err
            assert not out.exists()
            return
        if argv[0] == "verify":
            assert code == 2
            report = json.loads((out / "verify_report.json").read_text())
            assert report["suites"]["geometry"]["quarantined"] == {
                "battery-01": reason}
            return
        assert code == 0
        name = {"solve-vq": "solve_report.json", "phi": "phi_report.json",
                "reduce": "reduction.json"}.get(argv[0], "pipeline_report.json")
        report = json.loads((out / name).read_text())
        assert report["quarantined"] == {"battery-01": reason}
        if argv[0] == "reduce":
            assert run(tmp_path / "pipe", "--curvature", str(path),
                       "pipeline", "--skip-slopes") == 0
            pipe = json.loads((tmp_path / "pipe" / "reduction.json").read_text())
            assert report["q0"] == pipe["q0"] == "battery-02"
            assert report["quarantined"] == pipe["quarantined"]

    def test_every_json_artifact_is_strict_json(self, tmp_path):
        # NaN or Infinity in any report breaks strict JSON readers
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        assert run(tmp_path, "pipeline", "--skip-slopes") == 0
        assert run(tmp_path, "solve-vq") == 0
        assert run(tmp_path, "moments") == 0
        # the FAST grid fails the corrector checks, but the report is written
        assert run(tmp_path, "verify") == 2
        # q0 = battery-04 at the end of the path: an inconclusive Hessian
        assert run(tmp_path, "reduce", "--neighborhood",
                   "battery-04,battery-03,battery-00") == 0
        names = sorted(p.relative_to(tmp_path).as_posix()
                       for p in tmp_path.rglob("*.json"))
        assert {"moment_identities.json", "pipeline_report.json",
                "reduction.json", "solve_report.json",
                "verify_report.json"} <= set(names)
        for name in names:
            json.loads((tmp_path / name).read_text(), parse_constant=reject)
        hessian = json.loads((tmp_path / "reduction.json").read_text())["hessian"]
        assert hessian["status"] == "inconclusive"
        assert hessian["mixed_fd"] is None

    def test_dispatch_finds_replaced_command(self, tmp_path, monkeypatch):
        # a benchmark hook replaces cmd_pipeline by name; main must run it
        calls = []
        monkeypatch.setattr(cli, "cmd_pipeline",
                            lambda cfg, args: calls.append(cfg.n) or 0)
        assert run(tmp_path, "pipeline") == 0
        assert calls == [11]
        assert not tmp_path.joinpath("pipeline_report.json").exists()

    def test_reduce_then_family_reuses_reduction(self, tmp_path):
        assert run(tmp_path, "phi") == 0
        assert run(tmp_path, "reduce") == 0
        reduction = json.loads((tmp_path / "reduction.json").read_text())
        assert run(tmp_path, "family") == 0
        rows = (tmp_path / "family.csv").read_text().splitlines()
        assert rows[0] == "eps,delta,peak,phi_bound"
        assert len(rows) - 1 == len(reduction["family"])
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(
            reduction["family"][0]["delta"], rel=1e-12
        )

    def test_family_applies_configured_ladder(self, tmp_path):
        assert run(tmp_path, "reduce") == 0
        written = read(tmp_path / "family.csv")
        lambda0 = json.loads((tmp_path / "reduction.json").read_text())["lambda0"]
        assert run(tmp_path, "--eps-ladder", "0.001,0.01", "--phi-bound-coeff", "3",
                   "family") == 0
        rows = [[float(x) for x in line.split(",")]
                for line in (tmp_path / "family.csv").read_text().splitlines()[1:]]
        assert [(eps, bound) for eps, _, _, bound in rows] == [(0.001, 0.003), (0.01, 0.03)]
        assert rows[0][1] == lambda0 * 0.001 ** (1.0 / 3.0)
        # the reduction's own ladder gives back the file it wrote
        assert run(tmp_path, "family") == 0
        assert read(tmp_path / "family.csv") == written


def fake_estimates(failing=(), cancel_mean=1.0):
    """An mc_halfspace stand-in for the residual ladder: every rung's main
    estimate has mean 1 and a small error, except those of the rungs in
    failing, whose error no budget allows; every cancellation estimate
    has mean cancel_mean."""
    def mc(n, integrand, n_samples, seed, **kwargs):
        K = len(RESIDUAL_DELTAS)
        return (tuple(MCEstimate(1.0, 10.0 if k in failing else 1e-3)
                      for k in range(K))
                + (MCEstimate(cancel_mean, 0.0),) * (3 * K))

    return mc


class TestSlopeLadderOverlap:
    """pipeline runs the slope ladders in the calling thread, the identity
    ladder first, and reports and writes what that order implies: the
    identity ladder's error first, then the rungs' budget errors in ladder
    order, each before any cancellation fit; and no ladder file from a
    run that fails."""

    # a coarse grid that reaches the residual ladder's rho = 100
    ARGS = ["--seed", "1", "--h", "0.04", "--t-max", "100", "--r-max", "100"]

    def run(self, out):
        return cli.main([*self.ARGS, "--out-dir", str(out), "pipeline"])

    def fake_ladders(self, monkeypatch, mc=fake_estimates()):
        identity = SlopeExperiment(deltas=np.asarray(IDENTITY_DELTAS),
                                   values=np.asarray(IDENTITY_DELTAS) ** 5,
                                   slope=5.0, intercept=0.0, band=0.1)
        monkeypatch.setattr(cli, "verify_A4_L2_L3_identity",
                            lambda point, sol: identity)
        monkeypatch.setattr(energy, "mc_halfspace", mc)

    def test_identity_error_reported_over_residual_error(
            self, tmp_path, monkeypatch, capsys):
        def identity(point, sol):
            raise SolverError("identity ladder failed")

        def residual(point, sol, **options):
            raise ValidationFailure("residual ladder failed")

        monkeypatch.setattr(cli, "verify_A4_L2_L3_identity", identity)
        monkeypatch.setattr(cli, "residual_slope", residual)
        assert self.run(tmp_path) == 3
        err = capsys.readouterr().err
        assert "identity ladder failed" in err
        assert "residual ladder failed" not in err

    def test_identity_error_reported_over_rung_error(
            self, tmp_path, monkeypatch, capsys):
        # the real residual ladder, whose last rung would fail its budget
        def identity(point, sol):
            raise SolverError("identity ladder failed")

        self.fake_ladders(monkeypatch,
                          fake_estimates(failing={len(RESIDUAL_DELTAS) - 1}))
        monkeypatch.setattr(cli, "verify_A4_L2_L3_identity", identity)
        assert self.run(tmp_path) == 3
        err = capsys.readouterr().err
        assert "identity ladder failed" in err
        assert "MC variance too high" not in err
        assert not list(tmp_path.rglob("*_ladder_*.csv"))

    def test_rung_error_reported_over_next_rung_error(
            self, tmp_path, monkeypatch, capsys):
        self.fake_ladders(monkeypatch, fake_estimates(failing={2, 3}))
        assert self.run(tmp_path) == 3
        err = capsys.readouterr().err
        assert f"delta={float(RESIDUAL_DELTAS[2])!r}" in err
        assert f"delta={float(RESIDUAL_DELTAS[3])!r}" not in err
        assert not list(tmp_path.rglob("*_ladder_*.csv"))

    def test_budget_error_reported_over_cancellation_error(
            self, tmp_path, monkeypatch, capsys):
        # zero cancellation norms fail their log-log fits, but only once
        # every rung has passed its gate
        self.fake_ladders(monkeypatch,
                          fake_estimates(failing={1}, cancel_mean=0.0))
        assert self.run(tmp_path) == 3
        err = capsys.readouterr().err
        assert f"MC variance too high at delta={float(RESIDUAL_DELTAS[1])!r}" in err
        assert "log-log fit" not in err
        assert not list(tmp_path.rglob("*_ladder_*.csv"))

    def test_no_ladder_file_when_identity_fails(self, tmp_path, monkeypatch,
                                                 capsys):
        ran = []

        def identity(point, sol):
            raise ValidationFailure("identity ladder failed")

        def residual(point, sol, **options):
            ran.append(point.label)
            deltas = np.asarray(RESIDUAL_DELTAS)
            return SlopeExperiment(deltas=deltas, values=deltas ** 3,
                                   slope=3.0, intercept=0.0, band=0.1)

        monkeypatch.setattr(cli, "verify_A4_L2_L3_identity", identity)
        monkeypatch.setattr(cli, "residual_slope", residual)
        assert self.run(tmp_path) == 2
        assert "identity ladder failed" in capsys.readouterr().err
        assert ran == []
        assert not list(tmp_path.rglob("*_ladder_*.csv"))

    def test_ladders_written_when_every_task_succeeds(self, tmp_path,
                                                      monkeypatch):
        self.fake_ladders(monkeypatch)
        assert self.run(tmp_path) == 0
        assert len(list(tmp_path.rglob("*_ladder_*.csv"))) == 2


# ----------------------------------------------------------------------
# residual-slope


class TestResidualSlopeCommand:
    def test_omit_corrector_ladder_outputs(self, tmp_path, monkeypatch):
        # the bubble-alone ladder reads no corrector, so none is factored
        factors, splu = [], corrector.splu

        def counted(*args, **options):
            factors.append(args[0].shape)
            return splu(*args, **options)

        monkeypatch.setattr(corrector, "splu", counted)
        code = run(
            tmp_path,
            "--mc-samples",
            "2000",
            "residual-slope",
            "--omit-corrector",
        )
        assert code == 0
        assert factors == []
        ladder = (tmp_path / "plots" / "residual_ladder_battery-00.csv")
        assert ladder.read_text().splitlines()[0] == "delta,norm,std_error,eps,bound"
        summary = json.loads(
            (tmp_path / "residual_slope_battery-00.json").read_text()
        )
        assert summary["status"] == "ok"
        assert summary["slope"] == pytest.approx(2.0, abs=0.3)

    def test_short_ladder_rejected(self, tmp_path):
        # three rungs over half a decade cannot support a power law fit
        code = run(
            tmp_path,
            "--delta-ladder",
            "0.01,0.02,0.03",
            "residual-slope",
            "--omit-corrector",
        )
        assert code == 2
        # rejected with the config, before any output is written
        assert not tmp_path.joinpath("plots").exists()


# ----------------------------------------------------------------------
# failure exit codes


class TestExitCodes:
    def test_unreadable_config_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = cli.main(["--config", str(bad), "moments"])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_config_field_is_exit_2(self, tmp_path):
        unk = tmp_path / "unk.json"
        unk.write_text('{"n": 11, "bogus": 1}')
        assert cli.main(["--config", str(unk), "moments"]) == 2

    @pytest.mark.parametrize("n", ["11.5", "true"])
    def test_non_integer_dimension_is_exit_2(self, tmp_path, n):
        cfg = tmp_path / "dim.json"
        cfg.write_text('{"n": %s}' % n)
        out = tmp_path / "out"
        code = cli.main(["--config", str(cfg), "--out-dir", str(out), "moments"])
        assert code == 2
        # rejected with the config, before any output is written
        assert not out.exists()

    def test_blocked_output_directory_is_exit_4(self, tmp_path):
        wall = tmp_path / "wall"
        wall.write_text("occupied")
        code = cli.main(["--out-dir", str(wall / "sub"), "moments"])
        assert code == 4

    @pytest.mark.parametrize("command", ["reduce"])
    def test_missing_coefficients_file_is_exit_4(self, tmp_path, command):
        missing = tmp_path / "no" / "such.csv"
        code = run(tmp_path, command, "--coefficients", str(missing))
        assert code == 4
        # failed on the named file, without recomputing phi in its place
        assert not (tmp_path / "coefficients.csv").exists()
        assert not (tmp_path / "reduction.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--coefficients", "no-such.csv"],
         ["--neighborhood", "battery-00,battery-01,battery-02"],
         ["--neighborhood", "battery-00,battery-01,battery-02",
          "--coords", "0,1,2"]],
        ids=["coefficients", "neighborhood", "coords"],
    )
    def test_family_flag_is_exit_2_before_any_work(self, tmp_path, monkeypatch,
                                                    argv):
        # family reads no coefficients file and computes no Hessian, so
        # reduce's flags are usage errors there, not silently dropped
        def no_work(*args, **kwargs):
            raise AssertionError("worked before the flags were parsed")

        monkeypatch.setattr(corrector, "splu", no_work)
        monkeypatch.setattr(cli, "solve_vq", no_work)
        monkeypatch.setattr(cli, "make_battery", no_work)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "out", "family", *argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("phi", ["abc", "nan", "inf", "-inf"])
    def test_non_numeric_phi_is_exit_2(self, tmp_path, phi):
        coeffs = tmp_path / "coefficients.csv"
        assert run(tmp_path, "phi") == 0
        lines = coeffs.read_text().splitlines()
        parts = lines[1].split(",")
        parts[lines[0].split(",").index("phi")] = phi
        lines[1] = ",".join(parts)
        coeffs.write_text("\n".join(lines) + "\n")
        assert run(tmp_path, "reduce") == 2
        assert not (tmp_path / "reduction.json").exists()

    @pytest.mark.parametrize(
        "text",
        ['{"h": "0.1"}', '{"mc_samples": "5000"}', '{"delta_ladder": ["x"]}',
         '{"richardson": "no"}', '{"tol_quad": 1e-9}'],
    )
    def test_mistyped_config_value_is_exit_2(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out-dir", str(out),
                         "moments"]) == 2
        assert not out.exists()

    def test_repeated_coefficient_label_is_exit_2(self, tmp_path):
        # a second battery-04 row with another phi would otherwise win
        # silently and move q0
        coeffs = tmp_path / "coefficients.csv"
        assert run(tmp_path, "phi") == 0
        lines = coeffs.read_text().splitlines()
        parts = next(line for line in lines
                     if line.startswith("battery-04,")).split(",")
        col = lines[0].split(",").index("phi")
        parts[col] = repr(8.0 * float(parts[col]))
        coeffs.write_text("\n".join([*lines, ",".join(parts)]) + "\n")
        assert run(tmp_path, "reduce", "--coefficients", str(coeffs)) == 2
        assert not (tmp_path / "reduction.json").exists()

    def test_coefficients_of_another_dimension_is_exit_2(self, tmp_path):
        assert run(tmp_path / "n12", "--n", "12", "phi") == 0
        out = tmp_path / "n11"
        code = run(out, "reduce", "--coefficients",
                   str(tmp_path / "n12" / "coefficients.csv"))
        assert code == 2
        assert not (out / "reduction.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--eps", "0.01", "--tie-eps"], ["--tie-eps", "--eps", "-1"],
         ["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"]],
        ids=["with-tie-eps", "tie-eps-first", "negative", "nan", "inf"],
    )
    def test_bad_eps_is_exit_2_before_solving(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "out", "residual-slope", "--omit-corrector", *argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--delta-ladder", "0.001,0.002,0.005,0.01,0.02,0.05", "pipeline"],
         ["--delta-ladder", "0.001,0.002,0.005,0.01,0.02,0.05",
          "residual-slope"],
         ["--h", "0.0625", "--t-max", "40", "--r-max", "40", "pipeline"]],
        ids=["pipeline-residual-ladder", "residual-slope",
             "pipeline-identity-ladder"],
    )
    def test_ladder_past_the_grid_is_exit_2_before_solving(
            self, tmp_path, monkeypatch, capsys, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the ladder check")

        # splu for a fresh solve, solve_vq for a profile already cached
        monkeypatch.setattr(corrector, "splu", no_solve)
        monkeypatch.setattr(cli, "solve_vq", no_solve)
        out = tmp_path / "out"
        assert cli.main(["--n", "11", "--out-dir", str(out), *argv]) == 2
        assert "needs the profile solved out to rho" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_tol_quad_flag_is_exit_2_before_any_work(self, tmp_path):
        # every moment is a closed form, so there is no tolerance to set
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["--tol-quad", "1e-9", "--out-dir", str(out), "moments"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_non_numeric_ladder_flag_is_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--delta-ladder", "a,b", "--out-dir", str(tmp_path),
                      "moments"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("problem", ["repeated-label", "no-points"])
    def test_bad_point_list_is_exit_2(self, tmp_path, problem):
        path = tmp_path / "pts.json"
        points = make_battery(11, 2, 1)
        save_curvature_file(
            path, 11, [] if problem == "no-points" else [*points, points[0]])
        out = tmp_path / "out"
        assert run(out, "--curvature", str(path), "phi") == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--neighborhood", "battery-00,battery-01"],
            ["--neighborhood", "battery-00,battery-01,nowhere"],
            ["--neighborhood", "battery-00,battery-01,battery-02",
             "--coords", "0,1"],
            ["--neighborhood", "battery-00,battery-01,battery-02",
             "--coords", "a,b,c"],
            ["--neighborhood", "battery-00,battery-01,battery-02",
             "--coords", "0,nan,1"],
            ["--neighborhood", "battery-00,battery-01,battery-02",
             "--coords", "0,0,1"],
            ["--neighborhood", "battery-03,battery-04,battery-03"],
        ],
        ids=["too-few", "unknown-label", "count-mismatch", "non-numeric",
             "nan-coord", "repeated-coord", "repeated-label"],
    )
    def test_bad_neighborhood_is_exit_2_before_solving(self, tmp_path, argv):
        assert run(tmp_path, "reduce", *argv) == 2
        assert not (tmp_path / "coefficients.csv").exists()
        assert not (tmp_path / "reduction.json").exists()

    @pytest.mark.parametrize(
        "name, content, argv",
        [("cfg.json", b'{"n": 11\xff}', ["--config", "{path}", "moments"]),
         ("coeffs.csv", b"label,n,phi\n\xff\n",
          ["reduce", "--coefficients", "{path}"]),
         ("reduction.json", b'{"n": 11,', ["family"]),
         ("reduction.json", b"[11]", ["family"]),
         ("cfg.json", b'{ "n": 11,, }', ["--config", "{path}", "moments"]),
         ("cfg.json", b"[1]", ["--config", "{path}", "moments"]),
         ("cfg.json", b'{"nope": 1}', ["--config", "{path}", "moments"])],
        ids=["config-not-utf8", "coefficients-not-utf8",
             "reduction-not-json", "reduction-not-object", "config-not-json",
             "config-not-object", "config-unknown-field"],
    )
    def test_malformed_input_file_is_exit_2(self, tmp_path, capsys, name,
                                            content, argv):
        path = tmp_path / name
        path.write_bytes(content)
        argv = [a.replace("{path}", str(path)) for a in argv]
        assert run(tmp_path, *argv) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\xff"],
                             ids=["bom", "not-utf8"])
    def test_curvature_file_not_strict_json_is_exit_2(self, tmp_path, capsys,
                                                      prefix):
        path = tmp_path / "pts.json"
        save_curvature_file(path, 11, make_battery(11, 2, 1))
        path.write_bytes(prefix + path.read_bytes())
        out = tmp_path / "out"
        assert run(out, "--curvature", str(path), "pipeline",
                   "--skip-slopes") == 2
        assert f"error: {path}: not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--t-max", "inf", "phi"], ["--t-max", "nan", "phi"],
         ["--r-max", "inf", "phi"], ["--tol-solver", "inf", "phi"],
         ["--seed", "-1", "phi"],
         ["--metric-seed", "-3", "residual-slope", "--omit-corrector"],
         ["--phi-bound-coeff", "nan", "family"],
         ["--deg3-scale", "nan", "residual-slope", "--omit-corrector"],
         ["--config", "{nan}", "phi"], ["--config", "{inf}", "phi"]],
        ids=["t-max-inf", "t-max-nan", "r-max-inf", "tol-solver-inf",
             "negative-seed", "negative-metric-seed", "phi-bound-coeff-nan",
             "deg3-scale-nan", "config-nan", "config-infinity"],
    )
    def test_non_finite_or_negative_setting_is_exit_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before the config check")

        monkeypatch.setattr(corrector, "splu", no_work)
        monkeypatch.setattr(cli, "solve_vq", no_work)
        monkeypatch.setattr(cli, "make_battery", no_work)
        # json.loads reads NaN and Infinity, so a config file can carry them
        for name, text in (("nan", '{"r_max": NaN}'),
                           ("inf", '{"deg3_scale": Infinity}')):
            (tmp_path / f"{name}.json").write_text(text)
        argv = [a.format(nan=tmp_path / "nan.json", inf=tmp_path / "inf.json")
                for a in argv]
        out = tmp_path / "out"
        assert cli.main(["--out-dir", str(out), *argv]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_curvature_dimension_mismatch_is_exit_2(self, tmp_path):
        k = 8
        point = CurvaturePoint(
            label="p",
            n=9,
            Rbar=np.zeros((k, k, k, k)),
            S=np.zeros((k, k)),
            D2=0.0,
            Rnnnn=0.0,
            Wbar2=0.0,
            gamma=0.5,
        )
        path = tmp_path / "dim.json"
        save_curvature_file(path, 9, [point])
        code = run(tmp_path / "out", "--curvature", str(path), "phi")
        assert code == 2
