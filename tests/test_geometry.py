"""Curvature data model tests: identity suite, Weyl projection, JSON
interchange, and the metric expansion (gauge traces, parity, divergence)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from halfbubble import geometry
from halfbubble.errors import DomainError, InputFormatError
from halfbubble.geometry import (_BLOCK, CurvaturePoint, check_dim, generate_sample,
                                 load_curvature_file, make_battery, metric_expansion,
                                 metric_invariants, save_curvature_file, validate_curvature,
                                 weyl_norm_consistency, weyl_part)
from metric_reference import ref_metric_divergence, ref_metric_g, ref_metric_inverse


def fit_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.abs(np.asarray(y))), 1)[0])


def degree_sum(split, delta):
    """sum_e delta^e split[e - 1]: metric_invariants' values at delta,
    through the degrees split holds."""
    return sum(delta ** e * block for e, block in enumerate(split, 1))


def metric_det(me, t, z):
    """det of the full inverse metric at one point (the normal block
    contributes 1)."""
    return float(np.linalg.det(ref_metric_inverse(me, t, z)[0]))


class TestCheckDim:
    def test_supported(self):
        assert check_dim(11) == 11
        assert check_dim(15) == 15

    def test_low_rejected(self):
        with pytest.raises(DomainError):
            check_dim(10)


class TestCurvaturePoint:
    def test_structural_validation(self):
        n = 11
        m = n - 1
        with pytest.raises(InputFormatError):
            CurvaturePoint("x", n, np.zeros((m, m, m)), np.zeros((m, m)), 0, 0, 0, 1)
        with pytest.raises(InputFormatError):
            CurvaturePoint("x", n, np.zeros((m, m, m, m)), np.zeros((m, 3)), 0, 0, 0, 1)
        with pytest.raises(InputFormatError):
            CurvaturePoint("x", n, np.zeros((m, m, m, m)), np.zeros((m, m)),
                           np.nan, 0, 0, 1)

    def test_arrays_read_only(self):
        p = generate_sample(11, seed=0)
        with pytest.raises(ValueError):
            p.Rbar[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            p.S[0, 0] = 1.0


class TestSamplesAndValidation:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_samples_pass_all_checks(self, seed):
        p = generate_sample(11, seed=seed, scale=0.8)
        report = validate_curvature(p, tol=1e-12)
        assert report.passed, [c.name for c in report.failures()]

    def test_sample_norms(self):
        p = generate_sample(11, seed=3, scale=0.5)
        assert np.linalg.norm(p.S.ravel()) == pytest.approx(0.5, rel=1e-12)
        assert np.linalg.norm(p.Rbar.ravel()) == pytest.approx(0.5, rel=1e-12)
        assert p.Rnnnn == pytest.approx(-2 * 0.25, rel=1e-12)

    def test_tampered_antisymmetry_detected(self):
        p = generate_sample(11, seed=4)
        R = p.Rbar.copy()
        R[0, 0, 1, 2] += 0.1  # breaks antisymmetry in (i,k)
        bad = CurvaturePoint("bad", p.n, R, p.S, p.D2, p.Rnnnn, p.Wbar2, p.gamma)
        report = validate_curvature(bad)
        assert not report.passed
        assert any(c.name.startswith("rbar_antisym") for c in report.failures())

    def test_tampered_trace_detected(self):
        # validation is the one gate on S: nothing downstream re-checks it
        p = generate_sample(11, seed=5)
        S = p.S + 0.05 * np.eye(p.m)
        bad = CurvaturePoint("bad", p.n, p.Rbar, S, p.D2, p.Rnnnn, p.Wbar2, p.gamma)
        assert any(c.name == "s_traceless" for c in validate_curvature(bad).failures())

    def test_tampered_symmetry_detected(self):
        p = generate_sample(11, seed=5)
        S = p.S.copy()
        S[0, 1] += 0.05
        bad = CurvaturePoint("bad", p.n, p.Rbar, S, p.D2, p.Rnnnn, p.Wbar2, p.gamma)
        assert any(c.name == "s_symmetric" for c in validate_curvature(bad).failures())

    def test_tampered_rnnnn_detected(self):
        p = generate_sample(11, seed=6)
        bad = CurvaturePoint("bad", p.n, p.Rbar, p.S, p.D2, p.Rnnnn + 0.3,
                             p.Wbar2, p.gamma)
        assert any(c.name == "rnnnn_identity" for c in validate_curvature(bad).failures())

    def test_tampered_wbar2_detected(self):
        p = generate_sample(11, seed=8)
        bad = CurvaturePoint("bad", p.n, p.Rbar, p.S, p.D2, p.Rnnnn, 50.0 * p.Wbar2, p.gamma)
        assert [c.name for c in validate_curvature(bad).failures()] == ["wbar2_identity"]

    def test_rnnnn_read_as_summed(self):
        # Rnnnn is the value summed over the spatial index: a point that
        # stores the per-index average instead fails the identity
        p = generate_sample(11, seed=7)
        assert validate_curvature(p).passed
        per = CurvaturePoint("per", p.n, p.Rbar, p.S, p.D2, p.Rnnnn / p.m,
                             p.Wbar2, p.gamma)
        assert [c.name for c in validate_curvature(per).failures()] == [
            "rnnnn_identity"]

    def test_battery_deterministic(self):
        a = make_battery(11, 3, seed=42)
        b = make_battery(11, 3, seed=42)
        assert [p.label for p in a] == ["battery-00", "battery-01", "battery-02"]
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.Rbar, pb.Rbar)
            assert pa.gamma == pb.gamma
        for p in a:
            assert validate_curvature(p).passed


class TestWeyl:
    def test_projection_kills_traces(self):
        rng = np.random.default_rng(0)
        m = 10
        # random tensor with curvature symmetries but nonzero Ricci part
        h = 0.5 * (rng.standard_normal((m, m)) + rng.standard_normal((m, m)).T)
        T = (np.einsum("ij,kl->ikjl", h, h) + np.einsum("kl,ij->ikjl", h, h)
             - np.einsum("il,kj->ikjl", h, h) - np.einsum("kj,il->ikjl", h, h))
        W = weyl_part(T)
        assert np.linalg.norm(np.einsum("ikil->kl", W)) < 1e-12 * np.linalg.norm(W.ravel())

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = 10
        h = 0.5 * (rng.standard_normal((m, m)) + rng.standard_normal((m, m)).T)
        k = 0.5 * (rng.standard_normal((m, m)) + rng.standard_normal((m, m)).T)
        T = (np.einsum("ij,kl->ikjl", h, k) + np.einsum("kl,ij->ikjl", h, k)
             - np.einsum("il,kj->ikjl", h, k) - np.einsum("kj,il->ikjl", h, k))
        W = weyl_part(T)
        assert np.allclose(weyl_part(W), W, atol=1e-13 * np.linalg.norm(W.ravel()))

    def test_samples_consistent(self):
        for seed in (0, 9):
            p = generate_sample(11, seed=seed)
            assert weyl_norm_consistency(p) < 1e-12


class TestJsonInterchange:
    def test_round_trip(self, tmp_path):
        pts = make_battery(11, 2, seed=7)
        path = tmp_path / "pts.json"
        save_curvature_file(path, 11, pts)
        n, back = load_curvature_file(path)
        assert n == 11
        assert len(back) == 2
        for a, b in zip(pts, back):
            assert a.label == b.label
            assert np.array_equal(a.Rbar, b.Rbar)
            assert np.array_equal(a.S, b.S)
            assert (a.D2, a.Rnnnn, a.Wbar2, a.gamma) == (b.D2, b.Rnnnn, b.Wbar2, b.gamma)

    def test_unknown_top_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11, "points": [], "extra": 1}))
        with pytest.raises(InputFormatError, match="unknown top-level"):
            load_curvature_file(path)

    def test_unknown_point_field_rejected(self, tmp_path):
        pts = make_battery(11, 1, seed=7)
        path = tmp_path / "bad.json"
        save_curvature_file(path, 11, pts)
        data = json.loads(path.read_text())
        data["points"][0]["surprise"] = 2.0
        path.write_text(json.dumps(data))
        with pytest.raises(InputFormatError, match="unknown fields"):
            load_curvature_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11, "points": [{"label": "x"}]}))
        with pytest.raises(InputFormatError, match="missing"):
            load_curvature_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError, match="not valid JSON"):
            load_curvature_file(path)

    def test_empty_point_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11, "points": []}))
        with pytest.raises(InputFormatError, match="nonempty"):
            load_curvature_file(path)

    def test_repeated_label_rejected(self, tmp_path):
        pts = make_battery(11, 2, seed=7)
        path = tmp_path / "bad.json"
        save_curvature_file(path, 11, [pts[0], pts[1], pts[0]])
        with pytest.raises(InputFormatError, match=r"points\[2\] repeats label"):
            load_curvature_file(path)

    def test_non_integer_n(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11.0, "points": []}))
        with pytest.raises(InputFormatError, match="integer"):
            load_curvature_file(path)

    # json is the reference decoder: the loader must read the same bits

    @pytest.mark.parametrize("n", range(11, 16))
    def test_battery_bit_identical_to_json(self, tmp_path, n):
        path = tmp_path / "pts.json"
        save_curvature_file(path, n, make_battery(n, 2, seed=7))
        ref = json.loads(path.read_text(encoding="utf-8"))
        file_n, back = load_curvature_file(path)
        assert file_n == ref["n"]
        for rec, p in zip(ref["points"], back):
            assert p.label == rec["label"]
            for name in ("Rbar", "S"):
                want = np.asarray(rec[name], dtype=float)
                assert getattr(p, name).tobytes() == want.tobytes()
            for name in ("D2", "Rnnnn", "Wbar2", "gamma"):
                assert np.float64(getattr(p, name)).tobytes() == \
                    np.float64(rec[name]).tobytes()

    HARD_DECIMALS = [
        "2.2250738585072011e-308",   # rounds down to the largest subnormal
        "2.2250738585072012e-308",   # rounds up to the smallest normal
        "4.9406564584124654e-324",   # the smallest subnormal
        "2.4703282292062328e-324",   # just above half of it: rounds up
        "2.4703282292062327e-324",   # just below: rounds to zero
        "1.7976931348623157e308",
        "9007199254740993",          # 2**53 + 1, halfway: rounds to even
        "9007199254740993.0",
        "0.30000000000000004",
        "1.00000000000000011102230246251565404236316680908203125",  # halfway
        "1.00000000000000011102230246251565404236316680908203126",
        "-0.0",
        "1e-400",
        "123456789012345678901234567890e-29",
    ]

    @staticmethod
    def one_point_file(path, literal):
        """An n = 11 file with one point whose D2 and first Rbar entry are
        the JSON number text literal; every other number is 0."""
        m = 10
        rbar = np.zeros((m,) * 4).tolist()
        rbar[0][0][0][0] = "@"
        data = {"n": 11, "points": [{
            "label": "p", "Rbar": rbar, "S": np.zeros((m, m)).tolist(),
            "D2": "@", "Rnnnn": 0.0, "Wbar2": 0.0, "gamma": 0.0}]}
        path.write_text(json.dumps(data).replace('"@"', literal),
                        encoding="utf-8")

    @pytest.mark.parametrize("text", HARD_DECIMALS)
    def test_hard_decimals_bit_identical_to_json(self, tmp_path, text):
        path = tmp_path / "pts.json"
        self.one_point_file(path, text)
        want = np.float64(json.loads(text)).tobytes()
        _, (back,) = load_curvature_file(path)
        assert back.Rbar[0, 0, 0, 0].tobytes() == want
        assert np.float64(back.D2).tobytes() == want

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        path = tmp_path / "bad.json"
        self.one_point_file(path, text)
        json.loads(path.read_text(encoding="utf-8"))  # json itself accepts it
        with pytest.raises(InputFormatError, match="not valid JSON"):
            load_curvature_file(path)

    def test_n_beyond_64_bits_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 123456789012345678901234567890, "points": []}')
        with pytest.raises(InputFormatError, match="'n' must be an integer"):
            load_curvature_file(path)

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\xff"],
                             ids=["bom", "not-utf8"])
    def test_bom_and_invalid_utf8_rejected(self, tmp_path, prefix):
        path = tmp_path / "bad.json"
        save_curvature_file(path, 11, make_battery(11, 1, seed=7))
        path.write_bytes(prefix + path.read_bytes())
        with pytest.raises(InputFormatError, match="not valid JSON"):
            load_curvature_file(path)


class TestMetricExpansion:
    """The blocks metric_expansion builds, evaluated densely by the
    reference in metric_reference."""

    def direction(self, m, seed=0):
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal(m)
        y = np.concatenate([z0, [abs(rng.standard_normal()) + 0.5]])
        y /= np.linalg.norm(y)
        return y[:m], y[m]

    def test_identity_at_origin(self):
        p = generate_sample(11, seed=0)
        me = metric_expansion(p, seed=1)
        g = ref_metric_inverse(me, 0.0, np.zeros(p.m))
        assert np.array_equal(g[0], np.eye(p.m))

    def test_block_parity(self):
        # degree-d block flips sign as (-1)^d under y -> -y
        p = generate_sample(11, seed=1)
        me = metric_expansion(p, seed=2)
        z0, t0 = self.direction(p.m, 3)
        z0, t0 = 0.3 * z0, 0.3 * t0
        for deg in (2, 3, 4):
            blk_plus = (ref_metric_inverse(me, t0, z0, through_degree=deg)
                        - ref_metric_inverse(me, t0, z0, through_degree=deg - 1))
            blk_minus = (ref_metric_inverse(me, -t0, -z0, through_degree=deg)
                         - ref_metric_inverse(me, -t0, -z0, through_degree=deg - 1))
            sign = (-1.0) ** deg
            assert np.allclose(blk_minus, sign * blk_plus, atol=1e-14)

    def test_gauge_trace_mechanism(self):
        p = generate_sample(11, seed=2)
        me = metric_expansion(p, seed=3)
        m = p.m
        # solved traces
        assert abs(np.trace(me.T5) - p.Rnnnn) < 1e-12
        assert np.allclose(np.einsum("iik->k", me.S1), 0.0, atol=1e-13)
        assert abs(np.trace(me.S1n)) < 1e-13
        assert np.allclose(np.einsum("iikl->kl", me.T4), 0.0, atol=1e-12)
        assert np.einsum("ijij->", me.T4) == pytest.approx(p.D2, abs=1e-10)
        assert np.allclose(np.einsum("iik->k", me.T3), 0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [11, 15])
    def test_det_slope(self, n):
        p = generate_sample(n, seed=3)
        me = metric_expansion(p, seed=4)
        z0, t0 = self.direction(p.m, 5)
        eps = np.geomspace(0.03, 0.3, 7)
        vals = np.array([metric_det(me, e * t0, e * z0) - 1.0 for e in eps])
        slope = fit_slope(eps, vals)
        assert 4.5 <= slope <= 8.0, f"n={n}: det slope {slope}"

    def test_tampered_rnnnn_breaks_gauge(self):
        # if the stored Rnnnn violates the -2||S||^2 identity, the volume
        # normalization fails at quartic order: det slope drops to 4
        p = generate_sample(11, seed=4)
        bad = CurvaturePoint("bad", p.n, p.Rbar, p.S, p.D2, p.Rnnnn + 3.0,
                             p.Wbar2, p.gamma)
        me = metric_expansion(bad, seed=5)
        z0, t0 = self.direction(p.m, 6)
        eps = np.geomspace(0.01, 0.1, 7)
        vals = np.array([metric_det(me, e * t0, e * z0) - 1.0 for e in eps])
        slope = fit_slope(eps, vals)
        assert 3.7 <= slope <= 4.3, f"det slope {slope}"

    def test_divergence_against_fd(self):
        p = generate_sample(11, seed=5)
        m = p.m
        me = metric_expansion(p, seed=6)
        rng = np.random.default_rng(7)
        z0 = 0.4 * rng.standard_normal(m)
        t0 = 0.3
        got = ref_metric_divergence(me, t0, z0)[0]
        h = 1e-6
        fd = np.zeros(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            gp = ref_metric_inverse(me, t0, z0 + e)[0]
            gm = ref_metric_inverse(me, t0, z0 - e)[0]
            fd += (gp[i, :] - gm[i, :]) / (2 * h)
        assert np.allclose(got, fd, rtol=5e-7, atol=1e-9)


class TestMatrixProductPath:
    """The packed operator-product invariants against the dense reference,
    on batches below and across the block boundary."""

    @pytest.mark.parametrize("n", [11, 15])
    def test_invariants_match_contracted_expansion(self, n):
        # the degree split of metric_invariants, summed at each delta,
        # against the reference g (not Minv - I, whose diagonal would carry
        # the rounding of 1) and the reference divergence, which
        # test_divergence_against_fd checks against finite differences of
        # the reference inverse, contracted sample by sample; and its
        # degree-2 partial sum against the reference's degree-2 truncation.
        # Bounded against the sum of the magnitudes of the products each
        # invariant adds up
        p = generate_sample(n, seed=20 + n)
        me = metric_expansion(p, seed=3, deg3_scale=5.0)
        S = p.S
        rng = np.random.default_rng(n)

        def forms(g, S, z, Sz):
            gz, gSz = np.matmul(g, np.stack([z, Sz], axis=2)).transpose(2, 0, 1)
            return (np.trace(g, axis1=1, axis2=2), g.reshape(len(z), -1) @ S.ravel(),
                    np.sum(z * gz, axis=1), np.sum(z * gSz + Sz * gz, axis=1))

        for B in (1, 16 * _BLOCK + 37):
            z = 0.6 * rng.standard_normal((B, p.m))
            t = 0.8 * rng.random(B)
            Sz = z @ S
            split = metric_invariants(me, t, z)
            assert split.shape == (4, 6, B)
            for delta in (0.01, 0.5):
                for deg in (2, 4):
                    g = ref_metric_g(me, delta * t, delta * z, deg)
                    got = degree_sum(split[:deg], delta)
                    for i, (want, mag) in enumerate(zip(
                            forms(g, S, z, Sz), forms(*map(np.abs, (g, S, z, Sz))))):
                        err = np.max(np.abs(got[i] - want))
                        assert err <= 1e-13 * np.max(mag), (B, delta, deg, i, err)
                div = ref_metric_divergence(me, delta * t, delta * z)
                for row, x in zip(got[4:], (z, Sz)):
                    err = np.max(np.abs(row - np.sum(div * x, axis=1)))
                    assert err <= 1e-13 * np.max(np.sum(np.abs(div * x), axis=1)), \
                        (B, delta, err)

    @pytest.mark.parametrize("n", [11, 15])
    @pytest.mark.parametrize("deg", [2, 4, "split"])
    def test_sample_bits_independent_of_batch(self, n, deg):
        # a sample's degree split, and its sums through degree 2 and 4 as
        # the residual ladder reads them, have the same bits alone, inside
        # an odd-size batch and inside a batch of more than two blocks, at
        # offsets from the first to the last column of a block
        p = generate_sample(n, seed=40 + n)
        me = metric_expansion(p, seed=3, deg3_scale=5.0)
        rng = np.random.default_rng(n + (0 if deg == "split" else deg))
        B = 2 * _BLOCK + 301
        z = 0.6 * rng.standard_normal((B, p.m))
        t = 0.8 * rng.random(B)

        def invariants(t, z):
            split = metric_invariants(me, t, z)
            return split if deg == "split" else degree_sum(split[:deg], 0.3)

        full = invariants(t, z)
        lo, hi = 5, 5 + 777
        odd = invariants(t[lo:hi], z[lo:hi])
        assert np.array_equal(odd, full[..., lo:hi])
        for i in (0, 7, _BLOCK - 1, _BLOCK + 200, B - 1):
            alone = invariants(t[i:i + 1], z[i:i + 1])
            assert np.array_equal(alone, full[..., i:i + 1]), i


# hashes make_battery(n, 5, seed) for n = 11..15 and seeds 1..3, and the
# degree split of metric_invariants of each battery's first point on fixed
# samples
_THREAD_HASH_SCRIPT = """
import hashlib
import numpy as np
from halfbubble.geometry import make_battery, metric_expansion, metric_invariants
for n in range(11, 16):
    for seed in (1, 2, 3):
        points = make_battery(n, 5, seed)
        h = hashlib.sha256()
        for p in points:
            for x in (p.Rbar, p.S, p.D2, p.Rnnnn, p.Wbar2, p.gamma):
                h.update(np.asarray(x, dtype=float).tobytes())
        me = metric_expansion(points[0], seed=0, deg3_scale=5.0)
        rng = np.random.default_rng(seed)
        t, z = np.abs(rng.standard_normal(700)), rng.standard_normal((700, n - 1))
        inv = h.copy()
        inv.update(metric_invariants(me, t, z).tobytes())
        print(n, seed, h.hexdigest(), inv.hexdigest())
"""


@pytest.fixture(scope="module")
def blas_thread_hashes():
    """The script's output under one and under two BLAS threads, each in a
    fresh interpreter, so OpenBLAS reads its thread count at start-up."""
    src = str(Path(geometry.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", _THREAD_HASH_SCRIPT],
                             env=env, check=True, capture_output=True,
                             text=True, timeout=300)
        outputs.append([line.split() for line in out.stdout.splitlines()])
    return outputs


class TestBlasThreadCount:
    """Generated data and the invariant kernel have the same bits for one
    and two BLAS threads, at every supported n."""

    def test_battery_same_bits_for_one_and_two_threads(self, blas_thread_hashes):
        one, two = ([row[:3] for row in rows] for rows in blas_thread_hashes)
        assert len(one) == 15
        assert one == two

    def test_invariants_same_bits_for_one_and_two_threads(self, blas_thread_hashes):
        one, two = ([row[:2] + row[3:] for row in rows]
                    for rows in blas_thread_hashes)
        assert one == two
