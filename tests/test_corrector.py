"""Corrector tests: channel reduction, profile solve, verification."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RectBivariateSpline
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from halfbubble import corrector
from halfbubble.corrector import (
    DEFAULT_TOL_SOLVER,
    CorrectorSolution,
    GridConfig,
    Profile2D,
    check_solvability,
    eval_v_derivatives,
    self_convergence,
    solve_profile,
    solve_vq,
    source_radial,
    verify_corrector,
)
from halfbubble.errors import DomainError, SolverError
from halfbubble.geometry import (
    CurvaturePoint,
    generate_sample,
    metric_expansion,
    validate_curvature,
)
from halfbubble.quadrature import (panel_gauss_nodes, quadratic_sphere_moment,
                                   sphere_area)
from bubble_reference import eval_source, eval_U, eval_U_hess
from dissection_reference import nested_dissection
from metric_reference import ref_metric_g
from test_cli import with_trace


def random_traceless(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    S = 0.5 * (A + A.T)
    return S - np.trace(S) / m * np.eye(m)


def plain_nodes(n, grid):
    """The plain (not Richardson) node solve on grid: psi, tau, sigma,
    residual, sigma_min and probe steps."""
    return corrector._solve_nodes(n, grid, DEFAULT_TOL_SOLVER)


def plain_profile(n, grid):
    """The interpolant of the plain node solve on grid."""
    psi, tau, sigma, *_ = plain_nodes(n, grid)
    return Profile2D(n=n, grid=grid, tau=tau, sigma=sigma, psi=psi)


def zero_pattern_point(n):
    m = n - 1
    base = generate_sample(n, seed=0)
    return replace(base, S=np.zeros((m, m)), Rnnnn=0.0, D2=0.0)


# ---------------------------------------------------------------------------
# Angular channel


class TestHarmonicPattern:
    """The degree-2 pattern Y(theta) = theta . S theta and its mean square
    <Y^2>, quadratic_sphere_moment(S, 2)."""

    def test_rejects_asymmetric(self):
        # S is checked once, by validate_curvature at --tol-sym
        S = np.zeros((10, 10))
        S[0, 1] = 1.0
        point = replace(generate_sample(11, seed=0), S=S)
        failures = [c.name for c in validate_curvature(point).failures()]
        assert "s_symmetric" in failures

    def test_rejects_trace(self):
        point = replace(generate_sample(11, seed=0), S=np.eye(10))
        failures = [c.name for c in validate_curvature(point).failures()]
        assert "s_traceless" in failures
        # a trace of 1e-10 |S| fails the default tolerance, passes a looser one
        base = generate_sample(11, seed=0)
        S = base.S + 1e-10 * np.linalg.norm(base.S) / base.m * np.eye(base.m)
        point = replace(base, S=S)
        assert not validate_curvature(point, tol=1e-12).passed
        assert validate_curvature(point, tol=1e-8).passed

    def test_y_scale_invariant(self):
        S = random_traceless(10, 2)
        z = np.random.default_rng(0).standard_normal((20, 10))
        y = corrector._y_of_z
        np.testing.assert_allclose(y(S, z), y(S, 3.7 * z), rtol=1e-13)

    def test_mean_square_closed_form(self):
        # <Y^2> over S^{n-2} = area * 2|S|^2 / ((n-1)(n+1))
        for n in (11, 13):
            S = random_traceless(n - 1, n)
            expected = sphere_area(n - 2) * 2.0 * np.sum(S * S) / ((n - 1) * (n + 1))
            assert quadratic_sphere_moment(S, 2) == pytest.approx(expected, rel=1e-12)

    def test_mean_square_vs_sphere_mc(self):
        n = 11
        S = random_traceless(n - 1, 5)
        rng = np.random.default_rng(99)
        g = rng.standard_normal((200000, n - 1))
        theta = g / np.linalg.norm(g, axis=1, keepdims=True)
        y2 = np.einsum("bi,ij,bj->b", theta, S, theta) ** 2
        area = sphere_area(n - 2)
        est = area * y2.mean()
        se = area * y2.std(ddof=1) / math.sqrt(len(y2))
        assert abs(est - quadratic_sphere_moment(S, 2)) < 3.0 * se


class TestReduction:
    def test_source_radial_frozen(self):
        # t = r = 1: Q = 5, value = 99 * 5^{-13/2}
        assert source_radial(11, 1.0, 1.0) == pytest.approx(99.0 * 5.0 ** -6.5, rel=1e-14)

    def test_pointwise_cancellation(self):
        """Metric quadratic block against the bubble Hessian collapses to the
        single-channel source: the curvature part cancels pointwise."""
        n = 11
        pt = generate_sample(n, seed=3)
        me = metric_expansion(pt)
        rng = np.random.default_rng(7)
        t = 10.0 ** rng.uniform(-1, 1, 40)
        z = rng.standard_normal((40, n - 1)) * 2.0
        M2 = ref_metric_g(me, t, z, through_degree=2)
        hess = eval_U_hess(n, t, z)
        direct = np.einsum("bij,bij->b", M2, hess[:, : n - 1, : n - 1])
        src = eval_source(pt, t, z)
        np.testing.assert_allclose(direct, src, rtol=5e-12, atol=1e-300)

    def test_curvature_block_alone_cancels(self):
        n = 11
        pt = zero_pattern_point(n)
        me = metric_expansion(pt)
        rng = np.random.default_rng(8)
        t = 10.0 ** rng.uniform(-1, 1, 40)
        z = rng.standard_normal((40, n - 1)) * 2.0
        M2 = ref_metric_g(me, t, z, through_degree=2)
        hess = eval_U_hess(n, t, z)
        direct = np.einsum("bij,bij->b", M2, hess[:, : n - 1, : n - 1])
        scale = np.max(np.abs(M2), axis=(1, 2)) * np.max(np.abs(hess), axis=(1, 2))
        assert np.max(np.abs(direct) / np.maximum(scale, 1e-300)) < 1e-13


# ---------------------------------------------------------------------------
# Profile solve


def assemble_by_loop(n, grid):
    """Node-by-node reference for corrector._assemble: dense matrix and
    right-hand side before row equilibration."""
    Nt, Nr = grid.n_t, grid.n_r
    Lt = Lr = corrector._MAP_SCALE
    tau = np.linspace(0.0, grid.t_max / (Lt + grid.t_max), Nt + 1)
    sigma = np.linspace(0.0, grid.r_max / (Lr + grid.r_max), Nr + 1)
    ht, hs = tau[1] - tau[0], sigma[1] - sigma[0]
    t, r = Lt * tau / (1.0 - tau), Lr * sigma / (1.0 - sigma)
    tp, tpp = Lt / (1.0 - tau) ** 2, 2.0 * Lt / (1.0 - tau) ** 3
    rp, rpp = Lr / (1.0 - sigma) ** 2, 2.0 * Lr / (1.0 - sigma) ** 3
    NJ = Nr + 1
    M = np.zeros(((Nt + 1) * NJ, (Nt + 1) * NJ))
    rhs = np.zeros((Nt + 1) * NJ)

    def add(i, j, i2, j2, v):
        M[i * NJ + j, i2 * NJ + j2] += v

    for i in range(1, Nt):
        aT = 1.0 / (tp[i] ** 2 * ht * ht)
        bT = -tpp[i] / tp[i] ** 3 / (2.0 * ht)
        for j in range(1, Nr):
            aR = 1.0 / (rp[j] ** 2 * hs * hs)
            bR = (-rpp[j] / rp[j] ** 3 + (n - 2.0) / (r[j] * rp[j])) / (2.0 * hs)
            add(i, j, i + 1, j, aT + bT)
            add(i, j, i - 1, j, aT - bT)
            add(i, j, i, j + 1, aR + bR)
            add(i, j, i, j - 1, aR - bR)
            add(i, j, i, j, -2.0 * aT - 2.0 * aR - 2.0 * (n - 1.0) / r[j] ** 2)
            rhs[i * NJ + j] = -source_radial(n, t[i], r[j])
    for i in range(Nt + 1):
        add(i, 0, i, 0, 1.0)
    c0 = 1.0 / (2.0 * ht * tp[0])
    cN = t[Nt] / (2.0 * ht * tp[Nt])
    for j in range(1, Nr):
        add(0, j, 0, j, -3.0 * c0 + n / (1.0 + r[j] ** 2))
        add(0, j, 1, j, 4.0 * c0)
        add(0, j, 2, j, -c0)
        cr = r[j] / (2.0 * hs * rp[j])
        add(Nt, j, Nt, j, 3.0 * cN - (4.0 - n))
        add(Nt, j, Nt - 1, j, -4.0 * cN)
        add(Nt, j, Nt - 2, j, cN)
        add(Nt, j, Nt, j + 1, cr)
        add(Nt, j, Nt, j - 1, -cr)
    cr = r[Nr] / (2.0 * hs * rp[Nr])
    for i in range(Nt + 1):
        add(i, Nr, i, Nr, 3.0 * cr - (4.0 - n))
        add(i, Nr, i, Nr - 1, -4.0 * cr)
        add(i, Nr, i, Nr - 2, cr)
        ct = t[i] / (2.0 * ht * tp[i])
        if i == Nt:
            add(i, Nr, i, Nr, 3.0 * ct)
            add(i, Nr, i - 1, Nr, -4.0 * ct)
            add(i, Nr, i - 2, Nr, ct)
        elif i > 0:
            add(i, Nr, i + 1, Nr, ct)
            add(i, Nr, i - 1, Nr, -ct)
    return M, rhs


def equilibrate_by_diags(M, rhs):
    """Reference row equilibration: diags(1/scale) @ M with the largest
    |entry| of each row as its scale, back in CSC."""
    scale = np.maximum(np.abs(M).max(axis=1).toarray().ravel(), 1e-300)
    return (diags(1.0 / scale) @ M).tocsc(), rhs / scale


class TestSolveProfile:
    @pytest.mark.parametrize("n,cells,t_max,nested", [
        (11, 24, 40.0, False), (15, 96, 160.0, True)],
        ids=["row-major-24", "nested-96"])
    def test_equilibration_matches_diags_reference(self, monkeypatch, n,
                                                   cells, t_max, nested):
        grid = GridConfig(n_t=cells, n_r=cells + 4, t_max=t_max, r_max=t_max)
        label = (corrector._nested_dissection(cells + 1, cells + 5)[1]
                 if nested else np.arange((cells + 1) * (cells + 5))
                 .reshape(cells + 1, cells + 5))
        built = []

        def recording_csc(*args, **kwargs):
            M = csc_matrix(*args, **kwargs)
            built.append(M.copy())
            return M

        monkeypatch.setattr(corrector, "csc_matrix", recording_csc)
        M, rhs, tau, sigma = corrector._assemble(n, grid, label)
        # the right-hand side before equilibration, in label's numbering
        t = corrector._stretch(tau)[0]
        r = corrector._stretch(sigma)[0]
        raw = np.zeros(M.shape[0])
        raw[label[1:-1, 1:-1]] = -source_radial(n, t[1:-1, None],
                                                r[None, 1:-1])
        ref, ref_rhs = equilibrate_by_diags(built[0], raw)
        np.testing.assert_array_equal(M.indptr, ref.indptr)
        np.testing.assert_array_equal(M.indices, ref.indices)
        np.testing.assert_array_equal(M.data, ref.data)
        np.testing.assert_array_equal(rhs, ref_rhs)

    @pytest.mark.parametrize("n,cells", [(11, 16), (15, 24)])
    def test_assemble_matches_loop_reference(self, n, cells):
        grid = GridConfig(n_t=cells, n_r=cells + 4, t_max=30.0, r_max=30.0)
        M, rhs, _, _ = corrector._assemble(n, grid)
        ref, ref_rhs = assemble_by_loop(n, grid)
        scale = np.abs(ref).max(axis=1)
        # same stencil, same arithmetic per entry: rounding-level agreement
        np.testing.assert_array_equal(M.toarray() != 0, ref != 0)
        np.testing.assert_allclose(M.toarray(), ref / scale[:, None],
                                   rtol=0, atol=4e-16)
        np.testing.assert_allclose(rhs, ref_rhs / scale,
                                   rtol=0, atol=4e-16 * np.abs(rhs).max())

    def test_diagnostics(self):
        _, diag = solve_profile(11)
        assert diag.discrete_residual <= 1e-8
        assert diag.sigma_min >= 1e-6

    def test_axis_column_zero(self):
        prof, _ = solve_profile(11)
        np.testing.assert_array_equal(prof.psi[:, 0], 0.0)

    def test_profile_nontrivial_and_bounded(self):
        prof, _ = solve_profile(11)
        assert prof.psi.max() > 1e-4
        assert np.all(np.isfinite(prof.psi))

    def test_cache_identity(self):
        p1, _ = solve_profile(11)
        assert solve_profile(11)[0] is p1
        assert solve_profile(11, GridConfig(), DEFAULT_TOL_SOLVER)[0] is p1
        # the profile is the fourth-order combination of the plain solves
        # at N and 2N cells
        grid = GridConfig(n_t=48, n_r=48, t_max=40.0, r_max=40.0)
        rich, _ = solve_profile(11, grid)
        assert solve_profile(11, grid)[0] is rich and rich is not p1
        coarse = plain_nodes(11, grid)[0]
        fine = plain_nodes(11, grid.refined(2))[0][::2, ::2]
        np.testing.assert_array_equal(rich.psi, fine + (fine - coarse) / 3.0)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridConfig(n_t=4)
        with pytest.raises(DomainError):
            GridConfig(t_max=2.0)

    def test_pde_residual_second_order(self):
        # verify's off-grid residuals (seeds 0 and 1) of the plain solves
        # at 96 and 192 cells on caps 40
        grid = GridConfig(n_t=96, n_r=96, t_max=40.0, r_max=40.0)
        reps = [(corrector._pde_residual_offgrid(prof, 11, 0),
                 corrector._bc_residual(prof, 11, 1))
                for prof in (plain_profile(11, grid),
                             plain_profile(11, grid.refined(2)))]
        (pde1, bc1), (pde2, bc2) = reps
        assert pde1 <= 2e-2
        assert pde2 <= 0.5 * pde1
        assert bc1 <= 5e-2
        assert bc2 <= 0.5 * bc1

    def test_self_convergence_order(self):
        study = self_convergence(11)
        assert study["order"] >= 1.9

    def test_default_study_is_the_fixed_triple(self):
        # reference: plain solves at 96, 192 and 384 cells on t_max = 160
        grid = GridConfig(n_t=96, n_r=96, t_max=160.0, r_max=160.0)
        coarse = plain_nodes(11, grid)[0]
        mid = plain_nodes(11, grid.refined(2))[0][::2, ::2]
        fine = plain_nodes(11, grid.refined(4))[0][::4, ::4]
        limit = fine + (fine - mid) / 3.0
        inner = (slice(1, -1), slice(1, -1))
        e1 = float(np.max(np.abs(coarse[inner] - limit[inner])))
        e2 = float(np.max(np.abs(mid[inner] - limit[inner])))
        want = {"order": math.log2(e1 / e2), "coarse_error": e1,
                "fine_error": e2}
        assert self_convergence(11) == want
        assert self_convergence(11, GridConfig(), DEFAULT_TOL_SOLVER) == want

    def test_halved_grid(self):
        assert GridConfig().halved() == GridConfig(n_t=96, n_r=96)
        grid = GridConfig(n_t=16, n_r=32, t_max=160.0, r_max=80.0)
        assert grid.halved() == GridConfig(8, 16, 160.0, 80.0)
        for n_t, n_r in ((95, 96), (96, 95), (14, 16), (8, 8)):
            with pytest.raises(DomainError, match=f"{n_t} x {n_r} cells"):
                GridConfig(n_t=n_t, n_r=n_r).halved()

    def test_node_solves_memoized_read_only(self):
        grid = GridConfig(n_t=32, n_r=32, t_max=160.0, r_max=160.0)
        first = corrector._solve_nodes(11, grid, 1e-8)
        assert corrector._solve_nodes(11, grid, 1e-8) is first
        for arr in first[:3]:
            assert not arr.flags.writeable

    def test_study_on_a_richardson_grid_adds_the_half_solve(self,
                                                            monkeypatch):
        # the Richardson pair leaves its N and 2N node solves memoized, so
        # the study of its grid factors only the N/2 system
        grid = GridConfig(n_t=40, n_r=40, t_max=160.0, r_max=160.0)
        corrector._solve_nodes.cache_clear()
        corrector._solve_profile_cached.__wrapped__(13, grid, 1e-8)
        sizes, real_splu = [], corrector.splu

        def counting_splu(M, **kwargs):
            sizes.append(M.shape[0])
            return real_splu(M, **kwargs)

        monkeypatch.setattr(corrector, "splu", counting_splu)
        self_convergence(13, grid)
        assert sizes == [21 * 21]

    def test_richardson_closer_to_limit(self):
        grid = GridConfig(n_t=48, n_r=48, t_max=40.0, r_max=40.0)
        rich, _ = solve_profile(11, grid)
        plain = plain_nodes(11, grid)[0]
        ref = plain_nodes(11, grid.refined(4))[0][::4, ::4]
        inner = (slice(1, -1), slice(1, -1))
        e_rich = np.max(np.abs(rich.psi[inner] - ref[inner]))
        e_plain = np.max(np.abs(plain[inner] - ref[inner]))
        assert e_rich <= 0.25 * e_plain


def probe_25_steps(lu, size):
    """Reference for the sigma_min probe: the former fixed 25 steps of
    inverse iteration on A^T A from the same start."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    for _ in range(25):
        w = lu.solve(lu.solve(v, trans="N"), trans="T")
        lam = float(np.linalg.norm(w))
        v = w / lam
    return 1.0 / math.sqrt(lam)


class TestSigmaMinProbe:
    @pytest.mark.parametrize("cells", [48, 96])
    @pytest.mark.parametrize("n", [11, 15])
    def test_converged_matches_25_steps(self, n, cells):
        grid = GridConfig(n_t=cells, n_r=cells, t_max=160.0, r_max=160.0)
        M, _, _, _ = corrector._assemble(n, grid)
        ref = probe_25_steps(splu(M), M.shape[0])
        *_, smin, steps = plain_nodes(n, grid)
        assert smin == pytest.approx(ref, rel=1e-6, abs=0.0)
        assert 1 <= steps < corrector._PROBE_MAX_STEPS

    def test_one_probe_per_factor_through_module_names(self, monkeypatch):
        # the benchmark's trace hooks corrector.splu and
        # corrector._sigma_min_probe by name; a renamed or bypassed call
        # would leave its probe time and solve count silently at zero
        real_splu, real_probe = corrector.splu, corrector._sigma_min_probe
        factors, probes = [], []

        class CountingLU:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, *args, **kwargs):
                self.solves += 1
                return self.lu.solve(*args, **kwargs)

        def counting_splu(M, **kwargs):
            factors.append(CountingLU(real_splu(M, **kwargs)))
            return factors[-1]

        def recording_probe(lu, order):
            smin, steps = real_probe(lu, order)
            probes.append((lu, steps))
            return smin, steps

        monkeypatch.setattr(corrector, "splu", counting_splu)
        monkeypatch.setattr(corrector, "_sigma_min_probe", recording_probe)
        grid = GridConfig(n_t=48, n_r=48, t_max=40.0, r_max=40.0)
        # the uncached Richardson pair: one factorization per solve
        corrector._solve_nodes.cache_clear()
        _, diag = corrector._solve_profile_cached.__wrapped__(13, grid, 1e-8)
        assert len(factors) == 2
        assert [lu for lu, _ in probes] == factors
        for lu, steps in probes:
            # one solve for the profile, two per probe step
            assert lu.solves == 1 + 2 * steps
        assert diag.probe_steps == max(steps for _, steps in probes)

    @pytest.mark.parametrize("cells", [16, 24])
    @pytest.mark.parametrize("n", [11, 13, 15])
    def test_matches_dense_svd(self, n, cells):
        grid = GridConfig(n_t=cells, n_r=cells, t_max=160.0, r_max=160.0)
        M, _, _, _ = corrector._assemble(n, grid)
        smin, _ = corrector._sigma_min_probe(splu(M), np.arange(M.shape[0]))
        ref = np.linalg.svd(M.toarray(), compute_uv=False)[-1]
        assert smin == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_benchmark_grid_n15_within_8_steps(self):
        # inverse power iteration on A^T A took 17 steps on this factor
        grid = GridConfig(n_t=96, n_r=96, t_max=160.0, r_max=160.0)
        assert plain_nodes(15, grid)[5] <= 8

    def test_unconverged_probe_raises(self, monkeypatch):
        # an estimate short of ||(A^T A)^-1|| overstates sigma_min, so a
        # probe out of steps fails the solve instead of passing the gate
        monkeypatch.setattr(corrector, "_PROBE_MAX_STEPS", 2)
        grid = GridConfig(n_t=48, n_r=48, t_max=160.0, r_max=160.0)
        corrector._solve_nodes.cache_clear()
        with pytest.raises(SolverError, match="did not converge in 2 steps"):
            corrector._solve_profile_cached.__wrapped__(11, grid, 1e-8)

    def test_same_bits_for_one_and_two_blas_threads(self):
        # fresh interpreters, so OpenBLAS reads its thread count at start-up
        src = str(Path(corrector.__file__).resolve().parents[1])
        script = (
            "from halfbubble.corrector import GridConfig, solve_profile\n"
            "grid = GridConfig(n_t=96, n_r=96, t_max=160.0, r_max=160.0)\n"
            "for n in (11, 15):\n"
            "    _, d = solve_profile(n, grid)\n"
            "    print(d.sigma_min.hex(), d.probe_steps)\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 check=True, capture_output=True, text=True,
                                 timeout=300)
            outputs.append(out.stdout.split())
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

    def test_tol_above_sigma_min_raises(self):
        grid = GridConfig(n_t=48, n_r=48, t_max=160.0, r_max=160.0)
        _, diag = solve_profile(11, grid)
        with pytest.raises(SolverError, match="sigma_min"):
            solve_profile(11, grid, tol_solver=2.0 * diag.sigma_min)


def check_dissection(label, i0, i1, j0, j1):
    """The nodes of block [i0, i1) x [j0, j1) hold consecutive positions;
    in a block wider than a leaf, one full line of nodes holds the last of
    them, after the two blocks on either side, which pass the same check."""
    pos = label[i0:i1, j0:j1]
    first, last = int(pos.min()), int(pos.max())
    assert last - first + 1 == pos.size
    if max(i1 - i0, j1 - j0) <= corrector._ND_LEAF:
        return
    i, j = (int(k) for k in np.argwhere(label == last)[0])
    row, col = label[i, j0:j1], label[i0:i1, j]
    if row.min() == last - row.size + 1 and row.max() == last:
        halves = [(i0, i, j0, j1), (i + 1, i1, j0, j1)]
    else:
        assert col.min() == last - col.size + 1 and col.max() == last
        halves = [(i0, i1, j0, j), (i0, i1, j + 1, j1)]
    for a0, a1, b0, b1 in halves:
        assert a1 > a0 and b1 > b0
        check_dissection(label, a0, a1, b0, b1)


class TestNestedDissection:
    @pytest.mark.parametrize("shape", [(97, 97), (193, 193), (17, 23), (9, 40)])
    def test_order_is_a_permutation_with_separators_last(self, shape):
        order, label = corrector._nested_dissection(*shape)
        np.testing.assert_array_equal(np.sort(order), np.arange(order.size))
        np.testing.assert_array_equal(label.ravel()[order],
                                      np.arange(order.size))
        check_dissection(label, 0, shape[0], 0, shape[1])

    @pytest.mark.parametrize("shape", [(97, 97), (193, 193), (385, 385),
                                       (17, 23), (9, 40), (40, 9), (4, 4),
                                       (5, 9)])
    def test_matches_recursive_reference(self, shape):
        got = corrector._nested_dissection(*shape)
        for g, ref in zip(got, nested_dissection(*shape)):
            assert g.dtype == ref.dtype and g.shape == ref.shape
            np.testing.assert_array_equal(g, ref)
            assert not g.flags.writeable

    def test_assembled_in_order_is_the_permuted_system(self):
        grid = GridConfig(n_t=24, n_r=28, t_max=40.0, r_max=40.0)
        M, rhs, _, _ = corrector._assemble(13, grid)
        order, label = corrector._nested_dissection(25, 29)
        M_nd, rhs_nd, _, _ = corrector._assemble(13, grid, label)
        np.testing.assert_array_equal(M_nd.toarray(),
                                      M.toarray()[order][:, order])
        np.testing.assert_array_equal(rhs_nd, rhs[order])

    @pytest.mark.parametrize("cells", [48, 96])
    @pytest.mark.parametrize("n", [11, 15])
    def test_profile_and_probe_match_colamd(self, n, cells):
        grid = GridConfig(n_t=cells, n_r=cells, t_max=160.0, r_max=160.0)
        M, rhs, _, _ = corrector._assemble(n, grid)
        lu = splu(M)
        ref = lu.solve(rhs).reshape(cells + 1, cells + 1)
        smin, steps = corrector._sigma_min_probe(lu, np.arange(M.shape[0]))
        psi, *_, smin_nd, steps_nd = plain_nodes(n, grid)
        assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert smin_nd == pytest.approx(smin, rel=1e-6, abs=0.0)
        # the start vector is drawn in node order: the same iteration
        assert steps_nd == steps

    def test_fill_below_colamd(self):
        grid = GridConfig(n_t=96, n_r=96, t_max=160.0, r_max=160.0)
        M, _, _, _ = corrector._assemble(11, grid)
        _, label = corrector._nested_dissection(97, 97)
        M_nd, _, _, _ = corrector._assemble(11, grid, label)
        fill = splu(M_nd, **corrector._LU_OPTIONS).nnz
        assert fill < splu(M).nnz
        # and below the same order at SuperLU's default pivot threshold of 1
        assert fill < splu(M_nd, permc_spec="NATURAL").nnz

    @pytest.mark.parametrize("cells", [96, 192])
    @pytest.mark.parametrize("n", [11, 15])
    def test_factor_keeps_the_diagonal(self, n, cells):
        grid = GridConfig(n_t=cells, n_r=cells, t_max=160.0, r_max=160.0)
        _, label = corrector._nested_dissection(cells + 1, cells + 1)
        M, _, _, _ = corrector._assemble(n, grid, label)
        lu = splu(M, **corrector._LU_OPTIONS)
        swaps = np.count_nonzero(lu.perm_r != np.arange(M.shape[0]))
        # the default pivot threshold of 1 swaps 1,043 to 1,090 rows at 192
        # cells
        assert swaps <= 10


def fitpack_reference(prof):
    """FITPACK's interpolating quintic on the profile's own nodes: the
    reference for the in-house interpolant."""
    return RectBivariateSpline(prof.tau, prof.sigma, prof.psi, kx=5, ky=5)


def jet_by_dispatch(prof, t, r, spline=None):
    """Reference for Profile2D.eval: one FITPACK partial per call on the
    reference spline (or on spline), each (dt, dr) mapping (t, r) again,
    joined by the chain rule."""
    spline = fitpack_reference(prof) if spline is None else spline
    Lt = Lr = corrector._MAP_SCALE

    def one(dt, dr):
        tau = t / (Lt + t)
        sigma = r / (Lr + r)
        tp = Lt / (1.0 - tau) ** 2
        tpp = 2.0 * Lt / (1.0 - tau) ** 3
        rp = Lr / (1.0 - sigma) ** 2
        rpp = 2.0 * Lr / (1.0 - sigma) ** 3

        def s(dx, dy):
            return spline(tau.ravel(), sigma.ravel(), dx=dx, dy=dy,
                          grid=False).reshape(tau.shape)

        if dt == 0 and dr == 0:
            return s(0, 0)
        if dt == 1 and dr == 0:
            return s(1, 0) / tp
        if dt == 0 and dr == 1:
            return s(0, 1) / rp
        if dt == 2 and dr == 0:
            return s(2, 0) / tp ** 2 - s(1, 0) * tpp / tp ** 3
        return s(0, 2) / rp ** 2 - s(0, 1) * rpp / rp ** 3

    return tuple(one(dt, dr) for dt, dr in
                 ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)))


def overlap_by_meshgrid(prof, order=8):
    """Reference for Profile2D.source_overlap: the panel Gauss rule on a
    flattened meshgrid of its nodes, one scattered call of the reference
    spline."""
    n = prof.n
    Lt = Lr = corrector._MAP_SCALE
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = lambda e: 0.5 * (e[:-1] + e[1:])
    half = lambda e: 0.5 * (e[1:] - e[:-1])
    xs = (mid(prof.tau)[:, None] + half(prof.tau)[:, None] * nodes).ravel()
    ys = (mid(prof.sigma)[:, None] + half(prof.sigma)[:, None] * nodes).ravel()
    wx = (half(prof.tau)[:, None] * weights).ravel()
    wy = (half(prof.sigma)[:, None] * weights).ravel()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tau, sigma = X.ravel(), Y.ravel()
    t = Lt * tau / (1.0 - tau)
    r = Lr * sigma / (1.0 - sigma)
    jac = Lt / (1.0 - tau) ** 2 * Lr / (1.0 - sigma) ** 2
    psi = fitpack_reference(prof)(tau, sigma, grid=False)
    vals = psi * source_radial(n, t, r) * r ** (n - 2) * jac
    return float(wx @ vals.reshape(X.shape) @ wy)


def overlap_whole_grid(prof):
    """Reference for the bits of Profile2D.source_overlap: its sums on the
    whole Gauss grid at once, psi as the full basis matrices times the
    coefficients."""
    n = prof.n
    kt, ks = prof._knots
    tau, wt = panel_gauss_nodes(prof.tau, 8)
    sigma, ws = panel_gauss_nodes(prof.sigma, 8)
    t, tp, _ = corrector._stretch(tau[:, None])
    r = corrector._stretch(sigma)[0]
    jac = tp * corrector._MAP_SCALE / (1.0 - sigma) ** 2
    psi = (corrector._basis_matrix(kt, tau)[0] @ prof._coef
           @ corrector._basis_matrix(ks, sigma)[0].T)
    vals = psi * source_radial(n, t, r) * r ** (n - 2) * jac
    return float(wt @ vals @ ws)


def assert_rel_close(got, ref, rel=1e-13, where=None):
    """max |got - ref| <= rel * max |ref| over all points, and over each
    subset in where (a dict of index expressions) against the same scale."""
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref))
    err = np.abs(got - ref)
    assert np.max(err) <= rel * scale
    for name, mask in (where or {}).items():
        assert np.max(err[mask]) <= rel * scale, name


JET_GRID = GridConfig(n_t=32, n_r=40, t_max=30.0, r_max=30.0)


@pytest.fixture(scope="module", params=[(11, False), (11, True),
                                        (15, False), (15, True)],
                ids=["n11", "n11-richardson", "n15", "n15-richardson"])
def jet_profile(request):
    n, rich = request.param
    return solve_profile(n, JET_GRID)[0] if rich else plain_profile(n, JET_GRID)


# the benchmark grid: 96 cells on the default caps
BENCH_GRID = GridConfig(n_t=96, n_r=96, t_max=160.0, r_max=160.0)


@pytest.fixture(scope="module", params=[11, 15], ids=["n11", "n15"])
def bench_profile(request):
    return solve_profile(request.param, BENCH_GRID)[0]


def reference_points(cap, seed=5):
    """Scattered (t, r) on the boundary line t = 0, next to the axis
    (r = 1e-9), in the interior and beyond the last node in t or in r,
    with the masks of those four sets."""
    rng = np.random.default_rng(seed)
    inner = lambda k: 10.0 ** rng.uniform(-3, math.log10(cap) - 0.05, k)
    t = np.concatenate([np.zeros(60), inner(60), inner(200),
                        np.full(30, 3.0 * cap), inner(30)])
    r = np.concatenate([inner(60), np.full(60, 1e-9), inner(200),
                        inner(30), np.full(30, 1e3 * cap)])
    sets = np.repeat(np.arange(4), [60, 60, 200, 60])
    return t, r, {name: sets == k for k, name in
                  enumerate(("boundary", "axis", "interior", "beyond"))}


class TestProfileJet:
    # nodes, the axis, the boundary line and far-field points
    t_col = np.concatenate([[0.0, 1e-12, 1e-6], np.geomspace(1e-3, 29.0, 37)])
    r_row = np.concatenate([[0.0, 1e-12, 1e-6], np.geomspace(1e-3, 29.0, 41)])

    def test_knots_and_coefficients_are_fitpacks(self, jet_profile):
        tx, ty, c = fitpack_reference(jet_profile).tck
        np.testing.assert_array_equal(jet_profile._knots[0], tx)
        np.testing.assert_array_equal(jet_profile._knots[1], ty)
        assert_rel_close(jet_profile._coef, c.reshape(jet_profile._coef.shape),
                         rel=1e-14)

    def test_interpolates_the_nodes(self, jet_profile):
        T, R = np.meshgrid(jet_profile.t_nodes[:-1], jet_profile.r_nodes[:-1],
                           indexing="ij")
        psi = jet_profile.psi[:-1, :-1]
        assert_rel_close(jet_profile.value(T, R), psi, rel=1e-14)

    def test_scattered_matches_dispatch(self, jet_profile):
        rng = np.random.default_rng(5)
        t = np.concatenate([np.zeros(20), 10.0 ** rng.uniform(-3, 1.4, 200)])
        r = np.concatenate([10.0 ** rng.uniform(-12, -3, 20),
                            10.0 ** rng.uniform(-3, 1.4, 200)])
        t[25:30] = 0.0  # the boundary line away from the axis
        got = jet_profile.eval(t, r)
        ref = jet_by_dispatch(jet_profile, t, r)
        assert len(got) == 5
        for g, w in zip(got, ref):
            assert_rel_close(g, w, where={"axis": slice(0, 20),
                                          "boundary": slice(25, 30)})
        # 2-D inputs keep their shape, and each point its value
        for g, w in zip(jet_profile.eval(t.reshape(20, 11), r.reshape(20, 11)),
                        got):
            np.testing.assert_array_equal(g, w.reshape(20, 11))

    def test_jet_and_value_match_fitpack(self, jet_profile):
        t, r, where = reference_points(JET_GRID.t_max)
        got = jet_profile.eval(t, r)
        for g, w in zip(got, jet_by_dispatch(jet_profile, t, r)):
            assert_rel_close(g, w, where=where)
        np.testing.assert_array_equal(jet_profile.value(t, r), got[0])

    def test_first_order_pass_is_the_jet_head(self, jet_profile):
        t, r, _ = reference_points(JET_GRID.t_max)
        head = jet_profile.eval(t, r, order=1)
        assert len(head) == 3
        for g, w in zip(head, jet_profile.eval(t, r)[:3]):
            np.testing.assert_array_equal(g, w)

    def test_bench_grid_matches_fitpack_by_parts(self, bench_profile):
        # on the benchmark grid FITPACK's own fit is about 9e-14 off the
        # exact interpolant in psi_rr near the axis at n = 11, so the fit
        # and the evaluation are held to FITPACK separately: the
        # coefficients, and the jet from FITPACK's evaluator carrying
        # this profile's coefficients
        prof = bench_profile
        spline = fitpack_reference(prof)
        tx, ty, c = spline.tck
        np.testing.assert_array_equal(prof._knots[0], tx)
        np.testing.assert_array_equal(prof._knots[1], ty)
        assert_rel_close(prof._coef, c.reshape(prof._coef.shape), rel=1e-14)
        spline.tck = (tx, ty, prof._coef.ravel())
        t, r, where = reference_points(BENCH_GRID.t_max)
        got = prof.eval(t, r)
        for g, w in zip(got, jet_by_dispatch(prof, t, r, spline)):
            assert_rel_close(g, w, where=where)
        np.testing.assert_array_equal(prof.value(t, r), got[0])

    def test_clamped_beyond_last_node(self, jet_profile):
        # FITPACK's evaluator clamps to the end knot: past the caps psi
        # keeps its value at the last node, in t and in r alike
        cap_t, cap_r = jet_profile.t_nodes[-1], jet_profile.r_nodes[-1]
        x = np.geomspace(1e-3, 20.0, 9)
        for far, near in (((1.5 * cap_t, x), (4.0 * cap_t, x)),
                          ((x, 1.5 * cap_r), (x, 1e6))):
            np.testing.assert_array_equal(jet_profile.value(*far),
                                          jet_profile.value(*near))
        assert_rel_close(jet_profile.value(2.0 * cap_t, x),
                         jet_profile.value(cap_t, x))

    def test_grid_matches_fitpack(self, jet_profile):
        self.check_grid(jet_profile)

    def test_bench_grid_path_matches_fitpack(self, bench_profile):
        self.check_grid(bench_profile)

    @staticmethod
    def check_grid(prof):
        # the tensor-grid value path (source_overlap's) against FITPACK
        cap = min(prof.grid.t_max, prof.grid.r_max)
        x = np.concatenate([[0.0, 1e-9], np.geomspace(1e-3, cap, 120),
                            [2.0 * cap]])
        spline = fitpack_reference(prof)
        s = x / (corrector._MAP_SCALE + x)
        panels = [psi for _, psi in prof._on_grid(s, s)]
        assert len(panels) == 2
        assert_rel_close(np.concatenate(panels, axis=1), spline(s, s),
                         where={"t = 0": (0, slice(None)),
                                "r = 1e-9": (slice(None), 1)})

    def test_tensor_grid_matches_scattered(self, jet_profile):
        T, R = np.meshgrid(self.t_col, self.r_row, indexing="ij")
        grid = jet_profile.eval(self.t_col[:, None], self.r_row[None, :])
        flat = jet_profile.eval(T, R)
        for g, f in zip(grid, flat):
            assert g.shape == T.shape
            np.testing.assert_array_equal(g, f)
        # a descending column evaluates point by point to the same values
        back = jet_profile.eval(self.t_col[::-1, None], self.r_row[None, :])
        for b, f in zip(back, flat):
            np.testing.assert_array_equal(b, f[::-1])

    def test_scalar_broadcasts(self, jet_profile):
        got = jet_profile.eval(0.0, self.r_row)
        ref = jet_profile.eval(np.zeros_like(self.r_row), self.r_row)
        for g, w in zip(got, ref):
            np.testing.assert_array_equal(g, w)

    def test_source_overlap_matches_meshgrid(self, jet_profile):
        assert jet_profile.source_overlap() == pytest.approx(
            overlap_by_meshgrid(jet_profile), rel=1e-13, abs=0.0)

    def test_bench_source_overlap_matches_meshgrid(self, bench_profile):
        assert bench_profile.source_overlap() == pytest.approx(
            overlap_by_meshgrid(bench_profile), rel=1e-13, abs=0.0)

    def test_source_overlap_bits_match_whole_grid(self, jet_profile):
        assert jet_profile.source_overlap() == overlap_whole_grid(jet_profile)

    def test_bench_source_overlap_bits_match_whole_grid(self, bench_profile):
        assert (bench_profile.source_overlap()
                == overlap_whole_grid(bench_profile))

    def test_source_overlap_bits_on_a_partial_panel(self):
        # 44 cells give 352 Gauss columns: five full panels and a half one
        prof = plain_profile(13, replace(JET_GRID, n_r=44))
        assert 8 * prof.grid.n_r % corrector._PANEL != 0
        assert prof.source_overlap() == overlap_whole_grid(prof)

    def test_source_overlap_traced_peak(self, bench_profile):
        # a fresh profile, so the overlap is not memoized; the whole Gauss
        # grid at once took 22.6 MiB of temporaries
        prof = Profile2D(n=bench_profile.n, grid=BENCH_GRID,
                         tau=bench_profile.tau, sigma=bench_profile.sigma,
                         psi=bench_profile.psi)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            value = prof.source_overlap()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == bench_profile.source_overlap()
        assert peak <= 4 * 2 ** 20


# ---------------------------------------------------------------------------
# Full corrector field


class TestCorrectorField:
    def test_zero_pattern_gives_zero_field(self):
        sol = solve_vq(zero_pattern_point(11))
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 5, 30)
        z = rng.standard_normal((30, 10))
        assert np.max(np.abs(eval_v_derivatives(sol, t, z)[0])) == 0.0
        assert sol.pairing() == 0.0

    def test_linearity_in_pattern(self):
        pt = generate_sample(11, seed=6)
        pt2 = replace(pt, S=2.0 * pt.S, Rnnnn=4.0 * pt.Rnnnn)
        s1 = solve_vq(pt)
        s2 = solve_vq(pt2)
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 5, 30)
        z = rng.standard_normal((30, 10)) * 2
        v1 = eval_v_derivatives(s1, t, z)[0]
        v2 = eval_v_derivatives(s2, t, z)[0]
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)
        assert s2.pairing() == pytest.approx(4.0 * s1.pairing(), rel=1e-12)

    def test_profile_shared_between_points(self):
        s1 = solve_vq(generate_sample(11, seed=1))
        s2 = solve_vq(generate_sample(11, seed=2))
        assert s1.profile is s2.profile

    def test_derivatives_match_fd(self):
        sol = solve_vq(generate_sample(11, seed=3))
        S = sol.point.S
        rng = np.random.default_rng(5)
        t = rng.uniform(0.5, 3.0, 6)
        z = rng.standard_normal((6, 10)) * 1.5

        def gradient(t, z):
            # (z_1..z_10, t) gradient rebuilt from the span form a z + b Sz
            v, v_t, a, b, *_ = eval_v_derivatives(sol, t, z)
            return np.column_stack([a[:, None] * z + b[:, None] * (z @ S), v_t])

        _, _, a, b, c, e, lap = eval_v_derivatives(sol, t, z)
        grad = gradient(t, z)
        Sz = z @ S
        hess = (a[:, None, None] * np.eye(10) + b[:, None, None] * S
                + c[:, None, None] * z[:, :, None] * z[:, None, :]
                + e[:, None, None] * (z[:, :, None] * Sz[:, None, :]
                                      + Sz[:, :, None] * z[:, None, :]))
        h = 1e-5
        for k in range(11):
            dt = h if k == 10 else 0.0
            dz = np.zeros(10)
            if k < 10:
                dz[k] = h
            vp = eval_v_derivatives(sol, t + dt, z + dz)[0]
            vm = eval_v_derivatives(sol, t - dt, z - dz)[0]
            fd = (vp - vm) / (2 * h)
            np.testing.assert_allclose(grad[:, k], fd, rtol=5e-5, atol=1e-10)
            fd2 = (gradient(t + dt, z + dz) - gradient(t - dt, z - dz)) / (2 * h)
            if k < 10:
                np.testing.assert_allclose(hess[:, :, k], fd2[:, :10], rtol=5e-4, atol=1e-8)
            else:
                v_tt = fd2[:, 10]
        np.testing.assert_allclose(lap, np.trace(hess, axis1=1, axis2=2) + v_tt,
                                   rtol=5e-4, atol=1e-8)

    def test_boundary_condition_full_field(self):
        n = 11
        sol = solve_vq(generate_sample(n, seed=3))
        rng = np.random.default_rng(9)
        z = rng.standard_normal((40, n - 1)) * 2
        t0 = np.zeros(40)
        val, v_t, *_ = eval_v_derivatives(sol, t0, z)
        u = eval_U(n, t0, z)
        lhs = v_t + n * u ** (2.0 / (n - 2.0)) * val
        scale = np.max(np.abs(v_t)) + np.max(np.abs(n * u ** (2.0 / (n - 2)) * val))
        assert np.max(np.abs(lhs)) <= 5e-2 * scale


# ---------------------------------------------------------------------------
# Verification suite


class TestVerification:
    def test_full_report_n11(self):
        sol = solve_vq(generate_sample(11, seed=3))
        rep = verify_corrector(sol)
        assert rep.passed()
        assert rep.pairing < 0.0
        assert abs(rep.decay_exponent - (-7.0)) <= 0.5
        assert abs(rep.angular_mean) <= 1e-14
        assert rep.boundary_orthogonality == 0.0
        assert abs(rep.far_field_shift) <= 1e-2
        assert rep.self_convergence_order >= 1.9

    @pytest.mark.parametrize("n", [14, 15])
    def test_far_field_compares_like_with_like(self, n):
        # the benchmark grid, h = 1/96 at t_max = 160, where the plain and
        # the Richardson pairings differ by about 1e-2: the re-solve of the
        # doubled domain is the Richardson profile, as the solution is
        grid = GridConfig(96, 96, 160.0, 160.0)
        point = generate_sample(n, seed=1)
        sol = solve_vq(point, grid)
        rep = verify_corrector(sol)
        assert abs(rep.far_field_shift) < 1e-3
        big = GridConfig(96, 96, 320.0, 320.0)
        pairing_big = (-quadratic_sphere_moment(point.S, 2)
                       * solve_profile(n, big)[0].source_overlap())
        base = sol.pairing()
        assert rep.far_field_shift == (pairing_big - base) / abs(base)

    @pytest.mark.parametrize("n", [11, 13, 15])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_samples_pass(self, n, seed):
        sol = solve_vq(generate_sample(n, seed=seed))
        rep = verify_corrector(sol)
        assert rep.passed()
        assert rep.pairing < 0.0

    def test_kernel_overlaps(self):
        pt = generate_sample(11, seed=11)
        overlaps = check_solvability(pt)
        assert overlaps.shape == (11,)
        # translation channels: odd angular moments are exact zeros
        np.testing.assert_array_equal(overlaps[:10], 0.0)
        assert abs(overlaps[10]) <= 1e-8

    def test_kernel_overlaps_zero_source(self):
        overlaps = check_solvability(zero_pattern_point(11))
        np.testing.assert_array_equal(overlaps, 0.0)

    @pytest.mark.parametrize("n", [11, 15])
    def test_dilation_overlap_matches_quad(self, n):
        # a trace of 1e-3 |S| leaves one nonzero overlap, the dilation's:
        # trace(S) |S^{n-2}|/(n-1) times the radial integral of the source
        # against the kernel s Q^{-s/2} ((1+t)/Q - 1/2) on the quarter plane
        point = with_trace(generate_sample(n, seed=11), 1e-3)
        s = n - 2.0

        def radial(r, t):
            q = (1.0 + t) ** 2 + r * r
            return (source_radial(n, t, r) * s * q ** (-s / 2.0)
                    * ((1.0 + t) / q - 0.5) * r ** (n - 2))

        def over_r(t):
            return quad(radial, 0.0, np.inf, args=(t,), epsabs=0.0,
                        epsrel=1e-13, limit=200)[0]

        integral = quad(over_r, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]
        want = np.trace(point.S) * sphere_area(n - 2) / (n - 1.0) * integral
        overlaps = check_solvability(point)
        np.testing.assert_array_equal(overlaps[:-1], 0.0)
        assert overlaps[-1] == pytest.approx(want, rel=1e-12)

