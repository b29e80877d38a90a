"""Acceptance gate: one test per shipped correctness criterion.

Each test prints a single "[criterion k] PASS/FAIL" line carrying the
measured quantities and the elapsed time, then asserts.  The stated
runtime caps are enforced with the same stopwatch that produced the
printed timing, so a pathologically slow run fails loudly instead of
silently eating the budget.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from halfbubble import cli
from halfbubble.bubble import check_bubble_residual, eval_U_grad
from halfbubble.corrector import (
    check_solvability,
    self_convergence,
    solve_vq,
    verify_corrector,
)
from halfbubble.energy import (
    compute_A,
    compute_B,
    compute_G_terms,
    compute_phi,
    residual_slope,
    verify_A4_L2_L3_identity,
)
from halfbubble.geometry import generate_sample, make_battery, metric_expansion
from halfbubble.quadrature import MomentTable, angular_moment, mc_halfspace, sphere_area
from halfbubble.reduction import (
    ReducedFunctional,
    critical_lambda,
    eval_G,
    family_table,
    find_blowup_point,
)

DIMS = (11, 12, 13, 14, 15)
EPS_LADDER = tuple(float(e) for e in np.geomspace(1e-4, 1e-1, 7))


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def point11():
    return generate_sample(11, seed=1)


@pytest.fixture(scope="module")
def sol_big(point11):
    # the program's profile: the default grid is RunConfig's
    return solve_vq(point11)


@pytest.fixture(scope="module")
def battery20():
    return make_battery(11, 20, 1)


@pytest.fixture(scope="module")
def coeffs20(battery20):
    return [(p, compute_phi(p, solve_vq(p))) for p in battery20]


@pytest.fixture(scope="module")
def functional5():
    points = make_battery(11, 5, 1)
    coeffs = [compute_phi(p, solve_vq(p)) for p in points]
    return ReducedFunctional(
        n=11,
        B=compute_B(11),
        labels=tuple(c.label for c in coeffs),
        gamma=tuple(p.gamma for p in points),
        phi=tuple(c.phi for c in coeffs),
    )


# ----------------------------------------------------------------------


def test_criterion_1_moment_identities():
    t0 = time.time()
    worst = 0.0
    for n in DIMS:
        table = MomentTable(n=n)
        I1, I2, I3 = table.named("I1"), table.named("I2"), table.named("I3")
        checks = (
            (I1 / I2, 4.0 * (n - 2) / (n + 1)),
            (I3 / I2, 12.0 / ((n - 2) * (n + 1))),
            (angular_moment(n, (4,)) / angular_moment(n, (2, 2)), 3.0),
            (angular_moment(n, (4,)) / sphere_area(n - 2) * I2,
             3.0 / (n * n - 1.0) * I2),
            (angular_moment(n, (2, 2)) / sphere_area(n - 2) * I2,
             1.0 / (n * n - 1.0) * I2),
        )
        for value, target in checks:
            worst = max(worst, abs(value - target) / abs(target))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(1, "moment identities, n in 11..15", ok,
           f"max rel error {worst:.2e} (tol 1e-06), {elapsed:.1f}s")


def test_criterion_2_bubble_and_kernel_residuals():
    t0 = time.time()
    worst = 0.0
    for n in DIMS:
        rep = check_bubble_residual(n, n_points=10 ** 4, seed=1)
        worst = max(worst, rep.interior_max, rep.boundary_max,
                    rep.kernel_interior_max, rep.kernel_boundary_max)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 120.0
    report(2, "bubble and kernel residuals at 1e4 points per n", ok,
           f"max residual {worst:.2e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_3_solvability_overlaps(battery20):
    t0 = time.time()
    worst = max(
        float(np.max(np.abs(check_solvability(p)))) for p in battery20
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    report(3, "source-kernel overlaps on 20 curvature samples", ok,
           f"max overlap {worst:.2e} (tol 1e-08), {elapsed:.1f}s")


def test_criterion_4_corrector_properties(point11, battery20):
    t0 = time.time()
    conv = self_convergence(11)
    rep = verify_corrector(solve_vq(point11), seed=1)
    signs_ok = all(solve_vq(p).pairing() <= 0.0 for p in battery20)
    elapsed = time.time() - t0
    failures = []
    if conv["order"] < 1.9:
        failures.append(f"grid order {conv['order']:.3f} < 1.9")
    if rep.self_convergence_order < 1.9:
        failures.append(f"report order {rep.self_convergence_order:.3f} < 1.9")
    if abs(rep.decay_exponent - rep.decay_target) > 0.5:
        failures.append(f"decay {rep.decay_exponent:.3f} vs {rep.decay_target}")
    if rep.decay_target != 4 - 11:
        failures.append(f"decay target {rep.decay_target} != -7")
    if rep.boundary_orthogonality != 0.0 or abs(rep.angular_mean) > 1e-14:
        failures.append("quadrupole orthogonality violated")
    if float(np.max(np.abs(rep.kernel_overlaps))) > 1e-8:
        failures.append("kernel overlap above 1e-08")
    if abs(rep.far_field_shift) > 1e-2:
        failures.append(f"far-field shift {rep.far_field_shift:.2e} > 1e-02")
    if not signs_ok:
        failures.append("a pairing is positive")
    ok = not failures and elapsed <= 600.0
    report(4, "corrector convergence, decay, orthogonality, sign", ok,
           "; ".join(failures) or
           f"order {conv['order']:.2f}, decay {rep.decay_exponent:.3f}, "
           f"far-field {abs(rep.far_field_shift):.1e}, {elapsed:.1f}s")


def test_criterion_5_energy_coefficients(point11, coeffs20):
    t0 = time.time()
    failures = []

    for n in DIMS:
        A_oracle = ((n - 2.0) / (2.0 * (n - 1.0)) * sphere_area(n - 2)
                    * 0.5 * beta_fn((n - 1) / 2.0, (n - 1) / 2.0))
        B_oracle = 0.25 * sphere_area(n - 2) * beta_fn(
            (n - 1) / 2.0, (n - 3) / 2.0)
        if abs(compute_A(n) - A_oracle) > 1e-8 * A_oracle:
            failures.append(f"A mismatch at n={n}")
        if abs(compute_B(n) - B_oracle) > 1e-8 * B_oracle:
            failures.append(f"B mismatch at n={n}")

    pt = point11
    n, m = pt.n, pt.n - 1
    _, G2, G3 = compute_G_terms(pt)

    rng = np.random.default_rng(7)
    c = rng.normal(size=m)
    c += (pt.Rnnnn - c.sum()) / m
    weights = (c + 8.0 * np.diag(pt.S @ pt.S)) / 12.0

    def g3_integrand(t, z):
        gu = eval_U_grad(n, t, z)[:, :m]
        return t ** 4 * np.einsum("i,bi->b", weights, gu ** 2)

    est3 = mc_halfspace(n, g3_integrand, n_samples=10 ** 7, seed=31,
                        t_scale=1.5, z_scale=1.5)
    dev3 = abs(est3.mean - G3) / est3.std_error
    if dev3 > 3.0:
        failures.append(f"G3 off by {dev3:.2f} sigma")

    T4 = metric_expansion(pt, seed=0).T4.reshape(m * m, m * m)

    def g2_integrand(t, z):
        Q = (1.0 + t) ** 2 + np.einsum("bi,bi->b", z, z)
        zz = (z[:, :, None] * z[:, None, :]).reshape(len(z), m * m)
        quart = np.einsum("bq,bq->b", zz @ T4, zz)
        return 0.5 * (n - 2.0) ** 2 * t ** 2 * quart * Q ** (-float(n))

    est2 = mc_halfspace(n, g2_integrand, n_samples=10 ** 7, seed=32,
                        t_scale=1.0, z_scale=1.0)
    dev2 = abs(est2.mean - G2) / est2.std_error
    if dev2 > 3.0:
        failures.append(f"G2 off by {dev2:.2f} sigma")

    bad_phi = [co.label for _, co in coeffs20 if not co.phi <= 0.0]
    if bad_phi:
        failures.append(f"positive phi at {bad_phi}")

    elapsed = time.time() - t0
    ok = not failures and elapsed <= 900.0
    report(5, "closed-form coefficients vs oracles, phi sign", ok,
           "; ".join(failures) or
           f"G2 {dev2:.2f} sigma, G3 {dev3:.2f} sigma at 1e7 samples, "
           f"{len(coeffs20)} phi <= 0, {elapsed:.1f}s")


def test_criterion_6_expansion_slopes(point11, sol_big):
    t0 = time.time()
    identity = verify_A4_L2_L3_identity(point11, sol_big)
    with_v = residual_slope(point11, sol_big, mc_samples=60000, seed=0)
    no_v = residual_slope(point11, mc_samples=40000, seed=0)
    elapsed = time.time() - t0
    failures = []
    if identity.slope < 4.5:
        failures.append(f"identity slope {identity.slope:.3f} < 4.5")
    if not 2.7 <= with_v.slope <= 3.3:
        failures.append(f"residual slope {with_v.slope:.3f} not in [2.7, 3.3]")
    if abs(no_v.slope - 2.0) > 0.3:
        failures.append(f"corrector-omitted slope {no_v.slope:.3f} not near 2")
    ok = not failures and elapsed <= 1800.0
    report(6, "remainder and residual decay orders", ok,
           "; ".join(failures) or
           f"identity {identity.slope:.2f}, residual {with_v.slope:.2f}, "
           f"without corrector {no_v.slope:.2f}, {elapsed:.1f}s")


def _argmax_by_search(g, lo: float, hi: float) -> float:
    """Maximizer of g on [lo, hi] from function values alone.

    Coarse geometric scan, then bisection on the sign of a symmetric
    difference.  Uses no derivative or closed-form knowledge of g.
    """
    lam = np.geomspace(lo, hi, 400)
    vals = np.array([g(x) for x in lam])
    k = int(np.argmax(vals))
    a, b = lam[max(k - 1, 0)], lam[min(k + 1, len(lam) - 1)]
    h = 3e-6 * 0.5 * (a + b)
    assert g(a + h) - g(a - h) > 0.0 > g(b + h) - g(b - h)
    for _ in range(80):
        mid = 0.5 * (a + b)
        if g(mid + h) - g(mid - h) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_criterion_7_reduction_closed_forms(functional5):
    t0 = time.time()
    rf = functional5
    blow = find_blowup_point(rf)
    failures = []

    search_gap = 0.0
    lo, hi = blow.bracket
    for label in rf.labels:
        lam = critical_lambda(rf, label)
        searched = _argmax_by_search(lambda x: eval_G(rf, x, label), lo, hi)
        search_gap = max(search_gap, abs(searched - lam))
        if abs(searched - lam) > 1e-10 * max(1.0, lam):
            failures.append(f"search gap {abs(searched - lam):.2e} at {label}")

    i = rf.labels.index(blow.q0)
    closed_value = 0.75 * rf.B * rf.gamma[i] * blow.lambda0
    value = eval_G(rf, blow.lambda0, blow.q0)
    if abs(value - closed_value) > 1e-12 * abs(closed_value):
        failures.append("stationary value identity broken")

    for c in (0.1, 7.3, 1e3):
        scaled = ReducedFunctional(
            n=rf.n, B=rf.B, labels=rf.labels,
            gamma=tuple(c * g for g in rf.gamma),
            phi=tuple(c * p for p in rf.phi))
        other = find_blowup_point(scaled)
        if other.q0 != blow.q0:
            failures.append(f"argmax moved under scale {c}")
        if abs(other.lambda0 - blow.lambda0) > 1e-12 * blow.lambda0:
            failures.append(f"lambda0 moved under scale {c}")

    half = (blow.n - 2.0) / 2.0
    for row in family_table(blow, EPS_LADDER):
        if row.delta != blow.lambda0 * row.eps ** (1.0 / 3.0):
            failures.append(f"delta rule broken at eps={row.eps}")
        if row.peak != 1.0 / row.delta ** half:
            failures.append(f"peak rule broken at eps={row.eps}")
        if row.peak * row.delta ** half != 1.0:
            failures.append(f"amplitude product not 1 at eps={row.eps}")

    elapsed = time.time() - t0
    ok = not failures and elapsed <= 120.0
    report(7, "critical point closed forms and family scaling", ok,
           "; ".join(failures) or
           f"max search gap {search_gap:.1e}, q0 {blow.q0}, "
           f"lambda0 {blow.lambda0:.6f}, {elapsed:.1f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli.main(["--seed", "1", "--mc-samples", "4000",
                         "--out-dir", str(out), "pipeline"])
        assert code == 0
        outputs.append(out)
    first, second = outputs
    differing = []
    names = sorted(
        p.relative_to(first).as_posix() for p in first.rglob("*") if p.is_file()
    )
    for name in names:
        if (first / name).read_bytes() != (second / name).read_bytes():
            differing.append(name)
    report_data = json.loads((first / "pipeline_report.json").read_text())
    elapsed = time.time() - t0
    ok = not differing and len(names) >= 5 and report_data["q0"]
    report(8, "repeated pipeline runs byte-identical", bool(ok),
           f"{len(names)} files compared"
           + (f", differing: {differing}" if differing else "")
           + f", {elapsed:.1f}s")
