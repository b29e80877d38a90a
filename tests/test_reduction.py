"""Reduced functional, critical lambda, blow-up family, Hessian check."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from halfbubble.errors import (
    ConstructionImpossibleError,
    DomainError,
    ValidationFailure,
)
from halfbubble.reduction import (
    DEFAULT_EPS_LADDER,
    BlowUpFamily,
    FamilyRow,
    ReducedFunctional,
    critical_lambda,
    eval_G,
    family_table,
    find_blowup_point,
    hessian_check,
)
from halfbubble.reduction import _exact_lambda0


def make_rf(labels, gamma, phi, B=2.0, n=11):
    return ReducedFunctional(n=n, B=B, labels=tuple(labels),
                             gamma=np.asarray(gamma, dtype=float),
                             phi=np.asarray(phi, dtype=float))


def _golden_section_lambda(rf: ReducedFunctional, label: str) -> float:
    """Independent 1D optimizer route to the lambda-maximum, the oracle for
    the closed form of critical_lambda.

    A bounded scalar search locates the peak to about sqrt(eps); a sign
    bisection on the central difference of G then pins it near 1e-11,
    valid because dG/dlambda is strictly decreasing on lambda > 0.
    """
    i = rf.index_of(label)
    g, p = float(rf.gamma[i]), float(rf.phi[i])

    def G(lam):
        return lam * g * rf.B + lam ** 4 * p

    hi = 4.0 * max((rf.B * g / max(-p, 1e-300)) ** (1.0 / 3.0), 1.0)
    res = minimize_scalar(lambda lam: -G(lam), bounds=(1e-12, hi),
                          method="bounded", options={"xatol": 1e-13})
    mid = float(res.x)
    h = 3e-6 * mid
    a, b = 0.99 * mid, 1.01 * mid

    def dsign(lam):
        return G(lam + h) - G(lam - h)

    da, db = dsign(a), dsign(b)
    if da <= 0.0 or db >= 0.0:
        return mid
    for _ in range(60):
        c = 0.5 * (a + b)
        if dsign(c) > 0.0:
            a = c
        else:
            b = c
    return 0.5 * (a + b)


RF1 = make_rf(["q0"], [1.0], [-1.0], B=2.0)


class TestReducedFunctionalType:
    def test_empty_table_rejected(self):
        with pytest.raises(ValidationFailure):
            make_rf([], [], [])

    def test_nonpositive_B_rejected(self):
        with pytest.raises(ValidationFailure):
            make_rf(["a"], [1.0], [-1.0], B=0.0)

    def test_positive_phi_rejected(self):
        with pytest.raises(ValidationFailure):
            make_rf(["a", "b"], [1.0, 1.0], [-1.0, 0.5])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationFailure):
            make_rf(["a", "a"], [1.0, 1.0], [-1.0, -1.0])

    def test_phi_zero_allowed_but_inadmissible(self):
        rf = make_rf(["a"], [1.0], [0.0])
        assert not rf.admissible_mask().any()

    def test_inadmissible_reasons(self):
        rf = make_rf(["nan", "zero", "neg", "flat", "both", "good"],
                     [1.0, 1.0, -0.5, 0.0, -1.0, 1.0],
                     [np.nan, 0.0, -1.0, -1.0, 0.0, -1.0])
        # plain float reprs, phi named first when both fail
        assert rf.inadmissible() == {
            "nan": "phi = nan", "zero": "phi = 0.0", "neg": "gamma = -0.5",
            "flat": "gamma = 0.0", "both": "phi = 0.0"}
        assert make_rf(["a"], [1.0], [-1.0]).inadmissible() == {}


class TestEvalG:
    def test_frozen_value(self):
        assert eval_G(RF1, 1.0, "q0") == 1.0

    def test_vanishes_at_small_lambda(self):
        assert abs(eval_G(RF1, 1e-8, "q0")) < 1e-7

    def test_quartic_dominance(self):
        vals = [eval_G(RF1, lam, "q0") for lam in (5.0, 10.0, 40.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e5

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            eval_G(RF1, 1.0, "nope")

    def test_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            eval_G(RF1, 0.0, "q0")


class TestCriticalLambda:
    def test_frozen_value(self):
        lam = critical_lambda(RF1, "q0")
        assert lam == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)
        assert lam == pytest.approx(0.793700525984100, abs=1e-12)

    def test_gamma_scaling_homogeneity(self):
        rf8 = make_rf(["q0"], [8.0], [-1.0], B=2.0)
        assert critical_lambda(rf8, "q0") == pytest.approx(
            2.0 * critical_lambda(RF1, "q0"), rel=1e-14)

    def test_stationarity_and_concavity(self):
        for gamma, phi, B in [(1.0, -1.0, 2.0), (0.3, -2.5, 1.7),
                              (4.0, -0.01, 0.9)]:
            rf = make_rf(["q"], [gamma], [phi], B=B)
            lam = critical_lambda(rf, "q")
            slope = B * gamma + 4.0 * lam ** 3 * phi
            assert abs(slope) <= 1e-12 * max(1.0, B * gamma)
            assert 12.0 * lam ** 2 * phi < 0.0

    def test_closed_form_value_identity(self):
        rf = make_rf(["q"], [2.2], [-0.4], B=1.3)
        lam = critical_lambda(rf, "q")
        assert eval_G(rf, lam, "q") == pytest.approx(
            0.75 * rf.B * 2.2 * lam, rel=1e-12)

    def test_strict_local_max(self):
        rf = make_rf(["q"], [1.5], [-0.8], B=2.0)
        lam = critical_lambda(rf, "q")
        peak = eval_G(rf, lam, "q")
        assert peak > eval_G(rf, 0.5 * lam, "q")
        assert peak > eval_G(rf, 2.0 * lam, "q")

    def test_golden_section_oracle(self):
        for gamma, phi, B in [(1.0, -1.0, 2.0), (0.7, -3.0, 1.1),
                              (5.0, -0.2, 0.4)]:
            rf = make_rf(["q"], [gamma], [phi], B=B)
            closed = critical_lambda(rf, "q")
            searched = _golden_section_lambda(rf, "q")
            assert abs(searched - closed) <= 1e-10 * max(1.0, closed)
            assert eval_G(rf, searched, "q") == pytest.approx(
                eval_G(rf, closed, "q"), rel=1e-13)

    def test_rejects_nonnegative_phi(self):
        rf = make_rf(["q"], [1.0], [0.0])
        with pytest.raises(ConstructionImpossibleError):
            critical_lambda(rf, "q")

    def test_rejects_nonpositive_gamma(self):
        rf = make_rf(["q"], [-1.0], [-1.0])
        with pytest.raises(ConstructionImpossibleError):
            critical_lambda(rf, "q")


class TestFindBlowupPoint:
    def test_single_point_table(self):
        fam = find_blowup_point(RF1)
        assert fam.q0 == "q0"
        assert fam.lambda0 == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-14)
        assert fam.stability == "discrete-argmax"
        a, b = fam.bracket
        assert a < fam.lambda0 < b

    def test_larger_gamma_wins_at_fixed_phi(self):
        rf = make_rf(["small", "big"], [0.5, 2.0], [-1.0, -1.0])
        assert find_blowup_point(rf).q0 == "big"

    def test_joint_rescaling_leaves_argmax(self):
        labels = ["a", "b", "c", "d"]
        gamma = [0.5, 2.0, 1.2, 0.1]
        phi = [-0.4, -2.0, -0.3, -1.0]
        base = find_blowup_point(make_rf(labels, gamma, phi))
        for c in (0.1, 7.3, 1e3):
            scaled = find_blowup_point(make_rf(
                labels, [c * g for g in gamma], [c * p for p in phi]))
            assert scaled.q0 == base.q0

    def test_inadmissible_points_skipped(self):
        rf = make_rf(["neg", "flat", "good"], [-1.0, 2.0, 0.4],
                     [-1.0, 0.0, -0.5])
        assert find_blowup_point(rf).q0 == "good"

    def test_no_admissible_point(self):
        rf = make_rf(["a", "b"], [-1.0, 2.0], [-1.0, 0.0])
        with pytest.raises(ConstructionImpossibleError) as exc:
            find_blowup_point(rf)
        assert str(exc.value) == \
            "no admissible point: a: gamma = -1.0; b: phi = 0.0"

    def test_tie_broken_by_smallest_label(self):
        rf = make_rf(["zz", "aa"], [1.0, 1.0], [-1.0, -1.0])
        assert find_blowup_point(rf).q0 == "aa"

    def test_value_closed_form(self):
        rf = make_rf(["q"], [1.9], [-0.7], B=2.4)
        fam = find_blowup_point(rf)
        assert fam.value == pytest.approx(
            0.75 * 2.4 * 1.9 * fam.lambda0, rel=1e-13)

    def test_bracket_spans_admissible_lambdas(self):
        rf = make_rf(["a", "b", "c"], [1.0, 4.0, 0.2],
                     [-1.0, -0.1, -2.0])
        fam = find_blowup_point(rf)
        lams = [critical_lambda(rf, lab) for lab in ("a", "b", "c")]
        assert fam.bracket == (0.5 * min(lams), 2.0 * max(lams))


class TestExactFamilyRows:
    @pytest.mark.parametrize("n", [11, 13, 15])
    def test_random_functionals_give_exact_rows(self, n):
        # criterion 7's three exact identities on every rung, for 2000
        # random tables per dimension
        rng = np.random.default_rng(n)
        half = (n - 2.0) / 2.0
        for k in range(2000):
            size = int(rng.integers(1, 5))
            rf = make_rf([f"q{i}" for i in range(size)],
                         rng.uniform(0.1, 3.0, size),
                         -rng.uniform(0.05, 2.0, size),
                         B=float(rng.uniform(0.5, 4.0)), n=n)
            fam = find_blowup_point(rf)
            lam = critical_lambda(rf, fam.q0)
            assert 0.0 <= fam.lambda0 - lam <= 1e-13 * lam, k
            for row in family_table(fam, DEFAULT_EPS_LADDER):
                assert row.delta == fam.lambda0 * row.eps ** (1.0 / 3.0), k
                assert row.peak == 1.0 / row.delta ** half, k
                assert row.peak * row.delta ** half == 1.0, (k, row.eps)

    def test_snap_follows_the_given_ladder(self):
        ladder = tuple(float(e) for e in np.geomspace(1e-6, 0.5, 25))
        rng = np.random.default_rng(3)
        for k in range(200):
            rf = make_rf(["q"], [float(rng.uniform(0.1, 3.0))],
                         [-float(rng.uniform(0.05, 2.0))], n=14)
            fam = find_blowup_point(rf, ladder)
            lam = critical_lambda(rf, "q")
            assert 0.0 <= fam.lambda0 - lam <= 1e-12 * lam, k
            assert fam.value == 0.75 * rf.B * rf.gamma[0] * fam.lambda0
            for row in family_table(fam, ladder):
                assert row.peak * row.delta ** 6.0 == 1.0, (k, row.eps)

    def test_snap_keeps_an_exact_lambda(self):
        # the snap is idempotent: an exact lambda0 stays where it is
        lam = find_blowup_point(RF1).lambda0
        assert _exact_lambda0(11, lam, DEFAULT_EPS_LADDER) == lam
        assert _exact_lambda0(11, lam, ()) == lam

    def test_snap_rejects_eps_outside_unit_interval(self):
        with pytest.raises(DomainError):
            find_blowup_point(RF1, [1e-3, 1.0])


class TestFamilyTable:
    def test_frozen_row(self):
        fam = BlowUpFamily(n=11, lambda0=1.0, q0="q", bracket=(0.5, 2.0),
                           value=1.0, stability="discrete-argmax")
        (row,) = family_table(fam, [1e-3])
        assert row.delta == pytest.approx(0.1, rel=1e-15)
        assert row.peak == pytest.approx(10.0 ** 4.5, rel=1e-13)

    def test_halving_eps_scales_delta_by_cube_root(self):
        fam = BlowUpFamily(n=11, lambda0=0.8, q0="q", bracket=(0.4, 1.6),
                           value=1.0, stability="discrete-argmax")
        r1, r2 = family_table(fam, [2e-3, 1e-3])
        assert r2.delta / r1.delta == pytest.approx(0.5 ** (1.0 / 3.0),
                                                    rel=1e-14)

    def test_peak_delta_identity_exact(self):
        fam = BlowUpFamily(n=13, lambda0=0.93, q0="q", bracket=(0.1, 2.0),
                           value=1.0, stability="discrete-argmax")
        for row in family_table(fam, np.geomspace(1e-4, 0.5, 9)):
            # definitional identity, bit-exact against the same computation
            assert row.peak == 1.0 / row.delta ** ((fam.n - 2.0) / 2.0)
            assert row.peak * row.delta ** ((fam.n - 2.0) / 2.0) == \
                pytest.approx(1.0, abs=1e-14)

    def test_monotone_columns(self):
        fam = BlowUpFamily(n=11, lambda0=1.1, q0="q", bracket=(0.5, 2.2),
                           value=1.0, stability="discrete-argmax")
        rows = family_table(fam, [1e-2, 1e-3, 1e-4])
        assert rows[0].delta > rows[1].delta > rows[2].delta
        assert rows[0].peak < rows[1].peak < rows[2].peak

    def test_phi_bound_column(self):
        fam = BlowUpFamily(n=11, lambda0=1.0, q0="q", bracket=(0.5, 2.0),
                           value=1.0, stability="discrete-argmax")
        rows = family_table(fam, [1e-2, 1e-3], phi_bound_coeff=2.5)
        assert rows[0].phi_bound == pytest.approx(2.5e-2)
        assert rows[1].phi_bound == pytest.approx(2.5e-3)

    def test_eps_outside_unit_interval(self):
        fam = BlowUpFamily(n=11, lambda0=1.0, q0="q", bracket=(0.5, 2.0),
                           value=1.0, stability="discrete-argmax")
        with pytest.raises(DomainError):
            family_table(fam, [1.5])
        with pytest.raises(DomainError):
            family_table(fam, [0.0])

    def test_family_invariants_enforced(self):
        with pytest.raises(ValidationFailure):
            BlowUpFamily(n=11, lambda0=-1.0, q0="q", bracket=(0.5, 2.0),
                         value=1.0, stability="discrete-argmax")
        with pytest.raises(ValidationFailure):
            BlowUpFamily(n=11, lambda0=5.0, q0="q", bracket=(0.5, 2.0),
                         value=1.0, stability="discrete-argmax")


def quadratic_gamma_table(B=2.0, phi_fn=lambda x: -1.0, half=4, h=0.1,
                          g0=1.0, a=0.6):
    xs = np.array([h * (i - half) for i in range(2 * half + 1)])
    labels = [f"x{i}" for i in range(2 * half + 1)]
    gamma = g0 - a * xs ** 2
    phi = np.array([phi_fn(x) for x in xs])
    rf = make_rf(labels, gamma, phi, B=B)
    return rf, labels, xs


class TestHessianCheck:
    def test_synthetic_maximum_negative_definite(self):
        rf, labels, xs = quadratic_gamma_table()
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        rep = hessian_check(rf, lam0, q0, labels, coords=xs)
        assert rep.status == "ok"
        assert rep.classification == "negative-definite"
        assert rep.lambda_lambda_fd < 0.0 and rep.q_second_fd < 0.0

    def test_lambda_entry_matches_closed_form(self):
        rf, labels, xs = quadratic_gamma_table()
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        rep = hessian_check(rf, lam0, q0, labels, coords=xs)
        assert rep.lambda_lambda_closed == 12.0 * lam0 ** 2 * rf.phi[
            rf.index_of(q0)]
        assert rep.lambda_lambda_fd == pytest.approx(
            rep.lambda_lambda_closed, rel=1e-6)

    def test_mixed_entry_vanishes_at_stationary_point(self):
        # gamma has an exact max at the middle label, phi constant: the
        # mixed derivative B gamma' + 4 lam^3 phi' vanishes there
        rf, labels, xs = quadratic_gamma_table()
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        rep = hessian_check(rf, lam0, q0, labels, coords=xs)
        assert abs(rep.mixed_fd) <= 1e-10

    def test_mixed_entry_reports_nonzero_drift(self):
        rf, labels, xs = quadratic_gamma_table(phi_fn=lambda x: -1.0 - 0.3 * x)
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        rep = hessian_check(rf, lam0, q0, labels, coords=xs)
        i = rf.index_of(q0)
        mid = labels.index(q0)
        h = xs[mid + 1] - xs[mid]
        gp = (rf.gamma[rf.index_of(labels[mid + 1])]
              - rf.gamma[rf.index_of(labels[mid - 1])]) / (2 * h)
        pp = (rf.phi[rf.index_of(labels[mid + 1])]
              - rf.phi[rf.index_of(labels[mid - 1])]) / (2 * h)
        oracle = rf.B * gp + 4.0 * lam0 ** 3 * pp
        assert rep.mixed_fd == pytest.approx(oracle, rel=1e-6)
        assert abs(rep.mixed_fd) > 0.1

    def test_boundary_q0_inconclusive(self):
        rf, labels, xs = quadratic_gamma_table()
        lam0 = critical_lambda(rf, labels[0])
        rep = hessian_check(rf, lam0, labels[0], labels, coords=xs)
        assert rep.status == "inconclusive"
        assert rep.classification == "inconclusive"
        assert rep.lambda_lambda_fd is None

    def test_footnotes_record_alternative_conventions(self):
        rf, labels, xs = quadratic_gamma_table()
        q0 = labels[len(labels) // 2]
        rep = hessian_check(rf, critical_lambda(rf, q0), q0, labels,
                            coords=xs)
        assert len(rep.footnotes) == 2
        assert any("2 phi" in note for note in rep.footnotes)
        assert any("minus" in note for note in rep.footnotes)

    def test_unknown_q0_rejected(self):
        rf, labels, xs = quadratic_gamma_table()
        with pytest.raises(DomainError):
            hessian_check(rf, 1.0, "missing", labels, coords=xs)

    def test_short_neighborhood_rejected(self):
        rf, labels, xs = quadratic_gamma_table()
        with pytest.raises(DomainError):
            hessian_check(rf, 1.0, labels[1], labels[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "repeated", "backward"])
    def test_coords_finite_and_strictly_monotone(self, bad):
        rf, labels, xs = quadratic_gamma_table()
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        coords = xs.copy()
        coords[len(labels) // 2 + 1] = bad
        with pytest.raises(DomainError, match="strictly monotone"):
            hessian_check(rf, lam0, q0, labels, coords=coords)
        # the reversed path is the same neighborhood
        rep = hessian_check(rf, lam0, q0, labels, coords=-xs)
        assert rep.classification == "negative-definite"

    def test_saddle_detected_as_indefinite(self):
        rf, labels, xs = quadratic_gamma_table(a=-0.6)
        q0 = labels[len(labels) // 2]
        lam0 = critical_lambda(rf, q0)
        rep = hessian_check(rf, lam0, q0, labels, coords=xs)
        assert rep.classification == "indefinite"
