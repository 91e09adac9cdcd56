"""Sign-pattern certifier: verdicts, soundness, determinism, harnesses."""

import importlib
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmono
from _oracles import (
    UNIT_ROUNDOFF,
    classical_logcm_screen,
    mp_h_aux_q_derive,
    outcome,
    reciprocal_q_derive_sign,
    reference_bernstein_iff_check,
    reference_closure_checks,
    reference_rows,
)
from qmono import (
    CertProperty,
    CertReport,
    CertSpec,
    Counterexample,
    DomainError,
    EvaluationError,
    ExpKind,
    GammaParams,
    Grid,
    InputError,
    MAX_TABLE_ORDER,
    QParam,
    RatioParams,
    Verdict,
    bernstein_iff_check,
    certify,
    closure_checks,
    difference_check,
    eq_power,
    g_ratio,
    h_aux,
    log_q,
    q_derive_n,
    q_exp,
    q_number,
    q_psi_k,
    report_to_csv,
    report_to_json,
    report_to_tree,
    thm31_harness,
    thm32_harness,
)
from qmono._serialize import render_csv, render_json
from qmono.cert import _certification_target
from qmono.cli import _CLOSURE_CORPUS, build_function

Q5 = QParam(0.5)
QCM = CertProperty.QCM
QLOGCM = CertProperty.QLOGCM
QBERNSTEIN = CertProperty.QBERNSTEIN


class TestGrid:
    def test_default(self):
        g = Grid()
        assert len(g.points) == 64
        assert g.points[0] == 0.1 and g.points[-1] == 5.0

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(())
        with pytest.raises(DomainError):
            Grid((0.0, 1.0))
        with pytest.raises(DomainError):
            Grid((2.0, 1.0))

    def test_constructors(self):
        lin = Grid.linear(1.0, 3.0, 5)
        assert lin.points == (1.0, 1.5, 2.0, 2.5, 3.0)
        log = Grid.log_spaced(0.1, 10.0, 7)
        assert log.points[0] == 0.1 and log.points[-1] == 10.0

    @pytest.mark.parametrize("count", [0, -5])
    @pytest.mark.parametrize("build", [Grid.linear, Grid.log_spaced])
    def test_nonpositive_count_rejected(self, build, count):
        with pytest.raises(DomainError, match="at least one point"):
            build(0.1, 5.0, count)

    @pytest.mark.parametrize(("lo", "hi", "bad"), [(0.0, 1.0, "0.0"), (-1.0, 1.0, "-1.0"), (1.0, -1.0, "-1.0")])
    def test_log_spaced_names_the_bad_end(self, lo, hi, bad):
        # the end is refused before its log is taken: no "math domain error"
        with pytest.raises(DomainError, match=rf"^grid points must be finite and > 0, got {bad}$"):
            Grid.log_spaced(lo, hi, 3)

    def test_log_spaced_count_one_is_its_lower_end(self):
        assert Grid.log_spaced(2.0, -1.0, 1).points == (2.0,)


class TestCertSpec:
    def test_defaults(self):
        spec = CertSpec(QCM)
        assert spec.max_order == 6
        assert spec.tol_rel == 1e-7
        # one tolerance: the band is tol_rel times the checked entry's magnitude
        assert [f.name for f in fields(CertSpec)] == ["property", "max_order", "grid", "tol_rel"]

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-7])
    def test_tol_rel_must_be_positive_and_finite(self, bad):
        # an infinite band would make every check neutral: Consistent by default
        with pytest.raises(DomainError, match="tol_rel"):
            certify(lambda x: x, Q5, CertSpec(QCM, 4, Grid.linear(1.0, 2.0, 3), tol_rel=bad))

    def test_order_cap(self):
        with pytest.raises(DomainError):
            CertSpec(QCM, max_order=9)
        with pytest.raises(DomainError):
            CertSpec(QCM, max_order=0)


HUGE = 10**400  # an int too large for a float
#: an int with more decimal digits than str() gives (sys.get_int_max_str_digits)
TOO_LONG = 10**5000
needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
ONE_ATOM = qmono.DiscreteMeasure.from_pairs([(1.0, 1.0)])
SMALL_SPEC = CertSpec(QCM, max_order=2, grid=Grid((0.5, 1.0)))


class TestIntTooLargeForAFloat:
    """Each site that takes a real refuses an int too large for a float with
    its own message, not a bare OverflowError from float() or isfinite."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: qmono.DiscreteMeasure.from_pairs([(HUGE, 1.0)]), InputError,
         "atom location must be finite and >= 0, got 10{400}"),
        (lambda: qmono.DiscreteMeasure.from_pairs([(1.0, HUGE)]), InputError,
         "atom weight must be finite and >= 0, got 10{400}"),
        (lambda: Grid((HUGE,)), DomainError, "grid points must be finite and > 0, got 10{400}"),
        (lambda: GammaParams(HUGE, 1.0, Q5), DomainError, "alpha and beta must be finite"),
        (lambda: RatioParams((HUGE,), (1.0,)), DomainError, "shifts must be positive reals, got 10{400}"),
        (lambda: qmono.semigroup_check({}, (1.0,), (0.5,), Q5, qmono.KernelKind.POWER_E, tol=HUGE),
         DomainError, "semigroup tolerance must be finite and >= 0, got 10{400}"),
        (lambda: CertSpec(QCM, tol_rel=HUGE), DomainError, "tol_rel must be positive and finite, got 10{400}"),
    ], ids=["location", "weight", "grid", "gamma", "ratio", "semigroup_tol", "tol_rel"])
    def test_refused_with_the_sites_message(self, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Grid.log_spaced(HUGE, 2.0, 3), DomainError, "grid points must be finite and > 0, got 10{400}"),
        (lambda: Grid.linear(0.1, HUGE, 3), DomainError, "grid points must be finite, got 10{400}"),
        (lambda: Grid.linear(math.nan, 1.0, 3), DomainError, "grid points must be finite, got nan"),
        (lambda: Grid.linear(0.1, math.inf, 3), DomainError, "grid points must be finite, got inf"),
        (lambda: qmono.semigroup_transform(lambda x: x, HUGE, 0.5, Q5), DomainError,
         "semigroup parameter must be finite and >= 0, got 10{400}"),
        (lambda: qmono.semigroup_transform(lambda x: x, math.nan, 0.5, Q5), DomainError,
         "semigroup parameter must be finite and >= 0, got nan"),
        (lambda: qmono.q_laplace(ONE_ATOM, HUGE, Q5, qmono.KernelKind.POWER_E),
         DomainError, "transform parameter must be finite and >= 0, got 10{400}"),
        (lambda: qmono.q_laplace(ONE_ATOM, math.nan, Q5, qmono.KernelKind.JACKSON_E),
         DomainError, "transform parameter must be finite and >= 0, got nan"),
        (lambda: bernstein_iff_check(lambda x: x, (HUGE,), Q5, SMALL_SPEC),
         InputError, "transform parameters must fit a float, got t = 10{400}"),
        (lambda: closure_checks({"identity": lambda x: x}, Q5, SMALL_SPEC, ts=(1.0, HUGE)),
         InputError, "transform parameters must fit a float, got t = 10{400}"),
        (lambda: difference_check(lambda x: x, HUGE, Q5, SMALL_SPEC),
         InputError, "difference shift must be finite and > 0, got a = 10{400}"),
        (lambda: difference_check(lambda x: 1.0 / (x + 1.0), math.inf, Q5, SMALL_SPEC),
         InputError, "difference shift must be finite and > 0, got a = inf"),
    ], ids=["log_grid", "linear_grid", "linear_grid_nan", "linear_grid_inf", "semigroup_t",
            "semigroup_t_nan", "laplace_lambda", "laplace_lambda_nan", "iff_t", "closure_t",
            "difference_a", "difference_a_inf"])
    def test_real_input_is_checked_before_the_arithmetic(self, call, error, message):
        # each raised a bare OverflowError, returned nan, or (a = inf)
        # certified f itself, before its site checked the value
        with pytest.raises(error, match=f"^{message}$"):
            call()

    @needs_int_str_limit
    def test_too_long_for_str_is_named_by_size(self):
        # repr() of the value would itself raise ValueError("Exceeds the limit ...")
        with pytest.raises(EvaluationError, match=r"^function not finite at x = 0\.1: got an int of 16610 bits$"):
            certify(lambda x: TOO_LONG, Q5, CertSpec(QCM, max_order=2))
        with pytest.raises(DomainError, match=r"^tol_rel must be positive and finite, got an int of 16610 bits$"):
            CertSpec(QCM, tol_rel=-TOO_LONG)
        with pytest.raises(DomainError, match=r"^q must be a finite real, got an int of 16610 bits$"):
            QParam(TOO_LONG)


class TestCertify:
    def test_identity_violates_qcm(self):
        rep = certify(lambda x: x, Q5, CertSpec(QCM, max_order=4))
        assert rep.verdict is Verdict.VIOLATED
        first = rep.counterexamples[0]
        assert first.x == rep.grid[0]
        assert first.n == 1
        assert first.value == -1.0
        assert rep.min_margin == -1.0

    def test_identity_is_qbernstein(self):
        rep = certify(lambda x: x, Q5, CertSpec(QBERNSTEIN, max_order=6))
        assert rep.verdict is Verdict.CONSISTENT

    def test_reciprocal_is_qcm_with_closed_form_spots(self):
        f = lambda x: 1.0 / (x + 1.0)
        rep = certify(f, Q5, CertSpec(QCM, max_order=5))
        assert rep.verdict is Verdict.CONSISTENT
        for x in (0.5, 1.0, 2.3, 5.0):
            for n in range(0, 6):
                signed = (-1.0) ** n * q_derive_n(f, x, Q5, n)
                assert signed == pytest.approx(
                    reciprocal_q_derive_sign(n, x, 1.0, Q5), rel=1e-10
                )

    def test_checks_run_counts(self):
        grid = Grid.linear(1.0, 2.0, 5)
        rep = certify(lambda x: x, Q5, CertSpec(QCM, max_order=3, grid=grid))
        assert rep.checks_run == 5 * 4  # orders 0..3
        rep = certify(lambda x: x, Q5, CertSpec(QLOGCM, max_order=3, grid=grid))
        assert rep.checks_run == 5 * 3  # orders 1..3
        rep = certify(lambda x: x, Q5, CertSpec(QBERNSTEIN, max_order=3, grid=grid))
        assert rep.checks_run == 5 * 4  # nonnegativity plus orders 1..3

    def test_report_echoes_spec(self):
        spec = CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 3), tol_rel=1e-8)
        rep = certify(lambda x: x, Q5, spec)
        assert rep.q == 0.5
        assert rep.max_order == 2
        assert rep.tol_rel == 1e-8
        assert rep.grid == spec.grid.points

    def test_qlogcm_needs_positive_function(self):
        spec = CertSpec(QLOGCM, max_order=2, grid=Grid.linear(0.5, 2.0, 4))
        with pytest.raises(InputError) as err:
            certify(lambda x: x - 1.0, Q5, spec)
        assert "0.5" in str(err.value) or "0.25" in str(err.value) or "0.125" in str(err.value)

    def test_non_evaluable_function_is_input_error(self):
        with pytest.raises(InputError):
            certify(lambda x: math.nan, Q5, CertSpec(QCM, max_order=2))

    def test_constant_is_neutral_everywhere(self):
        rep = certify(lambda x: 4.5, Q5, CertSpec(QCM, max_order=6))
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.min_margin == 0.0  # every order >= 1 sits in the zero band


class TestOneSampleCheck:
    """QDiffTable.build is the one check on every sample certify takes: a
    non-finite or non-numeric sample raises its EvaluationError, which is
    an InputError, under every property."""

    GRID = Grid.linear(0.5, 2.0, 4)

    @pytest.mark.parametrize("prop", list(CertProperty))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1.0", None])
    def test_bad_sample_is_an_evaluation_error(self, prop, bad):
        # the sample at q^2 x = 0.125 of the first grid point is the bad one
        f = lambda x: bad if x == 0.125 else 1.0 + x
        with pytest.raises(EvaluationError, match=r"not finite at x = 0\.125") as err:
            certify(f, Q5, CertSpec(prop, max_order=2, grid=self.GRID))
        assert isinstance(err.value, InputError)

    @pytest.mark.parametrize("prop", list(CertProperty))
    @pytest.mark.parametrize("qv", [0.5, 2.0])
    def test_samples_root_by_root(self, prop, qv):
        # x_0, q x_0, ..., q^N x_0, then x_1, ...: each lattice point by
        # iterated multiplication, one call of f per sample
        q = QParam(qv)
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 / (x + 1.0)

        certify(f, q, CertSpec(prop, max_order=3, grid=self.GRID))
        expected = []
        for x in self.GRID.points:
            for _ in range(4):
                expected.append(x)
                x = q.q * x
        assert repr(seen) == repr(expected)

    @pytest.mark.parametrize("prop", list(CertProperty))
    def test_first_bad_sample_in_sampling_order_is_named(self, prop):
        # q^2 x_0 = 0.125 comes before x_1 = 1.0 in sampling order, and f
        # sees no point after it, not even q^3 x_0 of the same root
        bad = {0.125, self.GRID.points[1]}
        seen = []

        def f(x):
            seen.append(x)
            return math.nan if x in bad else 1.0 + x

        with pytest.raises(EvaluationError, match=r"not finite at x = 0\.125: got nan"):
            certify(f, Q5, CertSpec(prop, max_order=3, grid=self.GRID))
        assert seen == [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("prop", [QCM, QBERNSTEIN])
    def test_int_too_large_for_a_float_is_named(self, prop):
        # an EvaluationError like inf and nan, not isfinite's bare
        # OverflowError; Log_q of it is a finite float, so QLOGCM takes it
        with pytest.raises(EvaluationError, match=r"^function not finite at x = 0\.5: got 10{400}$"):
            certify(lambda x: 10**400, Q5, CertSpec(prop, max_order=2, grid=self.GRID))
        rep = closure_checks({"huge": lambda x: 10**400}, Q5, CertSpec(QCM, max_order=2))
        assert [v for _, _, v in rep.base] == ["inapplicable"] * 3

    @pytest.mark.parametrize("prop", [QCM, QBERNSTEIN])
    def test_minus_inf_is_an_evaluation_error(self, prop):
        with pytest.raises(EvaluationError, match="got -inf"):
            certify(lambda x: -math.inf, Q5, CertSpec(prop, max_order=2, grid=self.GRID))

    def test_minus_inf_fails_the_log_positivity_check(self):
        with pytest.raises(InputError, match=r"positive function: f\(0\.5\) = -inf"):
            certify(lambda x: -math.inf, Q5, CertSpec(QLOGCM, max_order=2, grid=self.GRID))

    @pytest.mark.parametrize("prop", [QCM, QBERNSTEIN])
    def test_f_itself_is_the_target(self, prop):
        f = lambda x: x
        assert _certification_target(f, Q5, prop) is f

    @settings(deadline=None, max_examples=100)
    @given(qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)), y=st.floats(1e-300, 1e300))
    def test_log_target_is_log_q_bit_for_bit(self, qv, y):
        q = QParam(qv)
        g = _certification_target(lambda x: y, q, QLOGCM)
        assert g(1.0).hex() == log_q(y, q).hex()

    def test_closure_marks_a_non_finite_member_inapplicable(self):
        corpus = {"identity": lambda x: x, "blows_up": lambda x: math.inf if x < 1.0 else x}
        rep = closure_checks(corpus, Q5, CertSpec(QCM, max_order=2))
        base = {(n, p): v for n, p, v in rep.base}
        for prop in CertProperty:
            assert base[("blows_up", prop.value)] == "inapplicable"
        assert base[("identity", "qbernstein")] == "Consistent"
        assert all(c.f_name != "blows_up" for c in rep.checks)


class TestSoundness:
    """Certifier verdicts must match the analytically known sign patterns."""

    QS = (0.3, 0.5, 0.7, 0.9)

    @pytest.mark.parametrize("qv", QS)
    def test_monomials(self, qv):
        q = QParam(qv)
        for m, bernstein_expected in ((1, Verdict.CONSISTENT), (2, Verdict.VIOLATED), (3, Verdict.VIOLATED)):
            f = lambda x, m=m: x**m
            assert certify(f, q, CertSpec(QCM, max_order=6)).verdict is Verdict.VIOLATED
            rep = certify(f, q, CertSpec(QBERNSTEIN, max_order=6))
            assert rep.verdict is bernstein_expected
            if m > 1:
                # the sign break is D_q^2 x^m = -[m][m-1] x^(m-2), order 2
                assert rep.counterexamples[0].n == 2

    @pytest.mark.parametrize("qv", QS)
    def test_small_e_decay_is_qcm(self, qv):
        # D_q^n e_q(ax) = a^n e_q(ax) with a < 0 alternates correctly
        q = QParam(qv)
        f = lambda x: q_exp(-0.2 * x, q, ExpKind.SMALL_E)
        assert certify(f, q, CertSpec(QCM, max_order=6)).verdict is Verdict.CONSISTENT

    @pytest.mark.parametrize("qv", QS)
    def test_small_e_growth_is_not_qcm(self, qv):
        q = QParam(qv)
        f = lambda x: q_exp(0.2 * x, q, ExpKind.SMALL_E)
        rep = certify(f, q, CertSpec(QCM, max_order=6))
        assert rep.verdict is Verdict.VIOLATED
        assert rep.counterexamples[0].n == 1

    @pytest.mark.parametrize("qv", QS)
    def test_big_e_decay_is_qcm(self, qv):
        q = QParam(qv)
        f = lambda x: q_exp(-0.2 * x, q, ExpKind.BIG_E)
        assert certify(f, q, CertSpec(QCM, max_order=6)).verdict is Verdict.CONSISTENT

    @pytest.mark.parametrize("qv", QS)
    def test_reciprocal_is_qcm(self, qv):
        q = QParam(qv)
        f = lambda x: 1.0 / (x + 1.0)
        assert certify(f, q, CertSpec(QCM, max_order=6)).verdict is Verdict.CONSISTENT


class TestDeterminism:
    def test_byte_identical_reports_across_runs(self):
        spec = CertSpec(QCM, max_order=5)
        f = lambda x: 1.0 / (x + 1.0)
        a = report_to_json(certify(f, Q5, spec))
        b = report_to_json(certify(f, Q5, spec))
        assert a == b

    def test_counterexamples_sorted_by_grid_index_then_order(self):
        rep = certify(lambda x: x * x, Q5, CertSpec(QBERNSTEIN, max_order=4))
        keys = [(c.x, c.n) for c in rep.counterexamples]
        order = {x: i for i, x in enumerate(rep.grid)}
        assert keys == sorted(keys, key=lambda p: (order[p[0]], p[1]))

    def test_every_counterexample_fails_the_tolerance_test(self):
        for f in (lambda x: x * x, lambda x: x):
            rep = certify(f, Q5, CertSpec(QCM, max_order=5))
            assert rep.counterexamples
            for c in rep.counterexamples:
                assert c.value < 0.0
                assert abs(c.value) > rep.tol_rel * c.scale


class TestGoldenReports:
    """report_to_json text recorded from an earlier release: reports must stay
    byte-identical across versions, not only across runs of one version."""

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.mark.parametrize(
        "name, f, spec",
        [
            ("reciprocal_qcm_n6", lambda x: 1 / (x + 1), CertSpec(QCM)),
            ("square_qbernstein_n4", lambda x: x * x, CertSpec(QBERNSTEIN, max_order=4)),
            ("exp_qlogcm_n8", lambda x: math.exp(-x), CertSpec(QLOGCM, max_order=8)),
        ],
    )
    def test_report_json_matches_golden(self, name, f, spec):
        golden = (self.GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert report_to_json(certify(f, Q5, spec)) == golden


def _reference_fold(f, q, spec):
    """checks_run, min_margin and counterexamples recomputed one check at a
    time from each grid point's own entrywise triangle (`reference_rows`):
    the value (n, 0) and its propagated magnitude mag_rows[n][0], plus every
    decision as (x, n, neutral, margin)."""
    n_max = spec.max_order
    if spec.property is QCM:
        pattern = [(n, (-1.0) ** n) for n in range(0, n_max + 1)]
    elif spec.property is QLOGCM:
        pattern = [(n, (-1.0) ** n) for n in range(1, n_max + 1)]
    else:
        pattern = [(0, 1.0)] + [(n, (-1.0) ** (n - 1)) for n in range(1, n_max + 1)]
    g = _certification_target(f, q, spec.property)
    checks_run, min_margin, ces, decisions = 0, math.inf, [], []
    for x in spec.grid.points:
        rows, mag_rows = reference_rows(g, x, q, n_max)
        for n, sign in pattern:
            v = rows[n][0]
            scale = mag_rows[n][0]
            signed = sign * v
            neutral = abs(v) <= spec.tol_rel * scale
            margin = 0.0 if neutral else signed
            checks_run += 1
            decisions.append((x, n, neutral, margin))
            if margin < min_margin:
                min_margin = margin
            if not neutral and signed < 0.0:
                ces.append(Counterexample(x, n, signed, scale))
    return checks_run, min_margin, tuple(ces), decisions


_FAMILIES = {
    "reciprocal": lambda c: lambda x: 1.0 / (x + c),
    "exp_decay": lambda c: lambda x: math.exp(-c * x),
    "identity": lambda c: lambda x: x,
    "square": lambda c: lambda x: x * x,
    "constant": lambda c: lambda x: c,
}


class TestReferenceFold:
    @settings(deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        c=st.floats(0.1, 3.0),
        qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
        prop=st.sampled_from(list(CertProperty)),
        order=st.integers(1, 8),
        points=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=8, unique=True),
    )
    def test_certify_matches_table_reference_bit_for_bit(
        self, family, c, qv, prop, order, points
    ):
        f = _FAMILIES[family](c)
        q = QParam(qv)
        spec = CertSpec(prop, max_order=order, grid=Grid(tuple(sorted(points))))
        try:
            rep = certify(f, q, spec)
        except InputError as exc:  # Log_q of an underflowed sample
            with pytest.raises(InputError, match=re.escape(str(exc))):
                _reference_fold(f, q, spec)
            return
        checks_run, min_margin, ces, _ = _reference_fold(f, q, spec)
        assert rep.checks_run == checks_run
        assert repr(rep.min_margin) == repr(min_margin)
        assert repr(rep.counterexamples) == repr(ces)
        assert rep.verdict is (Verdict.VIOLATED if ces else Verdict.CONSISTENT)


#: Closed-form builtins of the CLI, with the parameter each one takes.
_CLOSED_FORMS = {
    "identity": None,
    "constant": "value",
    "square": None,
    "reciprocal_shift": "shift",
    "exp_decay": "rate",
    "eq_decay": "rate",
    "one_minus_eq_decay": "rate",
}


def _closed_form(name, q, param):
    key = _CLOSED_FORMS[name]
    return build_function(name, q, {} if key is None else {key: param})


def _lattice(points, q, order):
    return [x * q.q**j for x in points for j in range(order + 1)]


_BOTH_REGIMES = st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0))


class TestNumericalZeroBand:
    """A check at order n is neutral exactly when |value| <= tol_rel times
    the propagated magnitude of the entry it checks, mag_rows[n][0]: the
    band follows the units of f and reads only the samples at q^j x,
    j <= n."""

    # the benchmark's psi_k operation: psi_q'' < 0, so order 0 is violated
    PSI_K_Q = QParam(0.35744064825881916)
    PSI_K_GRID = Grid.log_spaced(0.06442818748230618, 0.20687418940466976, 3)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_psi_k_first_violation_is_order_zero_for_every_order(self, order):
        # |f(q^7 x)| = 1.8e13 against f(x) = -7480: the order-0 band must
        # not read samples below x
        q = self.PSI_K_Q
        f = build_function("q_psi_k", q, {"k": 2})
        rep = certify(f, q, CertSpec(QCM, order, self.PSI_K_GRID))
        first = rep.counterexamples[0]
        assert (first.x, first.n) == (self.PSI_K_GRID.points[0], 0)
        assert first.value == f(first.x) < 0.0

    @settings(deadline=None, max_examples=60)
    @given(
        name=st.sampled_from(sorted(_CLOSED_FORMS)),
        param=st.floats(0.1, 3.0),
        qv=_BOTH_REGIMES,
        prop=st.sampled_from([QCM, QBERNSTEIN]),
        order=st.integers(1, 8),
        points=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6, unique=True),
    )
    def test_verdict_does_not_depend_on_the_units_of_f(
        self, name, param, qv, prop, order, points
    ):
        # QLOGCM is left out: it checks Log_q(c f) = Log_q c + Log_q f, so c
        # shifts its samples rather than scaling them, and the rounding error
        # of the shifted samples (and with it the band) grows with |Log_q c|
        q = QParam(qv)
        f = _closed_form(name, q, param)
        spec = CertSpec(prop, max_order=order, grid=Grid(tuple(sorted(points))))
        # keep every scaled sample a normal float
        assume(all(v == 0.0 or 1e-290 < abs(v) < 1e290
                   for v in map(f, _lattice(spec.grid.points, q, order))))
        outcomes = set()
        for c in (1e-12, 1.0, 1e12):
            rep = certify(lambda x, c=c: c * f(x), q, spec)
            outcomes.add((rep.verdict, tuple((ce.x, ce.n) for ce in rep.counterexamples)))
        assert len(outcomes) == 1

    @settings(deadline=None, max_examples=60)
    @given(
        name=st.sampled_from(sorted(_CLOSED_FORMS)),
        param=st.floats(0.1, 3.0),
        qv=_BOTH_REGIMES,
        prop=st.sampled_from(list(CertProperty)),
        orders=st.lists(st.integers(1, 8), min_size=2, max_size=2, unique=True).map(sorted),
        points=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6, unique=True),
    )
    def test_raising_the_order_leaves_lower_orders_unchanged(
        self, name, param, qv, prop, orders, points
    ):
        q = QParam(qv)
        f = _closed_form(name, q, param)
        lo = orders[0]
        grid = Grid(tuple(sorted(points)))
        specs = [CertSpec(prop, max_order=n, grid=grid) for n in orders]
        try:
            low, high = (certify(f, q, spec) for spec in specs)
        except InputError:  # Log_q of an underflowed sample
            return
        kept = tuple(c for c in high.counterexamples if c.n <= lo)
        assert repr(kept) == repr(low.counterexamples)
        low_decisions = _reference_fold(f, q, specs[0])[3]
        high_decisions = [d for d in _reference_fold(f, q, specs[1])[3] if d[1] <= lo]
        assert repr(high_decisions) == repr(low_decisions)

    def test_h_aux_is_not_qcm_at_order_five(self):
        # -h' = x |log q| q^x / (1 - q^x) is not decreasing near 0, so h is
        # not q-CM; the violation must show at N = 6 as it does at N = 5
        q, x = Q5, 3.0
        rep = certify(lambda t: h_aux(t, q), q, CertSpec(QCM, 6, Grid((x,))))
        assert [(c.x, c.n) for c in rep.counterexamples] == [(3.0, 5)]
        ce = rep.counterexamples[0]
        want = mp_h_aux_q_derive(x, q, 5)  # +5.0526323062726598e-4
        assert abs(-ce.value - want) <= 8.0 * UNIT_ROUNDOFF * ce.scale
        # the reference itself lies outside the band: a proved violation
        assert want > rep.tol_rel * ce.scale


class TestSerialization:
    def test_json_shape(self):
        rep = certify(lambda x: x, Q5, CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2)))
        text = report_to_json(rep)
        assert text.startswith('{"kind": "cert_report"')
        assert '"verdict": "Violated"' in text
        assert text.endswith("\n")

    def test_csv_rows(self):
        rep = certify(lambda x: x, Q5, CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2)))
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == "x,n,value,scale,margin"
        assert len(lines) == 1 + len(rep.counterexamples)
        first = lines[1].split(",")
        assert first[0] == "1"  # x = 1 at 17 significant digits
        assert first[1] == "1"
        assert first[2] == "-1"

    def test_consistent_report_has_header_only_csv(self):
        rep = certify(lambda x: 1.0 / (x + 1.0), Q5, CertSpec(QCM, max_order=3))
        assert report_to_csv(rep) == "x,n,value,scale,margin\n"

    def test_public_serializers_follow_the_report_protocol(self):
        rep = certify(lambda x: x, Q5, CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2)))
        assert report_to_tree(rep) == rep.to_tree()
        assert report_to_json(rep) == render_json(rep.to_tree())
        assert report_to_csv(rep) == render_csv(*rep.csv_rows())


def test_public_names_are_each_modules_all():
    from qmono import cert, qcore, qdiff, qmeasure, qspecial

    modules = (qcore, qdiff, qmeasure, qspecial, cert)
    assert qmono.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(qmono.__all__)) == len(qmono.__all__)
    for name in qmono.__all__:
        assert hasattr(qmono, name), name
    for name in ("REL_TERM_TOL", "MERGE_TOL", "SemigroupEntry", "ClosureCheck"):
        assert name in qmono.__all__


def test_module_is_not_shadowed_by_the_function():
    mod = importlib.import_module("qmono.cert")
    assert mod.__name__ == "qmono.cert"
    assert mod.certify is certify is qmono.certify


class TestBernsteinIff:
    TS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize(
        "name,f",
        [
            ("identity", lambda x: x),
            ("constant", lambda x: 3.0),
            ("one_minus_decay", lambda x: 1.0 - eq_power(-x, Q5)),
        ],
    )
    def test_bernstein_functions_agree(self, name, f):
        rep = bernstein_iff_check(f, self.TS, Q5, CertSpec(QCM, max_order=6))
        assert rep.f_report.verdict is Verdict.CONSISTENT
        assert all(r.verdict is Verdict.CONSISTENT for _, r in rep.cm_reports)
        assert rep.agree and not rep.any_violation

    def test_square_negative_control(self):
        rep = bernstein_iff_check(lambda x: x * x, self.TS, Q5, CertSpec(QCM, max_order=6))
        assert rep.f_report.verdict is Verdict.VIOLATED
        # D_q^2 x^2 = [2][1], so the signed order-2 value is -[2]!
        first = rep.f_report.counterexamples[0]
        assert first.n == 2
        assert first.value == pytest.approx(-q_number(2.0, Q5), rel=1e-12)
        assert rep.any_violation and rep.flagged

    def test_nonpositive_t_rejected(self):
        with pytest.raises(InputError):
            bernstein_iff_check(lambda x: x, (0.0,), Q5, CertSpec(QCM))


class TestDifferenceCheck:
    def test_constant_difference_is_zero(self):
        rep = difference_check(lambda x: 2.0, 1.0, Q5, CertSpec(QCM, max_order=4))
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.min_margin == 0.0

    def test_reciprocal_difference_is_qcm(self):
        f = lambda x: 1.0 / (x + 1.0)
        f_rep = certify(f, Q5, CertSpec(QCM, max_order=5))
        rep = difference_check(f, 1.0, Q5, CertSpec(QCM, max_order=5), f_report=f_rep)
        assert rep.verdict is Verdict.CONSISTENT
        assert any("Consistent" in note for note in rep.notes)

    def test_identity_negative_control(self):
        # f(x) - f(x+1) = -1: nonnegativity already fails at order 0
        rep = difference_check(lambda x: x, 1.0, Q5, CertSpec(QCM, max_order=3))
        assert rep.verdict is Verdict.VIOLATED
        assert rep.counterexamples[0].n == 0
        assert rep.counterexamples[0].value == -1.0

    def test_skipped_precondition_is_noted(self):
        rep = difference_check(lambda x: 2.0, 0.5, Q5, CertSpec(QCM, max_order=2))
        assert any("not checked" in note for note in rep.notes)

    def test_bad_shift_rejected(self):
        with pytest.raises(InputError):
            difference_check(lambda x: x, 0.0, Q5, CertSpec(QCM))


class TestClosureChecks:
    def make_corpus(self):
        return {
            "identity": lambda x: x,
            "constant": lambda x: 2.0,
            "one_minus_eq_decay": lambda x: 1.0 - eq_power(-x, Q5),
            "reciprocal_shift": lambda x: 1.0 / (x + 1.0),
            "eq_decay": lambda x: eq_power(-x, Q5),
        }

    def test_closure_laws_hold_on_corpus(self):
        rep = closure_checks(self.make_corpus(), Q5, CertSpec(QCM, max_order=5))
        assert rep.all_ok
        kinds = {c.kind for c in rep.checks}
        assert kinds == {"composition", "logcm_implies_cm", "power_stays_cm", "decay_is_logcm"}

    def test_base_verdicts_match_theory(self):
        rep = closure_checks(self.make_corpus(), Q5, CertSpec(QCM, max_order=5))
        base = {(n, p): v for n, p, v in rep.base}
        assert base[("identity", "qbernstein")] == "Consistent"
        assert base[("identity", "qcm")] == "Violated"
        assert base[("eq_decay", "qcm")] == "Consistent"
        assert base[("eq_decay", "qlogcm")] == "Consistent"
        assert base[("eq_decay", "qbernstein")] == "Violated"
        assert base[("reciprocal_shift", "qcm")] == "Consistent"

    def test_composition_includes_canonical_pair(self):
        # identity composed into 1 - E_q(1)^(-x) stays q-Bernstein
        rep = closure_checks(
            {"identity": lambda x: x, "one_minus_eq_decay": lambda x: 1.0 - eq_power(-x, Q5)},
            Q5,
            CertSpec(QCM, max_order=5),
        )
        pairs = {(c.f_name, c.g_name) for c in rep.checks if c.kind == "composition"}
        assert ("identity", "one_minus_eq_decay") in pairs
        assert rep.all_ok

    def test_logcm_implies_cm_over_corpus(self):
        rep = closure_checks(self.make_corpus(), Q5, CertSpec(QCM, max_order=5))
        rows = [c for c in rep.checks if c.kind == "logcm_implies_cm"]
        assert rows, "corpus must exercise the implication"
        assert all(c.ok for c in rows)


def _q_periodic(q: QParam, eps: float = 0.5, phi: float = 0.0):
    """p(x) = 1 + eps sin(2 pi log x / log q + phi), |eps| < 1: p(q x) = p(x),
    so p is a positive constant on every lattice {q^j x} that D_q^n reads,
    yet not constant in x."""
    log_q = math.log(q.q)
    return lambda x: 1.0 + eps * math.sin(2.0 * math.pi * math.log(x) / log_q + phi)



class TestLawsNeedClassicalFunctions:
    """Two classical laws that do not carry over to q-patterned functions:
    a factor p constant on each lattice keeps every q-pattern of f, but the
    shift x + a and the argument of an outer function leave x's lattice."""

    def test_difference_of_a_q_cm_function_can_be_negative(self):
        q = QParam(2.0)
        p = _q_periodic(q)
        f = lambda x: p(x) / (x + 1.0)
        spec = CertSpec(QCM, max_order=6)
        f_rep = certify(f, q, spec)
        assert f_rep.verdict is Verdict.CONSISTENT
        rep = difference_check(f, 0.5, q, spec, f_report=f_rep)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.notes == ("precondition: supplied QCM report for f is Consistent",)
        first = rep.counterexamples[0]
        assert (first.x, first.n) == (0.1, 0)
        # order 0 fails outright: f(0.1) < f(0.6), no band involved
        assert f(0.1) == pytest.approx(0.5002, abs=1e-4)
        assert f(0.6) == pytest.approx(0.9365, abs=1e-4)

    @pytest.mark.parametrize(("qv", "first_n"), [(0.5, 3), (0.9, 3), (2.0, 2)])
    def test_composition_needs_a_classical_outer_function(self, qv, first_n):
        q = QParam(qv)
        p = _q_periodic(q)
        big_f = lambda x: p(x) * -math.expm1(-x)  # q-Bernstein, not classically
        big_g = lambda y: -math.expm1(-y)  # classically Bernstein
        spec = CertSpec(QBERNSTEIN)
        for h in (big_f, big_g, lambda x: big_g(big_f(x))):
            assert certify(h, q, spec).verdict is Verdict.CONSISTENT
        rep = certify(lambda x: big_f(big_g(x)), q, spec)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.counterexamples[0].n == first_n

    def test_closure_composition_row_fails_for_a_q_outer_function(self):
        q = QParam(2.0)
        p = _q_periodic(q)
        fs = {"F": lambda x: p(x) * -math.expm1(-x), "G": lambda y: -math.expm1(-y)}
        rep = closure_checks(fs, q, CertSpec(QCM))
        ok = {(c.f_name, c.g_name): c.ok for c in rep.checks if c.kind == "composition"}
        # (f, g) names g o f: the law holds exactly where the outer g is G
        assert ok == {("F", "F"): False, ("F", "G"): True, ("G", "F"): False, ("G", "G"): True}
        # the laws that act on values along one lattice hold for both
        assert all(c.ok for c in rep.checks if c.kind != "composition")


def _cli_closure_corpus(q: QParam) -> dict:
    return {name: build_function(name, q, {}) for name in _CLOSURE_CORPUS}


class TestDecaySide:
    """bernstein_iff_check and closure_checks share one decay side: every t
    is refused before anything is certified."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("lead", [(), (1.0,)])
    @pytest.mark.parametrize("check", ["bernstein_iff", "closure"])
    def test_bad_t_refused_before_any_call(self, check, lead, bad):
        seen = []

        def f(x):
            seen.append(x)
            return x

        ts = lead + (bad,)
        spec = CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2))
        with pytest.raises(InputError, match="transform parameters must be positive"):
            if check == "bernstein_iff":
                bernstein_iff_check(f, ts, Q5, spec)
            else:
                closure_checks({"identity": f}, Q5, spec, ts=ts)
        assert seen == []

    def test_both_sides_certify_the_same_decay_reports(self):
        spec = CertSpec(QCM, max_order=4)
        f = lambda x: 1.0 - eq_power(-x, Q5)
        ts = (0.5, 2.0)
        iff = bernstein_iff_check(f, ts, Q5, spec)
        rep = closure_checks({"one_minus_eq_decay": f}, Q5, spec, ts=ts)
        rows = [(c.t, c.verdict) for c in rep.checks if c.kind == "power_stays_cm"]
        assert rows == [(t, r.verdict) for t, r in iff.cm_reports]
        assert all(r.verdict is Verdict.CONSISTENT for _, r in iff.cm_reports)


def _lattice_root_by_root(points, q: QParam, order: int) -> list:
    """x_0, q x_0, ..., q^N x_0, then x_1, ...: iterated products, the
    order in which a table samples f."""
    out = []
    for x in points:
        for _ in range(order + 1):
            out.append(x)
            x = q.q * x
    return out


def _member(kind: str, c: float, q: QParam, bad: float | None):
    """A corpus member: a closed form with parameter c; `patterned` is
    p(x) (1 - e^(-c x)) with p constant on each lattice, and `nan_at` is
    1/(x + c) except nan at the lattice point `bad`."""
    if kind == "identity":
        return lambda x: x
    if kind == "constant":
        return lambda x: c
    if kind == "square":
        return lambda x: x * x
    if kind == "one_minus_x":
        return lambda x: 1.0 - x
    if kind == "reciprocal_shift":
        return lambda x: 1.0 / (x + c)
    if kind == "exp_decay":
        return lambda x: math.exp(-c * x)
    if kind == "eq_decay":
        return lambda x: eq_power(-c * x, q)
    if kind == "one_minus_eq_decay":
        return lambda x: 1.0 - eq_power(-c * x, q)
    if kind == "patterned":  # q-Bernstein, not classically: an outer g that breaks g o f
        p = _q_periodic(q)
        return lambda x: p(x) * -math.expm1(-c * x)
    assert kind == "nan_at"
    return lambda x: math.nan if x == bad else 1.0 / (x + c)


_KINDS = ("identity", "constant", "square", "one_minus_x", "reciprocal_shift", "exp_decay",
          "eq_decay", "one_minus_eq_decay", "patterned", "nan_at")


class TestOneSampleSet:
    """closure_checks and bernstein_iff_check sample each f once per call
    and table every target from those samples; their reports are those of
    one `certify` call per target (tests/_oracles.py), bit for bit."""

    # no two lattice points coincide at q = 0.5 or q = 2 to order 3
    GRID = Grid.linear(0.7, 2.0, 4)

    @staticmethod
    def same(fast, reference, *args):
        # repr shows every float exactly (and nan, -0.0); an exception
        # compares by type and message
        a, b = outcome(fast, *args), outcome(reference, *args)
        assert a == b

    @settings(deadline=None, max_examples=120)
    @given(
        qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
        order=st.integers(1, MAX_TABLE_ORDER),
        lo=st.floats(0.05, 2.0),
        span=st.floats(1.5, 20.0),
        count=st.integers(1, 12),
        members=st.lists(
            st.tuples(st.sampled_from(_KINDS), st.floats(0.1, 3.0), st.integers(0, 10**6)),
            min_size=1, max_size=5,
        ),
        ts=st.lists(st.floats(0.05, 3.0), max_size=3),
        underflow=st.booleans(),
    )
    def test_reports_match_one_certify_per_target(
        self, qv, order, lo, span, count, members, ts, underflow
    ):
        q = QParam(qv)
        spec = CertSpec(QCM, max_order=order, grid=Grid.log_spaced(lo, lo * span, count))
        lattice = _lattice_root_by_root(spec.grid.points, q, order)
        corpus = {
            f"{kind}{i}": _member(kind, c, q, lattice[k % len(lattice)])
            for i, (kind, c, k) in enumerate(members)
        }
        if underflow:
            # E_q(1)^(-1e4 x) is 0.0 on the lattice: QLOGCM inapplicable
            corpus["eq_decay_underflows"] = _member("eq_decay", 1e4, q, None)
        self.same(lambda: closure_checks(corpus, q, spec, ts=ts),
                  lambda: reference_closure_checks(corpus, q, spec, ts=ts))
        for f in corpus.values():
            self.same(bernstein_iff_check, reference_bernstein_iff_check, f, ts, q, spec)

    @pytest.mark.parametrize("qv", [0.5, 2.0])
    @pytest.mark.parametrize("order", [1, 5, 8])
    def test_cli_corpus_with_an_underflowing_and_a_nan_member(self, qv, order):
        q = QParam(qv)
        spec = CertSpec(QCM, max_order=order)
        bad = _lattice_root_by_root(spec.grid.points, q, order)[order + 2]
        corpus = _cli_closure_corpus(q)
        corpus["eq_decay_underflows"] = _member("eq_decay", 1e4, q, None)
        corpus["nan_at"] = _member("nan_at", 1.0, q, bad)
        rep = closure_checks(corpus, q, spec)
        base = {(n, p): v for n, p, v in rep.base}
        assert base[("eq_decay_underflows", "qlogcm")] == "inapplicable"
        assert base[("eq_decay_underflows", "qcm")] == "Consistent"
        assert [base[("nan_at", p.value)] for p in CertProperty] == ["inapplicable"] * 3
        assert repr(rep) == repr(reference_closure_checks(corpus, q, spec))

    @pytest.mark.parametrize("qv", [0.5, 2.0])
    def test_closure_samples_each_member_once(self, qv):
        q = QParam(qv)
        spec = CertSpec(QCM, max_order=3, grid=self.GRID)
        lattice = _lattice_root_by_root(self.GRID.points, q, 3)
        closed = _cli_closure_corpus(q)
        # the member that is nan at q x_1 sees no point after it
        closed["nan_at"] = _member("nan_at", 1.0, q, lattice[5])
        seen = {name: [] for name in closed}

        def counted(name):
            f = closed[name]
            return lambda x: seen[name].append(x) or f(x)

        rep = closure_checks({name: counted(name) for name in closed}, q, spec)
        bernstein = sorted(n for n, p, v in rep.base if p == "qbernstein" and v == "Consistent")
        assert bernstein == ["constant", "identity", "one_minus_eq_decay"]
        assert repr(seen.pop("nan_at")) == repr(lattice[:6])
        for name, calls in seen.items():
            # each lattice point once, root by root; then a certified
            # Bernstein g is the outer function at each Bernstein f's
            # samples, f in name order
            expected = list(lattice)
            if name in bernstein:
                for f_name in bernstein:
                    expected += [float(closed[f_name](x)) for x in lattice]
            assert repr(calls) == repr(expected), name

    @pytest.mark.parametrize("qv", [0.5, 2.0])
    def test_bernstein_iff_samples_f_once(self, qv):
        q = QParam(qv)
        seen = []

        def f(x):
            seen.append(x)
            return 1.0 - eq_power(-x, q)

        rep = bernstein_iff_check(f, (0.5, 1.0, 2.0), q, CertSpec(QCM, max_order=3, grid=self.GRID))
        assert len(rep.cm_reports) == 3
        assert repr(seen) == repr(_lattice_root_by_root(self.GRID.points, q, 3))

    def test_bernstein_iff_names_the_first_bad_sample(self):
        lattice = _lattice_root_by_root(self.GRID.points, Q5, 3)
        seen = []

        def f(x):
            seen.append(x)
            return math.nan if x == lattice[5] else x

        with pytest.raises(EvaluationError, match=f"not finite at x = {lattice[5]!r}: got nan"):
            bernstein_iff_check(f, (1.0,), Q5, CertSpec(QCM, max_order=3, grid=self.GRID))
        assert seen == lattice[:6]

    def test_an_overflowing_decay_target_names_its_argument(self):
        # E_q(1)^(-t f) with f = -x: the decay side raises, as certify would
        spec = CertSpec(QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2))
        f = lambda x: -x
        with pytest.raises(OverflowError, match=r"E_q\(1\)\^x overflows a float at x = 1000\.0 \(q = 0\.5\)"):
            bernstein_iff_check(f, (1000.0,), Q5, spec)
        self.same(bernstein_iff_check, reference_bernstein_iff_check, f, (1000.0,), Q5, spec)

    @staticmethod
    def dipping(dips: dict):
        """x, except the value dips[x] at the lattice points it names."""
        return lambda x: dips.get(x, x)

    @pytest.mark.parametrize("qv", [0.5, 0.9])
    @pytest.mark.parametrize("order", [2, 3, 8])
    def test_decay_overflow_names_the_first_sample_root_by_root(self, qv, order):
        # q x_2 comes before q^N x_1 in the lattice's column-major list, after
        # it root by root; E_q(1)^(-t v) first overflows at t = 1, at both
        # points, and the error names v = -1000, not -1200
        q = QParam(qv)
        spec = CertSpec(QCM, max_order=order, grid=self.GRID)
        lattice = _lattice_root_by_root(self.GRID.points, q, order)
        f = self.dipping({lattice[2 * order + 1]: -1000.0, lattice[2 * (order + 1) + 1]: -1200.0})
        msg = rf"^E_q\(1\)\^x overflows a float at x = 1000\.0 \(q = {qv!r}\)$"
        with pytest.raises(OverflowError, match=msg):
            bernstein_iff_check(f, (0.5, 1.0, 2.0), q, spec)
        self.same(bernstein_iff_check, reference_bernstein_iff_check, f, (0.5, 1.0, 2.0), q, spec)

    @pytest.mark.parametrize("qv", [0.5, 0.9])
    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_closure_decay_overflow_matches_the_reference(self, qv, order):
        # below 1 a dip at q^N x alone enters order N only, with the sign
        # QBERNSTEIN asks there: the member is certified, and its decay
        # target overflows at q^N x_1 (and at q^N x_3, later)
        q = QParam(qv)
        spec = CertSpec(QCM, max_order=order, grid=self.GRID)
        lattice = _lattice_root_by_root(self.GRID.points, q, order)
        corpus = {
            "identity": lambda x: x,
            "constant": lambda x: 2.0,
            "dips": self.dipping({lattice[2 * order + 1]: -1000.0, lattice[4 * order + 3]: -2000.0}),
        }
        bern = replace(spec, property=QBERNSTEIN)
        assert certify(corpus["dips"], q, bern).verdict is Verdict.CONSISTENT
        msg = rf"^E_q\(1\)\^x overflows a float at x = 1000\.0 \(q = {qv!r}\)$"
        with pytest.raises(OverflowError, match=msg):
            closure_checks(corpus, q, spec)
        self.same(lambda: closure_checks(corpus, q, spec),
                  lambda: reference_closure_checks(corpus, q, spec))

    @pytest.mark.parametrize(
        ("ts", "value"),
        [((math.inf,), 0.0), ((math.inf,), -1.0), ((1e300,), -1e10), ((1e300,), 1e10)],
    )
    def test_a_decay_argument_past_the_float_range(self, ts, value):
        # -t v is nan or +-inf at q^3 x_1: E_q(1)^(-t v) is nan, inf or 0.0
        # there, with no OverflowError; the per-sample check names the first
        # non-finite one.  The certified dips (all but 1e10) reach the
        # closure's decay targets too.
        lattice = _lattice_root_by_root(self.GRID.points, Q5, 3)
        f = self.dipping({lattice[7]: value})
        spec = CertSpec(QCM, max_order=3, grid=self.GRID)
        self.same(bernstein_iff_check, reference_bernstein_iff_check, f, ts, Q5, spec)
        corpus = {"dips": f, "identity": lambda x: x}
        self.same(lambda: closure_checks(corpus, Q5, spec, ts=ts),
                  lambda: reference_closure_checks(corpus, Q5, spec, ts=ts))


class TestDecayIsLogcm:
    """The decay_is_logcm row is read off the QBERNSTEIN base verdict; the
    round trip it replaces, Log_q of E_q(1)^(-f) certified as QLOGCM, agrees
    wherever no sample underflows."""

    @pytest.mark.parametrize("order", range(1, MAX_TABLE_ORDER + 1))
    @pytest.mark.parametrize("qv", [0.5, 1.5])
    def test_row_matches_the_round_trip_certification(self, qv, order):
        q = QParam(qv)
        corpus = _cli_closure_corpus(q)
        spec = CertSpec(QCM, max_order=order)
        rep = closure_checks(corpus, q, spec)
        rows = {c.f_name: c for c in rep.checks if c.kind == "decay_is_logcm"}
        members = [n for n, p, v in rep.base if p == "qbernstein" and v == "Consistent"]
        assert sorted(rows) == sorted(members) == ["constant", "identity", "one_minus_eq_decay"]
        logcm = replace(spec, property=QLOGCM)
        compared = 0
        for name in members:
            f = corpus[name]
            lattice = [x * qv**j for x in spec.grid.points for j in range(order + 1)]
            if any(eq_power(-f(y), q) == 0.0 for y in lattice):
                continue
            ref = certify(lambda x: eq_power(-f(x), q), q, logcm)
            assert ref.verdict is Verdict.CONSISTENT
            assert (rows[name].verdict, rows[name].ok) == (ref.verdict, True)
            compared += 1
        assert compared == len(members)

    def test_every_law_holds_at_q_two_order_eight(self):
        # the round trip raised here: E_2(1)^(-f) underflows to 0 at q^8 x
        q = QParam(2.0)
        rep = closure_checks(_cli_closure_corpus(q), q, CertSpec(QCM, max_order=8))
        assert rep.all_ok
        assert [c.ok for c in rep.checks if c.kind == "decay_is_logcm"] == [True] * 3


#: A Bernstein-Widder measure: k <= 4 atoms (t, w), t in [e^-3, e^2] and
#: w in [e^-3, e^3].
_MEASURES = st.lists(
    st.tuples(st.floats(-3.0, 2.0).map(math.exp), st.floats(-3.0, 3.0).map(math.exp)),
    min_size=1,
    max_size=4,
)


class TestBernsteinWidderOracle:
    """No false alarm.  A q-difference of order n is [n]_q! times an n-th
    divided difference, so a classically completely monotone, Bernstein or
    log-completely monotone function has the q-sign pattern for every q.
    Over random measures mu, a, b >= 0, both regimes, N <= 8 and grids on
    [0.1, 5], certify must never report Violated for

      L = sum w e^(-t x)                     as QCM,
      B = a + b x + sum w (1 - e^(-t x))     as QBERNSTEIN,
      exp(-B)                                as QLOGCM.

    exp(-B) may underflow to 0.0 at a lattice point q^j x, and Log_q then
    refuses it (an InputError, not a verdict).  The negative control
    B + eps x^2 has D_q^2 = D_q^2 B + eps (1 + q), which is positive, a
    QBERNSTEIN violation at n = 2, wherever eps (1 + q) > |D_q^2 B|; orders 0
    and 1 stay positive.  |D_q^2 B| <= (1 + q) max |B''| / 2 <= (1 + q)
    sum w t^2 / 2, so eps = sum w t^2 + a + b + sum w + 1 puts every grid
    point past both that bound and the numerical-zero band."""

    @settings(deadline=None, max_examples=150)
    @given(
        measure=_MEASURES,
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 5.0),
        qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
        order=st.integers(1, 8),
        points=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12, unique=True),
    )
    def test_representations_are_never_violated(self, measure, a, b, qv, order, points):
        q = QParam(qv)
        grid = Grid(tuple(sorted(points)))

        def cm(x):
            return math.fsum(w * math.exp(-t * x) for t, w in measure)

        def bern(x):
            return math.fsum([a, b * x] + [-w * math.expm1(-t * x) for t, w in measure])

        for f, prop in ((cm, QCM), (bern, QBERNSTEIN), (lambda x: math.exp(-bern(x)), QLOGCM)):
            try:
                rep = certify(f, q, CertSpec(prop, max_order=order, grid=grid))
            except InputError as exc:
                assert prop is QLOGCM and str(exc).endswith(") = 0.0"), exc
                continue
            assert rep.verdict is Verdict.CONSISTENT, (prop, rep.counterexamples[:3])

        eps = math.fsum([a, b, 1.0] + [w * (1.0 + t * t) for t, w in measure])
        control = certify(
            lambda x: bern(x) + eps * x * x,
            q,
            CertSpec(QBERNSTEIN, max_order=max(order, 2), grid=grid),
        )
        assert [c.n for c in control.counterexamples if c.n < 3] == [2] * len(grid.points)


class TestQPeriodicFamilies:
    """The kernel of D_q as oracle and as sensitivity control.  D_q p = 0
    exactly when p(q x) = p(x), so D_q^n (p g) = p D_q^n g: a positive
    q-periodic p (`_q_periodic`) keeps every sign pattern g has at that q.
    p/(x + c) is q-CM and q-log-CM (Log_q p is q-periodic too), and
    p (1 - e^(-c x)) is q-Bernstein, although none of them is monotone, so
    the classical transfer of TestBernsteinWidderOracle does not reach
    them.  At another q' they lose the pattern: the certifier must see it.
    The band absorbs the rounding of log x / log q at the lattice points."""

    @settings(deadline=None, max_examples=150)
    @given(
        qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
        eps=st.floats(-0.99, 0.99),
        phi=st.floats(0.0, 2.0 * math.pi),
        c=st.floats(0.1, 5.0),
        order=st.integers(1, 8),
        points=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=16, unique=True),
    )
    def test_no_false_violation_at_the_own_q(self, qv, eps, phi, c, order, points):
        q = QParam(qv)
        p = _q_periodic(q, eps, phi)
        grid = Grid(tuple(sorted(points)))
        cm = lambda x: p(x) / (x + c)
        for f, prop in ((cm, QCM), (cm, QLOGCM), (lambda x: p(x) * -math.expm1(-c * x), QBERNSTEIN)):
            rep = certify(f, q, CertSpec(prop, max_order=order, grid=grid))
            assert rep.verdict is Verdict.CONSISTENT, (prop, rep.counterexamples[:3])

    @pytest.mark.parametrize(
        ("qv", "prop", "first_n"),
        [
            (0.5, QCM, 1), (0.5, QLOGCM, 1), (0.5, QBERNSTEIN, 2),
            (0.9, QCM, 2), (0.9, QLOGCM, 2), (0.9, QBERNSTEIN, 1),
            (2.0, QCM, 1), (2.0, QLOGCM, 1), (2.0, QBERNSTEIN, 2),
        ],
    )
    def test_another_q_is_violated(self, qv, prop, first_n):
        # p built for q, certified at q' = sqrt(q) below 1 and q^1.5 above
        q = QParam(qv)
        p = _q_periodic(q)
        g = (lambda x: -math.expm1(-x)) if prop is QBERNSTEIN else (lambda x: 1.0 / (x + 1.0))
        f = lambda x: p(x) * g(x)
        spec = CertSpec(prop, max_order=4)
        assert certify(f, q, spec).verdict is Verdict.CONSISTENT
        other = QParam(math.sqrt(qv) if qv < 1.0 else qv**1.5)
        rep = certify(f, other, spec)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.counterexamples[0].n == first_n


class TestClassicalTransfer:
    """Classical log-CM (finite-difference screen) implies the q-pattern."""

    def test_screen_passers_certify_qlogcm(self):
        corpus = {
            "reciprocal_shift": lambda x: 1.0 / (x + 1.0),
            "exp_decay": lambda x: math.exp(-x),
            "eq_decay": lambda x: eq_power(-x, Q5),
            "constant": lambda x: 2.0,
        }
        xs = (0.5, 1.0, 2.0, 3.5, 5.0)
        screened = {n for n, f in corpus.items() if classical_logcm_screen(f, xs)}
        assert screened == set(corpus), "all four are classically log-CM"
        for name in screened:
            rep = certify(corpus[name], Q5, CertSpec(QLOGCM, max_order=6))
            assert rep.verdict is Verdict.CONSISTENT, name

    def test_screen_rejects_non_logcm(self):
        # x + 1 is increasing: (log f)' > 0 breaks the pattern at n = 1
        assert not classical_logcm_screen(lambda x: x + 1.0, (0.5, 1.0, 2.0))


class TestThm31Harness:
    def test_consistent_for_hypothesis_points(self):
        for qv in (0.3, 0.7):
            for alpha, beta in ((0.5, 1.0), (0.0, 2.0)):
                p = GammaParams(alpha, beta, QParam(qv))
                rep = thm31_harness(p, CertSpec(QLOGCM, max_order=4))
                assert rep.verdict is Verdict.CONSISTENT
                assert any("witness" in n for n in rep.notes)

    def test_hypothesis_gate(self):
        p = GammaParams(0.7, 1.0, Q5)  # 2*alpha > 1
        with pytest.raises(InputError):
            thm31_harness(p, CertSpec(QLOGCM, max_order=3))
        rep = thm31_harness(p, CertSpec(QLOGCM, max_order=3), negative_control=True)
        assert isinstance(rep, CertReport)
        assert any("negative control" in n for n in rep.notes)


class TestThm32Harness:
    def test_single_pair(self):
        rp = RatioParams((1.0,), (2.0,))
        rep = thm32_harness(rp, Q5, CertSpec(QCM, max_order=5))
        assert rep.verdict is Verdict.CONSISTENT

    def test_equal_sequences_give_exact_ones(self):
        # a = b: the ratio collapses to 1 exactly, every order >= 1 is 0
        rp = RatioParams((1.0, 2.0), (1.0, 2.0))
        rep = thm32_harness(rp, Q5, CertSpec(QCM, max_order=5))
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.min_margin == 0.0
        f = lambda x: g_ratio(x, rp, Q5)
        for n in range(1, 6):
            assert q_derive_n(f, 1.0, Q5, n) == 0.0

    def test_hypothesis_gate(self):
        rp = RatioParams((2.0,), (1.0,))
        with pytest.raises(InputError, match="negative_control"):
            thm32_harness(rp, Q5, CertSpec(QCM, max_order=3))
        rep = thm32_harness(rp, Q5, CertSpec(QCM, max_order=3), negative_control=True)
        assert any("negative control" in n for n in rep.notes)


class TestPsiPrimeCertification:
    def test_psi_prime_is_qcm_to_order_six(self):
        f = lambda x: q_psi_k(x, Q5, 1)
        rep = certify(f, Q5, CertSpec(QCM, max_order=6))
        assert rep.verdict is Verdict.CONSISTENT
        assert len(rep.counterexamples) == 0
