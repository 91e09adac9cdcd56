"""Primitive layer: q-numbers, factorials, binomials, exponentials, products."""

import math
import re
import sys
import threading
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    UNIT_ROUNDOFF,
    mp_entire_exp,
    mp_entire_exp_near_one,
    mp_finite_exp,
    mp_log_eq_one,
    mp_qpoch_inf,
    mp_reciprocal_entire,
    outcome,
)
from qmono import (
    ConvergenceError,
    DomainError,
    ExpKind,
    QParam,
    Regime,
    eq_power,
    log_q,
    log_q_gamma,
    q_binomial,
    q_exp,
    q_factorial,
    q_number,
    q_pochhammer,
    qpoch_inf,
)
from qmono import qcore
from qmono.qcore import (
    _ALTERNATING_LIMIT,
    REL_TERM_TOL,
    _EXP_STEPS_CAP,
    _MAX_TERMS,
    _NEAR_RADIUS,
    _SETTLED_BY_TABLE,
    _SETTLED_POWER,
    _entire_exp_neg,
    _eq_powers,
    _exp_divisors,
    _exp_terms,
    _log_eq_base,
    _log_prod,
    _log_qpow_poch,
    _log_qq_inf,
    _log_tail,
    _log_tail_divisors,
)
from qmono.qspecial import _POLYLOG_MAX_TERMS

Q5 = QParam(0.5)


class TestQParam:
    def test_regime_tags(self):
        assert QParam(0.5).regime is Regime.SUB_ONE
        assert QParam(2.0).regime is Regime.SUPER_ONE
        assert QParam(0.5).is_sub_one
        assert not QParam(2.0).is_sub_one

    @pytest.mark.parametrize("bad", [1.0, 0.0, -0.5, math.inf, math.nan, 10**400])
    def test_rejects_bad_q(self, bad):
        with pytest.raises(DomainError):
            QParam(bad)


class TestSeriesCaps:
    def test_defaults(self):
        assert _MAX_TERMS == 10_000
        assert _POLYLOG_MAX_TERMS == 400_000
        assert REL_TERM_TOL == 1e-16


class TestQNumber:
    def test_one_is_one_for_any_q(self):
        for q in (0.1, 0.3, 0.5, 0.9, 2.0, 10.0):
            assert q_number(1.0, QParam(q)) == pytest.approx(1.0, rel=1e-14)

    def test_direct_sum(self):
        assert q_number(3.0, Q5) == pytest.approx(1.75, rel=1e-15)

    def test_classical_limit(self):
        # [2]_q = 1 + q = 1.999 at q = 0.999, within 1e-3 of the limit value 2
        v = q_number(2.0, QParam(0.999))
        assert v == pytest.approx(1.999, rel=1e-12)
        assert abs(v - 2.0) <= 1.0005e-3

    def test_geometric_sum_oracle(self):
        for qv in (0.3, 0.5, 0.9, 2.0):
            q = QParam(qv)
            for n in range(1, 13):
                expected = sum(qv**j for j in range(n))
                assert q_number(float(n), q) == pytest.approx(expected, rel=1e-13)


class TestQPochhammerFactorial:
    def test_empty_product(self):
        assert q_pochhammer(5.0, 0, Q5) == 1.0

    def test_product_of_q_numbers(self):
        assert q_pochhammer(1.0, 3, Q5) == pytest.approx(2.625, rel=1e-14)
        assert q_pochhammer(2.0, 2, Q5) == pytest.approx(1.5 * 1.75, rel=1e-14)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            q_pochhammer(1.0, -1, Q5)

    def test_factorial_values(self):
        assert q_factorial(0, Q5) == 1.0
        assert q_factorial(3, Q5) == pytest.approx(2.625, rel=1e-14)
        assert q_factorial(4, Q5) == pytest.approx(4.921875, rel=1e-14)

    def test_factorial_negative_rejected(self):
        with pytest.raises(DomainError):
            q_factorial(-2, Q5)


class TestQBinomial:
    def test_edges(self):
        assert q_binomial(7, 0, QParam(0.3)) == pytest.approx(1.0, rel=1e-14)
        assert q_binomial(7, 7, QParam(0.3)) == pytest.approx(1.0, rel=1e-14)

    def test_gaussian_polynomial_cross_check(self):
        # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4
        qv = 0.5
        expected = 1 + qv + 2 * qv**2 + qv**3 + qv**4
        assert q_binomial(4, 2, Q5) == pytest.approx(expected, rel=1e-13)
        assert q_binomial(4, 2, Q5) == pytest.approx(2.1875, rel=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            q_binomial(4, 5, Q5)
        with pytest.raises(DomainError):
            q_binomial(4, -1, Q5)

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9])
    def test_symmetry(self, qv):
        q = QParam(qv)
        for n in range(0, 13):
            for k in range(0, n + 1):
                assert q_binomial(n, k, q) == pytest.approx(
                    q_binomial(n, n - k, q), rel=1e-12
                )

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9])
    def test_q_pascal_recurrence(self, qv):
        # [n,k] = [n-1,k-1] + q^k [n-1,k], brute-force oracle
        q = QParam(qv)
        for n in range(1, 13):
            for k in range(1, n):
                lhs = q_binomial(n, k, q)
                rhs = q_binomial(n - 1, k - 1, q) + qv**k * q_binomial(n - 1, k, q)
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQExp:
    def test_both_kinds_at_zero(self):
        assert q_exp(0.0, Q5, ExpKind.SMALL_E) == 1.0
        assert q_exp(0.0, Q5, ExpKind.BIG_E) == 1.0

    def test_big_e_at_one_bounds(self):
        # E_q(1) lies between 2 and e for every q in (0,1)
        v = q_exp(1.0, Q5, ExpKind.BIG_E)
        assert v == pytest.approx(2.3842, abs=1e-4)
        for qv in (0.1, 0.3, 0.5, 0.7, 0.9):
            v = q_exp(1.0, QParam(qv), ExpKind.BIG_E)
            assert 2.0 <= v <= math.e

    def test_inverse_identity(self):
        # e_q(x) E_q(-x) = 1
        assert q_exp(0.5, Q5, ExpKind.SMALL_E) * q_exp(-0.5, Q5, ExpKind.BIG_E) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9])
    def test_inverse_identity_sweep(self, qv):
        q = QParam(qv)
        xmax = 0.5 / (1.0 - qv)
        for i in range(1, 8):
            x = xmax * i / 7.0
            prod = q_exp(x, q, ExpKind.SMALL_E) * q_exp(-x, q, ExpKind.BIG_E)
            assert prod == pytest.approx(1.0, abs=1e-10)

    def test_small_e_radius_enforced(self):
        with pytest.raises(DomainError):
            q_exp(2.0, Q5, ExpKind.SMALL_E)  # radius 1/(1-q) = 2
        assert q_exp(1.9, Q5, ExpKind.SMALL_E) > 1.0  # inside is fine

    def test_big_e_radius_for_super_one(self):
        # E_q = e_{1/q}: for q > 1 the finite radius q/(q-1) moves to E_q
        q2 = QParam(2.0)
        q_exp(1.5, q2, ExpKind.BIG_E)
        with pytest.raises(DomainError):
            q_exp(2.0, q2, ExpKind.BIG_E)
        q_exp(100.0, q2, ExpKind.SMALL_E)  # e_q entire for q > 1

    def test_convergence_cap(self):
        # just outside the product band near the radius, the series' ratio
        # is too close to 1 to settle within _MAX_TERMS (10,002 terms):
        # q_exp takes the reciprocal product there as well
        x, qv = 412.1376166861753, 0.9975835910984506
        assert outcome(_reference_q_exp, x, QParam(qv), ExpKind.SMALL_E)[0] is ConvergenceError
        got = q_exp(x, QParam(qv), ExpKind.SMALL_E)
        assert got == pytest.approx(mp_finite_exp(x, qv)[0], rel=1e-12)

    def test_negative_axis_sums_the_entire_kind(self, monkeypatch):
        # E_2(-1.5) = 1 / e_2(1.5): the positive series settles in 12 terms,
        # where the alternating one took 138
        counts = []

        def counted(x, qq, big):
            terms = list(_exp_terms(x, qq, big))
            counts.append(len(terms))
            return iter(terms)

        monkeypatch.setattr(qcore, "_exp_terms", counted)
        got = q_exp(-1.5, QParam(2.0), ExpKind.BIG_E)
        assert len(counts) == 1 and counts[0] <= 20
        assert got == pytest.approx(mp_reciprocal_entire(-1.5, 2.0)[0], rel=1e-15)

    @pytest.mark.parametrize(
        "x, qv, kind",
        [
            (949.99, 0.999, ExpKind.SMALL_E),
            (818.18, 0.9989, ExpKind.SMALL_E),
            (949.99, 1.0 / 0.999, ExpKind.BIG_E),
            (1e56, 1e-5, ExpKind.BIG_E),
        ],
    )
    def test_overflowing_sum_raises_at_once(self, x, qv, kind):
        # the running sum is inf by term ~400, far short of the term cap;
        # log E_{1e-5}(1e56) = 787.6, so its factor product overflows too
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match=re.escape(f"overflows a float at x = {x!r}")):
            q_exp(x, QParam(qv), kind)
        assert time.perf_counter() - t0 < 0.05


def _reference_q_exp(x, q, kind):
    """The q_exp series as math.fsum of a plain list of its terms, each term
    from q_number, stopping where the running sum is finite and outweighs
    the last term by 1/REL_TERM_TOL; the guards are the ones q_exp keeps."""
    if not math.isfinite(x):
        raise DomainError(f"q-exponential argument must be finite, got {x!r}")
    qq = q.q
    if kind is ExpKind.SMALL_E and qq < 1.0:
        radius = 1.0 / (1.0 - qq)
        if not abs(x) < radius:
            raise DomainError(
                f"e_q series diverges for |x| >= 1/(1-q) = {radius}, got x={x}"
            )
    if kind is ExpKind.BIG_E and qq > 1.0:
        radius = qq / (qq - 1.0)
        if not abs(x) < radius:
            raise DomainError(
                f"E_q series (q > 1) diverges for |x| >= q/(q-1) = {radius}, got x={x}"
            )
    terms = [1.0]
    s = term = 1.0
    qpow = 1.0  # q^(n-1) for the E_q weight
    for n in range(1, 10_001):
        d = q_number(n, q)
        if d == math.inf:  # q_number raises only where q^n itself overflows
            raise OverflowError(f"[{n}] overflows a float")
        term *= x / d
        if kind is ExpKind.BIG_E:
            term *= qpow
            qpow *= qq
        terms.append(term)
        s += term
        if math.isfinite(s) and abs(term) <= REL_TERM_TOL * abs(s):
            return math.fsum(terms)
    raise ConvergenceError("q-exponential series did not settle within 10000 terms")


def _sums_series(x, qv, kind):
    """False where q_exp does not sum the series of the kind asked for: the
    entire q-exponential (E_q for q < 1, e_q for q > 1) below x = -20 log 2,
    where it returns the factor product, and the kind with a finite radius,
    of base p = q or 1/q below 1, at x < 0, where it returns the reciprocal
    of the entire kind's series at -x or the reciprocal product
    (TestFiniteExpOracle), and at x > 0 where
    1 - x/radius < max((1 - p)/4, _NEAR_RADIUS).  (Where its series does
    not settle within _MAX_TERMS terms, and for E_q with q > 1 where a
    divisor q^n - 1 overflows, q_exp takes the product as well; that is
    decided while summing.)"""
    if (kind is ExpKind.BIG_E) == (qv < 1.0):
        return not -math.inf < x < -_ALTERNATING_LIMIT
    radius = 1.0 / (1.0 - qv) if qv < 1.0 else qv / (qv - 1.0)
    p = qv if qv < 1.0 else 1.0 / qv
    if 0.0 < x < radius:
        return not 1.0 - x / radius < max(0.25 * (1.0 - p), _NEAR_RADIUS)
    return not -radius < x < 0.0


def _assert_matches_reference(x, q, kind):
    """q_exp gives the outcome of the reference loop, bit for bit, except
    where a divisor [n] overflows before E_q (q > 1) settles, or where the
    series of the kind with a finite radius runs out of terms: there the
    reference raises and q_exp returns the reciprocal product instead,
    checked against mpmath, or raises where that product diverges (x at or
    past the radius 1/(1-p) of the rounded p = 1/q)."""
    want = outcome(_reference_q_exp, x, q, kind)
    finite = (kind is ExpKind.BIG_E) == (q.q > 1.0)
    if (want[0] is OverflowError and kind is ExpKind.BIG_E and q.q > 1.0
            or want[0] is ConvergenceError and finite):
        value, _, cond = mp_finite_exp(x, q.q if q.q < 1.0 else 1.0 / q.q)
        if math.isinf(value):
            with pytest.raises((OverflowError, DomainError)):
                q_exp(x, q, kind)
            return
        got = q_exp(x, q, kind)
        assert abs(got - value) <= 8.0 * UNIT_ROUNDOFF * (1.0 + cond) * value
        return
    assert outcome(q_exp, x, q, kind) == want


class TestQExpReference:
    """q_exp inlines q_number and feeds math.fsum from a generator; wherever
    it sums the series, every value and every error must stay bit-identical
    to the plain list of terms.  The entire kind at x < -20 log 2 is a
    product, checked against mpmath in TestQExpOracle."""

    @settings(deadline=None, max_examples=400)
    @given(
        qv=st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 4.0)),
        kind=st.sampled_from(list(ExpKind)),
        u=st.floats(-1.2, 1.2),
    )
    def test_matches_reference_loop(self, qv, kind, u):
        q = QParam(qv)
        # x runs a little past the finite radius of whichever kind has one
        radius = 1.0 / (1.0 - qv) if qv < 1.0 else qv / (qv - 1.0)
        x = u * radius
        assume(_sums_series(x, qv, kind))
        _assert_matches_reference(x, q, kind)

    @settings(deadline=None, max_examples=200)
    @given(
        qv=st.floats(1e4, 1e7),
        kind=st.sampled_from(list(ExpKind)),
        x=st.one_of(st.floats(-0.999, 0.999), st.sampled_from([0.5, -0.5, 1e-3])),
    )
    def test_large_q_matches_reference(self, qv, kind, x):
        # n log q passes the expm1 overflow point (~709) by n ~ 45 here;
        # the divisor table stops before the first divisor that overflows
        assume(_sums_series(x, qv, kind))
        _assert_matches_reference(x, QParam(qv), kind)

    def test_series_overflow_is_named(self):
        # every term is finite, but their sum passes the float range
        with pytest.raises(OverflowError, match=r"q-exponential overflows a float at x = 724\.0"):
            q_exp(724.0, QParam(1.0001), ExpKind.SMALL_E)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e300, -1e300])
    @pytest.mark.parametrize("kind", list(ExpKind))
    @pytest.mark.parametrize("qv", [0.5, 3.0])
    def test_extreme_arguments_match_reference(self, qv, kind, x):
        q = QParam(qv)
        # at x = 1e300 the entire kind's terms overflow: q_exp raises once
        # its running sum is inf, where the reference runs to its term cap
        if not _sums_series(x, qv, kind) or x == 1e300 and (kind is ExpKind.BIG_E) == (qv < 1.0):
            with pytest.raises(OverflowError, match="overflows a float"):
                q_exp(x, q, kind)
            return
        assert outcome(q_exp, x, q, kind) == outcome(_reference_q_exp, x, q, kind)


class TestExpDivisorCache:
    """The q_exp series reads its divisors [n] from the per-q table of
    _exp_divisors; the call that forms the table and the calls that read it
    must give the bits and the errors of the plain reference loop."""

    @settings(deadline=None, max_examples=150)
    @given(
        qv=st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 4.0)),
        kind=st.sampled_from(list(ExpKind)),
        u=st.floats(-1.2, 1.2),
    )
    def test_cold_then_warm_outcomes_agree(self, qv, kind, u):
        q = QParam(qv)
        radius = 1.0 / (1.0 - qv) if qv < 1.0 else qv / (qv - 1.0)
        x = u * radius
        assume(_sums_series(x, qv, kind))
        _exp_divisors.cache_clear()
        cold = outcome(q_exp, x, q, kind)
        assert [outcome(q_exp, x, q, kind) for _ in range(2)] == [cold] * 2
        _assert_matches_reference(x, q, kind)

    def test_threads_growing_one_q_agree(self):
        # 16 threads sum series of one q at once under a 1 us switch
        # interval, from a cleared cache: whichever thread's table the
        # cache keeps, every outcome is the reference loop's
        q = QParam(0.9)
        cases = [(x, kind) for x in (0.5, 5.0, 8.0, 9.5) for kind in ExpKind] * 2
        want = {c: outcome(_reference_q_exp, c[0], q, c[1]) for c in cases}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                _exp_divisors.cache_clear()
                got = []

                def work(c):
                    for _ in range(3):
                        got.append((c, outcome(q_exp, c[0], q, c[1])))

                threads = [threading.Thread(target=work, args=(c,)) for c in cases]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 3 * len(cases)
                assert all(out == want[c] for c, out in got)
        finally:
            sys.setswitchinterval(interval)
        table = _exp_divisors(0.9)
        assert [d.hex() for d in table] == [q_number(n, q).hex() for n in range(1, _EXP_STEPS_CAP + 1)]


class TestQExpOracle:
    """The entire q-exponential E_p(x), p = q < 1 (E_q) or p = 1/q < 1 (e_q),
    against 50-digit mpmath for x down to -200.

    On the series (x >= -20 log 2) the error is that of its rounded terms,
    summed by math.fsum: a few u times the sum of the |terms|,
    E_p(|x|) <= e^|x| <= 2^20.  On the product it is relative, a few u
    times the factor conditioning c of _oracles.mp_entire_exp.  The summed series at x = -30, q = 0.9 returned
    +5.2e-10 against the true -7.6e-10."""

    @settings(deadline=None, max_examples=150)
    @given(
        pv=st.floats(0.05, 0.99),
        x=st.one_of(st.floats(-200.0, 0.0), st.floats(-20.0, -10.0)),
        kind=st.sampled_from(list(ExpKind)),
    )
    @example(pv=0.9, x=-30.0, kind=ExpKind.BIG_E)
    @example(pv=0.95, x=-20.0, kind=ExpKind.BIG_E)
    @example(pv=0.9, x=-60.0, kind=ExpKind.BIG_E)
    @example(pv=0.5, x=-_ALTERNATING_LIMIT, kind=ExpKind.BIG_E)
    @example(pv=0.5, x=math.nextafter(-_ALTERNATING_LIMIT, -math.inf), kind=ExpKind.BIG_E)
    @example(pv=0.5, x=-2.0, kind=ExpKind.SMALL_E)  # zeros of E_1/2, on the series
    @example(pv=0.5, x=-16.0, kind=ExpKind.BIG_E)  # and on the product
    def test_matches_mpmath(self, pv, x, kind):
        q = QParam(pv if kind is ExpKind.BIG_E else 1.0 / pv)
        p = q.q if kind is ExpKind.BIG_E else 1.0 / q.q  # the float base of the product
        want, abs_sum, cond = mp_entire_exp(x, p)
        got = q_exp(x, q, kind)
        if x < -_ALTERNATING_LIMIT:
            assert abs(got - want) <= 8.0 * UNIT_ROUNDOFF * (1.0 + cond) * abs(want)
        else:
            assert abs(got - want) <= 8.0 * UNIT_ROUNDOFF * abs_sum

    @pytest.mark.parametrize("pv", [0.9999, 0.999999, 1.0 - 1e-9])
    @pytest.mark.parametrize("kind", list(ExpKind))
    def test_near_one_is_fast_and_accurate(self, pv, kind):
        # the factor product alone would take ~41/(1-p) factors (hours at
        # p = 1 - 1e-9); q_exp sums the factors below 1/2 as a log series
        q = QParam(pv if kind is ExpKind.BIG_E else 1.0 / pv)
        p = q.q if kind is ExpKind.BIG_E else 1.0 / q.q
        start = time.perf_counter()
        got = q_exp(-20.0, q, kind)
        assert time.perf_counter() - start < 1.0
        assert got == pytest.approx(mp_entire_exp_near_one(-20.0, p), rel=1e-12)

    def test_too_many_factors_is_a_convergence_error(self):
        # v_0 = 1 at p = 1 - 1e-6: ~6.9e5 factors exceed 1/2, past the cap
        with pytest.raises(ConvergenceError, match="more than 10000 factors"):
            q_exp(-1e6, QParam(1.0 - 1e-6), ExpKind.BIG_E)
        # ~57 factors exceed 1/2 at v_0 = 200, p = 0.9: far inside the cap
        assert q_exp(-2000.0, QParam(0.9), ExpKind.BIG_E) != 0.0

    def test_laplace_kernel_far_out(self):
        # the CLI example: E_0.9(-60), the Jackson kernel at lambda t = 60
        got = q_exp(-60.0, QParam(0.9), ExpKind.BIG_E)
        assert got == pytest.approx(5.0484082037937963e-8, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        lp=st.floats(-25.0, -2.0),
        r=st.floats(0.05, 1.3),
        kind=st.sampled_from(list(ExpKind)),
    )
    @example(lp=math.log(1e-6), r=0.9, kind=ExpKind.BIG_E)
    def test_large_positive_x_matches_mpmath(self, lp, r, kind):
        # log E_p(x) is about log(v_0)^2 / (2 |log p|), v_0 = (1-p) x, so r
        # near 1 puts E_p(x) near the float range; far out a term of the
        # series overflows before its weight q^(n-1) brings it back, and
        # q_exp answers with the factor product
        pv = math.exp(lp)
        q = QParam(pv if kind is ExpKind.BIG_E else 1.0 / pv)
        p = q.q if kind is ExpKind.BIG_E else 1.0 / q.q
        x = math.exp(math.sqrt(2.0 * r * 709.0 * -lp)) / (1.0 - p)
        want, _, cond = mp_entire_exp(x, p)
        if math.isinf(want):
            with pytest.raises(OverflowError, match=re.escape(f"overflows a float at x = {x!r}")):
                q_exp(x, q, kind)
            return
        got = q_exp(x, q, kind)
        assert abs(got - want) <= 8.0 * UNIT_ROUNDOFF * (1.0 + cond + math.log(want)) * want

    @pytest.mark.parametrize(
        "x, qv, kind, want",
        [
            (1e56, 1e-6, ExpKind.BIG_E, 1.0100909191373027e290),
            (1e60, 1e-8, ExpKind.BIG_E, 1.0001999299860026e256),
            (7.644832266757935e18, 0.24268105445822252, ExpKind.BIG_E, 1.4542780067989593e296),
        ],
    )
    def test_overflowing_term_is_not_an_overflowing_value(self, x, qv, kind, want):
        # a term overflows before its weight q^(n-1) brings it back, so the
        # running sum is inf (OverflowError), or nan once the weight
        # underflows to 0 (10,000 terms to a ConvergenceError), although
        # E_q(x) is a float
        assert q_exp(x, QParam(qv), kind) == pytest.approx(want, rel=1e-12)


class TestFiniteExpOracle:
    """The q-exponential with a finite radius, e_p(x), p = q < 1 (e_q) or
    p = 1/q < 1 (E_q), against 50-digit mpmath over x in (-radius, radius).

    For x < 0, e_q(x) E_q(-x) = 1: q_exp returns the reciprocal of the
    entire kind's series at -x, whose terms are all positive, wherever it
    settles within the divisor table, within the rounding bound of
    _oracles.mp_reciprocal_entire; elsewhere (p -> 1) the reciprocal
    product, a few u times the factor conditioning c of
    _oracles.mp_finite_exp.  The alternating series it replaced returned
    4.74e-5 for e_0.95(-19) (true 1.534e-7), was off by 5e-7 relative at
    E_1.1(-10.5), and by 2,640 u at E_q(-4.913426353272418),
    q = 1.0584686363549078.  For x > 0 near the radius the series would
    run out of terms (e_0.5(1.998)) or lose its tail (2e-14 relative at
    e_0.5(1.99)), and q_exp takes the product there too."""

    @settings(deadline=None, max_examples=300)
    @given(
        pv=st.one_of(
            st.floats(0.05, 0.99),
            st.floats(0.99, 0.999),
            st.floats(1.0 / 4.0, 1.0 / 1.05),  # q in [1.05, 4] for E_q
            st.floats(1e-300, 1e-4),  # E_q's divisor [2] overflows past q ~ 1.3e154
        ),
        frac=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.9, 0.999999)),
        kind=st.sampled_from(list(ExpKind)),
    )
    @example(pv=0.95, frac=19.0 * 0.05, kind=ExpKind.SMALL_E)
    @example(pv=1.0 / 1.1, frac=10.5 / 11.0, kind=ExpKind.BIG_E)
    @example(pv=0.5, frac=0.999999, kind=ExpKind.SMALL_E)
    @example(pv=0.999, frac=0.5, kind=ExpKind.BIG_E)
    @example(pv=0.9921875, frac=0.9999999999999998, kind=ExpKind.BIG_E)  # past 1/(1-p)
    @example(pv=0.0546875, frac=0.859375, kind=ExpKind.BIG_E)  # q^n - 1 overflows first
    # q = 1.0584686363549078, x = -4.913426353272418 (frac times the radius)
    @example(pv=1.0 / 1.0584686363549078, frac=0.2714122354115551, kind=ExpKind.BIG_E)
    def test_matches_mpmath(self, pv, frac, kind):
        q = QParam(pv if kind is ExpKind.SMALL_E else 1.0 / pv)
        p = q.q if kind is ExpKind.SMALL_E else 1.0 / q.q  # the float base of the product
        radius = 1.0 / (1.0 - q.q) if q.q < 1.0 else q.q / (q.q - 1.0)
        x = -frac * radius
        assume(-radius < x)
        got = q_exp(x, q, kind)
        if -x * p**_SETTLED_POWER <= _SETTLED_BY_TABLE and len(_exp_divisors(q.q)) > 1:
            want, r = mp_reciprocal_entire(x, q.q)
            assert abs(got - want) <= r * UNIT_ROUNDOFF * want
        else:  # plus the spacing of subnormals, where e_p(x) underflows
            want, _, cond = mp_finite_exp(x, p)
            assert abs(got - want) <= 8.0 * UNIT_ROUNDOFF * (1.0 + cond) * want + 2.0 * math.ulp(0.0)

    @settings(deadline=None, max_examples=150)
    @given(
        pv=st.one_of(st.floats(0.05, 0.99), st.floats(0.99, 0.999)),
        frac=st.floats(0.0, 1.0, exclude_min=True),
        kind=st.sampled_from(list(ExpKind)),
    )
    @example(pv=0.5, frac=0.001 / 0.125, kind=ExpKind.SMALL_E)  # x = 1.998
    @example(pv=0.9, frac=0.001 / 0.025, kind=ExpKind.SMALL_E)  # x = 9.99
    @example(pv=0.5, frac=0.005 / 0.125, kind=ExpKind.SMALL_E)  # x = 1.99
    @example(pv=1.0 / 1.1, frac=0.01 / (0.25 / 11.0), kind=ExpKind.BIG_E)
    def test_near_the_radius_matches_mpmath(self, pv, frac, kind):
        # frac of the product's band 1 - x/radius < max((1 - p)/4, _NEAR_RADIUS)
        q = QParam(pv if kind is ExpKind.SMALL_E else 1.0 / pv)
        p = q.q if kind is ExpKind.SMALL_E else 1.0 / q.q
        radius = 1.0 / (1.0 - q.q) if q.q < 1.0 else q.q / (q.q - 1.0)
        x = (1.0 - frac * max(0.25 * (1.0 - p), _NEAR_RADIUS)) * radius
        assume(x < radius and not _sums_series(x, q.q, kind))
        want, _, cond = mp_finite_exp(x, p)
        if math.isinf(cond):  # past the radius of the rounded p = 1/q
            with pytest.raises(DomainError):
                q_exp(x, q, kind)
            return
        tol = 8.0 * UNIT_ROUNDOFF * (1.0 + cond) * want
        try:
            got = q_exp(x, q, kind)
        except OverflowError as exc:  # within tol of the float range or past it
            assert "overflows a float" in str(exc) and want + tol > sys.float_info.max
        else:
            assert abs(got - want) <= tol

    def test_too_many_factors_is_a_convergence_error(self):
        # v_0 = 0.9 at p = 1 - 1e-6: ~5.9e5 factors exceed 1/2, past the cap
        with pytest.raises(ConvergenceError, match="more than 10000 factors"):
            q_exp(-9e5, QParam(1.0 - 1e-6), ExpKind.SMALL_E)

    @settings(deadline=None, max_examples=100)
    @given(
        qv=st.one_of(st.floats(1.1, 20.0), st.floats(20.0, 1e7)),
        frac=st.floats(0.5, 1.0, exclude_max=True),
    )
    @example(qv=18.285714285714285, frac=1.0 / (18.285714285714285 / 17.285714285714285))
    @example(qv=18.285714285714285, frac=1.05 / (18.285714285714285 / 17.285714285714285))
    @example(qv=2.0, frac=0.9995)
    @example(qv=1.1, frac=0.999)
    def test_big_e_past_overflowing_divisors(self, qv, frac):
        # E_q = e_{1/q} for q > 1 on 0 < x < q/(q-1): where a divisor [n]
        # overflows before the series settles (q = 18.29, x = 1 needs ~650
        # terms, but q^245 overflows; q = 1.1 at 0.999 of the radius ~16k
        # terms, but [n] = (q^n - 1)/(q - 1) overflows at n = 7,423), q_exp
        # takes the reciprocal product
        q = QParam(qv)
        x = frac * (qv / (qv - 1.0))
        assume(outcome(_reference_q_exp, x, q, ExpKind.BIG_E)[0] is OverflowError)
        _assert_matches_reference(x, q, ExpKind.BIG_E)

    @pytest.mark.parametrize("qv", [1.1, 1.3, 1.7, 2.0, 3.0, 18.285714285714285, 1e6])
    def test_last_floats_below_the_radius(self, qv):
        # the first factor 1 - (1-p) x of the product is formed exactly, so
        # even the float next to the rounded radius q/(q-1) keeps ~15
        # digits: 1 - v_0 is a few u there, and a rounded v_0 would lose
        # them all (q = 3, fl(1/3) < 1/3).  The oracle's c is dominated by
        # 2 v_0/(1 - v_0) here and would allow any positive value.
        q = QParam(qv)
        x = qv / (qv - 1.0)
        for _ in range(6):
            x = math.nextafter(x, 0.0)
            want = mp_finite_exp(x, 1.0 / qv)[0]
            if math.isinf(want):
                continue  # test_past_the_radius_of_the_rounded_base
            assert q_exp(x, q, ExpKind.BIG_E) == pytest.approx(want, rel=1e-13)

    def test_past_the_radius_of_the_rounded_base(self):
        # fl(1/1.3) < 1/1.3, so the radius 1/(1-p) of the product lies below
        # the rounded q/(q-1), and the float next to it has (1-p) x >= 1
        qv = 1.3
        x = math.nextafter(qv / (qv - 1.0), 0.0)
        assert math.isinf(mp_finite_exp(x, 1.0 / qv)[0])
        with pytest.raises(DomainError, match=r"at or past the radius 1/\(1-p\)"):
            q_exp(x, QParam(qv), ExpKind.BIG_E)


class TestPerQCaches:
    """Every per-q cache is an lru_cache of 128 entries, so nothing grows
    with the number of distinct q a process sees."""

    CACHES = (_exp_divisors, _log_eq_base, _log_qq_inf, _log_tail_divisors)

    def test_caches_stay_at_their_size(self):
        for qv in (0.05 + 0.9 * i / 1000 for i in range(1000)):
            for q in (QParam(qv), QParam(1.0 / qv)):
                log_q_gamma(1.5, q)
                q_exp(-0.5, q, ExpKind.SMALL_E if qv < 0.5 else ExpKind.BIG_E)
            eq_power(0.5, QParam(qv))
        for cache in self.CACHES:
            info = cache.cache_info()
            assert info.maxsize == 128
            assert info.currsize == 128

    def test_cached_values_are_fresh_computations(self):
        q = QParam(0.37)
        assert _log_qq_inf(0.37) == _log_qpow_poch(1.0, math.log(0.37))
        assert _log_qq_inf(1.0 / 0.37) == _log_qpow_poch(1.0, -math.log(1.0 / 0.37))
        assert _log_eq_base(0.37).hex() == math.log(q_exp(1.0, q, ExpKind.BIG_E)).hex()
        for lp in (math.log(0.37), -math.log(1.0 / 0.37), math.log(1.0 - 1e-9), -700.0):
            fresh = [m * math.expm1(m * lp) for m in map(float, range(1, 61))]
            assert [d.hex() for d in _log_tail_divisors(lp)] == [d.hex() for d in fresh]

    @pytest.mark.parametrize(
        "qv, x, kind, end",
        [
            (0.37, 0.3, ExpKind.SMALL_E, "settled"),
            (0.99, 60.0, ExpKind.SMALL_E, "cap"),  # runs past the table
            (3.0, 0.5, ExpKind.BIG_E, "settled"),
            (1.999, 0.5, ExpKind.SMALL_E, "settled"),  # [64] ~ 1.8e19, far from inf
            (1e7, 0.5, ExpKind.BIG_E, "overflow"),  # the product answers
        ],
    )
    def test_exp_divisors_are_fresh_q_numbers(self, qv, x, kind, end):
        # one call of a fresh q leaves the whole table
        q = QParam(qv)
        _exp_divisors.cache_clear()
        q_exp(x, q, kind)
        assert _exp_divisors.cache_info().currsize == 1
        table = _exp_divisors(qv)
        assert type(table) is tuple and all(map(math.isfinite, table))
        if end == "overflow":  # every divisor short of the first to overflow
            assert len(table) < _EXP_STEPS_CAP
            with pytest.raises(OverflowError):
                q_number(len(table) + 1, q)
        else:
            assert len(table) == _EXP_STEPS_CAP
        assert [d.hex() for d in table] == [q_number(n, q).hex() for n in range(1, len(table) + 1)]


class TestEqPowerLogQ:
    @settings(deadline=None, max_examples=300)
    @given(
        qv=st.one_of(st.floats(1e-3, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 5.0)),
        x=st.floats(-50.0, 50.0),
        y=st.floats(1e-300, 1e300),
    )
    def test_base_ignores_the_series_cap(self, qv, x, y):
        # E_q(1) settles in a few hundred terms, far inside the cap of the
        # series behind eq_power/log_q
        q = QParam(qv)
        terms = list(_exp_terms(1.0, qv, True))
        assert len(terms) < 1000
        log_e1 = math.log(math.fsum(terms))
        assert eq_power(x, q) == math.exp(x * log_e1)
        assert log_q(y, q) == math.log(y) / log_e1

    @settings(deadline=None, max_examples=100)
    @given(qv=st.floats(10.0, 1e3), x=st.floats(-50.0, 50.0))
    @example(qv=10.0, x=0.5)
    @example(qv=12.0, x=-1.0)
    @example(qv=1e17, x=0.5)
    def test_large_q_base_matches_mpmath(self, qv, x):
        # past q ~ 9.59 the E_q(1) series overflows its divisors q^n - 1
        # (and past q ~ 2^53 its rounded radius is 1), so the base comes
        # from the product 1 / ((1 - 1/q); 1/q)_inf
        q = QParam(qv)
        want = mp_log_eq_one(qv)
        assert _log_eq_base(qv) == pytest.approx(want, rel=4.0 * UNIT_ROUNDOFF)
        assert eq_power(x, q) == pytest.approx(math.exp(x * want), rel=1e-13)
        assert log_q(eq_power(x, q), q) == pytest.approx(x, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("qv", [12.0, 18.285714285714285, 1e17])
    def test_large_q_base_is_its_own_product(self, qv):
        # q_exp answers an overflowing E_q(1) series with its reciprocal
        # product; the base keeps its own log-tail form, bit for bit
        lq = math.log(qv)
        p = 1.0 / qv
        assert _log_eq_base(qv) == lq - _log_tail((1.0 - p) * p, -lq)

    def test_anchors(self):
        assert eq_power(0.0, Q5) == 1.0
        assert eq_power(1.0, Q5) == pytest.approx(q_exp(1.0, Q5, ExpKind.BIG_E), rel=1e-14)

    @pytest.mark.parametrize(("x", "qv"), [(5000.0, 0.5), (1e6, 2.0)])
    def test_overflow_names_x_and_q(self, x, qv):
        with pytest.raises(OverflowError, match=rf"E_q\(1\)\^x overflows a float at x = {x!r} \(q = {qv!r}\)"):
            eq_power(x, QParam(qv))
        assert eq_power(-x, QParam(qv)) == 0.0  # underflow is 0, not an error

    @settings(deadline=None, max_examples=300)
    @given(
        qv=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)),
        t=st.floats(1e-3, 1e3),
        exponents=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=20),
        extra=st.lists(st.floats(-1e10, 1e10), max_size=4),
    )
    @example(qv=0.5, t=1.0, exponents=[-1.0, 709.0, 800.0, 710.0], extra=[])
    @example(qv=2.0, t=2.0, exponents=[-800.0, -746.0], extra=[0.0, -0.0])
    def test_list_form_is_mapped_eq_power(self, qv, t, exponents, extra):
        # samples v of both signs whose powers E_q(1)^(-t v) reach past the
        # overflow edge (exponent 709.78) and the underflow edge
        q = QParam(qv)
        base = _log_eq_base(qv)
        vs = [-u / (t * base) for u in exponents] + extra
        want = outcome(lambda: [eq_power(-t * v, q) for v in vs])
        if want[0] is OverflowError:  # named where users meet it, by eq_power
            with pytest.raises(OverflowError):
                _eq_powers(-t, vs, q)
        else:
            assert outcome(_eq_powers, -t, vs, q) == want

    def test_power_law(self):
        assert eq_power(2.0, Q5) == pytest.approx(eq_power(1.0, Q5) ** 2, rel=1e-12)
        for x, y in ((0.3, 1.1), (-2.0, 5.0), (4.5, -4.5)):
            assert eq_power(x + y, Q5) == pytest.approx(
                eq_power(x, Q5) * eq_power(y, Q5), rel=1e-12
            )

    def test_log_q_anchors(self):
        assert log_q(1.0, Q5) == 0.0
        assert log_q(q_exp(1.0, Q5, ExpKind.BIG_E), Q5) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        q7 = QParam(0.7)
        assert log_q(eq_power(3.7, q7), q7) == pytest.approx(3.7, abs=1e-10)
        for i in range(-10, 11):
            x = float(i)
            assert log_q(eq_power(x, Q5), Q5) == pytest.approx(x, abs=1e-10)

    def test_log_q_domain(self):
        with pytest.raises(DomainError):
            log_q(0.0, Q5)
        with pytest.raises(DomainError):
            log_q(-1.0, Q5)


class TestQPochInf:
    def test_trivial_values(self):
        assert qpoch_inf(0.0, Q5) == 1.0
        assert qpoch_inf(1.0, Q5) == 0.0

    def test_reference_value(self):
        # (1/2; 1/2)_inf
        assert qpoch_inf(0.5, Q5) == pytest.approx(0.2887880950866024, rel=1e-12)

    def test_super_one_rejected(self):
        with pytest.raises(DomainError):
            qpoch_inf(0.5, QParam(2.0))

    def test_slow_base_converges(self):
        # q = 0.99 needs ~4e3 factors; products are not capped by _MAX_TERMS
        v = qpoch_inf(0.99, QParam(0.99))
        assert 0.0 < v < 1.0
        # at q = 0.999 the product value genuinely underflows double range
        assert qpoch_inf(0.999, QParam(0.999)) >= 0.0

    @settings(deadline=None, max_examples=60)
    @given(
        a=st.floats(-3.0, 1.0),
        qv=st.one_of(st.floats(0.02, 0.9), st.floats(0.9, 0.9999)),
    )
    @example(a=0.5, qv=0.5)
    @example(a=-3.0, qv=0.99)
    @example(a=0.99, qv=0.99)
    @example(a=-0.25, qv=0.9999)
    def test_matches_mpmath(self, a, qv):
        # the log magnitude is a sum of same-signed logs, so exp() adds
        # u |log value| to the factor conditioning c of the oracle
        want, c = mp_qpoch_inf(a, qv)
        if abs(want) > sys.float_info.max:
            with pytest.raises(OverflowError, match=r"a = .*, q = "):
                qpoch_inf(a, QParam(qv))
            return
        got = qpoch_inf(a, QParam(qv))
        want = float(want)
        log_want = abs(math.log(abs(want))) if want != 0.0 else 0.0
        assert abs(got - want) <= (
            8.0 * UNIT_ROUNDOFF * (1.0 + c + log_want) * abs(want) + 2.0 * math.ulp(0.0)
        )

    @pytest.mark.parametrize("qv", [0.9999, 1.0 - 1e-5, 1.0 - 1e-6])
    def test_underflow_is_zero(self, qv):
        # (1/2; q)_inf ~ e^(-1.2e4) at q = 0.9999: far below the subnormals
        assert qpoch_inf(0.5, QParam(qv)) == 0.0

    def test_near_one_is_fast(self):
        # no factor exceeds 1/2, so the product is the log tail series alone
        start = time.perf_counter()
        qpoch_inf(0.5, QParam(1.0 - 1e-6))
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("qv", [1.0 - 1e-6, 1.0 - 1e-7])
    def test_near_one_past_the_float_range_is_fast(self, qv):
        # ~5.9e5 (5.9e6) factors exceed 1/2 in magnitude; the product stops
        # once its log is past the float range, where the rest only moves
        # it further
        start = time.perf_counter()
        assert qpoch_inf(0.9, QParam(qv)) == 0.0
        with pytest.raises(OverflowError, match=r"a = -0\.9, q = 0\.99999"):
            qpoch_inf(-0.9, QParam(qv))
        # a > 1: the first ~1.1e6 (1.1e7) and ~4.1e5 (4.1e6) factors are
        # negative and their logs change direction; the zeros carry the sign
        # of the product multiplied out factor by factor
        want = {1.0 - 1e-6: (0.0, -0.0), 1.0 - 1e-7: (-0.0, -0.0)}[qv]
        assert [qpoch_inf(a, QParam(qv)).hex() for a in (3.0, 1.5)] == [w.hex() for w in want]
        assert time.perf_counter() - start < 0.05

    @settings(deadline=None, max_examples=40)
    @given(a=st.floats(1.0, 10.0, exclude_min=True), qv=st.floats(0.999, 0.9999))
    @example(a=3.0, qv=0.9999)
    @example(a=1.5, qv=0.9999)
    @example(a=10.0, qv=0.999)
    def test_above_one_matches_the_product_without_a_stop(self, a, qv):
        # the bound that stops a > 1 early must not change a bit, the sign of
        # a zero included
        sign, logmag = _log_prod(a, qv, math.log(qv))
        assert qpoch_inf(a, QParam(qv)).hex() == (sign * math.exp(logmag)).hex()

    def test_kernel_log_runs_past_the_float_range(self):
        # the Jackson-sum integrand adds (x-1) log t to log |E_q(-q t)|, so
        # the product behind the kernel must not stop where qpoch_inf does
        p = 0.999
        assert qpoch_inf(0.99, QParam(p)) == 0.0
        sign, logmag = _entire_exp_neg(0.99 / (1.0 - p), p)
        assert sign == 1.0 and logmag < -1500.0  # -1590.14

    def test_overflow_names_a_and_q(self):
        with pytest.raises(OverflowError, match=r"a = -3, q = 0\.9999"):
            qpoch_inf(-3, QParam(0.9999))
