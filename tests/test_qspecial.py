"""q-gamma, q-digamma, polylogarithm and the composite functions."""

import math
import re
import time
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    UNIT_ROUNDOFF,
    central_diff,
    mp_h_aux,
    mp_log_q_gamma,
    mp_q_psi,
    outcome,
    series_tolerance,
)
from qmono import (
    ConvergenceError,
    DomainError,
    GammaParams,
    QParam,
    RatioParams,
    f_abq,
    g_ab,
    g_ratio,
    h_aux,
    log_f_abq,
    log_q_gamma,
    polylog,
    q_factorial,
    q_gamma,
    q_gamma_jackson,
    q_gamma_jackson_info,
    q_number,
    q_psi,
    q_psi_k,
)
from qmono.qcore import REL_TERM_TOL

Q5 = QParam(0.5)
Q9 = QParam(0.9)


def fd5(f, x, h=1e-2):
    """Five-point central first-derivative stencil, O(h^4)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestQGamma:
    def test_at_one(self):
        assert q_gamma(1.0, Q5) == pytest.approx(1.0, abs=1e-12)

    def test_matches_q_factorial(self):
        for qv in (0.5, 0.9):
            q = QParam(qv)
            for n in range(0, 7):
                assert q_gamma(n + 1.0, q) == pytest.approx(
                    q_factorial(n, q), rel=1e-10
                )

    @pytest.mark.parametrize("qv", [0.5, 0.9, 2.0])
    def test_recurrence(self, qv):
        # Gamma_q(x+1) = [x] Gamma_q(x), both regimes
        q = QParam(qv)
        for i in range(1, 11):
            x = 0.5 * i
            assert q_gamma(x + 1.0, q) == pytest.approx(
                q_number(x, q) * q_gamma(x, q), rel=1e-10
            )

    def test_classical_limit(self):
        q = QParam(0.999)
        assert q_gamma(4.0, q) == pytest.approx(6.0, rel=0.01)
        for x in (1.0, 1.5, 2.0, 2.5, 3.0):
            assert q_gamma(x, q) == pytest.approx(math.gamma(x), rel=0.01)

    @pytest.mark.parametrize(("x", "qv"), [(1e300, 0.5), (5.0, 1e300)])
    def test_overflow_names_x_and_q(self, x, qv):
        q = QParam(qv)
        with pytest.raises(OverflowError, match=re.escape(
                f"Gamma_q(x) overflows a float at x = {x!r} (q = {qv!r})")):
            q_gamma(x, q)
        # below the edge the value is exp(log Gamma_q) itself
        assert q_gamma(0.1, q) == math.exp(log_q_gamma(0.1, q))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            q_gamma(0.0, Q5)
        with pytest.raises(DomainError):
            log_q_gamma(-1.0, Q5)


class TestQGammaJackson:
    def test_matches_product_form_at_half(self):
        # at q = 1/2 the lattice contains the kernel zeros, so the bilateral
        # sum reproduces the product form essentially exactly
        for x in (1.0, 2.0, 3.0):
            v = q_gamma_jackson(x, Q5)
            assert v == pytest.approx(q_gamma(x, Q5), rel=1e-6)
        info = q_gamma_jackson_info(2.0, Q5)
        assert info.tails_ok()

    def test_cross_evaluation_q09(self):
        # window chosen by the reported end terms (n_hi = 22 sits just before
        # the kernel starts oscillating); measured truncation quality ~ 8e-7
        v = q_gamma_jackson(3.0, Q9, 200, 22)
        assert v == pytest.approx(q_gamma(3.0, Q9), rel=1e-5)

    def test_tail_report_flags_wide_window(self):
        # the default window is only trustworthy where the kernel has lattice
        # zeros; at q = 0.9 the large-t end term must be visibly nonzero
        info = q_gamma_jackson_info(3.0, Q9, 200, 22)
        assert info.large_end_term > 0.0
        assert not info.tails_ok()

    def test_non_integer_x_reported_not_asserted(self):
        # agreement at non-integer x is reported via the end terms only
        info = q_gamma_jackson_info(2.5, Q9, 200, 22)
        assert math.isfinite(info.value)
        assert info.large_end_term >= 0.0

    def test_super_one_rejected(self):
        with pytest.raises(DomainError):
            q_gamma_jackson(1.0, QParam(2.0))

    @pytest.mark.parametrize(
        "x, qv, n_lo, n_hi, want",
        [
            (1.0, 0.5, 200, 40, 1.0000000000000002),
            (2.5, 0.5, 200, 40, 1.1905936250275277),
            (3.0, 0.5, 200, 40, 1.5000000000000004),
            (3.0, 0.9, 200, 22, 1.9000016019567798),
            (2.5, 0.9, 200, 22, 1.3039400933203087),
            (1.5, 0.9, 200, 40, 0.8920505487937633),
            (1.5, 0.3, 60, 3, 302.2257167864649),
            (0.7, 0.7, 120, 8, 1.2685076345987856),
            (4.0, 0.1, 30, 2, -64864583.95435183),
            (2.0, 0.8, 150, 12, 1.0007626246913575),
            (0.5, 0.6, 150, 6, 1.7545859525001328),
        ],
    )
    def test_matches_the_multiplied_out_kernel(self, x, qv, n_lo, n_hi, want):
        # reference values from the kernel E_q(-q t) with every factor down
        # to 1e-18 multiplied out, not summed as the log tail series
        assert q_gamma_jackson(x, QParam(qv), n_lo, n_hi) == pytest.approx(want, rel=1e-13)

    def test_cost_is_bounded_near_one(self):
        # 241 kernel values at q = 0.999, each a short log tail series; the
        # multiplied-out kernel took ~41/(1-q) factors each
        start = time.perf_counter()
        value = q_gamma_jackson(1.5, QParam(0.999))
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(value)


class TestQPsi:
    def test_value_at_one(self):
        assert q_psi(1.0, Q5) == pytest.approx(-0.4206, abs=1e-3)

    def test_large_x_limit(self):
        # series tail vanishes, leaving -log(1-q); near x = 2019 at q = 0.6987
        # the total is subnormal, and at x = 3000 the tail underflows to 0
        for x, qv in ((50.0, 0.5), (2019.0907685928341, 0.6986920174917352), (3000.0, 0.5)):
            assert q_psi(x, QParam(qv)) == pytest.approx(-math.log1p(-qv), abs=1e-6)

    @pytest.mark.parametrize("qv", [0.5, 0.9, 2.0])
    def test_recurrence(self, qv):
        # psi_q(x+1) - psi_q(x) = -log(q) q^x / (1 - q^x), by telescoping
        q = QParam(qv)
        for x in (0.25, 1.0, 2.5, 4.0):
            lhs = q_psi(x + 1.0, q) - q_psi(x, q)
            rhs = -math.log(qv) * qv**x / (1.0 - qv**x)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_nonpositive_rejected(self):
        # both regimes; the domain is checked before the derivative order
        for q in (Q5, QParam(2.0)):
            for x in (0.0, -0.0, -1e-300, -1.0, -math.inf, math.nan):
                with pytest.raises(DomainError, match=r"q-digamma needs x > 0"):
                    q_psi(x, q)
                for k in (0, 1, 4):
                    with pytest.raises(DomainError, match=r"q-digamma derivatives need x > 0"):
                        q_psi_k(x, q, k)


class TestQPsiK:
    @pytest.mark.parametrize("qv", [0.5, 0.9, 2.0])
    def test_first_derivative_matches_fd(self, qv):
        q = QParam(qv)
        for x in (0.7, 1.5, 3.0):
            got = q_psi_k(x, q, 1)
            fd = fd5(lambda y: q_psi(y, q), x)
            assert got == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("qv", [0.5, 0.9, 2.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_orders_match_fd_of_previous(self, qv, k):
        q = QParam(qv)
        for x in (0.8, 1.6, 3.0):
            got = q_psi_k(x, q, k)
            fd = fd5(lambda y: q_psi_k(y, q, k - 1), x)
            assert got == pytest.approx(fd, rel=1e-5)

    def test_sign_pattern(self):
        # every series term carries the fixed sign of log(q)^(k+1)
        for x in (0.2, 1.0, 3.0, 5.0):
            assert q_psi_k(x, Q5, 1) > 0.0
            assert q_psi_k(x, Q5, 2) < 0.0
            assert q_psi_k(x, Q5, 3) > 0.0

    def test_far_tail_single_term(self):
        # at x = 50 the n = 1 term dominates the whole series
        expected = math.log(0.5) ** 2 * 0.5**50 / (1.0 - 0.5)
        assert q_psi_k(50.0, Q5, 1) == pytest.approx(expected, rel=1e-10)

    def test_classical_cm_pattern_of_psi_prime(self):
        # (-1)^n (psi_q')^(n) > 0, classical finite-difference screen, n <= 4
        f = lambda x: q_psi_k(x, Q5, 1)
        for x in (0.5, 1.0, 2.0, 3.5, 5.0):
            for n in range(0, 5):
                est = central_diff(f, x, n, 2e-2) if n else f(x)
                assert (-1.0) ** n * est > 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            q_psi_k(1.0, Q5, 0)

    @pytest.mark.parametrize(
        "x, qv, k",
        [
            (0.5, 0.5, 170), (0.5, 0.5, 171), (0.5, 0.5, 10**6), (1e-8, 0.99, 60), (1.5, 0.5, 10**6),
            (1.0, 0.5, 171), (50.0, 0.5, 171), (20.0, 3.0, 171), (5.0, 0.999, 171),
            (0.1, 33.0, 132), (0.14, 0.24, 125),
        ],
    )
    def test_overflow_is_reported(self, x, qv, k):
        # |psi_q^(k)(x)| ~ k!/x^(k+1) leaves the float range; no inf, no long
        # loop.  Past k = 170 the Eulerian polynomial A_k behind Li_{-k} does
        # (its coefficients sum to k!) at every x, even where psi_q^(k) is small.
        # At (0.1, 33, 132) and (0.14, 0.24, 125) the series is finite and
        # only its product with log(q)^(k+1) leaves the range (-inf and inf)
        with pytest.raises(OverflowError):
            q_psi_k(x, QParam(qv), k)


_LOG_X = st.floats(-8.0, math.log10(50.0)).map(lambda e: 10.0**e)
_ORACLE_X = st.one_of(st.floats(1e-8, 50.0), _LOG_X)


def _reference_polylog(s, z):
    """polylog as math.fsum of a plain list of its terms, stopping where the
    running sum is finite and outweighs the last term by 1/REL_TERM_TOL;
    ConvergenceError after 400,000 terms."""
    if not abs(z) < 1.0:
        raise DomainError(f"polylogarithm series needs |z| < 1, got z={z!r}")
    if z == 0.0:
        return 0.0
    terms = []
    acc = 0.0
    zk = 1.0
    for k in range(1, 400_001):
        zk *= z
        term = zk / float(k) ** s
        terms.append(term)
        acc += term
        if math.isfinite(acc) and abs(term) <= REL_TERM_TOL * abs(acc):
            return math.fsum(terms)
    raise ConvergenceError("polylogarithm series did not settle within 400000 terms")


class TestPolylogReference:
    """polylog feeds math.fsum from a generator: every value (to the bit, by
    float.hex) and every error, ConvergenceError at its 400,000-term cap
    included, must match the plain list of terms."""

    @settings(deadline=None, max_examples=200)
    @given(
        s=st.floats(1.0, 3.0),
        z=st.one_of(st.floats(1e-300, 0.999), st.floats(0.9, 0.9999)),
    )
    @example(s=1.0, z=0.9999)  # ~300k terms
    @example(s=1.0, z=1.0 - 1e-5)  # past the cap
    def test_polylog(self, s, z):
        assert outcome(polylog, s, z) == outcome(_reference_polylog, s, z)

    def test_capped_series_keeps_memory_flat(self):
        # 400k terms are summed before the cap raises; a list of them would
        # take ~13 MB
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="within 400000 terms"):
                polylog(1.0, 1.0 - 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


_LOG_X60 = st.floats(-8.0, math.log10(60.0)).map(lambda e: 10.0**e)


class TestLogQGammaOracle:
    """log_q_gamma against 50-digit mpmath, both regimes, x log-uniform in
    [1e-8, 60].

    The bound is 6 u (1 + the sum of the |parts| the value is assembled
    from; see _oracles.mp_log_q_gamma): the two q-Pochhammer products are
    about pi^2/(6 |log q|) each and are rounded apart before they cancel.
    Sweeps of 3,800 random inputs (a quarter of them at q in {0.02, 0.99,
    0.998, 0.999, 1.001, 1.002, 1.01, 20}) reached 2.0 u (1 + parts); the
    form that took 1 - q^x from a rounded q**x lost up to 5e-8 at x ~ 1e-8
    and fails the bound at the first three examples below."""

    @settings(deadline=None, max_examples=300)
    @given(
        qv=st.one_of(st.floats(0.02, 0.999), st.floats(1.001, 20.0)),
        x=_LOG_X60,
    )
    @example(qv=0.5, x=1e-6)
    @example(qv=0.9, x=3e-7)
    @example(qv=1.001, x=4.6e-8)
    @example(qv=0.999, x=2.0)
    @example(qv=20.0, x=60.0)
    def test_matches_mpmath(self, qv, x):
        q = QParam(qv)
        want, parts = mp_log_q_gamma(x, q)
        assert abs(log_q_gamma(x, q) - want) <= 6.0 * UNIT_ROUNDOFF * (1.0 + parts)

    def test_cost_is_bounded_near_one(self):
        # about log 2 / |log q| factors plus the tail series, not 41 / |log q|
        start = time.perf_counter()
        value = log_q_gamma(1.5, QParam(0.9999))
        assert time.perf_counter() - start < 0.05
        assert math.isfinite(value)


class TestSeriesOracle:
    """q_psi, q_psi_k and h_aux against 50-digit mpmath over x in [1e-8, 50],
    both regimes.  psi_q has a zero, so the bound scales with the sum of the
    |terms| the value is assembled from (see _oracles.series_tolerance)."""

    @settings(deadline=None, max_examples=80)
    @given(
        x=_ORACLE_X,
        qv=st.one_of(
            st.floats(0.05, 0.95), st.floats(1.05, 20.0),
            st.floats(0.95, 0.997), st.floats(1.003, 1.05),
        ),
        k=st.integers(0, 6),
    )
    # x >= 1 with q near 1, where a loop over n at ratio q^x lost up to
    # 2.8e-14 relative (2.2x and 2.8x the bound)
    @example(x=1.0974705643332838, qv=1.0046983968947776, k=5)
    @example(x=5.021301049456765, qv=1.0007438284900716, k=2)
    def test_q_psi_family_matches_mpmath(self, x, qv, k):
        q = QParam(qv)
        got = q_psi(x, q) if k == 0 else q_psi_k(x, q, k)
        want, magnitude = mp_q_psi(x, q, k)
        assert abs(got - want) <= series_tolerance(x, q, magnitude)

    @settings(deadline=None, max_examples=80)
    @given(x=_ORACLE_X, qv=st.floats(0.05, 0.95))
    def test_h_aux_matches_mpmath(self, x, qv):
        q = QParam(qv)
        want, magnitude = mp_h_aux(x, q)
        assert abs(h_aux(x, q) - want) <= series_tolerance(x, q, magnitude)

    @settings(deadline=None, max_examples=40)
    @given(qv=st.floats(0.05, 0.95), steps=st.integers(-4, 4))
    def test_h_aux_on_both_sides_of_the_reflection_point(self, qv, steps):
        # z = q^x crosses 1/2 at x0; the two branches meet there
        q = QParam(qv)
        x = math.log(0.5) / math.log(qv)
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.inf if steps > 0 else 0.0)
        for y in (x, x * (1.0 + 1e-9), x * (1.0 - 1e-9)):
            want, magnitude = mp_h_aux(y, q)
            assert abs(h_aux(y, q) - want) <= series_tolerance(y, q, magnitude)

    @settings(deadline=None, max_examples=300)
    @given(
        x=_ORACLE_X,
        qv=st.one_of(
            st.floats(0.05, 0.999999), st.floats(0.99, 0.999999),
            st.floats(1.000001, 1.01), st.floats(1.000001, 20.0),
        ),
        k=st.integers(0, 6),
    )
    @example(x=1e-8, qv=0.999999, k=6)
    @example(x=0.999, qv=0.999999, k=0)
    @example(x=1e-8, qv=1.000001, k=6)
    @example(x=0.5, qv=0.05, k=6)
    @example(x=0.5, qv=20.0, k=0)
    @example(x=1e-8, qv=0.99, k=6)
    @example(x=0.999, qv=0.99, k=6)
    @example(x=1.0, qv=0.99, k=6)
    @example(x=1.0, qv=1.01, k=6)
    @example(x=1.0, qv=0.999999, k=6)
    @example(x=50.0, qv=0.999999, k=0)
    @example(x=1.0, qv=1.000001, k=2)
    @example(x=10.057, qv=3.95, k=0)
    def test_no_convergence_error_at_the_default_cap(self, x, qv, k):
        # 10 terms plus at most 12 Euler-Maclaurin corrections whatever x and q
        q = QParam(qv)
        value = q_psi(x, q) if k == 0 else q_psi_k(x, q, k)
        assert math.isfinite(value)
        if q.is_sub_one:
            assert math.isfinite(h_aux(x, q))

    @settings(deadline=None, max_examples=200)
    @given(
        x=st.one_of(st.floats(1e-8, 1.0, exclude_max=True), _LOG_X.filter(lambda x: x < 1.0)),
        qv=st.one_of(
            st.floats(0.05, 0.999999), st.floats(0.99, 0.999999),
            st.floats(1.000001, 1.01), st.floats(1.000001, 20.0),
        ),
        k=st.integers(0, 6),
    )
    @example(x=1e-8, qv=0.999999, k=6)
    @example(x=0.999, qv=0.999999, k=0)
    @example(x=1e-8, qv=1.000001, k=6)
    @example(x=0.5, qv=0.05, k=6)
    @example(x=0.5, qv=20.0, k=0)
    def test_no_convergence_error_below_one_for_any_q(self, x, qv, k):
        # for x < 1 the Euler-Maclaurin tail bounds the cost whatever q
        q = QParam(qv)
        value = q_psi(x, q) if k == 0 else q_psi_k(x, q, k)
        assert math.isfinite(value)

    def test_cost_is_bounded_near_one(self):
        # a direct loop needs ~37 / |log q| = 3.7e6 terms at x = 1e-3 and a
        # loop over n ~37 / (x |log q|) = 7.4e5 at x = 5
        for x, k in ((1e-3, 1), (5.0, 2)):
            q_psi_k(x, QParam(0.99999), k)  # fills the Eulerian cache
            start = time.perf_counter()
            value = q_psi_k(x, QParam(0.99999), k)
            assert time.perf_counter() - start < 5e-3
            assert math.isfinite(value)

    @pytest.mark.parametrize("qv", [0.99, 0.999, 1.001, 1.01])
    def test_recurrence_across_the_branches(self, qv):
        # psi_q(x+1) - psi_q(x) = -log(q) q^x / (1 - q^x); the two sides
        # start their Euler-Maclaurin tails at y = x + 10 and x + 11
        q = QParam(qv)
        lq = math.log(qv)
        for x in (1e-6, 0.01, 0.25, 0.5, 0.999):
            lhs = q_psi(x + 1.0, q) - q_psi(x, q)
            rhs = -lq * math.exp(x * lq) / -math.expm1(x * lq)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(
        x=st.one_of(st.floats(1e-8, 1.0, exclude_max=True), _LOG_X.filter(lambda x: x < 1.0)),
        qv=st.floats(0.95, 0.995),
        k=st.integers(0, 6),
    )
    @example(x=0.999, qv=0.995, k=0)
    @example(x=1e-8, qv=0.95, k=6)
    def test_euler_maclaurin_path_matches_mpmath(self, x, qv, k):
        q = QParam(qv)
        got = q_psi(x, q) if k == 0 else q_psi_k(x, q, k)
        want, magnitude = mp_q_psi(x, q, k)
        assert abs(got - want) <= series_tolerance(x, q, magnitude)


class TestPolylog:
    def test_empty_sum(self):
        assert polylog(2.0, 0.0) == 0.0

    def test_li1_closed_form(self):
        # Li_1(z) = -log(1-z)
        assert polylog(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_li2_closed_form(self):
        # Li_2(1/2) = pi^2/12 - log(2)^2/2
        expected = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
        assert polylog(2.0, 0.5) == pytest.approx(expected, abs=1e-7)
        assert polylog(2.0, 0.5) == pytest.approx(0.5822405, abs=1e-7)

    def test_unit_circle_rejected(self):
        for z in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                polylog(2.0, z)

    @pytest.mark.parametrize("s", [1100.0, -140.0])
    def test_order_past_the_power_range_matches_mpmath(self, s):
        # 2^1100 overflows though Li_1100(1/2) = 1/2; k^-140 turns subnormal
        # near the largest terms (k ~ 200) and then 0
        want = mp.polylog(s, 0.5)
        assert abs(polylog(s, 0.5) / want - 1) <= 1e-12

    def test_value_past_the_float_range_names_s_and_z(self):
        # Li_-180(1/2) = 1.3e358
        with pytest.raises(OverflowError, match=r"^polylogarithm overflows a float at s = -180\.0, z = 0\.5$"):
            polylog(-180.0, 0.5)

    @settings(deadline=None, max_examples=300)
    @given(s=st.one_of(st.floats(-200.0, 2000.0), st.floats(-1e10, 1e10)), z=st.floats(-0.99, 0.99))
    @example(s=1100.0, z=0.5)
    @example(s=-140.0, z=0.5)
    @example(s=-180.0, z=-0.5)
    def test_plain_terms_kept_wherever_they_return(self, s, z):
        # where the plain terms k^s fail, a value or the named overflow;
        # everywhere else the same outcome, bit for bit
        want = outcome(_reference_polylog, s, z)
        got = outcome(polylog, s, z)
        if want[0] in (OverflowError, ZeroDivisionError):
            assert got[0] == "value" or got == (
                OverflowError, f"polylogarithm overflows a float at s = {s!r}, z = {z!r}")
        else:
            assert got == want


class TestHAux:
    def test_decays_at_large_x(self):
        assert abs(h_aux(40.0, Q5)) < 1e-10

    def test_value_at_one(self):
        # -(Li2(1/2) + log(1/2)^2)/log(1/2), componentwise oracle
        li2 = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
        expected = -(li2 + math.log(0.5) ** 2) / math.log(0.5)
        assert h_aux(1.0, Q5) == pytest.approx(expected, abs=1e-9)
        assert h_aux(1.0, Q5) == pytest.approx(1.5331, abs=1e-4)

    def test_classical_derivative_closed_form(self):
        # h'(x) = x q^x log(q) / (1 - q^x)
        for x in (0.5, 1.0, 2.0):
            fd = (h_aux(x + 1e-5, Q5) - h_aux(x - 1e-5, Q5)) / 2e-5
            closed = x * 0.5**x * math.log(0.5) / (1.0 - 0.5**x)
            assert fd == pytest.approx(closed, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            h_aux(0.0, Q5)
        with pytest.raises(DomainError):
            h_aux(1.0, QParam(2.0))


class TestGammaParams:
    def test_hypothesis_flag(self):
        assert GammaParams(0.5, 1.0, Q5).hypothesis_ok
        assert GammaParams(-1.0, 2.0, Q5).hypothesis_ok
        assert not GammaParams(0.7, 1.0, Q5).hypothesis_ok
        assert not GammaParams(0.0, 0.5, Q5).hypothesis_ok

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            GammaParams(0.0, -0.1, Q5)


class TestFAbq:
    def test_power_term_dies_at_x_one(self):
        # [1] = 1 kills the denominator power; alpha = beta case
        p = GammaParams(1.0, 1.0, Q5)
        expected = 0.5 * math.exp(h_aux(1.0, Q5)) * q_gamma(2.0, Q5)
        assert f_abq(1.0, p) == pytest.approx(expected, rel=1e-12)

    def test_componentwise_value(self):
        p = GammaParams(0.5, 1.0, Q5)
        assert f_abq(1.0, p) == pytest.approx(2.3164, abs=1e-3)

    def test_positive_on_grid(self):
        p = GammaParams(0.5, 1.0, Q5)
        for i in range(1, 20):
            assert f_abq(0.25 * i, p) > 0.0

    def test_log_pipeline_matches_components(self):
        # recompute log f from separately exponentiated components
        p = GammaParams(0.5, 1.0, Q5)
        for x in (0.3, 1.0, 2.7):
            direct = (
                x * math.log(0.5)
                + h_aux(x, Q5)
                + math.log(q_gamma(x + 1.0, Q5))
                - (x + 0.5) * math.log(q_number(x, Q5))
            )
            assert log_f_abq(x, p) == pytest.approx(direct, abs=1e-10)

    def test_domain(self):
        p = GammaParams(0.5, 1.0, Q5)
        with pytest.raises(DomainError):
            f_abq(0.0, p)
        with pytest.raises(DomainError):
            f_abq(1.0, GammaParams(0.5, 1.0, QParam(2.0)))


class TestGAb:
    def test_vanishes_at_origin(self):
        assert abs(g_ab(1e-8, 0.5, 1.0)) < 1e-7

    def test_reference_value(self):
        # 1 + (0.5 - 1)(e - 1)
        assert g_ab(1.0, 0.5, 1.0) == pytest.approx(0.140859, abs=1e-6)

    def test_positive_under_hypothesis(self):
        # 5x5 hypothesis grid (2*alpha <= 1 <= beta), 200 log points on (0, 50]
        alphas = (-1.0, -0.5, 0.0, 0.25, 0.5)
        betas = (1.0, 1.5, 2.0, 2.5, 3.0)
        pts = [1e-6 * (50.0 / 1e-6) ** (i / 199.0) for i in range(200)]
        for alpha in alphas:
            for beta in betas:
                for t in pts:
                    assert g_ab(t, alpha, beta) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            g_ab(0.0, 0.5, 1.0)

    def test_overflow_names_t_and_exponents(self):
        with pytest.raises(OverflowError, match=re.escape(
                "positivity witness overflows a float at x = 50.0 (alpha = 0.5, beta = 20.0)")):
            g_ab(50.0, 0.5, 20.0)
        want = 50.0 + ((14.0 - 0.5) * 50.0 - 1.0) * math.exp(13.0 * 50.0) * math.expm1(50.0)
        assert g_ab(50.0, 0.5, 14.0) == want  # finite near the edge, the same expression


class TestRatioParams:
    def test_valid_construction(self):
        rp = RatioParams((1.0, 2.0), (2.0, 3.0))
        assert rp.hypothesis_ok

    def test_empty_allowed(self):
        assert RatioParams((), ()).hypothesis_ok

    def test_hypothesis_violation_is_reported_not_rejected(self):
        # thm32_harness is the one gate on the hypothesis
        assert not RatioParams((2.0,), (1.0,)).hypothesis_ok  # not dominated
        assert not RatioParams((1.0, 0.5), (2.0, 3.0)).hypothesis_ok  # not sorted

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            RatioParams((1.0,), (1.0, 2.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_non_finite_shift_rejected(self, bad):
        with pytest.raises(DomainError, match="shifts must be positive"):
            RatioParams((1.0, bad), (2.0, 3.0))
        with pytest.raises(DomainError, match="shifts must be positive"):
            RatioParams((1.0,), (bad,))


class TestGRatio:
    def test_empty_product_is_one(self):
        assert g_ratio(1.0, RatioParams((), ()), Q5) == 1.0

    def test_single_ratio_recurrence(self):
        # Gamma_q(2)/Gamma_q(3) = 1/[2]
        rp = RatioParams((1.0,), (2.0,))
        assert g_ratio(1.0, rp, Q5) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_cancellation_case(self):
        # a=(1,1), b=(1,2) at x=2: everything cancels to 1/[3]
        rp = RatioParams((1.0, 1.0), (1.0, 2.0))
        q7 = QParam(0.7)
        expected = 1.0 / q_number(3.0, q7)
        assert g_ratio(2.0, rp, q7) == pytest.approx(expected, rel=1e-10)

    def test_matches_reciprocal_bracket_on_grid(self):
        # ((1),(2)): G(x) = 1/[x+1]
        rp = RatioParams((1.0,), (2.0,))
        for i in range(1, 21):
            x = 0.25 * i
            assert g_ratio(x, rp, Q5) == pytest.approx(
                1.0 / q_number(x + 1.0, Q5), rel=1e-10
            )

    def test_domain(self):
        rp = RatioParams((1.0,), (2.0,))
        with pytest.raises(DomainError):
            g_ratio(0.0, rp, Q5)
        with pytest.raises(DomainError):
            g_ratio(1.0, rp, QParam(2.0))
