"""Measures, Jackson sums, q-Laplace transforms, convolution, semigroups."""

import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import outcome, reference_q_laplace, reference_semigroup_entries
from qmono import (
    DiscreteMeasure,
    DomainError,
    EvaluationError,
    ExpKind,
    InputError,
    KernelKind,
    QParam,
    eq_power,
    jackson_integral,
    jackson_integral_info,
    measure_from_text,
    measure_to_text,
    q_convolve,
    q_exp,
    q_gamma,
    q_laplace,
    semigroup_check,
    semigroup_transform,
)

Q5 = QParam(0.5)


def random_measures(count: int, seed: int = 20240811) -> list[DiscreteMeasure]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        pairs = [(rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.0)) for _ in range(n)]
        out.append(DiscreteMeasure.from_pairs(pairs))
    return out


class TestJacksonIntegral:
    def test_monomial_on_unit_interval(self):
        # int_0^1 t d_q t = 1/[2]: restrict to n >= 0 via n_hi = 0
        f = lambda t: t
        assert jackson_integral(f, Q5, 200, 0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_constant_on_unit_interval(self):
        # telescoping (1-q) sum q^n = 1
        f = lambda t: 1.0 if t <= 1.0 else 0.0
        assert jackson_integral(f, Q5, 200, 5) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_kernel_cross_check(self):
        # integrand E_q(-q t) over the bilateral lattice reproduces Gamma_q(1);
        # beyond t = q^-1 the kernel hits exact lattice zeros at q = 1/2, and
        # the series-evaluated kernel stays usable for a few more octaves
        f = lambda t: q_exp(-0.5 * t, Q5, ExpKind.BIG_E)
        v = jackson_integral(f, Q5, 200, 6)
        assert v == pytest.approx(q_gamma(1.0, Q5), rel=1e-6)

    def test_info_reports_end_terms(self):
        info = jackson_integral_info(lambda t: 1.0 if t <= 1.0 else 0.0, Q5, 50, 3)
        assert info.value == pytest.approx(1.0, abs=1e-12)
        assert info.small_end_term > 0.0
        assert info.large_end_term == 0.0

    def test_super_one_rejected(self):
        with pytest.raises(DomainError):
            jackson_integral(lambda t: t, QParam(2.0), 10, 10)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(EvaluationError):
            jackson_integral(lambda t: math.inf, Q5, 5, 5)

    def test_int_too_large_for_a_float_rejected(self):
        # named like inf and nan, not isfinite's bare OverflowError
        with pytest.raises(EvaluationError, match=r"^integrand not finite at t = q\^5 = 0\.03125: got 10{400}$"):
            jackson_integral(lambda t: 10**400, Q5, 5, 5)
        assert jackson_integral(lambda t: 2, Q5, 0, 0) == 1.0  # a finite int is a number

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_int_too_long_for_str_is_named_by_size(self):
        with pytest.raises(EvaluationError, match=r"^integrand not finite at t = q\^5 = 0\.03125: got an int of 16610 bits$"):
            jackson_integral(lambda t: 10**5000, Q5, 5, 5)
        with pytest.raises(EvaluationError, match=r"^exponent function not finite at lambda = 0\.5: got an int of 16610 bits$"):
            semigroup_transform(lambda lam: 10**5000, 1.0, 0.5, Q5)

    def test_overflowing_term_rejected(self):
        # f is finite but (1-q) t f(t) is not from t = 2^29 on: an error, not
        # a non-finite sum
        with pytest.raises(EvaluationError, match="overflows at t = q\\^-29 "):
            jackson_integral(lambda t: 1e300, Q5, 0, 40)

    @pytest.mark.parametrize("n_lo, n_hi", [(200, 2000), (-1500, 1600)])
    def test_window_past_the_float_range_rejected(self, n_lo, n_hi):
        # t = 2^n_hi overflows a float before f is ever called
        with pytest.raises(DomainError, match=f"n_hi = {n_hi} "):
            jackson_integral(lambda t: 1.0 / 0.0, Q5, n_lo, n_hi)


class TestDiscreteMeasure:
    def test_sorting_and_merging(self):
        mu = DiscreteMeasure.from_pairs([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert mu.locations == (1.0, 2.0)
        assert mu.weights == (0.5, 0.5)
        assert mu.is_probability

    def test_merge_tolerance(self):
        mu = DiscreteMeasure.from_pairs([(1.0, 0.5), (1.0 + 1e-13, 0.5)])
        assert len(mu) == 1
        assert mu.weights == (1.0,)

    def test_mass(self):
        mu = DiscreteMeasure.from_pairs([(0.0, 0.25), (1.5, 0.5)])
        assert mu.mass == pytest.approx(0.75, abs=1e-15)
        assert not mu.is_probability

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            DiscreteMeasure.from_pairs([(-1.0, 0.5)])
        with pytest.raises(InputError):
            DiscreteMeasure.from_pairs([(1.0, -0.5)])

    def test_merged_weight_overflow_is_named(self):
        with pytest.raises(InputError, match=r"merged atom weight at t = 1\.0 overflows"):
            DiscreteMeasure((1.0, 1.0), (1.7e308, 1.7e308))
        with pytest.raises(InputError, match=r"merged atom weight at t = 2\.0 overflows"):
            DiscreteMeasure.from_pairs([(2.0, 1e308), (0.5, 1.0), (2.0 + 1e-13, 1e308)])
        with pytest.raises(InputError, match=r"merged atom weight at t = 1\.0 overflows"):
            measure_from_text("1 1.7e308\n1 1.7e308\n")

    def test_merged_weight_at_the_float_limit_is_kept(self):
        mu = DiscreteMeasure((1.0, 1.0), (8.9e307, 8.9e307))
        assert mu.weights == (1.78e308,)

    def test_text_round_trip(self):
        mu = DiscreteMeasure.from_pairs([(0.1, 1 / 3), (math.pi, 2 / 7), (1e-9, 0.125)])
        text = measure_to_text(mu)
        back = measure_from_text(text)
        assert back.locations == mu.locations
        assert back.weights == mu.weights

    def test_text_format(self):
        mu = DiscreteMeasure.from_pairs([(1.0, 0.5), (0.0, 0.5)])
        assert measure_to_text(mu) == "0 0.5\n1 0.5\n"

    def test_text_parsing_errors(self):
        with pytest.raises(InputError):
            measure_from_text("1.0\n")
        with pytest.raises(InputError):
            measure_from_text("1.0 abc\n")

    def test_text_comments_allowed(self):
        mu = measure_from_text("# a comment\n\n0 0.5\n1 0.5\n")
        assert mu.locations == (0.0, 1.0)


class TestQLaplace:
    def test_delta_at_zero_is_one(self):
        mu = DiscreteMeasure.delta(0.0)
        for lam in (0.0, 0.5, 2.0):
            for kernel in KernelKind:
                assert q_laplace(mu, lam, Q5, kernel) == pytest.approx(1.0, abs=1e-14)

    def test_power_kernel_reference(self):
        # E_q(1)^(-1) at q = 1/2
        mu = DiscreteMeasure.delta(1.0)
        v = q_laplace(mu, 1.0, Q5, KernelKind.POWER_E)
        assert v == pytest.approx(1.0 / eq_power(1.0, Q5), rel=1e-12)
        assert v == pytest.approx(0.4194, abs=1e-3)

    def test_jackson_kernel_two_atoms(self):
        mu = DiscreteMeasure.from_pairs([(1.0, 0.5), (0.5, 0.5)])
        v = q_laplace(mu, 2.0, Q5, KernelKind.JACKSON_E)
        expected = 0.5 * q_exp(-2.0, Q5, ExpKind.BIG_E) + 0.5 * q_exp(-1.0, Q5, ExpKind.BIG_E)
        assert v == pytest.approx(expected, abs=1e-14)

    def test_zero_lambda_gives_mass(self):
        for mu in random_measures(6):
            for kernel in KernelKind:
                assert q_laplace(mu, 0.0, Q5, kernel) == pytest.approx(
                    mu.mass, abs=1e-12
                )

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            q_laplace(DiscreteMeasure.delta(1.0), -0.5, Q5, KernelKind.POWER_E)

    def test_power_kernel_factorizes(self):
        # the POWER kernel is an ordinary exponential in t
        a, b, lam = 0.7, 1.9, 1.3
        conv = q_convolve(DiscreteMeasure.delta(a), DiscreteMeasure.delta(b))
        lhs = q_laplace(conv, lam, Q5, KernelKind.POWER_E)
        rhs = q_laplace(DiscreteMeasure.delta(a), lam, Q5, KernelKind.POWER_E) * q_laplace(
            DiscreteMeasure.delta(b), lam, Q5, KernelKind.POWER_E
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_jackson_kernel_deviation_is_reported_not_judged(self):
        # E_q(-2 lam) generally differs from E_q(-lam)^2; record the gap
        lam = 1.0
        conv = q_convolve(DiscreteMeasure.delta(1.0), DiscreteMeasure.delta(1.0))
        lhs = q_laplace(conv, lam, Q5, KernelKind.JACKSON_E)
        single = q_laplace(DiscreteMeasure.delta(1.0), lam, Q5, KernelKind.JACKSON_E)
        deviation = lhs - single * single
        assert math.isfinite(deviation)
        assert abs(deviation) > 1e-3  # visibly non-multiplicative


class TestQConvolve:
    def test_delta_algebra(self):
        d1 = DiscreteMeasure.delta(1.0)
        conv = q_convolve(d1, d1)
        assert conv.locations == (2.0,)
        assert conv.weights == (1.0,)
        dab = q_convolve(DiscreteMeasure.delta(0.75), DiscreteMeasure.delta(1.5))
        assert dab.locations == (2.25,)

    def test_binomial_by_hand(self):
        half = DiscreteMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        conv = q_convolve(half, half)
        assert conv.locations == (0.0, 1.0, 2.0)
        assert conv.weights == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
        assert conv.is_probability

    def test_overflowing_merged_weight_is_input_error(self):
        # (0, 1) * (1, 0): the products at 0 + 1 and 1 + 0 merge at t = 1
        mu = DiscreteMeasure((0.0, 1.0), (1.0, 1.0))
        nu = DiscreteMeasure((1.0, 0.0), (1e308, 1e308))
        with pytest.raises(InputError, match=r"merged atom weight at t = 1\.0 overflows"):
            q_convolve(mu, nu)

    def test_mass_multiplicativity(self):
        ms = random_measures(8)
        for mu in ms[:4]:
            for nu in ms[4:]:
                conv = q_convolve(mu, nu)
                assert conv.mass == pytest.approx(mu.mass * nu.mass, rel=1e-12)

    def test_commutativity(self):
        ms = random_measures(6, seed=7)
        for mu in ms[:3]:
            for nu in ms[3:]:
                ab = q_convolve(mu, nu)
                ba = q_convolve(nu, mu)
                assert ab.locations == pytest.approx(ba.locations, abs=1e-12)
                assert ab.weights == pytest.approx(ba.weights, rel=1e-12)

    def test_associativity(self):
        mu, nu, rho = random_measures(3, seed=11)
        left = q_convolve(q_convolve(mu, nu), rho)
        right = q_convolve(mu, q_convolve(nu, rho))
        assert len(left) == len(right)
        for (tl, wl), (tr, wr) in zip(left.pairs(), right.pairs()):
            assert tl == pytest.approx(tr, abs=1e-12)
            assert wl == pytest.approx(wr, rel=1e-12)


class TestSemigroup:
    LAMS = (0.0, 0.5, 1.0, 2.0)

    def test_transform_at_zero(self):
        assert semigroup_transform(lambda lam: lam, 0.0, 1.0, Q5) == 1.0

    def test_transform_identity_exponent(self):
        v = semigroup_transform(lambda lam: lam, 1.0, 1.0, Q5)
        assert v == pytest.approx(1.0 / eq_power(1.0, Q5), rel=1e-12)
        assert v == pytest.approx(0.4194, abs=1e-3)

    @pytest.mark.parametrize("value", [10**400, math.inf, math.nan, None])
    def test_exponent_not_finite_is_named(self, value):
        with pytest.raises(EvaluationError, match=r"^exponent function not finite at lambda = 0\.5: got "):
            semigroup_transform(lambda lam: value, 1.0, 0.5, Q5)

    def test_transform_factorizes(self):
        f = lambda lam: lam
        v5 = semigroup_transform(f, 5.0, 1.0, Q5)
        v2 = semigroup_transform(f, 2.0, 1.0, Q5)
        v3 = semigroup_transform(f, 3.0, 1.0, Q5)
        assert v5 == pytest.approx(v2 * v3, abs=1e-12)

    def test_delta_family_passes_both_kernels(self):
        c = 0.75
        ts = (1.0, 2.0, 3.0)
        family = {float(t): DiscreteMeasure.delta(c * t) for t in (1, 2, 3, 4, 5, 6)}
        for kernel in KernelKind:
            report = semigroup_check(family, ts, self.LAMS, Q5, kernel, 1e-12)
            assert report.passed
            assert report.max_deviation <= 1e-12

    def test_convolution_power_family_passes(self):
        base = DiscreteMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        family = {1.0: base}
        for m in range(2, 7):
            family[float(m)] = q_convolve(family[float(m - 1)], base)
        report = semigroup_check(
            family, (1.0, 2.0, 3.0), self.LAMS, Q5, KernelKind.POWER_E, 1e-12
        )
        assert report.passed

    def test_broken_family_fails(self):
        ts = (1.0, 2.0, 3.0)
        family = {}
        for t in (1, 2, 3, 4, 5, 6):
            offset = 0.0 if t in (1, 2, 3) else 0.1
            family[float(t)] = DiscreteMeasure.delta(float(t) + offset)
        report = semigroup_check(family, ts, self.LAMS, Q5, KernelKind.POWER_E, 1e-12)
        assert not report.passed
        assert report.max_deviation > 0.0
        assert report.worst[0] in ts and report.worst[1] in ts

    def test_missing_member_is_input_error(self):
        family = {1.0: DiscreteMeasure.delta(1.0)}
        with pytest.raises(InputError):
            semigroup_check(family, (1.0,), self.LAMS, Q5, KernelKind.POWER_E, 1e-12)

    def test_callable_family_accepted(self):
        family = lambda t: DiscreteMeasure.delta(2.0 * t)
        report = semigroup_check(family, (0.5, 1.0), self.LAMS, Q5, KernelKind.POWER_E, 1e-12)
        assert report.passed

    def test_mapping_value_not_a_measure_is_input_error(self):
        family = {1.0: DiscreteMeasure.delta(1.0), 2.0: "delta(2)"}
        with pytest.raises(InputError, match="not a DiscreteMeasure"):
            semigroup_check(family, (1.0,), self.LAMS, Q5, KernelKind.POWER_E, 1e-12)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        family = lambda t: DiscreteMeasure.delta(t)
        with pytest.raises(DomainError, match="tolerance must be finite and >= 0"):
            semigroup_check(family, (1.0,), self.LAMS, Q5, KernelKind.POWER_E, tol)

    def test_zero_tolerance_accepted(self):
        family = lambda t: DiscreteMeasure.delta(t)
        report = semigroup_check(family, (1.0,), self.LAMS, Q5, KernelKind.POWER_E, 0.0)
        assert report.tol == 0.0


_QS = st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 4.0))
# small atoms sum the E_q series; t up to 40 takes the entire kind's product
# (lambda t past 20 log 2) and the finite kind's near and past its radius;
# t up to 1e15 and weights up to 1e308 reach overflow, in the kernel and in
# fsum
_ATOMS = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 40.0), st.floats(0.0, 1e15)),
        st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e308)),
    ),
    min_size=1,
    max_size=8,
)
_LAMS = st.lists(
    st.one_of(st.floats(0.0, 2.5), st.sampled_from([-1.0, math.nan, math.inf])),
    min_size=1,
    max_size=5,
)


def _measure(pairs) -> DiscreteMeasure:
    try:
        return DiscreteMeasure.from_pairs(pairs)
    except InputError:  # merged weights that overflow
        assume(False)


def _entries_hex(entries):
    return [tuple(v.hex() for v in e) for e in entries]


class TestPerAtomSum:
    """The transform, with the kernels of all atoms from one list form (or
    q_exp mapped over them), against math.fsum of w * K(lambda, t) with a
    kernel call per atom: bit for bit, and where an atom fails, the first
    error in atom order."""

    @settings(deadline=None, max_examples=300)
    @given(qv=_QS, kernel=st.sampled_from(list(KernelKind)), pairs=_ATOMS, lams=_LAMS)
    def test_matches_per_atom_sum(self, qv, kernel, pairs, lams):
        mu, q = _measure(pairs), QParam(qv)
        for lam in lams:
            assert outcome(q_laplace, mu, lam, q, kernel) == outcome(
                reference_q_laplace, mu, lam, q, kernel
            )

    def test_fsum_overflow_before_a_failing_atom_comes_first(self):
        # the first two terms sum past the float range; the third atom's
        # kernel E_0.5(-1e20) overflows on its own
        mu = DiscreteMeasure((0.0, 1e-6, 1e20), (1e308, 1e308, 1.0))
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            q_laplace(mu, 1.0, Q5, KernelKind.JACKSON_E)
        with pytest.raises(OverflowError, match=r"at x = -1e\+20$"):
            q_laplace(DiscreteMeasure((0.0, 1e20), (1.0, 1.0)), 1.0, Q5, KernelKind.JACKSON_E)

    def test_first_failing_atom_names_the_error(self):
        mu = DiscreteMeasure((1.0, 2.0, 3.0), (0.5, 0.25, 0.25))
        q = QParam(1.5)  # E_q has radius 3
        with pytest.raises(DomainError, match=r"got x=-4\.0$"):
            q_laplace(mu, 2.0, q, KernelKind.JACKSON_E)

    @settings(deadline=None, max_examples=150)
    @given(qv=_QS, kernel=st.sampled_from(list(KernelKind)), data=st.data())
    def test_semigroup_entries_match_per_lambda_sums(self, qv, kernel, data):
        ts = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                                min_size=1, max_size=3, unique=True))
        needed = sorted(set(ts) | {t + s for i, t in enumerate(ts) for s in ts[i:]})
        family = {t: _measure(data.draw(_ATOMS.map(lambda ps: ps[:3]))) for t in needed}
        lams = data.draw(_LAMS)
        q = QParam(qv)
        got = outcome(lambda: _entries_hex(
            semigroup_check(family, ts, lams, q, kernel, 1e-12).entries))
        want = outcome(lambda: _entries_hex(
            reference_semigroup_entries(family, ts, lams, q, kernel)))
        assert got == want

    def test_semigroup_error_in_lambda_then_pair_order(self):
        # conv = delta(4) fails only at lambda = 1 (E_1.5 has radius 3), the
        # target delta(7) already at lambda = 0.5, which comes first
        family = {1.0: DiscreteMeasure.delta(2.0), 2.0: DiscreteMeasure.delta(7.0)}
        with pytest.raises(DomainError, match=r"got x=-3\.5$"):
            semigroup_check(family, (1.0,), (0.5, 1.0), QParam(1.5), KernelKind.JACKSON_E, 1e-12)
