"""q-differentiation table, Bell polynomials, composition rule."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    central_diff,
    monomial_q_derive_n,
    naive_q_derive_n,
    outcome,
    reference_rows,
    reference_sample,
)
from qmono import (
    DomainError,
    EvaluationError,
    ExpKind,
    QDiffTable,
    QParam,
    q_bell,
    q_derive,
    q_derive_n,
    q_exp,
    q_faa_di_bruno,
    q_faa_di_bruno_gap,
    q_number,
)
from qmono.qdiff import _Lattice

Q5 = QParam(0.5)


class TestQDerive:
    def test_constant(self):
        assert q_derive(lambda x: 7.25, 2.0, Q5) == 0.0

    def test_square(self):
        # D_q x^2 = [2] x
        assert q_derive(lambda x: x * x, 1.0, Q5) == pytest.approx(1.5, rel=1e-14)

    def test_small_e_eigenfunction(self):
        # D_q e_q(ax) = a e_q(ax), here a = 1 at x = 0.5
        f = lambda x: q_exp(x, Q5, ExpKind.SMALL_E)
        assert q_derive(f, 0.5, Q5) == pytest.approx(
            q_exp(0.5, Q5, ExpKind.SMALL_E), abs=1e-10
        )

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            q_derive(lambda x: x, 0.0, Q5)


class TestQDeriveN:
    def test_order_zero_is_identity(self):
        assert q_derive_n(lambda x: x**2 + 1, 3.0, Q5, 0) == 10.0

    def test_big_e_rule(self):
        # D_q^2 E_q(-x) = q^1 E_q(-q^2 x) at x = 1
        f = lambda x: q_exp(-x, Q5, ExpKind.BIG_E)
        expected = 0.5 * q_exp(-0.25, Q5, ExpKind.BIG_E)
        assert q_derive_n(f, 1.0, Q5, 2) == pytest.approx(expected, abs=1e-10)

    def test_monomial_rule(self):
        # D_q^2 x^3 = [3][2] x
        assert q_derive_n(lambda x: x**3, 1.0, Q5, 2) == pytest.approx(2.625, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            q_derive_n(lambda x: x, 0.0, Q5, 2)
        with pytest.raises(DomainError):
            q_derive_n(lambda x: x, 1.0, Q5, -1)
        with pytest.raises(DomainError):
            q_derive_n(lambda x: x, 1.0, Q5, 9)  # beyond the order cap

    @pytest.mark.parametrize("qv", [0.3, 0.5, 0.9])
    def test_table_matches_naive_recursion(self, qv):
        # same sample points, same arithmetic tree: pure-arithmetic agreement
        q = QParam(qv)
        f = lambda x: math.sin(x) + x**3 / (1 + x)
        for n in range(0, 7):
            for x in (0.2, 1.0, 3.7):
                table = q_derive_n(f, x, q, n)
                naive = naive_q_derive_n(f, x, q, n)
                assert table == pytest.approx(naive, rel=1e-11, abs=1e-11)

    def test_linearity(self):
        f = lambda x: 1.0 / (1.0 + x)
        g = lambda x: math.exp(-x)
        a, b = 2.5, -1.25
        for n in range(0, 7):
            lhs = q_derive_n(lambda x: a * f(x) + b * g(x), 1.3, Q5, n)
            rhs = a * q_derive_n(f, 1.3, Q5, n) + b * q_derive_n(g, 1.3, Q5, n)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("qv,a,xlo,xhi", [(0.7, -1.0, 1.0, 1.66), (0.9, -1.0, 2.0, 4.0), (0.9, 1.0, 2.0, 4.0)])
    def test_small_e_eigenrule_high_order(self, qv, a, xlo, xhi):
        # D_q^n e_q(ax) = a^n e_q(ax) for n <= 5, |ax| < 0.5/(1-q).
        # The q^(n(n-1)/2) table denominators eat roughly n(n-1)/2 digits, so
        # x must stay away from 0 for a 1e-9 relative check to be meaningful.
        q = QParam(qv)
        f = lambda x: q_exp(a * x, q, ExpKind.SMALL_E)
        for n in range(0, 6):
            for i in range(8):
                x = xlo + (xhi - xlo) * i / 7.0
                expected = a**n * q_exp(a * x, q, ExpKind.SMALL_E)
                assert q_derive_n(f, x, q, n) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("qv,a", [(0.9, -1.0), (0.9, 1.0), (0.5, 1.0)])
    def test_big_e_eigenrule_high_order(self, qv, a):
        # D_q^n E_q(ax) = a^n q^(n(n-1)/2) E_q(a q^n x).  Negative a at q = 0.5
        # is excluded: E_q(-2) = 0 exactly, so relative comparison degenerates
        # at the kernel zero.
        q = QParam(qv)
        f = lambda x: q_exp(a * x, q, ExpKind.BIG_E)
        for n in range(0, 6):
            for i in range(8):
                x = 2.0 + 2.0 * i / 7.0
                expected = (
                    a**n * qv ** (n * (n - 1) // 2) * q_exp(a * qv**n * x, q, ExpKind.BIG_E)
                )
                assert q_derive_n(f, x, q, n) == pytest.approx(expected, rel=1e-9)

    def test_monomial_closed_form_sweep(self):
        for qv in (0.3, 0.9):
            q = QParam(qv)
            for m in (1, 2, 3, 4):
                f = lambda x, m=m: x**m
                table = QDiffTable.build(f, (0.4, 2.0), q, 6)
                for i, x in enumerate(table.points):
                    for n in range(0, 7):
                        expected = monomial_q_derive_n(m, n, x, q)
                        got = table.value(n, i)
                        if n <= m:
                            assert got == pytest.approx(expected, rel=1e-12)
                        else:
                            # exact zero: computed value must sit inside the
                            # numerical-zero band of its own propagated magnitude
                            assert abs(got) <= 1e-7 * table.mag_rows[n][0]

    def test_classical_limit_first_order(self):
        # q -> 1: D_q f approaches f', checked against a central difference
        q = QParam(0.999)
        f = math.exp
        for x in (0.5, 1.0, 2.0):
            dq = q_derive_n(f, x, q, 1)
            classical = central_diff(f, x, 1, 1e-5)
            assert dq == pytest.approx(classical, rel=1e-2)


def _lattice(x0, q, order):
    """x0, q x0, ..., q^order x0 by iterated multiplication, as the table
    forms them: a table rooted there holds every column of x0's triangle,
    rows[m][j] = (D_q^m f)(q^j x0)."""
    pts = [x0]
    for _ in range(order):
        pts.append(q.q * pts[-1])
    return tuple(pts)


class TestQDiffTable:
    def test_row_zero_is_samples(self):
        f = lambda x: x * x
        t = QDiffTable.build(f, _lattice(2.0, Q5, 3), Q5, 3)
        assert t.rows[0] == (4.0, 1.0, 0.25, 0.0625)
        assert t.points == (2.0, 1.0, 0.5, 0.25)
        assert t.order == 3
        assert QDiffTable.build(f, (2.0,), Q5, 3).rows[0] == (4.0,)

    def test_row_lengths_and_values(self):
        t = QDiffTable.build(lambda x: x**2, _lattice(1.0, Q5, 4), Q5, 4)
        for m in range(5):
            assert len(t.rows[m]) == len(t.mag_rows[m]) == 5  # one entry per root
        # D_q^2 x^2 = [2][1] = [2]! at every root
        for j in range(5):
            assert t.value(2, j) == pytest.approx(1.5, rel=1e-12)

    def test_mag_rows_are_the_condition_table(self):
        t = QDiffTable.build(lambda x: x, _lattice(1.0, Q5, 2), Q5, 2)
        assert t.mag_rows[0] == (1.0, 0.5, 0.25)
        # condition entry (1, 0): (|1.0| + |0.5|) / |1.0 * (q-1)| = 3.0
        assert t.mag_rows[1][0] == pytest.approx(3.0, rel=1e-14)
        # (1, 1): (|0.5| + |0.25|) / |0.5 * (q-1)| = 3.0
        assert t.mag_rows[1][1] == pytest.approx(3.0, rel=1e-14)
        # (2, 0): (3.0 + 3.0) / |1.0 * (q-1)| = 12.0
        assert t.mag_rows[2][0] == pytest.approx(12.0, rel=1e-14)
        # the value rows are untouched by the condition table
        assert t.value(1, 0) == pytest.approx(1.0, rel=1e-14)

    def test_entries_match_recursive_definition(self):
        f = lambda x: 1.0 / (1.0 + x)
        t = QDiffTable.build(f, _lattice(1.5, Q5, 5), Q5, 5)
        for m in range(6):
            for j in range(6):
                direct = naive_q_derive_n(f, 0.5**j * 1.5, Q5, m)
                assert t.value(m, j) == pytest.approx(direct, rel=1e-12)


class TestRootsAreChecked:
    """A root that is not a finite int or float is named by a DomainError
    before f sees any sample, like a grid point."""

    @pytest.mark.parametrize(
        "root, shown",
        [
            (10**400, "1" + "0" * 400),
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            ("a", "'a'"),
            ("1.5", "'1.5'"),
            (None, "None"),
        ],
        ids=["int_too_large", "nan", "inf", "-inf", "str", "numeric_str", "None"],
    )
    def test_bad_root_is_named_before_any_sample(self, root, shown):
        seen = []

        def f(x):
            seen.append(x)
            return x

        with pytest.raises(DomainError, match=f"^table roots must be finite, got {re.escape(shown)}$"):
            QDiffTable.build(f, [1.0, root], Q5, 2)
        assert seen == []

    def test_int_and_float_subclass_roots_become_floats(self):
        lattice = _Lattice((2, _FloatSub(0.5), True), Q5, 1)
        assert [type(x) for x in lattice.roots] == [float] * 3
        assert lattice.roots == (2.0, 0.5, 1.0)


class TestUnderflowingDivisor:
    def test_subnormal_root_is_a_domain_error(self):
        # 5e-324 * (0.6 - 1) rounds to -0.0: the first divisor is zero
        with pytest.raises(DomainError, match=r"root x = 5e-324, j = 0"):
            QDiffTable.build(lambda x: 1.0, (5e-324,), QParam(0.6), 1)

    def test_underflowing_lattice_point_is_a_domain_error(self):
        # q * x = 1e-400 underflows to 0.0, the divisor of order 2 at j = 1
        q = QParam(1e-200)
        with pytest.raises(DomainError, match=r"root x = 1e-200, j = 1"):
            QDiffTable.build(lambda x: 1.0 / (x + 1.0), (1e-200, 1e-199), q, 2)

    def test_order_zero_divides_by_nothing(self):
        table = QDiffTable.build(lambda x: 1.0, (5e-324,), QParam(0.6), 0)
        assert table.rows == ((1.0,),)


class TestQDiffTableReference:
    FUNCTIONS = [
        lambda x: 1.0 / (x + 0.7), lambda x: math.exp(-1.3 * x), lambda x: x,
        lambda x: x * x, lambda x: 2.5,
    ]

    @settings(deadline=None)
    @given(
        f=st.sampled_from(FUNCTIONS),
        qv=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
        points=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=16),
        order=st.integers(0, 8),
    )
    def test_rows_bit_identical_to_entrywise_recurrence(self, f, qv, points, order):
        q = QParam(qv)
        # every root of a grid against its own entrywise triangle
        table = QDiffTable.build(f, points, q, order)
        refs = [reference_rows(f, x, q, order) for x in points]
        for m in range(order + 1):
            assert repr(table.rows[m]) == repr(tuple(r[m][0] for r, _ in refs))
            assert repr(table.mag_rows[m]) == repr(tuple(g[m][0] for _, g in refs))
        # a table rooted at the lattice of points[0] holds that triangle's
        # columns: every entry (m, j), j <= order - m
        rows, mags = refs[0]
        lattice = QDiffTable.build(f, _lattice(points[0], q, order), q, order)
        for m in range(order + 1):
            assert repr(lattice.rows[m][: order + 1 - m]) == repr(rows[m])
            assert repr(lattice.mag_rows[m][: order + 1 - m]) == repr(mags[m])


class TestQBell:
    XS = (2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0)

    def test_single_composition_base(self):
        assert q_bell(1, 1, Q5, (4.25,)) == 4.25

    def test_k_one_is_xn(self):
        # coefficient [n]!/([n][n-1]!) telescopes to 1
        for n in range(1, 9):
            assert q_bell(n, 1, Q5, self.XS) == self.XS[n - 1]

    def test_k_n_is_x1_pow(self):
        for n in range(1, 9):
            expected = 1.0
            for _ in range(n):
                expected *= self.XS[0]
            assert q_bell(n, n, Q5, self.XS) == expected

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            q_bell(3, 0, Q5, self.XS)
        with pytest.raises(DomainError):
            q_bell(3, 4, Q5, self.XS)
        with pytest.raises(DomainError):
            q_bell(5, 2, Q5, (1.0, 2.0))  # needs n-k+1 = 4 arguments

    def test_middle_case_by_hand(self):
        # B_{3,2}: compositions (1,2) and (2,1) of 3 into 2 parts
        # (1,2): [3]! x1 x2 / ([1][3] [0]![1]!) ; (2,1): [3]! x2 x1 / ([2][3] [1]![0]!)
        x1, x2 = 2.0, 3.0
        q = Q5
        n3 = q_number(3.0, q)
        n2 = q_number(2.0, q)
        fact3 = 1.0 * 1.5 * 1.75
        expected = fact3 * x1 * x2 / n3 + fact3 * x2 * x1 / (n2 * n3)
        assert q_bell(3, 2, q, (x1, x2)) == pytest.approx(expected, rel=1e-13)


class TestQFaaDiBruno:
    def test_first_order_is_chain_rule(self):
        # n = 1 has the single term (D_q g)(h(x)) (D_q h)(x)
        g_dq = lambda k: (lambda y: 3.0 * y**2)  # pretend D_q g
        h = lambda x: x * x
        val = q_faa_di_bruno(g_dq, h, 1.2, Q5, 1)
        expected = 3.0 * (1.2**2) ** 2 * q_derive(h, 1.2, Q5)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_linear_inner_square_outer(self):
        # h(x) = c x kills every composition with a part >= 2, so only the
        # k = n term survives: c^n (D_q^n g)(cx)
        c = 2.0
        h = lambda x: c * x
        two = q_number(2.0, Q5)

        def gk(k):
            if k == 1:
                return lambda y: two * y  # D_q y^2 = [2] y
            if k == 2:
                return lambda y: two  # D_q^2 y^2 = [2][1]
            return lambda y: 0.0

        val = q_faa_di_bruno(gk, h, 1.0, Q5, 2)
        assert val == pytest.approx(c**2 * two, rel=1e-12)
        assert val == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_linear_inner_matches_direct(self, n):
        # g = e_q, whose q-derivatives are itself; h(x) = c x
        c = 0.3
        gk = lambda k: (lambda y: q_exp(y, Q5, ExpKind.SMALL_E))
        h = lambda x: c * x
        composed = lambda x: q_exp(c * x, Q5, ExpKind.SMALL_E)
        direct, formula, gap = q_faa_di_bruno_gap(gk, h, composed, 1.0, Q5, n)
        assert formula == pytest.approx(direct, rel=1e-9)
        assert formula == pytest.approx(c**n * q_exp(c, Q5, ExpKind.SMALL_E), rel=1e-9)
        assert gap <= 1e-9 * max(1.0, abs(direct))

    def test_nonlinear_inner_gap_is_reported(self):
        # general inner functions carry no agreement guarantee; the gap is
        # reported for inspection, not judged
        gk = lambda k: (lambda y: q_exp(y, Q5, ExpKind.SMALL_E))
        h = lambda x: 0.2 * x * x
        composed = lambda x: q_exp(0.2 * x * x, Q5, ExpKind.SMALL_E)
        direct, formula, gap = q_faa_di_bruno_gap(gk, h, composed, 1.0, Q5, 2)
        assert math.isfinite(direct) and math.isfinite(formula)
        assert gap == abs(direct - formula)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            q_faa_di_bruno(lambda k: (lambda y: y), lambda x: x, 1.0, Q5, 0)


def _reference_faa_di_bruno(gk, h, x, q, n):
    """The composition rule with every (D_q^b h)(q^s x) read off the
    entrywise triangle of h rooted at x (iterated lattice points); each term
    is [n]! over its q-factorial weight, then times the inner derivatives in
    composition order."""
    rows, _ = reference_rows(h, x, q, n)
    qnum = [q_number(float(m), q) for m in range(n + 1)]
    qfact = [1.0]
    for m in range(1, n + 1):
        qfact.append(qfact[-1] * qnum[m])
    terms = []
    for k in range(1, n + 1):
        inner = []
        for cuts in itertools.combinations(range(1, n), k - 1):
            ends = (*cuts, n)
            comp = [b - a for a, b in zip((0, *cuts), ends)]
            denom = 1.0
            for e in ends:
                denom *= qnum[e]
            for b in comp:
                denom *= qfact[b - 1]
            term = qfact[n] / denom
            for s, b in zip((0, *cuts), comp):
                term *= rows[b][s]
            inner.append(term)
        terms.append(gk(k)(rows[0][0]) * math.fsum(inner))
    return math.fsum(terms)


class TestOneTableFaaDiBruno:
    GK = staticmethod(lambda k: (lambda y: (k + 1.0) / (1.0 + y * y)))
    INNER = {"linear": lambda x: 0.3 * x, "nonlinear": lambda x: math.exp(-x) + 0.2 * x * x}

    @pytest.mark.parametrize("inner", sorted(INNER))
    @pytest.mark.parametrize("qv", [0.3, 0.9, 1.7])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_entrywise_reference(self, n, qv, inner):
        q, h = QParam(qv), self.INNER[inner]
        calls = []

        def counted(x):
            calls.append(x)
            return h(x)

        for x in (0.7, 1.3):
            calls.clear()
            value = q_faa_di_bruno(self.GK, counted, x, q, n)
            # one table: n prefix roots, each sampled at order n
            assert len(calls) == n * (n + 1)
            assert repr(value) == repr(_reference_faa_di_bruno(self.GK, h, x, q, n))

    def test_zero_root_and_order_cap(self):
        with pytest.raises(DomainError, match=r"^q-derivative is undefined at x = 0$"):
            q_faa_di_bruno(self.GK, lambda x: x, 0.0, Q5, 3)
        with pytest.raises(DomainError, match=r"^table order 9 exceeds the cap 8$"):
            q_faa_di_bruno(self.GK, lambda x: x, 1.0, Q5, 9)


class _FloatSub(float):
    pass


class TestSamplePath:
    """A finite sample of class exactly float is taken as it is; any other
    value goes through the checked path.  Either way the samples, or the
    error and the points f saw, are those of the checked loop
    (tests/_oracles.py), bit for bit."""

    # no two lattice points coincide at q = 0.5 to order 3
    LATTICE = _Lattice((0.7, 1.3, 2.0), Q5, 3)
    VALUES = [
        0.0, -0.0, 1.5, -2.75, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308,
        math.inf, -math.inf, math.nan,
        True, False, 0, 7, -3, 2**53 + 1,
        _FloatSub(2.5), None, 1 + 0j, Fraction(1, 3), "1.0",
    ]

    def sampled(self, f):
        """(the outcome, the points f saw) of the fast and the checked loop."""
        runs = []
        for loop in (self.LATTICE.sample, lambda f, vals: reference_sample(self.LATTICE, f, vals)):
            seen = []

            def counted(x):
                seen.append(x)
                return f(x)

            runs.append((outcome(loop, counted, list(self.LATTICE.points)), seen))
        return runs

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("at", [None, 0, 5, 11])
    def test_matches_the_checked_loop(self, value, at):
        # value at every point (at None) or only at lattice entry `at`
        bad = None if at is None else self.LATTICE.points[at]
        f = lambda x: value if bad is None or x == bad else 1.0 / (x + 1.0)
        fast, checked = self.sampled(f)
        assert fast == checked
        result, _ = fast
        if result[0] == "value":
            samples = self.LATTICE.sample(f, list(self.LATTICE.points))
            assert all(type(v) is float for v in samples)

    def test_first_bad_sample_is_named_root_by_root(self):
        # entry 4 is q x_1, entry 2 is x_2: root by root, q x_1 comes first
        pts = self.LATTICE.points
        f = lambda x: math.nan if x in (pts[2], pts[4]) else x
        (fast, seen), checked = self.sampled(f)
        assert (fast, seen) == checked
        assert fast == (EvaluationError, f"function not finite at x = {pts[4]!r}: got nan")
        # root x_0 (entries 0, 3, 6, 9), then x_1 up to its bad entry 4
        assert seen == [pts[k] for k in (0, 3, 6, 9, 1, 4)]

    @pytest.mark.parametrize("at", [None, 5])
    def test_an_int_too_large_for_a_float_is_named(self, at):
        pts = self.LATTICE.points
        bad = pts[0] if at is None else pts[at]
        f = lambda x: 10**400 if at is None or x == bad else x
        (fast, seen), (checked, checked_seen) = self.sampled(f)
        assert fast == (EvaluationError, f"function not finite at x = {bad!r}: got {10**400!r}")
        # the checked loop raised isfinite's OverflowError at the same point
        assert checked == (OverflowError, "int too large to convert to float")
        assert seen == checked_seen

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=12, max_size=12))
    def test_finite_floats_are_kept_bit_for_bit(self, values):
        table = dict(zip(self.LATTICE.points, values))
        fast, checked = self.sampled(table.__getitem__)
        assert fast == checked
        assert fast[0][0] == "value"
