"""The row rule: a report's JSON rows are its CSV rows keyed by the header."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmono import (
    CertProperty,
    CertSpec,
    Counterexample,
    DiscreteMeasure,
    Grid,
    KernelKind,
    QParam,
    bernstein_iff_check,
    certify,
    closure_checks,
    semigroup_check,
)
from _oracles import outcome, reference_render_json
from qmono._serialize import keyed, render_csv, render_json

Q5 = QParam(0.5)
TOL = 1e-7  # CertSpec's default tol_rel


class TestKeyed:
    def test_keeps_key_order(self):
        rows = keyed(("b", "a", "c"), [(1, 2, 3), (4, 5, 6)])
        assert [list(r) for r in rows] == [["b", "a", "c"]] * 2
        assert rows == [{"b": 1, "a": 2, "c": 3}, {"b": 4, "a": 5, "c": 6}]

    def test_passes_none_and_booleans_through(self):
        (row,) = keyed(("g", "t", "ok", "bad"), [(None, None, True, False)])
        assert row["g"] is None and row["t"] is None
        assert row["ok"] is True and row["bad"] is False
        assert render_json(row) == '{"g": null, "t": null, "ok": true, "bad": false}\n'


class TestRecordsAreRefused:
    """Trees hold keyed rows: a record in one is refused, not rendered as
    an anonymous array."""

    @pytest.mark.parametrize("record", [Q5, Grid((1.0, 2.0)), Counterexample(0.1, 2, -1.0, 1.0)])
    def test_refuses_a_record(self, record):
        with pytest.raises(TypeError, match=f"^cannot serialize {type(record).__name__}$"):
            render_json({"rows": [record]})

    def test_renders_plain_tuples_and_lists(self):
        tree = {"rows": [(1, 0.5), [None, True]]}
        assert render_json(tree) == '{"rows": [[1, 0.5], [null, true]]}\n'


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Int(int):
    pass


class _Pair(NamedTuple):
    a: float
    b: float


_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.text(max_size=6),
    st.text(max_size=6).map(_Str),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.none(),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(_List),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(), st.booleans()), children,
                        max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(_Dict),
    ),
    max_leaves=25,
)


class TestRenderOracle:
    """render_json tests the exact types float, str, dict and list first;
    every tree renders as the plain isinstance chain renders it, and the
    same trees with a record or a non-finite float in them fail alike."""

    @settings(deadline=None, max_examples=300)
    @given(tree=_TREES)
    def test_matches_isinstance_chain(self, tree):
        assert outcome(render_json, tree) == outcome(reference_render_json, tree)

    @pytest.mark.parametrize("bad", [_Pair(1.0, 2.0), math.inf, _Float(math.nan), -math.inf])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: {"rows": [1.0, {"x": v}]},
                                      lambda v: _List([_Dict(a=v)]), lambda v: (v,)])
    def test_refusals_match(self, bad, wrap):
        tree = wrap(bad)
        want = TypeError if isinstance(bad, tuple) else ValueError
        got = outcome(render_json, tree)
        assert got[0] is want
        assert got == outcome(reference_render_json, tree)


def _matches(report, expected: dict) -> None:
    """to_tree() is the literal tree, key order included."""
    assert report.to_tree() == expected
    assert render_json(report.to_tree()) == render_json(expected)


class TestCertReportRows:
    @pytest.fixture
    def report(self):
        spec = CertSpec(CertProperty.QCM, max_order=2, grid=Grid.linear(1.0, 2.0, 2))
        return certify(lambda x: x, Q5, spec)

    def test_json_rows_are_csv_rows_without_margin(self, report):
        header, rows = report.csv_rows()
        assert header[-1] == "margin"
        assert len(rows) >= 2
        assert [r[-1] for r in rows] == [r[2] for r in rows]  # margin = value
        assert report.to_tree()["counterexamples"] == keyed(header[:-1], [r[:-1] for r in rows])

    def test_bytes(self, report):
        _matches(report, {
            "kind": "cert_report",
            "property": "qcm",
            "q": 0.5,
            "max_order": 2,
            "tol_rel": TOL,
            "grid": {"count": 2, "points": [1.0, 2.0]},
            "verdict": "Violated",
            "checks_run": 6,
            "min_margin": -1.0,
            "counterexamples": [
                {"x": 1.0, "n": 1, "value": -1.0, "scale": 3.0},
                {"x": 2.0, "n": 1, "value": -1.0, "scale": 3.0},
            ],
            "notes": [],
        })
        assert render_csv(*report.csv_rows()) == (
            "x,n,value,scale,margin\n1,1,-1,3,-1\n2,1,-1,3,-1\n"
        )


class TestBernsteinIffRows:
    @pytest.fixture
    def report(self):
        spec = CertSpec(CertProperty.QCM, max_order=2, grid=Grid((1.0,)))
        return bernstein_iff_check(lambda x: x * x, (1.0,), Q5, spec)

    def test_csv_rows_summarize_the_tree_sides(self, report):
        tree = report.to_tree()
        sides = [("qbernstein", None, tree["bernstein_side"])]
        sides += [("qcm", e["t"], e["report"]) for e in tree["cm_side"]]
        header, rows = report.csv_rows()
        assert header == ("side", "t", "verdict", "min_margin", "checks_run", "counterexamples")
        assert rows == [
            (side, t, r["verdict"], r["min_margin"], r["checks_run"], len(r["counterexamples"]))
            for side, t, r in sides
        ]
        for _, _, r in sides:
            assert r["verdict"] == "Violated"

    def test_bytes(self, report):
        cm_value = -0.40220610906262055
        _matches(report, {
            "kind": "bernstein_iff_report",
            "agree": True,
            "flagged": [
                "qbernstein side violated at x=1 n=2 value=-1.5",
                "qcm side violated at t=1 x=1 n=2",
            ],
            "bernstein_side": {
                "kind": "cert_report",
                "property": "qbernstein",
                "q": 0.5,
                "max_order": 2,
                "tol_rel": TOL,
                "grid": {"count": 1, "points": [1.0]},
                "verdict": "Violated",
                "checks_run": 3,
                "min_margin": -1.5,
                "counterexamples": [{"x": 1.0, "n": 2, "value": -1.5, "scale": 7.5}],
                "notes": [],
            },
            "cm_side": [{"t": 1.0, "report": {
                "kind": "cert_report",
                "property": "qcm",
                "q": 0.5,
                "max_order": 2,
                "tol_rel": TOL,
                "grid": {"count": 1, "points": [1.0]},
                "verdict": "Violated",
                "checks_run": 3,
                "min_margin": cm_value,
                "counterexamples": [
                    {"x": 1.0, "n": 2, "value": cm_value, "scale": 18.911879754191787},
                ],
                "notes": [],
            }}],
        })
        assert render_csv(*report.csv_rows()) == (
            "side,t,verdict,min_margin,checks_run,counterexamples\n"
            "qbernstein,,Violated,-1.5,3,1\n"
            "qcm,1,Violated,-0.40220610906262055,3,1\n"
        )


class TestClosureRows:
    @pytest.fixture
    def report(self):
        fs = {"neg": lambda x: -1.0, "one": lambda x: 1.0, "recip": lambda x: 1.0 / (x + 1.0)}
        spec = CertSpec(CertProperty.QCM, max_order=1, grid=Grid((1.0,)))
        return closure_checks(fs, Q5, spec, ts=(1.0,))

    def test_json_rows_are_csv_rows_keyed(self, report):
        tree = report.to_tree()
        assert tree["checks"] == keyed(*report.csv_rows())
        assert tree["base"] == keyed(("name", "property", "verdict"), report.base)

    def test_bytes(self, report):
        def law(kind, f, g=None, t=None):
            return {"kind": kind, "f": f, "g": g, "t": t, "verdict": "Consistent", "ok": True}

        def base(name, *verdicts):
            return [
                {"name": name, "property": p, "verdict": v}
                for p, v in zip(("qbernstein", "qcm", "qlogcm"), verdicts)
            ]

        _matches(report, {
            "kind": "closure_report",
            "all_ok": True,
            "base": base("neg", "Violated", "Violated", "inapplicable")
            + base("one", "Consistent", "Consistent", "Consistent")
            + base("recip", "Violated", "Consistent", "Consistent"),
            "checks": [
                law("composition", "one", "one"),
                law("logcm_implies_cm", "one"),
                law("logcm_implies_cm", "recip"),
                law("power_stays_cm", "one", t=1.0),
                law("decay_is_logcm", "one"),
            ],
        })
        assert render_csv(*report.csv_rows()) == (
            "kind,f,g,t,verdict,ok\n"
            "composition,one,one,,Consistent,true\n"
            "logcm_implies_cm,one,,,Consistent,true\n"
            "logcm_implies_cm,recip,,,Consistent,true\n"
            "power_stays_cm,one,,1,Consistent,true\n"
            "decay_is_logcm,one,,,Consistent,true\n"
        )


class TestSemigroupRows:
    @pytest.fixture
    def report(self):
        return semigroup_check(
            DiscreteMeasure.delta, (1.0,), (0.0, 1.0), Q5, KernelKind.POWER_E, 1e-12
        )

    def test_json_rows_are_csv_rows_keyed(self, report):
        assert report.to_tree()["entries"] == keyed(*report.csv_rows())

    def test_bytes(self, report):
        v = 0.17591518468137043  # E_0.5(1)^(-2)
        _matches(report, {
            "kind": "semigroup_report",
            "kernel": "power_e",
            "tol": 1e-12,
            "max_deviation": 0.0,
            "worst": {"t": 1.0, "s": 1.0, "lambda": 0.0},
            "passed": True,
            "entries": [
                {"t": 1.0, "s": 1.0, "lambda": 0.0, "lhs": 1.0, "rhs": 1.0, "deviation": 0.0},
                {"t": 1.0, "s": 1.0, "lambda": 1.0, "lhs": v, "rhs": v, "deviation": 0.0},
            ],
        })
        assert render_csv(*report.csv_rows()) == (
            "t,s,lambda,lhs,rhs,deviation\n"
            "1,1,0,1,1,0\n"
            "1,1,1,0.17591518468137043,0.17591518468137043,0\n"
        )
