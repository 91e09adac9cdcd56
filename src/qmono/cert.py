"""Numerical certification of q-monotonicity sign patterns.

Three properties are certified on finite grids up to a finite q-derivative
order N:

  QCM         (-1)^n D_q^n f >= 0          for n = 0..N (q-complete monotonicity)
  QLOGCM      the same pattern applied to Log_q f, for n = 1..N
  QBERNSTEIN  f >= 0 and (-1)^(n-1) D_q^n f >= 0 for n = 1..N

A `Consistent` verdict means "no violation found at this order / grid /
tolerance" and never claims a proof; reports therefore carry the order,
grid and tolerance that produced them.  A value is sign-checked only when
|value| > tol_rel * scale, where scale is the propagated magnitude of the
checked entry itself (its condition-table entry, see `QDiffTable`): the
band follows the units of f, reads no sample past q^n x, and keeps
high-order cancellation from producing spurious verdicts.

Each call builds one difference table over the whole grid and checks it
in grid order, point by point, so identical inputs give byte-identical
reports.  That `QDiffTable.build` is the one check that each sample is
finite; the first bad sample in its root-by-root order is the one
reported.  `certify` is target -> table -> `_check`, the one check of a
table against a property.  The composite checks sample each function
once: `closure_checks` and `bernstein_iff_check` form one q-lattice per
call, sample each f on it once (with the same checks, in the same order),
read QBERNSTEIN and QCM off one table of f, and table Log_q f, g o f and
E_q(1)^(-t f) from f's samples.  The samples live for that call only.

Every report here and `qmeasure.SemigroupReport` offers `to_tree()` (its
JSON form) and `csv_rows() -> (header, rows)` (its CSV form); `_serialize`
renders both.  A report states each row once: its JSON rows are its CSV
rows keyed by the header (`_serialize.keyed`).

The theorem harnesses check each thing once.  `thm31_harness` and
`thm32_harness` are the only gates on their hypotheses (the parameter
classes only report them), and `negative_control` is the one way past
either.  `bernstein_iff_check` and `closure_checks` refuse every t that is
not > 0 at entry and certify f's decay targets E_q(1)^(-t f) as QCM through
one helper.  Closure laws that follow from the base pass are read off it:
`logcm_implies_cm` from the QLOGCM and QCM verdicts, `decay_is_logcm` from
the QBERNSTEIN one.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from ._serialize import format17, keyed, render_csv, render_json
from .qcore import (
    DomainError,
    InputError,
    QParam,
    _eq_powers,
    _finite_number,
    _log_eq_base,
    _shown,
    eq_power,
)
from .qdiff import MAX_TABLE_ORDER, QDiffTable, RealFunction, _Lattice
from .qspecial import GammaParams, RatioParams, f_abq, g_ab, g_ratio

__all__ = [
    "CertProperty",
    "Verdict",
    "Grid",
    "CertSpec",
    "Counterexample",
    "CertReport",
    "certify",
    "BernsteinIffReport",
    "bernstein_iff_check",
    "difference_check",
    "ClosureCheck",
    "ClosureReport",
    "closure_checks",
    "thm31_harness",
    "thm32_harness",
    "report_to_tree",
    "report_to_json",
    "report_to_csv",
]


class CertProperty(Enum):
    QCM = "qcm"
    QLOGCM = "qlogcm"
    QBERNSTEIN = "qbernstein"


class Verdict(Enum):
    CONSISTENT = "Consistent"
    VIOLATED = "Violated"


def _spaced(lo: float, hi: float, count: int, log: bool) -> tuple[float, ...]:
    """count points from lo to hi, evenly spaced in log x (log=True) or in x,
    with the ends pinned to lo and hi; a count-1 grid is (lo,).  The ends
    must be finite, and > 0 on a log grid: DomainError otherwise."""
    if count < 1:
        raise DomainError(f"grid needs at least one point, got count={count}")
    for end in (lo, hi)[:count]:  # a count-1 grid has no upper end
        if not (_finite_number(end) and (end > 0.0 or not log)):
            bound = " and > 0" if log else ""
            raise DomainError(f"grid points must be finite{bound}, got {_shown(end)}")
    if count < 2:
        return (lo,)
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    pts = [a + i * (b - a) / (count - 1) for i in range(count)]
    if log:
        pts = [math.exp(p) for p in pts]
    pts[0], pts[-1] = lo, hi
    return tuple(pts)


def _increasing(pts: tuple[float, ...]) -> tuple[float, ...]:
    if any(a >= b for a, b in zip(pts, pts[1:])):
        raise DomainError("grid points must be strictly increasing")
    return pts


_DEFAULT_POINTS = _spaced(0.1, 5.0, 64, log=True)


class Grid(NamedTuple("Grid", [("points", tuple[float, ...])])):
    """Strictly increasing positive evaluation points.

    D_q is undefined at 0, so the grid stays strictly inside (0, inf); the
    default is 64 log-spaced points on [0.1, 5].
    """

    __slots__ = ()

    def __new__(cls, points: Sequence[float] = _DEFAULT_POINTS) -> "Grid":
        pts = tuple(points)
        if not pts:
            raise DomainError("grid must be nonempty")
        for p in pts:
            if not (_finite_number(p) and p > 0.0):
                raise DomainError(f"grid points must be finite and > 0, got {_shown(p)}")
        return super().__new__(cls, _increasing(tuple(map(float, pts))))

    @classmethod
    def log_spaced(cls, lo: float, hi: float, count: int) -> "Grid":
        return cls(_spaced(lo, hi, count, log=True))

    @classmethod
    def linear(cls, lo: float, hi: float, count: int) -> "Grid":
        return cls(_spaced(lo, hi, count, log=False))


DEFAULT_GRID = Grid()


class CertSpec(NamedTuple("CertSpec", [("property", CertProperty), ("max_order", int),
                                       ("grid", Grid), ("tol_rel", float)])):
    """What to certify and how hard to look.

    max_order N defaults to 6 (hard cap 8): the difference table loses about
    one decimal digit per order.  A table value counts as numerically zero
    when it is at most tol_rel times its propagated magnitude.
    """

    __slots__ = ()

    def __new__(cls, property: CertProperty, max_order: int = 6, grid: Grid = DEFAULT_GRID,
                tol_rel: float = 1e-7) -> "CertSpec":
        if not 1 <= max_order <= MAX_TABLE_ORDER:
            raise DomainError(f"max_order must be in [1, {MAX_TABLE_ORDER}], got {max_order}")
        _check_tol_rel(tol_rel)
        return super().__new__(cls, property, max_order, grid, tol_rel)


def _check_tol_rel(tol_rel: float) -> None:
    """DomainError naming tol_rel unless it is a positive, finite int or float."""
    if not (_finite_number(tol_rel) and tol_rel > 0.0):
        raise DomainError(f"tol_rel must be positive and finite, got {_shown(tol_rel)}")


class Counterexample(NamedTuple):
    x: float
    n: int
    value: float  # the signed quantity that should have been >= 0
    scale: float  # propagated magnitude of the checked entry (the band is tol_rel * scale)


class CertReport(NamedTuple):
    """Outcome of a sign-pattern certification.

    Violated exactly when counterexamples is nonempty; counterexamples are
    ordered by (grid index, order) regardless of evaluation schedule.
    min_margin is the smallest signed slack seen over all checks (0 for
    checks inside the numerical-zero band).  The spec echo (property, q,
    order, grid, tolerance) makes the claim reproducible.
    """

    property: CertProperty
    q: float
    max_order: int
    tol_rel: float
    grid: tuple[float, ...]
    verdict: Verdict
    counterexamples: tuple[Counterexample, ...]
    min_margin: float
    checks_run: int
    notes: tuple[str, ...] = ()

    def to_tree(self) -> dict:
        return {
            "kind": "cert_report",
            "property": self.property.value,
            "q": self.q,
            "max_order": self.max_order,
            "tol_rel": self.tol_rel,
            "grid": {"count": len(self.grid), "points": list(self.grid)},
            "verdict": self.verdict.value,
            "checks_run": self.checks_run,
            "min_margin": self.min_margin,
            "counterexamples": keyed(Counterexample._fields, self.counterexamples),
            "notes": list(self.notes),
        }

    def csv_rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        """Counterexample rows; the margin of a violation equals its signed
        value, and a Consistent report has no rows."""
        header = (*Counterexample._fields, "margin")
        return header, [(*c, c.value) for c in self.counterexamples]


def _signs_and_orders(prop: CertProperty, n_max: int) -> list[tuple[int, float]]:
    if prop is CertProperty.QCM:
        return [(n, (-1.0) ** n) for n in range(0, n_max + 1)]
    if prop is CertProperty.QLOGCM:
        return [(n, (-1.0) ** n) for n in range(1, n_max + 1)]
    # QBERNSTEIN: nonnegativity at order 0, then (-1)^(n-1)
    return [(0, 1.0)] + [(n, (-1.0) ** (n - 1)) for n in range(1, n_max + 1)]


def _certification_target(f: RealFunction, q: QParam, prop: CertProperty) -> RealFunction:
    """f itself, or for QLOGCM Log_q f with the bits of `log_q`: it refuses
    f <= 0 and leaves the other bad samples to `QDiffTable.build`."""
    if prop is not CertProperty.QLOGCM:
        return f
    base = _log_eq_base(q.q)

    def log_target(y: float) -> float:
        v = f(y)
        try:
            return math.log(v) / base
        except ValueError:
            raise InputError(f"Log_q needs a positive function: f({y!r}) = {v!r}") from None
        except TypeError:
            return v  # not a number: build rejects it

    return log_target


def certify(f: RealFunction, q: QParam, spec: CertSpec) -> CertReport:
    """Certify the sign pattern named by spec.property for f on spec.grid.

    f must be finite at every q^j x, x in the grid, j = 0..N (and positive
    for QLOGCM); `QDiffTable.build`, the one check on these samples, raises
    EvaluationError (an InputError) otherwise.  One table over the whole
    grid: the check at (x_i, n) reads rows[n][i] and mag_rows[n][i], which
    depend only on q^j x_i, j <= n, so raising N leaves it unchanged.
    """
    target = _certification_target(f, q, spec.property)
    return _check(QDiffTable.build(target, spec.grid.points, q, spec.max_order), spec)


def _check(table: QDiffTable, spec: CertSpec) -> CertReport:
    """The report of spec.property's sign pattern read off a table of the
    certification target over spec.grid to order spec.max_order."""
    pts = spec.grid.points
    checks = _signs_and_orders(spec.property, spec.max_order)
    tol_rel = spec.tol_rel
    counterexamples: list[Counterexample] = []
    min_margin = math.inf
    rows, mag_rows = table.rows, table.mag_rows
    for i, x in enumerate(pts):
        for n, sign in checks:
            scale = mag_rows[n][i]
            signed = sign * rows[n][i]
            if abs(signed) <= tol_rel * scale:
                margin = 0.0
            else:
                margin = signed
                if signed < 0.0:
                    counterexamples.append(Counterexample(x, n, signed, scale))
            if margin < min_margin:
                min_margin = margin
    return CertReport(
        property=spec.property,
        q=table.q.q,
        max_order=spec.max_order,
        tol_rel=spec.tol_rel,
        grid=pts,
        verdict=Verdict.VIOLATED if counterexamples else Verdict.CONSISTENT,
        counterexamples=tuple(counterexamples),
        min_margin=min_margin,
        checks_run=len(pts) * len(checks),
    )


class BernsteinIffReport(NamedTuple):
    """Both sides of `f is q-Bernstein iff every E_q(1)^(-t f) is q-CM`.

    agree is True when the verdicts match in the testable direction: either
    both sides Consistent, or violations on both.  One-sided violations are
    flagged for inspection rather than judged.
    """

    f_report: CertReport
    cm_reports: tuple[tuple[float, CertReport], ...]
    agree: bool
    flagged: tuple[str, ...]

    @property
    def any_violation(self) -> bool:
        return self.f_report.verdict is Verdict.VIOLATED or any(
            r.verdict is Verdict.VIOLATED for _, r in self.cm_reports
        )

    def to_tree(self) -> dict:
        return {
            "kind": "bernstein_iff_report",
            "agree": self.agree,
            "flagged": list(self.flagged),
            "bernstein_side": self.f_report.to_tree(),
            "cm_side": [
                {"t": t, "report": r.to_tree()} for t, r in self.cm_reports
            ],
        }

    def csv_rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("side", "t", "verdict", "min_margin", "checks_run", "counterexamples")
        sides = [("qbernstein", None, self.f_report)]
        sides += [("qcm", t, r) for t, r in self.cm_reports]
        return header, [
            (side, t, r.verdict.value, r.min_margin, r.checks_run, len(r.counterexamples))
            for side, t, r in sides
        ]


def bernstein_iff_check(
    f: RealFunction,
    ts: Sequence[float],
    q: QParam,
    spec: CertSpec,
) -> BernsteinIffReport:
    """Certify f as QBERNSTEIN, then each decay target x -> E_q(1)^(-t f(x)),
    t in ts, as QCM.  Every t must be > 0: InputError before f sees a call.
    f is sampled once, on one lattice; both sides are tabled from those
    samples.
    """
    ts = _positive_ts(ts)
    lattice = _Lattice(spec.grid.points, q, spec.max_order)
    fv = lattice.sample(f, list(lattice.points))
    f_report = _check(lattice.table(fv), spec._replace(property=CertProperty.QBERNSTEIN))
    cm_reports = _decay_reports(lattice, fv, ts, spec._replace(property=CertProperty.QCM))
    f_ok = f_report.verdict is Verdict.CONSISTENT
    cm_ok = all(r.verdict is Verdict.CONSISTENT for _, r in cm_reports)
    flagged: list[str] = []
    if not f_ok:
        ce = f_report.counterexamples[0]
        flagged.append(
            f"qbernstein side violated at x={format17(ce.x)} n={ce.n} value={format17(ce.value)}"
        )
    for t, r in cm_reports:
        if r.verdict is Verdict.VIOLATED:
            ce = r.counterexamples[0]
            flagged.append(
                f"qcm side violated at t={format17(t)} x={format17(ce.x)} n={ce.n}"
            )
    return BernsteinIffReport(
        f_report=f_report,
        cm_reports=cm_reports,
        agree=f_ok == cm_ok,
        flagged=tuple(flagged),
    )


def _positive_ts(ts: Sequence[float]) -> tuple[float, ...]:
    """ts as a tuple; InputError naming the first t that is not > 0 or is
    an int too large for a float (t = inf is allowed)."""
    ts = tuple(ts)
    for t in ts:
        if not t > 0.0:
            raise InputError(f"transform parameters must be positive, got t = {_shown(t)}")
        if not (_finite_number(t) or t == math.inf):
            raise InputError(f"transform parameters must fit a float, got t = {_shown(t)}")
    return ts


def _decay_reports(
    lattice: _Lattice, fv: list[float], ts: tuple[float, ...], cm_spec: CertSpec
) -> tuple[tuple[float, CertReport], ...]:
    """(t, QCM report of the decay target x -> E_q(1)^(-t f(x))) for each t,
    in order, tabled from f's samples fv on the lattice; ts has been through
    `_positive_ts`."""
    return tuple((t, _check(_decay_table(lattice, fv, t), cm_spec)) for t in ts)


def _decay_table(lattice: _Lattice, fv: list[float], t: float) -> QDiffTable:
    """The table of x -> E_q(1)^(-t f(x)) from f's samples fv, formed as one
    `_eq_powers` list.  Where a value leaves the float range (OverflowError,
    or inf or nan from a product -t v past it), the target is sampled as
    `_table_of` does, which raises the error of the first such value in
    root-by-root order."""
    q = lattice.q
    try:
        vals = _eq_powers(-t, fv, q)
    except OverflowError:
        pass
    else:
        if math.isfinite(sum(vals)):  # each value is >= 0, inf or nan
            return lattice.table(vals)
    return _table_of(lattice, lambda v: eq_power(-t * v, q), fv)


def _table_of(lattice: _Lattice, g: RealFunction, fv: list[float]) -> QDiffTable:
    """The table of g o f on the lattice, from f's samples fv (left as they
    are): g is sampled at each of them, root by root, with the checks of
    `QDiffTable.build`."""
    return lattice.table(lattice.sample(g, list(fv)))


def difference_check(
    f: RealFunction,
    a: float,
    q: QParam,
    spec: CertSpec,
    *,
    f_report: CertReport | None = None,
) -> CertReport:
    """Certify x -> f(x) - f(x+a) as QCM.

    The conclusion follows when f is classically completely monotonic.  A
    q-CM f is not enough: the shift x + a leaves the lattice {q^j x}, and
    f = p/(x+1) with p(x) = 1 + sin(2 pi log x / log q)/2 is q-CM at q = 2
    yet f(0.1) < f(0.6).  Certifying f as QCM first is the caller's duty
    and a necessary check only.  Pass that report as f_report; a skipped or
    failed precondition is recorded in the notes.
    """
    if not (_finite_number(a) and a > 0.0):
        raise InputError(f"difference shift must be finite and > 0, got a = {_shown(a)}")
    diff_spec = spec._replace(property=CertProperty.QCM)

    def diff(x: float) -> float:
        return f(x) - f(x + a)

    report = certify(diff, q, diff_spec)
    notes: tuple[str, ...]
    if f_report is None:
        notes = ("precondition not checked: no QCM report for f was supplied",)
    elif f_report.verdict is Verdict.VIOLATED:
        notes = ("precondition failed: the supplied QCM report for f is Violated",)
    else:
        notes = ("precondition: supplied QCM report for f is Consistent",)
    return report._replace(notes=notes)


class ClosureCheck(NamedTuple):
    kind: str  # "composition" | "logcm_implies_cm" | "power_stays_cm" | "decay_is_logcm"
    f_name: str
    g_name: str | None
    t: float | None
    verdict: Verdict
    ok: bool  # whether the predicted outcome held


def _law(kind: str, f_name: str, verdict: Verdict, g_name: str | None = None,
         t: float | None = None) -> ClosureCheck:
    """A closure-law row: every law predicts Consistent."""
    return ClosureCheck(kind, f_name, g_name, t, verdict, verdict is Verdict.CONSISTENT)


class ClosureReport(NamedTuple):
    """Base certifications of a named corpus plus the closure-law checks
    that apply to the members that certified cleanly."""

    base: tuple[tuple[str, str, str], ...]  # (name, property, verdict-or-inapplicable)
    checks: tuple[ClosureCheck, ...]
    all_ok: bool

    def to_tree(self) -> dict:
        return {
            "kind": "closure_report",
            "all_ok": self.all_ok,
            "base": keyed(("name", "property", "verdict"), self.base),
            "checks": keyed(*self.csv_rows()),
        }

    def csv_rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        header = ("kind", "f", "g", "t", "verdict", "ok")
        rows = [
            (c.kind, c.f_name, c.g_name, c.t, c.verdict.value, c.ok)
            for c in self.checks
        ]
        return header, rows


def closure_checks(
    fs: Mapping[str, RealFunction],
    q: QParam,
    spec: CertSpec,
    *,
    ts: Sequence[float] = (0.5, 1.0, 2.0),
) -> ClosureReport:
    """Run the closure laws over a named corpus.

    Every t in ts must be > 0: InputError before any function sees a call.
    Base pass: certify every function as QBERNSTEIN, QCM and (where positive)
    QLOGCM; a function whose samples fail the finiteness check is
    inapplicable under all three.  Closure pass, driven by the base verdicts:

      * composition      g o f is QBERNSTEIN for every certified pair (f, g)
                         whose outer g is classically Bernstein;
      * logcm_implies_cm a QLOGCM-Consistent f must be QCM-Consistent;
      * power_stays_cm   E_q(1)^(-t f) is QCM for certified Bernstein f, t in ts;
      * decay_is_logcm   E_q(1)^(-f) is QLOGCM for certified Bernstein f.

    The composition law needs a classical outer function: g's argument f(x)
    leaves x's lattice, so an outer g that is only q-Bernstein can break it
    (a row with ok False).  Nothing here checks that; the CLI corpus is all
    classical.

    The first and third certify new targets; the other two are read off the
    base pass.  Log_q E_q(1)^(-f) is exactly -f, and the q-difference table
    of -f is exactly the negative of f's, so the QLOGCM checks of
    E_q(1)^(-f) at n = 1..N are f's QBERNSTEIN checks at n = 1..N, bit for
    bit and with the same band: a QBERNSTEIN-Consistent f makes the row
    Consistent without a certification of its own.

    Each function is sampled once, on one lattice for the whole call.  Its
    QBERNSTEIN and QCM checks read one table; QLOGCM is tabled from Log_q
    of its samples, g o f from g at f's samples and E_q(1)^(-t f) from
    `eq_power(-t v)` at f's samples v.  So an outer g is called with
    float(f(x)), and the reports are those of one `certify` call per
    target, bit for bit.
    """
    ts = _positive_ts(ts)
    names = sorted(fs)
    specs = {p: spec._replace(property=p) for p in CertProperty}
    lattice = _Lattice(spec.grid.points, q, spec.max_order)
    verdicts: dict[tuple[str, CertProperty], Verdict | None] = {}
    bernstein: dict[str, list[float]] = {}  # certified Bernstein name -> its samples
    log_of_sample = _certification_target(float, q, CertProperty.QLOGCM)
    for name in names:
        try:
            fv = lattice.sample(fs[name], list(lattice.points))
        except InputError:
            for prop in (CertProperty.QBERNSTEIN, CertProperty.QCM, CertProperty.QLOGCM):
                verdicts[(name, prop)] = None
            continue
        table = lattice.table(fv)
        for prop in (CertProperty.QBERNSTEIN, CertProperty.QCM):
            verdicts[(name, prop)] = _check(table, specs[prop]).verdict
        try:
            log_table = _table_of(lattice, log_of_sample, fv)
        except InputError:
            verdicts[(name, CertProperty.QLOGCM)] = None
        else:
            verdicts[(name, CertProperty.QLOGCM)] = _check(log_table, specs[CertProperty.QLOGCM]).verdict
        if verdicts[(name, CertProperty.QBERNSTEIN)] is Verdict.CONSISTENT:
            bernstein[name] = fv

    checks = [
        _law("composition", f_name,
             _check(_table_of(lattice, fs[g_name], fv), specs[CertProperty.QBERNSTEIN]).verdict,
             g_name)
        for f_name, fv in bernstein.items()
        for g_name in bernstein
    ]
    checks += [
        # an inapplicable QCM base (None) fails the implication
        _law("logcm_implies_cm", name, verdicts[(name, CertProperty.QCM)] or Verdict.VIOLATED)
        for name in names
        if verdicts[(name, CertProperty.QLOGCM)] is Verdict.CONSISTENT
    ]
    for name, fv in bernstein.items():
        checks += [
            _law("power_stays_cm", name, rep.verdict, t=t)
            for t, rep in _decay_reports(lattice, fv, ts, specs[CertProperty.QCM])
        ]
        checks.append(_law("decay_is_logcm", name, Verdict.CONSISTENT))

    return ClosureReport(
        base=tuple(
            (n, p.value, v.value if v else "inapplicable") for (n, p), v in verdicts.items()
        ),
        checks=tuple(checks),
        all_ok=all(c.ok for c in checks),
    )


#: Witness sweep for the gamma-based composite: 200 log-spaced points on (0, 50].
_WITNESS_POINTS = _spaced(1e-6, 50.0, 200, log=True)


def thm31_harness(
    p: GammaParams,
    spec: CertSpec,
    *,
    negative_control: bool = False,
) -> CertReport:
    """Certify the gamma-based composite f_abq(., p) as QLOGCM.

    Requires the hypothesis 2*alpha <= 1 <= beta unless negative_control is
    set.  When the hypothesis holds, the elementary witness g_ab is also
    swept over 200 log-spaced points on (0, 50]; a nonpositive witness value
    is appended as a counterexample row with order -1.  Where g_ab leaves the
    float range (beta past about 14), the sweep reads g's sign from
    g(t) e^(-(beta-1)t) instead.
    """
    if not (p.hypothesis_ok or negative_control):
        raise InputError(
            "parameters violate 2*alpha <= 1 <= beta; pass negative_control=True to run anyway"
        )

    def f(x: float) -> float:
        return f_abq(x, p)

    report = certify(f, p.q, spec._replace(property=CertProperty.QLOGCM))
    notes = list(report.notes)
    extra: list[Counterexample] = []
    if p.hypothesis_ok:
        for t in _WITNESS_POINTS:
            try:
                g = g_ab(t, p.alpha, p.beta)
            except OverflowError:  # g e^(-(beta-1)t) has g's sign and stays in range
                g = t * math.exp((1.0 - p.beta) * t) + ((p.beta - p.alpha) * t - 1.0) * math.expm1(t)
            if not g > 0.0:
                extra.append(Counterexample(t, -1, g, 1.0))
        if extra:
            notes.append(
                "positivity witness failed on (0, 50]; rows with order -1 are witness points"
            )
        else:
            notes.append("positivity witness > 0 at all 200 sweep points on (0, 50]")
    else:
        notes.append("negative control: hypothesis 2*alpha <= 1 <= beta violated by request")
    if extra:
        ces = report.counterexamples + tuple(extra)
        return report._replace(counterexamples=ces, verdict=Verdict.VIOLATED, notes=tuple(notes))
    return report._replace(notes=tuple(notes))


def thm32_harness(
    rp: RatioParams,
    q: QParam,
    spec: CertSpec,
    *,
    negative_control: bool = False,
) -> CertReport:
    """Certify the gamma-ratio product g_ratio(., rp, q) as QCM.

    The one gate on the shift hypothesis (sorted sequences with prefix-sum
    dominance, `RatioParams.hypothesis_ok`): InputError unless it holds or
    negative_control is set, in which case the report notes the violation.
    """
    if not (rp.hypothesis_ok or negative_control):
        raise InputError(
            "shift sequences violate the sorted/prefix-dominance hypothesis; "
            "pass negative_control=True to run anyway"
        )

    def f(x: float) -> float:
        return g_ratio(x, rp, q)

    report = certify(f, q, spec._replace(property=CertProperty.QCM))
    if not rp.hypothesis_ok:
        note = "negative control: shift-sequence hypothesis violated by request"
        return report._replace(notes=report.notes + (note,))
    return report


def report_to_tree(report: CertReport) -> dict:
    """Key-value tree form of a certification report (JSON-renderable)."""
    return report.to_tree()


def report_to_json(report: CertReport) -> str:
    """Deterministic JSON text; floats at 17 significant digits."""
    return render_json(report.to_tree())


def report_to_csv(report: CertReport) -> str:
    """Counterexample rows as CSV: x, n, value, scale, margin."""
    return render_csv(*report.csv_rows())
