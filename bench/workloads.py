"""Seeded input generators for the three benchmark workloads.

Each workload turns a seed into a pool of blocks.  A block is a short list
of operations with the same kinds in every block.  Continuous inputs
(grid_min, q, order, grid size, parameters) come from randomised Kronecker
sequences, one per operation kind and input: a seeded random start, then a
fixed irrational step.  Every input keeps its stated marginal distribution,
but any run of whole blocks covers each range evenly, so two seeds give
near-equal mixes of cheap and expensive operations.  cert_series goes
further for grid_min and q, whose product sets its cost: see `_latin`.
The library only ever sees the generated floats, grids and argv lists,
through `qmono.*` and `qmono.cli` looked up at call time.

An operation is `Op(kind, inputs, run, check, output)`: `run(wrap)` is the
timed call, where `wrap` is applied to every function the benchmark hands to
the library (the identity, or the tracer's call counter); `check(result)` is
the untimed oracle, which returns the work done and raises
`oracle.Mismatch` or `oracle.Failed`; `output` is the file a CLI operation
writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import qmono
import qmono.cli as qcli

from . import oracle
from .oracle import QBERNSTEIN, QCM, QLOGCM, expect


class Op(NamedTuple):
    kind: str
    inputs: tuple  # what the library receives, for comparison and reports
    run: Callable[[Callable], object]
    check: Callable[[object], int]
    output: Path | None = None


#: Kronecker steps: fractional parts of square roots of primes
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


class Draws:
    """Low-discrepancy draws for one operation kind: input `dim` advances
    its own sequence u <- frac(u + step), started at a seeded random point.
    Distinct inputs of a kind get distinct steps, so they do not move
    together."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._state: dict[str, list[float]] = {}

    def u(self, dim: str) -> float:
        state = self._state.get(dim)
        if state is None:
            state = self._state[dim] = [self._rng.random(), _STEPS[len(self._state)]]
        state[0] = (state[0] + state[1]) % 1.0
        return state[0]

    def uniform(self, dim: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(dim)

    def log_uniform(self, dim: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(dim, math.log(lo), math.log(hi)))

    def integer(self, dim: str, lo: int, hi: int) -> int:
        """Uniform on lo..hi inclusive."""
        return lo + min(int(self.u(dim) * (hi - lo + 1)), hi - lo)

    def choice(self, dim: str, options: tuple):
        return options[self.integer(dim, 0, len(options) - 1)]


class Streams:
    """One `Draws` per operation kind, all seeded from one generator."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._draws: dict[str, Draws] = {}

    def __getitem__(self, kind: str) -> Draws:
        if kind not in self._draws:
            self._draws[kind] = Draws(self.rng)
        return self._draws[kind]


def _prop(name: str):
    return qmono.CertProperty(name)


def _q(d: Draws, sub_one: bool, sub: tuple[float, float], sup: tuple[float, float]) -> float:
    return d.uniform("q_sub" if sub_one else "q_sup", *(sub if sub_one else sup))


def _predicted(name: str, prop: str, order: int) -> tuple[str, int | None]:
    """Theory's verdict at max order `order`: a violation first seen above
    the order is not checked."""
    verdict, first_n = oracle.PREDICTED[name][prop]
    if first_n is not None and first_n > order:
        return "Consistent", None
    return verdict, first_n


def _check_report(rep, prop: str, count: int, order: int, verdict: str, first_n=None) -> int:
    expect(rep.verdict.value == verdict, f"verdict {rep.verdict.value}, theory says {verdict}")
    expected = count * oracle.orders_checked(prop, order)
    expect(rep.checks_run == expected, f"checks_run {rep.checks_run}, expected {expected}")
    if first_n is not None:
        n = rep.counterexamples[0].n
        expect(n >= first_n, f"violation at n={n} below theory's first order {first_n}")
        if n > first_n:
            # right verdict, but the order-first_n check landed in the
            # numerical-zero band instead of being sign-checked
            raise oracle.Failed(f"first violation reported at n={n}, theory says n={first_n}")
    return rep.checks_run


def _unless_underflow(check, underflow: bool):
    """A disagreement on a target whose samples fall below the normal double
    range is a failure of range, like the InputError at 0, not a wrong answer."""
    if not underflow:
        return check

    def guarded(result):
        try:
            return check(result)
        except oracle.Mismatch as exc:
            raise oracle.Failed(f"samples underflow: {exc}") from exc

    return guarded


def _certify_op(kind: str, target: tuple, q: float, prop: str, order: int, grid, verdict: str,
                first_n=None) -> Op:
    """certify the builtin target = (name, params) under prop."""
    Q = qmono.QParam(q)
    f = qcli.build_function(target[0], Q, target[1])
    spec = qmono.CertSpec(_prop(prop), order, grid)
    underflow = oracle.decay_underflows(target[0], target[1], q, order, grid.points)
    return Op(
        kind,
        (target, q, prop, order, grid.points),
        lambda wrap: qmono.certify(wrap(f), Q, spec),
        _unless_underflow(
            lambda rep: _check_report(rep, prop, len(grid.points), order, verdict, first_n), underflow),
    )


def _target_params(d: Draws, name: str) -> dict:
    if name == "reciprocal_shift":
        return {"shift": d.uniform("shift", 0.1, 3.0)}
    if name in ("exp_decay", "eq_decay", "one_minus_eq_decay"):
        return {"rate": d.log_uniform("rate", 0.2, 5.0)}
    if name == "constant":
        return {"value": d.uniform("value", 0.5, 3.0)}
    if name == "polylog_qx":
        return {"s": d.uniform("s", 1.0, 3.0)}
    return {}


# --------------------------------------------------------------------------
# cert_series: certification whose samples are series-evaluated at q^N x_min

SERIES_KINDS = ("thm31", "thm32", "psi_prime", "psi_k", "polylog_qx")
#: orders 4..8; each block holds one op per order and kind
SERIES_ORDERS = 5
#: share of its stratum over which a seed moves a point
SERIES_JITTER = 0.05


def _latin(i: int, block: int, shift: int, jitter: float) -> float:
    """u in (0, 1): stratum (i + shift*block) mod 5 of 5, near its middle.

    Op i of a kind in a block has order 4+i; grid_min, q and the other
    continuous inputs take the strata of this rotation (each its own shift),
    so every block has every order and every stratum of each input once per
    kind, and five blocks pair every order with every grid_min stratum.  The cost of a series op grows like
    1/(q^N grid_min) up to the series' term cap, so the seed moves a point
    over only SERIES_JITTER of its stratum: the mix of cheap, expensive and
    failing operations stays nearly the same from seed to seed."""
    stratum = (i + shift * block) % SERIES_ORDERS
    return (stratum + 0.5 + SERIES_JITTER * (jitter - 0.5)) / SERIES_ORDERS


def _series_op(d: Draws, kind: str, i: int, block: int) -> Op:
    def latin(dim: str, shift: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * _latin(i, block, shift, d.u(dim))

    grid_min = 10.0 ** latin("grid_min", 1, -3.0, -1.0)
    grid = qmono.Grid.log_spaced(grid_min, grid_min * 10.0 ** latin("span", 3, 0.3, 1.0),
                                 2 + (i + block) % 3)
    order = 4 + i
    # only the psi family is defined for q > 1: alternate its regime
    sub_one = kind not in ("psi_prime", "psi_k") or (i + block) % 2 == 0
    q = latin("q", 2, *((0.3, 0.9) if sub_one else (1.2, 3.0)))
    Q = qmono.QParam(q)
    count = len(grid.points)
    if kind == "thm31":
        gp = qmono.GammaParams(latin("alpha", 4, 0.0, 0.5), latin("beta", 3, 1.0, 2.5), Q)
        spec = qmono.CertSpec(_prop(QLOGCM), order, grid)
        return Op(kind, (gp.alpha, gp.beta, q, order, grid.points),
                  lambda wrap: qmono.thm31_harness(gp, spec),
                  lambda rep: _check_report(rep, QLOGCM, count, order, "Consistent"))
    if kind == "thm32":
        # a and the gaps b - a both sorted: b sorted and prefix-dominant
        m = d.integer("m", 1, 3)
        a = sorted(d.uniform("a", 0.1, 2.0) for _ in range(m))
        gaps = sorted(d.uniform("gap", 0.0, 1.5) for _ in range(m))
        rp = qmono.RatioParams(tuple(a), tuple(x + y for x, y in zip(a, gaps)))
        spec = qmono.CertSpec(_prop(QCM), order, grid)
        return Op(kind, (rp.a, rp.b, q, order, grid.points),
                  lambda wrap: qmono.thm32_harness(rp, Q, spec),
                  lambda rep: _check_report(rep, QCM, count, order, "Consistent"))
    if kind == "psi_prime":
        return _certify_op(kind, ("q_psi_prime", {}), q, QCM, order, grid, "Consistent")
    if kind == "psi_k":
        # (-1)^(k+1) psi^(k) is CM: odd k is Consistent, even k is negative
        k = 2 + (i + block) % 2
        if k % 2:
            return _certify_op(kind, ("q_psi_k", {"k": k}), q, QCM, order, grid, "Consistent")
        return _certify_op(kind, ("q_psi_k", {"k": k}), q, QCM, order, grid, "Violated", 0)
    return _certify_op(kind, ("polylog_qx", {"s": latin("s", 4, 1.0, 3.0)}), q, QCM, order, grid,
                       "Consistent")


def cert_series_block(s: Streams, block: int, out_dir: Path, refs) -> list[Op]:
    ops = [_series_op(s[kind], kind, i, block) for kind in SERIES_KINDS for i in range(SERIES_ORDERS)]
    s.rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# cert_elementary: certification of closed forms costing ~1 us per sample

ELEMENTARY_TARGETS = ("reciprocal_shift", "exp_decay", "eq_decay", "one_minus_eq_decay",
                      "constant", "identity", "square")
PROPERTIES = (QCM, QLOGCM, QBERNSTEIN)
#: the corpus `qmono theorem closure` certifies
CLOSURE_CORPUS = ("identity", "constant", "one_minus_eq_decay", "reciprocal_shift", "eq_decay")


def _elementary_setup(d: Draws, sub_one: bool):
    """q, order, grid: 32-64 log-spaced points from grid_min >= 0.05."""
    lo = d.log_uniform("grid_min", 0.05, 0.5)
    grid = qmono.Grid.log_spaced(lo, lo * d.log_uniform("span", 10.0, 50.0), d.integer("count", 32, 64))
    return _q(d, sub_one, (0.2, 0.9), (1.1, 3.0)), d.integer("order", 1, 8), grid


def _closure_work(rep, count: int, order: int) -> int:
    per = {p: count * oracle.orders_checked(p, order) for p in PROPERTIES}
    certify_prop = {"composition": QBERNSTEIN, "power_stays_cm": QCM, "decay_is_logcm": QLOGCM}
    work = sum(per[p] for _, p, v in rep.base if v != "inapplicable")
    return work + sum(per[certify_prop[c.kind]] for c in rep.checks if c.kind in certify_prop)


def cert_elementary_block(s: Streams, block: int, out_dir: Path, refs) -> list[Op]:
    ops: list[Op] = []
    for name in ELEMENTARY_TARGETS:
        for prop in PROPERTIES:
            d = s[f"{name}:{prop}"]
            q, order, grid = _elementary_setup(d, block % 2 == 0)
            verdict, first_n = _predicted(name, prop, order)
            ops.append(_certify_op(f"certify:{prop}", (name, _target_params(d, name)), q, prop, order,
                                   grid, verdict, first_n))
    # the composite operations take the regime the certify ops above did not
    sub_one = block % 2 == 1

    # f Bernstein <=> every E_q(1)^(-t f) is CM: both sides Consistent
    d = s["bernstein_iff_check"]
    q, order, grid = _elementary_setup(d, sub_one)
    Q, count = qmono.QParam(q), len(grid.points)
    name = d.choice("target", ("one_minus_eq_decay", "identity", "constant"))
    params = _target_params(d, name)
    f = qcli.build_function(name, Q, params)
    ts = tuple(sorted(d.uniform("t", 0.2, 3.0) for _ in range(3)))
    spec = qmono.CertSpec(_prop(QCM), order, grid)

    def check_iff(rep, count=count, order=order):
        expect(rep.agree and not rep.flagged, f"sides disagree or flagged: {rep.flagged}")
        work = _check_report(rep.f_report, QBERNSTEIN, count, order, "Consistent")
        return work + sum(_check_report(r, QCM, count, order, "Consistent") for _, r in rep.cm_reports)

    ops.append(Op("bernstein_iff_check", ((name, params), ts, q, order, grid.points),
                  lambda wrap, f=f, Q=Q, spec=spec, ts=ts: qmono.bernstein_iff_check(wrap(f), ts, Q, spec),
                  check_iff))

    # f CM => f(x) - f(x+a) CM
    d = s["difference_check"]
    q, order, grid = _elementary_setup(d, sub_one)
    Q, count = qmono.QParam(q), len(grid.points)
    name = d.choice("target", ("reciprocal_shift", "exp_decay", "eq_decay"))
    params = _target_params(d, name)
    f = qcli.build_function(name, Q, params)
    a = d.uniform("a", 0.1, 2.0)
    spec = qmono.CertSpec(_prop(QCM), order, grid)

    def run_difference(wrap, f=f, Q=Q, spec=spec, a=a):
        g = wrap(f)
        f_rep = qmono.certify(g, Q, spec)
        return f_rep, qmono.difference_check(g, a, Q, spec, f_report=f_rep)

    def check_difference(out, count=count, order=order):
        f_rep, rep = out
        expect(rep.notes == ("precondition: supplied QCM report for f is Consistent",),
               f"difference notes {rep.notes}")
        return (_check_report(f_rep, QCM, count, order, "Consistent")
                + _check_report(rep, QCM, count, order, "Consistent"))

    ops.append(Op("difference_check", ((name, params), a, q, order, grid.points),
                  run_difference, check_difference))

    # closure laws over the CLI corpus: every law holds, every base verdict as predicted
    d = s["closure_checks"]
    q, order, grid = _elementary_setup(d, sub_one)
    Q, count = qmono.QParam(q), len(grid.points)
    params = {n: _target_params(d, n) for n in CLOSURE_CORPUS}
    corpus = {n: qcli.build_function(n, Q, params[n]) for n in CLOSURE_CORPUS}
    ts = tuple(sorted(d.uniform("t", 0.2, 3.0) for _ in range(3)))
    spec = qmono.CertSpec(_prop(QCM), order, grid)

    underflow = oracle.decay_underflows("eq_decay", params["eq_decay"], q, order, grid.points)

    def check_closure(rep, count=count, order=order, underflow=underflow):
        for n, p, v in rep.base:
            if v == "inapplicable":  # the certifier could not evaluate the target
                raise oracle.Failed(f"closure base {n}/{p} inapplicable")
            if n == "eq_decay" and underflow and v != _predicted(n, p, order)[0]:
                raise oracle.Failed(f"closure base {n}/{p}: {v}; samples underflow")
            expect(v == _predicted(n, p, order)[0], f"closure base {n}/{p}: {v}")
        expect(rep.all_ok, "a closure law failed")
        return _closure_work(rep, count, order)

    ops.append(Op("closure_checks", (params, ts, q, order, grid.points),
                  lambda wrap, corpus=corpus, Q=Q, spec=spec, ts=ts: qmono.closure_checks(
                      {n: wrap(g) for n, g in corpus.items()}, Q, spec, ts=ts),
                  check_closure))
    s.rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# eval_cli: in-process `qmono.cli.main` calls writing CSV and JSON files

EVAL_CHEAP = ("reciprocal_shift", "exp_decay", "eq_decay", "one_minus_eq_decay")
EVAL_SPECIAL = ("q_gamma", "q_psi", "polylog_qx")


def _fmt(v: float) -> str:
    return repr(float(v))


def _grid_argv(lo: float, hi: float, count: int, spacing: str) -> list[str]:
    return ["--grid-min", _fmt(lo), "--grid-max", _fmt(hi), "--grid-count", str(count),
            "--grid-spacing", spacing]


def _param_argv(params: dict) -> list[str]:
    out: list[str] = []
    for k, v in params.items():
        out += [f"--{k}", _fmt(v)]
    return out


def _read_output(path: Path, fmt: str):
    """(rows, tree): CSV data rows without header and provenance footer, or
    the parsed JSON tree."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return None, json.loads(text)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:], None


def _cli_op(kind: str, argv: list[str], out_dir: Path, fmt: str, exit_code: int, verify,
            underflow: bool = False) -> Op:
    """Run `qmono <argv> --format fmt --out <file>`; verify(rows, tree) -> work."""
    path = out_dir / f"out.{fmt}"
    full = argv + ["--format", fmt, "--out", path.name]

    def check(code: int) -> int:
        if code == 2:
            raise oracle.Failed("exit code 2")
        expect(code == exit_code, f"exit code {code}, expected {exit_code}")
        rows, tree = _read_output(path, fmt)
        return verify(rows, tree)

    return Op(kind, tuple(full), lambda wrap: qcli.main(full), _unless_underflow(check, underflow), path)


def _value_rows(rows, tree, key_x: str, n_expected: int, ref_of) -> int:
    """Check a two-column table (x, value) against ref_of(x) -> (ref, scale)."""
    pairs = ([(float(r[0]), float(r[1])) for r in rows] if tree is None
             else [(r[key_x], r["value"]) for r in tree["rows"]])
    expect(len(pairs) == n_expected, f"{len(pairs)} rows, expected {n_expected}")
    for x, v in pairs:
        ref, scale = ref_of(x)
        expect(oracle.close(v, ref, scale), f"value {v!r} at {x!r}, reference {float(ref)!r}")
    return len(pairs)


def _eval_grid(d: Draws) -> tuple[float, float, int, str]:
    """An ordinary-argument grid: x >= 0.1."""
    lo = d.uniform("grid_min", 0.1, 1.0)
    return lo, lo * d.uniform("span", 5.0, 20.0), d.integer("count", 16, 64), d.choice("spacing", ("log", "linear"))


def _names_params(name: str) -> set[str]:
    return {ps.name for ps in qcli.BUILTINS[name].params}


def eval_cli_block(s: Streams, block: int, out_dir: Path, refs) -> list[Op]:
    sub_one = block % 2 == 0
    # series at ordinary arguments stay cheap away from q = 1
    q = _q(s["block"], sub_one, (0.2, 0.8), (1.25, 4.0))
    qa = ["--q", _fmt(q)]
    ops: list[Op] = []

    def fn_ref(name, params):
        key = tuple(sorted(params.items()))
        return lambda x: (refs.function(name, q, key, x), None)

    for i, pool in enumerate((EVAL_CHEAP, EVAL_CHEAP, EVAL_SPECIAL)):
        d = s[f"eval{i}"]
        name = d.choice("target", pool if sub_one else tuple(n for n in pool if n != "polylog_qx"))
        params = _target_params(d, name)
        lo, hi, count, spacing = _eval_grid(d)
        fmt = ("csv", "json")[(i + block) % 2]
        ops.append(_cli_op(
            "eval", ["eval", name] + qa + _grid_argv(lo, hi, count, spacing) + _param_argv(params),
            out_dir, fmt, 0,
            lambda rows, tree, n=count, r=fn_ref(name, params): _value_rows(rows, tree, "x", n, r)))

    # table: several builtins side by side, one value column each; a single
    # --rate flag serves every decay column
    d = s["table"]
    names = s.rng.sample(EVAL_CHEAP, d.integer("columns", 2, 3))
    params: dict = {}
    for n in names:
        params |= _target_params(d, n)
    lo, hi, count, spacing = _eval_grid(d)

    def verify_table(rows, tree, names=tuple(names), params=params, n=count):
        table = [[float(v) for v in r] for r in rows] if tree is None else tree["rows"]
        if tree is not None:
            expect(tree["columns"] == ["x", *names], f"columns {tree['columns']}")
        expect(len(table) == n, f"{len(table)} rows, expected {n}")
        for row in table:
            expect(len(row) == len(names) + 1, f"row width {len(row)}")
            for name, v in zip(names, row[1:]):
                key = tuple(sorted((k, val) for k, val in params.items() if k in _names_params(name)))
                expect(oracle.close(v, refs.function(name, q, key, row[0])),
                       f"{name} value {v!r} at {row[0]!r}")
        return len(table) * len(names)

    ops.append(_cli_op("table", ["table", *names] + qa + _grid_argv(lo, hi, count, spacing)
                       + _param_argv(params), out_dir, ("json", "csv")[block % 2], 0, verify_table))

    # laplace under both kernels, 10-200 atoms from a measure file
    for j, kernel in enumerate(("power", "jackson")):
        d = s[f"laplace:{kernel}"]
        n_atoms = d.integer("atoms", 10, 200)
        atoms = sorted((s.rng.uniform(0.0, 1.0), s.rng.uniform(0.01, 1.0)) for _ in range(n_atoms))
        lam_max = d.uniform("lambda_max", 0.5, 3.0)
        if kernel == "jackson" and not sub_one:
            # E_q with q > 1 converges only for |lambda t| < q/(q-1)
            lam_max = min(lam_max, 0.8 * q / (q - 1.0) / max(t for t, _ in atoms))
        count = d.integer("count", 5, 9)
        measure = out_dir / f"measure{block}_{j}.txt"
        measure.write_text("".join(f"{t!r} {w!r}\n" for t, w in atoms), encoding="utf-8")

        def lap_ref(lam, atoms=tuple(atoms), kernel=kernel):
            return refs.laplace_terms(atoms, lam, q, kernel)

        ops.append(_cli_op(
            f"laplace:{kernel}",
            ["laplace", "--measure", str(measure), "--kernel", kernel] + qa
            + _grid_argv(0.0, lam_max, count, "linear"),
            out_dir, ("csv", "json")[(j + block) % 2], 0,
            lambda rows, tree, n=count, r=lap_ref: _value_rows(rows, tree, "lambda", n, r)))

    # semigroup: both sides transform measures, so a delta family passes
    # under either kernel and one broken on the sums fails under either
    for family in ("delta", "broken-delta"):
        d = s[f"semigroup:{family}"]
        kernel = d.choice("kernel", ("power", "jackson"))
        ts = sorted({round(d.uniform("t", 0.5, 2.0), 3) for _ in range(3)})
        speed = d.uniform("speed", 0.5, 1.5)
        lam_max = d.uniform("lambda_max", 0.5, 2.0)
        if kernel == "jackson" and not sub_one:
            lam_max = min(lam_max, 0.4 * q / (q - 1.0) / (2 * max(ts) * speed + 0.1))
        count = d.integer("count", 3, 9)
        ok = family == "delta"

        def verify_semigroup(rows, tree, n=len(ts) * (len(ts) + 1) // 2 * count, ok=ok):
            if tree is not None:
                expect(tree["passed"] is ok, f"passed={tree['passed']}, expected {ok}")
                rows = tree["entries"]
            expect(len(rows) == n, f"{len(rows)} entries, expected {n}")
            return len(rows)

        ops.append(_cli_op(
            f"semigroup:{family}",
            ["semigroup", "--family", family, "--kernel", kernel, "--speed", _fmt(speed),
             "--ts", ",".join(_fmt(t) for t in ts)] + qa + _grid_argv(0.0, lam_max, count, "linear"),
            out_dir, ("json", "csv")[block % 2], 0 if ok else 1, verify_semigroup))

    # certify a closed form; the exit code carries the predicted verdict
    d = s["certify"]
    name = d.choice("target", ELEMENTARY_TARGETS)
    prop = d.choice("property", PROPERTIES)
    params = _target_params(d, name)
    lo = d.uniform("grid_min", 0.1, 1.0)
    hi = lo * d.uniform("span", 5.0, 20.0)
    count, order = d.integer("count", 8, 32), d.integer("order", 1, 6)
    verdict, _ = _predicted(name, prop, order)

    def verify_certify(rows, tree, count=count, order=order, prop=prop, verdict=verdict):
        if tree is None:
            expect((len(rows) > 0) == (verdict == "Violated"), f"{len(rows)} counterexample rows")
            return len(rows)
        expect(tree["verdict"] == verdict, f"verdict {tree['verdict']}, theory says {verdict}")
        expect(tree["checks_run"] == count * oracle.orders_checked(prop, order), "checks_run")
        return len(tree["counterexamples"])

    ops.append(_cli_op(
        "certify", ["certify", name, "--property", prop, "--order", str(order)] + qa
        + _grid_argv(lo, hi, count, "log") + _param_argv(params),
        out_dir, ("csv", "json")[block % 2], 0 if verdict == "Consistent" else 1, verify_certify,
        oracle.decay_underflows(name, params, q, order, (hi,))))

    # theorem bernstein_iff on a Bernstein function: both sides Consistent
    d = s["bernstein_iff"]
    name = d.choice("target", ("one_minus_eq_decay", "identity", "constant"))
    params = _target_params(d, name)
    lo = d.uniform("grid_min", 0.1, 1.0)
    count, order = d.integer("count", 8, 24), d.integer("order", 1, 5)
    ts = sorted(d.uniform("t", 0.2, 3.0) for _ in range(3))

    def verify_iff(rows, tree, n=len(ts) + 1):
        if tree is None:
            expect(len(rows) == n and all(r[2] == "Consistent" for r in rows), "bernstein_iff rows")
            return len(rows)
        expect(tree["agree"] is True and len(tree["cm_side"]) == n - 1, "bernstein_iff tree")
        return n

    ops.append(_cli_op(
        "theorem:bernstein_iff",
        ["theorem", "bernstein_iff", "--fn", name, "--ts", ",".join(_fmt(t) for t in ts),
         "--order", str(order)] + qa + _grid_argv(lo, lo * d.uniform("span", 5.0, 20.0), count, "log")
        + _param_argv(params),
        out_dir, ("json", "csv")[block % 2], 0, verify_iff))
    s.rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cert_series": cert_series_block,
    "cert_elementary": cert_elementary_block,
    "eval_cli": eval_cli_block,
}

#: Blocks generated per seed: the fixed operation list a run goes through
#: in passes, so that the operations attempted and failed repeat exactly
#: for a seed.
POOL_BLOCKS = {"cert_series": 4, "cert_elementary": 60, "eval_cli": 48}


def pool(workload: str, seed: int, out_dir: Path, refs) -> list[list[Op]]:
    """The seeded block pool of a workload: same seed, same operations."""
    streams = Streams(random.Random(f"{workload}:{seed}"))
    make = WORKLOADS[workload]
    return [make(streams, b, out_dir, refs) for b in range(POOL_BLOCKS[workload])]
