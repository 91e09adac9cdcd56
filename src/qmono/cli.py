"""Command-line front end.

Subcommands: eval (tabulate a builtin function on a grid), certify (run a
sign-pattern certification on a builtin), theorem (run a named harness),
laplace (transform a measure), semigroup (transform-side semigroup check),
table (several builtins side by side, plot-ready).

Each subcommand parses only flags its driver can read and refuses any
other.  `theorem NAME` is one sub-parser per harness in `_THEOREMS`, so
the harness name comes first and each harness has its own flags.  A
builtin parameter flag (--rate, --alpha, ...) is an InputError unless a
builtin the driver builds takes it (`_fn_params`).

Each subcommand driver `_run_X(ns)` returns (result, ok), the result having
`to_tree()` (JSON) and `csv_rows()` (CSV), which state each row once: a JSON
row is its CSV row keyed by the CSV header (`_serialize.keyed`), or by a
table's own row keys.  `run` alone dispatches, writes through `_emit` (which
renders only the chosen format) and sets the exit code: 0 if ok, 1 if a
check found a violation (the result is still written).  `main` exits 2 on a
usage or domain error, a non-finite value included.

Output is deterministic: identical configurations produce byte-identical
files.  CSV uses comma separators, `.` decimals, LF line endings and UTF-8,
with a provenance footer (q, grid and library version; certify and theorem
add their order and tol_rel) and no timestamps.  Relative --out paths
resolve against $QMONO_OUT_DIR when set.

`main` builds its argument parser on the first call and reuses it for every
later call in the same process; `build_parser` always returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from ._serialize import format17, format_cell, keyed, render_csv, render_json
from .cert import (
    CertProperty,
    CertSpec,
    Grid,
    Verdict,
    _increasing,
    _spaced,
    bernstein_iff_check,
    certify,
    closure_checks,
    difference_check,
    thm31_harness,
    thm32_harness,
)
from .qcore import ConvergenceError, InputError, QParam, eq_power
from .qdiff import RealFunction
from .qmeasure import (
    DiscreteMeasure,
    KernelKind,
    measure_from_text,
    q_convolve,
    q_laplace,
    semigroup_check,
)
from .qspecial import (
    GammaParams,
    RatioParams,
    f_abq,
    g_ab,
    g_ratio,
    h_aux,
    polylog,
    q_gamma,
    q_gamma_jackson,
    q_psi,
    q_psi_k,
)

_USAGE_EXIT = 2
_VIOLATION_EXIT = 1

#: Largest time (input or pairwise sum) `semigroup --family conv` accepts:
#: its convolution powers are built one by one, and the atom count grows
#: with the power.
_MAX_CONV_TIME = 1024

#: Largest convolution `semigroup --family conv` performs, counted in atom
#: pairs (atoms of the power so far times atoms of the measure).  The time
#: cap alone does not bound the work: with incommensurate atoms the m-fold
#: power has ~m^2/2 atoms.  The two-atom golden measure needs at most 2048.
_MAX_CONV_PAIRS = 8192


# --------------------------------------------------------------------------
# builtin function registry


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise InputError(f"expected comma-separated reals, got {text!r}") from exc


@dataclass(frozen=True)
class ParamSpec:
    name: str       # CLI flag without the leading dashes
    type: Callable[[str], object]  # argparse type: float, int or _parse_floats
    default: object
    help: str


@dataclass(frozen=True)
class Builtin:
    name: str
    params: tuple[ParamSpec, ...]
    build: Callable[[QParam, dict], RealFunction]


def _b_identity(q, p):
    return lambda x: x


def _b_constant(q, p):
    c = p["value"]
    return lambda x: c


def _b_square(q, p):
    return lambda x: x * x


def _b_reciprocal_shift(q, p):
    c = p["shift"]
    return lambda x: 1.0 / (x + c)


def _b_exp_decay(q, p):
    c = p["rate"]

    def exp_decay(x):
        try:
            return math.exp(-c * x)
        except OverflowError:
            raise OverflowError(f"exp(-rate x) overflows a float at x = {x!r} (rate = {c!r})") from None

    return exp_decay


def _b_eq_decay(q, p):
    c = p["rate"]
    return lambda x: eq_power(-c * x, q)


def _b_one_minus_eq_decay(q, p):
    c = p["rate"]
    return lambda x: 1.0 - eq_power(-c * x, q)


def _b_q_gamma(q, p):
    return lambda x: q_gamma(x, q)


def _b_q_gamma_jackson(q, p):
    n_lo, n_hi = p["n-lo"], p["n-hi"]
    return lambda x: q_gamma_jackson(x, q, n_lo, n_hi)


def _b_q_psi(q, p):
    return lambda x: q_psi(x, q)


def _b_q_psi_prime(q, p):
    return lambda x: q_psi_k(x, q, 1)


def _b_q_psi_k(q, p):
    k = p["k"]
    return lambda x: q_psi_k(x, q, k)


def _b_polylog_qx(q, p):
    s = p["s"]
    lq = math.log(q.q)
    return lambda x: polylog(s, math.exp(x * lq))


def _b_h_aux(q, p):
    return lambda x: h_aux(x, q)


def _b_f_abq(q, p):
    gp = GammaParams(p["alpha"], p["beta"], q)
    return lambda x: f_abq(x, gp)


def _b_g_ab(q, p):
    alpha, beta = p["alpha"], p["beta"]
    return lambda t: g_ab(t, alpha, beta)


def _b_g_ratio(q, p):
    rp = RatioParams(tuple(p["a"]), tuple(p["b"]))
    return lambda x: g_ratio(x, rp, q)


BUILTINS: dict[str, Builtin] = {
    b.name: b
    for b in (
        Builtin("identity", (), _b_identity),
        Builtin(
            "constant",
            (ParamSpec("value", float, 1.0, "constant value"),),
            _b_constant,
        ),
        Builtin("square", (), _b_square),
        Builtin(
            "reciprocal_shift",
            (ParamSpec("shift", float, 1.0, "denominator shift"),),
            _b_reciprocal_shift,
        ),
        Builtin(
            "exp_decay",
            (ParamSpec("rate", float, 1.0, "decay rate"),),
            _b_exp_decay,
        ),
        Builtin(
            "eq_decay",
            (ParamSpec("rate", float, 1.0, "decay rate"),),
            _b_eq_decay,
        ),
        Builtin(
            "one_minus_eq_decay",
            (ParamSpec("rate", float, 1.0, "decay rate"),),
            _b_one_minus_eq_decay,
        ),
        Builtin("q_gamma", (), _b_q_gamma),
        Builtin(
            "q_gamma_jackson",
            (
                ParamSpec("n-lo", int, 200, "small-t lattice cutoff exponent"),
                ParamSpec("n-hi", int, 40, "large-t lattice cutoff exponent"),
            ),
            _b_q_gamma_jackson,
        ),
        Builtin("q_psi", (), _b_q_psi),
        Builtin("q_psi_prime", (), _b_q_psi_prime),
        Builtin(
            "q_psi_k",
            (ParamSpec("k", int, 1, "derivative order, k >= 1"),),
            _b_q_psi_k,
        ),
        Builtin(
            "polylog_qx",
            (ParamSpec("s", float, 2.0, "polylogarithm order"),),
            _b_polylog_qx,
        ),
        Builtin("h_aux", (), _b_h_aux),
        Builtin(
            "f_abq",
            (
                ParamSpec("alpha", float, 0.5, "exponent alpha"),
                ParamSpec("beta", float, 1.0, "exponent beta (>= 0)"),
            ),
            _b_f_abq,
        ),
        Builtin(
            "g_ab",
            (
                ParamSpec("alpha", float, 0.5, "exponent alpha"),
                ParamSpec("beta", float, 1.0, "exponent beta"),
            ),
            _b_g_ab,
        ),
        Builtin(
            "g_ratio",
            (
                ParamSpec("a", _parse_floats, (1.0,), "numerator shifts, comma-separated"),
                ParamSpec("b", _parse_floats, (2.0,), "denominator shifts, comma-separated"),
            ),
            _b_g_ratio,
        ),
    )
}

#: Corpus used by `theorem closure`: positive builtins with known patterns.
_CLOSURE_CORPUS = ("identity", "constant", "one_minus_eq_decay", "reciprocal_shift", "eq_decay")


def _param_values(name: str, params: dict) -> dict:
    """A builtin's parameter values: the given ones, defaults for the rest."""
    if name not in BUILTINS:
        raise InputError(
            f"unknown function {name!r}; available: {', '.join(sorted(BUILTINS))}"
        )
    values = {}
    for ps in BUILTINS[name].params:
        given = params.get(ps.name)
        values[ps.name] = ps.default if given is None else given
    return values


def build_function(name: str, q: QParam, params: dict) -> RealFunction:
    """Instantiate a builtin by name with explicit parameter values."""
    values = _param_values(name, params)
    return BUILTINS[name].build(q, values)


# --------------------------------------------------------------------------
# run parameters and output plumbing (read from the parsed namespace)


def _grid_points(ns: argparse.Namespace) -> tuple[float, ...]:
    return _spaced(ns.grid_min, ns.grid_max, ns.grid_count, log=ns.grid_spacing == "log")


def _grid(ns: argparse.Namespace) -> Grid:
    return Grid(_grid_points(ns))


def _spec(ns: argparse.Namespace, prop: CertProperty) -> CertSpec:
    return CertSpec(
        property=prop,
        max_order=ns.order,
        grid=_grid(ns),
        tol_rel=ns.tol_rel,
    )


def _lambda_points(ns: argparse.Namespace) -> tuple[float, ...]:
    # transform grids may start at 0: keep the order check, not positivity
    # (`_spaced` checks that the ends are finite, and > 0 on a log grid)
    return _increasing(_grid_points(ns))


def _provenance(ns: argparse.Namespace) -> dict:
    grid = f"{format17(ns.grid_min)}:{format17(ns.grid_max)}:{ns.grid_count}:{ns.grid_spacing}"
    if not hasattr(ns, "order"):  # a subcommand without certification flags
        return {"q": ns.q, "grid": grid, "version": __version__}
    return {"q": ns.q, "order": ns.order, "grid": grid, "tol_rel": ns.tol_rel, "version": __version__}


@dataclass(frozen=True)
class _Table:
    """A computed table under the report protocol.  Its JSON tree is `meta`
    plus `rows`: each CSV row keyed by `row_keys` (`_serialize.keyed`), or
    the rows as plain lists when `row_keys` is None."""

    meta: dict
    header: tuple[str, ...]
    rows: list[tuple]
    row_keys: tuple[str, ...] | None = None

    def to_tree(self) -> dict:
        keys = self.row_keys
        return {**self.meta, "rows": self.rows if keys is None else keyed(keys, self.rows)}

    def csv_rows(self) -> tuple[tuple[str, ...], list[tuple]]:
        return self.header, self.rows


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get("QMONO_OUT_DIR")
        if base:
            path = Path(base) / path
    return path


def _emit(rep, ns: argparse.Namespace) -> None:
    """Write a report or table (`to_tree`/`csv_rows`) in the chosen format:
    JSON gains the provenance, CSV the provenance footer."""
    prov = _provenance(ns)
    if ns.fmt == "json":
        text = render_json({**rep.to_tree(), "provenance": prov})
    else:
        footer = " ".join(f"{k}={format_cell(v)}" for k, v in prov.items())
        text = render_csv(*rep.csv_rows()) + f"# {footer}\n"
    path = _resolve_out(ns.out)
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser, *, grid_min=0.1, grid_max=5.0,
                grid_count=64, spacing="log") -> None:
    sub.add_argument("--q", type=float, default=0.5, help="base q (> 0, != 1)")
    sub.add_argument("--grid-min", type=float, default=grid_min)
    sub.add_argument("--grid-max", type=float, default=grid_max)
    sub.add_argument("--grid-count", type=int, default=grid_count)
    sub.add_argument("--grid-spacing", choices=("linear", "log"), default=spacing)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (stdout when omitted)")


def _add_cert_flags(sub: argparse.ArgumentParser) -> None:
    """--order and --tol-rel, which only certify and theorem read; their
    CertSpec refuses a bad value before any work or output."""
    sub.add_argument("--order", type=int, default=6, help="max q-derivative order N")
    sub.add_argument("--tol-rel", type=float, default=1e-7, help="numerical-zero band")


def _add_fn_params(sub: argparse.ArgumentParser, names: Sequence[str] = tuple(BUILTINS)) -> None:
    """The parameter flags of the builtins `names`, each once."""
    seen: set[str] = set()
    for name in names:
        for ps in BUILTINS[name].params:
            if ps.name not in seen:
                seen.add(ps.name)
                sub.add_argument("--" + ps.name, type=ps.type, default=None, help=ps.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmono",
        description="q-calculus numerics and q-monotonicity certification",
        epilog="builtin functions: " + ", ".join(sorted(BUILTINS)),
    )
    parser.add_argument("--version", action="version", version=f"qmono {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="tabulate a builtin function on a grid")
    p_eval.add_argument("function", help="builtin function name")
    _add_common(p_eval)
    _add_fn_params(p_eval)

    p_cert = subs.add_parser("certify", help="certify a sign pattern for a builtin")
    p_cert.add_argument("function", help="builtin function name")
    p_cert.add_argument(
        "--property",
        dest="prop",
        choices=tuple(p.value for p in CertProperty),
        default="qcm",
    )
    _add_common(p_cert)
    _add_cert_flags(p_cert)
    _add_fn_params(p_cert)

    p_thm = subs.add_parser("theorem", help="run a named theorem harness")
    harnesses = p_thm.add_subparsers(dest="name", required=True)
    for name, (_, flags, builtins) in _THEOREMS.items():
        # no prefix matching: thm31 would read thm32's --a as its --alpha
        p_h = harnesses.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p_h.add_argument(flag, **_THEOREM_FLAGS[flag])
        _add_common(p_h)
        _add_cert_flags(p_h)
        _add_fn_params(p_h, builtins)

    p_lap = subs.add_parser("laplace", help="q-Laplace transform of a measure")
    src = p_lap.add_mutually_exclusive_group(required=True)
    src.add_argument("--measure", default=None, help="measure file (t w per line)")
    src.add_argument("--atoms", default=None, help='inline atoms "t:w,t:w,..."')
    p_lap.add_argument("--kernel", choices=("power", "jackson"), default="power")
    _add_common(p_lap, grid_min=0.0, grid_max=2.0, grid_count=9, spacing="linear")

    p_semi = subs.add_parser("semigroup", help="transform-side semigroup check")
    p_semi.add_argument("--family", choices=("delta", "broken-delta", "conv"), default="delta")
    p_semi.add_argument("--speed", type=float, default=None,
                        help="delta family location speed (default 1)")
    p_semi.add_argument("--measure", default=None, help="base measure file for --family conv")
    p_semi.add_argument("--ts", type=_parse_floats, default=(1.0, 2.0, 3.0))
    p_semi.add_argument("--kernel", choices=("power", "jackson"), default="power")
    p_semi.add_argument("--tol", type=float, default=1e-12)
    _add_common(p_semi, grid_min=0.0, grid_max=2.0, grid_count=5, spacing="linear")

    p_table = subs.add_parser("table", help="tabulate several builtins side by side")
    p_table.add_argument("functions", nargs="+", help="builtin function names")
    _add_common(p_table)
    _add_fn_params(p_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged and argparse looks up
    # sys.stdout/sys.stderr only when it prints, so one parser serves every
    # call; it is built on first use so that importing the module stays cheap.
    return build_parser()


def _fn_params(ns: argparse.Namespace, names: Sequence[str]) -> dict:
    """The builtin parameter flags given on the command line; InputError for
    one that none of the builtins `names` takes."""
    takes = {flag for name in names for flag in _param_values(name, {})}
    given = {ps.name: getattr(ns, ps.name.replace("-", "_"), None)
             for b in BUILTINS.values() for ps in b.params}
    given = {flag: value for flag, value in given.items() if value is not None}
    for flag in given:
        if flag not in takes:
            raise InputError(f"--{flag} is not a parameter of {' or '.join(names)}")
    return given


# --------------------------------------------------------------------------
# subcommand drivers


def _run_eval(ns: argparse.Namespace) -> tuple[object, bool]:
    f = build_function(ns.function, QParam(ns.q), _fn_params(ns, (ns.function,)))
    rows = [(x, f(x)) for x in _grid(ns).points]
    meta = {"kind": "eval_table", "function": ns.function}
    return _Table(meta, ("x", ns.function), rows, ("x", "value")), True


def _run_table(ns: argparse.Namespace) -> tuple[object, bool]:
    q = QParam(ns.q)
    params = _fn_params(ns, ns.functions)
    fns = [(name, build_function(name, q, params)) for name in ns.functions]
    rows = [tuple([x] + [f(x) for _, f in fns]) for x in _grid(ns).points]
    header = ("x",) + tuple(name for name, _ in fns)
    return _Table({"kind": "table", "columns": header}, header, rows), True


def _run_certify(ns: argparse.Namespace) -> tuple[object, bool]:
    q = QParam(ns.q)
    f = build_function(ns.function, q, _fn_params(ns, (ns.function,)))
    spec = _spec(ns, CertProperty(ns.prop))
    report = certify(f, q, spec)
    return report, report.verdict is Verdict.CONSISTENT


def _thm31(ns, q, spec, params):
    p = _param_values("f_abq", params)
    gp = GammaParams(p["alpha"], p["beta"], q)
    report = thm31_harness(gp, spec, negative_control=ns.negative_control)
    return report, report.verdict is Verdict.CONSISTENT


def _thm32(ns, q, spec, params):
    p = _param_values("g_ratio", params)
    rp = RatioParams(tuple(p["a"]), tuple(p["b"]))
    report = thm32_harness(rp, q, spec, negative_control=ns.negative_control)
    return report, report.verdict is Verdict.CONSISTENT


def _bernstein_iff(ns, q, spec, params):
    rep = bernstein_iff_check(build_function(ns.fn, q, params), ns.ts, q, spec)
    return rep, not rep.any_violation


def _difference(ns, q, spec, params):
    f = build_function(ns.fn, q, params)
    f_rep = certify(f, q, spec)
    report = difference_check(f, ns.offset, q, spec, f_report=f_rep)
    # a violated precondition on f fails the run even when the difference holds
    return report, Verdict.VIOLATED not in (report.verdict, f_rep.verdict)


def _closure(ns, q, spec, params):
    corpus = {name: build_function(name, q, params) for name in _CLOSURE_CORPUS}
    rep = closure_checks(corpus, q, spec, ts=ns.ts)
    return rep, rep.all_ok


#: argparse settings of the flags that only theorem harnesses take
_THEOREM_FLAGS = {
    "--fn": dict(required=True, help="target builtin"),
    "--ts": dict(type=_parse_floats, default=(0.5, 1.0, 2.0),
                 help="transform parameters t, comma-separated"),
    "--offset": dict(type=float, default=1.0, help="difference shift a"),
    "--negative-control": dict(action="store_true",
                               help="run with hypothesis-violating parameters on purpose"),
}

#: theorem harnesses by name: (driver, its own flags, the builtins whose
#: parameter flags it takes).  `build_parser` makes one `theorem NAME`
#: sub-parser per entry with these flags plus the common and certification
#: ones, so a harness refuses every flag it does not read.  A `--fn`
#: harness takes every builtin's flags, and `_fn_params` refuses those that
#: the --fn builtin does not take.  A driver maps (ns, q, spec, params) to
#: (report, ok).
_THEOREMS = {
    "thm31": (_thm31, ("--negative-control",), ("f_abq",)),
    "thm32": (_thm32, ("--negative-control",), ("g_ratio",)),
    "bernstein_iff": (_bernstein_iff, ("--fn", "--ts"), tuple(BUILTINS)),
    "difference": (_difference, ("--fn", "--offset"), tuple(BUILTINS)),
    "closure": (_closure, ("--ts",), _CLOSURE_CORPUS),
}


def _run_theorem(ns: argparse.Namespace) -> tuple[object, bool]:
    q = QParam(ns.q)
    spec = _spec(ns, CertProperty.QCM)
    driver, flags, builtins = _THEOREMS[ns.name]
    return driver(ns, q, spec, _fn_params(ns, (ns.fn,) if "--fn" in flags else builtins))


def _parse_atoms(text: str) -> DiscreteMeasure:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise InputError(f'atoms must look like "t:w", got {chunk!r}')
        t_s, w_s = chunk.split(":", 1)
        try:
            pairs.append((float(t_s), float(w_s)))
        except ValueError as exc:
            raise InputError(f"unparsable number in atom {chunk!r}") from exc
    if not pairs:
        raise InputError("no atoms given")
    return DiscreteMeasure.from_pairs(pairs)


def _load_measure(ns: argparse.Namespace) -> DiscreteMeasure:
    if ns.measure is not None:
        path = Path(ns.measure)
        return measure_from_text(path.read_text(encoding="utf-8"))
    return _parse_atoms(ns.atoms)


def _kernel_of(name: str) -> KernelKind:
    return KernelKind.POWER_E if name == "power" else KernelKind.JACKSON_E


def _run_laplace(ns: argparse.Namespace) -> tuple[object, bool]:
    q = QParam(ns.q)
    mu = _load_measure(ns)
    kernel = _kernel_of(ns.kernel)
    lams = _lambda_points(ns)
    rows = [(lam, q_laplace(mu, lam, q, kernel)) for lam in lams]
    meta = {"kind": "laplace_table", "kernel": kernel.value, "mass": mu.mass}
    header = ("lambda", "value")
    return _Table(meta, header, rows, header), True


def _run_semigroup(ns: argparse.Namespace) -> tuple[object, bool]:
    q = QParam(ns.q)
    kernel = _kernel_of(ns.kernel)
    ts = tuple(ns.ts)
    sums = sorted({t + s for i, t in enumerate(ts) for s in ts[i:]})
    needed = sorted(set(ts) | set(sums))
    if ns.family != "conv" and ns.measure is not None:
        raise InputError(f"--measure acts only with --family conv, not --family {ns.family}")
    if ns.family == "conv" and ns.speed is not None:
        raise InputError("--speed acts only with --family delta or broken-delta, not --family conv")
    speed = 1.0 if ns.speed is None else ns.speed
    if ns.family == "conv":
        if ns.measure is None:
            raise InputError("--family conv needs --measure FILE")
        base = _load_measure(ns)
        for t in needed:
            if t > _MAX_CONV_TIME:
                raise InputError(
                    f"conv family needs times and pairwise sums <= {_MAX_CONV_TIME}, got {t}"
                )
            if not t > 0.5 or abs(t - round(t)) > 1e-9:
                raise InputError(f"conv family needs positive integer times, got {t}")
        powers = [base]  # powers[m - 1] is the m-fold convolution power
        # with no times the family stays empty and semigroup_check rejects it
        while len(powers) < round(max(needed, default=1)):
            pairs = len(powers[-1]) * len(base)
            if pairs > _MAX_CONV_PAIRS:
                raise InputError(
                    f"conv family needs at most {_MAX_CONV_PAIRS} atom pairs per convolution, "
                    f"got {pairs} for power {len(powers) + 1}"
                )
            powers.append(q_convolve(powers[-1], base))
        family = {float(t): powers[round(t) - 1] for t in needed}
    elif ns.family == "delta":
        family = {float(t): DiscreteMeasure.delta(speed * t) for t in needed}
    else:  # broken-delta: correct on the input times, offset on the sums
        family = {
            float(t): DiscreteMeasure.delta(
                speed * t + (0.0 if t in ts else 0.1)
            )
            for t in needed
        }
    lams = _lambda_points(ns)
    report = semigroup_check(family, ts, lams, q, kernel, ns.tol)
    return report, report.passed


_DRIVERS = {
    "eval": _run_eval,
    "certify": _run_certify,
    "theorem": _run_theorem,
    "laplace": _run_laplace,
    "semigroup": _run_semigroup,
    "table": _run_table,
}


def run(ns: argparse.Namespace) -> int:
    """Run a parsed command line, write its result and return the exit code."""
    result, ok = _DRIVERS[ns.command](ns)
    _emit(result, ns)
    return 0 if ok else _VIOLATION_EXIT


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return run(ns)
    except (ValueError, ArithmeticError, ConvergenceError, OSError) as exc:
        # ValueError covers DomainError, InputError, EvaluationError and
        # malformed numeric input alike; ArithmeticError covers overflow and
        # division by zero inside a builtin: all usage/domain problems.
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
