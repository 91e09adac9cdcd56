"""Outside-in tracer: per-layer call counts and self time.

While active, every listed public function of a layer is replaced, in the
namespace of every loaded `qmono` module that holds it (found by object
identity), by a wrapper that records a span (name, start, end, parent).
`QDiffTable.build` is replaced on its class.  Leaving the context restores
every original object.  Spans live in flat arrays and are written out once,
at the end; a span's self time is its duration minus the durations of its
direct children (one thread, so children never overlap).

The layer lists name public functions only and are resolved through
`qmono`, `qmono.cli` and `qmono._serialize`, so the other modules may be
renamed or reorganised without touching the tracer.  `q_number` is left out on purpose: the series call it
once per term, and a span per term would swamp what it measures.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

import qmono
import qmono._serialize as _serialize
import qmono.cli as qcli

#: layer -> (object the names are read from, its public functions)
LAYERS = {
    "qcore": (qmono, ("q_exp", "eq_power", "log_q", "q_pochhammer", "q_factorial", "q_binomial",
                      "qpoch_inf")),
    "qspecial": (qmono, ("polylog", "q_psi", "q_psi_k", "log_q_gamma", "q_gamma", "q_gamma_jackson",
                         "q_gamma_jackson_info", "h_aux", "log_f_abq", "f_abq", "g_ab", "g_ratio")),
    "qdiff": (qmono, ("q_derive", "q_derive_n", "q_bell", "q_faa_di_bruno", "q_faa_di_bruno_gap")),
    "qmeasure": (qmono, ("q_laplace", "q_convolve", "semigroup_check", "semigroup_transform",
                         "jackson_integral", "jackson_integral_info", "measure_to_text",
                         "measure_from_text")),
    "certify": (qmono, ("certify", "bernstein_iff_check", "difference_check", "closure_checks",
                        "thm31_harness", "thm32_harness", "report_to_tree", "report_to_json",
                        "report_to_csv")),
    "_serialize": (_serialize, ("render_json", "format17")),
    "cli": (qcli, ("main", "run", "build_parser", "build_function")),
}
#: the harnesses' sampled functions: their calls are the harnesses' f calls
HARNESS_F = ("f_abq", "g_ratio")


def _qmono_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qmono" or name.startswith("qmono."))]


class Tracer:
    """Context manager; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name id -> "layer.function"
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters = {"certify.checks": 0, "qdiff.samples": 0, "_serialize.bytes": 0,
                         "cli.bytes_written": 0, "f_evals": 0, "f_distinct": 0}
        self._op_points: set = set()

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        start, end, parent, name_id, stack = self.start, self.end, self.parent, self.name_id, self._stack
        clock = time.perf_counter
        points = self._op_points
        counters = self.counters
        count_f = name in HARNESS_F

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            start.append(0.0)
            end.append(0.0)
            if count_f:
                counters["f_evals"] += 1
                points.add((nid, args[0]))
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_return(self, layer: str, name: str):
        c = self.counters
        if (layer, name) == ("certify", "certify"):
            def hook(rep):
                c["certify.checks"] += rep.checks_run
            return hook
        if (layer, name) == ("_serialize", "render_json"):
            def hook(text):
                c["_serialize.bytes"] += len(text.encode("utf-8"))
            return hook
        return None

    def __enter__(self) -> "Tracer":
        modules = _qmono_modules()
        try:
            for layer, (source, names) in LAYERS.items():
                for name in names:
                    orig = getattr(source, name)
                    wrapper = self._wrap(layer, name, orig, self._on_return(layer, name))
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._restore.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)
            cls = qmono.QDiffTable
            orig_build = cls.__dict__["build"]
            samples = self.counters

            def count_samples(table):
                samples["qdiff.samples"] += len(table.rows[0])

            build = self._wrap("qdiff", "build", orig_build.__func__, count_samples)
            self._restore.append((cls, "build", orig_build))
            setattr(cls, "build", classmethod(build))
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    # -- f counting ----------------------------------------------------------

    def wrap_f(self, f):
        """Count calls of a function the benchmark passes to the library."""
        counters, points = self.counters, self._op_points
        key = object()

        def counted(x):
            counters["f_evals"] += 1
            points.add((key, x))
            return f(x)

        return counted

    def end_op(self) -> None:
        """Close one top-level operation: its distinct sample points count once."""
        self.counters["f_distinct"] += len(self._op_points)
        self._op_points.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, path: Path) -> None:
        """Write every span as `name start end parent` lines (gzip text)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")
