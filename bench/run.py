"""qmono benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` (it does not need to be installed).  Workloads, metrics and bounds
are described in BENCHMARK.json and bench/README.md.

--trace 0 measures the end-to-end metrics: the seed's fixed list of
operations is executed once, then in further passes until S seconds have
gone by, one operation at a time in this one thread; every execution is
timed, with the host's speed taken out by a reference loop (see
bench/speed.py), and checked by the oracle outside the timed region.
--trace 1 runs a fixed prefix of the list twice, untraced and then under
the outside-in tracer, and reports per-layer counts and self times.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s (after one that writes bytecode caches)
SETUP_REPS = 15
#: half-width, in share of the operations, of the ranks a percentile averages
PERCENTILE_WINDOW = 0.02
#: operations per traced run, a prefix of the untraced run's: fixed, so
#: every count repeats exactly for a seed
TRACE_OPS = {"cert_series": 50, "cert_elementary": 480, "eval_cli": 240}

SETUP_CODE = (
    "import time\n"
    "t = time.thread_time()\n"
    "import qmono, qmono.cli\n"
    "t = time.thread_time() - t\n"
    "from bench import speed\n"
    "print(t, sorted(speed.loop_s() for _ in range(9))[4])\n"
)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import qmono and qmono.cli, in
    reference seconds and in CPU seconds."""
    from bench import speed

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    ref, cpu = [], []
    for rep in range(SETUP_REPS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        t, loop = map(float, out.stdout.split())
        if rep:
            cpu.append(t)
            ref.append(t * speed.REF_S / loop)
    return statistics.median(ref), statistics.median(cpu)


def percentile(sorted_values: list[float], p: float) -> float:
    """The p-th percentile of an ascending list, as the mean of the order
    statistics whose ranks lie within PERCENTILE_WINDOW of it.

    One order statistic of a few hundred operations moves with the timing
    noise of the few operations near it; the mean over a window of ranks
    does not."""
    n = len(sorted_values)
    lo = max(0, math.ceil((p / 100.0 - PERCENTILE_WINDOW) * n) - 1)
    hi = min(n, math.ceil((p / 100.0 + PERCENTILE_WINDOW) * n))
    return math.fsum(sorted_values[lo:hi]) / (hi - lo)


class Tally:
    """Outcome of the executions of a fixed list of operations.

    Every execution is timed and checked; an operation counts as failed once,
    however many of its executions failed."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.execs: list[tuple[int, float, float]] = []  # (op index, CPU s, wall s)
        self.runs = [0] * len(ops)            # executions per operation
        self.loops: list[float] = []          # reference loop after each execution
        self.wall = 0.0                       # wall seconds of all executions
        self.work = [0] * len(ops)            # work of each operation's first execution
        self.errors: dict[int, str] = {}      # op index -> failure without a wrong answer
        self.wrong: dict[int, str] = {}       # op index -> completed with a wrong output
        self.examples: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.errors.keys() | self.wrong.keys())

    def op_times(self, view: str = "ref") -> list[float]:
        """Each operation's median execution time: "ref" in reference seconds
        (see bench/speed.py; needs a loop time per execution), "cpu" in
        thread CPU seconds, "wall" in wall seconds."""
        from bench import speed

        per_op: list[list[float]] = [[] for _ in self.ops]
        scale = speed.factors(self.loops) if view == "ref" else None
        for j, (i, cpu, wall) in enumerate(self.execs):
            per_op[i].append(wall if view == "wall" else cpu * scale[j] if scale else cpu)
        return [statistics.median(t) for t in per_op]

    def failures(self) -> Counter:
        return Counter(self.errors.values()) + Counter(self.wrong.values())

    def by_kind(self) -> Counter:
        return Counter(op.kind for op in self.ops)

    def run_op(self, i: int, wrap) -> None:
        """Execute operation i, time it and check its output."""
        from bench import oracle

        op = self.ops[i]
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        w0 = time.perf_counter()
        t0 = time.thread_time()
        try:
            result = op.run(wrap)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._stop(i, t0, w0)
            self._fail(i, self.errors, f"{op.kind}:{type(exc).__name__}", exc)
            return
        first = self._stop(i, t0, w0)
        try:
            work = op.check(result)
        except oracle.Failed as exc:
            self._fail(i, self.errors, f"{op.kind}:{exc}", exc)
        except oracle.Mismatch as exc:
            self._fail(i, self.wrong, f"{op.kind}:wrong", exc)
        else:
            if first:
                self.work[i] = work

    def _stop(self, i: int, t0: float, w0: float) -> bool:
        """Record an execution; whether it was the operation's first."""
        cpu = time.thread_time() - t0
        wall = time.perf_counter() - w0
        self.wall += wall
        self.execs.append((i, cpu, wall))
        self.runs[i] += 1
        return self.runs[i] == 1

    def _fail(self, i: int, table: dict, key: str, exc: Exception) -> None:
        table.setdefault(i, key)
        if key not in self.examples:
            message = str(exc).splitlines()[0][:160] if str(exc) else ""
            self.examples[key] = f"{message}; inputs {self.ops[i].inputs!r:.300}"


def measure(ops, seconds: float) -> Tally:
    """Untraced measurement: one pass over every operation, then further
    passes until `seconds` of wall time have gone by since the start (the
    last pass may stop part-way).  The reference loop runs after every
    execution, outside its timing."""
    from bench import speed

    tally = Tally(ops)
    deadline = time.perf_counter() + seconds
    for i in itertools.chain(range(len(ops)), itertools.cycle(range(len(ops)))):
        if tally.runs[i] and time.perf_counter() >= deadline:
            return tally
        tally.run_op(i, _identity)
        tally.loops.append(speed.loop_s())


def _identity(f):
    return f


def traced(ops):
    """Run the operations once untraced, then once under the tracer, so that
    both passes start from the same warm caches; (tracer, traced, untraced)."""
    from bench.tracer import Tracer

    plain = Tally(ops)
    for i in range(len(ops)):
        plain.run_op(i, _identity)
    tally = Tally(ops)
    with Tracer() as tr:
        for i, op in enumerate(ops):
            tally.run_op(i, tr.wrap_f)
            tr.end_op()
            if op.output is not None and op.output.exists():
                tr.counters["cli.bytes_written"] += op.output.stat().st_size
    return tr, tally, plain


class ThreadStarts:
    """Counts `threading.Thread.start` calls while active: the benchmark
    measures one thread, and a thread that starts and ends inside an
    operation would leave no trace at the end of the run."""

    def __enter__(self) -> "ThreadStarts":
        self.count = 0
        self._start = threading.Thread.start
        counter = self

        def start(thread, *args, **kwargs):
            counter.count += 1
            return counter._start(thread, *args, **kwargs)

        threading.Thread.start = start
        return self

    def __exit__(self, *exc) -> None:
        threading.Thread.start = self._start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float, view: str = "ref") -> dict:
    """The end-to-end metrics, with times as `Tally.op_times(view)`."""
    lat = sorted(tally.op_times(view))
    n = len(tally.ops)
    return {
        "work_per_s": metric(sum(tally.work) / math.fsum(lat), "1/s"),
        "op_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": metric(percentile(lat, 90) * 1e3, "ms"),
        "ok_ratio": metric((n - tally.failed) / n, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_s: float, plain_s: float) -> dict:
    from bench import tracer as tracer_mod

    self_s, calls = tracer.self_times()
    c = tracer.counters
    out: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        # metric names may not start with "_"
        out[name.lstrip("_")] = metric(value, unit)

    for layer in tracer_mod.LAYERS:
        layer_self = math.fsum(v for k, v in self_s.items() if k.startswith(layer + "."))
        put(f"{layer}.self_s", layer_self, "s")
        put(f"{layer}.self_share", layer_self / traced_s, "ratio")
    for layer, names in (("qspecial", ("polylog", "q_psi", "q_psi_k", "log_q_gamma", "q_gamma_jackson")),
                         ("qcore", ("q_exp", "eq_power", "log_q")),
                         ("qmeasure", ("q_laplace", "q_convolve", "semigroup_check"))):
        for fn in names:
            key = f"{layer}.{fn}"
            put(f"{key}.calls", calls.get(key, 0), "count")
            put(f"{key}.self_s", self_s.get(key, 0.0), "s")
    put("qdiff.build.calls", calls.get("qdiff.build", 0), "count")
    put("qdiff.samples", c["qdiff.samples"], "count")
    put("certify.calls", calls.get("certify.certify", 0), "count")
    put("certify.checks", c["certify.checks"], "count")
    put("certify.f_evals", c["f_evals"], "count")
    put("certify.f_distinct_ratio", c["f_distinct"] / c["f_evals"] if c["f_evals"] else 0.0, "ratio")
    put("_serialize.render_json.calls", calls.get("_serialize.render_json", 0), "count")
    put("_serialize.bytes", c["_serialize.bytes"], "B")
    put("cli.main.calls", calls.get("cli.main", 0), "count")
    put("cli.bytes_written", c["cli.bytes_written"], "B")
    put("trace.wall_s", traced_s, "s")
    put("trace.overhead_ratio", traced_s / plain_s, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmono" / "__init__.py").is_file():
        print(f"error: no qmono sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (the oracle's reference values)
    except ImportError:
        print("error: the oracle needs mpmath", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qmono
    from bench import oracle, speed, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = {
        "python": platform.python_version(),
        "qmono": qmono.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# run record " + json.dumps(record))

    work_dir = ROOT / ".bench_out"
    out_dir = work_dir / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    old_out_dir = os.environ.get("QMONO_OUT_DIR")
    os.environ["QMONO_OUT_DIR"] = str(out_dir)
    try:
        refs = oracle.References()
        ops = [op for block in workloads.pool(args.workload, args.seed, out_dir, refs) for op in block]
        # the pool is long-lived: keep the collector from rescanning it
        gc.collect()
        gc.freeze()
        if args.trace:
            with ThreadStarts() as threads:
                tr, tally, plain = traced(ops[:TRACE_OPS[args.workload]])
            metrics = per_layer(tr, tally.wall, plain.wall)
            tr.write(work_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            setup_s, setup_cpu = measure_setup()
            with ThreadStarts() as threads:
                tally = measure(ops, args.seconds)
            metrics = end_to_end(tally, setup_s)
            raw = {v: end_to_end(tally, setup_cpu, v) for v in ("cpu", "wall")}
    finally:
        if old_out_dir is None:
            os.environ.pop("QMONO_OUT_DIR", None)
        else:
            os.environ["QMONO_OUT_DIR"] = old_out_dir
        shutil.rmtree(out_dir, ignore_errors=True)

    n = len(tally.ops)
    print(f"# {n} operations, {len(tally.execs)} executions in {tally.wall:.3f} s of wall time; "
          f"work {sum(tally.work)} per pass; threads started {threads.count}")
    times = tally.op_times("wall" if args.trace else "ref")
    for kind, count in sorted(tally.by_kind().items()):
        kind_times = [t for op, t in zip(tally.ops, times) if op.kind == kind]
        print(f"#   {kind}: {count}, median {statistics.median(kind_times) * 1e3:.4g} ms, "
              f"max {max(kind_times) * 1e3:.4g} ms")
    print(f"# fail_ratio {tally.failed / n:.6f} ({tally.failed} of {n}); wrong outputs "
          f"{len(tally.wrong)}")
    for key, count in sorted(tally.failures().items()):
        print(f"#   {key}: {count}  e.g. {tally.examples[key]}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# reference loop: median {statistics.median(tally.loops) * 1e3:.4f} ms "
              f"(reference {speed.REF_S * 1e3:.4f} ms) over {len(tally.loops)} loops; "
              f"raw setup_s = {setup_cpu:.6g} s (CPU)")
        for view, m in raw.items():
            print(f"# raw {view} times: " + ", ".join(
                f"{k} = {m[k]['value']:.6g} {m[k]['unit']}" for k in ("work_per_s", "op_p50_ms", "op_p90_ms")))
    if threads.count:
        print(f"error: {threads.count} threads started; the benchmark measures one thread",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": n,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
