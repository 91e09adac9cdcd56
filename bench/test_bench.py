"""Tests of the benchmark itself: seeded inputs, tracer hygiene, the output
contract of bench/run.py, and a tiny smoke run of every workload."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import qmono  # noqa: E402

from bench import oracle, run, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(workload: str, seed: int, out_dir: Path) -> list:
    return [[(op.kind, op.inputs) for op in block]
            for block in workloads.pool(workload, seed, out_dir, oracle.References())]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path)
    assert first == _inputs(workload, 7, tmp_path)
    assert first != _inputs(workload, 8, tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _namespace_snapshot() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qmono" or name.startswith("qmono.")):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = id(val)
    snap[("QDiffTable", "build")] = id(qmono.QDiffTable.__dict__["build"])
    return snap


def test_tracer_restores_every_patched_name(tmp_path):
    before = _namespace_snapshot()
    block = workloads.pool("cert_elementary", 1, tmp_path, None)[0]
    with Tracer() as tr:
        assert hasattr(qmono.certify, "__wrapped__")
        assert hasattr(qmono.QDiffTable.build, "__wrapped__")
        for op in block[:3]:
            try:
                op.run(tr.wrap_f)
            except ValueError:  # a failing input still leaves its spans
                pass
            tr.end_op()
    assert _namespace_snapshot() == before
    self_s, calls = tr.self_times()
    assert calls["qdiff.build"] > 0 and tr.counters["qdiff.samples"] > 0
    assert all(v >= -1e-9 for v in self_s.values())


def test_tracer_restores_after_an_exception():
    before = _namespace_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _namespace_snapshot() == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_block_passes_the_oracle(workload, tmp_path, monkeypatch):
    """Smoke: the cheapest operations of the first block run and check out."""
    monkeypatch.setenv("QMONO_OUT_DIR", str(tmp_path))
    block = workloads.pool(workload, 3, tmp_path, oracle.References())[0]
    if workload == "cert_series":
        block = [op for op in block if op.kind == "thm32"]
    tally = run.Tally(block[:12])
    for i in range(len(tally.ops)):
        tally.run_op(i, lambda f: f)
    assert not tally.wrong and not tally.errors, tally.examples
    assert sum(tally.work) > 0


def test_failures_count_once_per_operation(tmp_path):
    ops = workloads.pool("cert_elementary", 1, tmp_path, None)[0][:2]
    bad = ops[0]._replace(run=lambda wrap: 1 / 0)
    tally = run.Tally([bad, ops[1]])
    for _ in range(3):
        for i in range(2):
            tally.run_op(i, lambda f: f)
    assert tally.failed == 1 and len(tally.execs) == 6 and tally.runs == [3, 3]
    assert tally.failures() == {f"{bad.kind}:ZeroDivisionError": 1}


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    out = _run_bench(ROOT, "--workload", "cert_elementary", "--seed", "2", "--seconds", "0.2",
                     "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the fixed operation list of the seed (a fixed prefix when traced), whatever the run length
    n_ops = sum(map(len, workloads.pool("cert_elementary", 2, ROOT, None)))
    assert result["attempted"] == (run.TRACE_OPS["cert_elementary"] if trace == "1" else n_ops)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval_cli", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_traced_counts_repeat_exactly(tmp_path):
    def counts():
        tr, _, _ = run.traced(workloads.pool("cert_elementary", 4, tmp_path, None)[0])
        return tr.self_times()[1], tr.counters

    assert counts() == counts()


def test_thread_starts_are_counted_and_restored():
    original = threading.Thread.start
    with run.ThreadStarts() as starts:
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    assert starts.count == 1 and threading.Thread.start is original
