"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest perfbench/test_smoke.py``.

Runs every workload once untraced and once traced at k = 64 or 4 KiB inputs,
and checks that each reports exactly the metrics BENCHMARK.json names, that
every check passes, and that the span wrappers leave the package as it was.
"""

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# curve_rel_err of a single k = 64 session says nothing about the closed forms
TINY = {
    "large-k": dict(k=64, curve_gate=False),
    "mc-small-k": dict(k=64, trials=4, curve_gate=False),
    "transfer-1KiB": dict(k=4, inputs=1),
    "transfer-64B": dict(k=64, inputs=1),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(wl.WORKLOADS, name, dataclasses.replace(wl.WORKLOADS[name], **sizes))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_reports_every_metric(workload, trace, capsys):
    wl.import_package()
    before = tracing.snapshot()
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    assert tracing.snapshot() == before
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    catalogue = run.load_catalogue()[trace]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == catalogue
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    if trace:
        self_s = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        assert self_s + metrics["trace.driver_s"] == pytest.approx(metrics["trace.wall_s"])
        assert metrics["schemes.Encoder.next_symbol.calls"] > 0
        assert metrics["cli.main.calls"] == 3
    else:
        assert all(v > 0 for v in metrics.values())


def test_wrappers_count_calls_and_are_restored():
    fl = wl.import_package()
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert tracing.snapshot() != before
        fl.run_session(fl.OFC(), 64, 0.1)
    finally:
        tracing.uninstall(patches)
    assert tracing.snapshot() == before
    assert tracer.stats["sim.run_session"][0] == 1
    assert tracer.stats["schemes.Encoder.next_symbol"][0] >= 64
    assert tracer.stats["degree.optimal_degree"][0] >= 1
