"""Smoke tests of the benchmark itself, on 1-day inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import run

run._import_program()

import tracing  # noqa: E402  (needs src/ on the path)
import workloads as wl  # noqa: E402
from bessprofit import cli, lp  # noqa: E402

SEED = 2019


@pytest.fixture(autouse=True)
def small_inputs(monkeypatch):
    monkeypatch.setattr(wl, "DAYS", 1)
    monkeypatch.setattr(wl, "TUNE_DAYS", 1)
    monkeypatch.setattr(wl, "TUNE_WINDOWS", 2)


def test_spans_nest_under_two_threads(tmp_path):
    inputs = wl.make_inputs("sweep-j2", SEED, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    original_main, original_linprog = cli.main, lp.linprog
    with tracing.Tracer() as tracer:
        assert wl.run_pass("sweep-j2", inputs, out) == [0]
    assert (cli.main, lp.linprog) == (original_main, original_linprog)

    spans = {s.id: s for s in tracer.spans}
    (root,) = [s for s in spans.values() if s.name == "cli.main"]
    assert root.parent is None and root.thread == threading.get_ident()
    expected_parent = {
        "profitability.evaluate_candidate": "cli.main",
        "optimizer.select_ppc": "profitability.evaluate_candidate",
        "profitability.evaluate": "profitability.evaluate_candidate",
        "cycles.count_cycles": "profitability.evaluate",
        "optimizer.solve_dispatch": "optimizer.select_ppc",
        "optimizer.build_lp": "optimizer.solve_dispatch",
        "lp.solve": "optimizer.solve_dispatch",
        "lp.highs": "lp.solve",
        "timeseries.load_scenario": "cli.main",
        "report.write_report": "cli.main",
    }
    seen = set()
    for span in spans.values():
        if span.name not in expected_parent:
            continue
        seen.add(span.name)
        parent = spans[span.parent]
        assert parent.name == expected_parent[span.name], span
        assert parent.start <= span.start and span.end <= parent.end
        if span.name != "profitability.evaluate_candidate":
            assert span.thread == parent.thread
    assert seen == set(expected_parent)
    candidates = [s for s in spans.values() if s.name == "profitability.evaluate_candidate"]
    assert len(candidates) == 4 * len(inputs.batteries)
    assert all(s.thread != root.thread for s in candidates)

    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["profitability.evaluate_candidate.calls"] == len(candidates)
    assert 0 < metrics["cli.main.self_s"] < metrics["cli.main.s"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_passes_write_identical_artifacts(workload, tmp_path):
    inputs = wl.make_inputs(workload, SEED, tmp_path)
    written = []
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        out.mkdir()
        if traced:
            with tracing.Tracer() as tracer:
                result = wl.run_pass(workload, inputs, out)
            assert tracer.spans
            assert not wl.check_dispatches(tracer.spans)
        else:
            result = wl.run_pass(workload, inputs, out)
        arts = wl.artifacts(workload, inputs, out, result)
        assert arts
        assert not wl.check_pass(workload, inputs, result, arts, arts)
        written.append(arts)
    assert written[0] == written[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(trace, tmp_path, monkeypatch, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)  # a fresh process, so at full size
    argv = ["--workload", "evaluate-each", "--seed", str(SEED), "--seconds", "0.1",
            "--trace", trace]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
