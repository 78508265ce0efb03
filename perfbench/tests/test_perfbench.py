"""Tests of the benchmark itself, at tiny size.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_reports_every_metric(name):
    result, detail = run.run(name, seed=3, seconds=0.3, trace=False,
                             sizing=workloads.TINY)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_restores_every_wrapped_function(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    before = tracing.wrapped_originals()
    result, detail = run.run(name, seed=3, seconds=0.6, trace=True,
                             sizing=workloads.TINY)
    after = tracing.wrapped_originals()
    assert [(o, a) for o, a, _ in before] == [(o, a) for o, a, _ in after]
    assert all(x is y for (_, _, x), (_, _, y) in zip(before, after))
    assert result["correct"], detail["failures"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert (tmp_path / f"{name}-seed3.trace.json").is_file()


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(tracing.Wrappers, "__enter__", refuse)
    for name in NAMES:
        result, detail = run.run(name, seed=4, seconds=0.2, trace=False,
                                 sizing=workloads.TINY)
        assert result["correct"], detail["failures"]


def test_service_request_layers_sum_to_request_wall(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    _result, detail = run.run("service_mini", seed=5, seconds=0.6,
                              trace=True, sizing=workloads.TINY)
    bd = detail["request_breakdown"]
    assert bd["max_gap_ms"] < 1e-6
    assert sum(bd["self_ms_by_layer"].values()) == pytest.approx(bd["wall_ms"])
    assert "unattributed" in bd["self_ms_by_layer"]


def test_distributed_message_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    seen = []
    for seed in (1, 2):
        result, _detail = run.run("dist2_mini", seed=seed, seconds=0.4,
                                  trace=True, sizing=workloads.TINY)
        m = result["metrics"]
        seen.append((m["par.messages_per_step"]["value"],
                     m["par.bytes_per_step"]["value"]))
    assert seen[0] == seen[1] and seen[0][0] > 0


def test_a_wrong_reference_digest_fails_the_run(monkeypatch, tmp_path):
    refs = json.loads(workloads.REFERENCES.read_text())
    key = workloads.reference_key(workloads.TINY)
    refs[key][3 % workloads.POOL]["max_eta"] *= 1 + 1e-5
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    monkeypatch.setattr(workloads, "REFERENCES", bad)
    result, detail = run.run("bare_x8", seed=3, seconds=0.3, trace=False,
                             sizing=workloads.TINY)
    assert not result["correct"] and result["failed"] >= 1
    assert any("digests" in f for f in detail["failures"])


def test_shipped_references_cover_the_pool():
    refs = json.loads(workloads.REFERENCES.read_text())
    for sizing in (workloads.FULL, workloads.TINY):
        assert len(refs[workloads.reference_key(sizing)]) == workloads.POOL
    assert refs[workloads.reference_key(workloads.TINY)][0] == pytest.approx(
        workloads.bare_reference_digests(workloads.TINY, 0), rel=1e-12
    )


def test_self_time_subtracts_concurrent_children_once():
    S = tracing.Span
    spans = [
        S(1, None, "a", 0.0, 10.0, "main", "r", "op-0"),
        S(2, 1, "b", 1.0, 5.0, "t1", "r", "op-0"),
        S(3, 1, "b", 2.0, 6.0, "t2", "r", "op-0"),
    ]
    assert layers.self_times(spans)[1] == pytest.approx(5.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 51)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(80.0)


def test_nested_span_of_the_same_name_is_counted_once():
    S = tracing.Span
    spans = [
        S(1, None, "bench.setup", 0.0, 1.0, "main", "r", "setup-0"),
        S(2, None, "core.step", 10.0, 20.0, "main", "r", "op-0"),
        # SimulatedClock.charge_step calling step_cost_us.
        S(3, 2, "resilience.clock", 11.0, 13.0, "main", "r", "op-0"),
        S(4, 3, "resilience.clock", 11.5, 12.5, "main", "r", "op-0"),
    ]
    m, _detail = layers.layer_metrics(
        spans, steps=1, requests=1, cache_hits=0, copy_gbps=1.0,
        overhead_ratio=0.0,
    )
    assert m["resilience.clock.ms_per_step"] == pytest.approx(2000.0)
