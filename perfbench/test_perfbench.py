"""Tests for the benchmark's own logic: percentiles, self time, answer checks."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, stats
from perfbench.inputs import CM_DEPTH, CM_WIDTH, Plan, Write
from perfbench.spans import Recorder, covered, self_times
from perfbench.workloads import (
    Phase, Tally, _check_fleet_answer, check_final_state, point_itemsets, reads_outside,
)
from repro.server import serve_in_thread
from repro.streaming import CountMinSketch, ReservoirSample
from repro.wire import dump

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- percentile selection ---------------------------------------------------
class TestPercentiles:
    def test_highest_supported_keeps_ten_samples_beyond(self):
        assert stats.highest_supported(10_000) == 99.9
        assert stats.highest_supported(1_000) == 99.0
        assert stats.highest_supported(999) == 98.0
        assert stats.highest_supported(20) == 50.0
        assert stats.highest_supported(19) is None

    def test_every_supported_percentile_has_ten_beyond(self):
        for n in range(1, 3_000, 7):
            p = stats.highest_supported(n)
            if p is not None:
                assert stats.samples_beyond(p, n) >= stats.MIN_BEYOND
                higher = [q for q in stats.TAIL_LADDER if q > p]
                assert all(stats.samples_beyond(q, n) < stats.MIN_BEYOND for q in higher)

    def test_refuses_unsupported_percentile(self):
        with pytest.raises(stats.UnsupportedPercentile):
            stats.percentile(list(range(999)), 99)
        with pytest.raises(stats.UnsupportedPercentile):
            stats.percentile([], 50)

    def test_nearest_rank_value(self):
        values = list(range(1, 1_001))[::-1]
        assert stats.percentile(values, 99) == 990
        assert stats.percentile(values, 50) == 500

    def test_failures_count_as_missing_every_limit(self):
        values = [1.0] * 985 + [math.inf] * 15
        assert stats.percentile(values, 99) == math.inf
        assert stats.percentile(values, 50) == 1.0


# -- self time ----------------------------------------------------------------
def span(label, start, end, parent=-1, req=None, **attrs):
    return [label, start, end, req, parent, attrs]


class TestSelfTime:
    def test_nested(self):
        spans = [span("a", 0, 10), span("b", 2, 5, 0), span("c", 3, 4, 1)]
        assert self_times(spans) == [7, 2, 1]

    def test_siblings(self):
        spans = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 5, 8, 0)]
        assert self_times(spans) == [5, 2, 3]

    def test_overlapping_children_count_once(self):
        assert covered([(1, 4), (3, 6), (9, 12)], 0, 10) == 6

    def test_recorder_nests_and_groups_requests(self):
        ticks = iter(range(100))
        rec = Recorder(clock=lambda: next(ticks))
        outer = rec.begin("protocol.parse", "begin")
        rec.end(outer)
        mid = rec.begin("registry.estimate")
        inner = rec.begin("kernel.eval")
        rec.bump("point_reads", 3)
        rec.end(inner)
        rec.end(mid)
        enc = rec.begin("protocol.encode")
        rec.end(enc, "end")
        after = rec.begin("compact")
        rec.end(after)
        assert [s[4] for s in rec.spans] == [-1, -1, 1, -1, -1]
        assert [s[3] for s in rec.spans] == [1, 1, 1, 1, None]
        assert rec.spans[2][5] == {"point_reads": 3}
        assert self_times(rec.spans)[1] == (5 - 2) - (4 - 3)

    def test_wrap_records_and_restore_unpatches(self):
        class Base:
            def work(self, items):
                return len(items)

        class Child(Base):
            pass

        rec = Recorder()
        rec.wrap(Base, "work", "layer", flatten=True)
        rec.wrap(Child, "work", "layer", flatten=True, attrs=lambda a, k, r: {"n": r})
        assert Child().work([1, 2, 3]) == 3  # outer call counts once
        assert [(s[0], s[5]) for s in rec.spans] == [("layer", {"n": 3})]
        rec.restore()
        assert "work" not in vars(Child)
        assert Child().work([1]) == 1 and len(rec.spans) == 1


# -- answer checks ----------------------------------------------------------
def small_plan(cm: CountMinSketch, res_length: int) -> Plan:
    return Plan(
        workload="mixed", seed=0, ops=0, fleet=b"", fleet_names=["s00"],
        itemsets=[], expected={"s00": ([0.25, 0.5], [True, False])},
        point_items=[0, 1, 2, 7], cm_model=copy.deepcopy(cm),
        res_length=res_length, template=Path("."),
    )


def cm_sketch(seed: int = 3) -> CountMinSketch:
    cm = CountMinSketch(1 << 10, CM_WIDTH // 64, CM_DEPTH, rng=seed)
    cm.update_many(np.arange(50) % 9)
    return cm


class TestAnswerChecks:
    def test_fleet_answer_rejects_perturbed_value(self):
        plan = small_plan(cm_sketch(), 0)
        tally = Tally()
        _check_fleet_answer(tally, plan, "s00", False, [0.25, 0.5])
        _check_fleet_answer(tally, plan, "s00", True, [True, False])
        assert tally.wrong == []
        _check_fleet_answer(tally, plan, "s00", False, [0.25, np.nextafter(0.5, 1)])
        _check_fleet_answer(tally, plan, "s00", True, [True, True])
        assert len(tally.wrong) == 2

    def test_mixed_reads_must_match_an_overlapped_state(self):
        before, after = [0.25, 0.5], [0.2, 0.6]
        states = [before, after]
        reads = [(0, 0, before), (0, 1, after), (1, 1, after)]
        assert reads_outside(reads, states) == []
        superseded = reads + [(1, 1, before)]
        assert reads_outside(superseded, states) == ["1 mixed reads match no acknowledged state"]
        perturbed = reads + [(0, 1, [0.2, np.nextafter(0.6, 1)])]
        assert reads_outside(perturbed, states) == ["1 mixed reads match no acknowledged state"]

    def test_final_state_checks_mixed_reads_against_the_fold(self):
        cm = cm_sketch()
        plan = small_plan(cm, 0)
        write = Write("INGEST", "cm", items=np.array([1, 1, 2]))
        points = point_itemsets(plan)
        good = [cm.estimate_frequency(s.items[0]) for s in points]
        stale = Tally(acked=[write], reads=[(1, 1, good)])  # saw the pre-write state
        with serve_in_thread() as handle:
            handle.registry.load("cm", dump(cm))
            handle.registry.load("res", dump(ReservoirSample(1 << 10, 4, rng=0)))
            handle.registry.ingest("cm", write.items)
            wrong = check_final_state(plan, handle.port, Phase(stale, 0.0, 1.0, 0.0))
        assert wrong == ["1 mixed reads match no acknowledged state"]

    def test_final_state_rejects_an_unacknowledged_fold(self):
        cm = cm_sketch()
        res = ReservoirSample(1 << 10, 16, rng=1)
        res.update_many(np.arange(40) % 7)
        plan = small_plan(cm, res.stream_length)
        plan.workload = "ingest"
        acked = [Write("INGEST", "cm", items=np.array([4, 4, 5])),
                 Write("INGEST", "res", items=np.array([3]))]
        with serve_in_thread() as handle:
            handle.registry.load("cm", dump(cm))
            handle.registry.load("res", dump(res))
            for write in acked:
                handle.registry.ingest(write.name, write.items)
            phase = Phase(Tally(acked=list(acked)), 0.0, 1.0, 0.0)
            assert check_final_state(plan, handle.port, phase) == []
            # The check's own probe INGESTs count as prepared state now;
            # one more fold that nobody acknowledged must be caught.
            plan.cm_model.update_many(np.array([plan.point_items[0]]))
            plan.res_length += 1
            handle.registry.ingest("cm", np.array([6]))
            wrong = check_final_state(plan, handle.port, phase)
        assert "count-min answers differ from the acknowledged fold" in wrong
        assert any("count-min stream_length" in w for w in wrong)


# -- the metric lists -------------------------------------------------------
def test_analysis_reports_exactly_the_per_layer_metrics():
    spans = [
        span("recover", 0, 1, replayed_ops=2, snapshot_entries=3),
        span("protocol.parse", 2, 3, req=1, op="ESTIMATE", name="s00", bytes=40),
        span("registry.estimate", 3, 5, req=1),
        span("kernel.eval", 3.5, 4.5, 2, req=1, n=276),
        span("protocol.encode", 5, 6, req=1, bytes=9),
    ]
    client = [span("client.request", 1.5, 7, req=1, cls="ESTIMATE"),
              span("client.encode", 1.5, 2, 0, req=1)]
    result = layers.analyze(spans, client, (1.0, 8.0), 0, 1.2, "read")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    row = result["classes"]["ESTIMATE"]
    assert row["server.busy_ms"] == pytest.approx(4e3)
    assert row["server.wait_ms"] == pytest.approx(5.5e3 - 0.5e3 - 4e3)
    assert row["self_ms"]["registry.estimate"] == pytest.approx(1e3)
    assert row["unattributed_ms"] == pytest.approx(0.0)
    assert point_itemsets(small_plan(cm_sketch(), 0))[0].items == (0,)


def test_benchmark_spec_is_within_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
