"""Tests of the benchmark's own machinery: span self time, tail percentiles,
generators, and BENCHMARK.json against the metrics the code reports.

    python3 -m pytest -q perfbench/check_spans.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import json
from pathlib import Path

import generators
from layers import PER_LAYER, tail_percentile
from run import END_TO_END
from spans import NO_PARENT, SpanRecorder, traced

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _self_by_label(rec: SpanRecorder, labels: list[str]) -> dict[str, int]:
    return dict(zip(labels, rec.self_times()))


def test_self_time_subtracts_nested_children():
    rec = SpanRecorder()
    root = rec.add("root", 0, 100)
    a = rec.add("a", 10, 40, root)
    rec.add("a.child", 15, 25, a)
    rec.add("b", 50, 70, root)
    self_ns = _self_by_label(rec, ["root", "a", "a.child", "b"])
    assert self_ns == {"root": 100 - 30 - 20, "a": 30 - 10, "a.child": 10, "b": 20}


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    rec = SpanRecorder()
    root = rec.add("root", 0, 100)
    rec.add("a", 10, 40, root)
    rec.add("b", 30, 60, root)    # overlaps a by 10
    rec.add("c", 90, 120, root)   # runs past the parent's end
    self_ns = _self_by_label(rec, ["root", "a", "b", "c"])
    # covered: [10, 60] and [90, 100]
    assert self_ns["root"] == 100 - 50 - 10
    assert (self_ns["a"], self_ns["b"], self_ns["c"]) == (30, 30, 30)


def test_traced_calls_nest_and_share_the_outer_id():
    rec = SpanRecorder()
    inner = traced(rec, "inner", lambda x: x + 1)
    outer = traced(rec, "outer", lambda x: inner(inner(x)), new_ident=True)
    assert outer(1) == 3
    assert outer(5) == 7
    names = [rec.names[n] for n in rec.name]
    assert names == ["outer", "inner", "inner", "outer", "inner", "inner"]
    assert list(rec.parent) == [NO_PARENT, 0, 0, NO_PARENT, 3, 3]
    assert list(rec.ident) == [1, 1, 1, 2, 2, 2]
    totals = rec.totals(frozenset({"inner"}))
    assert totals["inner"]["calls"] == 4
    assert len(totals["inner"]["durations_ns"]) == 4
    assert abs(totals["outer"]["self_s"] + totals["inner"]["self_s"]
               - totals["outer"]["total_s"]) < 1e-12


def test_span_closed_after_an_exception():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    wrapped = traced(rec, "boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert rec.end[0] >= rec.start[0] > 0
    assert not rec._stack


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 601))) == 588       # p98 of 600
    assert tail_percentile(list(range(1, 20001))) == 19980   # p99.9 of 20000
    assert tail_percentile([3, 1, 2]) == 3
    assert tail_percentile([]) == 0.0


def test_generators_are_deterministic_per_seed():
    assert generators.bigapp_doc(3, screens=5) == generators.bigapp_doc(3, screens=5)
    assert generators.bigapp_doc(3, screens=5) != generators.bigapp_doc(4, screens=5)
    stream = generators.netcapture_stream(7, [b"SIG"], {"good.example": 90}, 60, count=1000)
    again = generators.netcapture_stream(7, [b"SIG"], {"good.example": 90}, 60, count=1000)
    assert stream == again
    kinds = [r.kind for r in stream]
    for kind in generators.HOSTILE_CLASSES:
        assert kinds.count(kind) == 10
    # 970 left for seven corpus classes: 139 for the first four, 138 after
    assert [kinds.count(kind) for kind in generators.CORPUS_CLASSES] == [139] * 4 + [138] * 3


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]
