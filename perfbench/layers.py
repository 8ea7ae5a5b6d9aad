"""Per-layer metrics: where the spans go, and what each metric should move.

``instrument`` wraps the names each droidcage module imports from the
layer below (``session.run_event_chain``, ``harness.measure``, ...) so a
traced cycle records one span per call into a layer, plus the counts that
only make sense at that boundary (taps that hit, steps that matched,
dispositions). ``layer_metrics`` turns one cycle's spans and counts into
the per-layer numbers listed in ``PER_LAYER``.
"""

from __future__ import annotations

from collections import Counter

from spans import Patches, SpanRecorder, traced

# name, unit, better, and the end-to-end metric (on which workload) that a
# change to this layer should move. A layer that a workload does not use
# reports 0 there.
PER_LAYER = (
    ("rng.draws", "count", "lower", "throughput_per_s on corpus200; no change on bigapp, netcapture"),
    ("rng.self_s", "s", "lower", "throughput_per_s on corpus200; no change on bigapp, netcapture"),
    ("monkey.events", "count", "higher", "throughput_per_s, wall_s on corpus200; the monkey does not run on bigapp"),
    ("monkey.self_s", "s", "lower", "throughput_per_s, wall_s on corpus200"),
    ("monkey.hit_ratio", "ratio", "higher", "throughput_per_s, wall_s on corpus200"),
    ("session.steps", "count", "higher", "throughput_per_s on corpus200"),
    ("session.self_s", "s", "lower", "throughput_per_s on corpus200"),
    ("app_model.chain_calls", "count", "higher", "throughput_per_s on bigapp (grows with screen count) and corpus200"),
    ("app_model.chain_s", "s", "lower", "throughput_per_s on bigapp and corpus200"),
    ("app_model.matched_ratio", "ratio", "higher", "throughput_per_s on bigapp and corpus200"),
    ("app_model.load_calls", "count", "lower", "setup_s on bigapp, wall_s on corpus200"),
    ("app_model.load_s", "s", "lower", "setup_s on bigapp, wall_s on corpus200"),
    ("app_model.dump_calls", "count", "lower", "wall_s on bigapp; 0 on corpus200"),
    ("app_model.oracle_s", "s", "lower", "wall_s on bigapp; 0 on corpus200"),
    ("app_model.oracle_states", "count", "lower", "wall_s on bigapp; 0 on corpus200"),
    ("explorer.events", "count", "higher", "wall_s on bigapp; small on corpus200"),
    ("explorer.relaunches", "count", "lower", "wall_s on bigapp; small on corpus200"),
    ("explorer.self_s", "s", "lower", "wall_s on bigapp; small on corpus200"),
    ("trace.record_calls", "count", "lower", "throughput_per_s on corpus200"),
    ("trace.self_s", "s", "lower", "throughput_per_s on corpus200"),
    ("trace.visible_ratio", "ratio", "higher", "throughput_per_s on corpus200"),
    ("telephony.decisions", "count", "lower", "throughput_per_s on corpus200"),
    ("telephony.delivered_ratio", "ratio", "higher", "throughput_per_s on corpus200"),
    ("netguard.requests", "count", "higher", "throughput_per_s, job_p50_ms on netcapture"),
    ("netguard.handle_s", "s", "lower", "throughput_per_s, job_p50_ms on netcapture"),
    ("netguard.handled_ratio", "ratio", "higher", "throughput_per_s, job_p50_ms on netcapture"),
    ("netguard.disposition.handled", "count", "higher", "throughput_per_s, job_p50_ms on netcapture"),
    ("netguard.disposition.blocked_protocol", "count", "higher", "throughput_per_s on netcapture"),
    ("netguard.disposition.malformed", "count", "higher", "throughput_per_s on netcapture"),
    ("netguard.disposition.tls_rejected", "count", "higher", "throughput_per_s on netcapture"),
    ("netguard.disposition.raised", "count", "lower", "throughput_per_s on netcapture; counted as failed"),
    ("netguard.request_tail_us", "us", "lower", "job_p50_ms on netcapture"),
    ("netguard.request_samples", "count", "higher", "sample count behind netguard.request_tail_us"),
    ("netguard.decode_records", "count", "higher", "wall_s on netcapture (read side)"),
    ("netguard.decode_s", "s", "lower", "wall_s on netcapture (read side)"),
    ("netguard.log_bytes", "bytes", "lower", "wall_s on netcapture (read side)"),
    ("coverage.measure_s", "s", "lower", "wall_s on corpus200; no change on bigapp"),
    ("harness.write_s", "s", "lower", "wall_s on corpus200; no change on bigapp"),
    ("harness.output_bytes", "bytes", "lower", "wall_s on corpus200"),
    ("harness.session_tail_ms", "ms", "lower", "job_p50_ms, wall_s on corpus200"),
    ("harness.sessions", "count", "higher", "sample count behind harness.session_tail_ms"),
    ("harness.cpu_util", "ratio", "higher", "wall_s on corpus200; no change on bigapp"),
    ("corpus.build_s", "s", "lower", "setup_s on corpus200"),
    ("trace_overhead", "ratio", "lower", "traced pass wall / untraced pass wall, per workload"),
    ("failed_ratio", "ratio", "lower", "failed / attempted operations of the run"),
)

# Spans whose individual durations feed a tail percentile.
TAIL_SPANS = frozenset({"harness.session", "netguard.handle"})
TAIL_LEVELS_PERMILLE = (999, 990, 980, 950, 900, 750, 500)


def tail_percentile(samples: list[float]) -> float:
    """Highest percentile in TAIL_LEVELS_PERMILLE with at least ten samples
    above it (nearest rank); the maximum when there are fewer than twenty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LEVELS_PERMILLE:
        if n * (1000 - level) >= 10 * 1000:
            return ordered[-(-level * n // 1000) - 1]
    return ordered[-1]


def instrument(rec: SpanRecorder, counts: Counter, patches: Patches) -> None:
    """Wrap every layer boundary droidcage crosses; ``patches`` undoes it."""
    from droidcage import (app_model, corpus, explorer, harness, monkey, netguard, rng,
                           session)

    def wrap(owner, attr, name, **kw):
        patches.set(owner, attr, traced(rec, name, getattr(owner, attr), **kw))

    def on_tap(args, event):
        if event.kind in monkey.NAV_KINDS:
            counts["monkey.taps"] += 1
            counts["monkey.hits"] += event.target is not None

    def on_chain(args, result):
        _, steps = result
        counts["chain.steps"] += len(steps)
        counts["chain.matched"] += sum(r.matched for _, r in steps)

    def on_record(args, visible):
        step = args[0]
        counts["trace.candidates"] += sum(
            e.kind in ("java_call", "system_call") for e in step.side_effects)
        counts["trace.visible"] += len(visible)

    def on_decision(args, decision):
        counts["telephony.delivered"] += decision.delivered

    def on_outcome(args, outcome):
        counts["netguard.disposition." + outcome.disposition] += 1

    def on_issue(args):
        counts["explorer.relaunches"] += args[1].kind == "app_switch"

    def on_decode(args, records):
        counts["netguard.decode_records"] += len(records)
        counts["netguard.log_bytes"] += len(args[0])

    wrap(harness, "run_experiment", "harness.run_experiment")
    wrap(harness, "_run_one", "harness.session", new_ident=True)
    wrap(harness, "measure", "coverage.measure")
    wrap(harness, "write_outputs", "harness.write_outputs")
    wrap(corpus, "write_corpus", "corpus.write_corpus")
    wrap(app_model, "model_from_dict", "app_model.load")
    for owner in (harness, explorer):
        wrap(owner, "run_monkey", "monkey.run_monkey")
        wrap(owner, "explore", "explorer.explore", new_ident=True)
    wrap(monkey, "_generate_one", "monkey.event", on_result=on_tap)
    wrap(rng.Xoshiro256StarStar, "randrange", "rng.draw")
    wrap(session.SessionRunner, "step", "session.step")
    for owner in (session, monkey):
        wrap(owner, "run_event_chain", "app_model.run_event_chain", on_result=on_chain)
    wrap(session, "record", "trace.record", on_result=on_record)
    for owner in (session, app_model):
        wrap(owner, "filter_outgoing", "telephony.filter_outgoing", on_result=on_decision)
    wrap(netguard.NetGuard, "handle", "netguard.handle", new_ident=True, on_result=on_outcome)
    wrap(netguard, "parse_capture_log", "netguard.parse_capture_log", on_result=on_decode)
    wrap(explorer._Explorer, "issue", "explorer.issue", on_call=on_issue)
    wrap(explorer, "dump_hierarchy", "app_model.dump_hierarchy")
    wrap(app_model, "reachable_blocks", "app_model.reachable_blocks", new_ident=True)
    wrap(app_model, "_candidate_events", "app_model.oracle_expand")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, counts: Counter) -> dict[str, float]:
    """Per-layer numbers for one traced cycle (bench-level ones are added
    by the caller: output bytes, cpu_util, trace_overhead, failed_ratio)."""
    t = rec.totals(TAIL_SPANS)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_ns": []}

    def calls(name):
        return t.get(name, empty)["calls"]

    def total(name):
        return t.get(name, empty)["total_s"]

    def self_s(*names):
        return sum(t.get(n, empty)["self_s"] for n in names)

    def durations(name):
        return t.get(name, empty)["durations_ns"]

    requests = calls("netguard.handle")
    outcomes = {k: counts["netguard.disposition." + k]
                for k in ("handled", "blocked_protocol", "malformed", "tls_rejected")}
    return {
        "rng.draws": calls("rng.draw"),
        "rng.self_s": self_s("rng.draw"),
        "monkey.events": calls("monkey.event"),
        "monkey.self_s": self_s("monkey.event", "monkey.run_monkey"),
        "monkey.hit_ratio": _ratio(counts["monkey.hits"], counts["monkey.taps"]),
        "session.steps": calls("session.step"),
        "session.self_s": self_s("session.step"),
        "app_model.chain_calls": calls("app_model.run_event_chain"),
        "app_model.chain_s": total("app_model.run_event_chain"),
        "app_model.matched_ratio": _ratio(counts["chain.matched"], counts["chain.steps"]),
        "app_model.load_calls": calls("app_model.load"),
        "app_model.load_s": total("app_model.load"),
        "app_model.dump_calls": calls("app_model.dump_hierarchy"),
        "app_model.oracle_s": total("app_model.reachable_blocks"),
        "app_model.oracle_states": calls("app_model.oracle_expand"),
        "explorer.events": calls("explorer.issue"),
        "explorer.relaunches": counts["explorer.relaunches"],
        "explorer.self_s": self_s("explorer.explore", "explorer.issue"),
        "trace.record_calls": calls("trace.record"),
        "trace.self_s": self_s("trace.record"),
        "trace.visible_ratio": _ratio(counts["trace.visible"], counts["trace.candidates"]),
        "telephony.decisions": calls("telephony.filter_outgoing"),
        "telephony.delivered_ratio": _ratio(counts["telephony.delivered"],
                                            calls("telephony.filter_outgoing")),
        "netguard.requests": requests,
        "netguard.handle_s": total("netguard.handle"),
        "netguard.handled_ratio": _ratio(outcomes["handled"], requests),
        **{f"netguard.disposition.{k}": v for k, v in outcomes.items()},
        "netguard.disposition.raised": requests - sum(outcomes.values()),
        "netguard.request_tail_us": tail_percentile(durations("netguard.handle")) / 1e3,
        "netguard.request_samples": requests,
        "netguard.decode_records": counts["netguard.decode_records"],
        "netguard.decode_s": total("netguard.parse_capture_log"),
        "netguard.log_bytes": counts["netguard.log_bytes"],
        "coverage.measure_s": total("coverage.measure"),
        "harness.write_s": total("harness.write_outputs"),
        "harness.session_tail_ms": tail_percentile(durations("harness.session")) / 1e6,
        "harness.sessions": calls("harness.session"),
        "corpus.build_s": total("corpus.write_corpus"),
    }
