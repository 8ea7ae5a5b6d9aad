"""droidcage benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload corpus200 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` and runs one pass over them, a
fixed number of times: as many as fill most of ``--seconds`` on the host the
benchmark was written on, so the count depends on ``--seconds`` and the
workload only. Every pass gets freshly built inputs; the end-to-end metrics
are medians over the passes, and the median build time is ``setup_s``. Every
pass's output is checked. The last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on traced cycles (set-up plus one pass,
with a span around every call into a droidcage layer) and reports the
per-layer metrics of ``layers.PER_LAYER``; the spans of the last cycle
are written under ``.bench_build/perfbench/``.

The exit status is 0 when every check passed, 1 when an output was wrong,
and 2 when the benchmark could not run (no ``src/droidcage`` next to it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
FILL = 0.8  # share of --seconds the passes take on the host the benchmark was written on
WORKLOAD_NAMES = ("corpus200", "bigapp", "netcapture")

# Host speed. The shared host the benchmark was written on runs the same
# pass up to 1.8x slower for minutes at a time, so a run that is slow
# throughout cannot be told from slower code by looking at the run alone.
# A fixed reference kernel (``_reference_kernel``) is timed between the
# passes, and each pass's times are scaled by REFERENCE_S over the kernel's
# median time just before and just after the pass: they read as seconds on
# a host where the kernel takes REFERENCE_S. The kernel is the benchmark's
# own code, so a change to droidcage cannot move it.
REFERENCE_S = 0.050
REFERENCE_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "job_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Put this checkout's ``src`` first on the path and import droidcage
    from there, never from an installed copy."""
    if not (SRC / "droidcage" / "__init__.py").is_file():
        _cannot_run(f"no droidcage sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import droidcage
    if Path(droidcage.__file__).resolve().parent != SRC / "droidcage":
        _cannot_run(f"imported droidcage from {droidcage.__file__}, not {SRC}")


def _cannot_run(reason: str):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def pass_count(seconds: float, cycle_s: float, least: int = MIN_PASSES) -> int:
    """How many cycles of ``cycle_s`` (set-up plus one pass on the host the
    benchmark was written on) fill FILL of ``seconds``. The count depends only on the arguments,
    never on how fast this run goes, so every commit runs the same passes."""
    return max(least, int(seconds * FILL / cycle_s))


def _reference_kernel() -> int:
    """Fixed pure-Python work of the kind droidcage does: a Python-level
    PRNG, string keys, dict updates, small tuples and lists, a keyed sort."""
    rng = random.Random(5)
    counts: dict[str, int] = {}
    for _ in range(60_000):
        key = f"k{rng.randrange(5000)}"
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    rows = [(i, str(i), [i] * 3) for i in range(30_000)]
    return len(ranked) + len(rows)


def _time_reference() -> list[float]:
    """REFERENCE_REPS timings of the reference kernel. The kernel makes no
    reference cycles, so collection stays off: its time must not depend on
    how big the workload's heap is."""
    samples = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            t0 = perf_counter()
            _reference_kernel()
            samples.append(perf_counter() - t0)
    finally:
        gc.enable()
    return samples


def _cycles(workload, count: int, scales: list | None = None, traced: list | None = None,
            span_path: Path | None = None) -> tuple[list, list]:
    """Set up and run one pass, ``count`` times. Every pass gets freshly
    built inputs, so work that a change moves between set-up and the pass
    shows on one side or the other.

    With ``scales``, the reference kernel is timed before every cycle and
    after the last, and each pass's host-speed scale (REFERENCE_S over the
    median kernel time just before and just after the pass) is appended to
    ``scales``.

    With ``traced``, each cycle runs under the layer wrappers, its per-layer
    metrics and pass wall time are appended to ``traced``, and its spans are
    written to ``span_path`` (so the file holds the last cycle's).
    """
    from layers import instrument, layer_metrics
    from spans import Patches, SpanRecorder

    setup_times, passes = [], []
    before = _time_reference() if scales is not None else []
    for _ in range(count):
        gc.collect()  # every pass starts from the same heap
        rec, counts = SpanRecorder(), Counter()
        with Patches() as patches:
            if traced is not None:
                instrument(rec, counts, patches)
            t0 = perf_counter()
            inputs = workload.setup()
            setup_times.append(perf_counter() - t0)
            cpu0, t1 = _cpu_seconds(), perf_counter()
            p = workload.run_pass(inputs)
            p.cpu_util = (_cpu_seconds() - cpu0) / (perf_counter() - t1)
        del inputs
        passes.append(p)
        if scales is not None:
            after = _time_reference()
            scales.append(REFERENCE_S / statistics.median(before + after))
            before = after
        if traced is not None:
            metrics = layer_metrics(rec, counts)
            metrics["harness.output_bytes"] = p.output_bytes
            traced.append((metrics, p.wall_s))
            rec.write(span_path)
    return setup_times, passes


def run(workload_name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](work, seed)
    budget = seconds / 2 if trace else seconds
    scales: list = []
    setup_times, passes = _cycles(workload, pass_count(budget, workload.cycle_s), scales)
    walls = [p.wall_s for p in passes]
    print("measured pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print("host-speed scale:     " + " ".join(f"{f:.4f}" for f in scales))

    def scaled(times):
        return statistics.median(t * f for t, f in zip(times, scales))

    values = {
        "setup_s": scaled(setup_times),
        "wall_s": scaled(walls),
        "throughput_per_s": passes[0].items / scaled(p.drive_s for p in passes),
        "job_p50_ms": scaled(statistics.median(p.jobs_ms) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    cpu_util = statistics.median(p.cpu_util for p in passes)
    traced: list = []
    if trace:
        _, traced_passes = _cycles(workload, pass_count(budget, workload.traced_cycle_s, 1),
                                   traced=traced, span_path=work.parent / f"spans-{workload_name}")
        passes += traced_passes

    errors = [e for p in passes for e in p.errors] + workload.final_check(passes)
    if len({(p.items, len(p.jobs_ms)) for p in passes}) != 1:
        errors.append(f"{workload_name}: passes of one seed did different amounts of work")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if trace:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        cycles = [metrics for metrics, _ in traced]
        values = {name: statistics.median(c[name] for c in cycles)
                  for name in units if name in cycles[0]}
        values["trace_overhead"] = statistics.median(wall for _, wall in traced) / statistics.median(walls)
        values["harness.cpu_util"] = cpu_util
        values["failed_ratio"] = failed / attempted
    else:
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    raised = getattr(workload, "raised", None)
    if raised:
        print(f"perfbench: handle raised {raised} (counted as failed)", file=sys.stderr)
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    print(f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
