"""The three workloads: inputs from the seed, one timed pass, and its checks.

Each workload has ``setup`` (build the inputs; timed as set-up) and
``run_pass`` (one timed pass over them, returning a ``Pass``), plus
``final_check`` for checks that need every pass. Calls into droidcage go
through module attributes (``harness.run_experiment``, not an imported
name) so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from droidcage import app_model, corpus, explorer, harness, netguard
from droidcage import session as session_mod

import generators
from spans import Patches

# The seed whose corpus200 output directory digest is recorded below; every
# corpus200 run checks it, so a change that alters the bytes of
# ``droidcage run`` output fails the benchmark until the digest is updated.
DEFAULT_SEED = 0
CORPUS200_DIGEST = "5cb3ab28a491c9b22989e175a44302fa0a6b0e2ce7d44dbcedd29cc3ab05ee46"
CORPUS_APPS = 200
REPUTATION_THRESHOLD = 60


@dataclass
class Pass:
    wall_s: float               # the whole pass
    items: int                  # events (corpus200, bigapp) or requests (netcapture)
    drive_s: float              # the part of the pass that drives the items
    jobs_ms: array              # each job's time in that part, in pass order
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    output_bytes: int = 0
    digest: str = ""
    cpu_util: float = 0.0       # process and children CPU time / wall time


def timed(fn, sink: array):
    """``fn`` with each call's duration appended to ``sink`` in milliseconds
    (also when the call raises)."""
    clock, append = perf_counter_ns, sink.append

    def job(*args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            append((clock() - t) / 1e6)
    return job


def digest_dir(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, in path order,
    plus the total byte count."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


# --- corpus200 -----------------------------------------------------------

class Corpus200:
    """``droidcage run --corpus <dir> --seed <seed> --out <dir>`` with default
    flags over a 200-app synthetic corpus: 600 sessions."""

    name = "corpus200"
    # Set-up plus one pass in seconds, untraced and traced, on the 2-vCPU host
    # the benchmark was written on; ``run.pass_count`` makes pass counts of them.
    cycle_s, traced_cycle_s = 4.3, 10.0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self._n = 0

    def _fresh(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}{self._n}"

    def setup(self):
        path = self._fresh("corpus")
        corpus.write_corpus(path, self.seed, CORPUS_APPS)
        return path

    def _experiment(self, corpus_dir: Path, seed: int, session_ms: array):
        """What the CLI's ``run`` does, with each (method, app) session's
        time appended to ``session_ms``. Returns the result, the output
        directory and the time of ``run_experiment``."""
        out = self._fresh("out")
        with Patches() as patches:
            patches.set(harness, "_run_one", timed(harness._run_one, session_ms))
            t0 = perf_counter()
            config = harness.ExperimentConfig(corpus=corpus_dir, seed=seed)
            result = harness.run_experiment(config)
            run_s = perf_counter() - t0
            harness.write_outputs(result, out, config.formats)
        return result, out, run_s

    def run_pass(self, corpus_dir: Path) -> Pass:
        """Run and write outputs; the jobs are the sessions."""
        session_ms = array("d")
        t0 = perf_counter()
        result, out, run_s = self._experiment(corpus_dir, self.seed, session_ms)
        wall_s = perf_counter() - t0
        events = sum(len(s.events) for s in result.sessions.values())
        p = Pass(wall_s, events, run_s, session_ms, attempted=len(result.sessions))
        p.errors = self._check(result)
        p.digest, p.output_bytes = digest_dir(out)
        shutil.rmtree(out)
        return p

    @staticmethod
    def _check(result) -> list[str]:
        errors = []
        if len(result.sessions) != 3 * CORPUS_APPS:
            errors.append(f"corpus200: {len(result.sessions)} sessions, expected {3 * CORPUS_APPS}")
        for method, r in result.per_app:
            if not (r.blocks_executed <= r.blocks_total and r.methods_executed <= r.methods_total
                    and r.classes_executed <= r.classes_total):
                errors.append(f"corpus200: {method}/{r.package} coverage count above its total")
        log = result.capture_log
        records = netguard.parse_capture_log(log)
        if "".join(netguard.write_log_entry(tx) for tx in records) != log:
            errors.append("corpus200: capture log does not round-trip")
        handled = sum(o.tag == "net_handled" for s in result.sessions.values() for o in s.effects)
        if len(records) != handled:
            errors.append(f"corpus200: {len(records)} capture records for {handled} handled requests")
        return errors

    def final_check(self, passes: list[Pass]) -> list[str]:
        digests = {p.digest for p in passes}
        if len(digests) != 1:
            return [f"corpus200: output differs between passes of seed {self.seed}"]
        digest = digests.pop()
        if self.seed != DEFAULT_SEED:
            default_corpus = self._fresh("corpus-default")
            corpus.write_corpus(default_corpus, DEFAULT_SEED, CORPUS_APPS)
            _, out, _ = self._experiment(default_corpus, DEFAULT_SEED, array("d"))
            digest, _ = digest_dir(out)
            shutil.rmtree(out)
        if digest != CORPUS200_DIGEST:
            return [f"corpus200: seed {DEFAULT_SEED} output digest {digest} "
                    f"!= recorded {CORPUS200_DIGEST}"]
        return []


# --- bigapp ----------------------------------------------------------------

class BigApp:
    """Smart exploration of one ~2000-screen chain app, then the oracle."""

    name = "bigapp"
    cycle_s, traced_cycle_s = 3.4, 4.0
    budget = 2 * generators.BIGAPP_SCREENS * generators.BIGAPP_BUTTONS

    def __init__(self, work: Path, seed: int):
        self.seed = seed

    def setup(self):
        doc = generators.bigapp_doc(self.seed)
        return app_model.model_from_dict(doc, source="bigapp")

    def run_pass(self, app) -> Pass:
        """Explore, then the oracle; the jobs are the explorer's events
        (``SessionRunner.step``)."""
        config = explorer.ExplorationConfig(seed=self.seed, max_events=self.budget)
        step_ms = array("d")
        with Patches() as patches:
            patches.set(session_mod.SessionRunner, "step",
                        timed(session_mod.SessionRunner.step, step_ms))
            t0 = perf_counter()
            session = explorer.explore(
                app, config, app_model.install_app(explorer.baseline_device(), app))
            explore_s = perf_counter() - t0
        oracle = app_model.reachable_blocks(app)
        wall_s = perf_counter() - t0
        p = Pass(wall_s, len(session.events), explore_s, step_ms, attempted=2)
        every = {b.id for b in app.blocks}
        if session.crashed or session.executed_blocks != oracle:
            p.errors.append(f"bigapp: explorer reached {len(session.executed_blocks)} blocks, "
                            f"oracle {len(oracle)}")
        if oracle != every:
            p.errors.append(f"bigapp: oracle reached {len(oracle)} of {len(every)} blocks")
        return p

    def final_check(self, passes: list[Pass]) -> list[str]:
        return []


# --- netcapture ------------------------------------------------------------

class NetCapture:
    """A seeded request stream through one NetGuard, then the log read back."""

    name = "netcapture"
    cycle_s, traced_cycle_s = 2.4, 3.0

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.raised: dict[str, int] = {}

    def setup(self):
        sigs = harness.default_signatures()
        rep = harness.default_reputation()
        stream = generators.netcapture_stream(
            self.seed, [s.pattern for s in sigs.signatures], rep.scores, REPUTATION_THRESHOLD)
        return sigs, rep, stream

    def run_pass(self, inputs) -> Pass:
        sigs, rep, stream = inputs
        # Built like harness._make_guard: packaged signatures and reputation,
        # the harness's TLS identities.
        guard = netguard.NetGuard(sigs, rep, threshold=REPUTATION_THRESHOLD,
                                  identities=harness.DEFAULT_IDENTITIES)
        outcomes = [None] * len(stream)
        handle_ms = array("d")
        handle = timed(guard.handle, handle_ms)
        t0 = perf_counter()
        for i, req in enumerate(stream):
            try:
                outcomes[i] = handle(req.data, req.protocol, req.server)
            except Exception as e:  # a raising handle is a failed request
                name = type(e).__name__
                self.raised[name] = self.raised.get(name, 0) + 1
        handle_s = perf_counter() - t0
        records = netguard.parse_capture_log(guard.capture_text())
        wall_s = perf_counter() - t0
        p = Pass(wall_s, len(stream), handle_s, handle_ms, attempted=len(stream))
        self._check(stream, outcomes, guard, records, p)
        return p

    @staticmethod
    def _check(stream, outcomes, guard, records, p: Pass) -> None:
        handled = []
        for req, out in zip(stream, outcomes):
            hostile = req.kind in generators.HOSTILE_CLASSES
            if out is None:
                if hostile:
                    p.failed += 1
                else:
                    p.errors.append(f"netcapture: handle raised on a {req.kind} request")
                continue
            if out.disposition == "handled":
                handled.append((req, out.transaction))
            if hostile:
                continue
            if out.disposition != req.disposition:
                p.errors.append(f"netcapture: {req.kind} request got {out.disposition}")
            elif req.verdict and out.verdict.kind != req.verdict:
                p.errors.append(f"netcapture: {req.kind} request got verdict {out.verdict.kind}")
        if len(records) != len(handled) or len(guard.capture_log) != len(handled):
            p.errors.append(f"netcapture: {len(records)} records decoded, "
                            f"{len(guard.capture_log)} logged, {len(handled)} handled")
            return
        for (req, tx), record, entry in zip(handled, records, guard.capture_log):
            if record == tx and netguard.write_log_entry(record) == entry:
                continue
            if req.kind in generators.HOSTILE_CLASSES:
                p.failed += 1
            else:
                p.errors.append(f"netcapture: a {req.kind} record does not round-trip")

    def final_check(self, passes: list[Pass]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Corpus200, BigApp, NetCapture)}
