"""Experiment driver: runs the testing methods over a corpus.

For every app and method a fresh device is provisioned, the session is
executed with the full platform wired in (tracing, telephony policy,
network pipeline), coverage is measured, and the environment is cleaned
and verified. All three methods share one per-app seed so the random
sub-stream inside the combined engine equals the standalone random run.
That is also why, when a run includes both monkey and smart_monkey, each
smart_monkey session starts from a copy of the app's finished monkey
session and its NetGuard, and only the explorer runs on top of it: the
monkey phase would replay exactly the same events.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .app_model import AppModel, install_app, load_app_model
from .coverage import (
    AggregateRow,
    CoverageReport,
    aggregate,
    measure,
    per_app_csv,
)
from .explorer import (
    DEFAULT_BASELINE,
    DEFAULT_WHITELIST,
    ExplorationConfig,
    baseline_device,
    cleanup,
    explore,
)
from .monkey import MonkeyConfig, run_monkey
from .netguard import (
    PUBLIC_ROOT,
    NetGuard,
    ReputationProvider,
    ServerIdentity,
    SignatureDb,
    load_reputation,
    load_signature_db,
)
from .rng import derive_seed
from .session import Session, SessionRunner

METHODS = ("monkey", "smart", "smart_monkey")
METHOD_LABELS = {"monkey": "Monkey", "smart": "Smart", "smart_monkey": "Smart Monkey"}

RESULT_COLUMNS = ("Method", "Classes average coverage", "Methods average coverage",
                  "Blocks average coverage", "Crash rate")


class ExperimentError(RuntimeError):
    """Fatal experiment problem (unreadable or empty corpus, bad config)."""


# Server identities known to the TLS fixture set. Pinned identities model
# banking-style apps that embed their own root.
DEFAULT_IDENTITIES = {
    "secure.bank.example": ServerIdentity("secure.bank.example", "bank-embedded-root", pinned=True),
    "pay.wallet.example": ServerIdentity("pay.wallet.example", "wallet-embedded-root", pinned=True),
    "cfg.adsmogo.com": ServerIdentity("cfg.adsmogo.com", PUBLIC_ROOT, pinned=False),
    "telemetry.trusted.example": ServerIdentity("telemetry.trusted.example", PUBLIC_ROOT, pinned=False),
    "api.unknown.example": ServerIdentity("api.unknown.example", PUBLIC_ROOT, pinned=False),
}


def default_signatures() -> SignatureDb:
    with resources.as_file(resources.files("droidcage.data") / "signatures.txt") as p:
        return load_signature_db(p)


def default_reputation() -> ReputationProvider:
    with resources.as_file(resources.files("droidcage.data") / "reputation.txt") as p:
        return load_reputation(p)


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: Path
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    monkey_events: int = 500
    max_events: int = 2000
    reputation_threshold: int = 60
    workers: int = 1
    formats: tuple[str, ...] = ("human", "csv")

    def __post_init__(self):
        if not self.methods:
            raise ExperimentError("at least one testing method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ExperimentError(f"unknown method {m!r}")


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple[AggregateRow, ...]


@dataclass
class ExperimentResult:
    table: ResultsTable
    per_app: list[tuple[str, CoverageReport]] = field(default_factory=list)
    sessions: dict = field(default_factory=dict)   # (method, package) -> Session
    capture_log: str = ""
    traces: dict = field(default_factory=dict)     # (method, package) -> str


def load_corpus_dir(path: str | Path) -> list[tuple[str, AppModel]]:
    path = Path(path)
    if not path.is_dir():
        raise ExperimentError(f"corpus directory not found: {path}")
    entries = []
    for f in sorted(path.glob("*.app")):
        entries.append((f.stem, load_app_model(f)))
    if not entries:
        raise ExperimentError(f"no .app models in {path}")
    return entries


def _make_guard(config: ExperimentConfig, signatures: SignatureDb,
                reputation: ReputationProvider) -> NetGuard:
    return NetGuard(signatures, reputation,
                    threshold=config.reputation_threshold,
                    identities=DEFAULT_IDENTITIES)


def _run_one(app: AppModel, method: str, config: ExperimentConfig,
             signatures: SignatureDb, reputation: ReputationProvider,
             start: tuple[Session, NetGuard] | None = None):
    """One (method, app) session: run, measure, clean up.

    ``start`` is the app's finished monkey session and its guard; a
    smart_monkey job given it continues from copies of both instead of
    running the monkey phase again.
    """
    seed_app = derive_seed(config.seed, app.package)
    monkey_config = MonkeyConfig(seed=seed_app, event_count=config.monkey_events,
                                 package=app.package)
    if start is None:
        guard = _make_guard(config, signatures, reputation)
        runner = SessionRunner(app, install_app(baseline_device(), app), netguard=guard)
    else:
        session, guard = start[0].copy(), start[1].copy()
        runner = SessionRunner(app, session.device, netguard=guard, session=session)

    if method == "monkey":
        session = run_monkey(app, runner.device, monkey_config, runner=runner)
    else:
        explore_config = ExplorationConfig(
            seed=seed_app,
            max_events=config.max_events,
            run_monkey_first=(method == "smart_monkey" and start is None),
            monkey_config=monkey_config,
        )
        session = explore(app, explore_config, runner.device, runner=runner)

    report = measure(session, app)
    cleaned = cleanup(session.device, DEFAULT_WHITELIST, DEFAULT_BASELINE)
    if cleaned != baseline_device():
        raise ExperimentError(f"cleanup verification failed for {app.package}")
    return report, session, guard


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured method over the corpus and aggregate.

    Fully deterministic for a fixed seed: per-app seeds derive from the
    package name (so results are independent of corpus order), parallel
    workers only change scheduling, and results merge in corpus order.

    Jobs run in two waves. When both monkey and smart_monkey are asked
    for, the second wave holds the smart_monkey jobs: each starts from a
    copy of its app's finished monkey session (from the first wave) and
    runs only the explorer, since its monkey phase would replay the very
    same events. Everything else runs in the first wave, including
    smart_monkey on its own, which then runs its monkey phase itself.
    """
    corpus = load_corpus_dir(config.corpus)
    # Read once per run; every session still gets a NetGuard (and capture
    # log) of its own.
    signatures, reputation = default_signatures(), default_reputation()

    jobs = [(method, i) for method in config.methods for i in range(len(corpus))]
    chained = "monkey" in config.methods and "smart_monkey" in config.methods
    first = [job for job in jobs if not chained or job[0] != "smart_monkey"]
    second = [("smart_monkey", i) for i in range(len(corpus))] if chained else []

    def work(job, start=None):
        method, i = job
        # Through the module attribute, so a wrapper of _run_one sees every job.
        return _run_one(corpus[i][1], method, config, signatures, reputation, start)

    outcomes = {}
    parallel = config.workers > 1
    with ThreadPoolExecutor(max_workers=config.workers) if parallel else nullcontext() as pool:
        run_all = pool.map if parallel else map
        outcomes.update(zip(first, run_all(work, first)))
        starts = [outcomes[("monkey", i)][1:] for _, i in second]
        outcomes.update(zip(second, run_all(work, second, starts)))

    result = ExperimentResult(table=ResultsTable(()))
    rows = []
    capture_parts = []
    by_method: dict[str, list[CoverageReport]] = {m: [] for m in config.methods}
    for method, i in jobs:
        app = corpus[i][1]
        report, session, guard = outcomes[(method, i)]
        by_method[method].append(report)
        result.per_app.append((method, report))
        result.sessions[(method, app.package)] = session
        result.traces[(method, app.package)] = session.trace.to_text()
        capture_parts.append(guard.capture_text())
    result.capture_log = "".join(capture_parts)
    for method in config.methods:
        rows.append(aggregate(by_method[method], method))
    result.table = ResultsTable(tuple(rows))
    return result


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _pct(v: float) -> str:
    return f"{v:.2f}%"


def _crash_pct(v: float) -> str:
    return f"{v:g}%"


def emit_results(table: ResultsTable, format: str = "human") -> str:
    """Render the aggregate table (human, csv or structured text)."""
    if not table.rows:
        raise ValueError("results table is empty")
    if format == "human":
        data = [RESULT_COLUMNS]
        for row in table.rows:
            data.append((METHOD_LABELS.get(row.method, row.method),
                         _pct(row.classes_avg), _pct(row.methods_avg),
                         _pct(row.blocks_avg), _crash_pct(row.crash_rate)))
        widths = [max(len(r[c]) for r in data) for c in range(len(RESULT_COLUMNS))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in data]
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "classes_avg", "methods_avg", "blocks_avg", "crash_rate"])
        for row in table.rows:
            writer.writerow([row.method, repr(row.classes_avg), repr(row.methods_avg),
                             repr(row.blocks_avg), repr(row.crash_rate)])
        return buf.getvalue()
    if format == "structured":
        payload = [
            {"method": r.method, "classes_avg": r.classes_avg,
             "methods_avg": r.methods_avg, "blocks_avg": r.blocks_avg,
             "crash_rate": r.crash_rate}
            for r in table.rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")


def parse_results_csv(text: str) -> ResultsTable:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["method", "classes_avg", "methods_avg", "blocks_avg", "crash_rate"]:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = [AggregateRow(m, float(c), float(me), float(b), float(cr))
            for m, c, me, b, cr in reader]
    return ResultsTable(tuple(rows))


def write_outputs(result: ExperimentResult, out_dir: str | Path,
                  formats: tuple[str, ...] = ("human", "csv")) -> list[Path]:
    """Write all experiment artifacts; byte-identical for identical runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, text: str):
        p = out / name
        p.write_text(text, encoding="utf-8")
        written.append(p)

    if "human" in formats:
        put("results.txt", emit_results(result.table, "human"))
    if "csv" in formats:
        put("summary.csv", emit_results(result.table, "csv"))
        put("per_app.csv", per_app_csv(result.per_app))
    if "structured" in formats:
        put("results.json", emit_results(result.table, "structured"))
    put("capture.log", result.capture_log)
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for (method, package), text in sorted(result.traces.items()):
        p = trace_dir / f"{package}__{method}.trace"
        p.write_text(text, encoding="utf-8")
        written.append(p)
    return written
