"""Experiment driver: runs the testing methods over a corpus.

For every app and method a fresh device is provisioned, the session is
executed with the full platform wired in (tracing, telephony and network
control), coverage is measured, and the session's containment and the
device's cleanup are verified. All three methods share one per-app seed
so the random sub-stream inside the combined engine equals the standalone
random run. That is also why, when a run includes both monkey and
smart_monkey, each smart_monkey session starts from a copy of the app's
finished monkey session and its NetGuard, and only the explorer runs on
top of it: the monkey phase would replay exactly the same events.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .app_model import AppModel, DeviceState, install_app, load_app_model
from .coverage import (
    AggregateRow,
    CoverageReport,
    aggregate,
    measure,
    per_app_csv,
)
from .data_tables import ConfigError
from .explorer import (
    ExplorationConfig,
    baseline_device,
    cleanup,
    explore,
)
from .monkey import MonkeyConfig, run_monkey
from .netguard import (
    DEFAULT_IDENTITIES,
    DEFAULT_REPUTATION_THRESHOLD,
    NetGuard,
    check_threshold,
    default_reputation,
    default_signatures,
)
from .rng import derive_seed
from .session import Session, SessionRunner, contained

METHOD_LABELS = {"monkey": "Monkey", "smart": "Smart", "smart_monkey": "Smart Monkey"}
METHODS = tuple(METHOD_LABELS)
# Each format's result files, each with what renders it from an
# ExperimentResult; capture.log and the traces are always written.
_FORMAT_FILES = {
    "human": {"results.txt": lambda result: emit_results(result.rows, "human")},
    "csv": {"summary.csv": lambda result: emit_results(result.rows, "csv"),
            "per_app.csv": lambda result: per_app_csv(result.per_app)},
    "structured": {"results.json": lambda result: emit_results(result.rows, "structured")},
}
FORMATS = tuple(_FORMAT_FILES)

RESULT_COLUMNS = ("Method", "Classes average coverage", "Methods average coverage",
                  "Blocks average coverage", "Crash rate")


class ExperimentError(RuntimeError):
    """Fatal experiment problem (unreadable or empty corpus, bad config)."""


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: Path
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    monkey_events: int = MonkeyConfig.event_count
    max_events: int = ExplorationConfig.max_events
    reputation_threshold: int = DEFAULT_REPUTATION_THRESHOLD
    formats: tuple[str, ...] = ("human", "csv")

    def __post_init__(self):
        if not self.methods:
            raise ExperimentError("at least one testing method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ExperimentError(f"unknown method {m!r}")
            if self.methods.count(m) > 1:
                raise ExperimentError(f"method {m!r} is listed twice")
        for f in self.formats:
            if f not in FORMATS:
                raise ExperimentError(f"unknown format {f!r}")
        try:
            check_threshold(self.reputation_threshold)
            # Checked here by the engines' own configs, not only where the
            # monkey or the explorer runs, so that a flag's contract does
            # not depend on the methods asked for.
            MonkeyConfig(seed=self.seed, event_count=self.monkey_events)
            ExplorationConfig(seed=self.seed, max_events=self.max_events)
        except ConfigError as e:
            raise ExperimentError(str(e)) from None


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[AggregateRow, ...]
    per_app: list[tuple[str, CoverageReport]]
    sessions: dict[tuple[str, str], Session]  # keyed by (method, package)
    capture_log: str


def load_corpus_dir(path: str | Path) -> list[AppModel]:
    """The models of the ``*.app`` files in ``path``, in file-name order."""
    path = Path(path)
    if not path.is_dir():
        raise ExperimentError(f"corpus directory not found: {path}")
    models, seen = [], {}
    for f in sorted(path.glob("*.app")):
        app = load_app_model(f)
        if app.package in seen:
            raise ExperimentError(
                f"{seen[app.package]} and {f} both declare package {app.package!r}")
        seen[app.package] = f
        models.append(app)
    if not models:
        raise ExperimentError(f"no .app models in {path}")
    return models


class AppSetup(NamedTuple):
    """What every job of one app starts from, built once per app."""

    app: AppModel
    device: DeviceState  # the clean device with the app installed
    monkey: MonkeyConfig
    explore: ExplorationConfig


def app_setup(app: AppModel, config: ExperimentConfig) -> AppSetup:
    """The app's setup under ``config``. All three methods give the app one
    seed, derived from the run seed and the package name."""
    seed_app = derive_seed(config.seed, app.package)
    return AppSetup(app, install_app(baseline_device(), app),
                    MonkeyConfig(seed=seed_app, event_count=config.monkey_events,
                                 package=app.package),
                    ExplorationConfig(seed=seed_app, max_events=config.max_events))


def _run_one(setup: AppSetup, method: str, guard: NetGuard,
             start: SessionRunner | None = None) -> tuple[CoverageReport, SessionRunner]:
    """One (method, app) session: run, measure, check containment, clean up.

    A fresh job's runner gets a copy of ``guard``. ``start`` is the runner
    of the app's finished monkey job; a smart_monkey job given it
    continues from a copy of it instead of running the monkey phase again.
    """
    app = setup.app
    if start is None:
        runner = SessionRunner(app, setup.device, netguard=guard.copy())
        # smart_monkey is the monkey phase, then the explorer, on one runner.
        if method != "smart":
            run_monkey(runner, setup.monkey)
    else:
        runner = start.copy()
    if method != "monkey":
        explore(app, setup.explore, runner.device, runner=runner)

    report = measure(runner.session, app)
    if not contained(runner.session, app.own_number):
        raise ExperimentError(f"containment breached by {app.package}")
    if cleanup(runner.device) != baseline_device():
        raise ExperimentError(f"cleanup verification failed for {app.package}")
    return report, runner


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured method over the corpus and aggregate.

    Fully deterministic for a fixed seed: per-app seeds derive from the
    package name (so results are independent of corpus order), and results
    merge by method, then in corpus order.

    Jobs run one after another. When both monkey and smart_monkey are
    asked for, the smart_monkey jobs run last: each starts from a copy of
    its app's finished monkey session and runs only the explorer, since
    its monkey phase would replay the very same events. smart_monkey on
    its own runs its monkey phase itself.
    """
    corpus = load_corpus_dir(config.corpus)
    # Built once per run; every session gets a copy, and capture log, of its own.
    guard = NetGuard(default_signatures(), default_reputation(),
                     threshold=config.reputation_threshold, identities=DEFAULT_IDENTITIES)

    # Built once per app, not once per job.
    setups = [app_setup(app, config) for app in corpus]

    chained = "monkey" in config.methods and "smart_monkey" in config.methods
    outcomes = {}
    for method in sorted(config.methods, key=lambda m: chained and m == "smart_monkey"):
        for i, setup in enumerate(setups):
            start = outcomes["monkey", i][1] if chained and method == "smart_monkey" else None
            # Through the module attribute, so a wrapper of _run_one sees every job.
            outcomes[method, i] = _run_one(setup, method, guard, start)

    # The run's capture log is every job's entries, joined once.
    rows, per_app, sessions, entries = [], [], {}, []
    for method in config.methods:
        reports = []
        for i, app in enumerate(corpus):
            report, runner = outcomes[method, i]
            reports.append(report)
            per_app.append((method, report))
            sessions[method, app.package] = runner.session
            entries += runner.netguard.capture_log
        rows.append(aggregate(reports, method))
    return ExperimentResult(tuple(rows), per_app, sessions, "".join(entries))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _pct(v: float) -> str:
    return f"{v:.2f}%"


def _crash_pct(v: float) -> str:
    return f"{v:g}%"


def emit_results(rows: tuple[AggregateRow, ...], format: str) -> str:
    """Render the aggregate rows (human, csv or structured text)."""
    if not rows:
        raise ValueError("results table is empty")
    if format == "human":
        data = [RESULT_COLUMNS]
        for row in rows:
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
        for row in rows:
            writer.writerow([row.method, repr(row.classes_avg), repr(row.methods_avg),
                             repr(row.blocks_avg), repr(row.crash_rate)])
        return buf.getvalue()
    if format == "structured":
        payload = [
            {"method": r.method, "classes_avg": r.classes_avg,
             "methods_avg": r.methods_avg, "blocks_avg": r.blocks_avg,
             "crash_rate": r.crash_rate}
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")


def write_outputs(result: ExperimentResult, out_dir: str | Path,
                  formats: tuple[str, ...]) -> None:
    """Write all experiment artifacts; byte-identical for identical runs.

    A result file or trace an earlier run left in ``out_dir`` that this
    run does not write is removed first, so the directory holds one run;
    any other file is left alone.
    """
    files = {name: render(result) for f, renderers in _FORMAT_FILES.items() if f in formats
             for name, render in renderers.items()}
    files["capture.log"] = result.capture_log
    traces = {f"{package}__{method}.trace": session
              for (method, package), session in sorted(result.sessions.items())}

    out = Path(out_dir)
    trace_dir = out / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for renderers in _FORMAT_FILES.values():
        for name in renderers.keys() - files.keys():
            (out / name).unlink(missing_ok=True)
    for p in trace_dir.glob("*.trace"):
        if p.name not in traces:
            p.unlink()

    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    for name, session in traces.items():
        (trace_dir / name).write_text("".join(call + "\n" for call in session.trace),
                                      encoding="utf-8")
