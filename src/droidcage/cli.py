"""Command-line interface.

Subcommands: ``run`` (full corpus experiment), ``explore`` (single app),
``monkey`` (random baseline, flags mirroring the real tool), ``proxy-check``
(pipeline verdict for a raw request file), ``decode-log`` (capture-log
round trip) and ``make-corpus`` (materialize the synthetic corpus).
A command exits 1, printing ``error: <message>``, exactly when it raises one
of ``FATAL_ERRORS``; ``main`` is the one place that picks the exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .app_model import ModelParseError, ModelValidationError, install_app, load_app_model
from .corpus import write_corpus
from .data_tables import ConfigError, DataTableError
from .explorer import ExplorationConfig, baseline_device
from .harness import (
    FORMATS,
    METHODS,
    AppSetup,
    ExperimentConfig,
    ExperimentError,
    _run_one,
    emit_results,
    run_experiment,
    write_outputs,
)
from .monkey import MonkeyConfig
from .netguard import (
    DEFAULT_IDENTITIES,
    DEFAULT_REPUTATION_THRESHOLD,
    LogDecodeError,
    NetGuard,
    default_reputation,
    default_signatures,
    load_reputation,
    load_signature_db,
    parse_capture_log,
    write_log_entry,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="droidcage")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment over a corpus")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--corpus", required=True, type=Path)
    run.add_argument("--methods", default=",".join(METHODS),
                     help="comma-separated subset of " + ",".join(METHODS))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--monkey-events", type=int, default=ExperimentConfig.monkey_events)
    run.add_argument("--max-events", type=int, default=ExperimentConfig.max_events)
    run.add_argument("--threshold", type=int, default=ExperimentConfig.reputation_threshold)
    run.add_argument("--formats", default=",".join(ExperimentConfig.formats),
                     help="comma-separated subset of " + ",".join(FORMATS))
    run.add_argument("--out", type=Path, default=Path("results"))

    exp = sub.add_parser("explore", help="explore a single app model")
    exp.set_defaults(handler=_cmd_explore)
    exp.add_argument("--app", required=True, type=Path)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--max-events", type=int, default=ExplorationConfig.max_events)
    exp.add_argument("--monkey-first", action="store_true")

    mk = sub.add_parser("monkey", help="random-event baseline for one app")
    mk.set_defaults(handler=_cmd_monkey)
    mk.add_argument("--app", required=True, type=Path)
    mk.add_argument("-s", "--seed", type=int, default=0)
    mk.add_argument("--pct-syskeys", type=int, default=0)
    mk.add_argument("--pct-appswitch", type=int, default=0)
    mk.add_argument("--throttle", type=int, default=MonkeyConfig.throttle_ms)
    mk.add_argument("-p", "--package", default="")
    mk.add_argument("-v", "--events", type=int, default=MonkeyConfig.event_count,
                    help="number of events to send")

    px = sub.add_parser("proxy-check", help="pipeline verdict for a raw request")
    px.set_defaults(handler=_cmd_proxy_check)
    px.add_argument("--request", required=True, type=Path)
    px.add_argument("--protocol", default="http")
    px.add_argument("--server", help="the server the app contacts; an HTTPS request to a "
                                     "pinned server is rejected")
    px.add_argument("--signatures", type=Path)
    px.add_argument("--reputation", type=Path)
    px.add_argument("--threshold", type=int, default=DEFAULT_REPUTATION_THRESHOLD)

    dl = sub.add_parser("decode-log", help="decode a base64 capture log")
    dl.set_defaults(handler=_cmd_decode_log)
    dl.add_argument("--log", required=True, type=Path)
    dl.add_argument("--verify", action="store_true",
                    help="re-encode and check the round trip")

    mc = sub.add_parser("make-corpus", help="write the synthetic corpus")
    mc.set_defaults(handler=_cmd_make_corpus)
    mc.add_argument("--out", required=True, type=Path,
                    help="directory for the .app files; .app files there that this "
                         "call does not write are removed, other files kept")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--count", type=int, default=20)
    return parser


def _cmd_run(args) -> None:
    config = ExperimentConfig(
        corpus=args.corpus,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        seed=args.seed,
        monkey_events=args.monkey_events,
        max_events=args.max_events,
        reputation_threshold=args.threshold,
        formats=tuple(f.strip() for f in args.formats.split(",") if f.strip()),
    )
    result = run_experiment(config)
    write_outputs(result, args.out, config.formats)
    sys.stdout.write(emit_results(result.rows, "human"))


def _run_single(app, method: str, monkey: MonkeyConfig, exploration: ExplorationConfig) -> None:
    """Run one session of ``app`` through the experiment's checked path and print it."""
    guard = NetGuard(default_signatures(), default_reputation(), identities=DEFAULT_IDENTITIES)
    report, runner = _run_one(AppSetup(app, install_app(baseline_device(), app), monkey,
                                       exploration), method, guard)
    print(f"events sent: {len(runner.session.events)}")
    print(f"{report.package}: blocks {report.blocks_executed}/{report.blocks_total}"
          f" ({100 * report.block_ratio:.2f}%)"
          f" methods {report.methods_executed}/{report.methods_total}"
          f" classes {report.classes_executed}/{report.classes_total}"
          f"{' CRASHED' if report.crashed else ''}")


def _cmd_explore(args) -> None:
    app = load_app_model(args.app)
    _run_single(app, "smart_monkey" if args.monkey_first else "smart",
                MonkeyConfig(seed=args.seed, package=app.package),
                ExplorationConfig(seed=args.seed, max_events=args.max_events))


def _cmd_monkey(args) -> None:
    app = load_app_model(args.app)
    config = MonkeyConfig(seed=args.seed, pct_syskeys=args.pct_syskeys,
                          pct_appswitch=args.pct_appswitch,
                          throttle_ms=args.throttle, event_count=args.events,
                          package=args.package or app.package)
    _run_single(app, "monkey", config, ExplorationConfig())


def _cmd_proxy_check(args) -> None:
    sigs = load_signature_db(args.signatures) if args.signatures else default_signatures()
    rep = load_reputation(args.reputation) if args.reputation else default_reputation()
    guard = NetGuard(sigs, rep, threshold=args.threshold, identities=DEFAULT_IDENTITIES)
    outcome = guard.handle(args.request.read_bytes(), args.protocol, args.server)
    if outcome.disposition == "malformed":
        print("malformed request (dropped)")
    elif outcome.disposition == "tls_rejected":
        print("tls rejected")
    else:
        verdict = outcome.verdict
        detail = verdict.signature_id or verdict.reason
        print(f"verdict: {verdict.kind}" + (f" ({detail})" if detail else ""))


def _cmd_decode_log(args) -> None:
    text = args.log.read_text(encoding="utf-8")
    transactions = parse_capture_log(text)
    for tx in transactions:
        line = (f"{tx.method} {tx.scheme}://{tx.host}:{tx.port}{tx.path}"
                f" [{len(tx.headers)} headers, {len(tx.content)} content bytes]")
        # The log holds what the app sent: never echo a control character.
        print(line if line.isprintable() else line.encode("unicode_escape").decode("ascii"))
    if args.verify:
        # Record by record, so no second copy of the log is built: records
        # are self-delimiting, so the log round-trips when each record does.
        if any(parse_capture_log(write_log_entry(tx)) != [tx] for tx in transactions):
            raise LogDecodeError("round-trip FAILED")
        print(f"round-trip ok ({len(transactions)} records)")


def _cmd_make_corpus(args) -> None:
    paths = write_corpus(args.out, seed=args.seed, count=args.count)
    print(f"wrote {len(paths)} app models to {args.out}")


# The errors a subcommand may end with: each is printed, and exits 1.
FATAL_ERRORS = (ExperimentError, ConfigError, ModelParseError, ModelValidationError,
                LogDecodeError, DataTableError, OSError, UnicodeDecodeError)


def main(argv: list[str] | None = None) -> int:
    # Built here, so the parser holds the handlers as they are at the call.
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except FATAL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
