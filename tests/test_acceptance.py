"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (a failed assertion is the FAIL line). Stated tolerances and
runtime budgets are pinned in the assertions themselves.
"""

import base64
import time

import pytest

from droidcage.app_model import install_app, load_app_model, reachable_blocks
from droidcage.corpus import build_corpus, write_corpus
from droidcage.coverage import AggregateRow, improvement_ratio
from droidcage.explorer import (
    ExplorationConfig,
    baseline_device,
    cleanup,
    explore,
)
from droidcage.harness import (
    DEFAULT_IDENTITIES,
    ExperimentConfig,
    run_experiment,
)
from droidcage.monkey import MonkeyConfig
from droidcage.netguard import (
    NetGuard,
    ReputationProvider,
    Signature,
    SignatureDb,
    parse_capture_log,
    simulate_response,
    strip_payload,
    write_log_entry,
)
from droidcage.rng import Xoshiro256StarStar

from conftest import FIXTURES, TLS_SERVERS
from monkey_reference import generate_events

CORPUS_SEED = 0
CORPUS_SIZE = 20


def _ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE PASS [criterion {n}]: {message}")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance_corpus")
    write_corpus(d, seed=CORPUS_SEED, count=CORPUS_SIZE)
    return d


@pytest.fixture(scope="module")
def experiment(corpus_dir):
    config = ExperimentConfig(corpus=corpus_dir, seed=CORPUS_SEED)
    started = time.monotonic()
    result = run_experiment(config)
    return result, time.monotonic() - started


def test_criterion_1_arithmetic_reproduction():
    started = time.monotonic()
    combined = AggregateRow("smart_monkey", 37.12, 41.6, 41.23, 16.0)
    baseline = AggregateRow("monkey", 32.93, 35.05, 36.32, 16.0)
    ratio = improvement_ratio(combined, baseline)
    elapsed = time.monotonic() - started
    assert ratio == pytest.approx(1.1352, abs=1e-4)
    assert elapsed < 1.0
    _ok(1, f"41.23/36.32 = {ratio:.6f} = 1.1352 +/- 0.0001 in {elapsed:.3f}s")


def test_criterion_2_engine_discrimination(experiment):
    result, elapsed = experiment
    apps = build_corpus(CORPUS_SEED, CORPUS_SIZE)
    assert len(apps) >= 20
    assert sum(a.gated for a in apps) >= 6

    rows = {r.method: r for r in result.rows}
    gap = rows["smart_monkey"].blocks_avg - rows["monkey"].blocks_avg
    assert gap >= 10.0, f"blocks_avg gap {gap:.2f} below 10 points"

    per_app = {}
    for method, report in result.per_app:
        per_app.setdefault(report.package, {})[method] = report
    for package, methods in per_app.items():
        assert methods["smart_monkey"].blocks_executed >= methods["monkey"].blocks_executed, package
        sm = result.sessions[("smart_monkey", package)].executed_blocks
        mk = result.sessions[("monkey", package)].executed_blocks
        assert mk <= sm, f"monkey found blocks smart_monkey missed in {package}"

    assert elapsed < 60.0
    _ok(2, f"smart_monkey {rows['smart_monkey'].blocks_avg:.2f}% vs monkey "
           f"{rows['monkey'].blocks_avg:.2f}% (gap {gap:.2f} >= 10), "
           f"per-app dominance on {len(per_app)} apps, {elapsed:.1f}s < 60s")


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    eligible = [(a.name, a.model) for a in build_corpus(CORPUS_SEED, CORPUS_SIZE)
                if a.attainment_eligible]
    for name in ("tiny_taps", "one_button", "boot_gate"):
        eligible.append((name, load_app_model(FIXTURES / f"{name}.app")))
    assert eligible
    for name, app in eligible:
        oracle = reachable_blocks(app, max_states=10_000)
        session = explore(app, ExplorationConfig(seed=CORPUS_SEED, max_events=100_000),
                          install_app(baseline_device(), app))
        assert session.executed_blocks == set(oracle), name
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _ok(3, f"explore == reachable_blocks on {len(eligible)} eligible fixtures "
           f"in {elapsed:.1f}s < 120s")


def test_criterion_4_run_determinism(corpus_dir, tmp_path):
    from droidcage.cli import main

    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["run", "--corpus", str(corpus_dir), "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    compared = []
    for fname in ("summary.csv", "per_app.csv", "capture.log", "results.txt"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
        compared.append(fname)
    _ok(4, f"byte-identical outputs across two runs: {', '.join(compared)}")


def test_criterion_5_netguard_gate_soundness():
    sigs = SignatureDb((Signature("sig-dropper-01", b"MAL-DROP-001"),
                        Signature("sig-keylog-02", b"KEYLOG-XFIL")))
    rep = ReputationProvider({"telemetry.trusted.example": 92,
                              "cdn.bigco.example": 88})
    guard = NetGuard(sigs, rep, identities=DEFAULT_IDENTITIES)
    rng = Xoshiro256StarStar(99)

    total, handled = 1200, 0
    expected_forward_hosts = []
    for i in range(total):
        bucket = i % 4
        if bucket == 0:
            body = b"data=" + rng.alnum(6).encode() + b"MAL-DROP-001"
            raw = (f"POST /up{i} HTTP/1.1\r\nHost: evil{i}.example\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            outcome = guard.handle(raw)
            assert outcome.verdict.kind == "strip_and_redirect"
            assert outcome.response == simulate_response(
                strip_payload(outcome.transaction, sigs))
        elif bucket == 1:
            raw = f"GET /b{i} HTTP/1.1\r\nHost: telemetry.trusted.example\r\n\r\n".encode()
            outcome = guard.handle(raw)
            assert outcome.verdict.kind == "redirect_sim"
            assert outcome.response == simulate_response(outcome.transaction)
        elif bucket == 2:
            host = f"host{rng.alnum(8).lower()}.example"
            raw = f"GET /ok{i} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
            outcome = guard.handle(raw)
            assert outcome.verdict.kind == "forward"
            expected_forward_hosts.append(host)
        else:
            outcome = guard.handle(b"USER anonymous\r\n", "ftp")
            assert outcome.verdict.kind == "block"
        if outcome.disposition == "handled":
            handled += 1

    # zero strip/redirect transactions among the forwarded ones
    assert [tx.host for tx in guard.forwarded] == expected_forward_hosts

    # every capture entry round-trips exactly
    for entry in guard.capture_log:
        assert [write_log_entry(tx) for tx in parse_capture_log(entry)] == [entry]

    # annex vectors, both directions
    assert base64.b64encode(b"GET") == b"R0VU" and base64.b64decode("R0VU") == b"GET"
    assert base64.b64encode(b"http") == b"aHR0cA==" and base64.b64decode("aHR0cA==") == b"http"
    assert base64.b64encode(b"80") == b"ODA=" and base64.b64decode("ODA=") == b"80"

    _ok(5, f"{total} transactions: {handled} handled, "
           f"{len(guard.forwarded)} forwarded (all forward-verdict), "
           f"{len(guard.capture_log)} capture entries round-trip")


def test_criterion_6_pinning_behavior():
    pinned = nonpinned = 0
    for server in TLS_SERVERS:
        guard = NetGuard(identities=DEFAULT_IDENTITIES)
        res = guard.handle(f"GET / HTTP/1.1\r\nHost: {server}\r\n\r\n".encode(), "https",
                           server=server)
        if res.disposition == "tls_rejected":
            assert guard.capture_log == []  # zero plaintext entries
            pinned += 1
        else:
            assert res.disposition == "handled"
            assert [(tx.scheme, tx.host) for tx in parse_capture_log(guard.capture_text())] \
                == [("https", server)]
            nonpinned += 1
    assert pinned >= 2 and nonpinned >= 2
    _ok(6, f"exhaustive over {pinned + nonpinned} servers: "
           f"{pinned} pinned rejected with zero plaintext, "
           f"{nonpinned} non-pinned intercepted")


def test_criterion_7_telephony_containment(experiment):
    result, _ = experiment
    own_numbers = {a.model.package: a.model.own_number
                   for a in build_corpus(CORPUS_SEED, CORPUS_SIZE)}
    deliveries = rejections = 0
    for (method, package), session in result.sessions.items():
        for observed in session.effects:
            if observed.tag == "telephony_delivered":
                assert observed.effect.number == own_numbers[package]
                deliveries += 1
        rejected_here = [o for o in session.effects if o.tag == "telephony_rejected"]
        rejections += len(rejected_here)
        if rejected_here:
            # rejections never crash a session; only the crasher app crashes
            assert session.crashed is False or "crasher" in package
    assert rejections > 0, "corpus should exercise the rejection path"
    _ok(7, f"{deliveries} deliveries (all to own number), "
           f"{rejections} rejections, none marked a session crashed")


def test_criterion_8_monkey_config_fidelity(login_gate):
    config = MonkeyConfig(seed=0, pct_syskeys=0, pct_appswitch=0,
                          throttle_ms=50, event_count=500,
                          package=login_gate.package)
    runs = []
    for _ in range(2):
        device = install_app(baseline_device(), login_gate)
        runs.append(generate_events(config, login_gate, device))
    assert len(runs[0]) == 500
    assert all(e.kind not in ("system_key", "app_switch") for e in runs[0])
    assert runs[0] == runs[1]
    _ok(8, "annex configuration: exactly 500 events, zero system_key/app_switch, "
           "identical across two runs")


def test_criterion_9_cleanup(experiment):
    result, _ = experiment
    baseline = baseline_device()
    checked = 0
    for (method, package), session in result.sessions.items():
        cleaned = cleanup(session.device)
        assert cleaned == baseline, (method, package)
        assert cleanup(cleaned) == cleaned
        checked += 1
    _ok(9, f"{checked} sessions: post-cleanup device equals whitelist baseline, "
           f"cleanup idempotent")
