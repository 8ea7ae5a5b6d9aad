import io
import itertools
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage import cli, harness
from droidcage.cli import main
from droidcage.data_tables import DataTableError
from droidcage.harness import (
    FORMATS,
    ExperimentConfig,
    default_reputation,
    default_signatures,
    load_corpus_dir,
    run_experiment,
)
from droidcage.netguard import (HttpTransaction, NetGuard, load_reputation, load_signature_db,
                                write_log_entry)
from droidcage.session import ObservedEffect, SessionRunner

from conftest import FIXTURES, WRONGLY_TYPED_EDITS, edited_login_gate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_corpus")
    assert main(["make-corpus", "--out", str(d), "--seed", "0", "--count", "6"]) == 0
    return d


def test_make_corpus_writes_models(corpus_dir, capsys):
    assert len(list(corpus_dir.glob("*.app"))) == 6


def test_run_writes_outputs(corpus_dir, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--corpus", str(corpus_dir), "--seed", "0",
                 "--out", str(out), "--formats", "human,csv,structured"])
    assert code == 0
    for name in ("results.txt", "summary.csv", "per_app.csv", "results.json",
                 "capture.log"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "Blocks average coverage" in stdout
    # Each trace file holds its session's visible calls, one per line, Java
    # and system calls alike.
    result = run_experiment(ExperimentConfig(corpus=corpus_dir, seed=0))
    traced = set()
    for (method, package), session in result.sessions.items():
        text = (out / "traces" / f"{package}__{method}.trace").read_bytes().decode("utf-8")
        assert text.split("\n") == session.trace + [""]
        traced.update(session.trace)
    effects = [o.effect for session in result.sessions.values() for o in session.effects]
    assert {e.name for e in effects if e.kind == "system_call"} & traced
    assert {e.signature for e in effects if e.kind == "java_call"} & traced


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# The result files each format writes.
_FORMAT_FILES = {"human": {"results.txt"}, "csv": {"summary.csv", "per_app.csv"},
                 "structured": {"results.json"}}


def test_run_into_an_earlier_runs_out_holds_only_the_new_run(corpus_dir, tmp_path, capsys):
    three, two = tmp_path / "three", tmp_path / "two"
    three.mkdir()
    two.mkdir()
    for i, app in enumerate(sorted(corpus_dir.glob("*.app"))[:3]):
        (three / app.name).write_bytes(app.read_bytes())
        if i < 2:
            (two / app.name).write_bytes(app.read_bytes())
    assert set(_FORMAT_FILES) == set(FORMATS)
    subsets = [subset for n in range(len(FORMATS) + 1)
               for subset in itertools.combinations(FORMATS, n)]

    def run(corpus, formats, out):
        # Few events: which files a run leaves does not depend on them.
        assert main(["run", "--corpus", str(corpus), "--out", str(out),
                     "--formats", ",".join(formats),
                     "--monkey-events", "10", "--max-events", "10"]) == 0

    fresh = {}
    for i, formats in enumerate(subsets):
        run(two, formats, tmp_path / f"fresh{i}")
        fresh[formats] = _files(tmp_path / f"fresh{i}")
    for i, (first, second) in enumerate(itertools.product(subsets, repeat=2)):
        out = tmp_path / f"out{i}"
        run(three, first, out)
        assert len(list((out / "traces").glob("*.trace"))) == 9
        # Files the run does not name are not its to remove.
        (out / "notes.txt").write_text("mine")
        (out / "traces" / "notes.txt").write_text("mine too")
        run(two, second, out)
        files = _files(out)
        assert files == {**fresh[second], "notes.txt": b"mine",
                         "traces/notes.txt": b"mine too"}, (first, second)
        assert {name for name in files if "/" not in name} == {
            "capture.log", "notes.txt", *(name for f in second for name in _FORMAT_FILES[f])}
        assert len(list((out / "traces").glob("*.trace"))) == 6
    capsys.readouterr()


def test_make_corpus_into_an_earlier_corpus_holds_only_the_new_corpus(tmp_path, capsys):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["make-corpus", "--out", str(out), "--count", "20"]) == 0
    # Files that are not .app models are not its to remove.
    (out / "notes.txt").write_text("mine")
    for target in (out, fresh):
        assert main(["make-corpus", "--out", str(target), "--seed", "1", "--count", "3"]) == 0
    assert "wrote 3 app models" in capsys.readouterr().out
    assert _files(out) == {**_files(fresh), "notes.txt": b"mine"}
    assert len(load_corpus_dir(out)) == 3


def test_run_empty_corpus_fails_nonzero(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--corpus", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_with_a_package_that_is_a_path_writes_nothing_outside_out(tmp_path, capsys):
    # Trace files are named after the package, so "../../escaped" would put
    # them two levels above out/traces.
    corpus = tmp_path / "corpus"
    assert main(["make-corpus", "--out", str(corpus), "--seed", "0", "--count", "3"]) == 0
    model = sorted(corpus.glob("*.app"))[1]
    doc = json.loads(model.read_text(encoding="utf-8"))
    doc["package"] = "../../escaped"
    model.write_text(json.dumps(doc), encoding="utf-8")
    made = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "out" / "res")]) == 1
    err = capsys.readouterr().err
    assert "package must be dot-separated names" in err and "'../../escaped'" in err
    assert "Traceback" not in err
    assert [p for p in set(tmp_path.rglob("*")) - made
            if (tmp_path / "out" / "res") not in (p, *p.parents)] == []


def test_run_rejects_unknown_format(corpus_dir, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(out),
                 "--formats", "human,bogus"])
    assert code == 1
    assert "unknown format 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_method_listed_twice(corpus_dir, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(out),
                 "--methods", "monkey,monkey"])
    assert code == 1
    assert "method 'monkey' is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--threshold", "-5"], "threshold"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--threshold", "101"], "threshold"),
    (["proxy-check", "--request", "{request}", "--threshold", "-5"], "threshold"),
    (["proxy-check", "--request", "{request}", "--threshold", "101"], "threshold"),
    (["monkey", "--app", "{app}", "--throttle", "-1"], "throttle_ms"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--monkey-events", "0"],
     "event_count must be >= 1"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--max-events", "0"],
     "max_events must be >= 1"),
    (["monkey", "--app", "{app}", "--pct-syskeys", "60", "--pct-appswitch", "60"],
     "pct_syskeys + pct_appswitch must be <= 100"),
    (["make-corpus", "--out", "{out}", "--count", "0"], "count must be >= 1"),
    (["make-corpus", "--out", "{out}", "--count", "-1"], "count must be >= 1"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--methods", "smart",
      "--monkey-events", "0"], "event_count must be >= 1"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--methods", "monkey",
      "--max-events", "0"], "max_events must be >= 1"),
])
def test_out_of_range_numeric_flags_exit_1(corpus_dir, tmp_path, capsys, argv, message):
    request = tmp_path / "req.bin"
    request.write_bytes(b"GET / HTTP/1.1\r\nHost: x.example\r\n\r\n")
    paths = {"corpus": corpus_dir, "out": tmp_path / "o", "request": request,
             "app": FIXTURES / "login_gate.app"}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# Each fixture's one-line summary under explore, explore --monkey-first and
# monkey, all at seed 0.
_SINGLE_APP_STDOUT = {
    "boot_gate.app": (
        (2, "com.fixture.bootgate: blocks 3/3 (100.00%) methods 2/2 classes 2/2"),
        (502, "com.fixture.bootgate: blocks 3/3 (100.00%) methods 2/2 classes 2/2"),
        (500, "com.fixture.bootgate: blocks 1/3 (33.33%) methods 1/2 classes 1/2")),
    # The monkey phase crashes the app, so the explorer sends nothing after it.
    "crash_first.app": (
        (1, "com.fixture.crashfirst: blocks 1/2 (50.00%) methods 1/2 classes 1/1 CRASHED"),
        (11, "com.fixture.crashfirst: blocks 1/2 (50.00%) methods 1/2 classes 1/1 CRASHED"),
        (11, "com.fixture.crashfirst: blocks 1/2 (50.00%) methods 1/2 classes 1/1 CRASHED")),
    "every_field.app": (
        (7, "com.fixture.everyfield: blocks 7/14 (50.00%) methods 7/13 classes 3/5 CRASHED"),
        (134, "com.fixture.everyfield: blocks 6/14 (42.86%) methods 6/13 classes 3/5 CRASHED"),
        (134, "com.fixture.everyfield: blocks 6/14 (42.86%) methods 6/13 classes 3/5 CRASHED")),
    "login_gate.app": (
        (11, "com.fixture.logingate: blocks 12/14 (85.71%) methods 11/12 classes 3/3"),
        (511, "com.fixture.logingate: blocks 13/14 (92.86%) methods 11/12 classes 3/3"),
        (500, "com.fixture.logingate: blocks 2/14 (14.29%) methods 2/12 classes 1/3")),
    "one_button.app": (
        (1, "com.fixture.onebutton: blocks 2/2 (100.00%) methods 1/1 classes 1/1"),
        (501, "com.fixture.onebutton: blocks 2/2 (100.00%) methods 1/1 classes 1/1"),
        (500, "com.fixture.onebutton: blocks 2/2 (100.00%) methods 1/1 classes 1/1")),
    "sealed_bomb.app": (
        (2, "com.fixture.sealedbomb: blocks 1/3 (33.33%) methods 1/3 classes 1/2"),
        (502, "com.fixture.sealedbomb: blocks 1/3 (33.33%) methods 1/3 classes 1/2"),
        (500, "com.fixture.sealedbomb: blocks 1/3 (33.33%) methods 1/3 classes 1/2")),
    "tiny_taps.app": (
        (3, "com.fixture.tinytaps: blocks 3/3 (100.00%) methods 3/3 classes 1/1"),
        (503, "com.fixture.tinytaps: blocks 3/3 (100.00%) methods 3/3 classes 1/1"),
        (500, "com.fixture.tinytaps: blocks 3/3 (100.00%) methods 3/3 classes 1/1")),
}
_SINGLE_APP_COMMANDS = ("explore --seed 0", "explore --seed 0 --monkey-first", "monkey -s 0")


@pytest.mark.parametrize("command, fixture, expected", [
    pytest.param(command, fixture, f"events sent: {events}\n{summary}\n",
                 id=f"{command}-{fixture}")
    for fixture, outputs in _SINGLE_APP_STDOUT.items()
    for command, (events, summary) in zip(_SINGLE_APP_COMMANDS, outputs)
])
def test_explore_monkey_first_stdout(capsys, command, fixture, expected):
    name, *flags = command.split()
    code = main([name, "--app", str(FIXTURES / fixture), *flags])
    assert code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("check, message", [
    ("containment", "containment breached by com.fixture.everyfield"),
    ("cleanup", "cleanup verification failed for com.fixture.everyfield"),
])
@pytest.mark.parametrize("command", _SINGLE_APP_COMMANDS)
def test_a_single_app_session_that_fails_a_check_exits_1(monkeypatch, capsys, command, check,
                                                         message):
    if check == "containment":
        # every_field's button calls a number that is not its own in each session.
        dispose = SessionRunner._dispose

        def breaching(self, eff):
            observed = dispose(self, eff)
            tag = {"telephony_rejected": "telephony_delivered"}.get(observed.tag, observed.tag)
            return ObservedEffect(eff, tag)

        monkeypatch.setattr(SessionRunner, "_dispose", breaching)
    else:
        # A cleanup that changes nothing leaves the app installed.
        monkeypatch.setattr(harness, "cleanup", lambda device: device)
    name, *flags = command.split()
    assert main([name, "--app", str(FIXTURES / "every_field.app"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_monkey_mirrors_annex_flags(capsys):
    code = main(["monkey", "--app", str(FIXTURES / "login_gate.app"),
                 "-s", "0", "--pct-syskeys", "0", "--pct-appswitch", "0",
                 "--throttle", "50", "-p", "com.fixture.logingate", "-v", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "events sent: 500" in out


def test_monkey_rejects_wrong_package(capsys):
    code = main(["monkey", "--app", str(FIXTURES / "login_gate.app"),
                 "-p", "com.other.app"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: package com.other.app does not match model com.fixture.logingate\n")


def test_proxy_check_verdicts(tmp_path, capsys):
    req = tmp_path / "req.bin"
    req.write_bytes(b"POST /up HTTP/1.1\r\nHost: x.example\r\n"
                    b"Content-Length: 12\r\n\r\nMAL-DROP-001")
    assert main(["proxy-check", "--request", str(req)]) == 0
    assert "strip_and_redirect (sig-dropper-01)" in capsys.readouterr().out

    req.write_bytes(b"GET / HTTP/1.1\r\nHost: telemetry.trusted.example\r\n\r\n")
    assert main(["proxy-check", "--request", str(req)]) == 0
    assert "redirect_sim (good_reputation)" in capsys.readouterr().out

    # An absolute-form target names the host, whatever the case of its scheme.
    for scheme in (b"http", b"HTTP"):
        req.write_bytes(b"GET " + scheme + b"://c2.evil.example/x HTTP/1.1\r\n"
                        b"Host: telemetry.trusted.example\r\n\r\n")
        assert main(["proxy-check", "--request", str(req)]) == 0
        assert capsys.readouterr().out == "verdict: forward\n"

    req.write_bytes(b"USER x\r\n")
    assert main(["proxy-check", "--request", str(req), "--protocol", "ftp"]) == 0
    assert "block (unsupported_protocol)" in capsys.readouterr().out


@pytest.mark.parametrize("server, out", [
    ("secure.bank.example", "tls rejected\n"),
    ("pay.wallet.example", "tls rejected\n"),
    ("telemetry.trusted.example", "verdict: redirect_sim (good_reputation)\n"),
], ids=["pinned_bank", "pinned_wallet", "unpinned"])
def test_proxy_check_applies_the_packaged_pins_to_the_named_server(tmp_path, capsys, server, out):
    req = tmp_path / "req.bin"
    req.write_bytes(f"GET / HTTP/1.1\r\nHost: {server}\r\n\r\n".encode())
    assert main(["proxy-check", "--request", str(req), "--protocol", "https",
                 "--server", server]) == 0
    assert capsys.readouterr() == (out, "")
    # A pin holds for HTTPS only: plain HTTP to the same server is filtered.
    assert main(["proxy-check", "--request", str(req), "--server", server]) == 0
    assert capsys.readouterr().out.startswith("verdict: ")


@pytest.mark.parametrize("flag, text, message", [
    ("--signatures", "sig-a\tzz\n", ":1: bad signature line"),
    ("--signatures", "# comment\nsig-a 4142\n", ":2: bad signature line"),
    ("--signatures", "sig1\t\n", ":1: bad signature line: signature sig1 has an empty pattern"),
    ("--reputation", "\nx.example\tninety\n", ":2: bad reputation line"),
    ("--reputation", "x.example 90\n", ":1: bad reputation line"),
    # int() alone would take these as 90.
    ("--reputation", "x.example\t9_0\n", ":1: bad reputation line: bad score: '9_0'"),
    ("--reputation", "x.example\t\u0669\u0660\n", ":1: bad reputation line"),
    ("--reputation", "a.example\t100\nx.example\t200\n",
     ":2: bad reputation line: score out of range 0..100: 200"),
    # A dict would keep the last score: 10 forwards what 90 alone redirects.
    ("--reputation", "a.example\t90\n# later\na.example\t10\n",
     ":3: bad reputation line: 'a.example' already listed on line 1"),
    ("--signatures", "sig-a\t41\nsig-b\t42\nsig-a\t43\n",
     ":3: bad signature line: 'sig-a' already listed on line 1"),
], ids=["bad_hex", "signature_without_tab", "empty_pattern", "non_integer_score", "reputation_without_tab",
        "underscored_score", "arabic_indic_score", "score_over_100", "host_listed_twice",
        "signature_id_listed_twice"])
def test_proxy_check_with_a_bad_data_file_line_exits_1(tmp_path, capsys, flag, text, message):
    data = tmp_path / "data.txt"
    data.write_text(text, encoding="utf-8")
    req = tmp_path / "req.bin"
    req.write_bytes(b"GET / HTTP/1.1\r\nHost: x.example\r\n\r\n")
    assert main(["proxy-check", "--request", str(req), flag, str(data)]) == 1
    err = capsys.readouterr().err
    assert f"error: {data}{message}" in err
    assert "Traceback" not in err
    load = load_signature_db if flag == "--signatures" else load_reputation
    with pytest.raises(DataTableError, match=re.escape(f"{data}{message}")):
        load(data)


_REQUESTS = [
    (b"GET /a?b=1 HTTP/1.1\r\nHost: x.example:8080\r\nConnection: Keep-Alive\r\n\r\n", "http"),
    (b"POST /up HTTP/1.1\r\nHost: x.example\r\nContent-Length: 12\r\n\r\nMAL-DROP-001", "http"),
    (b"GET / HTTP/1.1\r\nHost: telemetry.trusted.example\r\n\r\n", "https"),
    (b"GET http://h.example/p HTTP/1.0\r\ncontent: v\r\n\r\n", "http"),
    (b"USER x\r\n", "ftp"),
    (b"not http", "http"),
]


def test_proxy_check_and_decode_log_stdout(tmp_path, capsys):
    req = tmp_path / "req.bin"
    for raw, protocol in _REQUESTS:
        req.write_bytes(raw)
        assert main(["proxy-check", "--request", str(req), "--protocol", protocol]) == 0
    assert capsys.readouterr().out == (
        "verdict: forward\n"
        "verdict: strip_and_redirect (sig-dropper-01)\n"
        "verdict: redirect_sim (good_reputation)\n"
        "verdict: forward\n"
        "verdict: block (unsupported_protocol)\n"
        "malformed request (dropped)\n")
    guard = NetGuard(default_signatures(), default_reputation())
    for raw, protocol in _REQUESTS:
        guard.handle(raw, protocol)
    log = tmp_path / "capture.log"
    log.write_text(guard.capture_text(), encoding="utf-8")
    assert main(["decode-log", "--log", str(log), "--verify"]) == 0
    assert capsys.readouterr().out == (
        "GET http://x.example:8080/a?b=1 [2 headers, 0 content bytes]\n"
        "POST http://x.example:80/up [2 headers, 12 content bytes]\n"
        "GET https://telemetry.trusted.example:443/ [1 headers, 0 content bytes]\n"
        "GET http://h.example:80/p [1 headers, 0 content bytes]\n"
        "round-trip ok (4 records)\n")


def test_decode_log_verify_reports_a_failed_round_trip(tmp_path, capsys, monkeypatch):
    guard = NetGuard(default_signatures(), default_reputation())
    guard.handle(*_REQUESTS[0])
    log = tmp_path / "capture.log"
    log.write_text(guard.capture_text(), encoding="utf-8")
    monkeypatch.setattr(cli, "write_log_entry",
                        lambda tx: write_log_entry(tx._replace(path="/tampered")))
    assert main(["decode-log", "--log", str(log), "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "GET http://x.example:8080/a?b=1 [2 headers, 0 content bytes]\n"
    assert captured.err == "error: round-trip FAILED\n"


def test_decode_log_verify_prints_every_record_before_a_failed_last_record(tmp_path, capsys,
                                                                           monkeypatch):
    guard = NetGuard(default_signatures(), default_reputation())
    for request in _REQUESTS[:3]:
        guard.handle(*request)
    log = tmp_path / "capture.log"
    log.write_text(guard.capture_text(), encoding="utf-8")
    assert len(guard.capture_log) == 3
    # Only the last record is written back wrong.
    monkeypatch.setattr(cli, "write_log_entry",
                        lambda tx: write_log_entry(tx._replace(path="/tampered")
                                                   if tx.host == "telemetry.trusted.example"
                                                   else tx))
    assert main(["decode-log", "--log", str(log), "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "GET http://x.example:8080/a?b=1 [2 headers, 0 content bytes]\n"
        "POST http://x.example:80/up [2 headers, 12 content bytes]\n"
        "GET https://telemetry.trusted.example:443/ [1 headers, 0 content bytes]\n")
    assert captured.err == "error: round-trip FAILED\n"


def test_decode_log_verify_rejects_a_method_that_is_not_a_token(tmp_path, capsys):
    tx = tuple.__new__(HttpTransaction, ("G(T", "http", "a.example", "80", "/", "HTTP/1.1",
                                         (("Host", "a.example"),), b""))
    log = tmp_path / "capture.log"
    log.write_text(write_log_entry(tx), encoding="utf-8")
    assert main(["decode-log", "--log", str(log), "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad record at offset 0: bad method: 'G(T'\n"


def test_decode_log_escapes_control_characters_the_app_sent(tmp_path, capsys):
    guard = NetGuard(default_signatures(), default_reputation())
    guard.handle(b"GET /\x1b[2J\x07 HTTP/1.1\r\nHost: x.example\r\n\r\n", "http")
    guard.handle(*_REQUESTS[0])
    log = tmp_path / "capture.log"
    log.write_text(guard.capture_text(), encoding="utf-8")
    assert main(["decode-log", "--log", str(log), "--verify"]) == 0
    out = capsys.readouterr().out
    assert out == ("GET http://x.example:80/\\x1b[2J\\x07 [1 headers, 0 content bytes]\n"
                   "GET http://x.example:8080/a?b=1 [2 headers, 0 content bytes]\n"
                   "round-trip ok (2 records)\n")
    assert all(c == "\n" or c >= " " for c in out)


def test_decode_log_round_trip(corpus_dir, tmp_path, capsys):
    out = tmp_path / "results"
    main(["run", "--corpus", str(corpus_dir), "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    code = main(["decode-log", "--log", str(out / "capture.log"), "--verify"])
    assert code == 0
    assert "round-trip ok" in capsys.readouterr().out


def test_explore_rejects_string_trigger_without_traceback(tmp_path, capsys):
    doc = json.loads((FIXTURES / "one_button.app").read_text(encoding="utf-8"))
    doc["transitions"][0]["trigger"] = "click"
    app = tmp_path / "bad.app"
    app.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["explore", "--app", str(app)]) == 1
    err = capsys.readouterr().err
    assert "trigger must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, message", WRONGLY_TYPED_EDITS)
def test_explore_rejects_wrongly_typed_value_without_traceback(tmp_path, capsys, path, value,
                                                               message):
    app = tmp_path / "bad.app"
    app.write_text(json.dumps(edited_login_gate(path, value)), encoding="utf-8")
    assert main(["explore", "--app", str(app)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


_NO_BLOCKS = {
    "package": "com.t.noblocks", "main_activity": "Main", "own_number": "5550000",
    "activities": [{"name": "Main", "initial_state": "home",
                    "states": [{"id": "home", "elements": []}]}],
    "blocks": [], "transitions": [],
}


@pytest.mark.parametrize("command", ["explore", "monkey", "run"])
def test_a_model_with_no_blocks_exits_1_without_traceback(tmp_path, capsys, command):
    # Coverage ratios are over the model's blocks: none would divide by zero.
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    app = corpus / "noblocks.app"
    app.write_text(json.dumps(_NO_BLOCKS), encoding="utf-8")
    argv = {"explore": ["explore", "--app", str(app)], "monkey": ["monkey", "--app", str(app)],
            "run": ["run", "--corpus", str(corpus), "--out", str(out)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: noblocks.app: at least one block required\n"
    assert not out.exists()


def test_run_rejects_lone_surrogate_before_writing_output(tmp_path, capsys):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    doc = edited_login_gate(("transitions", 7, "side_effects", 0, "signature"), "void a.\ud800")
    (corpus / "bad.app").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert "signature must be valid Unicode text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [("java_call", "signature"), ("system_call", "name")])
def test_run_rejects_a_call_name_that_is_not_one_line(tmp_path, capsys, kind, key):
    # A trace file holds one call per line: this name would read back as two calls.
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    effect = {"kind": kind, key: "La;->x()V\nLb;->y()V"}
    doc = edited_login_gate(("transitions", 15, "side_effects", 0), effect)
    (corpus / "bad.app").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert f"{kind} {key} must be non-empty and one line" in capsys.readouterr().err
    assert not out.exists()


def _capture_log() -> bytes:
    guard = NetGuard()
    guard.handle(b"GET /a HTTP/1.1\r\nHost: h.example\r\nheader: x\r\n\r\n")
    guard.handle(b"POST /b HTTP/1.1\r\nHost: h.example\r\nContent-Length: 3\r\n\r\nabc")
    return guard.capture_text().encode("utf-8")


_LOG = _capture_log()
_COMMANDS = [["decode-log", "--log"], ["decode-log", "--verify", "--log"],
             ["proxy-check", "--request"], ["proxy-check", "--protocol", "https", "--request"],
             ["proxy-check", "--protocol", "https", "--server", "secure.bank.example",
              "--request"],
             ["proxy-check", "--protocol", "ftp", "--request"]]


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``main``; an exception that escapes it fails the test.

    An exit 1 must have one cause: the subcommand's handler raised one of
    the errors ``main`` catches, and ``main`` printed it. An exit 0 prints
    nothing to stderr.
    """
    name = "_cmd_" + argv[0].replace("-", "_")
    handler, raised = getattr(cli, name), []

    def recording(args):
        try:
            return handler(args)
        except Exception as e:
            raised.append(e)
            raise

    setattr(cli, name, recording)
    try:
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        setattr(cli, name, handler)
    if raised:
        assert code == 1 and isinstance(raised[0], cli.FATAL_ERRORS)
        assert err.getvalue() == f"error: {raised[0]}\n"
    else:
        assert code == 0 and err.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(_COMMANDS),
       data=st.one_of(st.binary(max_size=300), st.just(_LOG),
                      st.builds(lambda at, b: _LOG[:at] + b + _LOG[at + 1:],
                                st.integers(0, len(_LOG)), st.binary(max_size=2))))
def test_decode_log_and_proxy_check_exit_0_or_1_on_any_file(tmp_path_factory, command, data):
    path = tmp_path_factory.getbasetemp() / "cli_input.bin"
    path.write_bytes(data)
    code, out = _quiet_main([*command, str(path)])
    assert code in (0, 1)
    assert all(c == "\n" or c >= " " for c in out)


_LOGIN_GATE_PACKAGE = "com.fixture.logingate"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-3, 3), syskeys=st.integers(-5, 105), appswitch=st.integers(-5, 105),
       throttle=st.integers(-3, 3), events=st.integers(-3, 4),
       package=st.sampled_from(["", _LOGIN_GATE_PACKAGE, "com.other.app"]))
def test_monkey_flags_exit_1_exactly_when_out_of_contract(seed, syskeys, appswitch, throttle,
                                                          events, package):
    broken = (not 0 <= syskeys <= 100 or not 0 <= appswitch <= 100
              or syskeys + appswitch > 100 or throttle < 0 or events < 1
              or package not in ("", _LOGIN_GATE_PACKAGE))
    code, out = _quiet_main(["monkey", "--app", str(FIXTURES / "login_gate.app"),
                             "-s", str(seed), "--pct-syskeys", str(syskeys),
                             "--pct-appswitch", str(appswitch), "--throttle", str(throttle),
                             "-p", package, "-v", str(events)])
    assert code == (1 if broken else 0)
    if not broken:
        assert f"events sent: {events}" in out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(-3, 3), count=st.integers(-3, 3))
def test_make_corpus_flags_exit_1_exactly_when_out_of_contract(seed, count):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "corpus"
        code, out = _quiet_main(["make-corpus", "--out", str(out_dir), "--seed", str(seed),
                                 "--count", str(count)])
        if count < 1:
            assert code == 1
            assert not out_dir.exists()
        else:
            assert code == 0
            assert len(list(out_dir.glob("*.app"))) == count


_ONE_BUTTON = (FIXTURES / "one_button.app").read_bytes()
_app_files = st.one_of(
    st.builds(lambda at, b: _ONE_BUTTON[:at] + b + _ONE_BUTTON[at + 1:],
              st.integers(0, len(_ONE_BUTTON)), st.binary(max_size=2)),
    st.binary(max_size=200))


@settings(max_examples=40, deadline=None)
@given(app=st.one_of(st.just(_ONE_BUTTON), _app_files), seed=st.integers(-3, 3),
       max_events=st.integers(-2, 30), monkey_first=st.booleans())
def test_explore_exits_0_or_1_on_any_file_and_flags(app, seed, max_events, monkey_first):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.app"
        path.write_bytes(app)
        code, out = _quiet_main(["explore", "--app", str(path), "--seed", str(seed),
                                 "--max-events", str(max_events)]
                                + ["--monkey-first"] * monkey_first)
    assert code in (0, 1)
    if app == _ONE_BUTTON:
        assert code == (1 if max_events < 1 else 0)
    if code == 0:
        assert "events sent:" in out


_VALID_METHODS = ["monkey", "smart", "smart_monkey", "monkey,smart_monkey", "monkey, smart"]
_VALID_FORMATS = ["human", "csv", "structured", "human,csv,structured", ""]


# Each value is drawn from its valid range about half the time, so that runs
# with every flag in its contract are common.
@settings(max_examples=30, deadline=None)
@given(app=st.one_of(st.just(_ONE_BUTTON), _app_files),
       methods=st.one_of(st.sampled_from(_VALID_METHODS),
                         st.sampled_from(_VALID_METHODS + ["", "bogus", "monkey,,smart"])),
       formats=st.one_of(st.sampled_from(_VALID_FORMATS),
                         st.sampled_from(_VALID_FORMATS + ["bogus"])),
       seed=st.integers(-3, 3),
       monkey_events=st.one_of(st.integers(1, 20), st.integers(-2, 20)),
       max_events=st.one_of(st.integers(1, 20), st.integers(-2, 20)),
       threshold=st.one_of(st.integers(0, 100), st.integers(-5, 105)))
def test_run_exits_0_or_1_on_any_file_and_flags(app, methods, formats, seed, monkey_events,
                                                max_events, threshold):
    method_names = [m.strip() for m in methods.split(",") if m.strip()]
    broken = (not method_names or "bogus" in methods or formats == "bogus"
              or not 0 <= threshold <= 100 or monkey_events < 1 or max_events < 1)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus", Path(tmp) / "out"
        corpus.mkdir()
        (corpus / "model.app").write_bytes(app)
        code, _ = _quiet_main(["run", "--corpus", str(corpus), "--out", str(out),
                               "--methods", methods, "--formats", formats,
                               "--seed", str(seed), "--monkey-events", str(monkey_events),
                               "--max-events", str(max_events),
                               "--threshold", str(threshold)])
        assert code in (0, 1)
        if app == _ONE_BUTTON:
            assert code == (1 if broken else 0)
        assert (out / "capture.log").exists() == (code == 0)
