import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage.cli import main
from droidcage.netguard import NetGuard

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


def test_run_empty_corpus_fails_nonzero(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--corpus", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unknown_format(corpus_dir, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--corpus", str(corpus_dir), "--out", str(out),
                 "--formats", "human,bogus"])
    assert code == 1
    assert "unknown format 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--threshold", "-5"], "threshold"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--threshold", "101"], "threshold"),
    (["proxy-check", "--request", "{request}", "--threshold", "-5"], "threshold"),
    (["proxy-check", "--request", "{request}", "--threshold", "101"], "threshold"),
    (["monkey", "--app", "{app}", "--throttle", "-1"], "throttle_ms"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--workers", "0"], "workers"),
    (["run", "--corpus", "{corpus}", "--out", "{out}", "--workers", "-3"], "workers"),
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


def test_explore_single_app(capsys):
    code = main(["explore", "--app", str(FIXTURES / "login_gate.app"), "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "events sent:" in out
    assert "blocks 12/14" in out


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


def test_proxy_check_verdicts(tmp_path, capsys):
    req = tmp_path / "req.bin"
    req.write_bytes(b"POST /up HTTP/1.1\r\nHost: x.example\r\n"
                    b"Content-Length: 12\r\n\r\nMAL-DROP-001")
    assert main(["proxy-check", "--request", str(req)]) == 0
    assert "strip_and_redirect (sig-dropper-01)" in capsys.readouterr().out

    req.write_bytes(b"GET / HTTP/1.1\r\nHost: telemetry.trusted.example\r\n\r\n")
    assert main(["proxy-check", "--request", str(req)]) == 0
    assert "redirect_sim (good_reputation)" in capsys.readouterr().out

    req.write_bytes(b"USER x\r\n")
    assert main(["proxy-check", "--request", str(req), "--protocol", "ftp"]) == 0
    assert "block (unsupported_protocol)" in capsys.readouterr().out


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


def _capture_log() -> bytes:
    guard = NetGuard()
    guard.handle(b"GET /a HTTP/1.1\r\nHost: h.example\r\nheader: x\r\n\r\n")
    guard.handle(b"POST /b HTTP/1.1\r\nHost: h.example\r\nContent-Length: 3\r\n\r\nabc")
    return guard.capture_text().encode("utf-8")


_LOG = _capture_log()
_COMMANDS = [["decode-log", "--log"], ["decode-log", "--verify", "--log"],
             ["proxy-check", "--request"], ["proxy-check", "--protocol", "https", "--request"],
             ["proxy-check", "--protocol", "ftp", "--request"]]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(_COMMANDS),
       data=st.one_of(st.binary(max_size=300), st.just(_LOG),
                      st.builds(lambda at, b: _LOG[:at] + b + _LOG[at + 1:],
                                st.integers(0, len(_LOG)), st.binary(max_size=2))))
def test_decode_log_and_proxy_check_exit_0_or_1_on_any_file(tmp_path_factory, command, data):
    path = tmp_path_factory.getbasetemp() / "cli_input.bin"
    path.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([*command, str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
