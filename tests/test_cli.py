import json

import pytest

from droidcage.cli import main

from conftest import FIXTURES


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
