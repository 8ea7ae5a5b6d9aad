import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import droidcage
from droidcage import netguard
from droidcage.app_model import APP_SWITCH
from droidcage.corpus import build_corpus, write_corpus
from droidcage.coverage import AggregateRow
from droidcage.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentError,
    _run_one,
    app_setup,
    emit_results,
    load_corpus_dir,
    run_experiment,
    write_outputs,
)
from droidcage.netguard import NetGuard
from droidcage.session import ObservedEffect, SessionRunner

# SHA-256 of the output directory of `droidcage run` on the default 20-app
# corpus of seed 0. A change that alters any output byte must say why and
# update it.
GOLDEN_SEED0_DIGEST = "4392224e1d9fe48cf3ad5e5a5909b98c44b97372eb7dd3338d96ad030ee16a8d"

# SHA-256 of the `.app` files `write_corpus` writes for 20 apps, by seed.
GOLDEN_CORPUS_DIGESTS = {
    0: "3d028c984ab11bf0b88687cc90a632af8ff0a6b6abdc43077a5436974d2f36a4",
    1: "41c5354be93b606c0221d9f174adfacc719b1d935316502fa5ccecc0a518fa47",
}
# The same for the 200 apps of seed 0 that perfbench's corpus200 writes
# (it also covers the names from app100 on).
GOLDEN_CORPUS200_DIGEST = "f96237ff37da52c67f4030b1ddfa0c0322ca13db86ab13d6ec6b98c4315e743a"

PAPER_ROWS = (
    AggregateRow("monkey", 32.93, 35.05, 36.32, 16.0),
    AggregateRow("smart", 34.84, 36.68, 37.73, 0.0),
    AggregateRow("smart_monkey", 37.12, 41.6, 41.23, 16.0),
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(d, seed=0, count=8)
    return d


def test_emit_human_reproduces_published_row_values():
    text = emit_results(PAPER_ROWS, "human")
    rows = [" ".join(line.split()) for line in text.splitlines()]
    assert "Monkey 32.93% 35.05% 36.32% 16%" in rows
    assert "Smart 34.84% 36.68% 37.73% 0%" in rows
    assert "Smart Monkey 37.12% 41.60% 41.23% 16%" in rows
    header = rows[0]
    assert header.startswith("Method Classes average coverage Methods average coverage"
                             " Blocks average coverage Crash rate")


def test_emit_csv_round_trips():
    header, *rows = csv.reader(io.StringIO(emit_results(PAPER_ROWS, "csv")))
    assert header == ["method", "classes_avg", "methods_avg", "blocks_avg", "crash_rate"]
    assert tuple(AggregateRow(m, *map(float, values)) for m, *values in rows) == PAPER_ROWS


def test_emit_structured_is_json():
    rows = json.loads(emit_results(PAPER_ROWS, "structured"))
    assert rows[0]["method"] == "monkey"
    assert rows[2]["blocks_avg"] == 41.23


def test_emit_rejects_empty_table():
    with pytest.raises(ValueError):
        emit_results((), "human")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_results(PAPER_ROWS, "xml")


def test_config_requires_methods(tmp_path):
    with pytest.raises(ExperimentError):
        ExperimentConfig(corpus=tmp_path, methods=())
    with pytest.raises(ExperimentError):
        ExperimentConfig(corpus=tmp_path, methods=("jumper",))
    with pytest.raises(ExperimentError, match="'monkey' is listed twice"):
        ExperimentConfig(corpus=tmp_path, methods=("monkey", "smart", "monkey"))


@pytest.mark.parametrize("value", [True, 2.5, "5"])
@pytest.mark.parametrize("field, named", [("seed", "seed"), ("monkey_events", "event_count"),
                                          ("max_events", "max_events"),
                                          ("reputation_threshold", "reputation threshold")])
def test_config_fields_are_ints(tmp_path, field, named, value):
    # Each is checked by the config that owns it, which names it as its own.
    with pytest.raises(ExperimentError,
                       match=f"^{named} must be an int, got {re.escape(repr(value))}$"):
        ExperimentConfig(corpus=tmp_path, **{field: value})


@pytest.mark.parametrize("threshold", [-1, 101])
def test_config_rejects_an_out_of_range_threshold(tmp_path, threshold):
    with pytest.raises(ExperimentError,
                       match=re.escape(f"reputation threshold must be in [0, 100], got {threshold}")):
        ExperimentConfig(corpus=tmp_path, reputation_threshold=threshold)


def test_empty_corpus_is_fatal(tmp_path):
    with pytest.raises(ExperimentError):
        load_corpus_dir(tmp_path)
    with pytest.raises(ExperimentError):
        load_corpus_dir(tmp_path / "missing")


def test_two_models_with_one_package_are_fatal(tmp_path):
    # Sessions and trace files are keyed by package: a second model would
    # overwrite the first one's.
    write_corpus(tmp_path, seed=0, count=3)
    first, second, _ = sorted(tmp_path.glob("*.app"))
    doc = json.loads(second.read_text(encoding="utf-8"))
    doc["package"] = json.loads(first.read_text(encoding="utf-8"))["package"]
    second.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ExperimentError) as e:
        load_corpus_dir(tmp_path)
    assert str(e.value) == (f"{first} and {second} both declare package "
                            f"{doc['package']!r}")
    with pytest.raises(ExperimentError):
        run_experiment(ExperimentConfig(corpus=tmp_path))


def test_a_device_left_dirty_after_cleanup_is_fatal(small_corpus, monkeypatch):
    # A cleanup that changes nothing leaves the app installed.
    monkeypatch.setattr(droidcage.harness, "cleanup", lambda device: device)
    first = load_corpus_dir(small_corpus)[0].package
    with pytest.raises(ExperimentError, match=f"cleanup verification failed for {first}$"):
        run_experiment(ExperimentConfig(corpus=small_corpus, methods=("monkey",)))


@pytest.mark.parametrize("index, breach", [
    (16, {"telephony_rejected": "telephony_delivered"}),  # the premium-SMS sender
    (19, {"net_handled": "observed"}),  # the network-chatty app
])
def test_a_session_that_breaches_containment_is_fatal(monkeypatch, index, breach):
    app = build_corpus(0, 20)[index].model
    setup = app_setup(app, ExperimentConfig(corpus=Path("corpus"), methods=("smart",)))
    _run_one(setup, "smart", NetGuard())
    dispose = SessionRunner._dispose

    def breaching(self, eff):
        observed = dispose(self, eff)
        return ObservedEffect(eff, breach.get(observed.tag, observed.tag))

    monkeypatch.setattr(SessionRunner, "_dispose", breaching)
    with pytest.raises(ExperimentError, match=f"containment breached by {app.package}$"):
        _run_one(setup, "smart", NetGuard())


def test_run_experiment_row_per_method(small_corpus):
    config = ExperimentConfig(corpus=small_corpus, methods=("monkey", "smart"))
    result = run_experiment(config)
    assert [r.method for r in result.rows] == ["monkey", "smart"]
    assert len(result.per_app) == 2 * 8


def test_crashing_app_recorded_and_run_continues(tmp_path):
    src = tmp_path / "corpus"
    src.mkdir()
    write_corpus(src, seed=0, count=20)
    config = ExperimentConfig(corpus=src, methods=("smart",))
    result = run_experiment(config)
    crashed = [r.package for _, r in result.per_app if r.crashed]
    assert crashed == ["com.corpus.crasher17"]
    assert result.rows[0].crash_rate == pytest.approx(100 / 20)


def test_per_app_isolation(small_corpus, tmp_path):
    # coverage of one app is unchanged by the presence of the others
    full = run_experiment(ExperimentConfig(corpus=small_corpus, methods=("smart",)))
    lone_dir = tmp_path / "lone"
    lone_dir.mkdir()
    some_app = sorted(small_corpus.glob("*.app"))[3]
    shutil.copy(some_app, lone_dir / some_app.name)
    lone = run_experiment(ExperimentConfig(corpus=lone_dir, methods=("smart",)))
    wanted = [r for _, r in full.per_app if r.package == lone.per_app[0][1].package]
    assert wanted[0] == lone.per_app[0][1]


def test_monkey_substream_shared_with_combined(small_corpus):
    config = ExperimentConfig(corpus=small_corpus, methods=("monkey", "smart_monkey"))
    result = run_experiment(config)
    by = {}
    for method, report in result.per_app:
        by.setdefault(report.package, {})[method] = report
    for package, rows in by.items():
        session_m = result.sessions[("monkey", package)]
        session_sm = result.sessions[("smart_monkey", package)]
        n = len(session_m.events)
        assert session_sm.events[:n] == session_m.events
        assert session_m.executed_blocks <= session_sm.executed_blocks


@pytest.fixture(scope="module")
def corpus20(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus20")
    write_corpus(d, seed=0)
    return d


@pytest.fixture(scope="module")
def three_methods(corpus20):
    return run_experiment(ExperimentConfig(corpus=corpus20))


@pytest.fixture(scope="module")
def one_method_runs(corpus20):
    return {m: run_experiment(ExperimentConfig(corpus=corpus20, methods=(m,)))
            for m in ("monkey", "smart", "smart_monkey")}


def _rows(result, method):
    return [report for m, report in result.per_app if m == method]


def _traces(result, method):
    return {key: session.trace for key, session in result.sessions.items()
            if key[0] == method}


def test_smart_monkey_alone_equals_smart_monkey_after_monkey(three_methods, one_method_runs):
    alone = one_method_runs["smart_monkey"]
    assert _rows(alone, "smart_monkey") == _rows(three_methods, "smart_monkey")
    assert alone.rows[0] == three_methods.rows[2]
    assert _traces(alone, "smart_monkey") == _traces(three_methods, "smart_monkey")
    assert alone.capture_log


def test_capture_log_is_each_method_alone_in_order(three_methods, one_method_runs):
    # Also shows that the smart_monkey jobs append nothing to the logs of
    # the monkey guards they start from.
    parts = [one_method_runs[m].capture_log for m in ("monkey", "smart", "smart_monkey")]
    assert three_methods.capture_log == "".join(parts)


def test_capture_log_is_every_runners_entries_in_method_then_corpus_order(corpus20,
                                                                          monkeypatch):
    runners, run_one = {}, droidcage.harness._run_one

    def recording(setup, method, *args):
        report, runner = run_one(setup, method, *args)
        runners[method, setup.app.package] = runner
        return report, runner

    monkeypatch.setattr(droidcage.harness, "_run_one", recording)
    result = run_experiment(ExperimentConfig(corpus=corpus20, seed=0))
    entries = [entry for method in METHODS for app in load_corpus_dir(corpus20)
               for entry in runners[method, app.package].netguard.capture_log]
    assert len(runners) == 3 * 20 and entries
    assert result.capture_log == "".join(entries)


def test_monkey_events_are_one_object_per_distinct_value_across_sessions(three_methods,
                                                                        one_method_runs):
    # Equal monkey events share one object across every app's session; a
    # set_text event keeps its own, since it carries its typed value.
    events = [e for session in one_method_runs["monkey"].sessions.values()
              for e in session.events if e.kind != "set_text"]
    assert len({id(e) for e in events}) == len(set(events)) < len(events)
    relaunches = [e for session in three_methods.sessions.values()
                  for e in session.events if e.kind == "app_switch"]
    assert relaunches and all(e is APP_SWITCH for e in relaunches)


def test_smart_monkey_leaves_the_monkey_session_unchanged(three_methods, one_method_runs):
    alone = one_method_runs["monkey"]
    for (method, package), session in alone.sessions.items():
        shared = three_methods.sessions[(method, package)]
        assert shared.events == session.events
        assert shared.trace == session.trace
        assert shared.effects == session.effects
        assert shared == session
    assert _rows(alone, "monkey") == _rows(three_methods, "monkey")


def test_crasher_smart_monkey_session_is_its_monkey_session(three_methods):
    package = "com.corpus.crasher17"
    monkey = three_methods.sessions[("monkey", package)]
    smart_monkey = three_methods.sessions[("smart_monkey", package)]
    assert monkey.crashed
    assert smart_monkey == monkey
    assert smart_monkey is not monkey
    crashed = {m: r.crashed for m, r in three_methods.per_app if r.package == package}
    assert crashed == {"monkey": True, "smart": True, "smart_monkey": True}


def test_corpus_loader_orders_by_name(small_corpus):
    packages = [app.package for app in load_corpus_dir(small_corpus)]
    files = sorted(small_corpus.glob("*.app"))
    assert packages == [json.loads(f.read_text())["package"] for f in files]
    assert packages != sorted(packages)  # file-name order, not package order


def _digest_dir(root):
    """SHA-256 over each file's relative path, length and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def test_seed0_outputs_are_byte_identical_to_golden(tmp_path):
    write_corpus(tmp_path / "corpus", 0)
    config = ExperimentConfig(corpus=tmp_path / "corpus", seed=0)
    write_outputs(run_experiment(config), tmp_path / "out", config.formats)
    assert _digest_dir(tmp_path / "out") == GOLDEN_SEED0_DIGEST


def test_seed0_outputs_match_golden_in_a_warm_process(tmp_path, empty_line_memos):
    # Other corpora first, then header-line memos filled with lines no run
    # writes: no cache, memo or table they leave changes a later run's bytes.
    for seed, count in ((1, 20), (2, 40), (3, 20)):
        write_corpus(tmp_path / f"corpus{seed}", seed, count)
        run_experiment(ExperimentConfig(corpus=tmp_path / f"corpus{seed}", seed=seed))
    for i in range(netguard._LINE_MEMO_SIZE):
        netguard._header_line(f"X-Warm-{i}: junk")
        netguard._header_text(("X-Warm", str(i)))
    assert [len(memo) for memo in empty_line_memos[:2]] == [netguard._LINE_MEMO_SIZE] * 2
    write_corpus(tmp_path / "corpus", 0)
    config = ExperimentConfig(corpus=tmp_path / "corpus", seed=0)
    write_outputs(run_experiment(config), tmp_path / "out", config.formats)
    assert _digest_dir(tmp_path / "out") == GOLDEN_SEED0_DIGEST


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_DIGESTS))
def test_corpus_files_are_byte_identical_to_golden(tmp_path, seed):
    write_corpus(tmp_path, seed, 20)
    assert _digest_dir(tmp_path) == GOLDEN_CORPUS_DIGESTS[seed]


def test_corpus200_files_are_byte_identical_to_golden(tmp_path):
    write_corpus(tmp_path, 0, 200)
    assert _digest_dir(tmp_path) == GOLDEN_CORPUS200_DIGEST


def test_run_output_is_the_same_under_any_hash_seed(corpus20, tmp_path):
    # Two interpreters with different str hashing, each building the PRNG
    # tables at import, must write the same bytes.
    src = str(Path(droidcage.__file__).parents[1])
    outs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"out-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-m", "droidcage.cli", "run", "--corpus", str(corpus20),
                        "--seed", "0", "--out", str(out), "--formats", "human,csv,structured"],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    first, second = ({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()} for out in outs)
    assert "results.json" in first and "capture.log" in first
    assert first == second
