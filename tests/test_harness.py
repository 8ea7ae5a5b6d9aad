import hashlib
import json
import shutil

import pytest

from droidcage.corpus import write_corpus
from droidcage.coverage import AggregateRow
from droidcage.harness import (
    ExperimentConfig,
    ExperimentError,
    ResultsTable,
    emit_results,
    load_corpus_dir,
    parse_results_csv,
    run_experiment,
    write_outputs,
)

# SHA-256 of the output directory of `droidcage run` on the default 20-app
# corpus of seed 0. A change that alters any output byte must say why and
# update it.
GOLDEN_SEED0_DIGEST = "4392224e1d9fe48cf3ad5e5a5909b98c44b97372eb7dd3338d96ad030ee16a8d"

PAPER_TABLE = ResultsTable((
    AggregateRow("monkey", 32.93, 35.05, 36.32, 16.0),
    AggregateRow("smart", 34.84, 36.68, 37.73, 0.0),
    AggregateRow("smart_monkey", 37.12, 41.6, 41.23, 16.0),
))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(d, seed=0, count=8)
    return d


def test_emit_human_reproduces_published_row_values():
    text = emit_results(PAPER_TABLE, "human")
    rows = [" ".join(line.split()) for line in text.splitlines()]
    assert "Monkey 32.93% 35.05% 36.32% 16%" in rows
    assert "Smart 34.84% 36.68% 37.73% 0%" in rows
    assert "Smart Monkey 37.12% 41.60% 41.23% 16%" in rows
    header = rows[0]
    assert header.startswith("Method Classes average coverage Methods average coverage"
                             " Blocks average coverage Crash rate")


def test_emit_csv_round_trips():
    text = emit_results(PAPER_TABLE, "csv")
    assert parse_results_csv(text) == PAPER_TABLE


def test_emit_structured_is_json():
    rows = json.loads(emit_results(PAPER_TABLE, "structured"))
    assert rows[0]["method"] == "monkey"
    assert rows[2]["blocks_avg"] == 41.23


def test_emit_rejects_empty_table():
    with pytest.raises(ValueError):
        emit_results(ResultsTable(()), "human")


def test_config_requires_methods(tmp_path):
    with pytest.raises(ExperimentError):
        ExperimentConfig(corpus=tmp_path, methods=())
    with pytest.raises(ExperimentError):
        ExperimentConfig(corpus=tmp_path, methods=("jumper",))


def test_empty_corpus_is_fatal(tmp_path):
    with pytest.raises(ExperimentError):
        load_corpus_dir(tmp_path)
    with pytest.raises(ExperimentError):
        load_corpus_dir(tmp_path / "missing")


def test_run_experiment_row_per_method(small_corpus):
    config = ExperimentConfig(corpus=small_corpus, methods=("monkey", "smart"))
    result = run_experiment(config)
    assert [r.method for r in result.table.rows] == ["monkey", "smart"]
    assert len(result.per_app) == 2 * 8


def test_crashing_app_recorded_and_run_continues(tmp_path):
    src = tmp_path / "corpus"
    src.mkdir()
    write_corpus(src, seed=0, count=20)
    config = ExperimentConfig(corpus=src, methods=("smart",))
    result = run_experiment(config)
    crashed = [r.package for _, r in result.per_app if r.crashed]
    assert crashed == ["com.corpus.crasher17"]
    assert result.table.rows[0].crash_rate == pytest.approx(100 / 20)


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


def test_workers_do_not_change_results(small_corpus):
    serial = run_experiment(ExperimentConfig(corpus=small_corpus, methods=("smart",)))
    parallel = run_experiment(ExperimentConfig(corpus=small_corpus, methods=("smart",),
                                               workers=4))
    assert serial.table == parallel.table
    assert serial.capture_log == parallel.capture_log
    assert serial.per_app == parallel.per_app


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
    return {key: text for key, text in result.traces.items() if key[0] == method}


def test_smart_monkey_alone_equals_smart_monkey_after_monkey(three_methods, one_method_runs):
    alone = one_method_runs["smart_monkey"]
    assert _rows(alone, "smart_monkey") == _rows(three_methods, "smart_monkey")
    assert alone.table.rows[0] == three_methods.table.rows[2]
    assert _traces(alone, "smart_monkey") == _traces(three_methods, "smart_monkey")
    assert alone.capture_log


def test_capture_log_is_each_method_alone_in_order(three_methods, one_method_runs):
    # Also shows that the smart_monkey jobs append nothing to the logs of
    # the monkey guards they start from.
    parts = [one_method_runs[m].capture_log for m in ("monkey", "smart", "smart_monkey")]
    assert three_methods.capture_log == "".join(parts)


def test_workers_do_not_change_three_method_results(corpus20, three_methods):
    parallel = run_experiment(ExperimentConfig(corpus=corpus20, workers=2))
    assert parallel.table == three_methods.table
    assert parallel.per_app == three_methods.per_app
    assert parallel.traces == three_methods.traces
    assert parallel.capture_log == three_methods.capture_log


def test_smart_monkey_leaves_the_monkey_session_unchanged(three_methods, one_method_runs):
    alone = one_method_runs["monkey"]
    for (method, package), session in alone.sessions.items():
        shared = three_methods.sessions[(method, package)]
        assert shared.events == session.events
        assert shared.trace.to_text() == session.trace.to_text()
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
    entries = load_corpus_dir(small_corpus)
    names = [n for n, _ in entries]
    assert names == sorted(names)


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
