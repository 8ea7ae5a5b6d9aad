"""The bulk decoders and the engines run with the cyclic collector paused,
and lose nothing by it."""

import gc
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings

from droidcage import app_model, netguard, session
from droidcage.app_model import (
    AppNotInstalledError,
    ModelParseError,
    ModelValidationError,
    OracleBudgetError,
    load_app_model,
    model_from_dict,
    reachable_blocks,
)
from droidcage.cli import main
from droidcage.corpus import write_corpus
from droidcage.explorer import ExplorationConfig, baseline_device, explore
from droidcage.gcpause import gc_paused
from droidcage.harness import DEFAULT_IDENTITIES, default_reputation, default_signatures
from droidcage.monkey import MonkeyConfig, run_monkey
from droidcage.netguard import LogDecodeError, NetGuard, parse_capture_log
from droidcage.session import SessionRunner

from conftest import FIXTURES, app_docs, device_for, edited_login_gate


def _chain_doc(screens: int = 30, buttons: int = 4) -> dict:
    """A chain app: each screen's last button leads to the next screen."""
    states, transitions, blocks = [], [], []
    for i in range(screens):
        elements = []
        for j in range(buttons):
            elements.append({"kind": "button", "id": f"btn_{i}_{j}", "text": f"Item {j}",
                             "bounds": [40, 100 + 170 * j, 1000, 150], "actions": ["click"]})
            bid = f"b{i * buttons + j}"
            blocks.append({"id": bid, "class": "com.test.chain.Main", "method": f"onClick{j}"})
            nav = j == buttons - 1 and i + 1 < screens
            transitions.append({
                "from": {"activity": "Main", "state": f"s{i}", "element": j},
                "trigger": {"action": "click"},
                "to": {"activity": "Main", "state": f"s{i + 1}"} if nav else None,
                "blocks": [bid],
            })
        states.append({"id": f"s{i}", "elements": elements})
    return {
        "package": "com.test.chain",
        "main_activity": "Main",
        "own_number": "5550100",
        "activities": [{"name": "Main", "initial_state": "s0", "states": states}],
        "blocks": blocks,
        "transitions": transitions,
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Files for every decoder, written with the collector on."""
    root = tmp_path_factory.mktemp("gcpause")
    corpus = write_corpus(root / "corpus", seed=0, count=20)
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--corpus", str(root / "corpus"), "--out", str(root / "out")]) == 0
    broken = root / "broken.app"
    broken.write_text('{"package": ', encoding="utf-8")
    return {
        "corpus": corpus,
        "broken": broken,
        "log": (root / "out" / "capture.log").read_text(encoding="utf-8"),
    }


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


# One decode per way out of each decoder: (call, exception it raises or None).
DECODES = {
    "load_app_model": (lambda inp: load_app_model(FIXTURES / "login_gate.app"), None),
    "load_app_model-parse_error": (lambda inp: load_app_model(inp["broken"]), ModelParseError),
    "model_from_dict": (lambda inp: model_from_dict(_chain_doc()), None),
    "model_from_dict-validation_error": (
        lambda inp: model_from_dict(edited_login_gate(("package",), 5)), ModelValidationError),
    "parse_capture_log": (lambda inp: parse_capture_log(inp["log"]), None),
    "parse_capture_log-decode_error": (
        lambda inp: parse_capture_log(inp["log"] + "<header>"), LogDecodeError),
}


def _decode(name: str, inp: dict) -> None:
    call, error = DECODES[name]
    if error is None:
        call(inp)
    else:
        with pytest.raises(error):
            call(inp)


@pytest.mark.parametrize("name", DECODES)
def test_decoder_leaves_enabled_gc_enabled(inputs, restore_gc, name):
    gc.enable()
    _decode(name, inputs)
    assert gc.isenabled()


@pytest.mark.parametrize("name", DECODES)
def test_decoder_leaves_disabled_gc_disabled(inputs, restore_gc, name):
    gc.disable()
    _decode(name, inputs)
    assert not gc.isenabled()


def test_decoders_run_with_gc_paused(inputs, restore_gc, monkeypatch):
    seen = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # One record as write_log_entry wrote it, which _read_written reads, and
    # one re-indented, which only _read_entry reads.
    entry = inputs["log"][:inputs["log"].index("<header>", 1)]
    log = entry + entry.replace("\n  ", "\n\t")
    spy(json, "loads")
    spy(app_model, "_check_determinism")
    spy(netguard, "_read_written")
    spy(netguard, "_read_entry")
    gc.enable()
    load_app_model(FIXTURES / "one_button.app")
    assert len(parse_capture_log(log)) == 2
    assert {name for name, _ in seen} == {"loads", "_check_determinism", "_read_written",
                                          "_read_entry"}
    assert [name for name, _ in seen if name.startswith("_read")] == [
        "_read_written", "_read_written", "_read_entry"]
    assert not any(enabled for _, enabled in seen)
    assert gc.isenabled()


def test_nested_pause_does_not_enable_gc_early(restore_gc):
    gc.enable()
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("inner")
        assert not gc.isenabled()
    assert gc.isenabled()


def _decode_everything(inp: dict) -> None:
    """Decode every input and drop the results."""
    models = [load_app_model(path) for path in sorted(FIXTURES.glob("*.app"))]
    models += [load_app_model(path) for path in inp["corpus"]]
    models.append(model_from_dict(_chain_doc()))
    records = parse_capture_log(inp["log"])
    assert models and records
    for name, (_, error) in DECODES.items():
        if error is not None:
            _decode(name, inp)


def test_decoded_graphs_leave_nothing_for_the_collector(inputs, restore_gc):
    # Why the pause loses nothing: the decoders build acyclic graphs, so
    # once their results are dropped, reference counting has freed all of it.
    gc.disable()
    gc.collect()
    _decode_everything(inputs)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# The engines
# ---------------------------------------------------------------------------

LOGIN_GATE = load_app_model(FIXTURES / "login_gate.app")


def _runner(app, device=None) -> SessionRunner:
    guard = NetGuard(default_signatures(), default_reputation(), identities=DEFAULT_IDENTITIES)
    return SessionRunner(app, device_for(app) if device is None else device, netguard=guard)


def _monkey(app, device=None):
    return run_monkey(_runner(app, device), MonkeyConfig(seed=0))


def _explore(app, device=None):
    runner = _runner(app, device)
    return explore(app, ExplorationConfig(seed=0), runner.device, runner=runner)


# One run per way out of each engine: (call, exception it raises or None).
ENGINE_RUNS = {
    "run_monkey": (lambda: _monkey(LOGIN_GATE), None),
    "run_monkey-not_installed": (lambda: _monkey(LOGIN_GATE, baseline_device()),
                                 AppNotInstalledError),
    "explore": (lambda: _explore(LOGIN_GATE), None),
    "explore-not_installed": (lambda: _explore(LOGIN_GATE, baseline_device()),
                              AppNotInstalledError),
    "reachable_blocks": (lambda: reachable_blocks(LOGIN_GATE), None),
    "reachable_blocks-over_budget": (lambda: reachable_blocks(LOGIN_GATE, max_states=1),
                                     OracleBudgetError),
}


def _run_engine(name: str) -> None:
    call, error = ENGINE_RUNS[name]
    if error is None:
        call()
    else:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("name", ENGINE_RUNS)
def test_engine_leaves_enabled_gc_enabled(restore_gc, name):
    gc.enable()
    _run_engine(name)
    assert gc.isenabled()


@pytest.mark.parametrize("name", ENGINE_RUNS)
def test_engine_leaves_disabled_gc_disabled(restore_gc, name):
    gc.disable()
    _run_engine(name)
    assert not gc.isenabled()


@pytest.mark.parametrize("name", ["run_monkey", "explore", "reachable_blocks"])
def test_engine_loops_run_with_gc_paused(restore_gc, monkeypatch, name):
    # The engines' loops step through SessionRunner.step (monkey, explorer)
    # or app_model.run_event_chain (oracle).
    seen = []

    def spy(owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    spy(session.SessionRunner, "step")
    spy(app_model, "run_event_chain")
    gc.enable()
    _run_engine(name)
    assert seen and not any(seen)
    assert gc.isenabled()


def _run_engines(app, monkey_events: int = 500) -> None:
    """The monkey, smart_monkey (the monkey, then the explorer, on one
    runner), smart and the oracle on one app; every result dropped."""
    for phases in (("monkey",), ("monkey", "explore"), ("explore",)):
        runner = _runner(app)
        if "monkey" in phases:
            run_monkey(runner, MonkeyConfig(seed=0, event_count=monkey_events))
        if "explore" in phases:
            explore(app, ExplorationConfig(seed=0), runner.device, runner=runner)
    reachable_blocks(app)


def _garbage_after(run) -> int:
    """What the collector finds after ``run`` ran with collection off."""
    gc.disable()
    gc.collect()
    run()
    return gc.collect()


def test_engine_runs_leave_nothing_for_the_collector(inputs, restore_gc):
    # Why the engines' pause loses nothing: sessions, devices and steps form
    # acyclic graphs, so reference counting frees whatever a run drops.
    apps = [load_app_model(path) for path in sorted(FIXTURES.glob("*.app"))]
    apps += [load_app_model(path) for path in inputs["corpus"]]
    apps.append(model_from_dict(_chain_doc()))

    def run():
        for app in apps:
            _run_engines(app)
    assert _garbage_after(run) == 0


@settings(max_examples=25, deadline=None)
@given(doc=app_docs())
def test_engine_runs_on_generated_models_leave_nothing_for_the_collector(doc):
    app = model_from_dict(doc)
    try:
        assert _garbage_after(lambda: _run_engines(app, monkey_events=100)) == 0
    finally:
        gc.enable()  # a function-scoped fixture would not run per example


def test_guard_sees_a_session_that_points_back_to_its_runner(restore_gc, monkeypatch):
    # The guard's own check: a cycle through the session must show.
    init = session.SessionRunner.__init__

    def linked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.session.runner = self
    monkeypatch.setattr(session.SessionRunner, "__init__", linked_init)
    assert _garbage_after(lambda: _run_engines(LOGIN_GATE)) > 0
