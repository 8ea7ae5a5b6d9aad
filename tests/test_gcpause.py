"""The bulk decoders run with the cyclic collector paused, and lose nothing by it."""

import gc
import io
import json
from contextlib import redirect_stdout

import pytest

from droidcage import app_model, netguard
from droidcage.app_model import ModelParseError, ModelValidationError, load_app_model, model_from_dict
from droidcage.cli import main
from droidcage.corpus import write_corpus
from droidcage.gcpause import gc_paused
from droidcage.netguard import LogDecodeError, parse_capture_log

from conftest import FIXTURES, edited_login_gate


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

    spy(json, "loads")
    spy(app_model, "_check_determinism")
    spy(netguard, "_read_entry")
    gc.enable()
    load_app_model(FIXTURES / "one_button.app")
    parse_capture_log(inputs["log"])
    assert {name for name, _ in seen} == {"loads", "_check_determinism", "_read_entry"}
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
