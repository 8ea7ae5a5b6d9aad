import json
from pathlib import Path

import pytest

from droidcage.app_model import AppModel, install_app, load_app_model
from droidcage.explorer import baseline_device

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def login_gate() -> AppModel:
    return load_app_model(FIXTURES / "login_gate.app")


@pytest.fixture(scope="session")
def tiny_taps() -> AppModel:
    return load_app_model(FIXTURES / "tiny_taps.app")


@pytest.fixture(scope="session")
def one_button() -> AppModel:
    return load_app_model(FIXTURES / "one_button.app")


@pytest.fixture(scope="session")
def boot_gate() -> AppModel:
    return load_app_model(FIXTURES / "boot_gate.app")


@pytest.fixture(scope="session")
def sealed_bomb() -> AppModel:
    return load_app_model(FIXTURES / "sealed_bomb.app")


@pytest.fixture(scope="session")
def crash_first() -> AppModel:
    return load_app_model(FIXTURES / "crash_first.app")


def device_for(app: AppModel):
    """Fresh baseline device with the app installed and launched."""
    return install_app(baseline_device(), app)


def write_model(tmp_path: Path, doc: dict, name: str = "model.app") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# Wrongly typed values, as (path into login_gate.app, value, message the
# loader must raise ModelValidationError with).
WRONGLY_TYPED_EDITS = [
    (("activities", 0, "states", 0, "elements", 0, "bounds"), 5, "bounds must be"),
    (("activities", 0, "states", 0, "elements", 0, "bounds"), ["40", 200, 1000, 120],
     "bounds must be"),
    (("alphabet",), 5, "alphabet must be"),
    (("alphabet",), ["alpha", 5], "alphabet must be"),
    (("transitions", 7, "side_effects", 1, "data"), 5, "data must be a string"),
    (("transitions", 0, "blocks"), [["b1"]], "unknown block"),
    (("transitions", 0, "blocks"), 5, "blocks must be"),
    (("blocks", 0, "id"), ["b1"], "must be a string"),
    (("activities",), 5, "activities must be a JSON array"),
    (("activities", 0, "states"), 5, "states must be a JSON array"),
    (("activities", 0, "states", 0, "elements"), 5, "elements must be a JSON array"),
    (("activities", 0, "states", 0, "elements", 0, "actions"), 5, "actions must be a JSON array"),
    (("transitions",), 5, "transitions must be a JSON array"),
    (("transitions", 7, "side_effects"), 5, "side_effects must be a JSON array"),
    (("receivers", "declared"), 5, "receivers.declared must be an array"),
    (("receivers", "dynamic"), 5, "receivers.dynamic must be a JSON array"),
    (("transitions", 7, "side_effects", 0, "origin"), 5, "origin must be a JSON array"),
    (("transitions", 7, "side_effects", 1, "protocol"), 5, "protocol must be a string"),
    (("package",), 5, "package must be a string"),
    (("blocks", 0, "class"), ["C"], "class must be a string"),
    (("transitions", 7, "side_effects", 0, "signature"), 5, "signature must be a string"),
    (("own_number",), 5, "own_number must be a string"),
    (("main_activity",), ["LoginActivity"], "main_activity must be a string"),
    (("activities", 0, "initial_state"), ["form"], "initial_state must be a string"),
    (("transitions", 0, "trigger", "match"), {"kind": "equals", "value": 5},
     "value must be a string"),
    (("transitions", 15, "side_effects", 0), {"kind": "outgoing_call", "number": 5550100},
     "number must be a string"),
    (("transitions", 15, "side_effects", 0),
     {"kind": "outgoing_sms", "number": "5550100", "body": 5}, "body must be a string"),
    (("transitions", 15, "side_effects", 0), {"kind": "system_call", "name": 5},
     "name must be a string"),
    (("transitions", 15, "side_effects", 0), {"kind": "register_receiver", "action": []},
     "action must be a string"),
    (("transitions", 7, "side_effects", 1, "server"), 5, "server must be a string or null"),
    (("transitions", 7, "side_effects", 0, "pid"), "4242", "pid must be an int or null"),
    (("transitions", 7, "side_effects", 0, "pid"), True, "pid must be an int or null"),
    (("transitions", 0, "crash"), "false", "crash must be a boolean"),
    (("transitions", 13, "from", "element"), True, "element must be an int or a string"),
]


def edited_fixture(name: str, path: tuple, value) -> dict:
    """The fixture document ``name`` with the value at ``path`` replaced."""
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return doc


def edited_login_gate(path: tuple, value) -> dict:
    """The login_gate.app document with the value at ``path`` replaced."""
    return edited_fixture("login_gate.app", path, value)
