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
]


def edited_login_gate(path: tuple, value) -> dict:
    """The login_gate.app document with the value at ``path`` replaced."""
    doc = json.loads((FIXTURES / "login_gate.app").read_text(encoding="utf-8"))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return doc
