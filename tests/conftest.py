import gc
import json
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from droidcage import netguard
from droidcage.app_model import (
    ELEMENT_KINDS,
    PHONE_STATE_ACTION,
    SMS_RECEIVED_ACTION,
    UI_ACTIONS,
    AppModel,
    Event,
    identify_element,
    install_app,
    load_app_model,
)
from droidcage.data_tables import default_tables
from droidcage.explorer import baseline_device

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic collector off, and switch it on again.

    The engines and decoders pause it; a pause that did not end would slow
    every later test. Only the switch is checked: what ``gc.collect()``
    finds depends on tracing (see ``tests/test_gcpause.py``).
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")


# netguard's fill-only header-line memos, by module attribute.
LINE_MEMOS = ("_HEADER_LINES", "_HEADER_TEXTS", "_WRITTEN_HEADERS")


def clear_line_memos():
    for name in LINE_MEMOS:
        getattr(netguard, name).clear()


@pytest.fixture
def empty_line_memos():
    """The memos, empty, and emptied again afterwards: a memo keeps the first
    lines it meets, so what one test leaves there would last."""
    clear_line_memos()
    yield [getattr(netguard, name) for name in LINE_MEMOS]
    clear_line_memos()


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
    # json.loads reads NaN and Infinity, and no tap hits (or every tap hits) such bounds.
    (("activities", 0, "states", 0, "elements", 0, "bounds"), [40, 200, float("nan"), 120],
     "bounds must be"),
    (("activities", 0, "states", 0, "elements", 0, "bounds"),
     [0, 0, float("inf"), float("inf")], "bounds must be"),
    (("activities", 0, "states", 0, "elements", 0, "bounds"), [float("-inf"), 200, 1000, 120],
     "bounds must be"),
    # A repeated action would have the explorer send the same (element, action) pair twice.
    (("activities", 0, "states", 0, "elements", 2, "actions"), ["click", "click"],
     "action 'click' is listed twice"),
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


def event_pool(app: AppModel) -> list:
    """Every engine event an app can take: each element action, each alphabet
    value (and one outside it), receiver events and system events."""
    pool = [Event("app_switch"), Event("system_key", name="back"),
            Event("broadcast", action="android.intent.action.BOOT_COMPLETED"),
            Event("incoming_sms", number=app.own_number, body="hi"),
            Event("incoming_call", number=app.own_number)]
    for act in app.activities:
        for state in act.states:
            for el in state.elements:
                key = identify_element(act.name, el)
                for action in el.actions:
                    if action == "set_text":
                        for v in app.alphabet:
                            pool.append(Event("set_text", key, v))
                        pool.append(Event("set_text", key, "random-ish"))
                    else:
                        pool.append(Event(action, target=key))
    return pool


def edited_login_gate(path: tuple, value) -> dict:
    """The login_gate.app document with the value at ``path`` replaced."""
    return edited_fixture("login_gate.app", path, value)


# Pools for generated app models. They are small on purpose: ids, text and
# sizes collide, so partial element keys shadow one another.
_GEN_OWN_NUMBER = "5550100"
# A broadcast the packaged broadcast table lacks.
OUTSIDE_ACTION = "com.example.action.PING"
_GEN_IDS = (None, None, "btn_a", "btn_b")
_GEN_TEXTS = (None, "OK", "Go")
_GEN_SIZES = ((300, 150), (500, 150))
_GEN_HINTS = (None, "Password", "PIN code", "Email")
_GEN_RECEIVER_ACTIONS = ("android.intent.action.BOOT_COMPLETED", SMS_RECEIVED_ACTION,
                         PHONE_STATE_ACTION, OUTSIDE_ACTION)
# An equals value no fill table holds and the monkey cannot type.
_GEN_MAGIC = "open-sesame-42"
# The HTTPS servers of the TLS fixture set: the two the harness pins and
# three it intercepts.
TLS_SERVERS = ("api.unknown.example", "cfg.adsmogo.com", "pay.wallet.example",
               "secure.bank.example", "telemetry.trusted.example")


@st.composite
def app_docs(draw) -> dict:
    """A valid ``.app`` document.

    1-3 activities with 1-4 states of 0-4 elements each; ``equals``,
    ``non_empty`` and ``matches_category`` gates; crash transitions,
    SMS and calls to the app's own number and to another, often a
    self-texting loop (an SMS receiver that texts the app's own number,
    so one SMS chains up to ``LOOPBACK_LIMIT`` loopbacks); network
    requests over HTTP, over HTTPS to a known server, over a blocked
    protocol, and malformed; declared, dynamic and registered receivers,
    many of them for ``OUTSIDE_ACTION``.
    The alphabet holds a value for every gate an engine could pass, so
    the oracle can type whatever an engine can.
    """
    def choice(values):
        return draw(st.sampled_from(values))

    def some_receiver_actions():
        return [a for a in _GEN_RECEIVER_ACTIONS if choice((True, True, False))]

    activities = []
    for a in range(draw(st.integers(1, 3))):
        states = []
        for s in range(draw(st.integers(1, 4))):
            elements = []
            for row in range(draw(st.integers(0, 4))):
                kind = choice(ELEMENT_KINDS)
                actions = set(draw(st.lists(st.sampled_from(UI_ACTIONS), max_size=2)))
                actions |= {"textfield": {"set_text"}, "checkbox": {"toggle"}}.get(kind, set())
                elements.append({"kind": kind, "id": choice(_GEN_IDS), "text": choice(_GEN_TEXTS),
                                 "hint": choice(_GEN_HINTS),
                                 "bounds": [choice((0, 500)), 200 * row, *choice(_GEN_SIZES)],
                                 "actions": sorted(actions)})
            states.append({"id": f"s{s}", "elements": elements})
        activities.append({"name": f"A{a}", "initial_state": "s0", "states": states})
    screens = [({"activity": act["name"], "state": state["id"]}, state["elements"])
               for act in activities for state in act["states"]]
    places = [place for place, _ in screens]
    alphabet = {"filler"}
    blocks = []
    transitions = []

    def transition(frm: dict, trigger: dict, effects: tuple = ()) -> None:
        bid = f"b{len(blocks)}"
        blocks.append({"id": bid, "class": "gen.Main", "method": bid})
        effects = list(effects)
        for effect in draw(st.lists(st.sampled_from(("sms", "call", "register", "java", "http",
                                                     "https", "blocked", "malformed")),
                                    max_size=2)):
            number = choice((_GEN_OWN_NUMBER, "5550999"))
            server = choice(TLS_SERVERS)
            effects.append({
                "sms": {"kind": "outgoing_sms", "number": number, "body": "ping"},
                "call": {"kind": "outgoing_call", "number": number},
                "register": {"kind": "register_receiver", "action": choice(_GEN_RECEIVER_ACTIONS)},
                "java": {"kind": "java_call", "signature": f"void gen.Main.{bid}"},
                "http": {"kind": "network_request", "protocol": "http",
                         "data": f"POST /{bid} HTTP/1.1\r\nHost: gen.example\r\n"
                                 "Content-Length: 2\r\n\r\nhi"},
                "https": {"kind": "network_request", "protocol": "https", "server": server,
                          "data": f"GET /{bid} HTTP/1.1\r\nHost: {server}\r\n\r\n"},
                "blocked": {"kind": "network_request", "protocol": "imap",
                            "data": "a1 LOGIN gen secret\r\n"},
                "malformed": {"kind": "network_request", "data": "\x00\x01 not a request"},
            }[effect])
        transitions.append({"from": frm, "trigger": trigger,
                            "to": draw(st.none() | st.sampled_from(places)), "blocks": [bid],
                            "side_effects": effects, "crash": choice((True,) + (False,) * 7)})

    def set_text_match():
        gate = choice((None, "equals", "non_empty", "matches_category"))
        if gate == "equals":
            value = choice(("filler", _GEN_MAGIC))
            if draw(st.booleans()):
                alphabet.add(value)
            return {"kind": "equals", "value": value}
        if gate == "matches_category":
            category = choice(("password", "pin_code", "email", "first_name"))
            alphabet.add(default_tables().fill(category, itemgetter(0)))
            return {"kind": "matches_category", "category": category}
        return gate and {"kind": gate}

    for place, elements in screens:
        for i, element in enumerate(elements):
            for action in element["actions"]:
                if draw(st.booleans()):
                    match = set_text_match() if action == "set_text" else None
                    trigger = {"action": action, **({"match": match} if match else {})}
                    transition({**place, "element": i}, trigger)
    declared = some_receiver_actions()
    receiver_actions = some_receiver_actions()
    if draw(st.booleans()):
        # The self-texting loop; unanchored, so it is the app's only SMS receiver.
        declared = sorted({*declared, SMS_RECEIVED_ACTION})
        receiver_actions = [a for a in receiver_actions if a != SMS_RECEIVED_ACTION]
        transition({"receiver": SMS_RECEIVED_ACTION}, {},
                   ({"kind": "outgoing_sms", "number": _GEN_OWN_NUMBER, "body": "loop"},))
    for action in receiver_actions:
        anchor = draw(st.none() | st.sampled_from(places))
        transition({"receiver": action, **(anchor or {})}, {})
    dynamic = [{**choice(places), "action": choice(_GEN_RECEIVER_ACTIONS)}
               for _ in range(draw(st.integers(0, 2)))]
    assume(blocks)  # a model runs at least one block
    return {
        "package": "com.gen.app",
        "main_activity": "A0",
        "own_number": _GEN_OWN_NUMBER,
        "activities": activities,
        "blocks": blocks,
        "receivers": {"declared": declared, "dynamic": dynamic},
        "transitions": transitions,
        "alphabet": sorted(alphabet),
    }
