import copy
import hashlib
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage import harness
from droidcage.app_model import (
    SMS_RECEIVED_ACTION,
    UI_ACTIONS,
    Activity,
    AppContext,
    AppModel,
    BasicBlock,
    DeviceState,
    ElementKey,
    Event,
    ModelParseError,
    ModelValidationError,
    OracleBudgetError,
    ReceiverSource,
    SessionCrashedError,
    SideEffect,
    StepResult,
    TextMatch,
    Transition,
    UiElement,
    UiSource,
    UiState,
    _enter_state,
    apply_event,
    dump_hierarchy,
    identify_element,
    install_app,
    live_receiver_action,
    load_app_model,
    loopback_event,
    model_from_dict,
    reachable_blocks,
)
from droidcage.corpus import write_corpus
from droidcage.coverage import measure
from droidcage.data_tables import default_tables
from droidcage.explorer import baseline_device
from droidcage.netguard import NetGuard
from droidcage.session import ObservedEffect

from conftest import (
    FIXTURES,
    OUTSIDE_ACTION,
    WRONGLY_TYPED_EDITS,
    app_docs,
    device_for,
    edited_fixture,
    edited_login_gate,
    event_pool,
    write_model,
)


def _minimal_doc(**overrides):
    doc = {
        "package": "com.t.app",
        "main_activity": "Main",
        "own_number": "5550000",
        "alphabet": [],
        "activities": [
            {"name": "Main", "initial_state": "home", "states": [
                {"id": "home", "elements": [
                    {"kind": "button", "id": "b", "text": "B",
                     "bounds": [0, 0, 100, 100], "actions": ["click"]},
                ]},
            ]},
        ],
        "blocks": [{"id": "k1", "class": "com.t.app.Main", "method": "m"}],
        "receivers": {"declared": [], "dynamic": []},
        "transitions": [
            {"from": {"activity": "Main", "state": "home", "element": "b"},
             "trigger": {"action": "click"}, "to": None, "blocks": ["k1"]},
        ],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_login_gate_census(login_gate):
    assert len(login_gate.activities) == 2
    assert len(login_gate.blocks) == 14
    assert login_gate.main_activity == "LoginActivity"
    # every block belongs to exactly one class/method
    assert len({b.id for b in login_gate.blocks}) == 14


def test_unknown_block_reference_rejected(tmp_path):
    doc = _minimal_doc()
    doc["transitions"][0]["blocks"] = ["nope"]
    with pytest.raises(ModelValidationError, match="unknown block"):
        load_app_model(write_model(tmp_path, doc))


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.app"
    path.write_text("")
    with pytest.raises(ModelParseError):
        load_app_model(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.app"
    path.write_text('{"package": "x",\n  "oops"\n}')
    with pytest.raises(ModelParseError, match="line"):
        load_app_model(path)


def test_missing_initial_state_rejected(tmp_path):
    doc = _minimal_doc()
    doc["activities"][0]["initial_state"] = "ghost"
    with pytest.raises(ModelValidationError, match="initial_state"):
        load_app_model(write_model(tmp_path, doc))


def test_duplicate_block_ids_rejected(tmp_path):
    doc = _minimal_doc()
    doc["blocks"].append({"id": "k1", "class": "c", "method": "m2"})
    with pytest.raises(ModelValidationError, match="unique"):
        load_app_model(write_model(tmp_path, doc))


def test_textfield_must_accept_set_text(tmp_path):
    doc = _minimal_doc()
    doc["activities"][0]["states"][0]["elements"].append(
        {"kind": "textfield", "id": "t", "bounds": [0, 200, 100, 50], "actions": []}
    )
    with pytest.raises(ModelValidationError, match="set_text"):
        load_app_model(write_model(tmp_path, doc))


def test_zero_size_element_rejected(tmp_path):
    doc = _minimal_doc()
    doc["activities"][0]["states"][0]["elements"][0]["bounds"] = [0, 0, 0, 100]
    with pytest.raises(ModelValidationError, match="positive"):
        load_app_model(write_model(tmp_path, doc))


@pytest.mark.parametrize("attr", ["id", "content_description", "text", "hint"])
def test_non_string_element_label_rejected(tmp_path, attr):
    doc = _minimal_doc()
    doc["activities"][0]["states"][0]["elements"][0][attr] = ["b"]
    with pytest.raises(ModelValidationError, match="must be a string"):
        load_app_model(write_model(tmp_path, doc))


@pytest.mark.parametrize("part, path", [
    ("from", ("transitions", 0, "from")),
    ("trigger", ("transitions", 0, "trigger")),
    ("to", ("transitions", 0, "to")),
    ("match", ("transitions", 0, "trigger", "match")),
    ("element", ("activities", 0, "states", 0, "elements", 0)),
    ("side effect", ("transitions", 0, "side_effects", 0)),
])
@pytest.mark.parametrize("value", ["click", 3, ["click"]])
def test_non_object_part_is_validation_error(part, path, value):
    doc = _minimal_doc()
    doc["transitions"][0]["side_effects"] = [{"kind": "system_call", "name": "open"}]
    model_from_dict(doc)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    with pytest.raises(ModelValidationError, match=f"{part} must be a JSON object"):
        model_from_dict(doc)


@pytest.mark.parametrize("path, value, message", WRONGLY_TYPED_EDITS)
def test_wrongly_typed_value_is_validation_error(path, value, message):
    with pytest.raises(ModelValidationError, match=message):
        model_from_dict(edited_login_gate(path, value))


def _paths(node, prefix=()):
    """The path to every value inside a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_LOGIN_GATE = json.loads((FIXTURES / "login_gate.app").read_text(encoding="utf-8"))
_LOGIN_GATE_PATHS = tuple(_paths(_LOGIN_GATE))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner,
                                                                max_size=4),
    max_leaves=12)


def _model_or_model_error(load, arg) -> None:
    try:
        assert isinstance(load(arg), AppModel)
    except (ModelParseError, ModelValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LOGIN_GATE_PATHS), _json_values)
def test_any_value_anywhere_in_login_gate_loads_or_is_a_model_error(path, value):
    _model_or_model_error(model_from_dict, edited_login_gate(path, value))


# login_gate.app transitions, for edits that need a second transition beside one.
_GATE_TRANSITIONS = _LOGIN_GATE["transitions"]
_EQUALS_A = dict(_GATE_TRANSITIONS[0],
                 trigger={"action": "set_text", "match": {"kind": "equals", "value": "a"}})
_BOOT = _GATE_TRANSITIONS[15]
_ANCHORED_BOOT = dict(_BOOT, **{"from": dict(_BOOT["from"], activity="LoginActivity",
                                             state="form")})

# One edit per structural rule of the loader, as (path into login_gate.app,
# value, message the loader must raise ModelValidationError with).
BROKEN_RULE_EDITS = [
    (("activities", 1, "states", 0, "elements", 0, "actions"), [],
     "MainActivity/menu: checkbox must list toggle"),
    (("transitions", 7, "side_effects", 0, "signature"), "",
     "transition[7]: java_call signature must be non-empty"),
    (("transitions", 13, "from", "element"), 7, "transition[13]: element index 7 out of range"),
    (("own_number",), "", "login_gate.app: own_number must be non-empty"),
    (("activities", 0, "states", 1, "id"), "form", "LoginActivity: state ids must be unique"),
    (("activities",), [], "at least one activity required"),
    (("activities", 1, "name"), "LoginActivity", "activity names must be unique"),
    (("main_activity",), "Nowhere", "main_activity 'Nowhere' not found"),
    (("transitions", 4, "trigger", "match"), {"kind": "non_empty"},
     "transition[4]: text match is only valid on set_text"),
    (("transitions",), [_EQUALS_A, _EQUALS_A],
     "duplicate equals values for ('LoginActivity', 'form', 0, 'set_text')"),
    (("transitions",), [_BOOT, _ANCHORED_BOOT],
     "ambiguous receiver transitions for ('broadcast', 'android.intent.action.BOOT_COMPLETED')"),
    (("transitions",), [_ANCHORED_BOOT, _ANCHORED_BOOT],
     "duplicate receiver anchors for ('broadcast', 'android.intent.action.BOOT_COMPLETED')"),
    (("package",), "../../escaped",
     "login_gate.app: package must be dot-separated names, each a letter and then "
     "letters, digits or '_', got '../../escaped'"),
    (("transitions",), [_BOOT, _BOOT],
     "ambiguous receiver transitions for ('broadcast', 'android.intent.action.BOOT_COMPLETED')"),
    (("blocks",), [], "login_gate.app: at least one block required"),
    # A trace file holds one call per line: two calls must not read back as three.
    (("transitions", 7, "side_effects", 0, "signature"), "La;->x()V\nLb;->y()V",
     "transition[7]: java_call signature must be non-empty and one line"),
    (("transitions", 15, "side_effects", 0), {"kind": "system_call", "name": ""},
     "transition[15]: system_call name must be non-empty and one line"),
]


@pytest.mark.parametrize("path, value, message", BROKEN_RULE_EDITS)
def test_each_broken_rule_is_validation_error(path, value, message):
    with pytest.raises(ModelValidationError, match=re.escape(message)):
        model_from_dict(edited_login_gate(path, value), source="login_gate.app")


# Every boundary str.splitlines() breaks at.
_LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029")


@pytest.mark.parametrize("kind, key", [("java_call", "signature"), ("system_call", "name")])
@pytest.mark.parametrize("brk", _LINE_BREAKS)
def test_a_call_name_is_one_line_at_every_line_boundary(kind, key, brk):
    for value in (f"a{brk}b", f"a{brk}", f"{brk}a", brk):
        effect = {"kind": kind, key: value}
        with pytest.raises(ModelValidationError, match=f"{kind} {key} must be non-empty and one"):
            model_from_dict(edited_login_gate(("transitions", 15, "side_effects", 0), effect))
    # A tab or a space is no line break.
    effect = {"kind": kind, key: "a\tb c"}
    app = model_from_dict(edited_login_gate(("transitions", 15, "side_effects", 0), effect))
    assert getattr(app.transitions[15].side_effects[0], key) == "a\tb c"


@pytest.mark.parametrize("package", [
    "", ".", "com.", ".com", "com..app", "1com", "com.1app", "_com", "com._app", "com/app",
    "..", "com.app\n", "com app", "com-app", "c\u00f6m.app", "com.\uff41pp", "com.app.",
])
def test_package_outside_the_name_rule_is_validation_error(package):
    with pytest.raises(ModelValidationError, match="package must be dot-separated names"):
        model_from_dict(edited_login_gate(("package",), package))


@pytest.mark.parametrize("package", ["x", "com.A_1.b2_", "Com.fixture.logingate"])
def test_package_inside_the_name_rule_loads(package):
    assert model_from_dict(edited_login_gate(("package",), package)).package == package


_EVERY_FIELD = json.loads((FIXTURES / "every_field.app").read_text(encoding="utf-8"))
_EVERY_FIELD_PATHS = tuple(_paths(_EVERY_FIELD))
_SMALL_RUN = harness.ExperimentConfig(corpus=FIXTURES, monkey_events=30, max_events=60)
_GUARD = NetGuard(harness.default_signatures(), harness.default_reputation(),
                  threshold=_SMALL_RUN.reputation_threshold,
                  identities=harness.DEFAULT_IDENTITIES)


def test_every_field_fixture_uses_every_kind():
    # Without this, a fixture the loader rejected would pass the property below.
    app = model_from_dict(_EVERY_FIELD)
    assert {el.kind for a in app.activities for s in a.states for el in s.elements} == {
        "button", "textfield", "checkbox", "generic"}
    assert {e.kind for t in app.transitions for e in t.side_effects} == {
        "network_request", "outgoing_call", "outgoing_sms", "java_call", "system_call",
        "register_receiver"}
    assert sorted(t.match.kind for t in app.transitions if t.match) == [
        "equals", "equals", "matches_category", "non_empty"]
    assert any(getattr(t.source, "anchor", None) for t in app.transitions)
    assert app.dynamic_receivers


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_EVERY_FIELD_PATHS), _json_values)
def test_any_value_anywhere_in_every_field_is_a_model_error_or_runs(path, value):
    # A model the loader accepts must run every method and write its
    # trace, capture log and coverage without raising.
    try:
        app = model_from_dict(edited_fixture("every_field.app", path, value))
    except ModelValidationError:
        return
    setup = harness.app_setup(app, _SMALL_RUN)
    for method in harness.METHODS:
        _, runner = harness._run_one(setup, method, _GUARD)
        "".join(call + "\n" for call in runner.session.trace).encode("utf-8")
        runner.netguard.capture_text()
        measure(runner.session, app)


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(_json_values, st.dictionaries(st.sampled_from(sorted(_LOGIN_GATE)),
                                                   _json_values)))
def test_any_json_document_loads_or_is_a_model_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "any.app"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _model_or_model_error(load_app_model, path)


@pytest.mark.parametrize("field, value", [("state", "nowhere"), ("activity", "Nowhere")])
def test_receiver_anchor_must_name_a_known_activity_and_state(field, value):
    doc = edited_fixture("every_field.app", ("transitions", 12, "from", field), value)
    with pytest.raises(ModelValidationError, match=f"unknown anchor {field} {value!r}"):
        model_from_dict(doc)


def test_ui_transition_on_an_action_its_element_does_not_list_is_a_model_error():
    # The monkey sends any tap kind to whatever element it hits, but the
    # oracle only tries listed actions: such a block would run unreachably.
    doc = json.loads((FIXTURES / "one_button.app").read_text(encoding="utf-8"))
    doc["blocks"].append({"id": "c9", "class": "com.fixture.onebutton.Main",
                          "method": "onHold"})
    doc["transitions"].append({
        "from": {"activity": "Main", "state": "home", "element": "btn_go"},
        "trigger": {"action": "long_click"}, "blocks": ["c9"]})
    with pytest.raises(ModelValidationError,
                       match=r"transition\[1\]: element 0 does not list 'long_click'"):
        model_from_dict(doc)


@pytest.mark.parametrize("path, value, key", [
    (("package",), "com.\ud800", "package"),
    (("alphabet",), ["alpha", "\ud800"], "alphabet"),
    (("transitions", 7, "side_effects", 0, "signature"), "void a.\ud800", "signature"),
    (("transitions", 7, "side_effects", 1, "data"), "GET /\ud800 HTTP/1.1\r\n\r\n", "data"),
])
def test_lone_surrogate_is_a_model_error(tmp_path, path, value, key):
    # json.dumps writes the surrogate as a \ud800 escape, as a hostile file would.
    path = write_model(tmp_path, edited_login_gate(path, value))
    with pytest.raises(ModelValidationError, match=f"{key} must be valid Unicode text"):
        load_app_model(path)


def test_non_ascii_text_loads():
    app = model_from_dict(edited_login_gate(("alphabet",), ["café", "日本"]))
    assert app.alphabet == ("café", "日本")


@pytest.mark.parametrize("data", [b"\xff{}", b"[" * 100_000 + b"]" * 100_000,
                                  b'{"bounds": [' + b"9" * 5000 + b"]}"],
                         ids=["not_utf8", "nested_too_deeply", "integer_over_int_digit_limit"])
def test_unreadable_model_file_is_parse_error(tmp_path, data):
    path = tmp_path / "bad.app"
    path.write_bytes(data)
    with pytest.raises(ModelParseError):
        load_app_model(path)


def test_ambiguous_transitions_rejected(tmp_path):
    doc = _minimal_doc()
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(ModelValidationError, match="deterministic"):
        load_app_model(write_model(tmp_path, doc))


def test_ambiguity_on_a_shadowed_element_is_rejected(tmp_path):
    # The first "B" shadows the second, so no event reaches the second's
    # transitions; the machine must still be deterministic there.
    doc = _minimal_doc()
    doc["activities"][0]["states"][0]["elements"] = [
        {"kind": "button", "text": "B", "bounds": [0, y, 100, 100], "actions": ["click"]}
        for y in (0, 200)]
    twin = {"from": {"activity": "Main", "state": "home", "element": 1},
            "trigger": {"action": "click"}, "to": None, "blocks": ["k1"]}
    doc["transitions"] = [twin, dict(twin)]
    with pytest.raises(ModelValidationError,
                       match=r"ambiguous transitions for \('Main', 'home', 1, 'click'\) "
                             r"\(machine must be deterministic\)"):
        load_app_model(write_model(tmp_path, doc))


# SHA-256 of repr(model) for each fixture, and of repr(load_corpus_dir(...))
# (the list of models) over the 20-app corpus by seed: a faster loader must
# build the same models.
GOLDEN_MODEL_REPR_DIGESTS = {
    "boot_gate.app": "143c10ef8d5e20176076e569eba3672dc3627325318624e51437bc8c7fc5bcda",
    "crash_first.app": "2a6ca4e759f6fd02c18d35880cc70d4c729a2d818063e5cbf57b600ff65935ac",
    "every_field.app": "b5e707f77d77a342f3cffc9db990692141a9f2d8b5a73ff43e7c606bf06cdea7",
    "login_gate.app": "e6b1f49d2c9b2a1a187d9110c2b79785ed09e994a3ce9ce55d309d7302003811",
    "one_button.app": "038d1f90834b77a5843d56e63aeaba215dcf27177a824e78b7fe79095728109d",
    "sealed_bomb.app": "43d54cd2c1fdb5f3b0fbfa3a8e90f6e4a9367471a702fda9bac4c76d5cfbac8e",
    "tiny_taps.app": "31c024a9aeeda36cac7f32f2d07f4d1daf6df175e055bfc34f77548cbb6b28c7",
}
GOLDEN_CORPUS_REPR_DIGESTS = {
    0: "4aa57287bb8d6566a44f6d5d8578113f6d0b845ac14a1226d73773bf6a435f2b",
    1: "63b346c90f5f70dff5f8a2637ccc7aa39886453597536c6975202fc33de91932",
}


def _repr_digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_every_fixture_is_golden():
    assert sorted(p.name for p in FIXTURES.glob("*.app")) == sorted(GOLDEN_MODEL_REPR_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL_REPR_DIGESTS))
def test_loaded_fixture_repr_is_golden(name):
    assert _repr_digest(load_app_model(FIXTURES / name)) == GOLDEN_MODEL_REPR_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_REPR_DIGESTS))
def test_loaded_corpus_repr_is_golden(tmp_path, seed):
    write_corpus(tmp_path, seed, 20)
    assert _repr_digest(harness.load_corpus_dir(tmp_path)) == GOLDEN_CORPUS_REPR_DIGESTS[seed]


def _records_built_without_a_constructor(app):
    """The records the loader builds with ``tuple.__new__``, which checks no arity."""
    for activity in app.activities:
        for state in activity.states:
            yield from state.elements
            yield from app.screen(activity.name, state.id).keys
    yield from app.blocks
    for t in app.transitions:
        yield t
        if isinstance(t.source, UiSource):
            yield t.source


def _check_record_arity(app):
    for record in _records_built_without_a_constructor(app):
        assert len(record) == len(type(record)._fields)
        assert record == type(record)(*record)


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL_REPR_DIGESTS))
def test_fixture_records_have_their_arity(name):
    _check_record_arity(load_app_model(FIXTURES / name))


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_REPR_DIGESTS))
def test_corpus_records_have_their_arity(tmp_path, seed):
    write_corpus(tmp_path, seed, 20)
    for app in harness.load_corpus_dir(tmp_path):
        _check_record_arity(app)


@settings(max_examples=60, deadline=None)
@given(app_docs())
def test_generated_model_records_have_their_arity(doc):
    _check_record_arity(model_from_dict(doc))


def _check_step_result_arity(app):
    """apply_event builds its results with ``tuple.__new__`` too: check every
    result of every pooled event on every screen of ``app``."""
    launched = device_for(app)
    for activity in app.activities:
        for state in activity.states:
            device = launched._replace(contexts={app.package: AppContext(activity.name, state.id)})
            for event in event_pool(app):
                result = apply_event(device, app, event)
                assert len(result) == len(StepResult._fields) == 4
                assert result == StepResult(*result)


@pytest.mark.parametrize("name", sorted(GOLDEN_MODEL_REPR_DIGESTS))
def test_fixture_step_results_have_their_arity(name):
    _check_step_result_arity(load_app_model(FIXTURES / name))


@settings(max_examples=60, deadline=None)
@given(app_docs())
def test_generated_model_step_results_have_their_arity(doc):
    _check_step_result_arity(model_from_dict(doc))


def test_distinct_equals_values_are_allowed(tmp_path):
    doc = _minimal_doc()
    doc["activities"][0]["states"][0]["elements"].append(
        {"kind": "textfield", "id": "t", "bounds": [0, 200, 100, 50],
         "actions": ["set_text"]}
    )
    doc["blocks"].append({"id": "k2", "class": "c", "method": "m2"})
    doc["transitions"] = [
        {"from": {"activity": "Main", "state": "home", "element": "t"},
         "trigger": {"action": "set_text", "match": {"kind": "equals", "value": "a"}},
         "to": None, "blocks": ["k1"]},
        {"from": {"activity": "Main", "state": "home", "element": "t"},
         "trigger": {"action": "set_text", "match": {"kind": "equals", "value": "b"}},
         "to": None, "blocks": ["k2"]},
    ]
    model = load_app_model(write_model(tmp_path, doc))
    assert len(model.transitions) == 2


# ---------------------------------------------------------------------------
# Hierarchy dumps
# ---------------------------------------------------------------------------

def test_dump_login_state(login_gate):
    device = device_for(login_gate)
    elements = dump_hierarchy(device, login_gate)
    assert [e.id_string for e in elements] == ["edit_username", "edit_password", "btn_login"]
    assert [e.kind for e in elements] == ["textfield", "textfield", "button"]


def test_dump_is_stable(login_gate):
    device = device_for(login_gate)
    assert dump_hierarchy(device, login_gate) == dump_hierarchy(device, login_gate)


def test_dump_on_crashed_session_fails(crash_first):
    device = device_for(crash_first)
    key = identify_element("Main", dump_hierarchy(device, crash_first)[0])
    device = apply_event(device, crash_first, Event("click", key)).device
    assert device.crashed
    with pytest.raises(SessionCrashedError):
        dump_hierarchy(device, crash_first)


# ---------------------------------------------------------------------------
# Event application
# ---------------------------------------------------------------------------

def _key(app, activity, state, id_string):
    for el in app.screen(activity, state).state.elements:
        if el.id_string == id_string:
            return identify_element(activity, el)
    raise AssertionError(f"element {id_string} not in {activity}/{state}")


def test_login_success_path(login_gate):
    device = device_for(login_gate)
    user = _key(login_gate, "LoginActivity", "form", "edit_username")
    pw = _key(login_gate, "LoginActivity", "form", "edit_password")
    login = _key(login_gate, "LoginActivity", "form", "btn_login")

    device = apply_event(device, login_gate, Event("set_text", user, "alice")).device
    device = apply_event(device, login_gate, Event("set_text", pw, "123456")).device
    result = apply_event(device, login_gate, Event("click", login))
    assert result.executed_blocks == ("b7", "b8")
    ctx = result.device.context(login_gate.package)
    assert (ctx.activity, ctx.state) == ("MainActivity", "menu")


def test_login_with_empty_password_hits_error_path(login_gate):
    device = device_for(login_gate)
    user = _key(login_gate, "LoginActivity", "form", "edit_username")
    login = _key(login_gate, "LoginActivity", "form", "btn_login")
    device = apply_event(device, login_gate, Event("set_text", user, "alice")).device
    result = apply_event(device, login_gate, Event("click", login))
    assert result.executed_blocks == ("b5",)
    ctx = result.device.context(login_gate.package)
    assert (ctx.activity, ctx.state) == ("LoginActivity", "form_u")


def test_non_matching_password_is_empty_step(login_gate):
    device = device_for(login_gate)
    pw = _key(login_gate, "LoginActivity", "form", "edit_password")
    result = apply_event(device, login_gate, Event("set_text", pw, "zzz"))
    assert result.executed_blocks == ()
    assert not result.matched
    assert result.device == device  # structural identity of the empty step


def test_declared_receiver_fires_on_broadcast(login_gate):
    device = device_for(login_gate)
    result = apply_event(device, login_gate,
                         Event("broadcast", action="android.intent.action.BOOT_COMPLETED"))
    assert result.executed_blocks == ("b4",)


def test_undeclared_broadcast_is_ignored(login_gate):
    device = device_for(login_gate)
    result = apply_event(device, login_gate,
                         Event("broadcast", action="android.intent.action.USER_PRESENT"))
    assert result.executed_blocks == ()
    assert result.device == device


def test_receiver_events_reach_their_trigger_only():
    # An SMS receiver is live for a broadcast of its action, but only an
    # incoming SMS fires it: transitions are keyed by (trigger, action).
    doc = _minimal_doc()
    doc["receivers"]["declared"] = [SMS_RECEIVED_ACTION]
    doc["transitions"] = [{"from": {"receiver": SMS_RECEIVED_ACTION}, "blocks": ["k1"]}]
    app = model_from_dict(doc)
    device = device_for(app)
    ctx = device.context(app.package)
    broadcast = Event("broadcast", action=SMS_RECEIVED_ACTION)
    assert live_receiver_action(app, ctx, broadcast) == SMS_RECEIVED_ACTION
    assert not apply_event(device, app, broadcast).matched
    sms = Event("incoming_sms", number=app.own_number, body="hi")
    assert live_receiver_action(app, ctx, sms) == SMS_RECEIVED_ACTION
    assert apply_event(device, app, sms).executed_blocks == ("k1",)
    assert live_receiver_action(app, ctx, Event("incoming_call", number=app.own_number)) is None
    assert live_receiver_action(app, ctx, Event("system_key", name="back")) is None


def test_crashed_session_accepts_no_events(crash_first):
    device = device_for(crash_first)
    key = identify_element("Main", dump_hierarchy(device, crash_first)[0])
    device = apply_event(device, crash_first, Event("click", key)).device
    with pytest.raises(SessionCrashedError):
        apply_event(device, crash_first, Event("click", key))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_determinism(login_gate, data):
    pool = event_pool(login_gate)
    events = data.draw(st.lists(st.sampled_from(pool), max_size=25))

    def run():
        device = device_for(login_gate)
        summary = []
        for ev in events:
            if device.crashed:
                break
            res = apply_event(device, login_gate, ev)
            device = res.device
            ctx = device.context(login_gate.package)
            summary.append((res.executed_blocks, res.side_effects, res.device.crashed,
                            res.matched, ctx.activity, ctx.state, ctx.receivers))
        return summary

    assert run() == run()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_conservation_and_oracle_soundness(login_gate, data):
    pool = event_pool(login_gate)
    events = data.draw(st.lists(st.sampled_from(pool), max_size=25))
    oracle = reachable_blocks(login_gate)
    known = {b.id for b in login_gate.blocks}
    device = device_for(login_gate)
    for ev in events:
        if device.crashed:
            break
        res = apply_event(device, login_gate, ev)
        device = res.device
        for bid in res.executed_blocks:
            assert bid in known
            assert bid in oracle


# ---------------------------------------------------------------------------
# The step contract: a step never mutates its input device, and a fired
# transition that changes nothing keeps it
# ---------------------------------------------------------------------------

PING = "com.t.PING"


def _registering_app() -> AppModel:
    """One screen whose buttons register a receiver, stay put, move, or crash."""
    button = lambda name, y: {"kind": "button", "id": name, "bounds": [0, y, 100, 100],
                              "actions": ["click"]}
    home = {"activity": "Main", "state": "home"}
    click = lambda element, to, blocks, **extra: {
        "from": {"activity": "Main", "state": "home", "element": element},
        "trigger": {"action": "click"}, "to": to, "blocks": blocks, **extra}
    return model_from_dict(_minimal_doc(
        activities=[{"name": "Main", "initial_state": "home", "states": [
            {"id": "home", "elements": [button("reg", 0), button("stay", 100),
                                        button("go", 200), button("boom", 300)]},
            {"id": "away", "elements": [button("back", 0)]},
        ]}],
        blocks=[{"id": f"k{i}", "class": "com.t.app.Main", "method": f"m{i}"} for i in range(6)],
        transitions=[
            click("reg", None, ["k0"],
                  side_effects=[{"kind": "register_receiver", "action": PING}]),
            click("stay", home, ["k1"]),
            click("go", {"activity": "Main", "state": "away"}, ["k2"]),
            click("boom", None, ["k3"], crash=True),
            {"from": {"activity": "Main", "state": "away", "element": "back"},
             "trigger": {"action": "click"}, "to": home, "blocks": ["k4"]},
            {"from": {"receiver": PING}, "to": None, "blocks": ["k5"]},
        ],
    ), source="registering")


def _click_home(app, id_string):
    return Event("click", _key(app, "Main", "home", id_string))


@pytest.mark.parametrize("fixture, event", [
    ("login_gate", lambda app: Event("click", _key(app, "LoginActivity", "form", "btn_login"))),
    ("tiny_taps", lambda app: _click_home(app, "btn_top")),   # to: null, no effects
    ("registering", lambda app: _click_home(app, "stay")),    # to: the state it is in
], ids=["login_gate", "tiny_taps", "stay"])
def test_fired_transition_that_keeps_the_context_keeps_the_device(request, fixture, event):
    app = _registering_app() if fixture == "registering" else request.getfixturevalue(fixture)
    device = device_for(app)
    result = apply_event(device, app, event(app))
    assert result.matched and result.executed_blocks
    assert result.device is device


def test_registering_a_receiver_again_keeps_the_device():
    app = _registering_app()
    device = apply_event(device_for(app), app, _click_home(app, "reg")).device
    result = apply_event(device, app, _click_home(app, "reg"))
    assert result.matched and result.device is device


@pytest.mark.parametrize("fixture, event", [
    ("login_gate", lambda app: Event(
        "set_text", _key(app, "LoginActivity", "form", "edit_username"), "alice")),   # moves
    ("registering", lambda app: _click_home(app, "go")),                 # moves
    ("registering", lambda app: _click_home(app, "reg")),                # registers a receiver
    ("registering", lambda app: _click_home(app, "boom")),               # crashes
    ("crash_first", lambda app: _click_home(app, "btn_update")),         # crashes
], ids=["login_gate-move", "move", "register", "crash", "crash_first-crash"])
def test_changing_transition_returns_a_new_device_and_leaves_the_input(request, fixture, event):
    app = _registering_app() if fixture == "registering" else request.getfixturevalue(fixture)
    device = device_for(app)
    snapshot = copy.deepcopy(device)
    result = apply_event(device, app, event(app))
    assert result.matched
    assert result.device is not device
    assert (result.device.contexts, result.device.crashed) != (device.contexts, device.crashed)
    assert device == snapshot


def test_transition_that_registers_moves_and_crashes_does_all_three():
    doc = _minimal_doc()
    doc["activities"][0]["states"].append({"id": "away"})
    doc["receivers"]["dynamic"] = [{"activity": "Main", "state": "away", "action": OUTSIDE_ACTION}]
    doc["transitions"][0].update(to={"activity": "Main", "state": "away"}, crash=True,
                                 side_effects=[{"kind": "register_receiver", "action": PING}])
    app = model_from_dict(doc)
    (transition,) = app.transitions
    device = device_for(app)
    result = apply_event(device, app, _click_home(app, "b"))
    assert result.matched
    ctx = AppContext("Main", "away", frozenset({PING, OUTSIDE_ACTION}))
    assert result.device == device._replace(contexts={**device.contexts, app.package: ctx},
                                            crashed=True)
    assert result.executed_blocks is transition.blocks
    assert result.side_effects is transition.side_effects
    assert not device.crashed


def test_no_device_field_can_be_assigned():
    device = DeviceState()
    for name in device._fields:
        with pytest.raises(AttributeError):
            setattr(device, name, getattr(device, name))


def test_the_default_contexts_cannot_be_changed():
    with pytest.raises(TypeError):
        DeviceState().contexts["com.t.app"] = AppContext("Main", "home")


@pytest.mark.parametrize("fixture", ["login_gate", "crash_first"])
def test_install_app_leaves_its_input_and_returns_frozensets(request, fixture, tiny_taps):
    app = request.getfixturevalue(fixture)
    for device in (DeviceState(), baseline_device(), device_for(tiny_taps)):
        snapshot = copy.deepcopy(device)
        installed = install_app(device, app)
        assert device == snapshot
        assert app.package in installed.installed_apps
        assert type(installed.installed_apps) is frozenset
        assert type(installed.running_processes) is frozenset


def test_a_device_pickles_and_copies_to_an_equal_device(crash_first):
    crashed = apply_event(device_for(crash_first), crash_first,
                          _click_home(crash_first, "btn_update")).device
    for device in (DeviceState(), baseline_device(), crashed):
        assert pickle.loads(pickle.dumps(device)) == device
        assert copy.deepcopy(device) == device == copy.copy(device)


def _reference_transition(app, ctx, event):
    """The transition ``event`` fires, found by scanning ``app.transitions``
    in order, without the model's lookup tables."""
    here = (ctx.activity, ctx.state)
    if event.kind in UI_ACTIONS:
        keys = app.screen(*here).keys
        if event.target not in keys:
            return None
        source = UiSource(*here, keys.index(event.target))  # the first element wins
        for t in app.transitions:
            if t.source == source and t.action == event.kind and (
                    t.match is None or t.match.accepts(event.value, default_tables())):
                return t
        return None
    action = live_receiver_action(app, ctx, event)
    for t in app.transitions:
        src = t.source
        if isinstance(src, ReceiverSource) and (t.action, src.action) == (event.kind, action) \
                and src.anchor in (None, here):
            return t
    return None


def _cloning_step(device, app, event) -> StepResult:
    """apply_event as it was when every fired transition built a new device."""
    if event.kind == "app_switch":
        return apply_event(device, app, event)
    ctx = device.context(app.package)
    transition = _reference_transition(app, ctx, event)
    if transition is None:
        return StepResult(device, (), (), False)
    new_ctx = ctx
    for eff in transition.side_effects:
        if eff.kind == "register_receiver":
            new_ctx = AppContext(new_ctx.activity, new_ctx.state,
                                 new_ctx.receivers | {eff.action})
    if transition.to is not None and transition.to != (new_ctx.activity, new_ctx.state):
        new_ctx = _enter_state(app, new_ctx, *transition.to)
    dev = DeviceState(contexts={**device.contexts, app.package: new_ctx},
                      installed_apps=device.installed_apps,
                      running_processes=device.running_processes,
                      crashed=device.crashed or transition.crash)
    return StepResult(dev, transition.blocks, transition.side_effects, True)


_STEP_FIXTURES = ("login_gate", "tiny_taps", "one_button", "boot_gate", "sealed_bomb",
                  "crash_first", "registering")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_apply_event_equals_the_cloning_stepper_and_mutates_no_input(request, data):
    name = data.draw(st.sampled_from(_STEP_FIXTURES))
    app = _registering_app() if name == "registering" else request.getfixturevalue(name)
    _check_against_the_cloning_stepper(app, data, Event("broadcast", action=PING))


@settings(max_examples=60, deadline=None)
@given(app_docs(), st.data())
def test_apply_event_equals_the_cloning_stepper_on_generated_models(doc, data):
    # Generated ids collide, so events hit shadowed elements.
    _check_against_the_cloning_stepper(model_from_dict(doc), data,
                                       Event("broadcast", action=OUTSIDE_ACTION))


def _check_against_the_cloning_stepper(app, data, *extra_events):
    pool = event_pool(app) + list(extra_events)
    device = reference = device_for(app)
    for _ in range(data.draw(st.integers(0, 30))):
        if device.crashed:
            break
        # Any event, or one aimed at the current screen (or at no element),
        # so that the screen's own and shadowed elements are hit often.
        ctx = device.context(app.package)
        keys = app.screen(ctx.activity, ctx.state).keys
        here = [ev for ev in pool if ev.target is None or ev.target in keys]
        ev = data.draw(st.sampled_from(pool) | st.sampled_from(here))
        snapshot = copy.deepcopy(device)
        result = apply_event(device, app, ev)
        expected = _cloning_step(reference, app, ev)
        assert result == expected  # field by field; the devices by value
        assert device == snapshot
        device, reference = result.device, expected.device


# ---------------------------------------------------------------------------
# Engine records
# ---------------------------------------------------------------------------

_KEY = ElementKey("strong_id", "Main", "btn")
_RECORDS = [
    (Event("set_text", _KEY, "v"), ("kind", "target", "value", "action", "number", "body", "name")),
    (ElementKey("partial_dims", None, (3, 4)), ("kind", "activity", "value")),
    (AppContext("Main", "home", frozenset({PING})), ("activity", "state", "receivers")),
    # A hashable stand-in for the device: a DeviceState is not hashable.
    (StepResult(None, ("k1",), (), True),
     ("device", "executed_blocks", "side_effects", "matched")),
    # The model records the loader builds.
    (UiElement("button", "btn", None, "Go", None, (0, 0, 10, 5), ("click",)),
     ("kind", "id_string", "content_description", "text", "hint", "bounds", "actions")),
    (UiState("home", (UiElement(),)), ("id", "elements")),
    (Activity("Main", "home", (UiState("home", ()),)), ("name", "initial_state", "states")),
    (BasicBlock("k1", "com.t.Main", "m"), ("id", "class_name", "method")),
    (SideEffect("java_call", signature="void a.b", origin=("app_code",), pid=7),
     ("kind", "data", "protocol", "server", "number", "body", "signature", "origin", "pid",
      "name", "action")),
    (TextMatch("equals", value="v"), ("kind", "value", "category")),
    (UiSource("Main", "home", 0), ("activity", "state", "element_index")),
    (ReceiverSource(PING, ("Main", "home")), ("action", "anchor")),
    # The field order apply_event unpacks.
    (Transition(UiSource("Main", "home", 0), "click", None, ("Main", "away"), ("k1",),
                (SideEffect("register_receiver", action=PING),), True),
     ("source", "action", "match", "to", "blocks", "side_effects", "crash")),
    # The session's record of what the platform did with a side effect.
    (ObservedEffect(SideEffect("outgoing_sms", number="81001"), "telephony_rejected"),
     ("effect", "tag")),
]


@pytest.mark.parametrize("record, names", _RECORDS, ids=lambda r: type(r).__name__)
def test_record_hashes_as_the_tuple_of_its_fields(record, names):
    # Set orders in the outputs follow these hashes.
    assert hash(record) == hash(tuple(getattr(record, n) for n in names))


@pytest.mark.parametrize("record, names", _RECORDS, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record, names):
    with pytest.raises(AttributeError):
        setattr(record, names[0], None)


@pytest.mark.parametrize("call, message", [
    (lambda: TextMatch("bogus").accepts("x", default_tables()), "unknown match kind 'bogus'"),
    (lambda: loopback_event(SideEffect("java_call", signature="void a.b", origin=("app_code",))),
     "no loopback for java_call"),
], ids=["unknown_match_kind", "loopback_of_a_java_call"])
def test_record_helpers_reject_what_they_cannot_build(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_event_repr_names_every_field():
    assert repr(Event("click")) == (
        "Event(kind='click', target=None, value='', action='', number='', body='', name='')")
    assert repr(Event("click", _KEY)).startswith(
        "Event(kind='click', target=ElementKey(kind='strong_id', activity='Main', value='btn'),")


# ---------------------------------------------------------------------------
# Reachability oracle
# ---------------------------------------------------------------------------

def test_oracle_login_gate_13_of_14(login_gate):
    blocks = reachable_blocks(login_gate)
    assert blocks == {"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8",
                      "b9", "b10", "b11", "b12", "b13"}
    assert "b14" not in blocks  # the one dead block


def test_oracle_single_path_app(tiny_taps):
    assert reachable_blocks(tiny_taps) == {"t1", "t2", "t3"}


def test_oracle_excludes_out_of_alphabet_gate(sealed_bomb):
    # the gate wants text that is not in the declared alphabet
    assert reachable_blocks(sealed_bomb) == {"u1"}


def test_oracle_includes_in_alphabet_gate():
    # sealed_bomb declares no receivers, so the alphabet is its only other event source.
    app = model_from_dict(edited_fixture("sealed_bomb.app", ("alphabet",), ["XJ9#q"]))
    assert reachable_blocks(app) == {"u1", "g1", "g2"}


def test_oracle_budget_is_explicit(login_gate):
    with pytest.raises(OracleBudgetError, match="oracle unavailable"):
        reachable_blocks(login_gate, max_states=2)
