import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage.app_model import (
    Event,
    EventUniverse,
    ModelParseError,
    ModelValidationError,
    OracleBudgetError,
    SessionCrashedError,
    apply_event,
    dump_hierarchy,
    identify_element,
    load_app_model,
    model_from_dict,
    reachable_blocks,
)

from conftest import WRONGLY_TYPED_EDITS, device_for, edited_login_gate, write_model


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


def test_ambiguous_transitions_rejected(tmp_path):
    doc = _minimal_doc()
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(ModelValidationError, match="deterministic"):
        load_app_model(write_model(tmp_path, doc))


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
    device = apply_event(device, crash_first, Event.click(key)).device
    assert device.crashed
    with pytest.raises(SessionCrashedError):
        dump_hierarchy(device, crash_first)


# ---------------------------------------------------------------------------
# Event application
# ---------------------------------------------------------------------------

def _key(app, activity, state, id_string):
    for el in app.ui_state(activity, state).elements:
        if el.id_string == id_string:
            return identify_element(activity, el)
    raise AssertionError(f"element {id_string} not in {activity}/{state}")


def test_login_success_path(login_gate):
    device = device_for(login_gate)
    user = _key(login_gate, "LoginActivity", "form", "edit_username")
    pw = _key(login_gate, "LoginActivity", "form", "edit_password")
    login = _key(login_gate, "LoginActivity", "form", "btn_login")

    device = apply_event(device, login_gate, Event.set_text(user, "alice")).device
    device = apply_event(device, login_gate, Event.set_text(pw, "123456")).device
    result = apply_event(device, login_gate, Event.click(login))
    assert result.executed_blocks == ("b7", "b8")
    ctx = result.device.context(login_gate.package)
    assert (ctx.activity, ctx.state) == ("MainActivity", "menu")


def test_login_with_empty_password_hits_error_path(login_gate):
    device = device_for(login_gate)
    user = _key(login_gate, "LoginActivity", "form", "edit_username")
    login = _key(login_gate, "LoginActivity", "form", "btn_login")
    device = apply_event(device, login_gate, Event.set_text(user, "alice")).device
    result = apply_event(device, login_gate, Event.click(login))
    assert result.executed_blocks == ("b5",)
    ctx = result.device.context(login_gate.package)
    assert (ctx.activity, ctx.state) == ("LoginActivity", "form_u")


def test_non_matching_password_is_empty_step(login_gate):
    device = device_for(login_gate)
    pw = _key(login_gate, "LoginActivity", "form", "edit_password")
    result = apply_event(device, login_gate, Event.set_text(pw, "zzz"))
    assert result.executed_blocks == ()
    assert not result.matched
    assert result.device == device  # structural identity of the empty step


def test_declared_receiver_fires_on_broadcast(login_gate):
    device = device_for(login_gate)
    result = apply_event(device, login_gate,
                         Event.broadcast("android.intent.action.BOOT_COMPLETED"))
    assert result.executed_blocks == ("b4",)


def test_undeclared_broadcast_is_ignored(login_gate):
    device = device_for(login_gate)
    result = apply_event(device, login_gate,
                         Event.broadcast("android.intent.action.USER_PRESENT"))
    assert result.executed_blocks == ()
    assert result.device == device


def test_crashed_session_accepts_no_events(crash_first):
    device = device_for(crash_first)
    key = identify_element("Main", dump_hierarchy(device, crash_first)[0])
    device = apply_event(device, crash_first, Event.click(key)).device
    with pytest.raises(SessionCrashedError):
        apply_event(device, crash_first, Event.click(key))


def _event_pool(app):
    pool = [Event.app_switch(), Event.system_key("back"),
            Event.broadcast("android.intent.action.BOOT_COMPLETED"),
            Event.incoming_sms(app.own_number, "hi"),
            Event.incoming_call(app.own_number)]
    for act in app.activities:
        for state in act.states:
            for el in state.elements:
                key = identify_element(act.name, el)
                for action in el.actions:
                    if action == "set_text":
                        for v in app.alphabet:
                            pool.append(Event.set_text(key, v))
                        pool.append(Event.set_text(key, "random-ish"))
                    else:
                        pool.append(Event(action, target=key))
    return pool


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_determinism(login_gate, data):
    pool = _event_pool(login_gate)
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
            summary.append((res.executed_blocks, res.side_effects, res.crashed,
                            res.matched, ctx.activity, ctx.state, ctx.receivers))
        return summary

    assert run() == run()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_conservation_and_oracle_soundness(login_gate, data):
    pool = _event_pool(login_gate)
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


def test_oracle_includes_in_alphabet_gate(sealed_bomb):
    universe = EventUniverse(
        text_values=("XJ9#q",), broadcast_actions=(),
        include_sms=False, include_call=False,
    )
    assert reachable_blocks(sealed_bomb, universe) == {"u1", "g1", "g2"}


def test_oracle_budget_is_explicit(login_gate):
    with pytest.raises(OracleBudgetError, match="oracle unavailable"):
        reachable_blocks(login_gate, max_states=2)
