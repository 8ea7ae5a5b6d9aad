import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage.app_model import (
    LOOPBACK_LIMIT,
    SMS_RECEIVED_ACTION,
    Event,
    SessionCrashedError,
    SideEffect,
    apply_event,
    identify_element,
    install_app,
    model_from_dict,
    run_event_chain,
)
from droidcage.corpus import build_corpus
from droidcage.explorer import ExplorationConfig, baseline_device, explore
from droidcage.netguard import (
    DEFAULT_IDENTITIES,
    DEFAULT_REPUTATION_THRESHOLD,
    NetGuard,
    default_reputation,
    default_signatures,
    parse_capture_log,
)
from droidcage.session import ObservedEffect, Session, SessionRunner, contained

from conftest import app_docs, device_for, event_pool


def _self_sms_doc(receiver_sends_back=False):
    doc = {
        "package": "com.t.selfsms", "main_activity": "Main", "own_number": "5550199",
        "alphabet": [],
        "activities": [{"name": "Main", "initial_state": "home", "states": [
            {"id": "home", "elements": [
                {"kind": "button", "id": "btn_send", "text": "Send",
                 "bounds": [0, 0, 200, 100], "actions": ["click"]},
            ]},
        ]}],
        "blocks": [
            {"id": "s1", "class": "c.Main", "method": "send"},
            {"id": "r1", "class": "c.Receiver", "method": "onSms"},
        ],
        "receivers": {"declared": [SMS_RECEIVED_ACTION], "dynamic": []},
        "transitions": [
            {"from": {"activity": "Main", "state": "home", "element": "btn_send"},
             "trigger": {"action": "click"}, "to": None, "blocks": ["s1"],
             "side_effects": [{"kind": "outgoing_sms", "number": "5550199",
                               "body": "hello-self"}]},
            {"from": {"receiver": SMS_RECEIVED_ACTION}, "to": None, "blocks": ["r1"],
             "side_effects": ([{"kind": "outgoing_sms", "number": "5550199",
                                "body": "echo"}] if receiver_sends_back else [])},
        ],
    }
    return doc


def _runner(doc, **kw):
    app = model_from_dict(doc)
    device = install_app(baseline_device(), app)
    return app, SessionRunner(app, device, **kw)


def test_delivered_self_sms_loops_back_to_receiver():
    app, runner = _runner(_self_sms_doc())
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    assert runner.session.executed_blocks == {"s1", "r1"}
    assert len(runner.session.events) == 1  # loopback is not an engine event
    assert [o.effect.number for o in runner.session.effects
            if o.tag == "telephony_delivered"] == ["5550199"]


def test_loopback_body_is_the_sent_body():
    doc = _self_sms_doc()
    # gate the receiver on the exact body that was sent
    doc["transitions"][1]["from"] = {"receiver": SMS_RECEIVED_ACTION}
    app, runner = _runner(doc)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    assert "r1" in runner.session.executed_blocks


def test_self_texting_cycle_is_capped():
    app, runner = _runner(_self_sms_doc(receiver_sends_back=True))
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    # The receiver texts itself forever; the chain stops after the click
    # and LOOPBACK_LIMIT loopbacks, each of which sent one more SMS.
    _, steps = run_event_chain(runner.device, app, Event("click", btn))
    assert [ev.kind for ev, _ in steps] == ["click"] + ["incoming_sms"] * LOOPBACK_LIMIT
    assert [res.executed_blocks for _, res in steps] == [("s1",)] + [("r1",)] * LOOPBACK_LIMIT
    runner.step(Event("click", btn))
    assert len(runner.session.events) == 1
    delivered = [o for o in runner.session.effects if o.tag == "telephony_delivered"]
    assert len(delivered) == LOOPBACK_LIMIT + 1 == 9


def test_rejected_sms_tagged_and_session_alive():
    doc = _self_sms_doc()
    doc["transitions"][0]["side_effects"][0]["number"] = "81001"
    app, runner = _runner(doc)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    assert [o.effect.number for o in runner.session.effects
            if o.tag == "telephony_rejected"] == ["81001"]
    assert not runner.session.crashed
    assert runner.session.executed_blocks == {"s1"}  # no loopback


def test_network_side_effects_flow_through_guard():
    doc = _self_sms_doc()
    doc["transitions"][0]["side_effects"] = [
        {"kind": "network_request", "protocol": "http",
         "data": "GET /ping HTTP/1.1\r\nHost: api.unknown.example\r\n\r\n"},
    ]
    guard = NetGuard()
    app, runner = _runner(doc, netguard=guard)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    tags = [o.tag for o in runner.session.effects]
    assert "net_handled" in tags
    logged = parse_capture_log(guard.capture_text())
    assert [tx.path for tx in logged] == ["/ping"]


def test_malformed_network_request_dropped_and_tagged():
    doc = _self_sms_doc()
    doc["transitions"][0]["side_effects"] = [
        {"kind": "network_request", "protocol": "http", "data": "\x00 not http"},
    ]
    guard = NetGuard()
    app, runner = _runner(doc, netguard=guard)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    assert [o.tag for o in runner.session.effects] == ["net_malformed"]
    assert guard.capture_log == []
    assert len(guard.malformed_log) == 1
    assert not runner.session.crashed


def test_trace_accumulates_only_target_pid_calls():
    doc = _self_sms_doc()
    doc["transitions"][0]["side_effects"] = [
        {"kind": "java_call", "signature": "void c.Main.send"},
        {"kind": "java_call", "signature": "void other.Noise.tick", "pid": 1},
        {"kind": "system_call", "name": "sendto"},
    ]
    app, runner = _runner(doc)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    runner.step(Event("click", btn))
    assert runner.session.trace == ["void c.Main.send", "sendto"]


@pytest.mark.parametrize("event", [
    Event("click"), Event("long_click"), Event("scroll"), Event("toggle"),
    Event("set_text", None, "abc"),
])
def test_ui_event_on_nothing_steps_like_apply_event(event):
    app, runner = _runner(_self_sms_doc())
    device = runner.device
    assert runner.step(event) == apply_event(device, app, event)
    assert runner.device is device
    assert runner.session.events == [event]
    assert runner.session.executed_blocks == set()
    assert runner.session.effects == [] and runner.session.trace == []


def test_ui_event_on_nothing_reports_the_device_it_left(login_gate):
    runner = SessionRunner(login_gate, install_app(baseline_device(), login_gate))
    runner.step(Event("click"))
    form = login_gate.screen("LoginActivity", "form").state.elements
    user = next(identify_element("LoginActivity", e) for e in form if e.id_string == "edit_username")
    runner.step(Event("set_text", user, "alice"))
    device = runner.device
    assert runner.step(Event("click")) == apply_event(device, login_gate, Event("click"))
    assert runner.step(Event("scroll")).device is device


def test_ui_event_on_nothing_still_fails_on_crashed_device(crash_first):
    device = install_app(baseline_device(), crash_first)
    runner = SessionRunner(crash_first, device)
    home = crash_first.screen("Main", "home").state
    runner.step(Event("click", identify_element("Main", home.elements[0])))
    assert runner.session.crashed and runner.device.crashed
    with pytest.raises(SessionCrashedError):
        runner.step(Event("click"))
    assert len(runner.session.events) == 1


def test_a_crash_in_a_loopback_crashes_the_session():
    doc = _self_sms_doc()
    doc["transitions"][1]["crash"] = True  # the SMS receiver
    app, runner = _runner(doc)
    btn = identify_element("Main", app.screen("Main", "home").state.elements[0])
    assert not runner.step(Event("click", btn)).device.crashed  # the click itself did not crash
    assert runner.session.crashed and runner.device.crashed
    assert runner.session.executed_blocks == {"s1", "r1"}


def _copy_doc():
    """The self-texting app whose send button also makes a forwarded, a
    malformed and a blocked request and a traced Java call, plus a second
    button with a block of its own and an SMS the policy rejects."""
    doc = _self_sms_doc()
    doc["activities"][0]["states"][0]["elements"].append(
        {"kind": "button", "id": "btn_more", "text": "More",
         "bounds": [0, 100, 200, 100], "actions": ["click"]})
    doc["blocks"].append({"id": "m1", "class": "c.Main", "method": "more"})
    doc["transitions"][0]["side_effects"] += [
        {"kind": "network_request", "data": "GET /ping HTTP/1.1\r\nHost: api.unknown.example\r\n\r\n"},
        {"kind": "network_request", "data": "\x00 not http"},
        {"kind": "network_request", "protocol": "ftp", "data": "USER anonymous\r\n"},
        {"kind": "java_call", "signature": "void c.Main.send"},
    ]
    doc["transitions"].append(
        {"from": {"activity": "Main", "state": "home", "element": "btn_more"},
         "trigger": {"action": "click"}, "to": None, "blocks": ["m1"],
         "side_effects": [{"kind": "outgoing_sms", "number": "81001", "body": "premium"}]})
    return doc


def test_a_copied_runner_leaves_the_original_unchanged():
    app, runner = _runner(_copy_doc(), netguard=NetGuard())
    send, more = [identify_element("Main", e) for e in app.screen("Main", "home").state.elements]
    runner.step(Event("click", send))
    session, guard = runner.session, runner.netguard
    fields = ("events", "executed_blocks", "trace", "effects", "device")
    logs = ("capture_log", "malformed_log", "forwarded")
    session_before = copy.deepcopy([getattr(session, f) for f in fields])
    guard_before = copy.deepcopy([getattr(guard, f) for f in logs])

    dup = runner.copy()
    assert dup.app is runner.app and dup.tables is runner.tables
    dup.step(Event("click", send))
    dup.step(Event("click", more))
    explore(app, ExplorationConfig(seed=0, max_events=10), dup.device, runner=dup)

    # The copy reached handled, malformed and blocked requests, a delivered
    # and a rejected SMS and a new block, and it traced calls.
    assert dup.session.executed_blocks == {"s1", "r1", "m1"}
    assert {o.tag for o in dup.session.effects} >= {
        "net_handled", "net_malformed", "net_blocked_protocol",
        "telephony_delivered", "telephony_rejected"}
    assert dup.session.trace
    for f in logs:
        assert len(getattr(dup.netguard, f)) > len(getattr(guard, f)), f
    assert [getattr(session, f) for f in fields] == session_before
    assert [getattr(guard, f) for f in logs] == guard_before
    assert runner.session is session and runner.netguard is guard
    assert runner.device is session.device


def test_a_runner_built_without_a_guard_holds_the_packaged_guard():
    app, runner = _runner(_copy_doc())
    guard = runner.netguard
    assert (guard.signatures, guard.reputation, guard.identities, guard.threshold) == (
        default_signatures(), default_reputation(), DEFAULT_IDENTITIES,
        DEFAULT_REPUTATION_THRESHOLD)
    dup = runner.copy()
    assert dup.netguard is not guard
    assert dup.netguard.signatures is guard.signatures
    send = identify_element("Main", app.screen("Main", "home").state.elements[0])
    dup.step(Event("click", send))
    assert dup.netguard.capture_log and dup.netguard.malformed_log and dup.netguard.forwarded
    assert not (guard.capture_log or guard.malformed_log or guard.forwarded)


def test_exploring_a_network_app_without_a_guard_passes_every_request_through_one():
    # app19 of the corpus is the network-chatty one: its requests reach
    # every NetGuard disposition.
    app = build_corpus(0, 20)[19].model
    runner = SessionRunner(app, install_app(baseline_device(), app))
    explore(app, ExplorationConfig(seed=0), runner.device, runner=runner)
    tags = [o.tag for o in runner.session.effects if o.effect.kind == "network_request"]
    assert len(tags) == 7 and all(tag.startswith("net_") for tag in tags)
    guard = runner.netguard
    assert len(parse_capture_log(guard.capture_text())) == tags.count("net_handled") > 0
    assert len(guard.malformed_log) == tags.count("net_malformed") > 0
    assert contained(runner.session, app.own_number)


_OWN = "5550199"


@pytest.mark.parametrize("effect, tag, holds", [
    (SideEffect("outgoing_sms", number=_OWN), "telephony_delivered", True),
    (SideEffect("outgoing_sms", number="81001"), "telephony_rejected", True),
    (SideEffect("outgoing_call", number="81001"), "telephony_rejected", True),
    (SideEffect("network_request"), "net_handled", True),
    (SideEffect("java_call"), "observed", True),
    (SideEffect("outgoing_sms", number="81001"), "telephony_delivered", False),
    (SideEffect("outgoing_call", number="81001"), "observed", False),
    (SideEffect("network_request"), "observed", False),
    (SideEffect("system_call"), "net_handled", False),
])
def test_contained_flags_every_effect_that_skipped_its_control(effect, tag, holds):
    fine = ObservedEffect(SideEffect("outgoing_sms", number="81001"), "telephony_rejected")
    assert contained(Session(effects=[fine, ObservedEffect(effect, tag)]), _OWN) is holds


def test_observed_effect_repr_names_every_field():
    # The repr it had as a frozen dataclass.
    observed = ObservedEffect(SideEffect("outgoing_call", number="81001"), "telephony_rejected")
    assert repr(observed) == (
        "ObservedEffect(effect=SideEffect(kind='outgoing_call', data=b'', protocol='http', "
        "server=None, number='81001', body='', signature='', origin=(), pid=None, name='', "
        "action=''), tag='telephony_rejected')")


_FIXTURES = ("login_gate", "tiny_taps", "one_button", "boot_gate", "sealed_bomb", "crash_first")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_session_crashed_once_a_step_crashed(request, data):
    _check_crash_flag(request.getfixturevalue(data.draw(st.sampled_from(_FIXTURES))), data)


@settings(max_examples=60, deadline=None)
@given(app_docs(), st.data())
def test_session_crashed_once_a_step_crashed_on_generated_models(doc, data):
    _check_crash_flag(model_from_dict(doc), data)


def _check_crash_flag(app, data):
    """After every step, ``session.crashed`` holds exactly when a step of
    some chain so far (the engine event or a loopback) returned crashed."""
    runner = SessionRunner(app, device_for(app))
    assert not runner.session.crashed
    # The same chains, run beside the runner, tell which steps crashed.
    reference, crashed = runner.device, False
    pool = event_pool(app) + [Event("click")]  # and a tap on no element
    for _ in range(data.draw(st.integers(0, 30))):
        event = data.draw(st.sampled_from(pool))
        if crashed:
            with pytest.raises(SessionCrashedError):
                runner.step(event)
            assert runner.session.crashed
            return
        reference, steps = run_event_chain(reference, app, event)
        crashed = any(result.device.crashed for _, result in steps)
        runner.step(event)
        assert runner.session.crashed == crashed
