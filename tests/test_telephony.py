import pytest

from droidcage.app_model import (
    PHONE_STATE_ACTION,
    SMS_RECEIVED_ACTION,
    Activity,
    AppContext,
    AppModel,
    Event,
    SideEffect,
    UiState,
    filter_outgoing,
    live_receiver_action,
    loopback_event,
)

OWN_NUMBER = "5550100"


def test_call_to_own_number_delivered():
    decision = filter_outgoing(SideEffect("outgoing_call", number="5550100"), OWN_NUMBER)
    assert decision.delivered


def test_premium_short_code_rejected_with_flash():
    decision = filter_outgoing(SideEffect("outgoing_sms", number="81001", body="SUB"), OWN_NUMBER)
    assert not decision.delivered


def test_sms_to_own_number_delivered():
    decision = filter_outgoing(SideEffect("outgoing_sms", number="5550100", body="hi"), OWN_NUMBER)
    assert decision.delivered


def test_non_telephony_effect_rejected_by_contract():
    for effect in (SideEffect("system_call", name="openat"),
                   SideEffect("register_receiver", action=SMS_RECEIVED_ACTION)):
        with pytest.raises(ValueError, match="^not a telephony side effect: "):
            filter_outgoing(effect, OWN_NUMBER)
        with pytest.raises(ValueError, match=f"^no loopback for {effect.kind}$"):
            loopback_event(effect)


def _app_declaring(action: str) -> AppModel:
    return AppModel(
        package="com.t.phone", main_activity="Main", own_number=OWN_NUMBER,
        activities=(Activity("Main", "home", (UiState("home", ()),)),), transitions=(),
        blocks=(), declared_receivers=(action,), dynamic_receivers=(), alphabet=(),
    )


@pytest.mark.parametrize("effect, event, action, other", [
    (SideEffect("outgoing_sms", number=OWN_NUMBER, body="hi"),
     Event("incoming_sms", number=OWN_NUMBER, body="hi"), SMS_RECEIVED_ACTION, PHONE_STATE_ACTION),
    (SideEffect("outgoing_call", number=OWN_NUMBER),
     Event("incoming_call", number=OWN_NUMBER), PHONE_STATE_ACTION, SMS_RECEIVED_ACTION),
], ids=["sms", "call"])
def test_a_self_addressed_effect_loops_back_to_a_receiver_of_its_action(effect, event, action,
                                                                         other):
    assert filter_outgoing(effect, OWN_NUMBER).delivered
    assert loopback_event(effect) == event
    ctx = AppContext("Main", "home")
    assert live_receiver_action(_app_declaring(action), ctx, event) == action
    assert live_receiver_action(_app_declaring(other), ctx, event) is None

