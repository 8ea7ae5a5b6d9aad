import pytest

from droidcage.app_model import SideEffect
from droidcage.telephony import filter_outgoing

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
    with pytest.raises(ValueError):
        filter_outgoing(SideEffect("system_call", name="openat"), OWN_NUMBER)
