"""Outgoing call/SMS containment.

The modified telephony stack rejects every outgoing communication except
those addressed to the device's own number. Rejections surface as a
transient calling-UI flash and must never crash the requesting app, so
the decision here is purely informational: the session logs it and moves
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

TELEPHONY_KINDS = ("outgoing_call", "outgoing_sms")


@dataclass(frozen=True)
class TelephonyDecision:
    delivered: bool


def filter_outgoing(effect: Any, own_number: str) -> TelephonyDecision:
    """Decide whether an outgoing call/SMS side effect may leave the device.

    Only the device's own number is deliverable; everything else is
    rejected with a UI flash (logged, never fatal to the session).
    """
    if getattr(effect, "kind", None) not in TELEPHONY_KINDS:
        raise ValueError(f"not a telephony side effect: {effect!r}")
    return TelephonyDecision(delivered=effect.number == own_number)
