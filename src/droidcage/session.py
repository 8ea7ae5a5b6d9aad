"""Ordered record of one app run and the machinery that drives it.

A session accumulates every engine-issued event, the blocks it executed,
the visible trace, and all observed side effects with their platform
disposition (telephony rejection, network verdict, ...). Telephony
effects delivered to the device's own number loop straight back as
incoming events, so self-texting apps trigger their own receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .app_model import (
    TELEPHONY_KINDS,
    AppModel,
    DeviceState,
    Event,
    SideEffect,
    StepResult,
    filter_outgoing,
    run_event_chain,
)
from .data_tables import DataTables, default_tables
from .netguard import DEFAULT_IDENTITIES, NetGuard, default_reputation, default_signatures
from .trace import TraceConfig, record

# pid assigned to the app under analysis; fixture side effects carrying a
# different pid simulate noise from other processes.
TARGET_PID = 4242

# All three compiler optimizations off: every call of the target pid is visible.
TRACE_CONFIG = TraceConfig(target_pid=TARGET_PID)


class ObservedEffect(NamedTuple):
    """One side effect plus what the platform did with it."""

    effect: SideEffect
    tag: str  # net_<disposition> | telephony_<delivered|rejected> | observed (in-process only)


@dataclass
class Session:
    """Everything observed while testing one app."""

    events: list[Event] = field(default_factory=list)
    executed_blocks: set[str] = field(default_factory=set)
    trace: list[str] = field(default_factory=list)  # visible call names, in order
    effects: list[ObservedEffect] = field(default_factory=list)
    device: Optional[DeviceState] = None  # device as the session left it

    @property
    def crashed(self) -> bool:
        """Whether the device the session left has crashed."""
        return self.device is not None and self.device.crashed

    def copy(self) -> "Session":
        """A session that continues from this one without changing it.

        Every container is duplicated; its elements (events, call names,
        observed effects, the device) are never mutated after creation, so
        they are shared.
        """
        return Session(events=list(self.events),
                       executed_blocks=set(self.executed_blocks),
                       trace=list(self.trace),
                       effects=list(self.effects),
                       device=self.device)


class SessionRunner:
    """Applies events for one session, absorbing all platform plumbing."""

    def __init__(self, app: AppModel, device: DeviceState, *,
                 netguard: NetGuard | None = None, tables: DataTables | None = None):
        self.app = app
        self.device = device
        self.session = Session(device=device)
        self.netguard = netguard or NetGuard(default_signatures(), default_reputation(),
                                             identities=DEFAULT_IDENTITIES)
        self.tables = tables or default_tables()

    def copy(self) -> "SessionRunner":
        """A runner that continues from this one without changing it.

        The session and the guard are copied; the app and tables are
        shared.
        """
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup.session = self.session.copy()
        dup.netguard = self.netguard.copy()
        return dup

    def step(self, event: Event) -> StepResult:
        """Apply one engine-issued event (plus telephony loopback)."""
        session = self.session
        self.device, steps = run_event_chain(self.device, self.app, event, self.tables)
        session.events.append(event)
        session.device = self.device
        for _, result in steps:
            _, blocks, effects, _ = result
            session.executed_blocks.update(blocks)
            if effects:  # a step without side effects leaves no trace and no effects
                session.trace.extend(record(result, TRACE_CONFIG))
                for eff in effects:
                    session.effects.append(self._dispose(eff))
        return steps[0][1]

    def _dispose(self, eff: SideEffect) -> ObservedEffect:
        if eff.kind in TELEPHONY_KINDS:
            decision = filter_outgoing(eff, self.app.own_number)
            tag = "telephony_delivered" if decision.delivered else "telephony_rejected"
            return ObservedEffect(eff, tag)
        if eff.kind == "network_request":
            outcome = self.netguard.handle(eff.data, eff.protocol, eff.server)
            return ObservedEffect(eff, f"net_{outcome.disposition}")
        return ObservedEffect(eff, "observed")

    def current_screen(self) -> Optional[tuple[str, str]]:
        if self.device.crashed:
            return None
        ctx = self.device.context(self.app.package)
        return (ctx.activity, ctx.state)


def contained(session: Session, own_number: str) -> bool:
    """Whether a call or SMS to any number but ``own_number`` was rejected
    and an effect has a ``net_`` tag exactly when it is a network request."""
    return all(
        (o.effect.kind == "network_request") == o.tag.startswith("net_")
        and (o.effect.kind not in TELEPHONY_KINDS or o.effect.number == own_number
             or o.tag == "telephony_rejected")
        for o in session.effects)
