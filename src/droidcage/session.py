"""Ordered record of one app run and the machinery that drives it.

A session accumulates every engine-issued event, the blocks it executed,
the visible trace, and all observed side effects with their platform
disposition (telephony rejection, network verdict, ...). Telephony
effects delivered to the device's own number loop straight back as
incoming events, so self-texting apps trigger their own receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .app_model import (
    UI_ACTIONS,
    AppModel,
    DeviceState,
    ElementKey,
    Event,
    SideEffect,
    StepResult,
    run_event_chain,
)
from .data_tables import DataTables, default_tables
from .telephony import TELEPHONY_KINDS, TelephonyPolicy, filter_outgoing
from .trace import TraceConfig, TraceLog, record

# pid assigned to the app under analysis; fixture side effects carrying a
# different pid simulate noise from other processes.
TARGET_PID = 4242

# All three compiler optimizations off: every call of the target pid is visible.
TRACE_CONFIG = TraceConfig(target_pid=TARGET_PID)


@dataclass(frozen=True)
class ObservedEffect:
    """One side effect plus what the platform did with it."""

    effect: SideEffect
    tag: str  # observed | telephony_delivered | telephony_rejected | net_<disposition>


@dataclass
class Session:
    """Everything observed while testing one app."""

    events: list[Event] = field(default_factory=list)
    executed_blocks: set[str] = field(default_factory=set)
    trace: TraceLog = field(default_factory=TraceLog)
    effects: list[ObservedEffect] = field(default_factory=list)
    visited: set[tuple[ElementKey, str]] = field(default_factory=set)
    crashed: bool = False
    device: Optional[DeviceState] = None  # device as the session left it

    def copy(self) -> "Session":
        """A session that continues from this one without changing it.

        Every container is duplicated; its elements (events, trace events,
        observed effects, the device) are never mutated after creation, so
        they are shared.
        """
        return Session(events=list(self.events),
                       executed_blocks=set(self.executed_blocks),
                       trace=TraceLog(list(self.trace.events)),
                       effects=list(self.effects),
                       visited=set(self.visited),
                       crashed=self.crashed,
                       device=self.device)

    def telephony_deliveries(self) -> list[SideEffect]:
        return [o.effect for o in self.effects if o.tag == "telephony_delivered"]

    def telephony_rejections(self) -> list[SideEffect]:
        return [o.effect for o in self.effects if o.tag == "telephony_rejected"]


class SessionRunner:
    """Applies events for one session, absorbing all platform plumbing.

    A ``session`` passed in is continued (its device must be ``device``);
    otherwise the runner starts an empty one.
    """

    def __init__(self, app: AppModel, device: DeviceState, *,
                 netguard=None, tables: DataTables | None = None,
                 session: Session | None = None):
        self.app = app
        self.device = device
        self.session = session if session is not None else Session(device=device)
        self.policy = TelephonyPolicy(own_number=app.own_number)
        self.netguard = netguard
        self.tables = tables or default_tables()

    def step(self, event: Event) -> StepResult:
        """Apply one engine-issued event (plus telephony loopback)."""
        device = self.device
        if event.target is None and event.kind in UI_ACTIONS and not device.crashed \
                and self.app.package in device.contexts:
            # A UI event aimed at no element matches no transition: the
            # chain would return this very result and absorb nothing.
            self.session.events.append(event)
            self.session.device = device
            return StepResult(device, (), (), False, False)
        self.device, steps = run_event_chain(
            self.device, self.app, event, self.policy, self.tables
        )
        self.session.events.append(event)
        self.session.device = self.device
        for _, result in steps:
            self._absorb(result)
        return steps[0][1]

    def _absorb(self, result: StepResult) -> None:
        self.session.executed_blocks.update(result.executed_blocks)
        self.session.trace.extend(record(result, TRACE_CONFIG))
        for eff in result.side_effects:
            self.session.effects.append(self._dispose(eff))
        if result.crashed:
            self.session.crashed = True

    def _dispose(self, eff: SideEffect) -> ObservedEffect:
        if eff.kind in TELEPHONY_KINDS:
            decision = filter_outgoing(eff, self.policy)
            tag = "telephony_delivered" if decision.delivered else "telephony_rejected"
            return ObservedEffect(eff, tag)
        if eff.kind == "network_request" and self.netguard is not None:
            outcome = self.netguard.handle(eff.data, eff.protocol, eff.server)
            return ObservedEffect(eff, f"net_{outcome.disposition}")
        return ObservedEffect(eff, "observed")

    def current_screen(self) -> Optional[tuple[str, str]]:
        if self.device.crashed:
            return None
        ctx = self.device.context(self.app.package)
        return (ctx.activity, ctx.state)
