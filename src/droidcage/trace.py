"""Java-call and system-call tracing.

Models the runtime hook that logs method calls of one target pid, plus
the visibility effects of three compiler optimizations: a call is only
interpretable (and therefore hookable) once ahead-of-time compilation is
off, framework/core calls additionally need direct branching off, and
short inlined methods additionally need inlining off. System calls come
from a separate debugger channel and are always visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .app_model import ORIGIN_FLAGS, SideEffect, StepResult

__all__ = ["ORIGIN_FLAGS", "TraceConfig", "TraceEvent", "TraceLog", "record"]


@dataclass(frozen=True)
class TraceConfig:
    disable_oat_compilation: bool = True
    disable_direct_branching: bool = True
    disable_inlining: bool = True
    target_pid: int = 0


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # java_call | system_call
    signature: str
    pid: int
    origin_flags: tuple[str, ...] = ()


@dataclass
class TraceLog:
    """Append-only, ordered record of trace events for one session."""

    events: list[TraceEvent] = field(default_factory=list)

    def extend(self, events: list[TraceEvent]) -> None:
        self.events.extend(events)

    def to_text(self) -> str:
        """One call per line, java and system calls alike."""
        return "".join(e.signature + "\n" for e in self.events)


def _visible(event: TraceEvent, config: TraceConfig) -> bool:
    if event.pid != config.target_pid:
        return False
    if event.kind == "system_call":
        return True  # strace channel, independent of the runtime hook
    if not config.disable_oat_compilation:
        return False
    if "framework_core" in event.origin_flags and not config.disable_direct_branching:
        return False
    if "inlined_candidate" in event.origin_flags and not config.disable_inlining:
        return False
    return True


def record(step: StepResult, config: TraceConfig) -> list[TraceEvent]:
    """Trace events visible under `config` for one executed step.

    Filtering never fails: invisible calls are silently dropped, order of
    the remaining events matches the emission order of the step.
    """
    out = []
    for eff in step.side_effects:
        event = _to_event(eff, config)
        if event is not None and _visible(event, config):
            out.append(event)
    return out


def _to_event(eff: SideEffect, config: TraceConfig) -> TraceEvent | None:
    kind, pid = eff.kind, eff.pid
    if pid is None:
        pid = config.target_pid
    if kind == "java_call":
        origin = eff.origin or ("app_code",)
        return TraceEvent("java_call", eff.signature, pid, tuple(origin))
    if kind == "system_call":
        return TraceEvent("system_call", eff.name, pid)
    return None
