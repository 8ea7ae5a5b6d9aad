"""Java-call and system-call tracing.

Models the runtime hook that logs method calls of one target pid, plus
the visibility effects of three compiler optimizations: a call is only
interpretable (and therefore hookable) once ahead-of-time compilation is
off, framework/core calls additionally need direct branching off, and
short inlined methods additionally need inlining off. System calls come
from a separate debugger channel and are always visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .app_model import SideEffect, StepResult

__all__ = ["TraceConfig", "record"]


@dataclass(frozen=True)
class TraceConfig:
    disable_oat_compilation: bool = True
    disable_direct_branching: bool = True
    disable_inlining: bool = True
    target_pid: int = 0


def _visible(eff: SideEffect, config: TraceConfig) -> bool:
    """Whether the hook or the strace channel sees ``eff``; a call with no
    pid is the target's."""
    if eff.pid is not None and eff.pid != config.target_pid:
        return False
    if eff.kind == "system_call":
        return True  # strace channel, independent of the runtime hook
    if eff.kind != "java_call" or not config.disable_oat_compilation:
        return False
    origin = eff.origin
    if "framework_core" in origin and not config.disable_direct_branching:
        return False
    if "inlined_candidate" in origin and not config.disable_inlining:
        return False
    return True


def record(step: StepResult, config: TraceConfig) -> list[str]:
    """The names of the calls visible under `config` for one executed step:
    a Java call's signature, a system call's name.

    Filtering never fails: invisible calls are silently dropped, order of
    the remaining calls matches the emission order of the step.
    """
    return [eff.signature if eff.kind == "java_call" else eff.name
            for eff in step.side_effects if _visible(eff, config)]
