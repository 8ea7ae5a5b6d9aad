import itertools

from hypothesis import given
from hypothesis import strategies as st

from droidcage.app_model import DeviceState, SideEffect, StepResult
from droidcage.trace import TraceConfig, record

PID = 4242


def _step(*effects):
    return StepResult(DeviceState(), (), tuple(effects), True)


def _config(oat=True, branch=True, inline=True):
    return TraceConfig(disable_oat_compilation=oat, disable_direct_branching=branch,
                       disable_inlining=inline, target_pid=PID)


def test_all_disables_show_inlined_call():
    step = _step(SideEffect("java_call", signature="void a.b.c",
                            origin=("app_code", "inlined_candidate")))
    assert record(step, _config()) == ["void a.b.c"]


def test_inlining_enabled_hides_inlined_call():
    step = _step(SideEffect("java_call", signature="void a.b.c",
                            origin=("app_code", "inlined_candidate")))
    assert record(step, _config(inline=False)) == []


def test_direct_branching_enabled_hides_framework_call():
    step = _step(SideEffect("java_call", signature="void android.os.Handler.<init>",
                            origin=("framework_core",)))
    assert record(step, _config(branch=False)) == []
    assert len(record(step, _config())) == 1


def test_oat_enabled_hides_all_java_calls():
    step = _step(SideEffect("java_call", signature="void a.b.c", origin=("app_code",)))
    assert record(step, _config(oat=False)) == []


def test_foreign_pid_dropped():
    step = _step(SideEffect("java_call", signature="void a.b.c", origin=("app_code",), pid=999))
    assert record(step, _config()) == []


def test_system_calls_always_visible():
    step = _step(SideEffect("system_call", name="openat"))
    for oat, branch, inline in itertools.product([False, True], repeat=3):
        assert record(step, _config(oat, branch, inline)) == ["openat"]


def test_order_matches_emission_order():
    step = _step(
        SideEffect("java_call", signature="first", origin=("app_code",)),
        SideEffect("system_call", name="stat"),
        SideEffect("java_call", signature="second", origin=("app_code",)),
    )
    assert record(step, _config()) == ["first", "stat", "second"]


_flag_sets = st.sets(st.sampled_from(["app_code", "framework_core", "inlined_candidate"]))


@given(origin=_flag_sets, flags=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_monotone_visibility(origin, flags):
    # enabling an additional disable_* flag never hides a visible event
    step = _step(SideEffect("java_call", signature="void x.y", origin=tuple(sorted(origin))))
    oat, branch, inline = flags
    base = record(step, _config(oat, branch, inline))
    for i in range(3):
        stronger = [oat, branch, inline]
        stronger[i] = True
        extended = record(step, _config(*stronger))
        assert len(extended) >= len(base)

