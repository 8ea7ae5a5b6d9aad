"""The reachability oracle written plainly: a reference that tests compare
`reachable_blocks` against.

A breadth-first search over the app's (activity, state, receivers), with a
fresh event for every candidate and every chain's result looked up in the
seen set, whether or not the chain changed the device.
"""

from collections import deque

from droidcage.app_model import (
    APP_SWITCH,
    AppModel,
    DeviceState,
    Event,
    OracleBudgetError,
    install_app,
    receiver_events,
    run_event_chain,
)
from droidcage.data_tables import DataTables, default_tables

from explorer_reference import unshadowed


def candidate_events(app: AppModel, device: DeviceState, receivers: list) -> list:
    """Every event the oracle tries on ``device``: each unshadowed element's
    actions (set_text once per alphabet value), the receiver events, then
    the relaunch."""
    ctx = device.context(app.package)
    events = []
    for key, element in unshadowed(app, ctx.activity, ctx.state).items():
        for action in element.actions:
            if action == "set_text":
                events += [Event("set_text", key, value) for value in app.alphabet]
            else:
                events.append(Event(action, key))
    return events + receivers + [APP_SWITCH]


def reachable_reference(app: AppModel, *, max_states: int = 10_000,
                        tables: DataTables | None = None) -> frozenset:
    """What `reachable_blocks` returns or raises with the same arguments."""
    tables = tables or default_tables()
    receivers = receiver_events(app, tables)

    def state(device):
        ctx = device.context(app.package)
        return ctx.activity, ctx.state, ctx.receivers

    start = install_app(DeviceState(), app)
    seen = {state(start)}
    frontier = deque([start])
    blocks = set()
    while frontier:
        device = frontier.popleft()
        for event in candidate_events(app, device, receivers):
            new_device, steps = run_event_chain(device, app, event, tables)
            for _, result in steps:
                blocks.update(result.executed_blocks)
            if new_device.crashed:
                continue
            if state(new_device) not in seen:
                if len(seen) >= max_states:
                    raise OracleBudgetError(len(seen), max_states)
                seen.add(state(new_device))
                frontier.append(new_device)
    return frozenset(blocks)
