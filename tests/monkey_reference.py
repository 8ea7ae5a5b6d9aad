"""The monkey's event stream, drawn without a session: a reference that
tests compare `run_monkey` against.

Unlike `run_monkey`, it keeps drawing after a crash, so a test can check
that the session's events are a prefix of the full seeded stream.
"""

from droidcage.app_model import AppModel, DeviceState, Event, run_event_chain
from droidcage.monkey import MonkeyConfig, _generate_one
from droidcage.rng import Xoshiro256StarStar


def generate_events(config: MonkeyConfig, app: AppModel,
                    device: DeviceState) -> list[Event]:
    """Produce exactly ``event_count`` events for the given seed.

    Generation simulates forward from the given device (with the same
    telephony-loopback semantics a session applies) because coordinate
    hit-testing depends on whatever screen the previous event led to.
    After a crash the hierarchy is gone and taps hit nothing.
    """
    rng = Xoshiro256StarStar(config.seed)
    events = []
    ctx = screen = None
    for _ in range(config.event_count):
        if device.crashed:
            screen = None
        elif (current := device.context(app.package)) is not ctx:
            ctx, screen = current, app.screen(current.activity, current.state)
        event = _generate_one(rng, config, screen)
        events.append(event)
        if not device.crashed:
            device, _ = run_event_chain(device, app, event)
    return events
