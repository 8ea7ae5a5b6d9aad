"""The monkey's event stream, drawn without a session: a reference that
tests compare `run_monkey` against.

It is written from README's draw contract and shares no code with
`monkey.py`: the kinds, the system keys, the screen size, the text
lengths and alphabet, and the hit test are its own copies, and every draw
is a plain `randrange`. So a change to any of them in `monkey.py` makes
the two streams differ.

Unlike `run_monkey`, it keeps drawing after a crash, so a test can check
that the session's events are a prefix of the full seeded stream.
"""

from droidcage.app_model import AppModel, DeviceState, Event, identify_element, run_event_chain
from droidcage.monkey import MonkeyConfig
from droidcage.rng import Xoshiro256StarStar

NAV_KINDS = ("click", "long_click", "scroll", "set_text")
SYSTEM_KEYS = ("home", "back", "volume_up", "volume_down", "call", "endcall")
WIDTH, HEIGHT = 1080, 1920
ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def hit(app: AppModel, place: tuple[str, str] | None, x: int, y: int):
    """The key of the first element at ``place`` whose bounds hold (x, y)."""
    if place is None:  # crashed: no hierarchy
        return None
    activity, state = place
    for element in app.screen(activity, state).state.elements:
        left, top, width, height = element.bounds
        if left <= x < left + width and top <= y < top + height:
            return identify_element(activity, element)
    return None


def draw_event(rng: Xoshiro256StarStar, config: MonkeyConfig, app: AppModel,
               place: tuple[str, str] | None) -> Event:
    """One event of the stream, on the screen at ``place``."""
    roll = rng.randrange(100)
    if roll < config.pct_syskeys:
        return Event("system_key", name=SYSTEM_KEYS[rng.randrange(len(SYSTEM_KEYS))])
    if roll < config.pct_syskeys + config.pct_appswitch:
        return Event("app_switch")
    kind = NAV_KINDS[rng.randrange(len(NAV_KINDS))]
    x = rng.randrange(WIDTH)
    y = rng.randrange(HEIGHT)
    target = hit(app, place, x, y)
    if kind == "set_text":
        length = 1 + rng.randrange(8)
        return Event(kind, target, "".join(ALNUM[rng.randrange(62)] for _ in range(length)))
    return Event(kind, target)


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
    for _ in range(config.event_count):
        if device.crashed:
            place = None
        else:
            ctx = device.context(app.package)
            place = (ctx.activity, ctx.state)
        event = draw_event(rng, config, app, place)
        events.append(event)
        if not device.crashed:
            device, _ = run_event_chain(device, app, event)
    return events
