"""Seeded random event generator (the black-box baseline).

Events are aimed at random screen coordinates and hit-tested against the
current UI, mirroring the real tool's blindness: it taps whatever sits
under the finger, types short random strings, and knows nothing about
element identity or textfield semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .app_model import APP_SWITCH, UI_ACTIONS, Event, Screen, run_event_chain
from .data_tables import ConfigError, check_int
from .gcpause import gc_paused
from .rng import ALNUM, _limit, _redraw, raw_stream
from .session import Session, SessionRunner

# run_event_chain is unused here: the benchmark's trace hooks wrap it by
# this module's attribute.
__all__ = ["MonkeyConfig", "run_event_chain", "run_monkey"]

SCREEN_WIDTH = 1080
SCREEN_HEIGHT = 1920

NAV_KINDS = ("click", "long_click", "scroll", "set_text")
SYSTEM_KEYS = ("home", "back", "volume_up", "volume_down", "call", "endcall")

TEXT_MIN_LEN = 1
TEXT_MAX_LEN = 8

# Events are immutable, so equal ones are one shared object. A tap carries
# nothing but its kind and the element it hit (None for a miss), so one
# bounded cache serves every hit and miss; the system keys and the relaunch
# are constants. set_text events keep their own, since each carries its
# typed value.
_tap = lru_cache(maxsize=4096)(Event)
_SYSTEM_KEY_EVENTS = tuple(Event("system_key", name=key) for key in SYSTEM_KEYS)


# The monkey reads the raw stream in order and draws by ``randrange``'s
# rejection rule, ``rng._redraw``: the first draw ``v`` below ``_limit(n)``
# is kept as ``v % n``. With each bound's limit at hand a kept draw is one
# compare and one modulo, with no Python call. A rejected draw, fewer than
# one in 2**55 at these bounds, goes to ``_redraw`` for the next draws.
_KEYS = len(SYSTEM_KEYS)
_KINDS = len(NAV_KINDS)
_TEXT_LENGTHS = TEXT_MAX_LEN - TEXT_MIN_LEN + 1
_CHARS = len(ALNUM)
_PCT_LIMIT = _limit(100)
_KEY_LIMIT = _limit(_KEYS)
_KIND_LIMIT = _limit(_KINDS)
_X_LIMIT = _limit(SCREEN_WIDTH)
_Y_LIMIT = _limit(SCREEN_HEIGHT)
_LENGTH_LIMIT = _limit(_TEXT_LENGTHS)
_CHAR_LIMIT = _limit(_CHARS)


@dataclass(frozen=True)
class MonkeyConfig:
    seed: int = 0
    pct_syskeys: int = 0
    pct_appswitch: int = 0
    throttle_ms: int = 50  # metadata only; the simulation never sleeps
    event_count: int = 500
    package: str = ""

    def __post_init__(self):
        for name in ("seed", "pct_syskeys", "pct_appswitch", "throttle_ms", "event_count"):
            check_int(getattr(self, name), name)
        if not 0 <= self.pct_syskeys <= 100:
            raise ConfigError("pct_syskeys must be in [0, 100]")
        if not 0 <= self.pct_appswitch <= 100:
            raise ConfigError("pct_appswitch must be in [0, 100]")
        if self.pct_syskeys + self.pct_appswitch > 100:
            raise ConfigError("pct_syskeys + pct_appswitch must be <= 100")
        if self.throttle_ms < 0:
            raise ConfigError("throttle_ms must be >= 0")
        if self.event_count < 1:
            raise ConfigError("event_count must be >= 1")


def _generate_one(draw: Callable[[], int], config: MonkeyConfig, screen: Screen) -> Event:
    """The next event, hit-tested against ``screen``.

    ``draw`` is the raw stream's ``__next__``; each ``v % n if v < limit
    else _redraw(draw, n)`` below is one ``randrange(n)``. The hit test and
    the typed value are plain loops, so a tap runs in this one frame.
    """
    v = draw()
    roll = v % 100 if v < _PCT_LIMIT else _redraw(draw, 100)
    if roll < config.pct_syskeys:
        v = draw()
        return _SYSTEM_KEY_EVENTS[v % _KEYS if v < _KEY_LIMIT else _redraw(draw, _KEYS)]
    if roll < config.pct_syskeys + config.pct_appswitch:
        return APP_SWITCH

    v = draw()
    kind = NAV_KINDS[v % _KINDS if v < _KIND_LIMIT else _redraw(draw, _KINDS)]
    v = draw()
    x = v % SCREEN_WIDTH if v < _X_LIMIT else _redraw(draw, SCREEN_WIDTH)
    v = draw()
    y = v % SCREEN_HEIGHT if v < _Y_LIMIT else _redraw(draw, SCREEN_HEIGHT)
    target = None  # the key of the first element whose bounds hold (x, y)
    for i, (x0, y0, w, h) in enumerate(screen._bounds):
        if y0 <= y < y0 + h and x0 <= x < x0 + w:  # rows are wide: y rejects first
            target = screen.keys[i]
            break
    if kind == "set_text":
        v = draw()
        length = TEXT_MIN_LEN + (v % _TEXT_LENGTHS if v < _LENGTH_LIMIT
                                 else _redraw(draw, _TEXT_LENGTHS))
        value = ""
        for _ in range(length):
            v = draw()
            value += ALNUM[v % _CHARS if v < _CHAR_LIMIT else _redraw(draw, _CHARS)]
        return Event("set_text", target, value)
    return _tap(kind, target)


def run_monkey(runner: SessionRunner, config: MonkeyConfig) -> Session:
    """Drive the runner's session with the random stream; stop on a crash.

    A later phase on the same runner continues from where the monkey left
    the app. A ``config.package`` other than ``""`` must be the app's.
    """
    app = runner.app
    if config.package not in ("", app.package):
        raise ConfigError(f"package {config.package} does not match model {app.package}")
    draw = raw_stream(config.seed).__next__
    events = runner.session.events
    device = screen = None
    with gc_paused():
        for _ in range(config.event_count):
            # Devices are immutable, and a step that changes nothing returns
            # the device it got, so the crash flag and the screen are read
            # again only for a new device. A step builds one only for a
            # crash, which ends the loop, or for a new app context, so every
            # uncrashed new device brings a context not seen before.
            if runner.device is not device:
                device = runner.device
                if device.crashed:
                    break
                ctx = device.context(app.package)
                screen = app.screen(ctx.activity, ctx.state)
                first_index, transitions = screen.first_index, screen.transitions
            event = _generate_one(draw, config, screen)
            # A tap that keys no transition on this screen (its key resolved
            # by the shadowing rule; a miss keys nothing) would run a chain
            # that returns the device it got, with no blocks and no effects,
            # so the session only records it.
            if event.kind in UI_ACTIONS and (event.target is None or (
                    first_index[event.target], event.kind) not in transitions):
                events.append(event)
            else:
                runner.step(event)
    return runner.session
