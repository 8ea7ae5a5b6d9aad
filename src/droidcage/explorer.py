"""Grey-box exploration engine.

Identifies on-screen elements, fills recognized textfields with
realistic data before clicking anything on the same screen, triggers
every (element, action) pair at most once, injects broadcasts and a
self-addressed SMS/call once the first UI sweep is done, and leaves the
device clean afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .app_model import (
    APP_SWITCH,
    AppModel,
    DeviceState,
    ElementKey,
    Event,
    UiElement,
    dump_hierarchy,
    live_receiver_action,
    receiver_events,
)
from .data_tables import ConfigError, check_int
from .gcpause import gc_paused
from .monkey import run_monkey
from .rng import Xoshiro256StarStar, derive_seed
from .session import Session, SessionRunner

__all__ = [
    "ElementKey",
    "ExplorationConfig",
    "Session",
    "categorize_textfield",
    "cleanup",
    "explore",
    # Unused here: the benchmark's trace hooks wrap these two by this
    # module's attribute.
    "dump_hierarchy",
    "run_monkey",
]


# First match in this order wins; keywords are matched case-insensitively
# as substrings of the hint, ID string and content description.
CATEGORY_KEYWORDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("phone_number", ("phone", "mobile", "msisdn", "tel")),
    ("first_name", ("first name", "firstname", "first_name", "given name", "forename", "first")),
    ("last_name", ("last name", "lastname", "last_name", "surname", "family name", "last")),
    ("email", ("email", "e-mail", "mail")),
    ("iban", ("iban", "bank account", "account number")),
    ("country", ("country",)),
    ("city", ("city", "town")),
    ("street_address", ("street", "address", "addr")),
    ("password", ("password", "passwd", "pwd", "pass")),
    ("pin_code", ("pin", "code")),
)

UNCATEGORIZED_FILL_LENGTH = 12


@lru_cache(maxsize=4096)
def categorize_textfield(element: UiElement) -> str:
    """The category of a textfield from its hint/ID/description.

    A textfield no keyword names, and any other element, is "uncategorized".
    An element is immutable, so each distinct one is categorized once, not
    at every fill of every session.
    """
    if element.kind == "textfield":
        sources = [s.lower() for s in (element.hint, element.id_string,
                                       element.content_description) if s]
        for category, keywords in CATEGORY_KEYWORDS:
            for source in sources:
                if any(kw in source for kw in keywords):
                    return category
    return "uncategorized"


@dataclass(frozen=True)
class ExplorationConfig:
    seed: int = 0
    max_events: int = 2000

    def __post_init__(self):
        check_int(self.seed, "seed")
        if check_int(self.max_events, "max_events") < 1:
            raise ConfigError("max_events must be >= 1")


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

class _Explorer:
    def __init__(self, runner: SessionRunner, config: ExplorationConfig):
        self.app = runner.app
        self.runner = runner
        self.tables = runner.tables
        self.config = config
        self.budget = config.max_events
        # The (key, action) pairs already sent by this exploration.
        self.visited: set[tuple[ElementKey, str]] = set()
        # The pairs a plan left unsent when the screen changed under it. A
        # plan lists every pair of its screen not yet visited, and visited
        # pairs are never forgotten, so ``left - visited`` is all the work
        # still pending on screens seen so far.
        self.left: set[tuple[ElementKey, str]] = set()

    @cached_property
    def rng(self) -> Xoshiro256StarStar:
        """The fill generator, made at the first fill: most apps have no textfield."""
        return Xoshiro256StarStar(derive_seed(self.config.seed, "smart-fill"))

    def issue(self, event: Event) -> None:
        self.budget -= 1
        self.runner.step(event)

    def drain_ui(self) -> None:
        """Process screens until no unvisited pair is discoverable."""
        runner, visited, left = self.runner, self.visited, self.left
        idle_switch = False
        while self.budget > 0 and not runner.device.crashed:
            screen = runner.current_screen()
            plan = [e for e in self.app.screen(*screen).pairs() if e[0] not in visited]
            if not plan:
                left -= visited  # a sibling state sharing a key may have sent some
                if not left or idle_switch:
                    return  # nothing pending, or relaunching did not reach it
                self.issue(APP_SWITCH)
                idle_switch = True
                continue
            idle_switch = False
            device = runner.device
            for n, (pair, element, event) in enumerate(plan, 1):
                if self.budget <= 0:
                    return
                visited.add(pair)
                if event is None:  # set_text
                    category = categorize_textfield(element)
                    value = (self.rng.alnum(UNCATEGORIZED_FILL_LENGTH) if category == "uncategorized"
                             else self.tables.fill(category, self.rng.choice))
                    event = Event("set_text", pair[0], value)
                self.issue(event)
                # Devices are never mutated: the same device shows the same screen.
                if runner.device is not device:
                    device = runner.device
                    if runner.current_screen() != screen:
                        left.update(e[0] for e in plan[n:])
                        break  # screen changed: replan there

    def inject(self) -> None:
        """One-shot broadcast, SMS and call injection.

        Runs after the first full UI sweep so dynamically registered
        receivers are live. The events are the oracle's receiver events,
        and only those the app can receive right now are sent, which keeps
        trivial sessions short.
        """
        app = self.app
        for event in receiver_events(app, self.tables):
            if self.budget <= 0 or self.runner.device.crashed:
                return
            ctx = self.runner.device.context(app.package)
            if live_receiver_action(app, ctx, event) is not None:
                self.issue(event)


def explore(app: AppModel, config: ExplorationConfig, device: DeviceState, *,
            runner: SessionRunner | None = None) -> Session:
    """Run one grey-box exploration session.

    Systematic passes (dump, identify, fill, trigger), then receiver
    injection, then a final sweep over anything the injections unlocked.
    The app must be installed on ``device``.

    When an existing runner is passed, its session is continued from the
    runner's device and with its tables; otherwise a fresh runner with the
    packaged tables and guard is created over ``device``.
    """
    if runner is None:
        runner = SessionRunner(app, device)
    engine = _Explorer(runner, config)
    with gc_paused():
        engine.drain_ui()
        engine.inject()
        engine.drain_ui()
    return runner.session


# ---------------------------------------------------------------------------
# Environment cleanup
# ---------------------------------------------------------------------------

# The clean device: the only apps and processes a session may leave behind.
BASELINE_DEVICE = DeviceState(
    installed_apps=frozenset({"com.android.systemui", "com.android.settings"}),
    running_processes=frozenset({"system_server", "zygote", "netd"}),
)


def cleanup(device: DeviceState) -> DeviceState:
    """Uninstall stray apps and kill stray processes: return ``device`` to
    ``BASELINE_DEVICE``, whose installed apps and running processes are the
    whitelist. Only the contexts of its installed apps are kept.
    Idempotent; a device that started as the baseline comes back equal
    to it.
    """
    keep = BASELINE_DEVICE.installed_apps
    return DeviceState(
        {p: c for p, c in device.contexts.items() if p in keep},
        device.installed_apps & keep,
        device.running_processes & BASELINE_DEVICE.running_processes,
    )


def baseline_device() -> DeviceState:
    """The device state every session must be returned to."""
    return BASELINE_DEVICE
