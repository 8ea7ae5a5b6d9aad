"""Grey-box exploration engine.

Identifies on-screen elements, fills recognized textfields with
realistic data before clicking anything on the same screen, triggers
every (element, action) pair at most once, injects broadcasts and a
self-addressed SMS/call once the first UI sweep is done, and leaves the
device clean afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .app_model import (
    PHONE_STATE_ACTION,
    SMS_PROBE_BODY,
    SMS_RECEIVED_ACTION,
    AppModel,
    DeviceState,
    ElementKey,
    Event,
    Screen,
    Settings,
    UiElement,
    dump_hierarchy,
    identify_element,
    install_app,
)
from .data_tables import DataTables, default_tables
from .monkey import MonkeyConfig, run_monkey
from .rng import Xoshiro256StarStar, derive_seed
from .session import Session, SessionRunner

__all__ = [
    "ElementKey",
    "ExplorationConfig",
    "NotATextfieldError",
    "Session",
    "TextfieldCategory",
    "Whitelist",
    "categorize_textfield",
    "cleanup",
    "dump_hierarchy",
    "explore",
    "generate_fill_value",
    "identify_element",
]


class NotATextfieldError(ValueError):
    pass


class TextfieldCategory(str, Enum):
    PHONE_NUMBER = "phone_number"
    FIRST_NAME = "first_name"
    LAST_NAME = "last_name"
    EMAIL = "email"
    IBAN = "iban"
    COUNTRY = "country"
    CITY = "city"
    STREET_ADDRESS = "street_address"
    PASSWORD = "password"
    PIN_CODE = "pin_code"
    UNCATEGORIZED = "uncategorized"


# First match in this order wins; keywords are matched case-insensitively
# as substrings of the hint, ID string and content description.
CATEGORY_KEYWORDS: tuple[tuple[TextfieldCategory, tuple[str, ...]], ...] = (
    (TextfieldCategory.PHONE_NUMBER, ("phone", "mobile", "msisdn", "tel")),
    (TextfieldCategory.FIRST_NAME, ("first name", "firstname", "first_name", "given name", "forename", "first")),
    (TextfieldCategory.LAST_NAME, ("last name", "lastname", "last_name", "surname", "family name", "last")),
    (TextfieldCategory.EMAIL, ("email", "e-mail", "mail")),
    (TextfieldCategory.IBAN, ("iban", "bank account", "account number")),
    (TextfieldCategory.COUNTRY, ("country",)),
    (TextfieldCategory.CITY, ("city", "town")),
    (TextfieldCategory.STREET_ADDRESS, ("street", "address", "addr")),
    (TextfieldCategory.PASSWORD, ("password", "passwd", "pwd", "pass")),
    (TextfieldCategory.PIN_CODE, ("pin", "code")),
)

UNCATEGORIZED_FILL_LENGTH = 12


def categorize_textfield(element: UiElement) -> TextfieldCategory:
    """Recognize a textfield of interest from its hint/ID/description."""
    if element.kind != "textfield":
        raise NotATextfieldError(f"cannot categorize a {element.kind}")
    sources = [s.lower() for s in (element.hint, element.id_string,
                                   element.content_description) if s]
    for category, keywords in CATEGORY_KEYWORDS:
        for source in sources:
            if any(kw in source for kw in keywords):
                return category
    return TextfieldCategory.UNCATEGORIZED


def generate_fill_value(category: TextfieldCategory, tables: DataTables,
                        rng: Xoshiro256StarStar) -> str:
    """Draw a realistic value for the category from the data tables."""
    if category == TextfieldCategory.UNCATEGORIZED:
        return rng.alnum(UNCATEGORIZED_FILL_LENGTH)
    if category == TextfieldCategory.EMAIL:
        first = rng.choice(tables.table("first_name"))
        last = rng.choice(tables.table("last_name"))
        provider = rng.choice(tables.table("email_provider"))
        return f"{first}.{last}@{provider}".lower()
    return rng.choice(tables.table(category.value))


@dataclass(frozen=True)
class ExplorationConfig:
    seed: int = 0
    max_events: int = 2000
    run_monkey_first: bool = False
    monkey_config: Optional[MonkeyConfig] = None

    def __post_init__(self):
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def _plan(screen: Screen, visited: set) -> list[tuple[ElementKey, str, UiElement]]:
    """Unvisited (key, action) pairs for one screen, fills scheduled first."""
    entries = [(key, action, el) for key, el in screen.entries()
               for action in el.actions if (key, action) not in visited]
    first = [e for e in entries if e[1] in ("set_text", "toggle")]
    rest = [e for e in entries if e[1] not in ("set_text", "toggle")]
    return first + rest


class _Explorer:
    def __init__(self, app: AppModel, config: ExplorationConfig,
                 runner: SessionRunner, tables: DataTables):
        self.app = app
        self.config = config
        self.runner = runner
        self.tables = tables
        self.rng = Xoshiro256StarStar(derive_seed(config.seed, "smart-fill"))
        self.budget = config.max_events
        self.seen_screens: dict[tuple[str, str], Screen] = {}

    @property
    def session(self) -> Session:
        return self.runner.session

    def issue(self, event: Event) -> None:
        self.budget -= 1
        self.runner.step(event)

    def _fill_event(self, key: ElementKey, element: UiElement) -> Event:
        if element.kind == "textfield":
            category = categorize_textfield(element)
        else:
            category = TextfieldCategory.UNCATEGORIZED
        return Event.set_text(key, generate_fill_value(category, self.tables, self.rng))

    def _pending_anywhere(self) -> bool:
        return any(_plan(screen, self.session.visited)
                   for screen in self.seen_screens.values())

    def drain_ui(self) -> None:
        """Process screens until no unvisited pair is discoverable."""
        idle_switch = False
        while self.budget > 0 and not self.session.crashed:
            screen = self.runner.current_screen()
            shown = self.seen_screens[screen] = self.app.screen(*screen)
            plan = _plan(shown, self.session.visited)
            if not plan:
                if not self._pending_anywhere():
                    return
                if idle_switch:
                    return  # relaunching did not help; pending pairs unreachable
                self.issue(Event.app_switch())
                idle_switch = True
                continue
            idle_switch = False
            for key, action, element in plan:
                if self.budget <= 0 or self.session.crashed:
                    return
                self.session.visited.add((key, action))
                if action == "set_text":
                    event = self._fill_event(key, element)
                else:
                    event = Event(action, target=key)
                self.issue(event)
                if self.runner.current_screen() != screen:
                    break  # screen changed: replan there

    def _live_receivers(self) -> set[str]:
        ctx = self.runner.device.context(self.app.package)
        return set(self.app.declared_receivers) | set(ctx.receivers)

    def inject(self) -> None:
        """One-shot broadcast, SMS and call injection.

        Runs after the first full UI sweep so dynamically registered
        receivers are live. Only events the app can actually receive are
        sent, which keeps trivial sessions short.
        """
        own = self.app.own_number
        for action in self.tables.table("broadcast"):
            if self.budget <= 0 or self.session.crashed:
                return
            if action in self._live_receivers():
                self.issue(Event.broadcast(action))
        if self.budget > 0 and not self.session.crashed \
                and SMS_RECEIVED_ACTION in self._live_receivers():
            self.issue(Event.incoming_sms(own, SMS_PROBE_BODY))
        if self.budget > 0 and not self.session.crashed \
                and PHONE_STATE_ACTION in self._live_receivers():
            self.issue(Event.incoming_call(own))


def explore(app: AppModel, config: ExplorationConfig, device: DeviceState, *,
            netguard=None, tables: DataTables | None = None,
            runner: SessionRunner | None = None) -> Session:
    """Run one grey-box exploration session.

    Optional random-event phase first, then systematic passes (dump,
    identify, fill, trigger), then receiver injection, then a final
    sweep over anything the injections unlocked.

    When an existing runner is passed, its session is continued from the
    runner's device (``device``, ``netguard`` and ``tables`` are then the
    runner's own); otherwise a fresh runner is created over ``device``.
    """
    if runner is None:
        if app.package not in device.contexts:
            device = install_app(device, app)
        runner = SessionRunner(app, device, netguard=netguard,
                               tables=tables or default_tables())
    if runner.device.crashed:
        runner.session.crashed = True
        return runner.session

    if config.run_monkey_first:
        monkey_config = config.monkey_config or MonkeyConfig(seed=config.seed,
                                                             package=app.package)
        run_monkey(app, runner.device, monkey_config, runner=runner)
        if runner.session.crashed:
            return runner.session

    engine = _Explorer(app, config, runner, runner.tables)
    engine.drain_ui()
    if not engine.session.crashed and engine.budget > 0:
        engine.inject()
        engine.drain_ui()
    return engine.session


# ---------------------------------------------------------------------------
# Environment cleanup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Whitelist:
    processes: frozenset[str]
    packages: frozenset[str]


DEFAULT_WHITELIST = Whitelist(
    processes=frozenset({"system_server", "zygote", "netd"}),
    packages=frozenset({"com.android.systemui", "com.android.settings"}),
)

DEFAULT_BASELINE = Settings(wifi=True, data_network=True, sound_volume=50)


def cleanup(device: DeviceState, whitelist: Whitelist = DEFAULT_WHITELIST,
            baseline: Settings = DEFAULT_BASELINE) -> DeviceState:
    """Kill non-whitelisted processes, uninstall stray apps, reset settings.

    Idempotent; the result always equals the whitelist baseline device.
    """
    return DeviceState(
        contexts={p: c for p, c in device.contexts.items()
                  if p in whitelist.packages},
        installed_apps=device.installed_apps & whitelist.packages,
        running_processes=device.running_processes & whitelist.processes,
        settings=replace(baseline),
        crashed=False,
    )


def baseline_device(whitelist: Whitelist = DEFAULT_WHITELIST,
                    baseline: Settings = DEFAULT_BASELINE) -> DeviceState:
    """The device state every session must be returned to."""
    return DeviceState(
        installed_apps=set(whitelist.packages),
        running_processes=set(whitelist.processes),
        settings=replace(baseline),
    )
