"""The grey-box explorer written for clarity: a reference that tests
compare `explore` against.

Its pending-work rule is the one `explore` had before it kept the unsent
rest of interrupted plans: at each stall it re-plans every screen seen so
far, and relaunches the app once if any of them still holds an unsent
(element, action) pair. It keys elements itself and builds a fresh event
for every send, so it shares no table with the engine it checks.
"""

from droidcage.app_model import (
    APP_SWITCH,
    AppModel,
    DeviceState,
    Event,
    identify_element,
    live_receiver_action,
    receiver_events,
)
from droidcage.explorer import UNCATEGORIZED_FILL_LENGTH, ExplorationConfig, categorize_textfield
from droidcage.rng import Xoshiro256StarStar, derive_seed
from droidcage.session import Session, SessionRunner

# The actions sent before any other on a screen: they fill in the form.
FILL_ACTIONS = ("set_text", "toggle")


def unshadowed(app: AppModel, activity: str, state: str) -> dict:
    """Each key of the screen's elements, in screen order, with the first
    element that carries it: a later one with the same key is never a target."""
    first = {}
    for element in app.screen(activity, state).state.elements:
        first.setdefault(identify_element(activity, element), element)
    return first


def plan(app: AppModel, place: tuple[str, str], visited: set) -> list:
    """The unsent (key, action, element) triples of the screen at ``place``,
    fills first."""
    pairs = [(key, action, element) for key, element in unshadowed(app, *place).items()
             for action in element.actions if (key, action) not in visited]
    return ([p for p in pairs if p[1] in FILL_ACTIONS]
            + [p for p in pairs if p[1] not in FILL_ACTIONS])


def explore_reference(app: AppModel, config: ExplorationConfig, device: DeviceState, *,
                      runner: SessionRunner | None = None) -> Session:
    """What `explore` does with the same arguments."""
    runner = runner or SessionRunner(app, device)
    rng = Xoshiro256StarStar(derive_seed(config.seed, "smart-fill"))
    budget = config.max_events
    visited: set = set()
    seen: set = set()  # every screen shown so far

    def send(event: Event) -> None:
        nonlocal budget
        budget -= 1
        runner.step(event)

    def drain() -> None:
        relaunched = False
        while budget > 0 and not runner.device.crashed:
            here = runner.current_screen()
            seen.add(here)
            todo = plan(app, here, visited)
            if not todo:
                if relaunched or not any(plan(app, place, visited) for place in seen):
                    return
                send(APP_SWITCH)
                relaunched = True
                continue
            relaunched = False
            for key, action, element in todo:
                if budget <= 0:
                    return
                visited.add((key, action))
                if action == "set_text":
                    category = categorize_textfield(element)
                    value = (rng.alnum(UNCATEGORIZED_FILL_LENGTH) if category == "uncategorized"
                             else runner.tables.fill(category, rng.choice))
                    send(Event("set_text", key, value))
                else:
                    send(Event(action, key))
                if runner.current_screen() != here:
                    break  # the screen changed (or the app crashed): plan again

    drain()
    # The receiver events the app can take right now, once each.
    for event in receiver_events(app, runner.tables):
        if budget <= 0 or runner.device.crashed:
            break
        if live_receiver_action(app, runner.device.context(app.package), event) is not None:
            send(event)
    drain()
    return runner.session
