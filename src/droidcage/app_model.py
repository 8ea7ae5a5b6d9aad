"""Simulated application models and the device that runs them.

An app model is a deterministic finite state machine standing in for an
installed application: activities hold UI states, UI states hold
elements, and transitions fire on events, executing basic blocks and
emitting side effects. Determinism is deliberate: it lets an exhaustive
breadth-first oracle compute the exact set of reachable blocks, which the
exploration engines are then measured against.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .data_tables import DataTables, default_tables
from .telephony import TELEPHONY_KINDS, TelephonyPolicy, filter_outgoing

UI_ACTIONS = ("click", "long_click", "scroll", "set_text", "toggle")
ELEMENT_KINDS = ("button", "textfield", "checkbox", "generic")
ORIGIN_FLAGS = ("app_code", "framework_core", "inlined_candidate")

# Manifest action names for the two telephony-delivered event kinds.
SMS_RECEIVED_ACTION = "android.provider.Telephony.SMS_RECEIVED"
PHONE_STATE_ACTION = "android.intent.action.PHONE_STATE"

# Body used when the platform sends the probe SMS to the device itself.
SMS_PROBE_BODY = "probe"

# Most telephony loopback events one event's chain may apply.
LOOPBACK_LIMIT = 8


class ModelParseError(ValueError):
    """The app-model file is not syntactically valid."""


class ModelValidationError(ValueError):
    """The app-model file violates a structural invariant."""


class SessionCrashedError(RuntimeError):
    """The app session crashed; no further events are accepted."""


class AppNotInstalledError(RuntimeError):
    pass


class OracleBudgetError(RuntimeError):
    """The reachability oracle exceeded its state budget (no silent truncation)."""

    def __init__(self, states_explored: int, max_states: int):
        super().__init__(
            f"oracle unavailable: explored {states_explored} states, budget {max_states}"
        )
        self.states_explored = states_explored
        self.max_states = max_states


# ---------------------------------------------------------------------------
# UI structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UiElement:
    kind: str = "generic"
    id_string: Optional[str] = None
    content_description: Optional[str] = None
    text: Optional[str] = None
    hint: Optional[str] = None
    bounds: tuple[int, int, int, int] = (0, 0, 1, 1)
    actions: tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return self.bounds[2]

    @property
    def height(self) -> int:
        return self.bounds[3]


@dataclass(frozen=True, slots=True)
class ElementKey:
    """Identity of a UI element as seen by the grey-box explorer.

    Strong variants carry the activity name; partial variants fall back
    to printed text or, failing that, pixel dimensions (which may
    collide between distinct elements; the first one wins).
    """

    kind: str  # strong_id | strong_desc | partial_text | partial_dims
    activity: Optional[str] = None
    value: Union[str, tuple[int, int]] = ""


def identify_element(activity: str, element: UiElement) -> ElementKey:
    """Key an element by the strongest identity it offers.

    Precedence: developer ID string, content description (both scoped to
    the activity), printed text, then raw dimensions.
    """
    if element.id_string:
        return ElementKey("strong_id", activity, element.id_string)
    if element.content_description:
        return ElementKey("strong_desc", activity, element.content_description)
    if element.text:
        return ElementKey("partial_text", None, element.text)
    return ElementKey("partial_dims", None, (element.width, element.height))


@dataclass(frozen=True)
class UiState:
    id: str
    elements: tuple[UiElement, ...]


class Screen:
    """One UI state with every element's key computed once.

    ``first_index`` maps each key to the first element that carries it.
    That is the shadowing rule: a later element with the same (partial)
    key can never be an event's target.
    """

    __slots__ = ("state", "keys", "first_index", "_bounds")

    def __init__(self, activity: str, state: UiState):
        self.state = state
        self.keys = tuple(identify_element(activity, el) for el in state.elements)
        self.first_index: dict[ElementKey, int] = {}
        for i, key in enumerate(self.keys):
            self.first_index.setdefault(key, i)
        self._bounds = tuple(el.bounds for el in state.elements)

    def entries(self) -> Iterator[tuple[ElementKey, UiElement]]:
        """The unshadowed elements with their keys, in screen order."""
        elements = self.state.elements
        return ((key, elements[i]) for key, i in self.first_index.items())

    def hit(self, x: int, y: int) -> Optional[ElementKey]:
        """Key of the first element containing (x, y), or None."""
        for i, (x0, y0, w, h) in enumerate(self._bounds):
            if x0 <= x < x0 + w and y0 <= y < y0 + h:
                return self.keys[i]
        return None


def _first_wins(pairs) -> dict:
    # A dict that, like a linear scan, resolves a repeated key to its first value.
    return dict(reversed(list(pairs)))


@dataclass(frozen=True)
class Activity:
    name: str
    initial_state: str
    states: tuple[UiState, ...]
    _states: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_states", _first_wins((st.id, st) for st in self.states))

    def state(self, state_id: str) -> UiState:
        try:
            return self._states[state_id]
        except (KeyError, TypeError):
            raise KeyError(state_id) from None


@dataclass(frozen=True)
class BasicBlock:
    id: str
    class_name: str
    method: str


# ---------------------------------------------------------------------------
# Side effects and events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SideEffect:
    kind: str
    data: bytes = b""            # network_request payload
    protocol: str = "http"       # network_request declared protocol
    server: Optional[str] = None  # network_request TLS identity (domain)
    number: str = ""             # outgoing_call / outgoing_sms
    body: str = ""               # outgoing_sms
    signature: str = ""          # java_call
    origin: tuple[str, ...] = ()  # java_call visibility flags
    pid: Optional[int] = None    # java_call / system_call claimed pid
    name: str = ""               # system_call
    action: str = ""             # register_receiver

    @classmethod
    def network_request(cls, data: bytes, protocol: str = "http", server: str | None = None):
        return cls("network_request", data=data, protocol=protocol, server=server)

    @classmethod
    def outgoing_call(cls, number: str):
        return cls("outgoing_call", number=number)

    @classmethod
    def outgoing_sms(cls, number: str, body: str):
        return cls("outgoing_sms", number=number, body=body)

    @classmethod
    def java_call(cls, signature: str, origin: Iterable[str] = ("app_code",), pid: int | None = None):
        return cls("java_call", signature=signature, origin=tuple(origin), pid=pid)

    @classmethod
    def system_call(cls, name: str, pid: int | None = None):
        return cls("system_call", name=name, pid=pid)

    @classmethod
    def register_receiver(cls, action: str):
        return cls("register_receiver", action=action)


@dataclass(frozen=True)
class Event:
    kind: str
    target: Optional[ElementKey] = None
    value: str = ""   # set_text
    action: str = ""  # broadcast intent
    number: str = ""  # incoming sms / call
    body: str = ""    # incoming sms
    name: str = ""    # system_key

    @classmethod
    def click(cls, target):
        return cls("click", target=target)

    @classmethod
    def long_click(cls, target):
        return cls("long_click", target=target)

    @classmethod
    def scroll(cls, target):
        return cls("scroll", target=target)

    @classmethod
    def set_text(cls, target, value: str):
        return cls("set_text", target=target, value=value)

    @classmethod
    def toggle(cls, target):
        return cls("toggle", target=target)

    @classmethod
    def broadcast(cls, action: str):
        if not action:
            raise ValueError("broadcast needs a non-empty action")
        return cls("broadcast", action=action)

    @classmethod
    def incoming_sms(cls, number: str, body: str):
        return cls("incoming_sms", number=number, body=body)

    @classmethod
    def incoming_call(cls, number: str):
        return cls("incoming_call", number=number)

    @classmethod
    def system_key(cls, name: str):
        return cls("system_key", name=name)

    @classmethod
    def app_switch(cls):
        return cls("app_switch")

    @property
    def is_ui(self) -> bool:
        return self.kind in UI_ACTIONS


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TextMatch:
    kind: str  # equals | non_empty | matches_category
    value: str = ""
    category: str = ""

    def accepts(self, text: str, tables: DataTables) -> bool:
        if self.kind == "equals":
            return text == self.value
        if self.kind == "non_empty":
            return text != ""
        if self.kind == "matches_category":
            return tables.matches(self.category, text)
        raise ValueError(f"unknown match kind {self.kind!r}")


@dataclass(frozen=True)
class UiSource:
    activity: str
    state: str
    element_index: int


@dataclass(frozen=True)
class ReceiverSource:
    action: str                 # manifest intent action
    trigger: str                # broadcast | incoming_sms | incoming_call
    anchor: Optional[tuple[str, str]] = None  # restrict to (activity, state)


@dataclass(frozen=True)
class Transition:
    index: int
    source: Union[UiSource, ReceiverSource]
    action: str
    match: Optional[TextMatch]
    to: Optional[tuple[str, str]]
    blocks: tuple[str, ...]
    side_effects: tuple[SideEffect, ...]
    crash: bool = False


# ---------------------------------------------------------------------------
# App model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppModel:
    package: str
    main_activity: str
    own_number: str
    activities: tuple[Activity, ...]
    transitions: tuple[Transition, ...]
    blocks: tuple[BasicBlock, ...]
    declared_receivers: tuple[str, ...]
    dynamic_receivers: tuple[tuple[str, str, str], ...]  # (activity, state, action)
    alphabet: tuple[str, ...]
    # Lookup tables built once per model by __post_init__; events, the
    # oracle and the explorer only read them.
    block_index: dict[str, BasicBlock] = field(init=False, repr=False, compare=False)
    _activities: dict[str, Activity] = field(init=False, repr=False, compare=False)
    _screens: dict[tuple[str, str], Screen] = field(init=False, repr=False, compare=False)
    _ui_transitions: dict[tuple[str, str, int, str], tuple[Transition, ...]] = field(
        init=False, repr=False, compare=False)
    _receiver_transitions: dict[tuple[str, str], tuple[Transition, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        activities = _first_wins((a.name, a) for a in self.activities)
        # Transitions grouped by what they match, each group then a tuple.
        ui: dict[tuple[str, str, int, str], Sequence[Transition]] = {}
        rx: dict[tuple[str, str], Sequence[Transition]] = {}
        for t in self.transitions:
            if isinstance(t.source, UiSource):
                key = (t.source.activity, t.source.state, t.source.element_index, t.action)
                ui.setdefault(key, []).append(t)
            else:
                rx.setdefault((t.source.trigger, t.source.action), []).append(t)
        for groups in (ui, rx):
            for k, v in groups.items():
                groups[k] = tuple(v)
        tables = {
            "block_index": {b.id: b for b in self.blocks},
            "_activities": activities,
            "_screens": {(name, sid): Screen(name, st)
                         for name, act in activities.items()
                         for sid, st in act._states.items()},
            "_ui_transitions": ui,
            "_receiver_transitions": rx,
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def activity(self, name: str) -> Activity:
        try:
            return self._activities[name]
        except (KeyError, TypeError):
            raise KeyError(name) from None

    def screen(self, activity: str, state_id: str) -> Screen:
        """The indexed UI state; KeyError names the unknown activity or state."""
        try:
            return self._screens[activity, state_id]
        except (KeyError, TypeError):
            self.activity(activity).state(state_id)  # raises KeyError naming the unknown part
            raise

    def ui_state(self, activity: str, state_id: str) -> UiState:
        return self.screen(activity, state_id).state

    def receiver_actions(self) -> frozenset[str]:
        """All intent actions the app can ever be registered for."""
        actions = set(self.declared_receivers)
        actions.update(a for _, _, a in self.dynamic_receivers)
        for t in self.transitions:
            if isinstance(t.source, ReceiverSource):
                actions.add(t.source.action)
            for eff in t.side_effects:
                if eff.kind == "register_receiver":
                    actions.add(eff.action)
        return frozenset(actions)


# ---------------------------------------------------------------------------
# Device state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppContext:
    activity: str
    state: str
    receivers: frozenset[str] = frozenset()


@dataclass
class Settings:
    wifi: bool = True
    data_network: bool = True
    sound_volume: int = 50


@dataclass
class DeviceState:
    contexts: dict[str, AppContext] = field(default_factory=dict)
    installed_apps: set[str] = field(default_factory=set)
    running_processes: set[str] = field(default_factory=set)
    settings: Settings = field(default_factory=Settings)
    crashed: bool = False

    def clone(self) -> "DeviceState":
        return DeviceState(
            contexts=dict(self.contexts),
            installed_apps=set(self.installed_apps),
            running_processes=set(self.running_processes),
            settings=replace(self.settings),
            crashed=self.crashed,
        )

    def context(self, package: str) -> AppContext:
        try:
            return self.contexts[package]
        except KeyError:
            raise AppNotInstalledError(f"{package} is not installed") from None


def fresh_device(processes: Iterable[str] = (), packages: Iterable[str] = (),
                 settings: Settings | None = None) -> DeviceState:
    return DeviceState(
        running_processes=set(processes),
        installed_apps=set(packages),
        settings=settings if settings is not None else Settings(),
    )


def _enter_state(app: AppModel, ctx: AppContext, activity: str, state: str) -> AppContext:
    # Entering a state registers any dynamic receivers triggered by it.
    registered = set(ctx.receivers)
    for act, st, action in app.dynamic_receivers:
        if act == activity and st == state:
            registered.add(action)
    return AppContext(activity=activity, state=state, receivers=frozenset(registered))


def install_app(device: DeviceState, app: AppModel) -> DeviceState:
    """Install and launch the app: main activity, initial state."""
    dev = device.clone()
    dev.installed_apps.add(app.package)
    dev.running_processes.add(app.package)
    main = app.activity(app.main_activity)
    ctx = _enter_state(app, AppContext(main.name, main.initial_state), main.name, main.initial_state)
    dev.contexts[app.package] = ctx
    return dev


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    device: DeviceState
    executed_blocks: tuple[str, ...]
    side_effects: tuple[SideEffect, ...]
    crashed: bool
    matched: bool


_EMPTY = ((), (), False, False)


def dump_hierarchy(device: DeviceState, app: AppModel) -> tuple[UiElement, ...]:
    """Elements of the current UI state, in stable (fixture) order."""
    if device.crashed:
        raise SessionCrashedError(f"session for {app.package} has crashed")
    ctx = device.context(app.package)
    return app.ui_state(ctx.activity, ctx.state).elements


def _resolve_target(app: AppModel, ctx: AppContext, key: ElementKey) -> Optional[int]:
    # First element whose key equals the event key (see Screen.first_index).
    return app.screen(ctx.activity, ctx.state).first_index.get(key)


def _live_receiver(app: AppModel, ctx: AppContext, action: str) -> bool:
    return action in app.declared_receivers or action in ctx.receivers


def apply_event(device: DeviceState, app: AppModel, event: Event,
                tables: DataTables | None = None) -> StepResult:
    """Run one event against the machine.

    Deterministic: identical (device, event) pairs produce identical
    results. Events matching no transition leave the device untouched.
    """
    if device.crashed:
        raise SessionCrashedError(f"session for {app.package} has crashed")
    tables = tables or default_tables()
    ctx = device.context(app.package)

    if event.kind == "app_switch":
        main = app.activity(app.main_activity)
        if (ctx.activity, ctx.state) == (main.name, main.initial_state):
            return StepResult(device, *_EMPTY)
        dev = device.clone()
        dev.contexts[app.package] = _enter_state(app, ctx, main.name, main.initial_state)
        return StepResult(dev, (), (), False, True)

    transition = _match_transition(app, ctx, event, tables)
    if transition is None:
        return StepResult(device, *_EMPTY)
    return _fire(device, app, ctx, transition)


def _match_transition(app, ctx, event, tables) -> Optional[Transition]:
    if event.is_ui:
        if event.target is None:
            return None
        idx = _resolve_target(app, ctx, event.target)
        if idx is None:
            return None
        candidates = app._ui_transitions.get((ctx.activity, ctx.state, idx, event.kind), ())
        for t in candidates:
            if t.match is None or t.match.accepts(event.value, tables):
                return t
        return None

    if event.kind == "broadcast":
        if not _live_receiver(app, ctx, event.action):
            return None
        return _receiver_transition(app, ctx, "broadcast", event.action)
    if event.kind == "incoming_sms":
        if not _live_receiver(app, ctx, SMS_RECEIVED_ACTION):
            return None
        return _receiver_transition(app, ctx, "incoming_sms", SMS_RECEIVED_ACTION)
    if event.kind == "incoming_call":
        if not _live_receiver(app, ctx, PHONE_STATE_ACTION):
            return None
        return _receiver_transition(app, ctx, "incoming_call", PHONE_STATE_ACTION)
    # system_key and anything else never match app transitions
    return None


def _receiver_transition(app, ctx, trigger, action) -> Optional[Transition]:
    for t in app._receiver_transitions.get((trigger, action), ()):
        anchor = t.source.anchor
        if anchor is None or anchor == (ctx.activity, ctx.state):
            return t
    return None


def _fire(device, app, ctx, transition) -> StepResult:
    dev = device.clone()
    new_ctx = ctx
    for eff in transition.side_effects:
        if eff.kind == "register_receiver":
            new_ctx = AppContext(new_ctx.activity, new_ctx.state,
                                 new_ctx.receivers | {eff.action})
    if transition.to is not None and transition.to != (new_ctx.activity, new_ctx.state):
        new_ctx = _enter_state(app, new_ctx, *transition.to)
    dev.contexts[app.package] = new_ctx
    if transition.crash:
        dev.crashed = True
    return StepResult(dev, transition.blocks, transition.side_effects,
                      transition.crash, True)


def loopback_event(effect: SideEffect) -> Event:
    """Incoming event produced when a telephony effect is delivered to self."""
    if effect.kind == "outgoing_sms":
        return Event.incoming_sms(effect.number, effect.body)
    if effect.kind == "outgoing_call":
        return Event.incoming_call(effect.number)
    raise ValueError(f"no loopback for {effect.kind}")


def run_event_chain(device: DeviceState, app: AppModel, event: Event,
                    policy: TelephonyPolicy, tables: DataTables | None = None
                    ) -> tuple[DeviceState, list[tuple[Event, StepResult]]]:
    """Apply an event plus any telephony loopback events it triggers.

    Outgoing calls/SMS delivered to the device's own number loop back as
    incoming events immediately. The chain is capped to keep pathological
    self-texting fixtures from spinning.
    """
    steps: list[tuple[Event, StepResult]] = []
    queue = deque([event])
    while queue and len(steps) <= LOOPBACK_LIMIT:
        ev = queue.popleft()
        result = apply_event(device, app, ev, tables)
        steps.append((ev, result))
        device = result.device
        if result.crashed:
            break
        for eff in result.side_effects:
            if eff.kind in TELEPHONY_KINDS and filter_outgoing(eff, policy).delivered:
                queue.append(loopback_event(eff))
    return device, steps


# ---------------------------------------------------------------------------
# Reachability oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventUniverse:
    """The events an engine could conceivably generate against an app."""

    text_values: tuple[str, ...]
    broadcast_actions: tuple[str, ...]
    include_sms: bool
    include_call: bool

    @classmethod
    def for_app(cls, app: AppModel) -> "EventUniverse":
        actions = app.receiver_actions()
        return cls(
            text_values=tuple(app.alphabet),
            broadcast_actions=tuple(a for a in default_tables().table("broadcast")
                                    if a in actions),
            include_sms=SMS_RECEIVED_ACTION in actions,
            include_call=PHONE_STATE_ACTION in actions,
        )


def _candidate_events(app: AppModel, device: DeviceState, universe: EventUniverse,
                      own_number: str) -> list[Event]:
    ctx = device.context(app.package)
    events: list[Event] = []
    for key, el in app.screen(ctx.activity, ctx.state).entries():
        for action in el.actions:
            if action == "set_text":
                events.extend(Event.set_text(key, v) for v in universe.text_values)
            else:
                events.append(Event(action, target=key))
    events.extend(Event.broadcast(a) for a in universe.broadcast_actions)
    if universe.include_sms:
        events.append(Event.incoming_sms(own_number, SMS_PROBE_BODY))
    if universe.include_call:
        events.append(Event.incoming_call(own_number))
    events.append(Event.app_switch())
    return events


def _state_key(app: AppModel, device: DeviceState):
    ctx = device.context(app.package)
    return (ctx.activity, ctx.state, ctx.receivers, device.crashed)


def reachable_blocks(app: AppModel, universe: EventUniverse | None = None, *,
                     max_states: int = 10_000, tables: DataTables | None = None) -> frozenset[str]:
    """Exact set of blocks executable by any event sequence.

    Exhaustive breadth-first search over (device context, event). Raises
    :class:`OracleBudgetError` when the state space exceeds the budget;
    the oracle is either exact or explicitly unavailable.
    """
    universe = universe or EventUniverse.for_app(app)
    tables = tables or default_tables()
    policy = TelephonyPolicy(own_number=app.own_number)

    start = install_app(fresh_device(), app)
    seen = {_state_key(app, start)}
    frontier = deque([start])
    blocks: set[str] = set()

    while frontier:
        device = frontier.popleft()
        for event in _candidate_events(app, device, universe, app.own_number):
            new_device, steps = run_event_chain(device, app, event, policy, tables)
            for _, res in steps:
                blocks.update(res.executed_blocks)
            if new_device.crashed:
                continue  # terminal: crashed sessions accept nothing further
            key = _state_key(app, new_device)
            if key not in seen:
                if len(seen) >= max_states:
                    raise OracleBudgetError(len(seen), max_states)
                seen.add(key)
                frontier.append(new_device)
    return frozenset(blocks)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

def _object(raw, where: str, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ModelValidationError(
            f"{where}: {what} must be a JSON object, got {type(raw).__name__}")
    return raw


_NUMBER = frozenset({int, float})
_STRING = frozenset({str})


def _is_array(raw, types: frozenset) -> bool:
    """Whether ``raw`` is a JSON array (list or tuple) of values of ``types``."""
    return isinstance(raw, (list, tuple)) and types.issuperset(map(type, raw))


def _req(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ModelValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _load_element(raw: dict, where: str) -> UiElement:
    kind = _object(raw, where, "element").get("kind", "generic")
    if kind not in ELEMENT_KINDS:
        raise ModelValidationError(f"{where}: unknown element kind {kind!r}")
    bounds = _req(raw, "bounds", where)
    if not _is_array(bounds, _NUMBER) or len(bounds) != 4:
        raise ModelValidationError(f"{where}: bounds must be [x, y, width, height]")
    bounds = tuple(bounds)
    if bounds[2] <= 0 or bounds[3] <= 0:
        raise ModelValidationError(f"{where}: element width/height must be positive")
    actions = tuple(raw.get("actions", ()))
    for a in actions:
        if a not in UI_ACTIONS:
            raise ModelValidationError(f"{where}: unknown action {a!r}")
    if kind == "textfield" and "set_text" not in actions:
        raise ModelValidationError(f"{where}: textfield must list set_text")
    if kind == "checkbox" and "toggle" not in actions:
        raise ModelValidationError(f"{where}: checkbox must list toggle")
    element = UiElement(
        kind=kind,
        id_string=raw.get("id_string", raw.get("id")),
        content_description=raw.get("content_description", raw.get("description")),
        text=raw.get("text"),
        hint=raw.get("hint"),
        bounds=bounds,  # type: ignore[arg-type]
        actions=actions,
    )
    for attr in ("id_string", "content_description", "text", "hint"):
        if not isinstance(getattr(element, attr), (str, type(None))):
            raise ModelValidationError(f"{where}: {attr} must be a string")
    return element


def _load_side_effect(raw: dict, where: str) -> SideEffect:
    kind = _req(_object(raw, where, "side effect"), "kind", where)
    if kind == "network_request":
        data = raw.get("data", "")
        if not isinstance(data, str):
            raise ModelValidationError(f"{where}: network_request data must be a string")
        data = data.encode("utf-8")
        return SideEffect.network_request(data, raw.get("protocol", "http"), raw.get("server"))
    if kind == "outgoing_call":
        return SideEffect.outgoing_call(_req(raw, "number", where))
    if kind == "outgoing_sms":
        return SideEffect.outgoing_sms(_req(raw, "number", where), raw.get("body", ""))
    if kind == "java_call":
        sig = _req(raw, "signature", where)
        if not sig:
            raise ModelValidationError(f"{where}: java_call signature must be non-empty")
        origin = tuple(raw.get("origin", ("app_code",)))
        for flag in origin:
            if flag not in ORIGIN_FLAGS:
                raise ModelValidationError(f"{where}: unknown origin flag {flag!r}")
        return SideEffect.java_call(sig, origin, raw.get("pid"))
    if kind == "system_call":
        return SideEffect.system_call(_req(raw, "name", where), raw.get("pid"))
    if kind == "register_receiver":
        return SideEffect.register_receiver(_req(raw, "action", where))
    raise ModelValidationError(f"{where}: unknown side-effect kind {kind!r}")


def _resolve_element_ref(state: UiState, ref, where: str) -> int:
    if isinstance(ref, int):
        if not 0 <= ref < len(state.elements):
            raise ModelValidationError(f"{where}: element index {ref} out of range")
        return ref
    for attr in ("id_string", "content_description", "text"):
        for i, el in enumerate(state.elements):
            if getattr(el, attr) == ref:
                return i
    raise ModelValidationError(f"{where}: no element matching {ref!r}")


_MATCH_KINDS = ("equals", "non_empty", "matches_category")
_MATCH_CATEGORIES = (
    "phone_number", "first_name", "last_name", "email", "iban",
    "country", "city", "street_address", "password", "pin_code",
)


def _load_match(raw: dict | None, where: str) -> Optional[TextMatch]:
    if raw is None:
        return None
    kind = _req(_object(raw, where, "match"), "kind", where)
    if kind not in _MATCH_KINDS:
        raise ModelValidationError(f"{where}: unknown match kind {kind!r}")
    if kind == "equals":
        return TextMatch("equals", value=_req(raw, "value", where))
    if kind == "matches_category":
        cat = _req(raw, "category", where)
        if cat not in _MATCH_CATEGORIES:
            raise ModelValidationError(f"{where}: unknown category {cat!r}")
        return TextMatch("matches_category", category=cat)
    return TextMatch("non_empty")


def load_app_model(path: str | Path) -> AppModel:
    """Load and validate an app model file.

    Raises :class:`ModelParseError` with position diagnostics for broken
    JSON and :class:`ModelValidationError` naming the violated invariant
    for structurally invalid models.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelParseError(f"{path.name}: line {e.lineno} col {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ModelParseError(f"{path.name}: top level must be an object")
    return model_from_dict(doc, source=path.name)


def model_from_dict(doc: dict, source: str = "<dict>") -> AppModel:
    package = _req(doc, "package", source)
    main_activity = _req(doc, "main_activity", source)
    own_number = _req(doc, "own_number", source)
    if not own_number:
        raise ModelValidationError(f"{source}: own_number must be non-empty")

    activities = []
    for araw in _req(doc, "activities", source):
        aname = _req(araw, "name", source)
        states = []
        for sraw in _req(araw, "states", f"{source}:{aname}"):
            sid = _req(sraw, "id", f"{source}:{aname}")
            elements = tuple(
                _load_element(e, f"{source}:{aname}/{sid}") for e in sraw.get("elements", ())
            )
            states.append(UiState(sid, elements))
        ids = [s.id for s in states]
        if len(set(ids)) != len(ids):
            raise ModelValidationError(f"{source}:{aname}: state ids must be unique")
        initial = _req(araw, "initial_state", f"{source}:{aname}")
        if initial not in ids:
            raise ModelValidationError(f"{source}:{aname}: initial_state {initial!r} not found")
        activities.append(Activity(aname, initial, tuple(states)))
    if not activities:
        raise ModelValidationError(f"{source}: at least one activity required")
    names = [a.name for a in activities]
    if len(set(names)) != len(names):
        raise ModelValidationError(f"{source}: activity names must be unique")
    if main_activity not in names:
        raise ModelValidationError(f"{source}: main_activity {main_activity!r} not found")
    act_by_name = {a.name: a for a in activities}

    blocks = []
    for braw in _req(doc, "blocks", source):
        bid = _req(braw, "id", source)
        if type(bid) is not str:
            raise ModelValidationError(f"{source}: block id {bid!r} must be a string")
        blocks.append(BasicBlock(bid, _req(braw, "class", source), _req(braw, "method", source)))
    block_ids = [b.id for b in blocks]
    if len(set(block_ids)) != len(block_ids):
        raise ModelValidationError(f"{source}: block ids must be unique")
    known_blocks = set(block_ids)

    receivers_raw = _object(doc.get("receivers", {}), source, "receivers")
    declared = tuple(receivers_raw.get("declared", ()))
    dynamic = []
    for draw in receivers_raw.get("dynamic", ()):
        act = _req(draw, "activity", f"{source}:receivers")
        st = _req(draw, "state", f"{source}:receivers")
        if act not in act_by_name:
            raise ModelValidationError(f"{source}: dynamic receiver references unknown activity {act!r}")
        try:
            act_by_name[act].state(st)
        except KeyError:
            raise ModelValidationError(f"{source}: dynamic receiver references unknown state {st!r}") from None
        dynamic.append((act, st, _req(draw, "action", f"{source}:receivers")))

    transitions = []
    for i, traw in enumerate(_req(doc, "transitions", source)):
        where = f"{source}:transition[{i}]"
        frm = _object(_req(traw, "from", where), where, "from")
        trigger = _object(traw.get("trigger", {}), where, "trigger")
        match = _load_match(trigger.get("match"), where)
        if "receiver" in frm:
            action = frm["receiver"]
            if action == SMS_RECEIVED_ACTION:
                tkind = "incoming_sms"
            elif action == PHONE_STATE_ACTION:
                tkind = "incoming_call"
            else:
                tkind = "broadcast"
            anchor = None
            if "activity" in frm:
                anchor = (frm["activity"], _req(frm, "state", where))
            if match is not None:
                raise ModelValidationError(f"{where}: text match is only valid on set_text")
            source_obj: Union[UiSource, ReceiverSource] = ReceiverSource(action, tkind, anchor)
            action_name = tkind
        else:
            act = _req(frm, "activity", where)
            st = _req(frm, "state", where)
            if act not in act_by_name:
                raise ModelValidationError(f"{where}: unknown activity {act!r}")
            try:
                state_obj = act_by_name[act].state(st)
            except KeyError:
                raise ModelValidationError(f"{where}: unknown state {st!r}") from None
            idx = _resolve_element_ref(state_obj, _req(frm, "element", where), where)
            action_name = _req(trigger, "action", where)
            if action_name not in UI_ACTIONS:
                raise ModelValidationError(f"{where}: unknown trigger action {action_name!r}")
            if match is not None and action_name != "set_text":
                raise ModelValidationError(f"{where}: text match is only valid on set_text")
            source_obj = UiSource(act, st, idx)

        to_raw = traw.get("to")
        to = None
        if to_raw is not None:
            tact = _req(_object(to_raw, where, "to"), "activity", where)
            tst = _req(to_raw, "state", where)
            if tact not in act_by_name:
                raise ModelValidationError(f"{where}: unknown target activity {tact!r}")
            try:
                act_by_name[tact].state(tst)
            except KeyError:
                raise ModelValidationError(f"{where}: unknown target state {tst!r}") from None
            to = (tact, tst)

        tblocks = traw.get("blocks", ())
        if not isinstance(tblocks, (list, tuple)):
            raise ModelValidationError(f"{where}: blocks must be an array of block ids")
        for bid in tblocks:
            if type(bid) is not str or bid not in known_blocks:
                raise ModelValidationError(f"{where}: unknown block {bid!r}")
        tblocks = tuple(tblocks)
        effects = tuple(
            _load_side_effect(e, where) for e in traw.get("side_effects", ())
        )
        transitions.append(Transition(i, source_obj, action_name, match, to,
                                      tblocks, effects, bool(traw.get("crash", False))))

    alphabet = doc.get("alphabet", ())
    if not _is_array(alphabet, _STRING):
        raise ModelValidationError(f"{source}: alphabet must be an array of strings")
    app = AppModel(
        package=package,
        main_activity=main_activity,
        own_number=own_number,
        activities=tuple(activities),
        transitions=tuple(transitions),
        blocks=tuple(blocks),
        declared_receivers=declared,
        dynamic_receivers=tuple(dynamic),
        alphabet=tuple(alphabet),
    )
    _check_determinism(app, source)
    return app


def _check_determinism(app: AppModel, source: str) -> None:
    # At most one transition may match any concrete (state, event) pair;
    # the model's transition tables group the candidates.
    for key, group in app._ui_transitions.items():
        if len(group) == 1:
            continue
        # multiple transitions are only allowed as equals-matches on
        # pairwise distinct values
        values = set()
        for t in group:
            if t.match is None or t.match.kind != "equals":
                raise ModelValidationError(
                    f"{source}: ambiguous transitions for {key} (machine must be deterministic)"
                )
            values.add(t.match.value)
        if len(values) != len(group):
            raise ModelValidationError(
                f"{source}: duplicate equals values for {key} (machine must be deterministic)"
            )

    for key, group in app._receiver_transitions.items():
        anchors = [t.source.anchor for t in group]
        if anchors.count(None) > 1 or (None in anchors and len(group) > 1):
            raise ModelValidationError(
                f"{source}: ambiguous receiver transitions for {key}"
            )
        concrete = [a for a in anchors if a is not None]
        if len(set(concrete)) != len(concrete):
            raise ModelValidationError(
                f"{source}: duplicate receiver anchors for {key}"
            )
