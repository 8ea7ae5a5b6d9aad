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
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .data_tables import CATEGORIES, DataTables, default_tables
from .gcpause import gc_paused

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

# The telephony vocabulary: each outgoing kind, the incoming event it loops
# back as when sent to the device's own number, and the manifest action a
# receiver of that event is declared under (any other action is a broadcast).
_TELEPHONY = {
    "outgoing_call": ("incoming_call", PHONE_STATE_ACTION),
    "outgoing_sms": ("incoming_sms", SMS_RECEIVED_ACTION),
}
TELEPHONY_KINDS = tuple(_TELEPHONY)
_TELEPHONY_ACTIONS = dict(_TELEPHONY.values())
_RECEIVER_TRIGGERS = {action: kind for kind, action in _TELEPHONY.values()}


@dataclass(frozen=True)
class TelephonyDecision:
    delivered: bool


def filter_outgoing(effect: SideEffect, own_number: str) -> TelephonyDecision:
    """Whether an outgoing call/SMS may leave the device: only to its own
    number. A rejection is a UI flash, logged and never fatal to the app."""
    if getattr(effect, "kind", None) not in _TELEPHONY:
        raise ValueError(f"not a telephony side effect: {effect!r}")
    return TelephonyDecision(delivered=effect.number == own_number)


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


# ``_make(Record, fields)`` is ``Record._make(fields)`` without its arity
# check: the loader builds its per-element records with it, and each step
# its result, from the tuple of all their fields; tests check their arity.
_make = tuple.__new__


# ---------------------------------------------------------------------------
# UI structure
# ---------------------------------------------------------------------------

class UiElement(NamedTuple):
    kind: str = "generic"
    id_string: Optional[str] = None
    content_description: Optional[str] = None
    text: Optional[str] = None
    hint: Optional[str] = None
    bounds: tuple[int, int, int, int] = (0, 0, 1, 1)
    actions: tuple[str, ...] = ()


class ElementKey(NamedTuple):
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
        return _make(ElementKey, ("strong_id", activity, element.id_string))
    if element.content_description:
        return _make(ElementKey, ("strong_desc", activity, element.content_description))
    if element.text:
        return _make(ElementKey, ("partial_text", None, element.text))
    _, _, width, height = element.bounds
    return _make(ElementKey, ("partial_dims", None, (width, height)))


class UiState(NamedTuple):
    id: str
    elements: tuple[UiElement, ...]


class Screen:
    """One UI state with every element's key computed once.

    ``first_index`` maps each key to the first element that carries it.
    That is the shadowing rule: a later element with the same (partial)
    key can never be an event's target.

    ``transitions`` holds the screen's UI transitions, grouped by
    (element index, action) in model order; :class:`AppModel` fills it.
    """

    __slots__ = ("state", "keys", "first_index", "transitions", "_bounds", "_pairs")

    def __init__(self, activity: str, state: UiState):
        self.state = state
        self.keys = tuple([identify_element(activity, el) for el in state.elements])
        self.first_index: dict[ElementKey, int] = {}
        for i, key in enumerate(self.keys):
            self.first_index.setdefault(key, i)
        self.transitions: dict[tuple[int, str], tuple[Transition, ...]] = {}
        self._bounds = tuple([el.bounds for el in state.elements])
        self._pairs = None  # built by pairs()

    def pairs(self) -> tuple[tuple[tuple[ElementKey, str], UiElement, Optional[Event]], ...]:
        """The unshadowed (key, action) pairs, each with its element and its one
        shared event (none for set_text, whose value varies); built on first use.

        Fills (set_text and toggle) come first, then the rest, each part in
        screen order: the order the explorer sends them in.
        """
        if self._pairs is None:
            elements = self.state.elements
            pairs = [((key, action), elements[i],
                      None if action == "set_text" else Event(action, key))
                     for key, i in self.first_index.items()
                     for action in elements[i].actions]
            self._pairs = tuple(sorted(pairs, key=lambda e: e[0][1] not in ("set_text", "toggle")))
        return self._pairs


class Activity(NamedTuple):
    name: str
    initial_state: str
    states: tuple[UiState, ...]


class BasicBlock(NamedTuple):
    id: str
    class_name: str
    method: str


# ---------------------------------------------------------------------------
# Side effects and events
# ---------------------------------------------------------------------------

class SideEffect(NamedTuple):
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


class Event(NamedTuple):
    kind: str
    target: Optional[ElementKey] = None
    value: str = ""   # set_text
    action: str = ""  # broadcast intent
    number: str = ""  # incoming sms / call
    body: str = ""    # incoming sms
    name: str = ""    # system_key


# The relaunch carries nothing but its kind: every engine sends this one.
APP_SWITCH = Event("app_switch")


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

class TextMatch(NamedTuple):
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


class UiSource(NamedTuple):
    activity: str
    state: str
    element_index: int


class ReceiverSource(NamedTuple):
    action: str                 # manifest intent action
    anchor: Optional[tuple[str, str]] = None  # restrict to (activity, state)


class Transition(NamedTuple):
    source: Union[UiSource, ReceiverSource]
    # A UI action, or the event kind a receiver transition fires on:
    # broadcast | incoming_sms | incoming_call.
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
    # Built once per model by __post_init__; events, the oracle and the
    # explorer only read them. ``home`` is the main activity's initial
    # (activity, state), where the app launches.
    block_index: dict[str, BasicBlock] = field(init=False, repr=False, compare=False)
    home: tuple[str, str] = field(init=False, repr=False, compare=False)
    _screens: dict[tuple[str, str], Screen] = field(init=False, repr=False, compare=False)
    _receiver_transitions: dict[tuple[str, str], tuple[Transition, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # Walked backwards so that, as in a linear scan, a repeated activity
        # name or state id resolves to its first occurrence.
        initial = {a.name: a.initial_state for a in reversed(self.activities)}
        screens = {(a.name, st.id): Screen(a.name, st)
                   for a in reversed(self.activities) for st in reversed(a.states)}
        # Transitions grouped by what they match, each group a tuple. A UI
        # transition goes straight into its screen's table; one on a state
        # the model lacks (possible only without the loader) never fires.
        rx: dict[tuple[str, str], tuple[Transition, ...]] = {}
        for t in self.transitions:
            src = t.source
            if isinstance(src, UiSource):
                screen = screens.get((src.activity, src.state))
                if screen is not None:
                    group = screen.transitions
                    key = (src.element_index, t.action)
                    group[key] = group.get(key, ()) + (t,)
            else:
                key = (t.action, src.action)
                rx[key] = rx.get(key, ()) + (t,)
        tables = {
            "block_index": {b.id: b for b in self.blocks},
            "home": (self.main_activity, initial[self.main_activity]),
            "_screens": screens,
            "_receiver_transitions": rx,
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def screen(self, activity: str, state_id: str) -> Screen:
        """The indexed UI state; KeyError for a pair the model lacks."""
        return self._screens[activity, state_id]

    @cached_property
    def coverage_totals(self) -> tuple[int, int]:
        """How many distinct methods and classes the blocks belong to; counted on first use."""
        blocks = self.blocks
        return (len({(b.class_name, b.method) for b in blocks}),
                len({b.class_name for b in blocks}))

    @cached_property
    def receiver_actions(self) -> frozenset[str]:
        """All intent actions the app can ever be registered for; collected on
        first use, so loading a model does not pay for it."""
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

class AppContext(NamedTuple):
    activity: str
    state: str
    receivers: frozenset[str] = frozenset()


class DeviceState(NamedTuple):
    """A device as one step leaves it; a step that changes it builds a new one.

    The steps build ``contexts`` as a new dict that nothing mutates after;
    its default is an empty read-only mapping, so no two devices share a
    mutable object.
    """

    contexts: Mapping[str, AppContext] = MappingProxyType({})
    installed_apps: frozenset[str] = frozenset()
    running_processes: frozenset[str] = frozenset()
    crashed: bool = False

    def __reduce__(self):
        # A read-only mapping does not pickle; copies get a plain dict.
        return DeviceState, (dict(self.contexts), *self[1:])

    def context(self, package: str) -> AppContext:
        try:
            return self.contexts[package]
        except KeyError:
            raise AppNotInstalledError(f"{package} is not installed") from None


def _enter_state(app: AppModel, ctx: AppContext, activity: str, state: str) -> AppContext:
    # Entering a state registers any dynamic receivers triggered by it.
    registered = set(ctx.receivers)
    for act, st, action in app.dynamic_receivers:
        if act == activity and st == state:
            registered.add(action)
    return AppContext(activity=activity, state=state, receivers=frozenset(registered))


def install_app(device: DeviceState, app: AppModel) -> DeviceState:
    """Install and launch the app: main activity, initial state."""
    ctx = _enter_state(app, AppContext(*app.home), *app.home)
    return DeviceState({**device.contexts, app.package: ctx},
                       device.installed_apps | {app.package},
                       device.running_processes | {app.package}, device.crashed)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class StepResult(NamedTuple):
    device: DeviceState
    executed_blocks: tuple[str, ...]
    side_effects: tuple[SideEffect, ...]
    matched: bool


def dump_hierarchy(device: DeviceState, app: AppModel) -> tuple[UiElement, ...]:
    """Elements of the current UI state, in stable (fixture) order."""
    if device.crashed:
        raise SessionCrashedError(f"session for {app.package} has crashed")
    ctx = device.context(app.package)
    return app.screen(ctx.activity, ctx.state).state.elements


def live_receiver_action(app: AppModel, ctx: AppContext, event: Event) -> Optional[str]:
    """The intent action ``event`` is delivered under, if a receiver for it is live.

    A broadcast carries its own action; an incoming SMS or call arrives
    under the telephony action. A receiver is live when the app declares
    it or ``ctx`` has registered it. Any other event reaches no receiver.
    """
    kind = event.kind
    action = event.action if kind == "broadcast" else _TELEPHONY_ACTIONS.get(kind)
    if action is not None and (action in app.declared_receivers or action in ctx.receivers):
        return action
    return None


def apply_event(device: DeviceState, app: AppModel, event: Event,
                tables: DataTables | None = None) -> StepResult:
    """Run one event against the machine.

    Deterministic: identical (device, event) pairs produce identical
    results. The given device is never mutated: a step that changes the
    app's context or crashes it returns a new device, and any other step
    (no match, or a transition that changes neither) returns the given one.
    """
    if device.crashed:
        raise SessionCrashedError(f"session for {app.package} has crashed")
    ctx = device.context(app.package)
    kind = event.kind
    transition = None
    if kind in UI_ACTIONS:
        if event.target is not None:
            screen = app._screens[ctx.activity, ctx.state]
            # The shadowing rule; a target not on this screen (None) keys nothing.
            idx = screen.first_index.get(event.target)
            for t in screen.transitions.get((idx, kind), ()):
                if t.match is None or t.match.accepts(event.value, tables or default_tables()):
                    transition = t
                    break
    elif kind == "app_switch":
        if (ctx.activity, ctx.state) != app.home:
            new_ctx = _enter_state(app, ctx, *app.home)
            dev = DeviceState({**device.contexts, app.package: new_ctx}, device.installed_apps,
                              device.running_processes, False)
            return _make(StepResult, (dev, (), (), True))
    elif (action := live_receiver_action(app, ctx, event)) is not None:
        for t in app._receiver_transitions.get((kind, action), ()):
            anchor = t.source.anchor
            if anchor is None or anchor == (ctx.activity, ctx.state):
                transition = t
                break
    if transition is None:
        return _make(StepResult, (device, (), (), False))

    _, _, _, to, blocks, effects, crash = transition
    if not (to or effects or crash):  # nothing moves, registers, emits or crashes
        return _make(StepResult, (device, blocks, effects, True))
    new_ctx = ctx
    for eff in effects:
        if eff.kind == "register_receiver":
            new_ctx = AppContext(new_ctx.activity, new_ctx.state,
                                 new_ctx.receivers | {eff.action})
    if to is not None and to != (new_ctx.activity, new_ctx.state):
        new_ctx = _enter_state(app, new_ctx, *to)
    # A transition that leaves the context equal (registering a receiver
    # that is already live, say) and does not crash keeps the device it got.
    if crash or new_ctx != ctx:
        device = DeviceState({**device.contexts, app.package: new_ctx}, device.installed_apps,
                             device.running_processes, crash)
    return _make(StepResult, (device, blocks, effects, True))


def loopback_event(effect: SideEffect) -> Event:
    """Incoming event produced when a telephony effect is delivered to self
    (a call's body is always empty)."""
    if effect.kind not in _TELEPHONY:
        raise ValueError(f"no loopback for {effect.kind}")
    return Event(_TELEPHONY[effect.kind][0], number=effect.number, body=effect.body)


def run_event_chain(device: DeviceState, app: AppModel, event: Event,
                    tables: DataTables | None = None
                    ) -> tuple[DeviceState, list[tuple[Event, StepResult]]]:
    """Apply an event plus any telephony loopback events it triggers.

    Outgoing calls/SMS delivered to the device's own number loop back as
    incoming events immediately. The chain is capped to keep pathological
    self-texting fixtures from spinning.
    """
    result = apply_event(device, app, event, tables)
    steps = [(event, result)]
    if result.device.crashed or not result.side_effects:
        return result.device, steps  # nothing can loop back: most steps end here
    queue: list[Event] = []  # loopbacks, appended while the loop walks it
    while not result.device.crashed:
        for eff in result.side_effects:
            if eff.kind in TELEPHONY_KINDS and filter_outgoing(eff, app.own_number).delivered:
                queue.append(loopback_event(eff))
        if len(steps) > len(queue) or len(steps) > LOOPBACK_LIMIT:
            break
        ev = queue[len(steps) - 1]
        result = apply_event(result.device, app, ev, tables)
        steps.append((ev, result))
    return result.device, steps


# ---------------------------------------------------------------------------
# Reachability oracle
# ---------------------------------------------------------------------------

def receiver_events(app: AppModel, tables: DataTables) -> list[Event]:
    """The receiver events ``app`` may take: the broadcasts of ``tables`` it
    declares or registers, then the probe SMS, then the call, each to its
    own number."""
    actions = app.receiver_actions
    events = [Event("broadcast", action=a) for a in tables.table("broadcast") if a in actions]
    if SMS_RECEIVED_ACTION in actions:
        events.append(Event("incoming_sms", number=app.own_number, body=SMS_PROBE_BODY))
    if PHONE_STATE_ACTION in actions:
        events.append(Event("incoming_call", number=app.own_number))
    return events


def _candidate_events(app: AppModel, device: DeviceState, receivers: list[Event]) -> list[Event]:
    ctx = device.context(app.package)
    events: list[Event] = []
    for (key, _), _, event in app.screen(ctx.activity, ctx.state).pairs():
        if event is None:
            events.extend([Event("set_text", key, v) for v in app.alphabet])
        else:
            events.append(event)
    events.extend(receivers)
    events.append(APP_SWITCH)
    return events


def reachable_blocks(app: AppModel, *, max_states: int = 10_000,
                     tables: DataTables | None = None) -> frozenset[str]:
    """Exact set of blocks executable by any event sequence.

    Exhaustive breadth-first search over (device context, event). Raises
    :class:`OracleBudgetError` when the state space exceeds the budget;
    the oracle is either exact or explicitly unavailable.
    """
    tables = tables or default_tables()
    receivers = receiver_events(app, tables)

    start = install_app(DeviceState(), app)
    seen = {start.contexts[app.package]}  # a context is (activity, state, receivers)
    frontier = deque([start])
    blocks: set[str] = set()

    with gc_paused():
        while frontier:
            device = frontier.popleft()
            for event in _candidate_events(app, device, receivers):
                new_device, steps = run_event_chain(device, app, event, tables)
                for _, res in steps:
                    blocks.update(res.executed_blocks)
                # An unchanged device is the one expanded; a crashed one takes no events.
                if new_device is device or new_device.crashed:
                    continue
                ctx = new_device.contexts[app.package]
                if ctx not in seen:
                    if len(seen) >= max_states:
                        raise OracleBudgetError(len(seen), max_states)
                    seen.add(ctx)
                    frontier.append(new_device)
    return frozenset(blocks)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

def _object(raw, where: str, what: str) -> dict:
    """An array item (an element, a side effect, ...) or the document: a JSON object."""
    if type(raw) is not dict:
        raise ModelValidationError(
            f"{where}: {what} must be a JSON object, got {type(raw).__name__}")
    return raw


# A field kind: the exact types json.loads gives for it (so ``true`` is
# neither a number nor an element index), and the words its message uses.
_NONE = type(None)
_STRING = (str,)
_OPT_STRING = (str, _NONE)
_ARRAY = (list,)
_OBJECT = (dict,)
_OPT_OBJECT = (dict, _NONE)
_BOOL = (bool,)
_OPT_INT = (int, _NONE)
_ELEMENT_REF = (int, str)
_KIND_WORDS = {_STRING: "a string", _OPT_STRING: "a string or null", _ARRAY: "a JSON array",
               _OBJECT: "a JSON object", _OPT_OBJECT: "a JSON object or null", _BOOL: "a boolean",
               _OPT_INT: "an int or null", _ELEMENT_REF: "an int or a string"}

_REQUIRED = object()

# A package name: dot-separated segments, each an ASCII letter and then ASCII
# letters, digits or "_". Output file names hold it, so it has no "/" or "..".
_PACKAGE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*")


def _fields(obj: dict, where: str, spec: tuple) -> list:
    """For each (key, kind, default) of ``spec``, in one pass: ``obj[key]``
    checked against ``kind``, or ``default`` when the key is absent."""
    values = []
    for key, kind, default in spec:
        value = obj.get(key, default)
        if type(value) in kind:
            if type(value) is str and not value.isascii():
                _check_text(value, key, where)
        elif key in obj:
            raise ModelValidationError(
                f"{where}: {key} must be {_KIND_WORDS[kind]}, got {type(value).__name__}")
        elif default is _REQUIRED:
            raise ModelValidationError(f"{where}: missing field {key!r}")
        values.append(value)
    return values


def _field(obj: dict, key: str, where: str, kind=_STRING, default=_REQUIRED):
    """One field, read as :func:`_fields` reads each."""
    return _fields(obj, where, ((key, kind, default),))[0]


# Each object kind's plain fields, read in one pass of _fields.
_MODEL_FIELDS = (("package", _STRING, _REQUIRED), ("main_activity", _STRING, _REQUIRED),
                 ("own_number", _STRING, _REQUIRED), ("activities", _ARRAY, _REQUIRED),
                 ("blocks", _ARRAY, _REQUIRED), ("receivers", _OBJECT, {}),
                 ("transitions", _ARRAY, _REQUIRED))
_BLOCK_FIELDS = (("id", _STRING, _REQUIRED), ("class", _STRING, _REQUIRED),
                 ("method", _STRING, _REQUIRED))
_PLACE_FIELDS = (("activity", _STRING, _REQUIRED), ("state", _STRING, _REQUIRED))
_UI_SOURCE_FIELDS = _PLACE_FIELDS + (("element", _ELEMENT_REF, _REQUIRED),)
_DYNAMIC_FIELDS = _PLACE_FIELDS + (("action", _STRING, _REQUIRED),)
_UI_TRIGGER_FIELDS = (("match", _OPT_OBJECT, None), ("action", _STRING, _REQUIRED))
_TRANSITION_FIELDS = (("from", _OBJECT, _REQUIRED), ("trigger", _OBJECT, {}),
                      ("to", _OPT_OBJECT, None), ("blocks", _ARRAY, ()),
                      ("side_effects", _ARRAY, ()), ("crash", _BOOL, False))
# An element's, by whether it has the long key of each aliased pair: a long
# key present shadows its short alias, whatever the alias holds.
_ELEMENT_FIELDS = {
    (long_id, long_desc): (
        ("kind", _STRING, "generic"), ("bounds", _ARRAY, _REQUIRED), ("actions", _ARRAY, ()),
        ("id_string" if long_id else "id", _OPT_STRING, None),
        ("content_description" if long_desc else "description", _OPT_STRING, None),
        ("text", _OPT_STRING, None), ("hint", _OPT_STRING, None))
    for long_id in (False, True) for long_desc in (False, True)}


def _check_text(value: str, key: str, where: str) -> None:
    # A JSON \uXXXX escape can leave a lone surrogate, which UTF-8 cannot encode.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ModelValidationError(f"{where}: {key} must be valid Unicode text") from None


def _one_of(value, where: str, choices, what: str):
    if value not in choices:
        raise ModelValidationError(f"{where}: unknown {what} {value!r}")
    return value


def _strings(obj: dict, key: str, where: str) -> tuple[str, ...]:
    values = obj.get(key, [])
    if type(values) is not list or not all(type(v) is str for v in values):
        raise ModelValidationError(f"{where}: {key} must be an array of strings")
    for value in values:
        if not value.isascii():
            _check_text(value, key, where)
    return tuple(values)


def _activity_state(obj: dict, where: str, places: dict, what: str = "",
                    spec: tuple = _PLACE_FIELDS) -> list:
    """The activity and UiState ``obj`` names, then its other ``spec`` fields;
    ``places`` maps each activity to its {state id: UiState}."""
    values = _fields(obj, where, spec)
    act, st = values[0], values[1]
    if act not in places:
        raise ModelValidationError(f"{where}: unknown {what}activity {act!r}")
    if st not in places[act]:
        raise ModelValidationError(f"{where}: unknown {what}state {st!r}")
    values[1] = places[act][st]
    return values


# The action an element of each kind must list, or None.
_KIND_ACTION = {**dict.fromkeys(ELEMENT_KINDS), "textfield": "set_text", "checkbox": "toggle"}

# Every action list whose actions are known and listed once each.
_ACTION_LISTS = frozenset([actions for n in range(len(UI_ACTIONS) + 1)
                           for actions in permutations(UI_ACTIONS, n)])

# What a direct reader reads an absent array or activity as; nothing mutates them.
_NO_ITEMS: list = []
_NO_PLACES: dict = {}

# The direct readers below build the common records the checked readers
# build, without their spec walk or their ``where`` text. Each takes only a
# record whose fields all have their exact JSON types and whose text is
# ASCII, and returns None for any other: the checked reader then reads it
# and reports any fault, so every message comes from one place.


def _direct_element(raw) -> Optional[UiElement]:
    """The element :func:`_load_element` builds from ``raw`` when its bounds
    are ints; None when it is not such a plain element."""
    if type(raw) is not dict:
        return None
    get = raw.get
    kind, bounds, actions = get("kind", "generic"), get("bounds"), get("actions", _NO_ITEMS)
    if type(kind) is not str or type(bounds) is not list or type(actions) is not list:
        return None
    actions = tuple(actions)
    try:
        required = _KIND_ACTION[kind]
        if (len(bounds) != 4 or actions not in _ACTION_LISTS
                or required is not None and required not in actions):
            return None
    except (KeyError, TypeError):  # an unknown kind, an unhashable action
        return None
    x, y, w, h = bounds
    id_string = raw["id_string"] if "id_string" in raw else get("id")
    description = (raw["content_description"] if "content_description" in raw
                   else get("description"))
    text, hint = get("text"), get("hint")
    if (type(x) is int and type(y) is int and type(w) is int and type(h) is int
            and w > 0 and h > 0
            and (id_string is None or type(id_string) is str and id_string.isascii())
            and (description is None or type(description) is str and description.isascii())
            and (text is None or type(text) is str and text.isascii())
            and (hint is None or type(hint) is str and hint.isascii())):
        return _make(UiElement, (kind, id_string, description, text, hint, (x, y, w, h), actions))
    return None


_NUMBERS = frozenset({int, float})


def _load_element(raw, where: str) -> UiElement:
    """The checked element reader."""
    raw = _object(raw, where, "element")
    kind, bounds, actions, id_string, description, text, hint = _fields(
        raw, where, _ELEMENT_FIELDS["id_string" in raw, "content_description" in raw])
    _one_of(kind, where, ELEMENT_KINDS, "element kind")
    x, y, w, h = bounds if len(bounds) == 4 else (None,) * 4
    # v * 0 is 0 for a finite number (an int of any size too) and NaN for
    # NaN and ±Infinity; math.isfinite would raise on an int too big for a float.
    if not ({type(x), type(y), type(w), type(h)} <= _NUMBERS
            and 0 == x * 0 == y * 0 == w * 0 == h * 0):
        raise ModelValidationError(f"{where}: bounds must be [x, y, width, height]")
    if w <= 0 or h <= 0:
        raise ModelValidationError(f"{where}: element width/height must be positive")
    for action in actions:
        if actions.count(_one_of(action, where, UI_ACTIONS, "action")) > 1:
            raise ModelValidationError(f"{where}: action {action!r} is listed twice")
    required = _KIND_ACTION[kind]
    if required is not None and required not in actions:
        raise ModelValidationError(f"{where}: {kind} must list {required}")
    return _make(UiElement, (kind, id_string, description, text, hint, (x, y, w, h),
                             tuple(actions)))


def _direct_block(raw) -> Optional[BasicBlock]:
    """The block :func:`_load_block` builds from a plain ``raw``, or None."""
    if type(raw) is dict:
        get = raw.get
        bid, class_name, method = get("id"), get("class"), get("method")
        if (type(bid) is str and type(class_name) is str and type(method) is str
                and bid.isascii() and class_name.isascii() and method.isascii()):
            return _make(BasicBlock, (bid, class_name, method))
    return None


def _load_block(raw, where: str) -> BasicBlock:
    """The checked block reader."""
    return _make(BasicBlock, _fields(_object(raw, where, "block"), where, _BLOCK_FIELDS))


# Each side-effect kind's fields, named as SideEffect names them.
_SIDE_EFFECT_FIELDS = {
    "network_request": (("data", _STRING, ""), ("protocol", _STRING, "http"),
                        ("server", _OPT_STRING, None)),
    "outgoing_call": (("number", _STRING, _REQUIRED),),
    "outgoing_sms": (("number", _STRING, _REQUIRED), ("body", _STRING, "")),
    "java_call": (("signature", _STRING, _REQUIRED), ("origin", _ARRAY, ("app_code",)),
                  ("pid", _OPT_INT, None)),
    "system_call": (("name", _STRING, _REQUIRED), ("pid", _OPT_INT, None)),
    "register_receiver": (("action", _STRING, _REQUIRED),),
}
# The field naming each call kind's call: a trace file holds one call per line.
_CALL_NAME_FIELDS = {"java_call": "signature", "system_call": "name"}


def _load_side_effect(raw, where: str) -> SideEffect:
    raw = _object(raw, where, "side effect")
    kind = _one_of(_field(raw, "kind", where), where, _SIDE_EFFECT_FIELDS, "side-effect kind")
    spec = _SIDE_EFFECT_FIELDS[kind]
    fields = dict(zip([key for key, _, _ in spec], _fields(raw, where, spec)))
    if kind == "network_request":
        fields["data"] = fields["data"].encode("utf-8")
    name = _CALL_NAME_FIELDS.get(kind)
    # Every str.splitlines() boundary counts as a line break.
    if name is not None and fields[name].splitlines() != [fields[name]]:
        raise ModelValidationError(f"{where}: {kind} {name} must be non-empty and one line")
    if kind == "java_call":
        fields["origin"] = tuple([_one_of(flag, where, ORIGIN_FLAGS, "origin flag")
                                  for flag in fields["origin"]])
    return SideEffect(kind, **fields)


def _resolve_element_ref(state: UiState, ref: int | str, where: str) -> int:
    if type(ref) is int:
        if not 0 <= ref < len(state.elements):
            raise ModelValidationError(f"{where}: element index {ref} out of range")
        return ref
    for attr in ("id_string", "content_description", "text"):
        for i, el in enumerate(state.elements):
            if getattr(el, attr) == ref:
                return i
    raise ModelValidationError(f"{where}: no element matching {ref!r}")


_MATCH_KINDS = ("equals", "non_empty", "matches_category")


def _load_match(raw: dict | None, where: str) -> Optional[TextMatch]:
    if raw is None:
        return None
    kind = _one_of(_field(raw, "kind", where), where, _MATCH_KINDS, "match kind")
    if kind == "equals":
        return TextMatch("equals", value=_field(raw, "value", where))
    if kind == "matches_category":
        category = _field(raw, "category", where)
        return TextMatch("matches_category",
                         category=_one_of(category, where, CATEGORIES, "category"))
    return TextMatch("non_empty")


def _direct_state(obj: dict, places: dict) -> Optional[UiState]:
    """The UiState a plain {activity, state} object names, or None."""
    act, st = obj.get("activity"), obj.get("state")
    if type(act) is str and type(st) is str:
        return places.get(act, _NO_PLACES).get(st)
    return None


def _direct_transition(raw, places: dict, known_blocks: set) -> Optional[Transition]:
    """The transition :func:`_load_transition` builds from ``raw`` when it is
    a plain UI transition: an int element index, no match and no side
    effects; None for any other. The names it finds among the model's
    activities, states, actions and blocks are valid text already."""
    if type(raw) is not dict:
        return None
    get = raw.get
    frm, trigger, to = get("from"), get("trigger"), get("to")
    blocks, effects = get("blocks", _NO_ITEMS), get("side_effects", _NO_ITEMS)
    crash = get("crash", False)
    if (type(frm) is not dict or type(trigger) is not dict or type(blocks) is not list
            or type(effects) is not list or effects or type(crash) is not bool
            or "receiver" in frm or trigger.get("match") is not None):
        return None
    state, idx, action = _direct_state(frm, places), frm.get("element"), trigger.get("action")
    if (state is None or type(idx) is not int or type(action) is not str
            or not 0 <= idx < len(state.elements) or action not in state.elements[idx].actions):
        return None
    if to is not None:
        to_state = _direct_state(to, places) if type(to) is dict else None
        if to_state is None:
            return None
        to = (to["activity"], to_state.id)
    for bid in blocks:
        if type(bid) is not str or bid not in known_blocks:
            return None
    return _make(Transition, (_make(UiSource, (frm["activity"], state.id, idx)), action, None,
                              to, tuple(blocks), (), crash))


def _load_transition(raw, where: str, places: dict, known_blocks: set) -> Transition:
    """The checked transition reader; ``places`` maps each activity to its
    {state id: UiState}, ``known_blocks`` holds the block ids."""
    frm, trigger, to, tblocks, effects, crash = _fields(
        _object(raw, where, "transition"), where, _TRANSITION_FIELDS)
    if "receiver" in frm:
        match = _load_match(_field(trigger, "match", where, _OPT_OBJECT, None), where)
        action = _field(frm, "receiver", where)
        anchor = None
        if "activity" in frm:
            act, state = _activity_state(frm, where, places, "anchor ")
            anchor = (act, state.id)
        action_name = _RECEIVER_TRIGGERS.get(action, "broadcast")
        source_obj: Union[UiSource, ReceiverSource] = ReceiverSource(action, anchor)
    else:
        raw_match, action_name = _fields(trigger, where, _UI_TRIGGER_FIELDS)
        match = _load_match(raw_match, where)
        act, state, ref = _activity_state(frm, where, places, spec=_UI_SOURCE_FIELDS)
        idx = _resolve_element_ref(state, ref, where)
        # An action the element lists is a known one.
        if action_name not in state.elements[idx].actions:
            _one_of(action_name, where, UI_ACTIONS, "trigger action")
            raise ModelValidationError(
                f"{where}: element {idx} does not list {action_name!r}")
        source_obj = _make(UiSource, (act, state.id, idx))
    if match is not None and action_name != "set_text":
        raise ModelValidationError(f"{where}: text match is only valid on set_text")

    if to is not None:
        act, state = _activity_state(to, where, places, "target ")
        to = (act, state.id)
    for bid in tblocks:
        if type(bid) is not str or bid not in known_blocks:
            raise ModelValidationError(f"{where}: unknown block {bid!r}")
    effects = tuple([_load_side_effect(e, where) for e in effects]) if effects else ()
    return _make(Transition, (source_obj, action_name, match, to, tuple(tblocks), effects, crash))


def load_app_model(path: str | Path) -> AppModel:
    """Load and validate an app model file.

    Raises :class:`ModelParseError` with position diagnostics for broken
    JSON and :class:`ModelValidationError` naming the violated invariant
    for structurally invalid models.
    """
    path = Path(path)
    with gc_paused():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ModelParseError(f"{path.name}: line {e.lineno} col {e.colno}: {e.msg}") from e
        except (ValueError, RecursionError) as e:
            # not UTF-8, an integer over int()'s digit limit, or nested too deeply
            raise ModelParseError(f"{path.name}: {e}") from e
        if not isinstance(doc, dict):
            raise ModelParseError(f"{path.name}: top level must be an object")
        return model_from_dict(doc, source=path.name)


def model_from_dict(doc: dict, source: str = "<dict>") -> AppModel:
    """Build and validate an app model from a decoded ``.app`` document."""
    with gc_paused():
        return _build_model(doc, source)


def _build_model(doc: dict, source: str) -> AppModel:
    (package, main_activity, own_number, raw_activities, raw_blocks, raw_receivers,
     raw_transitions) = _fields(_object(doc, source, "model"), source, _MODEL_FIELDS)
    if not _PACKAGE_RE.fullmatch(package):
        raise ModelValidationError(
            f"{source}: package must be dot-separated names, each a letter and then "
            f"letters, digits or '_', got {package!r}")
    if not own_number:
        raise ModelValidationError(f"{source}: own_number must be non-empty")

    activities = []
    for araw in raw_activities:
        araw = _object(araw, source, "activity")
        aname = _field(araw, "name", source)
        awhere = f"{source}:{aname}"
        states = []
        for sraw in _field(araw, "states", awhere, _ARRAY):
            sraw = _object(sraw, awhere, "state")
            sid = _field(sraw, "id", awhere)
            where = f"{awhere}/{sid}"
            elements = _field(sraw, "elements", where, _ARRAY, ())
            states.append(UiState(sid, tuple([_direct_element(e) or _load_element(e, where)
                                               for e in elements])))
        ids = [s.id for s in states]
        if len(set(ids)) != len(ids):
            raise ModelValidationError(f"{awhere}: state ids must be unique")
        initial = _field(araw, "initial_state", awhere)
        if initial not in ids:
            raise ModelValidationError(f"{awhere}: initial_state {initial!r} not found")
        activities.append(Activity(aname, initial, tuple(states)))
    if not activities:
        raise ModelValidationError(f"{source}: at least one activity required")
    names = [a.name for a in activities]
    if len(set(names)) != len(names):
        raise ModelValidationError(f"{source}: activity names must be unique")
    if main_activity not in names:
        raise ModelValidationError(f"{source}: main_activity {main_activity!r} not found")
    places = {a.name: {st.id: st for st in a.states} for a in activities}

    blocks = [_direct_block(braw) or _load_block(braw, source) for braw in raw_blocks]
    if not blocks:
        raise ModelValidationError(f"{source}: at least one block required")
    known_blocks = {b.id for b in blocks}
    if len(known_blocks) != len(blocks):
        raise ModelValidationError(f"{source}: block ids must be unique")

    # Keyed by dotted path, so that messages name receivers.declared and .dynamic.
    receivers = {f"receivers.{k}": v for k, v in raw_receivers.items()}
    declared = _strings(receivers, "receivers.declared", source)
    dynamic = []
    rwhere = f"{source}:receivers"
    for draw in _field(receivers, "receivers.dynamic", source, _ARRAY, ()):
        draw = _object(draw, rwhere, "dynamic receiver")
        act, state, action = _activity_state(draw, rwhere, places, spec=_DYNAMIC_FIELDS)
        dynamic.append((act, state.id, action))

    transitions = [_direct_transition(traw, places, known_blocks)
                   or _load_transition(traw, f"{source}:transition[{i}]", places, known_blocks)
                   for i, traw in enumerate(raw_transitions)]

    app = AppModel(
        package=package,
        main_activity=main_activity,
        own_number=own_number,
        activities=tuple(activities),
        transitions=tuple(transitions),
        blocks=tuple(blocks),
        declared_receivers=declared,
        dynamic_receivers=tuple(dynamic),
        alphabet=_strings(doc, "alphabet", source),
    )
    _check_determinism(app, source)
    return app


def _check_determinism(app: AppModel, source: str) -> None:
    # At most one transition may match any concrete (state, event) pair;
    # the model's transition tables group the candidates. Every group is
    # checked, also those on a shadowed element that no event can reach.
    ui_groups = (((activity, state, idx, action), group)
                 for (activity, state), screen in app._screens.items()
                 for (idx, action), group in screen.transitions.items())
    for key, group in ui_groups:
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
        if None in anchors and len(group) > 1:
            raise ModelValidationError(
                f"{source}: ambiguous receiver transitions for {key}"
            )
        concrete = [a for a in anchors if a is not None]
        if len(set(concrete)) != len(concrete):
            raise ModelValidationError(
                f"{source}: duplicate receiver anchors for {key}"
            )
