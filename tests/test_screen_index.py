"""The per-screen element index: one shadowing rule for every consumer,
unchanged lookup errors, and models built without the loader."""

import pytest
from hypothesis import given, settings

from droidcage import harness, monkey
from droidcage.app_model import (
    Activity,
    AppContext,
    AppModel,
    BasicBlock,
    DeviceState,
    ElementKey,
    Event,
    Transition,
    UI_ACTIONS,
    UiElement,
    UiSource,
    UiState,
    _candidate_events,
    apply_event,
    identify_element,
    install_app,
    load_app_model,
    model_from_dict,
    reachable_blocks,
    receiver_events,
    run_event_chain,
)
from droidcage.corpus import write_corpus
from droidcage.data_tables import default_tables
from droidcage.monkey import MonkeyConfig, _generate_one, run_monkey
from droidcage.netguard import NetGuard
from droidcage.session import SessionRunner

from conftest import FIXTURES, app_docs, device_for

OK_KEY = ElementKey("partial_text", None, "OK")


def _shadow_doc():
    # Two "OK" buttons with neither ID nor description: both key to the
    # partial text, so the second one is shadowed by the first.
    return {
        "package": "com.t.shadow", "main_activity": "Main", "own_number": "5550000",
        "alphabet": [],
        "activities": [{"name": "Main", "initial_state": "home", "states": [
            {"id": "home", "elements": [
                {"kind": "button", "text": "OK", "bounds": [0, 0, 100, 100],
                 "actions": ["click"]},
                {"kind": "button", "text": "OK", "bounds": [500, 500, 100, 100],
                 "actions": ["click", "long_click"]},
            ]},
        ]}],
        "blocks": [{"id": "first", "class": "c.Main", "method": "a"},
                   {"id": "second", "class": "c.Main", "method": "b"}],
        "receivers": {"declared": [], "dynamic": []},
        "transitions": [
            {"from": {"activity": "Main", "state": "home", "element": 0},
             "trigger": {"action": "click"}, "to": None, "blocks": ["first"]},
            {"from": {"activity": "Main", "state": "home", "element": 1},
             "trigger": {"action": "click"}, "to": None, "blocks": ["second"]},
        ],
    }


class _ScriptedRng:
    """Stands in for the raw stream's ``__next__``: hands out the given
    draws in order. Each is below its bound, so it reduces to itself."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def __call__(self):
        return self.draws.pop(0)


@pytest.fixture
def shadow():
    return model_from_dict(_shadow_doc())


def test_screen_keys_and_first_index(shadow):
    screen = shadow.screen("Main", "home")
    assert screen.keys == (OK_KEY, OK_KEY)
    assert screen.first_index == {OK_KEY: 0}
    assert [el.bounds for _, el, _ in screen.pairs()] == [(0, 0, 100, 100)]


def test_monkey_hit_on_shadowed_element_resolves_to_first(shadow):
    device = device_for(shadow)
    # no system keys, kind "click", tap inside the second button only
    event = _generate_one(_ScriptedRng(50, 0, 550, 550), MonkeyConfig(),
                          shadow.screen("Main", "home"))
    assert event == Event("click", OK_KEY)
    ctx = device.context(shadow.package)
    assert shadow.screen(ctx.activity, ctx.state).first_index.get(event.target) == 0
    assert apply_event(device, shadow, event).executed_blocks == ("first",)


def test_monkey_steps_a_tap_whose_shadowed_element_keys_the_first_ones_transition(monkeypatch):
    # Only the first "OK" has a click transition. A click inside the second
    # keys it all the same, so the monkey must step that tap, not record it
    # as one that keys nothing.
    doc = _shadow_doc()
    doc["transitions"] = doc["transitions"][:1]
    app = model_from_dict(doc)
    monkeypatch.setattr(monkey, "raw_stream", lambda seed: iter([50, 0, 550, 550]))
    session = run_monkey(SessionRunner(app, device_for(app)), MonkeyConfig(event_count=1))
    assert session.events == [Event("click", OK_KEY)]
    assert session.executed_blocks == {"first"}


def test_monkey_tap_on_nothing_has_no_target(shadow):
    event = _generate_one(_ScriptedRng(50, 0, 300, 300), MonkeyConfig(),
                          shadow.screen("Main", "home"))
    assert event == Event("click")


def test_oracle_and_explorer_plan_skip_the_shadowed_element(shadow):
    device = device_for(shadow)
    receivers = receiver_events(shadow, default_tables())
    ui = [e for e in _candidate_events(shadow, device, receivers) if e.kind in UI_ACTIONS]
    assert ui == [Event("click", OK_KEY)]  # the second button's long_click is unreachable
    plan = shadow.screen("Main", "home").pairs()
    assert [(key, action, el.bounds) for (key, action), el, _ in plan] == [
        (OK_KEY, "click", (0, 0, 100, 100))]
    assert reachable_blocks(shadow) == {"first"}


def test_unknown_names_raise_key_error(shadow):
    for activity, state in (("Main", "nope"), ("Nope", "home")):
        with pytest.raises(KeyError) as e:
            shadow.screen(activity, state)
        assert e.value.args == ((activity, state),)


def test_directly_constructed_model_has_working_lookups():
    button = UiElement("button", id_string="go", bounds=(0, 0, 50, 50), actions=("click",))
    home, done = UiState("home", (button,)), UiState("done", ())
    app = AppModel(
        package="com.t.direct", main_activity="Main", own_number="5550000",
        activities=(Activity("Main", "home", (home, done)),),
        transitions=(Transition(UiSource("Main", "home", 0), "click", None,
                                ("Main", "done"), ("b1",), ()),
                     # names a state the model lacks: it constructs, and never fires
                     Transition(UiSource("Main", "gone", 0), "click", None,
                                None, ("b1",), ())),
        blocks=(BasicBlock("b1", "c.Main", "go"),),
        declared_receivers=(), dynamic_receivers=(), alphabet=(),
    )
    assert app.screen("Main", "done").state is done
    assert app.screen("Main", "home").state is home
    assert app.home == ("Main", "home")
    assert app.block_index == {"b1": app.blocks[0]}
    key = ElementKey("strong_id", "Main", "go")
    event = _generate_one(_ScriptedRng(50, 0, 10, 10), MonkeyConfig(), app.screen("Main", "home"))
    assert event == Event("click", key)
    result = apply_event(device_for(app), app, Event("click", key))
    assert result.executed_blocks == ("b1",)
    assert result.device.context(app.package).state == "done"
    assert reachable_blocks(app) == {"b1"}


def test_models_compare_equal_regardless_of_their_index():
    assert model_from_dict(_shadow_doc()) == model_from_dict(_shadow_doc())
    assert hash(model_from_dict(_shadow_doc())) == hash(model_from_dict(_shadow_doc()))


def _direct_model(main_activity: str, *activities: Activity, dynamic_receivers=()) -> AppModel:
    return AppModel(
        package="com.t.direct", main_activity=main_activity, own_number="5550000",
        activities=activities, transitions=(), blocks=(), declared_receivers=(),
        dynamic_receivers=dynamic_receivers, alphabet=(),
    )


def test_a_direct_model_without_its_main_activity_is_not_built():
    with pytest.raises(KeyError) as e:
        _direct_model("Nope", Activity("Main", "home", (UiState("home", ()),)))
    assert e.value.args == ("Nope",)


def test_install_app_enters_home():
    # Home is neither the first activity nor the first state, and a repeated
    # activity name resolves to its first occurrence.
    splash, home = UiState("splash", ()), UiState("home", ())
    app = _direct_model("Main", Activity("Other", "splash", (splash,)),
                        Activity("Main", "home", (splash, home)),
                        Activity("Main", "splash", (splash,)),
                        dynamic_receivers=(("Main", "home", "com.t.direct.PING"),))
    assert app.home == ("Main", "home")
    assert app.screen("Main", "home").state is home
    ctx = install_app(DeviceState(), app).context(app.package)
    assert ctx == AppContext("Main", "home", frozenset({"com.t.direct.PING"}))


# ---------------------------------------------------------------------------
# One event per (element, action): the screen's table is shared
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus20(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    write_corpus(corpus, 0, 20)
    return corpus


def _table_events(screen):
    return [event for _, _, event in screen.pairs() if event is not None]


def _sent_on(app, events):
    """Each of ``events`` with the screen it was sent on, replayed from the
    launch (None once the app has crashed)."""
    device = device_for(app)
    for event in events:
        ctx = None if device.crashed else device.context(app.package)
        yield ctx and app.screen(ctx.activity, ctx.state), event
        device, _ = run_event_chain(device, app, event)


def test_explorer_sends_the_events_of_its_screen_table(corpus20):
    config = harness.ExperimentConfig(corpus=corpus20, seed=0)
    guard = NetGuard(harness.default_signatures(), harness.default_reputation(),
                     identities=harness.DEFAULT_IDENTITIES)
    shared = 0
    for app in harness.load_corpus_dir(corpus20):
        setup = harness.app_setup(app, config)
        monkey = harness._run_one(setup, "monkey", guard)[1].session
        # smart_monkey's explorer starts where its monkey phase, this very session, stopped.
        for method, first in (("smart", 0), ("smart_monkey", len(monkey.events))):
            session = harness._run_one(setup, method, guard)[1].session
            for screen, event in list(_sent_on(app, session.events))[first:]:
                if event.kind in UI_ACTIONS and event.kind != "set_text":
                    assert any(event is e for e in _table_events(screen)), (method, event)
                    shared += 1
    assert shared > 100


def test_oracle_candidates_are_the_events_of_the_screen_table(corpus20):
    apps = harness.load_corpus_dir(corpus20) + harness.load_corpus_dir(FIXTURES)
    for app in apps:
        receivers = receiver_events(app, default_tables())
        for activity in app.activities:
            for state in activity.states:
                device = DeviceState({app.package: AppContext(activity.name, state.id)})
                candidates = [e for e in _candidate_events(app, device, receivers)
                              if e.kind in UI_ACTIONS and e.kind != "set_text"]
                table = _table_events(app.screen(activity.name, state.id))
                assert len(candidates) == len(table)
                assert all(c is t for c, t in zip(candidates, table))


def test_a_screen_builds_its_table_once_and_lists_set_text_without_an_event(login_gate):
    screen = login_gate.screen("LoginActivity", "form")
    assert screen.pairs() is screen.pairs()
    for (key, action), element, event in screen.pairs():
        assert action in element.actions
        assert event == (None if action == "set_text" else Event(action, key))


def _fill_first_pairs(activity, state):
    """The unshadowed (key, action) pairs of a UI state in element order,
    set_text and toggle moved to the front, each part keeping its order."""
    seen, pairs = set(), []
    for element in state.elements:
        key = identify_element(activity, element)
        if key not in seen:
            seen.add(key)
            pairs += [(key, action) for action in element.actions]
    fills = [p for p in pairs if p[1] in ("set_text", "toggle")]
    return fills + [p for p in pairs if p[1] not in ("set_text", "toggle")]


def _check_table_order(app):
    for activity in app.activities:
        for state in activity.states:
            screen = app.screen(activity.name, state.id)
            assert [p for p, _, _ in screen.pairs()] == _fill_first_pairs(activity.name, state)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.app")), ids=lambda p: p.name)
def test_a_fixture_screen_table_lists_fills_first(path):
    _check_table_order(load_app_model(path))


@settings(max_examples=40, deadline=None)
@given(app_docs())
def test_a_generated_screen_table_lists_fills_first(doc):
    _check_table_order(model_from_dict(doc))
