import copy
import re
from operator import itemgetter

import pytest

from droidcage import explorer as explorer_module
from droidcage.app_model import (
    AppContext,
    AppNotInstalledError,
    Event,
    UI_ACTIONS,
    UiElement,
    apply_event,
    identify_element,
    install_app,
    load_app_model,
    model_from_dict,
    reachable_blocks,
)
from droidcage.data_tables import CATEGORIES, ConfigError, DataTables, default_tables
from droidcage.explorer import (
    BASELINE_DEVICE,
    CATEGORY_KEYWORDS,
    UNCATEGORIZED_FILL_LENGTH,
    ExplorationConfig,
    baseline_device,
    categorize_textfield,
    cleanup,
    explore,
)
from droidcage.corpus import _ARCHETYPE_CYCLE, write_corpus
from droidcage.monkey import MonkeyConfig, run_monkey
from droidcage.rng import Xoshiro256StarStar, derive_seed
from droidcage.session import SessionRunner

from conftest import OUTSIDE_ACTION, device_for, edited_fixture
from monkey_reference import generate_events

TABLES = default_tables()


# ---------------------------------------------------------------------------
# Element identification
# ---------------------------------------------------------------------------

def test_identify_prefers_id_string():
    el = UiElement(kind="button", id_string="btn_login", text="Login",
                   bounds=(0, 0, 200, 48), actions=("click",))
    key = identify_element("MainActivity", el)
    assert (key.kind, key.activity, key.value) == ("strong_id", "MainActivity", "btn_login")


def test_identify_falls_back_to_description():
    el = UiElement(kind="generic", content_description="avatar",
                   bounds=(0, 0, 64, 64))
    key = identify_element("MainActivity", el)
    assert (key.kind, key.activity, key.value) == ("strong_desc", "MainActivity", "avatar")


def test_identify_falls_back_to_text():
    el = UiElement(kind="button", text="Submit", bounds=(0, 0, 200, 48),
                   actions=("click",))
    key = identify_element("MainActivity", el)
    assert (key.kind, key.activity, key.value) == ("partial_text", None, "Submit")


def test_identify_falls_back_to_dimensions():
    el = UiElement(kind="generic", bounds=(0, 0, 200, 48))
    key = identify_element("MainActivity", el)
    assert (key.kind, key.value) == ("partial_dims", (200, 48))


# ---------------------------------------------------------------------------
# Textfield categorization and filling
# ---------------------------------------------------------------------------

def _field(**kw):
    kw.setdefault("kind", "textfield")
    kw.setdefault("bounds", (0, 0, 400, 60))
    kw.setdefault("actions", ("set_text",))
    return UiElement(**kw)


def test_categorize_email_hint():
    assert categorize_textfield(_field(hint="Email address")) == "email"


def test_categorize_iban_id():
    assert categorize_textfield(_field(id_string="edit_iban")) == "iban"


def test_categorize_unknown_hint():
    assert categorize_textfield(_field(hint="Favorite color")) == "uncategorized"


def test_categorize_is_case_insensitive():
    assert categorize_textfield(_field(hint="PHONE NUMBER")) == "phone_number"


def test_categorize_non_textfield_is_uncategorized():
    button = UiElement(kind="button", hint="Email", bounds=(0, 0, 10, 10))
    assert categorize_textfield(button) == "uncategorized"


def test_keywords_name_every_category():
    assert {category for category, _ in CATEGORY_KEYWORDS} == CATEGORIES


def test_fill_first_name_head_of_table():
    assert TABLES.fill("first_name", itemgetter(0)) == "Aaren"


def test_fill_iban_head_of_table():
    assert TABLES.fill("iban", itemgetter(0)) == "AL94283405797977629281563659"


def test_fill_email_shape():
    value = TABLES.fill("email", Xoshiro256StarStar(5).choice)
    local, _, domain = value.partition("@")
    first, _, last = local.partition(".")
    assert first and last
    assert domain in TABLES.table("email_provider")
    assert value == value.lower()


def test_fill_email_draws_first_last_then_provider():
    drawn = []
    assert TABLES.fill("email", lambda table: drawn.append(table) or table[1]) \
        == "aarika.johnson@yahoo.com"
    assert drawn == [TABLES.table(name) for name in ("first_name", "last_name", "email_provider")]


def test_fill_uncategorized_is_alnum_12(login_gate):
    # The first field's hint, "Username", names no category.
    session = explore(login_gate, ExplorationConfig(seed=9, max_events=1),
                      device_for(login_gate))
    [event] = session.events
    assert (event.kind, event.target.value) == ("set_text", "edit_username")
    assert len(event.value) == 12 and event.value.isalnum()


def test_fill_values_satisfy_their_category_gates():
    rng = Xoshiro256StarStar(11)
    for category in sorted(CATEGORIES):
        value = TABLES.fill(category, rng.choice)
        assert TABLES.matches(category, value), (category, value)


def _count_fill_generators(monkeypatch) -> list:
    """The generators `explore` builds from now on, in build order."""
    built, real = [], explorer_module.Xoshiro256StarStar

    def counting(seed):
        built.append(real(seed))
        return built[-1]
    monkeypatch.setattr(explorer_module, "Xoshiro256StarStar", counting)
    return built


@pytest.mark.parametrize("name", ("boot_gate", "crash_first", "one_button", "tiny_taps"))
def test_an_app_without_textfields_builds_no_fill_generator(monkeypatch, request, name):
    app = request.getfixturevalue(name)
    assert not any(el.kind == "textfield" or "set_text" in el.actions
                   for a in app.activities for st in a.states for el in st.elements)
    built = _count_fill_generators(monkeypatch)
    session = explore(app, ExplorationConfig(seed=0, max_events=100), device_for(app))
    assert session.events and built == []


@pytest.mark.parametrize("seed", (0, 3))
def test_the_generator_built_at_the_first_fill_draws_as_one_built_up_front(monkeypatch,
                                                                          login_gate, seed):
    built = _count_fill_generators(monkeypatch)
    config = ExplorationConfig(seed=seed, max_events=10_000)
    elements = {key: el for a in login_gate.activities for st in a.states
                for key, el in zip(login_gate.screen(a.name, st.id).keys, st.elements)}
    # Each exploration builds its own generator, at its first fill.
    for run in range(2):
        session = explore(login_gate, config, device_for(login_gate))
        up_front = Xoshiro256StarStar(derive_seed(seed, "smart-fill"))
        fills = [event for event in session.events if event.kind == "set_text"]
        assert len(built) == run + 1 and len(fills) >= 2
        for event in fills:
            category = categorize_textfield(elements[event.target])
            assert event.value == (up_front.alnum(UNCATEGORIZED_FILL_LENGTH)
                                   if category == "uncategorized"
                                   else TABLES.fill(category, up_front.choice))


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [True, 2.5, "5"])
@pytest.mark.parametrize("field", ["seed", "max_events"])
def test_config_fields_are_ints(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
        ExplorationConfig(**{field: value})


def test_explore_cracks_login_gate_monkey_does_not(login_gate):
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    assert {"b7", "b8"} <= session.executed_blocks

    config = MonkeyConfig(seed=0, pct_syskeys=0, pct_appswitch=0,
                          throttle_ms=50, event_count=500,
                          package=login_gate.package)
    stream = generate_events(config, login_gate, device_for(login_gate))
    device = device_for(login_gate)
    monkey_blocks = set()
    for ev in stream:
        res = apply_event(device, login_gate, ev)
        device = res.device
        monkey_blocks.update(res.executed_blocks)
    assert not {"b2", "b7", "b8"} & monkey_blocks


def test_explore_one_button_app_is_two_events_max(one_button):
    session = explore(one_button, ExplorationConfig(seed=0, max_events=100),
                      device_for(one_button))
    assert len(session.events) <= 2
    assert session.executed_blocks == {"c1", "c2"}


def test_explore_triggers_declared_receiver_via_injection(boot_gate):
    session = explore(boot_gate, ExplorationConfig(seed=0, max_events=100),
                      device_for(boot_gate))
    assert {"v2", "v3"} <= session.executed_blocks
    broadcasts = [e for e in session.events if e.kind == "broadcast"]
    assert [b.action for b in broadcasts] == ["android.intent.action.BOOT_COMPLETED"]


def test_explore_is_deterministic(login_gate):
    config = ExplorationConfig(seed=7, max_events=10_000)
    a = explore(login_gate, config, device_for(login_gate))
    b = explore(login_gate, config, device_for(login_gate))
    assert a.events == b.events
    assert a.executed_blocks == b.executed_blocks


def test_no_pair_triggered_twice(login_gate):
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    ui = [(e.target, e.kind) for e in session.events if e.kind in UI_ACTIONS]
    assert len(ui) == len(set(ui))


def test_partial_key_collision_second_element_skipped(login_gate):
    # the menu has two 300x300 logo elements; only one long_click is issued
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    holds = [e for e in session.events
             if e.kind == "long_click" and e.target.kind == "partial_dims"]
    assert len(holds) == 1


def test_fill_before_click_within_screen_pass(login_gate):
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    # replay to segment the event log by screen; within one stay on a
    # screen no set_text may follow a click-like action
    device = device_for(login_gate)
    clicked = False
    for ev in session.events:
        ctx = device.context(login_gate.package)
        before = (ctx.activity, ctx.state)
        res = apply_event(device, login_gate, ev)
        device = res.device
        ctx = device.context(login_gate.package)
        if ev.kind in ("click", "long_click", "scroll"):
            clicked = True
        elif ev.kind == "set_text":
            assert not clicked, "set_text scheduled after a click on the same screen"
        if (ctx.activity, ctx.state) != before or ev.kind not in UI_ACTIONS:
            clicked = False


def test_explore_attains_oracle_on_eligible_fixtures(tiny_taps, one_button, boot_gate):
    for app in (tiny_taps, one_button, boot_gate):
        oracle = reachable_blocks(app)
        session = explore(app, ExplorationConfig(seed=3, max_events=10_000),
                          device_for(app))
        assert session.executed_blocks == set(oracle)


def test_explorer_and_oracle_send_the_broadcasts_of_custom_tables():
    # A receiver for a broadcast that only a custom table holds: the
    # explorer sends it, so the oracle given the same tables must too.
    doc = edited_fixture("boot_gate.app", ("receivers", "declared"), [OUTSIDE_ACTION])
    doc["transitions"][1]["from"]["receiver"] = OUTSIDE_ACTION
    app = model_from_dict(doc)
    custom = DataTables({**TABLES.tables,
                         "broadcast": TABLES.table("broadcast") + (OUTSIDE_ACTION,)})
    runner = SessionRunner(app, device_for(app), tables=custom)
    session = explore(app, ExplorationConfig(seed=0, max_events=100), runner.device,
                      runner=runner)
    assert session.executed_blocks == reachable_blocks(app, tables=custom) == {"v1", "v2", "v3"}
    assert reachable_blocks(app) == {"v1"}


def test_explore_login_gate_misses_only_error_path_and_dead_block(login_gate):
    # the error path needs a click before the fills, which the visited-set
    # plus fill-first ordering forbids; b14 is dead by construction
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    assert session.executed_blocks == reachable_blocks(login_gate) - {"b5"}


def test_new_elements_on_revisited_screen_are_scheduled():
    doc = {
        "package": "com.t.grow", "main_activity": "Main", "own_number": "5550000",
        "alphabet": [],
        "activities": [{
            "name": "Main", "initial_state": "home",
            "states": [
                {"id": "home", "elements": [
                    {"kind": "button", "id": "btn_a", "text": "A",
                     "bounds": [0, 0, 100, 100], "actions": ["click"]},
                    {"kind": "button", "id": "btn_next", "text": "N",
                     "bounds": [0, 200, 100, 100], "actions": ["click"]},
                ]},
                {"id": "home2", "elements": [
                    {"kind": "button", "id": "btn_a", "text": "A",
                     "bounds": [0, 0, 100, 100], "actions": ["click"]},
                    {"kind": "button", "id": "btn_b", "text": "B",
                     "bounds": [0, 400, 100, 100], "actions": ["click"]},
                ]},
            ],
        }],
        "blocks": [
            {"id": "a1", "class": "c.Main", "method": "onA"},
            {"id": "n1", "class": "c.Main", "method": "onNext"},
            {"id": "b1", "class": "c.Main", "method": "onB"},
        ],
        "receivers": {"declared": [], "dynamic": []},
        "transitions": [
            {"from": {"activity": "Main", "state": "home", "element": "btn_a"},
             "trigger": {"action": "click"}, "to": None, "blocks": ["a1"]},
            {"from": {"activity": "Main", "state": "home", "element": "btn_next"},
             "trigger": {"action": "click"},
             "to": {"activity": "Main", "state": "home2"}, "blocks": ["n1"]},
            {"from": {"activity": "Main", "state": "home2", "element": "btn_b"},
             "trigger": {"action": "click"}, "to": None, "blocks": ["b1"]},
        ],
    }
    app = model_from_dict(doc)
    session = explore(app, ExplorationConfig(seed=0, max_events=100),
                      install_app(baseline_device(), app))
    assert session.executed_blocks == {"a1", "n1", "b1"}
    clicks_on_a = [e for e in session.events
                   if e.kind in UI_ACTIONS and e.target.value == "btn_a"]
    assert len(clicks_on_a) == 1  # the shared element is not re-triggered


def _button(name: str, row: int) -> dict:
    return {"kind": "button", "id": name, "text": name,
            "bounds": [0, 200 * row, 100, 100], "actions": ["click"]}


def _click(state: str, element: str, block: str, to: str | None = None) -> dict:
    return {"from": {"activity": "Main", "state": state, "element": element},
            "trigger": {"action": "click"},
            "to": {"activity": "Main", "state": to} if to else None, "blocks": [block]}


def test_relaunch_that_reaches_no_pending_pair_ends_the_sweep():
    # home -> mid by btn_x; mid's btn_a leads to a dead end, so btn_b stays
    # pending on mid, which a relaunch (back to home, whose only pair is
    # spent) cannot reach again: each sweep relaunches once, then gives up.
    doc = {
        "package": "com.t.stuck", "main_activity": "Main", "own_number": "5550000",
        "activities": [{
            "name": "Main", "initial_state": "home",
            "states": [
                {"id": "home", "elements": [_button("btn_x", 0)]},
                {"id": "mid", "elements": [_button("btn_a", 0), _button("btn_b", 1)]},
                {"id": "end", "elements": [_button("btn_z", 0)]},
            ],
        }],
        "blocks": [{"id": b, "class": "c.Main", "method": b} for b in ("x1", "a1", "b1", "z1")],
        "transitions": [
            _click("home", "btn_x", "x1", to="mid"),
            _click("mid", "btn_a", "a1", to="end"),
            _click("mid", "btn_b", "b1"),
            _click("end", "btn_z", "z1"),
        ],
    }
    app = model_from_dict(doc)
    session = explore(app, ExplorationConfig(seed=0, max_events=100), device_for(app))
    assert [(e.kind, e.target and e.target.value) for e in session.events] == [
        ("click", "btn_x"), ("click", "btn_a"), ("click", "btn_z"),
        ("app_switch", None),  # first sweep: one relaunch, then the exit
        ("app_switch", None),  # final sweep: the same
    ]
    assert session.executed_blocks == {"x1", "a1", "z1"}
    assert reachable_blocks(app) == {"x1", "a1", "b1", "z1"}


def _one_activity_app(states: dict, transitions: list, blocks: tuple) -> dict:
    return {
        "package": "com.t.left", "main_activity": "Main", "own_number": "5550000",
        "activities": [{"name": "Main", "initial_state": "home",
                        "states": [{"id": sid, "elements": els} for sid, els in states.items()]}],
        "blocks": [{"id": b, "class": "c.Main", "method": b} for b in blocks],
        "transitions": transitions,
    }


def _sent(session) -> list:
    return [(e.kind, e.target and e.target.value) for e in session.events]


def test_pair_left_unsent_by_a_screen_change_is_reached_by_a_relaunch():
    # btn_go leaves home before btn_b is sent; the dead end holds one pair
    # and no way back, so only a relaunch reaches btn_b.
    app = model_from_dict(_one_activity_app(
        {"home": [_button("btn_go", 0), _button("btn_b", 1)], "dead": [_button("btn_z", 0)]},
        [_click("home", "btn_go", "go1", to="dead"), _click("home", "btn_b", "b1"),
         _click("dead", "btn_z", "z1")],
        ("go1", "b1", "z1")))
    session = explore(app, ExplorationConfig(seed=0, max_events=100), device_for(app))
    assert _sent(session) == [("click", "btn_go"), ("click", "btn_z"), ("app_switch", None),
                              ("click", "btn_b")]
    assert session.executed_blocks == reachable_blocks(app) == {"go1", "b1", "z1"}


def test_pair_left_unsent_but_sent_from_a_sibling_state_needs_no_relaunch():
    # btn_go leaves home before btn_b is sent, but mid, a state of the same
    # activity, holds a btn_b with the same key: sending it there spends the
    # pair, so nothing is left to relaunch for.
    app = model_from_dict(_one_activity_app(
        {"home": [_button("btn_go", 0), _button("btn_b", 1)], "mid": [_button("btn_b", 0)]},
        [_click("home", "btn_go", "go1", to="mid"), _click("home", "btn_b", "hb1"),
         _click("mid", "btn_b", "mb1")],
        ("go1", "hb1", "mb1")))
    session = explore(app, ExplorationConfig(seed=0, max_events=100), device_for(app))
    assert _sent(session) == [("click", "btn_go"), ("click", "btn_b")]
    assert session.executed_blocks == {"go1", "mb1"}


@pytest.fixture(scope="module")
def corpus_by_archetype(tmp_path_factory):
    """The first app of each archetype in the 20-app corpus of seed 0."""
    apps = {}
    for path in write_corpus(tmp_path_factory.mktemp("corpus"), 0, 20):
        apps.setdefault(path.stem.split("_", 1)[1], load_app_model(path))
    return apps


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("name", ("login_gate", *sorted(set(_ARCHETYPE_CYCLE))))
def test_monkey_phase_is_prefix_of_combined_session(request, corpus_by_archetype, name, seed):
    app = (request.getfixturevalue(name) if name == "login_gate"
           else corpus_by_archetype[name])
    mc = MonkeyConfig(seed=seed, package=app.package)
    stream = generate_events(mc, app, device_for(app))
    device = device_for(app)
    monkey = run_monkey(SessionRunner(app, device), mc)
    runner = SessionRunner(app, device_for(app))
    run_monkey(runner, mc)
    combined = explore(app, ExplorationConfig(seed=seed, max_events=10_000),
                       runner.device, runner=runner)
    # run_monkey stops at a crash; generate_events keeps drawing.
    assert monkey.crashed or len(monkey.events) == 500
    assert monkey.events == stream[:len(monkey.events)]
    assert combined.events[:len(monkey.events)] == monkey.events


def test_budget_stops_the_explorer_mid_plan(tiny_taps):
    # Three clicks that all stay on the first screen; a budget of two stops
    # the explorer inside that screen's plan.
    home = tiny_taps.screen("Main", "home")
    plan = [pair for pair, _, _ in home.pairs()]
    assert len(plan) == 3
    session = explore(tiny_taps, ExplorationConfig(seed=0, max_events=2), device_for(tiny_taps))
    assert [(e.target, e.kind) for e in session.events] == plan[:2]


def test_crash_halts_exploration_with_partial_coverage(crash_first):
    session = explore(crash_first, ExplorationConfig(seed=0, max_events=100),
                      device_for(crash_first))
    assert session.crashed
    assert session.executed_blocks == {"x1"}


@pytest.mark.parametrize("engine", ("explore", "run_monkey"))
def test_engines_on_a_crashed_device_send_nothing(crash_first, engine):
    update = identify_element("Main", crash_first.screen("Main", "home").state.elements[0])
    device = apply_event(device_for(crash_first), crash_first, Event("click", update)).device
    assert device.crashed
    runner = SessionRunner(crash_first, device)
    if engine == "explore":
        session = explore(crash_first, ExplorationConfig(seed=0, max_events=100), device,
                          runner=runner)
    else:
        session = run_monkey(runner, MonkeyConfig(seed=0, package=crash_first.package))
    assert session.crashed
    assert session.events == []


@pytest.mark.parametrize("engine", ("explore", "run_monkey", "apply_event"))
def test_engines_need_the_app_installed(login_gate, engine):
    # Neither engine, nor one step, installs the app: a caller that forgot
    # gets an error, not a session on a device the harness did not provision.
    with pytest.raises(AppNotInstalledError, match="com.fixture.logingate is not installed"):
        if engine == "explore":
            explore(login_gate, ExplorationConfig(seed=0, max_events=100), baseline_device())
        elif engine == "apply_event":
            apply_event(baseline_device(), login_gate, Event("app_switch"))
        else:
            run_monkey(SessionRunner(login_gate, baseline_device()),
                       MonkeyConfig(seed=0, package=login_gate.package))


# ---------------------------------------------------------------------------
# Cleanup
# ---------------------------------------------------------------------------

def test_cleanup_removes_stray_package():
    base = BASELINE_DEVICE
    device = base._replace(installed_apps=base.installed_apps | {"com.evil.drop"},
                           running_processes=base.running_processes | {"com.evil.drop"})
    cleaned = cleanup(device)
    assert "com.evil.drop" not in cleaned.installed_apps
    assert "com.evil.drop" not in cleaned.running_processes


def test_cleanup_is_idempotent():
    base = BASELINE_DEVICE
    device = base._replace(installed_apps=base.installed_apps | {"com.stray.app"})
    once = cleanup(device)
    assert cleanup(once) == once


def test_cleanup_on_clean_device_is_identity():
    assert cleanup(BASELINE_DEVICE) == BASELINE_DEVICE


def test_cleanup_keeps_only_the_contexts_of_baseline_apps():
    kept = AppContext("Settings", "home")
    device = BASELINE_DEVICE._replace(
        contexts={"com.android.settings": kept, "com.stray.app": AppContext("Main", "home")},
        installed_apps=BASELINE_DEVICE.installed_apps | {"com.stray.app"})
    assert cleanup(device).contexts == {"com.android.settings": kept}


def test_cleanup_clears_the_crash_flag():
    assert cleanup(BASELINE_DEVICE._replace(crashed=True)) == BASELINE_DEVICE


def test_cleanup_after_session_restores_baseline(login_gate):
    session = explore(login_gate, ExplorationConfig(seed=0, max_events=10_000),
                      device_for(login_gate))
    snapshot = copy.deepcopy(session.device)
    cleaned = cleanup(session.device)
    assert cleaned == baseline_device()
    assert session.device == snapshot
