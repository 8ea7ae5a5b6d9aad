"""Properties of every engine on generated app models (see ``conftest.app_docs``).

The three reference properties (``-k "explorer_reference or oracle_reference
or monkey_reference"``) compare each engine with a plain reference kept in
the tests; the oracle's is also checked on every hand-written fixture. A
fourth compares the loader's direct readers with its checked readers on
whole and damaged records. A fifth holds ``run_monkey``, which records a
tap that keys no transition without a step, to a runner that steps every
event of the stream.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidcage import harness
from droidcage.app_model import (
    ELEMENT_KINDS,
    LOOPBACK_LIMIT,
    ModelValidationError,
    OracleBudgetError,
    UI_ACTIONS,
    _direct_block,
    _direct_element,
    _direct_transition,
    _load_block,
    _load_element,
    _load_transition,
    install_app,
    load_app_model,
    loopback_event,
    model_from_dict,
    reachable_blocks,
    run_event_chain,
)
from droidcage.corpus import build_corpus
from droidcage.coverage import measure
from droidcage.data_tables import DataTables, default_tables
from droidcage.explorer import ExplorationConfig, baseline_device, cleanup, explore
from droidcage.monkey import MonkeyConfig, run_monkey
from droidcage.netguard import parse_capture_log, write_log_entry
from droidcage.session import SessionRunner, contained
from droidcage.app_model import TELEPHONY_KINDS, filter_outgoing

from conftest import FIXTURES, OUTSIDE_ACTION, app_docs, device_for, event_pool
from explorer_reference import explore_reference
from monkey_reference import generate_events
from oracle_reference import reachable_reference

_DEFAULT = default_tables()
# The packaged tables with a broadcast table that also holds OUTSIDE_ACTION.
_CUSTOM = DataTables({**_DEFAULT.tables,
                      "broadcast": _DEFAULT.table("broadcast") + (OUTSIDE_ACTION,)})


def _runs(app, tables, seed=0):
    """The runners of the monkey, smart and smart_monkey sessions of ``app``
    under ``tables``, each with the packaged NetGuard a runner gets by default."""
    monkey_config = MonkeyConfig(seed=seed, event_count=40, package=app.package)
    runs = {method: SessionRunner(app, install_app(baseline_device(), app), tables=tables)
            for method in harness.METHODS}
    for method, run in runs.items():
        if method != "smart":
            run_monkey(run, monkey_config)
        if method != "monkey":
            explore(app, ExplorationConfig(seed=seed, max_events=60), run.device, runner=run)
    return runs


def _sessions(app, tables, seed=0):
    """The monkey, smart and smart_monkey sessions of ``app`` under ``tables``."""
    return {method: run.session for method, run in _runs(app, tables, seed).items()}


@settings(max_examples=30, deadline=None)
@given(app_docs())
def test_every_session_block_is_reachable_by_the_oracle(doc):
    app = model_from_dict(doc)
    for tables in (_DEFAULT, _CUSTOM):
        reachable = reachable_blocks(app, tables=tables)
        for method, session in _sessions(app, tables).items():
            assert session.executed_blocks <= reachable, (method, tables is _CUSTOM)


@settings(max_examples=30, deadline=None)
@given(app_docs())
def test_every_session_is_contained(doc):
    app = model_from_dict(doc)
    for tables in (_DEFAULT, _CUSTOM):
        for method, run in _runs(app, tables).items():
            assert contained(run.session, app.own_number), (method, tables is _CUSTOM)


@settings(max_examples=20, deadline=None)
@given(app_docs())
def test_every_capture_log_round_trips(doc):
    app = model_from_dict(doc)
    for method, run in _runs(app, _DEFAULT).items():
        text = run.netguard.capture_text()
        assert "".join(map(write_log_entry, parse_capture_log(text))) == text, method


@settings(max_examples=20, deadline=None)
@given(app_docs())
def test_smart_sends_each_targeted_ui_pair_at_most_once(doc):
    app = model_from_dict(doc)
    session = explore(app, ExplorationConfig(max_events=60), install_app(baseline_device(), app))
    pairs = [(event.target, event.kind) for event in session.events if event.kind in UI_ACTIONS]
    assert len(pairs) == len(set(pairs))


@settings(max_examples=15, deadline=None)
@given(app_docs())
def test_one_seed_gives_the_same_sessions_twice(doc):
    app = model_from_dict(doc)
    first, second = _sessions(app, _DEFAULT, seed=7), _sessions(app, _DEFAULT, seed=7)
    for method, session in first.items():
        again = second[method]
        assert session.events == again.events, method
        assert session.executed_blocks == again.executed_blocks, method
        assert session.trace == again.trace, method


@settings(max_examples=60, deadline=None)
@given(app_docs(), st.data())
def test_event_chain_facts(doc, data):
    """For every chain: only its last step may leave a crashed device, it
    returns that step's device, and a telephony effect is delivered, and
    loops back, exactly when it is addressed to the app's own number."""
    app = model_from_dict(doc)
    pool = event_pool(app)
    device = device_for(app)
    for _ in range(data.draw(st.integers(1, 30))):
        if device.crashed:
            break
        new_device, steps = run_event_chain(device, app, data.draw(st.sampled_from(pool)))
        assert new_device is steps[-1][1].device
        assert not any(result.device.crashed for _, result in steps[:-1])
        to_self = []
        for _, result in steps:
            for eff in result.side_effects:
                if eff.kind in TELEPHONY_KINDS:
                    delivered = filter_outgoing(eff, app.own_number).delivered
                    assert delivered == (eff.number == app.own_number)
                    if delivered:
                        to_self.append(loopback_event(eff))
        loopbacks = [event for event, _ in steps[1:]]
        assert loopbacks == to_self[:len(loopbacks)]
        if not new_device.crashed:
            assert len(loopbacks) == min(len(to_self), LOOPBACK_LIMIT)
        device = new_device


@settings(max_examples=30, deadline=None)
@given(app_docs())
def test_engine_contracts(doc):
    app = model_from_dict(doc)
    device = install_app(baseline_device(), app)
    monkey_config = MonkeyConfig(seed=5, event_count=40, package=app.package)
    explore_config = ExplorationConfig(seed=5, max_events=60)
    monkey_runner = SessionRunner(app, device)
    monkey = run_monkey(monkey_runner, monkey_config)
    # run_monkey stops at a crash; generate_events keeps drawing.
    assert monkey.crashed or len(monkey.events) == monkey_config.event_count
    assert monkey.events == generate_events(monkey_config, app, device)[:len(monkey.events)]

    # The harness's two ways to start smart_monkey: continue a copy of the
    # finished monkey runner, or run both phases on one runner.
    copied = monkey_runner.copy()
    continued = explore(app, explore_config, copied.device, runner=copied)
    runner = SessionRunner(app, device)
    run_monkey(runner, monkey_config)
    assert continued == explore(app, explore_config, runner.device, runner=runner)
    assert monkey == run_monkey(SessionRunner(app, device), monkey_config)

    for session in (monkey, continued):
        report = measure(session, app)
        assert 0 <= report.blocks_executed <= report.blocks_total == len(app.blocks)
        assert 0 <= report.methods_executed <= report.methods_total
        assert 0 <= report.classes_executed <= report.classes_total
        assert cleanup(session.device) == baseline_device()


@pytest.mark.reseeded
@settings(max_examples=40, deadline=None)
@given(app_docs(), st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(0, 50),
       st.integers(1, 80))
def test_run_monkey_equals_monkey_reference(doc, seed, pct_syskeys, pct_appswitch, count):
    app = model_from_dict(doc)
    config = MonkeyConfig(seed=seed, pct_syskeys=pct_syskeys, pct_appswitch=pct_appswitch,
                          event_count=count, package=app.package)
    device = install_app(baseline_device(), app)
    session = run_monkey(SessionRunner(app, device), config)
    stream = generate_events(config, app, device)
    # run_monkey stops at a crash; the reference keeps drawing.
    assert len(stream) == count
    assert session.crashed or len(session.events) == count
    assert session.events == stream[:len(session.events)]


@pytest.mark.reseeded
@settings(max_examples=40, deadline=None)
@given(app_docs(), st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(0, 50),
       st.integers(1, 80))
def test_run_monkey_equals_stepping_every_event(doc, seed, pct_syskeys, pct_appswitch, count):
    # run_monkey records a tap that keys no transition without a step; a
    # runner that steps every event of the stream must end where it ends.
    app = model_from_dict(doc)
    config = MonkeyConfig(seed=seed, pct_syskeys=pct_syskeys, pct_appswitch=pct_appswitch,
                          event_count=count, package=app.package)
    device = install_app(baseline_device(), app)
    runner = SessionRunner(app, device)
    session = run_monkey(runner, config)
    stepped = SessionRunner(app, device)
    for event in generate_events(config, app, device):
        if stepped.device.crashed:
            break
        stepped.step(event)
    expected = stepped.session
    assert session.events == expected.events
    assert session.executed_blocks == expected.executed_blocks
    assert session.trace == expected.trace
    assert session.effects == expected.effects
    assert session.device == expected.device
    assert runner.netguard.capture_log == stepped.netguard.capture_log


def _check_explore_against_reference(app, seed, budget):
    config = ExplorationConfig(seed=seed, max_events=budget)
    # 30 monkey events first, with system keys and relaunches among them, or none.
    monkey_config = MonkeyConfig(seed=seed, pct_syskeys=10, pct_appswitch=10, event_count=30,
                                 package=app.package)
    for monkey_first in (False, True):
        runner = SessionRunner(app, install_app(baseline_device(), app))
        if monkey_first:
            run_monkey(runner, monkey_config)
        reference = runner.copy()
        session = explore(app, config, runner.device, runner=runner)
        expected = explore_reference(app, config, reference.device, runner=reference)
        assert session.events == expected.events, monkey_first
        assert session.executed_blocks == expected.executed_blocks, monkey_first
        assert session.device == expected.device, monkey_first


@pytest.mark.reseeded
@settings(max_examples=50, deadline=None)
@given(app_docs(), st.integers(0, 3), st.integers(1, 60))
def test_explore_equals_explorer_reference(doc, seed, budget):
    _check_explore_against_reference(model_from_dict(doc), seed, budget)


class _BlocksPerEvent(SessionRunner):
    """A runner that also keeps its session's executed blocks after each
    step, keyed by the session's event count then. The monkey records a
    tap that keys no transition without a step, and such a tap runs no
    block, so ``blocks_after(n)``, the set the first n events ran, is the
    last record at or before n."""

    def __init__(self, app, device):
        super().__init__(app, device)
        self.blocks_by_count = {0: frozenset()}

    def step(self, event):
        result = super().step(event)
        self.blocks_by_count[len(self.session.events)] = frozenset(self.session.executed_blocks)
        return result

    def blocks_after(self, n):
        return self.blocks_by_count[max(k for k in self.blocks_by_count if k <= n)]


@pytest.mark.reseeded
@settings(max_examples=40, deadline=None)
@given(app_docs(), st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(0, 50),
       st.integers(1, 80), st.integers(1, 80))
def test_sessions_at_a_smaller_budget_are_prefixes_of_those_at_a_larger_one(
        doc, seed, pct_syskeys, pct_appswitch, k, big_k):
    # The premise of coverage at every budget from one run, for the monkey
    # and the explorer (not smart_monkey, whose explorer starts where its
    # monkey phase left the device).
    k, big_k = sorted((k, big_k))
    app = model_from_dict(doc)
    device = install_app(baseline_device(), app)

    def monkey(budget, runner):
        return run_monkey(runner, MonkeyConfig(seed=seed, pct_syskeys=pct_syskeys,
                                               pct_appswitch=pct_appswitch,
                                               event_count=budget, package=app.package))

    def smart(budget, runner):
        return explore(app, ExplorationConfig(seed=seed, max_events=budget), runner.device,
                       runner=runner)

    for engine in (monkey, smart):
        full_runner = _BlocksPerEvent(app, device)
        full = engine(big_k, full_runner)
        short = engine(k, SessionRunner(app, device))
        assert short.events == full.events[:k], engine.__name__
        assert short.executed_blocks == full_runner.blocks_after(len(short.events)), \
            engine.__name__


def _text_button(text: str, row: int) -> dict:
    return {"kind": "button", "text": text, "bounds": [0, 200 * row, 100, 100],
            "actions": ["click"]}


def _click(state: str, text: str, to: str | None = None) -> dict:
    return {"from": {"activity": "Main", "state": state, "element": text},
            "trigger": {"action": "click"},
            "to": {"activity": "Main", "state": to} if to else None,
            "blocks": [f"{state}_{text}"]}


# "Go" leaves home before home's "OK" is sent; mid, a sibling state, holds an
# "OK" whose partial key (its text) is the same, so sending it there spends
# the pair the broken-off plan left unsent. Nothing is pending after that,
# and an explorer that still counted the pair as pending would relaunch.
_SIBLING_SENDS_THE_LEFT_PAIR = {
    "package": "com.t.sibling", "main_activity": "Main", "own_number": "5550000",
    "activities": [{"name": "Main", "initial_state": "home", "states": [
        {"id": "home", "elements": [_text_button("Go", 0), _text_button("OK", 1)]},
        {"id": "mid", "elements": [_text_button("OK", 0)]},
    ]}],
    "blocks": [{"id": b, "class": "c.Main", "method": b}
               for b in ("home_Go", "home_OK", "mid_OK")],
    "transitions": [_click("home", "Go", to="mid"), _click("home", "OK"), _click("mid", "OK")],
}


@pytest.mark.reseeded
@pytest.mark.parametrize("budget", (3, 60))
def test_explore_equals_explorer_reference_when_a_sibling_sends_the_left_pair(budget):
    app = model_from_dict(_SIBLING_SENDS_THE_LEFT_PAIR)
    for seed in range(4):
        _check_explore_against_reference(app, seed, budget)
    session = explore(app, ExplorationConfig(max_events=budget),
                      install_app(baseline_device(), app))
    assert [(e.kind, e.target and e.target.value) for e in session.events] == [
        ("click", "Go"), ("click", "OK")]


# Budgets small enough that some models exceed them.
_SMALL_BUDGETS = (1, 2, 3, 5, 8)


def _oracle_outcome(oracle, app, **kwargs):
    try:
        return oracle(app, **kwargs)
    except OracleBudgetError as e:
        return "over budget", e.states_explored, e.max_states


def _check_oracle_against_reference(app, tables):
    assert reachable_blocks(app, tables=tables) == reachable_reference(app, tables=tables)
    for max_states in _SMALL_BUDGETS:
        kwargs = {"max_states": max_states, "tables": tables}
        assert (_oracle_outcome(reachable_blocks, app, **kwargs)
                == _oracle_outcome(reachable_reference, app, **kwargs)), max_states


@pytest.mark.reseeded
@settings(max_examples=50, deadline=None)
@given(app_docs())
def test_reachable_blocks_equals_oracle_reference(doc):
    app = model_from_dict(doc)
    for tables in (_DEFAULT, _CUSTOM):
        _check_oracle_against_reference(app, tables)


@pytest.mark.reseeded
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.app")))
def test_reachable_blocks_equals_oracle_reference_on_fixtures(name):
    _check_oracle_against_reference(load_app_model(FIXTURES / name), _DEFAULT)


# ---------------------------------------------------------------------------
# The loader's direct readers against its checked readers
# ---------------------------------------------------------------------------

_READERS = {"element": (_direct_element, _load_element),
            "block": (_direct_block, _load_block),
            "transition": (_direct_transition, _load_transition)}

# The hand-written fixtures and the 20-app corpora of seeds 0 and 1.
_KNOWN_DOCS = ([json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(FIXTURES.glob("*.app"))]
               + [app.doc for seed in (0, 1) for app in build_corpus(seed, 20)])


def _records(doc):
    """(kind, raw record) of every element, block and transition of ``doc``."""
    for activity in doc["activities"]:
        for state in activity["states"]:
            for element in state.get("elements", ()):
                yield "element", element
    for block in doc["blocks"]:
        yield "block", block
    for transition in doc["transitions"]:
        yield "transition", transition


def _check_readers_agree(doc, records) -> list:
    """Read each record of ``records`` with its direct and its checked reader,
    in the context of the valid ``doc``: a record the direct reader builds
    equals the checked reader's, and one the checked reader rejects, the
    direct reader hands on. Returns, per record, whether the direct reader
    built it."""
    app = model_from_dict(doc)
    places = {a.name: {state.id: state for state in a.states} for a in app.activities}
    known_blocks = {b.id for b in app.blocks}
    taken = []
    for what, raw in records:
        direct, checked = _READERS[what]
        context = (places, known_blocks) if what == "transition" else ()
        record = direct(raw, *context)
        try:
            expected = checked(raw, "<record>", *context)
        except ModelValidationError:
            assert record is None, (what, raw)
        else:
            assert record is None or (type(record), repr(record)) == (
                type(expected), repr(expected)), (what, raw)
        taken.append(record is not None)
    return taken


def test_direct_readers_take_every_fixture_and_corpus_element_and_block():
    taken = {what: [] for what in _READERS}
    for doc in _KNOWN_DOCS:
        records = list(_records(doc))
        for (what, _), took in zip(records, _check_readers_agree(doc, records)):
            taken[what].append(took)
    assert all(taken["element"]) and all(taken["block"]) and any(taken["transition"])


_DROP = object()
# Every field name a record or an object inside it may hold.
_FIELD_NAMES = ("kind", "bounds", "actions", "id", "id_string", "description",
                "content_description", "text", "hint", "class", "method", "from", "trigger",
                "to", "blocks", "side_effects", "crash", "activity", "state", "element",
                "receiver", "action", "match")


def _replacements(value) -> list:
    """Values that damage a field holding ``value``: another JSON type (a
    bool for an int, a tuple for a list, a dict for a string), a lone
    surrogate or other non-ASCII text, a number out of range, and names the
    model lacks or the element does not list."""
    kind = type(value)
    if kind is bool:
        return [1, None, "true"]
    if kind is int:
        return [True, 1.0, 0, -1, 10**6, "1"]
    if kind is float:
        return [True, 0.0, "1"]
    if kind is str:
        return [{}, None, 7, "\ud800", value + "\u00e9", "nowhere", *UI_ACTIONS, *ELEMENT_KINDS]
    if kind is list:
        return [tuple(value), value + value, value[:-1], {}, None]
    if kind is dict:
        return [[], None, "x", {}]
    # null, or a field the object lacks
    return [None, "x", 0, True, [], (), {}, ["click"], {"kind": "non_empty"},
            [{"kind": "outgoing_call", "number": "5550100"}]]


def _damages(value, path=()):
    """(path, replacement) of every one-field damage of ``value``: each
    field or item inside it dropped or replaced, each field name an object
    inside it lacks added, and ``value`` itself replaced."""
    for replacement in _replacements(value):
        yield path, replacement
    if type(value) is dict:
        for key, item in value.items():
            yield path + (key,), _DROP
            yield from _damages(item, path + (key,))
        for key in _FIELD_NAMES:
            if key not in value:
                for replacement in _replacements(None):
                    yield path + (key,), replacement
    elif type(value) is list:
        for i, item in enumerate(value):
            yield path + (i,), _DROP
            yield from _damages(item, path + (i,))


def _damaged(value, path: tuple, replacement):
    """``value`` with the field at ``path`` dropped or replaced; the objects
    along the path are copied, and ``value`` is left as it was."""
    if not path:
        return replacement
    key, rest = path[0], path[1:]
    value = type(value)(value)
    if rest:
        value[key] = _damaged(value[key], rest, replacement)
    elif replacement is _DROP:
        del value[key]
    else:
        value[key] = replacement
    return value


@pytest.mark.reseeded
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(_KNOWN_DOCS), app_docs()), st.data())
def test_direct_readers_agree_with_the_checked_path(doc, data):
    """Each reader pair agrees on every record of ``doc``, and on every
    one-field damage of one of its elements, blocks and transitions."""
    records = list(_records(doc))
    damaged = []
    for what in _READERS:
        kind_records = [record for kind, record in records if kind == what]
        if kind_records:
            raw = data.draw(st.sampled_from(kind_records))
            damaged += [(what, _damaged(raw, path, replacement))
                        for path, replacement in _damages(raw)]
    _check_readers_agree(doc, records + damaged)
