import re

import pytest

from droidcage import monkey
from droidcage.app_model import APP_SWITCH, load_app_model, reachable_blocks
from droidcage.corpus import build_corpus
from droidcage.data_tables import ConfigError
from droidcage.monkey import MonkeyConfig, run_monkey
from droidcage.session import SessionRunner

from conftest import FIXTURES, device_for
from monkey_reference import draw_event, generate_events

PAPER_CONFIG = dict(seed=0, pct_syskeys=0, pct_appswitch=0, throttle_ms=50,
                    event_count=500)


def test_paper_config_sends_no_system_or_appswitch_events(login_gate):
    config = MonkeyConfig(**PAPER_CONFIG, package=login_gate.package)
    stream = generate_events(config, login_gate, device_for(login_gate))
    assert len(stream) == 500
    kinds = {e.kind for e in stream}
    assert "system_key" not in kinds
    assert "app_switch" not in kinds


def test_stream_is_deterministic(login_gate):
    config = MonkeyConfig(**PAPER_CONFIG, package=login_gate.package)
    a = generate_events(config, login_gate, device_for(login_gate))
    b = generate_events(config, login_gate, device_for(login_gate))
    assert a == b


def test_single_event_stream(tiny_taps):
    config = MonkeyConfig(seed=1, event_count=1, package=tiny_taps.package)
    assert len(generate_events(config, tiny_taps, device_for(tiny_taps))) == 1


def test_nonzero_percentages_produce_those_kinds(tiny_taps):
    config = MonkeyConfig(seed=5, pct_syskeys=30, pct_appswitch=30,
                          event_count=300, package=tiny_taps.package)
    stream = generate_events(config, tiny_taps, device_for(tiny_taps))
    kinds = [e.kind for e in stream]
    assert kinds.count("system_key") > 0
    assert kinds.count("app_switch") > 0


def _fixture_and_corpus_apps():
    return ([load_app_model(path) for path in sorted(FIXTURES.glob("*.app"))]
            + [app.model for app in build_corpus(seed=0, count=20)])


@pytest.mark.parametrize("seed", (0, 5))
def test_run_monkey_equals_stepping_the_generated_stream(seed):
    # With system keys and app switches, which move the app off its screen
    # and so exercise run_monkey's cached screen. Events compare value for
    # value, whichever objects carry them.
    for app in _fixture_and_corpus_apps():
        config = MonkeyConfig(seed=seed, pct_syskeys=30, pct_appswitch=30,
                              event_count=300, package=app.package)
        device = device_for(app)
        session = run_monkey(SessionRunner(app, device), config)
        stepped = SessionRunner(app, device)
        for event in generate_events(config, app, device):
            if stepped.session.crashed:
                break
            stepped.step(event)
        assert session == stepped.session


def test_monkey_sends_one_object_per_distinct_event_but_typed_text(login_gate):
    config = MonkeyConfig(seed=5, pct_syskeys=30, pct_appswitch=30, event_count=500,
                          package=login_gate.package)
    events = run_monkey(SessionRunner(login_gate, device_for(login_gate)), config).events
    shared = [e for e in events if e.kind != "set_text"]
    typed = [e for e in events if e.kind == "set_text"]
    assert {"system_key", "app_switch", "click"} <= {e.kind for e in shared}
    assert any(e.target is not None for e in shared) and any(e.target is None for e in shared)
    assert len({id(e) for e in shared}) == len(set(shared)) < len(shared)
    assert all(e is APP_SWITCH for e in shared if e.kind == "app_switch")
    # Each typed event carries its own value, so each is its own object.
    assert len({id(e) for e in typed}) == len(typed) > 1


@pytest.mark.parametrize("value", [True, 2.5, "5"])
@pytest.mark.parametrize("field", ["seed", "pct_syskeys", "pct_appswitch", "throttle_ms",
                                   "event_count"])
def test_config_fields_are_ints(field, value):
    # A bool is an int to Python, but not a count or a seed.
    with pytest.raises(ConfigError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
        MonkeyConfig(**{field: value})


def test_percent_bounds_validated():
    with pytest.raises(ValueError):
        MonkeyConfig(pct_syskeys=101)
    with pytest.raises(ValueError, match="pct_appswitch must be in"):
        MonkeyConfig(pct_appswitch=101)
    with pytest.raises(ValueError):
        MonkeyConfig(event_count=0)
    with pytest.raises(ValueError):
        MonkeyConfig(throttle_ms=-1)
    # The real tool rejects event percentages that add up to more than 100.
    with pytest.raises(ValueError, match="pct_syskeys \\+ pct_appswitch"):
        MonkeyConfig(pct_syskeys=60, pct_appswitch=60)
    assert MonkeyConfig(pct_syskeys=60, pct_appswitch=40).pct_appswitch == 40


def test_monkey_rejects_another_apps_package_before_the_first_event(login_gate):
    runner = SessionRunner(login_gate, device_for(login_gate))
    with pytest.raises(ConfigError) as e:
        run_monkey(runner, MonkeyConfig(package="com.other.app"))
    assert str(e.value) == "package com.other.app does not match model com.fixture.logingate"
    assert runner.session.events == []
    # No package, or the app's own, is the app's.
    for package in ("", login_gate.package):
        runner = SessionRunner(login_gate, device_for(login_gate))
        run_monkey(runner, MonkeyConfig(event_count=3, package=package))
        assert len(runner.session.events) == 3


def test_monkey_saturates_ungated_tiny_app(tiny_taps):
    config = MonkeyConfig(**PAPER_CONFIG, package=tiny_taps.package)
    oracle = reachable_blocks(tiny_taps)
    device = device_for(tiny_taps)
    session = run_monkey(SessionRunner(tiny_taps, device), config)
    assert session.executed_blocks == set(oracle) == {"t1", "t2", "t3"}


def test_monkey_misses_category_gated_blocks(login_gate):
    config = MonkeyConfig(**PAPER_CONFIG, package=login_gate.package)
    device = device_for(login_gate)
    session = run_monkey(SessionRunner(login_gate, device), config)
    assert not {"b2", "b7", "b8"} & session.executed_blocks


def test_monkey_session_is_deterministic(login_gate):
    config = MonkeyConfig(**PAPER_CONFIG, package=login_gate.package)

    def run():
        device = device_for(login_gate)
        s = run_monkey(SessionRunner(login_gate, device), config)
        return s.events, s.executed_blocks

    assert run() == run()


def test_monkey_stops_early_on_crash(crash_first):
    config = MonkeyConfig(**PAPER_CONFIG, package=crash_first.package)
    device = device_for(crash_first)
    session = run_monkey(SessionRunner(crash_first, device), config)
    assert session.crashed
    assert session.executed_blocks == {"x1"}  # partial coverage still reported
    assert len(session.events) < 500


def test_monkey_blocks_subset_of_oracle(login_gate, tiny_taps, boot_gate):
    for app in (login_gate, tiny_taps, boot_gate):
        oracle = reachable_blocks(app)
        config = MonkeyConfig(**PAPER_CONFIG, package=app.package)
        device = device_for(app)
        session = run_monkey(SessionRunner(app, device), config)
        assert session.executed_blocks <= set(oracle)


def test_generated_set_text_strings_are_short_alnum(login_gate):
    config = MonkeyConfig(**PAPER_CONFIG, package=login_gate.package)
    stream = generate_events(config, login_gate, device_for(login_gate))
    texts = [e.value for e in stream if e.kind == "set_text"]
    assert texts, "expected some set_text events in 500 draws"
    assert all(1 <= len(t) <= 8 and t.isalnum() for t in texts)


# Every bound the monkey draws below: the roll, the system key, the kind,
# x, y, the text length and each character.
MONKEY_BOUNDS = (100, 6, 4, 1080, 1920, 8, 62)


def _limit(n):
    return 2**64 - 2**64 % n


class _ReferenceDraws:
    """Stands in for the generator in ``draw_event``: ``randrange(n)`` takes
    the first scripted draw below the largest multiple of ``n`` that fits in
    2**64, mod ``n``, and notes each draw it reads against its bound."""

    def __init__(self, script, seen):
        self.draws = iter(script)
        self.seen = seen

    def randrange(self, n):
        while True:
            v = next(self.draws)
            self.seen.add((n, v))
            if v < _limit(n):
                return v % n


def test_rejected_draws_are_redrawn_as_randrange_does(login_gate):
    # Real seeds never draw a value the monkey rejects, so every rejection
    # is scripted. The base script is a system key, then a set_text of
    # eight characters; each of its draws is below its own bound. Every
    # edge draw goes in at every place, alone and after a rejected draw.
    config = MonkeyConfig(pct_syskeys=30, pct_appswitch=20, package=login_gate.package)
    ctx = device_for(login_gate).context(login_gate.package)
    place = (ctx.activity, ctx.state)
    screen = login_gate.screen(*place)
    base = [0, 1, 99, 3, 540, 960, 7, *range(8), *range(10, 30)]
    edges = {v for n in MONKEY_BOUNDS for v in (_limit(n) - 1, _limit(n), 2**64 - 1)
             if v < 2**64}
    seen = set()
    for i in range(len(base) - 20):
        for edge in sorted(edges):
            for inserted in ([edge], [2**64 - 1, edge]):
                script = base[:i] + inserted + base[i:]
                draws, reference = iter(script), _ReferenceDraws(script, seen)
                for _ in range(2):  # the second event starts where the first stopped
                    assert (monkey._generate_one(draws.__next__, config, screen)
                            == draw_event(reference, config, login_gate, place))
                # both read the same number of draws
                assert list(draws) == list(reference.draws)
    # Each bound read each of its edge draws: the last kept one, and the
    # first and last rejected ones where 2**64 is not a multiple of it.
    assert all((n, v) in seen for n in MONKEY_BOUNDS
               for v in (_limit(n) - 1, _limit(n), 2**64 - 1) if v < 2**64)


@pytest.mark.parametrize("fixture, crashes", [("crash_first", True), ("login_gate", False)])
def test_run_monkey_generates_each_event_through_the_module_function(
        fixture, crashes, request, monkeypatch):
    # The benchmark counts monkey events by wrapping this module attribute,
    # so run_monkey must call it once per event, crash or not.
    app = request.getfixturevalue(fixture)
    calls = []
    generate = monkey._generate_one

    def counted(*args):
        calls.append(1)
        return generate(*args)

    monkeypatch.setattr(monkey, "_generate_one", counted)
    config = MonkeyConfig(**PAPER_CONFIG, package=app.package)
    session = run_monkey(SessionRunner(app, device_for(app)), config)
    assert session.crashed is crashes
    assert len(calls) == len(session.events)
    assert (len(calls) < 500) is crashes
