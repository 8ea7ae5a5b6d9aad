"""Properties of every engine on generated app models (see ``conftest.app_docs``)."""

from hypothesis import given, settings

from droidcage.app_model import install_app, model_from_dict, reachable_blocks
from droidcage.data_tables import DataTables, default_tables
from droidcage.explorer import ExplorationConfig, baseline_device, explore
from droidcage.monkey import MonkeyConfig, run_monkey
from droidcage.session import SessionRunner

from conftest import OUTSIDE_ACTION, app_docs

_DEFAULT = default_tables()
# The packaged tables with a broadcast table that also holds OUTSIDE_ACTION.
_CUSTOM = DataTables({**_DEFAULT.tables,
                      "broadcast": _DEFAULT.table("broadcast") + (OUTSIDE_ACTION,)})


def _sessions(app, tables, seed=0):
    """The monkey, smart and smart_monkey sessions of ``app`` under ``tables``."""
    monkey_config = MonkeyConfig(seed=seed, event_count=40, package=app.package)
    runner = SessionRunner(app, install_app(baseline_device(), app), tables=tables)
    sessions = {"monkey": run_monkey(app, runner.device, monkey_config, runner=runner)}
    for method in ("smart", "smart_monkey"):
        runner = SessionRunner(app, install_app(baseline_device(), app), tables=tables)
        config = ExplorationConfig(seed=seed, max_events=60, monkey_config=monkey_config,
                                   run_monkey_first=method == "smart_monkey")
        sessions[method] = explore(app, config, runner.device, runner=runner)
    return sessions


@settings(max_examples=30, deadline=None)
@given(app_docs())
def test_every_session_block_is_reachable_by_the_oracle(doc):
    app = model_from_dict(doc)
    for tables in (_DEFAULT, _CUSTOM):
        reachable = reachable_blocks(app, tables=tables)
        for method, session in _sessions(app, tables).items():
            assert session.executed_blocks <= reachable, (method, tables is _CUSTOM)


@settings(max_examples=15, deadline=None)
@given(app_docs())
def test_one_seed_gives_the_same_sessions_twice(doc):
    app = model_from_dict(doc)
    first, second = _sessions(app, _DEFAULT, seed=7), _sessions(app, _DEFAULT, seed=7)
    for method, session in first.items():
        again = second[method]
        assert session.events == again.events, method
        assert session.executed_blocks == again.executed_blocks, method
        assert session.trace.to_text() == again.trace.to_text(), method
