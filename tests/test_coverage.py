import pytest
from hypothesis import given, settings

from droidcage.app_model import (
    Event,
    ReceiverSource,
    apply_event,
    identify_element,
    load_app_model,
    model_from_dict,
)
from droidcage.coverage import (
    AggregateRow,
    CoverageIntegrityError,
    CoverageReport,
    aggregate,
    improvement_ratio,
    measure,
    per_app_csv,
)
from droidcage.session import Session

from conftest import FIXTURES, app_docs, device_for


def _report(package, blocks, crashed=False, totals=10_000):
    executed = round(blocks * totals)
    return CoverageReport(package, executed, totals, executed, totals,
                          executed, totals, crashed)


def test_measure_simple_ratio(tiny_taps):
    session = Session(executed_blocks={"t1"})
    report = measure(session, tiny_taps)
    assert report.blocks_executed == 1
    assert report.blocks_total == 3
    assert report.block_ratio == pytest.approx(1 / 3)


def test_measure_empty_session(login_gate):
    report = measure(Session(), login_gate)
    assert (report.blocks_executed, report.methods_executed, report.classes_executed) == (0, 0, 0)


def test_measure_derived_method_and_class_counts(login_gate):
    # b7 and b8 share LoginActivity.onLoginClick
    report = measure(Session(executed_blocks={"b7", "b8"}), login_gate)
    assert report.blocks_executed == 2
    assert report.methods_executed == 1
    assert report.classes_executed == 1
    assert report.classes_total == 3
    assert report.methods_total == 12


def test_measure_rejects_foreign_blocks(tiny_taps):
    with pytest.raises(CoverageIntegrityError):
        measure(Session(executed_blocks={"zz"}), tiny_taps)


def _check_per_app_facts(app):
    """The facts a model keeps for every session equal a fresh computation,
    are built on first use only, and ``measure`` reads them."""
    assert "coverage_totals" not in vars(app) and "receiver_actions" not in vars(app)
    assert app.coverage_totals == (len({(b.class_name, b.method) for b in app.blocks}),
                                   len({b.class_name for b in app.blocks}))
    actions = set(app.declared_receivers) | {action for _, _, action in app.dynamic_receivers}
    for t in app.transitions:
        if isinstance(t.source, ReceiverSource):
            actions.add(t.source.action)
        actions.update(e.action for e in t.side_effects if e.kind == "register_receiver")
    assert app.receiver_actions == frozenset(actions)
    assert app.receiver_actions is app.receiver_actions

    report = measure(Session(executed_blocks={b.id for b in app.blocks}), app)
    assert (report.methods_executed, report.classes_executed) == app.coverage_totals
    assert (report.methods_total, report.classes_total) == app.coverage_totals

    unknown = {"zz10", "zz9", "aa", "b~"} - app.block_index.keys()
    with pytest.raises(CoverageIntegrityError) as raised:
        measure(Session(executed_blocks={app.blocks[0].id, *unknown}), app)
    assert str(raised.value) == f"blocks not in {app.package}: {sorted(unknown)}"


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.app")), ids=lambda p: p.name)
def test_per_app_facts_of_every_fixture(path):
    _check_per_app_facts(load_app_model(path))


@settings(max_examples=40, deadline=None)
@given(app_docs())
def test_per_app_facts_of_generated_models(doc):
    _check_per_app_facts(model_from_dict(doc))


def test_coverage_is_monotone_in_session_prefix(login_gate):
    # applying a prefix of an event sequence never yields higher coverage
    device = device_for(login_gate)
    elements = login_gate.screen("LoginActivity", "form").state.elements
    keys = {e.id_string: identify_element("LoginActivity", e) for e in elements}
    events = [
        Event("set_text", keys["edit_username"], "u"),
        Event("set_text", keys["edit_password"], "123456"),
        Event("click", keys["btn_login"]),
        Event("broadcast", action="android.intent.action.BOOT_COMPLETED"),
    ]
    seen = set()
    previous = -1
    for ev in events:
        res = apply_event(device, login_gate, ev)
        device = res.device
        seen |= set(res.executed_blocks)
        ratio = measure(Session(executed_blocks=set(seen)), login_gate).blocks_executed
        assert ratio >= previous
        previous = ratio


def test_aggregate_mean():
    row = aggregate([_report("a", 0.20), _report("b", 0.60)], "monkey")
    assert row.blocks_avg == pytest.approx(40.0)


def test_aggregate_reproduces_published_monkey_blocks_average():
    # arithmetic fixture: four per-app ratios whose mean is the published row
    ratios = [0.20, 0.40, 0.4528, 0.40]
    reports = [_report(f"app{i}", r) for i, r in enumerate(ratios)]
    row = aggregate(reports, "monkey")
    assert row.blocks_avg == pytest.approx(36.32, abs=1e-9)


def test_aggregate_sums_ratios_left_to_right_on_every_interpreter():
    # Ten tenths added one by one round to 0.9999999999999999; the
    # compensated sum() of CPython 3.12+ would give exactly 1.0 and change
    # the last digit of the mean (and so the output bytes).
    reports = [_report(f"app{i}", 0.1, totals=10) for i in range(10)]
    row = aggregate(reports, "monkey")
    assert row.blocks_avg == 100.0 * 0.9999999999999999 / 10
    assert row.classes_avg == row.methods_avg == row.blocks_avg


def test_aggregate_crash_rate():
    row = aggregate([_report("a", 0.5, crashed=True)], "monkey")
    assert row.crash_rate == 100.0


def test_aggregate_empty_list_rejected():
    with pytest.raises(ValueError):
        aggregate([], "monkey")


def test_crashed_apps_still_contribute_partial_ratios():
    reports = [_report("a", 0.2, crashed=True), _report("b", 0.6)]
    row = aggregate(reports, "x")
    assert row.blocks_avg == pytest.approx(40.0)
    assert row.crash_rate == pytest.approx(50.0)


def test_level_consistency(login_gate):
    report = measure(Session(executed_blocks={"b1"}), login_gate)
    assert (report.blocks_executed > 0) == (report.methods_executed > 0)
    assert (report.methods_executed > 0) == (report.classes_executed > 0)
    empty = measure(Session(), login_gate)
    assert (empty.blocks_executed, empty.methods_executed, empty.classes_executed) == (0, 0, 0)


def test_improvement_ratio_published_values():
    combined = AggregateRow("smart_monkey", 37.12, 41.6, 41.23, 16.0)
    baseline = AggregateRow("monkey", 32.93, 35.05, 36.32, 16.0)
    assert improvement_ratio(combined, baseline) == pytest.approx(1.1352, abs=1e-4)


def test_improvement_ratio_identity_and_arithmetic():
    row = AggregateRow("a", 10, 10, 25.0, 0)
    assert improvement_ratio(row, row) == 1.0
    double = AggregateRow("b", 10, 10, 50.0, 0)
    assert improvement_ratio(double, row) == 2.0


def test_improvement_ratio_zero_baseline():
    zero = AggregateRow("z", 0, 0, 0.0, 0)
    with pytest.raises(ZeroDivisionError):
        improvement_ratio(zero, zero)


def test_per_app_csv_shape(tiny_taps):
    report = measure(Session(executed_blocks={"t1"}), tiny_taps)
    text = per_app_csv([("monkey", report)])
    lines = text.strip().split("\n")
    assert lines[0].startswith("package,method,blocks_executed")
    assert lines[1].startswith("com.fixture.tinytaps,monkey,1,3,")
