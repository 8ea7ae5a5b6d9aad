"""droidcage: a device-free dynamic-analysis sandbox.

Simulated app models are explored by a grey-box engine and a seeded
random baseline while basic-block coverage is measured; all network and
telephony side effects pass through a controlled interception pipeline.
"""

from .app_model import (
    AppModel,
    DeviceState,
    ElementKey,
    Event,
    SideEffect,
    StepResult,
    apply_event,
    dump_hierarchy,
    filter_outgoing,
    identify_element,
    install_app,
    load_app_model,
    reachable_blocks,
)
from .coverage import AggregateRow, CoverageReport, aggregate, improvement_ratio, measure
from .explorer import ExplorationConfig, categorize_textfield, cleanup, explore
from .harness import ExperimentConfig, emit_results, run_experiment
from .monkey import MonkeyConfig, run_monkey
from .netguard import (
    HttpTransaction,
    NetGuard,
    Verdict,
    decide,
    parse_capture_log,
    parse_request,
    simulate_response,
    write_log_entry,
)
from .session import Session
from .trace import TraceConfig, record

__version__ = "0.1.0"
