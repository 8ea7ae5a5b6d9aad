"""The benchmark's ``--trace 1`` hooks wrap droidcage names by module
attribute; a refactor that drops or renames one must fail here."""

from collections import Counter
from pathlib import Path

from droidcage import monkey

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_still_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    original = monkey.run_event_chain
    with spans.Patches() as patches:
        layers.instrument(spans.SpanRecorder(), Counter(), patches)
        assert monkey.run_event_chain is not original
    assert monkey.run_event_chain is original
