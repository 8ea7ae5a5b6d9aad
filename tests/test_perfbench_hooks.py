"""The benchmark's ``--trace 1`` hooks wrap droidcage names by module
attribute; a refactor that drops or renames one must fail here."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_droidcage_attribute_perfbench_reads_resolves(path):
    # A workload reads ``harness.default_signatures`` and the like by module
    # attribute; moving such a name must fail here, not only in a benchmark run.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"droidcage.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "droidcage"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert [f"{name}.{attr}" for name, attr in sorted(read)
            if not hasattr(modules[name], attr)] == []
