"""Every name a droidcage module or test file imports is used there or
re-exported for the benchmark's trace hooks, and every function, class,
method, annotated class field (NamedTuple and dataclass fields) and
module-level constant a droidcage module defines is referenced somewhere.

No linter runs in CI, so this stands in for an unused-import check and a
dead-code check. ``__init__.py`` is exempt from the first: it imports only
to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "droidcage"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _strings(path: Path) -> set[str]:
    """Every string constant in ``path``."""
    return {n.value for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"app_model", "explorer", "harness", "monkey"}


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_import(path):
    # A name used only in ``__all__`` is a re-export. It is kept only for a
    # perfbench trace hook, which wraps it by this module's attribute and so
    # names it in a string.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    wrapped = set().union(*map(_strings, PERFBENCH_FILES))
    unused = _imported(tree) - used - (_exported(tree) & wrapped)
    assert not unused


def _definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function, class and
    constant and each method and annotated class field, dunders excepted."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not name.startswith("__"):
                    yield name, name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _references(path: Path) -> set[str]:
    """The names, attribute names and keyword-argument names ``path`` reads
    (``MonkeyConfig(seed=...)`` reads ``seed``); in perfbench also every string
    constant, since its trace hooks name the attributes they wrap. A name
    only assigned is not read, so a constant's own definition does not
    count."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.add(node.arg)
    if path.parent.name == "perfbench":
        refs |= _strings(path)
    return refs


def test_every_definition_is_referenced():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    refs = set().union(*map(_references, sources))
    uncalled = [f"{path.name}:{qualname}" for path in sorted(PACKAGE.glob("*.py"))
                for qualname, name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
                if name not in refs]
    assert not uncalled
