"""Every piece of state a droidcage module keeps for the life of the process
is listed here, with the reason no result depends on it.

A cache, a memo or a shared mutable table outlives the run that filled
it, so a later run in the same process may read what an earlier one left.
The scan finds three kinds at run time, in every module of the package:
``functools.lru_cache`` wrappers (module-level, or a method of a class),
``functools.cached_property`` class attributes, and module-level ``dict``,
``list`` and ``set`` objects. A new one fails this test until it is added
to ``ALLOWED`` with its reason. ``tests/test_harness.py`` runs the seed-0
corpus in a warm process and checks its output bytes.
"""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property

import droidcage

_TABLE = "a constant table: built at import and never written"
_EMPTY = "a shared empty default that is only read, never written"
_MEMO = ("fill-only header-line memo: a pure function of its key, so a hit equals a "
         "fresh parse (test_line_memos_change_no_result)")

# (module, name) -> why no result depends on it.
ALLOWED = {
    ("app_model", "AppModel.coverage_totals"): "counted from the model's own immutable blocks",
    ("app_model", "AppModel.receiver_actions"): "collected from the model's own receivers",
    ("app_model", "_CALL_NAME_FIELDS"): _TABLE,
    ("app_model", "_ELEMENT_FIELDS"): _TABLE,
    ("app_model", "_KIND_ACTION"): _TABLE,
    ("app_model", "_KIND_WORDS"): _TABLE,
    ("app_model", "_NO_ITEMS"): _EMPTY,
    ("app_model", "_NO_PLACES"): _EMPTY,
    ("app_model", "_RECEIVER_TRIGGERS"): _TABLE,
    ("app_model", "_SIDE_EFFECT_FIELDS"): _TABLE,
    ("app_model", "_TELEPHONY"): _TABLE,
    ("app_model", "_TELEPHONY_ACTIONS"): _TABLE,
    ("corpus", "CorpusApp.model"): "built from the app's own document, which nothing changes",
    ("corpus", "_BUILDERS"): _TABLE,
    ("corpus", "_GATE_HINTS"): _TABLE,
    ("corpus", "_LITERALS"): _TABLE,
    ("corpus", "_RECEIVER_GATES"): _TABLE,
    ("data_tables", "TABLE_FILES"): _TABLE,
    ("data_tables", "default_tables"): "the packaged tables, read once; nothing writes them",
    ("explorer", "_Explorer.rng"): "one exploration's fill stream, seeded from its own config",
    ("explorer", "categorize_textfield"): "a pure function of an immutable element",
    ("harness", "METHOD_LABELS"): _TABLE,
    ("harness", "_FORMAT_FILES"): _TABLE,
    ("monkey", "_tap"): "equal events are interchangeable: an Event is immutable",
    ("netguard", "DEFAULT_IDENTITIES"): _TABLE,
    ("netguard", "_B64_TEXT"): _TABLE,
    ("netguard", "_FIXED_VALUES"): _TABLE,
    ("netguard", "_HEADER_LINES"): _MEMO,
    ("netguard", "_HEADER_TEXTS"): _MEMO,
    ("netguard", "_METHOD_TEXT"): _TABLE,
    ("netguard", "_PORT_TEXT"): _TABLE,
    ("netguard", "_SCHEME_TEXT"): _TABLE,
    ("netguard", "_VERSION_TEXT"): _TABLE,
    ("netguard", "_WRITTEN_HEADERS"): _MEMO,
}


def _is_lru_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info")


def _is_cache_attribute(value) -> bool:
    """A cached_property, or an lru_cache wrapper, bare or under property,
    staticmethod or classmethod."""
    inner = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
    return isinstance(value, cached_property) or _is_lru_cache(inner)


def _imported_names(module) -> set[str]:
    """The names ``module`` binds by an import statement at module level."""
    tree = ast.parse(inspect.getsource(module))
    return {(a.asname or a.name).split(".")[0] for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def _process_state() -> set[tuple[str, str]]:
    """(module, name) of each piece of process-lived state.

    Each object counts once, under the module that defines it: a name a
    module imports is not its own.
    """
    found, seen = set(), set()
    modules = ["droidcage"] + sorted(f"droidcage.{m.name}"
                                     for m in pkgutil.iter_modules(droidcage.__path__))
    for module_name in modules:
        module = importlib.import_module(module_name)
        short = module_name.rpartition(".")[2]
        imported = _imported_names(module)
        for name, obj in vars(module).items():
            if name.startswith("__") or name in imported:
                continue
            if _is_lru_cache(obj) or isinstance(obj, (dict, list, set)):
                state = [(name, obj)]
            elif isinstance(obj, type) and obj.__module__ == module_name:
                state = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                         if _is_cache_attribute(value)]
            else:
                continue
            for qualname, value in state:
                if id(value) not in seen:
                    seen.add(id(value))
                    found.add((short, qualname))
    return found


def test_process_lived_state_is_the_allowed_list():
    assert _process_state() == set(ALLOWED)
