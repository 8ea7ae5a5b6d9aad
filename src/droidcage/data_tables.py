"""The text-entry vocabulary: textfield categories, their fill rule and gate test.

Tables are newline-delimited text files. The packaged defaults ship with
the library; a directory with the same file names can be loaded instead.
A :class:`DataTables` is one map from table name (the keys of
``TABLE_FILES``) to that file's values in file order, read through
``table(name)``. This module owns the category set (``CATEGORIES``), the
fill rule (``DataTables.fill``) and the model-side ``matches_category``
gate test (``DataTables.matches``), so a value the explorer fills for a
category always passes the gate of that category.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

TABLE_FILES = {
    "first_name": "first-names.txt",
    "last_name": "last-names.txt",
    "iban": "random-iban.txt",
    "broadcast": "broadcast-events.txt",
    "email_provider": "email-providers.txt",
    "country": "countries.txt",
    "city": "cities.txt",
    "street_address": "streets.txt",
    "phone_number": "phone-numbers.txt",
    "pin_code": "pin-codes.txt",
    "password": "passwords.txt",
}

# Every table is a category but the two that only feed others, plus email,
# which is composed from first name, last name and provider.
CATEGORIES = frozenset((TABLE_FILES.keys() - {"broadcast", "email_provider"}) | {"email"})


class DataTableError(ValueError):
    """A data file is missing, empty, or holds a line its reader rejects."""


class ConfigError(ValueError):
    """A setting out of its range; defined here, below every module that raises it."""


def check_int(value, name: str) -> int:
    """``value``, if it is an int and not a bool; else a ConfigError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    return value


@dataclass(frozen=True)
class DataTables:
    tables: dict[str, tuple[str, ...]]

    def table(self, category: str) -> tuple[str, ...]:
        try:
            return self.tables[category]
        except KeyError:
            raise KeyError(f"no table for category {category!r}") from None

    def fill(self, category: str, choose: Callable[[Sequence[str]], str]) -> str:
        """A value of ``category``; ``choose`` picks one entry of a table.

        An email is first.last@provider, lower-cased, its parts chosen in
        that order.
        """
        if category == "email":
            first, last, provider = (choose(self.table(name)) for name in
                                     ("first_name", "last_name", "email_provider"))
            return f"{first}.{last}@{provider}".lower()
        return choose(self.table(category))

    def matches(self, category: str, value: str) -> bool:
        """Whether ``value`` looks like a member of ``category``.

        Emails are composed (first.last@provider) rather than listed, so
        they are matched structurally; every other category is an exact
        table-membership test.
        """
        if category == "email":
            if "@" not in value:
                return False
            local, _, domain = value.partition("@")
            return "." in local and domain in self.tables["email_provider"]
        return value in self.table(category)


def load_tables(directory: str | Path) -> DataTables:
    """Load all tables from a directory of newline-delimited files."""
    directory = Path(directory)
    loaded = {}
    for key, fname in TABLE_FILES.items():
        path = directory / fname
        if not path.is_file():
            raise DataTableError(f"missing data table file: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
        loaded[key] = tuple(line for line in lines if line.strip())
        if not loaded[key]:
            raise DataTableError(f"data table {fname} is empty")
    return DataTables(loaded)


@lru_cache(maxsize=1)
def default_tables() -> DataTables:
    """The tables packaged with the library, read once per process."""
    with resources.as_file(resources.files("droidcage") / "data") as directory:
        return load_tables(directory)
