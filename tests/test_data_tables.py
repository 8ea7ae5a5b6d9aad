from pathlib import Path

import pytest

from droidcage import data_tables
from droidcage.data_tables import (
    TABLE_FILES,
    DataTableError,
    default_tables,
    load_tables,
)


def test_first_names_head_matches_shipped_sample():
    tables = default_tables()
    assert tables.table("first_name")[:10] == (
        "Aaren", "Aarika", "Abagael", "Abagail", "Abbe",
        "Abbey", "Abbi", "Abbie", "Abby", "Abbye",
    )


def test_iban_head_matches_shipped_sample():
    assert default_tables().table("iban")[0] == "AL94283405797977629281563659"


def test_broadcast_table_contents():
    events = default_tables().table("broadcast")
    assert events[0] == "android.intent.action.BOOT_COMPLETED"
    assert "android.net.conn.CONNECTIVITY_CHANGE" in events
    assert "android.intent.action.GTALK_CONNECTED" in events
    assert len(events) == 10


def test_unknown_table_is_a_key_error():
    with pytest.raises(KeyError, match="no table for category 'nope'"):
        default_tables().table("nope")


def test_all_tables_non_empty():
    tables = default_tables()
    for category in TABLE_FILES:
        assert tables.table(category), category


def test_default_tables_are_the_packaged_directory_read_once():
    assert default_tables() is default_tables()
    assert default_tables() == load_tables(Path(data_tables.__file__).parent / "data")


def test_load_tables_from_directory(tmp_path):
    # the on-disk interface: newline-delimited files with the fixed names
    src = default_tables()
    for fname in TABLE_FILES.values():
        (tmp_path / fname).write_text("one\ntwo\n", encoding="utf-8")
    loaded = load_tables(tmp_path)
    assert loaded.table("first_name") == ("one", "two")
    assert src.table("first_name") != loaded.table("first_name")


def test_missing_table_file_is_an_error(tmp_path):
    with pytest.raises(DataTableError, match="missing"):
        load_tables(tmp_path)


def test_empty_table_file_is_an_error(tmp_path):
    for fname in TABLE_FILES.values():
        (tmp_path / fname).write_text("x\n", encoding="utf-8")
    (tmp_path / "passwords.txt").write_text("\n", encoding="utf-8")
    with pytest.raises(DataTableError, match="empty"):
        load_tables(tmp_path)


def test_category_matching():
    tables = default_tables()
    assert tables.matches("first_name", "Aaren")
    assert not tables.matches("first_name", "xK3z")
    assert tables.matches("password", "123456")
    assert tables.matches("email", "aaren.smith@gmail.com")
    assert not tables.matches("email", "not-an-email")
    assert not tables.matches("email", "a.b@unknown-provider.example")
