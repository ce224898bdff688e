"""Deterministic report emission."""

import json

from hokdv.reporting import atomic_write_text, dump_json, format_value, rows_to_csv


def test_scalar_formatting_full_precision():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value(1.5 - 2.25j) == "1.5-2.25j"


def test_rows_to_csv_fills_missing_fields():
    text = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3}], ["a", "b"])
    assert text == "a,b\n1,2.5\n3,\n"


def test_dump_json_is_sorted_and_parseable():
    payload = {"b": 2, "a": {"z": 1.25, "m": [1, 2]}, "c": complex(1, -2)}
    text = dump_json(payload)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed["c"] == {"im": -2.0, "re": 1.0}


def test_atomic_write_replaces_contents(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]
