"""Deterministic report emission."""

import json

import numpy as np
import pytest

from hokdv.reporting import (
    NonFiniteError,
    atomic_write_bytes,
    atomic_write_text,
    dump_json,
    format_value,
    rows_to_csv,
)


def test_scalar_formatting_full_precision():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(True) == "true"
    assert format_value(3) == "3"
    assert format_value(np.float64(1.0 / 3.0)) == "0.33333333333333331"
    assert format_value(np.int64(-7)) == "-7"
    # numpy booleans as JSON writes them
    assert rows_to_csv([{"a": np.bool_(True), "b": np.bool_(False)}], ["a", "b"]) == "a,b\ntrue,false\n"


def test_rows_to_csv_fills_missing_fields():
    text = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3}], ["a", "b"])
    assert text == "a,b\n1,2.5\n3,\n"


def test_dump_json_is_sorted_and_parseable():
    payload = {"b": 2, "a": {"z": 1.25, "m": [1, 2]}, "c": (3, 4.5)}
    text = dump_json(payload)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    parsed = json.loads(text)
    assert parsed["c"] == [3, 4.5]


def test_dump_json_writes_numpy_values_as_python_values():
    values = {
        "f": np.float64(1.0 / 3.0),
        "i": np.int64(7),
        "b": np.bool_(True),
        "a": np.array([[1.5, -0.0], [2.0, 0.1]]),
        "n": [np.int32(3), np.float32(0.5)],
        "w": [np.longdouble(0.25), np.float16(-2.0), np.uint64(2**64 - 1)],
    }
    plain = {
        "f": 1.0 / 3.0,
        "i": 7,
        "b": True,
        "a": [[1.5, -0.0], [2.0, 0.1]],
        "n": [3, 0.5],
        "w": [0.25, -2.0, 2**64 - 1],
    }
    assert dump_json(values) == dump_json(plain)
    assert '"f": 0.3333333333333333' in dump_json(values)
    for value, name in ((np.complex128(1 + 2j), "complex128"), (np.array([1j]), "complex")):
        with pytest.raises(TypeError, match=f"^{name} is not JSON serializable"):
            dump_json({"z": value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_dump_json_refuses_non_finite_floats(value):
    # NaN and Infinity are not JSON: no manifest or summary may carry them
    with pytest.raises(ValueError):
        dump_json({"verdicts": {"ratio": value}})
    with pytest.raises(ValueError):
        dump_json({"a": np.array([1.0, value])})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_csv_cells_and_json_refuse_non_finite_floats_by_one_error(value):
    with pytest.raises(NonFiniteError, match="non-finite value"):
        rows_to_csv([{"a": 1.0}, {"a": value}], ["a"])
    with pytest.raises(NonFiniteError, match="not JSON compliant"):
        dump_json({"verdicts": {"ratio": value}})
    assert issubclass(NonFiniteError, ValueError)


@pytest.mark.parametrize("value", [np.float32("nan"), np.longdouble("inf"), np.float16("-inf")])
def test_csv_cells_refuse_non_finite_numpy_floats_of_any_width(value):
    with pytest.raises(NonFiniteError, match="non-finite value"):
        rows_to_csv([{"a": 1.0, "b": value}], ["a", "b"])
    with pytest.raises(NonFiniteError, match="not JSON compliant"):
        dump_json({"a": 1.0, "b": value})


def test_writes_go_in_place_with_mode_0600(tmp_path):
    # the run directory, published by one rename, is the unit of atomicity
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"first")
    inode = path.stat().st_ino
    atomic_write_bytes(path, b"2nd")
    assert path.read_bytes() == b"2nd" and path.stat().st_ino == inode
    assert path.stat().st_mode & 0o777 == 0o600
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_contents(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]
