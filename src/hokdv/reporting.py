"""Structured experiment records and deterministic CSV/JSON emission.

Every numeric value is written with 17 significant digits via repr-style
formatting so identical runs produce byte-identical files.  A nan or
infinite float is refused with NonFiniteError, in a CSV cell as in JSON.
Files are written in place, mode 0600: the unit of atomicity is the run
directory, which the CLI fills while it is hidden and publishes whole, with
its manifest, by one rename.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np


class NonFiniteError(ValueError):
    """A nan or infinite float in an output: CSV and JSON files carry finite numbers."""


@dataclass
class ExperimentReport:
    """Record of one sweep/audit: per-row measurements, summary, verdict."""

    rows: list[dict[str, Any]]
    summary: dict[str, Any]
    passed: bool | None = None


def format_value(value: Any) -> str:
    """Full-precision, locale-independent scalar formatting, booleans (numpy's too)
    as true / false; a nan or infinite float, numpy's of any width too, raises
    NonFiniteError."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite value {value!r}")
        return format(value, ".17g")
    if isinstance(value, np.floating) and not np.isfinite(value):
        raise NonFiniteError(f"non-finite value {value!r}")
    return str(value)


def _write(path: Path, data: str | bytes, mode: str) -> None:
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), mode) as handle:
        handle.write(data)


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path in place; the run directory, published whole, is atomic."""
    _write(path, text, "w")


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write blob to path in place; the run directory, published whole, is atomic."""
    _write(path, blob, "wb")


def rows_to_csv(rows: Sequence[Mapping[str, Any]], fields: Sequence[str]) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(format_value(row.get(name, "")) for name in fields))
    return "\n".join(lines) + "\n"


def _plain(value: Any) -> Any:
    """The Python value of a numpy array, bool, integer or float of any width (a long
    double's tolist() is itself); TypeError names any other type."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (np.ndarray, np.bool_, np.integer)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dump_json(payload: Any) -> str:
    """Sorted, indented JSON; numpy scalars and arrays go through `_plain`.  A nan or
    infinite float raises NonFiniteError: NaN and Infinity are not JSON.  Without the
    circular check, the encoder raises ValueError for nothing else."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          check_circular=False, default=_plain)
    except ValueError as err:
        raise NonFiniteError(str(err)) from None
    return text + "\n"
