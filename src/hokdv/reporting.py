"""Structured experiment records and deterministic CSV/JSON emission.

Every numeric value is written with 17 significant digits via repr-style
formatting so identical runs produce byte-identical files.  All writes go
through a temp-file-then-rename so partially written outputs never appear
under a run directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence


@dataclass
class ExperimentReport:
    """Record of one sweep/audit: per-row measurements, summary, verdict."""

    rows: list[dict[str, Any]]
    summary: dict[str, Any]
    passed: bool | None = None


def format_value(value: Any) -> str:
    """Full-precision, locale-independent scalar formatting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        return f"{format(value.real, '.17g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.17g')}j"
    return str(value)


def _atomic_write(path: Path, data: str | bytes, mode: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, text, "w")


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    _atomic_write(path, blob, "wb")


def rows_to_csv(rows: Sequence[Mapping[str, Any]], fields: Sequence[str]) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(format_value(row.get(name, "")) for name in fields))
    return "\n".join(lines) + "\n"


def _jsonable(value: Any) -> Any:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    return value


def dump_json(payload: Any) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=True) + "\n"

