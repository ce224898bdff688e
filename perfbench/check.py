"""Output check behind the benchmark's error count.

Every unit must exit with its expected code and leave a manifest.json.  At
any seed the seed-independent verdicts must hold: no audit violations, the
oracle, growth-law and contraction pass flags, and a bounded L2 drift for
simulate.  At the reference seed every verdict value must also match the
recorded reference: booleans, strings and integer counts exactly, floats
within the relative and absolute tolerance FLOAT_TOL gives per key.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

# (relative, absolute) tolerance of a float verdict, by the last part of its key.
FLOAT_TOL = {
    # rounding-level values: a reordered but correct sum may move them by far
    # more than 1e-6 of themselves
    "max_abs_err": (1e-6, 1e-12),
    "max_l2_drift": (1e-6, 1e-10),
    "max_mean_drift": (1e-6, 1e-10),
    # final simulated state: reordering moves it by ~1e-12 relative, a 1e-4
    # error in the nonlinear term by ~1e-6
    "re": (1e-9, 1e-13),
    "im": (1e-9, 1e-13),
}
DEFAULT_TOL = (1e-6, 1e-15)

# Physical bound for simulate at any seed: the L2 norm is conserved, and the
# measured drift of these configs is about 1e-11.
MAX_L2_DRIFT = 1e-6

# Columns of data files that hold verdicts, compared per row.
CSV_VERDICTS = {
    "audit.csv": ("j", "pairs_checked", "violations", "min_ratio"),
    "oracle.csv": ("N", "t", "max_abs_err", "pass"),
    "growth.csv": ("s", "N", "resonant_terms"),
    "trace.csv": ("iteration",),
}


# Low modes of the last frame of frames.bin pin the simulated state itself,
# which the conservation verdicts alone would not.
FINAL_MODES = 4
_FRAMES_HEADER = struct.Struct("<dqqqd")  # lam, j, modes, n_frames, dt


def final_modes(blob: bytes) -> list[complex]:
    """Modes 1..FINAL_MODES of the last frame of a frames.bin container
    (README "Binary container": rows are modes, columns are frames)."""
    _, _, _, n_frames, _ = _FRAMES_HEADER.unpack_from(blob, 0)
    return [
        complex(*struct.unpack_from("<2d", blob, _FRAMES_HEADER.size + 16 * (m * n_frames + n_frames - 1)))
        for m in range(1, FINAL_MODES + 1)
    ]


def _parse(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = value


def verdict_values(run_dir: Path) -> dict:
    """Flat verdict values of one run directory: the manifest's verdicts
    plus the verdict columns and summaries of its data files."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    out: dict = {}
    _flatten("verdicts", manifest["verdicts"], out)
    for name, columns in CSV_VERDICTS.items():
        path = run_dir / name
        if not path.is_file():
            continue
        with path.open(newline="") as handle:
            for i, row in enumerate(csv.DictReader(handle)):
                for col in columns:
                    out[f"{name}[{i}].{col}"] = _parse(row[col])
    verdicts_json = run_dir / "verdicts.json"
    if verdicts_json.is_file():
        for i, entry in enumerate(json.loads(verdicts_json.read_text())["per_s"]):
            for key in ("s", "fitted_exponent", "consistent"):
                out[f"verdicts.json.per_s[{i}].{key}"] = entry[key]
    frames = run_dir / "frames.bin"
    if frames.is_file():
        for m, value in enumerate(final_modes(frames.read_bytes()), start=1):
            out[f"frames.bin.final[{m}].re"] = value.real
            out[f"frames.bin.final[{m}].im"] = value.imag
    summary = run_dir / "summary.json"
    if summary.is_file():
        payload = json.loads(summary.read_text())
        if "skipped" in payload.get("summary", {}):
            out["summary.json.skipped"] = payload["summary"]["skipped"]
    return out


def data_digest(run_dir: Path) -> str:
    """sha256 over the data files (everything but the manifest, which holds
    timestamps), in name order."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _same(key: str, got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if math.isnan(want):
            return math.isnan(got)
        rtol, atol = FLOAT_TOL.get(key.rsplit(".", 1)[-1], DEFAULT_TOL)
        return abs(got - want) <= rtol * abs(want) + atol
    return got == want


def compare_to_reference(values: dict, reference: dict) -> list[str]:
    """Mismatches between a unit's verdict values and its reference."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values:
            problems.append(f"{key}: missing (want {reference[key]!r})")
        elif key not in reference:
            problems.append(f"{key}: unexpected value {values[key]!r}")
        elif not _same(key, values[key], reference[key]):
            problems.append(f"{key}: got {values[key]!r}, want {reference[key]!r}")
    return problems


def seed_independent_problems(command: str, values: dict) -> list[str]:
    """Verdicts that must hold at every seed."""
    problems = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    if command == "resonance-audit":
        require(values.get("verdicts.violations") == 0, "audit violations != 0")
    elif command in ("picard-check", "illposed-sweep"):
        require(values.get("verdicts.passed") is True, f"{command} verdict did not pass")
    elif command == "contraction":
        require(values.get("verdicts.verdict_contracting") is True, "map is not contracting")
        require(values.get("verdicts.diverged") is False, "iteration diverged")
    elif command == "simulate":
        drift = values.get("verdicts.max_l2_drift")
        require(
            isinstance(drift, float) and drift <= MAX_L2_DRIFT,
            f"max_l2_drift {drift!r} above {MAX_L2_DRIFT}",
        )
    elif command == "estimate-search":
        ratio = values.get("verdicts.max_ratio")
        require(
            isinstance(ratio, (int, float)) and math.isfinite(ratio) and ratio > 0,
            f"max_ratio {ratio!r} not finite and positive",
        )
    return problems
