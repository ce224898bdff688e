#!/usr/bin/env python3
"""Benchmark of the hokdv lab, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives `hokdv.cli.main` in-process: one caller in a closed loop, `--jobs
1`, one process.  A unit is one CLI invocation; a run repeats the
workload's cycle of units (see workloads.py) until S seconds have passed,
ending on a whole cycle.  Every unit writes to a temporary run directory
under .perfbench_out/, which is checked (check.py), counted and removed.

Before timing, one untimed warm-up cycle runs at the reference seed and is
checked value by value against reference.json, whatever --seed is.

Timings are reported in reference seconds (ref_s): a unit's wall seconds
times CAL_NOMINAL_S over the time of a fixed calibration kernel measured
right before and after its cycle.  On a shared host the speed drifts by
15-20% over tens of seconds, CPU time included; the kernel drifts with it,
so the ratio keeps the program's own speed.  Wall-clock values are printed
beside them and kept in the details file.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs S/2 seconds untraced, then S/2 seconds with spans around the
public functions of every hokdv module (spans.py), and prints the
per-layer metrics per cycle.  Details, the environment and the spans go to
.perfbench_out/.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One process, one thread: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_REPEATS = 9
TAIL_PERCENTILE = 0.9
TAIL_MIN_BEYOND = 10

# Nominal time of the calibration kernel: a reference second is the wall
# second of a host on which calibration_seconds() returns this.
CAL_NOMINAL_S = 0.025


def import_cli():
    """hokdv.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "hokdv" / "cli.py").is_file():
        raise SystemExit(f"error: no hokdv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hokdv.cli

    if Path(hokdv.cli.__file__).resolve().parent != SRC / "hokdv":
        raise SystemExit(f"error: imported hokdv from {hokdv.cli.__file__}, not {SRC}")
    return hokdv.cli


def calibration_seconds() -> float:
    """Wall time of a fixed kernel that shares no code with hokdv, one part
    bound by the core (dict updates in the interpreter) and one by the caches
    (streaming over 2 MiB arrays), since each workload mixes both."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 1 << 18)
    b = a.copy()
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(80_000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 // 7
    for _ in range(15):
        np.multiply(a, 1.000001, out=b)
        np.add(b, a, out=b)
        b.sum()
    return time.perf_counter() - start


def setup_seconds() -> float:
    """Wall time to import hokdv.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hokdv.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}", *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain")
    revision = _git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": revision.strip() if revision else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "seed": seed,
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if "THREAD" in key or key.startswith(("OMP_", "MKL_", "OPENBLAS_", "KMP_"))
        },
    }


def invoke(cli, unit: workloads.Unit, out_root: Path) -> tuple[float, int | str | None, str | None]:
    """(wall seconds, exit code, error) of one CLI invocation writing under out_root."""
    argv = [*unit.argv, "--out-root", str(out_root), "--jobs", "1"]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a unit that raises is a failed unit
            code, error = None, repr(exc)
        seconds = time.perf_counter() - start
    return seconds, code, error


@dataclass
class Phase:
    """What one measured stretch of whole cycles produced."""

    cycles: int = 0
    seconds: list[float] = field(default_factory=list)  # wall, one per unit
    ref_seconds: list[float] = field(default_factory=list)  # reference, one per unit
    calibration: list[float] = field(default_factory=list)  # kernel seconds, one per cycle boundary
    by_unit: dict[str, list[float]] = field(default_factory=dict)
    work: int = 0
    bytes_written: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    compared: int = 0  # units checked value by value against the reference
    identical: int = 0  # of those, units whose data files match byte for byte

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def work_per_s(self) -> float:
        """Work per reference second."""
        return self.work / sum(self.ref_seconds)

    @property
    def wall_work_per_s(self) -> float:
        return self.work / sum(self.seconds)


class Runner:
    def __init__(self, cli, workload_name: str, reference: dict):
        self.cli = cli
        self.name = workload_name
        self.reference = reference
        self.tracer: spans.Tracer | None = None  # set while the traced phase runs
        self.next_unit_id = 0
        OUT.mkdir(exist_ok=True)
        self.tmp_root = Path(tempfile.mkdtemp(prefix="units-", dir=OUT))

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)

    def run_unit(self, unit: workloads.Unit, full_check: bool, phase: Phase) -> None:
        out_root = Path(tempfile.mkdtemp(dir=self.tmp_root))
        if self.tracer is not None:
            self.tracer.unit = self.next_unit_id
        seconds, code, error = invoke(self.cli, unit, out_root)
        if self.tracer is not None:
            gap = abs(seconds - self.tracer.unit_self_s[self.next_unit_id]) / seconds
            self.tracer.max_gap = max(self.tracer.max_gap, gap)
        self.next_unit_id += 1
        phase.seconds.append(seconds)
        phase.by_unit.setdefault(unit.name, []).append(seconds)
        try:
            problems = self._assess(unit, code, error, out_root, full_check, phase)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        if problems:
            phase.failed += 1
            phase.problems.extend(f"{unit.name}: {p}" for p in problems)

    def _assess(self, unit, code, error, out_root, full_check, phase) -> list[str]:
        if error is not None:
            return [f"raised {error}"]
        ref = self.reference["units"].get(f"{self.name}/{unit.name}")
        if ref is None:
            return ["no reference recorded for this unit"]
        problems = []
        if code != ref["exit"]:
            problems.append(f"exit code {code!r}, expected {ref['exit']}")
        run_dirs = [p for p in out_root.iterdir() if (p / "manifest.json").is_file()]
        if len(run_dirs) != 1:
            return problems + [f"{len(run_dirs)} run directories with a manifest, expected 1"]
        run_dir = run_dirs[0]
        phase.bytes_written += sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        phase.work += unit.work(run_dir)
        values = check.verdict_values(run_dir)
        problems += check.seed_independent_problems(unit.argv[0], values)
        if full_check:
            phase.compared += 1
            if list(unit.argv) != ref["argv"]:
                problems.append("inputs differ from the recorded reference inputs")
            problems += check.compare_to_reference(values, ref["values"])
            phase.identical += check.data_digest(run_dir) == ref["digest"]
        return problems

    def run_cycles(self, cycle, seconds: float, full_check: bool, between=None) -> Phase:
        """Whole cycles until `seconds` of wall time have passed (at least
        one), with the calibration kernel timed at every cycle boundary.
        `between(elapsed seconds)`, if given, runs after each cycle."""
        phase = Phase()
        start = time.perf_counter()
        before = calibration_seconds()
        phase.calibration.append(before)
        while phase.cycles == 0 or time.perf_counter() - start < seconds:
            first = len(phase.seconds)
            for unit in cycle:
                self.run_unit(unit, full_check, phase)
            after = calibration_seconds()
            phase.calibration.append(after)
            scale = CAL_NOMINAL_S / ((before + after) / 2)
            phase.ref_seconds += [s * scale for s in phase.seconds[first:]]
            before = after
            phase.cycles += 1
            if between is not None:
                between(time.perf_counter() - start)
        return phase


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the 90th percentile, or the
    highest one with TAIL_MIN_BEYOND samples beyond it when there are fewer
    than 100 values, but never below the median (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(TAIL_PERCENTILE * n), max(n - TAIL_MIN_BEYOND, math.ceil(n / 2))) - 1
    return ordered[index], (index + 1) / n, n - index - 1


def end_to_end(phase: Phase, setup: list[float]) -> tuple[dict, list[str]]:
    tail_value, tail_p, beyond = tail(phase.ref_seconds)
    wall_tail = tail(phase.seconds)[0]
    n = phase.attempted
    metrics = {
        "work_per_s": (
            phase.work_per_s,
            "1/ref_s",
            f"work / reference seconds of {n} units (wall: {phase.wall_work_per_s:.6g} 1/s)",
        ),
        "unit_s_p50": (
            statistics.median(phase.ref_seconds),
            "ref_s",
            f"median of {n} units (wall: {statistics.median(phase.seconds):.6g} s)",
        ),
        "unit_s_tail": (
            tail_value,
            "ref_s",
            f"p{100 * tail_p:.1f} of {n} units, {beyond} beyond (wall: {wall_tail:.6g} s)",
        ),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "ru_maxrss of this process",
        ),
    }
    lines = [f"  {k:<13} {v:>14.6g} {u:<7} {note}" for k, (v, u, note) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracer: spans.Tracer, traced: Phase, untraced: Phase, identical: tuple[int, int]):
    c = tracer.counters
    cycles = traced.cycles
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / cycles, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / cycles, "s")
    for key, unit in (
        ("solver.steps", "count"),
        ("solver.product_calls", "count"),
        ("solver.duhamel_frames", "count"),
        ("iterates.oracle_panels", "count"),
        ("norms.zs_norm_cells.cells", "count"),
        ("verifier.ModulationField.cells_in", "count"),
        ("verifier.ModulationField.cells_kept", "count"),
        ("verifier.convolve_modulation.cells_out", "count"),
        ("reporting.bytes_written", "B"),
    ):
        metrics[key] = (c.get(key, 0) / cycles, unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["solver.step_us"] = (
        1e6 * ratio(tracer.self_s.get("solver.integrate", 0.0), c.get("solver.steps", 0)), "us"
    )
    metrics["verifier.ModulationField.keep_ratio"] = (
        ratio(c.get("verifier.ModulationField.cells_kept", 0), c.get("verifier.ModulationField.cells_in", 0)),
        "ratio",
    )
    metrics["verifier.skipped_ratio"] = (
        ratio(c.get("verifier.skipped", 0), c.get("verifier.trials", 0)), "ratio"
    )
    metrics["dispersion.audit.pairs_per_s"] = (
        ratio(c.get("dispersion.audit.pairs", 0), tracer.self_s.get("dispersion.audit_resonance_bound", 0.0)),
        "1/s",
    )
    metrics["cli.identical_ratio"] = (ratio(*identical), "ratio")
    metrics["trace.overhead"] = (1.0 - traced.work_per_s / untraced.work_per_s, "ratio")
    lines = [f"  {k:<44} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    reference = json.loads(REFERENCE.read_text())
    env = environment(args.seed)
    setup: list[float] = []

    def sample_setup(elapsed: float) -> None:
        # Fresh imports spread over the timed run, so that their median sees
        # the host as the units do rather than one moment of it.
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(setup_seconds())

    workload = workloads.build(args.workload, args.seed)
    full_check = args.seed == workloads.REFERENCE_SEED
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(cli, args.workload, reference)
    try:
        warmup = runner.run_cycles(
            workloads.build(args.workload, workloads.REFERENCE_SEED).cycle, 0.0, True
        )
        # Keep the imports and the warm-up out of the collector's scans in
        # the timed loop; what units allocate is still collected.
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            phases = [runner.run_cycles(workload.cycle, args.seconds, full_check, sample_setup)]
            while len(setup) < SETUP_REPEATS:
                setup.append(setup_seconds())
            metrics, lines = end_to_end(phases[0], setup)
        else:
            untraced = runner.run_cycles(workload.cycle, args.seconds / 2, full_check)
            tracer.install()
            runner.tracer = tracer
            try:
                traced = runner.run_cycles(workload.cycle, args.seconds / 2, full_check)
            finally:
                runner.tracer = None
                tracer.uninstall()
            phases = [untraced, traced]
            checked = (warmup, *phases)
            identical = sum(p.identical for p in checked), sum(p.compared for p in checked)
            metrics, lines = per_layer(tracer, traced, untraced, identical)
    finally:
        runner.close()

    checked = (warmup, *phases)
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    problems = [problem for p in checked for problem in p.problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "work_unit": workload.work_unit,
        "seconds": args.seconds,
        "environment": env,
        "cycle": [u.name for u in workload.cycle],
        "phases": [
            {
                "cycles": p.cycles,
                "attempted": p.attempted,
                "failed": p.failed,
                "work": p.work,
                "unit_seconds": sum(p.seconds),
                "unit_ref_seconds": sum(p.ref_seconds),
                "wall_work_per_s": p.wall_work_per_s,
                "calibration_s": {
                    "median": statistics.median(p.calibration),
                    "min": min(p.calibration),
                    "max": max(p.calibration),
                },
                "bytes_written": p.bytes_written,
                "unit_median_s": {k: statistics.median(v) for k, v in sorted(p.by_unit.items())},
            }
            for p in phases
        ],
        "setup_s": setup,
        "cal_nominal_s": CAL_NOMINAL_S,
        "warmup_problems": warmup.problems,
        "problems": problems[:50],
        "metrics": metrics,
    }
    if tracer is not None:
        detail["absent"] = tracer.absent
        detail["counter_errors"] = tracer.counter_errors
        detail["spans"] = len(tracer.spans)
        detail["max_unit_self_gap"] = tracer.max_gap
        # One spans file per workload, overwritten by the next traced run, so
        # that many runs do not pile up hundreds of MB.
        tracer.write_spans(OUT / f"{args.workload}-spans.csv")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"work unit: {workload.work_unit}  cycles: {[p.cycles for p in phases]}"
    )
    print(
        f"env: python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"git {env['git_revision']} dirty={env['git_dirty']}  threads {env['thread_env']}"
    )
    for line in lines:
        print(line)
    print(
        f"  {'error_rate':<13} {failed / attempted:>14.6g}         {failed} failed of {attempted} "
        "attempted, warm-up included (not in BENCHMARK.json: it is 0 when outputs are right)"
    )
    if tracer is not None:
        print(f"  absent: {tracer.absent or 'none'}  spans: {len(tracer.spans)}  "
              f"max |unit wall - sum of self times| / wall: {tracer.max_gap:.2e}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    print(f"details: {OUT / (stem + '.json')}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
