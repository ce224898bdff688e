#!/usr/bin/env python3
"""Smoke check of the benchmark itself, run from the root of a checkout:

    python3 perfbench/smoke.py

Runs one cycle of every workload with tracing off and on, and checks that
- the last line has exactly the result keys, and the metric names and units
  printed are exactly those BENCHMARK.json lists for that mode;
- every unit passed its output check;
- the self times of each traced unit add up to its wall time within
  trace.overhead (1% when the overhead reads smaller), and no traced
  function is absent;
- the trace shows the dominant layers and the zero counters predicted per
  workload below.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = ROOT / ".perfbench_out"
SEED = 1

# Layers whose summed self time should exceed that of every other layer.
DOMINANT = {
    "spectral-march": ("solver.integrate",),
    "duhamel-contraction": ("solver.duhamel_map",),
    "ratio-search": ("norms.zs_norm_cells", "verifier.ModulationField"),
    "iterate-oracle": ("iterates.second_iterate_quadrature", "torus.convolve"),
}


def zero_calls_expected(workload: str, name: str) -> bool:
    if name == "torus.convolve":
        return workload != "iterate-oracle"
    if name.startswith("solver."):
        return workload == "ratio-search"
    if name.startswith("verifier."):
        return workload != "ratio-search"
    return False


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def require(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        for trace in (0, 1):
            result = run(workload, trace)
            require(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"trace {trace}: result keys",
            )
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected[trace], f"trace {trace}: metric names and units match BENCHMARK.json")
            require(result["correct"] and result["failed"] == 0, f"trace {trace}: outputs correct")
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        detail = json.loads((OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
        limit = max(metrics["trace.overhead"], 0.01)
        require(
            detail["max_unit_self_gap"] <= limit,
            f"self times add up to unit wall time: gap {detail['max_unit_self_gap']:.2e} <= {limit:.3f}",
        )
        require(not detail["absent"] and not detail["counter_errors"], "no absent functions or counter errors")
        self_s = {n[: -len(".self_s")]: v for n, v in metrics.items() if n.endswith(".self_s")}
        top = sum(self_s[n] for n in DOMINANT[workload])
        others = max(v for n, v in self_s.items() if n not in DOMINANT[workload])
        require(top > others, f"dominant: {' + '.join(DOMINANT[workload])} ({top:.3g} s > {others:.3g} s)")
        nonzero = [
            n for n, v in metrics.items()
            if n.endswith(".calls") and v and zero_calls_expected(workload, n[: -len(".calls")])
        ]
        require(not nonzero, f"predicted zero call counts are zero {nonzero or ''}")
    print("smoke check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
