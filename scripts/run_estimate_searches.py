#!/usr/bin/env python3
"""Ratio searches for every verified estimate across torus scales and
lattice sizes, plus the inadmissible negative control, and a threshold
verdict on the resolution-space estimate 3.1.

Estimate 3.1 holds uniformly in k_max at s_c = -j + 1/2 and fails below
it, where its maximum grows like k_max^{2(s_c - s)}: the resonant phi_N
pair at N = k_max/2 is the witness.  For each (j, lam, s) the campaign
fits the slope of log max_ratio against log k_max over k_max = 32, 64 and
128, and prints one table of slopes.  It exits 1 when |slope| > 0.1 at
s_c, when |slope - 2(s_c - s)| > 0.05 at s_c - 1/4 and s_c - 1/2, or when
the 2.2 control (fixed-tau fields, a = b = 0), whose unweighted products
add coherently, grows with a slope below 0.3 from k_max 32 to 128.  The
runs below s_c lie outside the window in which `zs_norm_cells` warns
(NormRangeWarning): that is the point of a negative control.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from hokdv.cli import main

K_MAX = (32, 64, 128)
CONTROL_K_MAX = (32, 128)


def zs_run(j, lam, s, k):
    return ["estimate-search", "--set", "estimate = 3.1", "--set", f"j = {j}",
            "--set", f"s = {s}", "--set", f"lam = {lam}",
            "--set", f"k_max = {k}", "--set", "trials = 500"]


def control_run(k):
    return ["estimate-search", "--set", "estimate = 2.2", "--set", "a = 0", "--set", "b = 0",
            "--set", "generator = fixed-tau", "--set", "trials = 3", "--set", f"k_max = {k}"]


# (j, lam, s) of each 3.1 row of the verdict, and the slope it must have
SLOPES = [
    *[((j, lam, -j + 0.5), 0.0, 0.1) for j in (2, 3) for lam in (1, 2, 4)],
    *[((j, lam, -j + 0.5 - d), 2 * d, 0.05)
      for j in (2, 3) for lam in (1, 2) for d in (0.25, 0.5)],
]

RUNS = [
    # the resolution-space product estimate at the threshold regularity
    *[zs_run(j, lam, -j + 0.5, k) for j in (2, 3) for lam in (1, 2, 4) for k in K_MAX],
    # dyadic-shell bilinear baseline and a high-shell sweep point
    ["estimate-search", "--set", "estimate = 2.1", "--set", "l1 = 0", "--set", "l2 = 0"],
    ["estimate-search", "--set", "estimate = 2.1", "--set", "l1 = 0", "--set", "l2 = 8"],
    # admissible product exponents and the unweighted negative control
    ["estimate-search", "--set", "estimate = 2.2", "--set", "a = 0.3", "--set", "b = 0.3"],
    control_run(32),
    # embedding directions
    ["estimate-search", "--set", "estimate = 2.5", "--set", "trials = 1000"],
    # 3.1 below the threshold, where the maximum grows with k_max
    *[zs_run(j, lam, s, k) for (j, lam, s), slope, _ in SLOPES if slope for k in K_MAX],
    control_run(128),
]


def run(argv) -> tuple[int, float | None]:
    """main(argv), its output echoed, and the max_ratio of its run directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(out.getvalue(), end="")
    for line in out.getvalue().splitlines():
        if line.startswith("run directory: "):
            summary = Path(line.split(": ", 1)[1]) / "summary.json"
            return code, json.loads(summary.read_text())["summary"]["max_ratio"]
    return code, None


if __name__ == "__main__":
    worst, maxima = 0, {}
    for argv in RUNS:
        code, max_ratio = run(argv)
        worst = max(worst, code)
        maxima[tuple(argv)] = max_ratio
    rows = [("3.1", key, {k: zs_run(*key, k) for k in K_MAX}, want, bound)
            for key, want, bound in SLOPES]
    rows.append(("2.2", (2, 1, "-"), {k: control_run(k) for k in CONTROL_K_MAX}, None, 0.3))
    print(f"\n{'estimate':>8} {'j':>2} {'lam':>3} {'s':>5} "
          + "".join(f"{f'max@{k}':>10}" for k in K_MAX) + f"{'slope':>8}  want")
    passed = True
    for estimate, (j, lam, s), runs, want, bound in rows:
        values = {k: maxima[tuple(argv)] for k, argv in runs.items()}
        fit = float("nan")  # a refused run has no maximum
        if None not in values.values():
            fit = float(np.polyfit(np.log(list(values)), np.log(list(values.values())), 1)[0])
        ok = fit >= bound if want is None else abs(fit - want) <= bound
        passed = passed and ok
        shown = "".join(f"{values[k]:>10.4g}" if values.get(k) is not None else f"{'-':>10}"
                        for k in K_MAX)
        target = f">= {bound}" if want is None else f"{want} +- {bound}"
        print(f"{estimate:>8} {j:>2} {lam:>3} {s:>5} {shown}{fit:>8.3f}  {target}"
              + ("" if ok else "  FAIL"))
    sys.exit(worst if passed else max(worst, 1))
