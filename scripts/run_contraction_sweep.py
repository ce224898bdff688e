#!/usr/bin/env python3
"""Contraction factor of the cutoff Duhamel map across data amplitudes.

In the small-data regime the factor scales linearly with the amplitude;
the run prints the measured factors, the largest amplitude that still
contracts below 1/2, and the log-log fit factor = C * amplitude^slope over
all amplitudes.  It exits 1 when the slope is more than 0.05 from 1, the
slope of a quadratic nonlinearity at small data.
"""

import sys

import numpy as np

from hokdv.dispersion import DispersionModel
from hokdv.solver import contraction_experiment
from hokdv.torus import SpectralField, TorusGrid


def run() -> int:
    model = DispersionModel(2, 1.0)
    grid = TorusGrid(1.0, 16)
    amplitudes = [0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16]
    factors = []
    print(f"{'amplitude':>10} {'factor':>12} {'converged':>10}")
    for amp in amplitudes:
        phi = SpectralField.from_modes(grid, {1: amp * np.pi, -1: amp * np.pi})
        trace = contraction_experiment(model, phi, -1.5, max_iter=8, n_frames=301)
        factors.append(trace.factor)
        print(f"{amp:>10.4f} {trace.factor:>12.6f} {str(trace.converged):>10}")
    contracting = [a for a, f in zip(amplitudes, factors) if f < 0.5]
    print(f"largest contracting amplitude tested: {max(contracting)}")
    slope, log_c = np.polyfit(np.log(amplitudes), np.log(factors), 1)
    print(f"log-log fit: factor = {np.exp(log_c):.4f} * amplitude^{slope:.7f}")
    return 0 if abs(slope - 1.0) <= 0.05 else 1


if __name__ == "__main__":
    sys.exit(run())
