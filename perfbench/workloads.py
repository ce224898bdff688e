"""The benchmark's workloads: each is a cycle of `hokdv` CLI invocations.

A unit is one CLI invocation, i.e. one run directory with one verdict.  A
workload is a fixed mix of units (its cycle) built from the seed; a run
repeats the cycle in a closed loop, one caller, `--jobs 1`.  The seed sets
the random data of every unit that takes a `seed` key and jitters the
physical parameters that no verdict depends on.  It never changes how much
work a unit does or the order of the cycle (the order moves unit times
through cache warmth), so runs at different seeds stay comparable.

Why each workload exists (cProfile shares measured on the seed commit):

- spectral-march: sequential time stepping, ~80% in the dealiased FFT
  product; writes the largest file (frames.bin).  No verifier or iterates
  work.
- duhamel-contraction: the same product kernel on 301 independent frames
  per map, plus dense Z^s / H^s norms on 16x301 space-time fields and the
  cumulative-integral loop.
- ratio-search: the sparse verifier path, no FFT.  k_max 32 -> 128 grows the
  outer products from ~4k cells (~128 KB) to ~65k cells (~2 MB).
- iterate-oracle: the exact-integer and Python-loop paths: the A2
  quadrature oracle (direct torus.convolve), the big-integer audit, and
  ~10 ms illposed-sweep units where per-invocation CLI cost shows.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Unit:
    """One CLI invocation; `work` counts its work units from the run directory."""

    name: str
    argv: tuple[str, ...]
    work: Callable[[Path], int]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    cycle: tuple[Unit, ...]


def _sets(**values) -> list[str]:
    out = []
    for key, value in values.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        out += ["--set", f"{key}={value}"]
    return out


def _fixed(count: int) -> Callable[[Path], int]:
    return lambda run_dir: count


def _csv_rows(*names: str) -> Callable[[Path], int]:
    def count(run_dir: Path) -> int:
        total = 0
        for name in names:
            path = run_dir / name
            if path.is_file():
                with path.open(newline="") as handle:
                    total += sum(1 for _ in csv.DictReader(handle))
        return total

    return count


def _jitter(rng: random.Random, value: float, share: float) -> str:
    """value * (1 +- share), printed with 6 significant digits."""
    return format(value * (1.0 + share * (2.0 * rng.random() - 1.0)), ".6g")


def spectral_march(seed: int) -> list[Unit]:
    # The README config with T cut to 0.5 and the large lattice cut to
    # T = 0.1 keep a unit near 0.2-0.3 s, so a run holds enough units for a
    # tail percentile; both schemes and both lattices stay in the mix.
    configs = [
        ("ifrk4-j2-m256", dict(j=2, M=256, dt="5e-4", T=0.5, scheme="ifrk4")),
        ("etdrk4-j2-m256", dict(j=2, M=256, dt="5e-4", T=0.5, scheme="etdrk4")),
        ("ifrk4-j3-m512", dict(j=3, M=512, dt="1e-4", T=0.1, scheme="ifrk4")),
    ]
    return [
        Unit(
            name,
            ("simulate", *_sets(**cfg, seed=seed)),
            _fixed(round(cfg["T"] / float(cfg["dt"]))),
        )
        for name, cfg in configs
    ]


# scripts/run_contraction_sweep.py
CONTRACTION_AMPLITUDES = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16)


def duhamel_contraction(seed: int) -> list[Unit]:
    rng = random.Random(f"duhamel-contraction/{seed}")
    return [
        Unit(
            f"contraction-a{amp}",
            (
                "contraction",
                *_sets(amplitude=_jitter(rng, amp, 0.02), max_iter=8, n_frames=301, seed=seed),
            ),
            _csv_rows("trace.csv"),
        )
        for amp in CONTRACTION_AMPLITUDES
    ]


RATIO_TRIALS = 32
EMBEDDING_PER_CYCLE = 4


def ratio_search(seed: int) -> list[Unit]:
    units = [
        Unit(
            f"zs-3.1-j{j}-lam{lam}-k{k_max}",
            (
                "estimate-search",
                *_sets(estimate="3.1", j=j, lam=lam, k_max=k_max, trials=RATIO_TRIALS, seed=seed),
            ),
            _fixed(RATIO_TRIALS),
        )
        for j in (2, 3)
        for lam in (1, 2)
        for k_max in (32, 128)
    ]
    embedding = Unit(
        "embedding-2.5",
        ("estimate-search", *_sets(estimate="2.5", trials=RATIO_TRIALS, seed=seed)),
        _fixed(RATIO_TRIALS),
    )
    # As many short embedding units as k_max=128 units, so that the median
    # unit falls in the middle of the k_max=32 units, not at their slow edge.
    return units + [embedding] * EMBEDDING_PER_CYCLE


ILLPOSED_PER_CYCLE = 5


def iterate_oracle(seed: int) -> list[Unit]:
    rng = random.Random(f"iterate-oracle/{seed}")
    verdict_rows = _csv_rows("oracle.csv", "growth.csv", "audit.csv")
    # The README picard-check (N = 2, 4) split into one unit per N; the
    # sample times are jittered by 5%, far inside the oracle's 1e-6 margin
    # at 1024 panels.
    units = [
        Unit(
            f"picard-j2-N{N}",
            (
                "picard-check",
                *_sets(
                    j_list=2,
                    N_list=N,
                    t_list=[_jitter(rng, 0.1, 0.05), _jitter(rng, 0.3, 0.05)],
                    steps=1024,
                    seed=seed,
                ),
            ),
            verdict_rows,
        )
        for N in (2, 4)
    ]
    units.append(
        Unit(
            "audit-j1-4-k200",
            ("resonance-audit", *_sets(j_list=[1, 2, 3, 4], kmax=200, seed=seed)),
            verdict_rows,
        )
    )
    illposed = Unit(
        "illposed-j2",
        (
            "illposed-sweep",
            *_sets(j=2, s_list=[-1.5, -1.75, -2], N_list=[8, 16, 32, 64, 128], seed=seed),
        ),
        verdict_rows,
    )
    # Five short units per cycle put the median unit among them, so the
    # per-invocation cost of the CLI is what unit_s_p50 sees here.
    return units + [illposed] * ILLPOSED_PER_CYCLE


WORKLOADS = {
    "spectral-march": ("time steps", spectral_march),
    "duhamel-contraction": ("Duhamel-map applications", duhamel_contraction),
    "ratio-search": ("trials", ratio_search),
    "iterate-oracle": ("verdict rows", iterate_oracle),
}


def build(name: str, seed: int) -> Workload:
    """The workload's cycle at this seed."""
    work_unit, make_cycle = WORKLOADS[name]
    return Workload(name, work_unit, tuple(make_cycle(seed)))
