"""Spans around the public functions of every hokdv module, from outside.

Tracing rebinds each listed function on every `hokdv.*` module that holds
it (a function imported into several modules is wrapped in each), and wraps
`__init__` of listed classes.  Spans stay in memory as (name, start, end,
parent span, unit id) and are written out when the run ends.  A layer's
self time is its span duration minus the time its child spans cover.  A
listed name the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Several attributes may share a span name.
TRACED = (
    ("cli.main", "cli", "main"),
    ("config.validate_config", "config", "validate_config"),
    ("reporting.write", "reporting", "atomic_write_text"),
    ("reporting.write", "reporting", "atomic_write_bytes"),
    ("torus.convolve", "torus", "convolve"),
    ("dispersion.free_evolve", "dispersion", "free_evolve"),
    ("dispersion.region_masks", "dispersion", "region_masks"),
    ("dispersion.audit_resonance_bound", "dispersion", "audit_resonance_bound"),
    ("expquad.phi_functions", "expquad", "phi_functions"),
    ("norms.zs_norm_cells", "norms", "zs_norm_cells"),
    ("norms.spacetime_from_timeseries", "norms", "spacetime_from_timeseries"),
    ("norms.sobolev_norm", "norms", "sobolev_norm"),
    ("norms.write_frames", "norms", "write_frames"),
    ("iterates.second_iterate_closed", "iterates", "second_iterate_closed"),
    ("iterates.second_iterate_quadrature", "iterates", "second_iterate_quadrature"),
    ("iterates.third_iterate_closed", "iterates", "third_iterate_closed"),
    ("iterates.growth_sweep", "iterates", "growth_sweep"),
    ("solver.integrate", "solver", "integrate"),
    ("solver.conserved_quantities", "solver", "conserved_quantities"),
    ("solver.duhamel_map", "solver", "duhamel_map"),
    ("solver.contraction_experiment", "solver", "contraction_experiment"),
    ("verifier.ModulationField", "verifier", "ModulationField"),
    ("verifier.convolve_modulation", "verifier", "convolve_modulation"),
    ("verifier.smoothed_derivative", "verifier", "smoothed_derivative"),
    ("verifier.search", "verifier", "bilinear_zs_ratio"),
    ("verifier.search", "verifier", "embedding_ratio"),
    ("verifier.search", "verifier", "dyadic_bilinear_ratio"),
    ("verifier.search", "verifier", "product_l2_ratio"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


# Counters read from a traced call's arguments (bound by name) and result.
def _integrate(args, result):
    steps = int(round(args["cfg"].T / args["cfg"].dt))
    return {"solver.steps": steps, "solver.product_calls": 4 * steps if args["cfg"].nonlinear else 0}


def _write(args, result):
    data = args["text"].encode() if "text" in args else args["blob"]
    return {"reporting.bytes_written": len(data)}


def _search(args, result):
    return {"verifier.trials": args["cfg"].trials, "verifier.skipped": result.skipped}


COUNTERS = {
    "solver.integrate": _integrate,
    "solver.duhamel_map": lambda a, r: {"solver.duhamel_frames": len(a["times"])},
    "iterates.second_iterate_quadrature": lambda a, r: {"iterates.oracle_panels": a["steps"]},
    "norms.zs_norm_cells": lambda a, r: {"norms.zs_norm_cells.cells": len(a["m"])},
    "dispersion.audit_resonance_bound": lambda a, r: {
        "dispersion.audit.pairs": r.summary["pairs_checked"]
    },
    "verifier.ModulationField": lambda a, r: {
        "verifier.ModulationField.cells_in": len(a["m"]),
        "verifier.ModulationField.cells_kept": len(a["self"].m),
    },
    "verifier.convolve_modulation": lambda a, r: {"verifier.convolve_modulation.cells_out": len(r.m)},
    "reporting.write": _write,
    "verifier.search": _search,
}


class Tracer:
    """Installs the wrappers, records spans and aggregates them per name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, unit id)
        self.unit = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.unit_self_s: dict[int, float] = defaultdict(float)
        self.max_gap = 0.0  # largest |unit wall time - sum of its self times| / wall
        self.counters: dict[str, float] = defaultdict(float)
        self.counter_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.unit)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.unit_self_s[tracer.unit] += duration - frame[1]
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    for key, value in counter(bound.arguments, result).items():
                        tracer.counters[key] += value
                except (AttributeError, KeyError, TypeError) as err:
                    tracer.counter_errors[name] = repr(err)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "hokdv" or mod_name.startswith("hokdv."))
        ]
        for name, module, attr in TRACED:
            owner = None
            home = sys.modules.get(f"hokdv.{module}")
            target = getattr(home, attr, None) if home is not None else None
            if isinstance(target, type):
                target, owner = target.__dict__.get("__init__"), target
            if target is None:
                self.absent.append(f"{module}.{attr}")
                continue
            counter = COUNTERS.get(name)
            if owner is not None:
                owner.__init__ = self._wrap(name, target, counter)
                self._undo.append((owner, "__init__", target))
                continue
            wrapped = self._wrap(name, target, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, target))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent,unit\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, unit = span
                    handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{unit}\n")
