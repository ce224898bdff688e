"""Every public function and method of the package is reached by a command.

One small run per command and branch goes through `cli.main` in process, under a
profile hook that records each Python function entered.  A public definition that
no run enters is code only the tests use: it belongs in the tests, or on ALLOWED.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import time

import hokdv
from hokdv import cli

SPAN_REASON = "perfbench/spans.py traces it until ROADMAP item 1 retires its span"
ALLOWED = {
    "torus.convolve": SPAN_REASON,
    "dispersion.free_evolve": SPAN_REASON,
    "norms.spacetime_from_timeseries": SPAN_REASON,
    "norms.read_frames": "the README documents it as the reader of frames.bin",
    "expquad.lagrange_monomial_basis": "runs at import time, for iterates' quadrature basis",
}
SIMULATE = "simulate --set j=2 --set M=16 --set dt=1e-3 --set T=2e-3 --set frame_stride=1"
SEARCH = "estimate-search --set k_max=8 --set support=8 --set estimate="
RUNS = [  # and the smooth-random IFRK4 simulate, from a config file
    f"{SIMULATE} --set scheme=etdrk4 --set initial=phi_n --set initial_N=2",
    f"{SIMULATE} --set initial=cosine --set nonlinear=false",
    "illposed-sweep --set j=2 --set s_list=-1.5 --set N_list=2,4,8",
    "resonance-audit --set j_list=1,2 --set kmax=3",
    *(f"{SEARCH}{estimate} --set trials=4" for estimate in ("2.1", "2.2", "2.5", "3.1")),
    "contraction --set n_frames=41 --set max_iter=2 --set modes=8",
    "picard-check --set N_list=2 --set t_list=0,0.1 --set steps=64",
]


def public_definitions():
    """(name, code) of each public function, and of each public method, property or
    cached property of a public class, that a hokdv module defines."""
    for info in pkgutil.iter_modules(hokdv.__path__):
        module = importlib.import_module(f"hokdv.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                for inner in ("__func__", "fget", "func", "__wrapped__"):
                    member = getattr(member, inner, member)
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{info.name}.{name}" + (f".{attr}" if attr else ""), member.__code__


def test_every_public_definition_is_reached_by_a_command(tmp_path):
    config = tmp_path / "simulate.cfg"
    config.write_text("j = 2\nM = 16\ndt = 1e-3\nT = 2e-3\nframe_stride = 1\n")
    runs = [["simulate", "--config", str(config)], *(line.split() for line in RUNS)]
    entered = set()
    cli.build_parser.cache_clear()  # it is built once per process, maybe before the hook
    start = time.perf_counter()
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main([*argv, "--out-root", str(tmp_path / "runs")]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 1.0
    assert codes == [0] * len(runs)
    unreached = sorted(name for name, code in public_definitions() if code not in entered)
    assert unreached == sorted(ALLOWED)
