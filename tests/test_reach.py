"""Every public function and method of the package is reached by a command, and
every default it declares is taken by one.

One small run per command and branch goes through `cli.main` in process, under a
profile hook that records each Python function entered, with each public function
and method that declares a default wrapped to record the parameters a call leaves
out: those defaults are taken.  A public definition that no run enters, or a default
that no run takes, is code only the tests use: it belongs in the tests, or on ALLOWED.
"""

import contextlib
import functools
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
    "cli.main(argv)": "the console script calls main() with no argument, for sys.argv",
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
    """(name, function) of each public function, of each public method, property or
    cached property of a public class, and of each hand-written constructor of a
    public class (not one a dataclass generates), that a hokdv module defines."""
    for info in pkgutil.iter_modules(hokdv.__path__):
        module = importlib.import_module(f"hokdv.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                for inner in ("__func__", "fget", "func", "__wrapped__"):
                    member = getattr(member, inner, member)
                if not inspect.isfunction(member) or member.__code__.co_filename != module.__file__:
                    continue
                if not attr.startswith("_") or attr == "__init__":
                    yield f"{info.name}.{name}" + (f".{attr}" if attr else ""), member


def defaults(function) -> dict:
    """{parameter: default object} of each parameter of function with a default."""
    params = inspect.signature(function).parameters.items()
    return {name: p.default for name, p in params if p.default is not p.empty}


def test_every_public_definition_is_reached_by_a_command(tmp_path, monkeypatch):
    config = tmp_path / "simulate.cfg"
    config.write_text("j = 2\nM = 16\ndt = 1e-3\nT = 2e-3\nframe_stride = 1\n")
    runs = [["simulate", "--config", str(config)], *(line.split() for line in RUNS)]
    definitions = list(public_definitions())
    watched = {f.__code__: defaults(f) for _, f in definitions}
    entered, taken = set(), set()

    def recording(value, code):
        signature = inspect.signature(value)

        @functools.wraps(value)
        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            taken.update((code, param) for param in watched[code] if param not in bound)
            return value(*args, **kwargs)
        return call

    # a function is called through every name bound to it: in its module, in the
    # modules that import it, or in its class
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hokdv"]
    for holder in modules + [c for m in modules for c in vars(m).values()
                             if inspect.isclass(c) and c.__module__ == m.__name__]:
        for name, value in list(vars(holder).items()):
            if inspect.isfunction(value) and watched.get(code := inspect.unwrap(value).__code__):
                monkeypatch.setattr(holder, name, recording(value, code))

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cli.build_parser.cache_clear()  # it is built once per process, maybe before the hook
    start = time.perf_counter()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main([*argv, "--out-root", str(tmp_path / "runs")]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 1.0
    assert codes == [0] * len(runs)
    unreached = [name for name, f in definitions
                 if f.__code__ not in entered and not name.endswith(".__init__")]
    untaken = [f"{name}({param})" for name, f in definitions if f.__code__ in entered
               for param in watched[f.__code__] if (f.__code__, param) not in taken]
    assert sorted(unreached + untaken) == sorted(ALLOWED)
