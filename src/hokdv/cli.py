"""Command-line front end: every experiment in the repository is runnable
as one subcommand driven by a flat config file plus overrides.

Exit codes follow a machine-parseable contract:
    0  run completed and every scientific verdict passed
    1  run completed but a scientific verdict failed (growth law violated,
       audit violation, oracle disagreement, divergent contraction, blow-up)
    2  usage or configuration error, or an input a rule of the library refuses
       (torus.Refused): each command names the config key that sets it

Each run writes into its own directory runs/<timestamp>-<confighash>/
containing exactly one manifest.json (command, full configuration, seed,
version, output paths, verdicts) next to the data files.  The directory is
made at the first write, and every runner computes before it writes, so a
refused run leaves none.  Given the same configuration and seed, the data
files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .config import ConfigError, Field, load_config, parse_config_text, validate_config
from .dispersion import DispersionModel, audit_resonance_bound
from .iterates import (
    grid_size_for_mode,
    growth_sweep,
    phi_n_data,
    second_iterate_closed,
    second_iterate_quadrature,
)
from .reporting import atomic_write_text, dump_json, rows_to_csv
from .solver import (
    BlowUpError,
    SolverConfig,
    conserved_quantities,
    contraction_experiment,
    integrate,
)
from .torus import Refused, SpectralField, TorusGrid, check_range, physical_l2_norm
from .norms import write_frames
from .verifier import (
    GENERATORS,
    RatioSearchConfig,
    bilinear_zs_ratio,
    dyadic_bilinear_ratio,
    embedding_ratio,
    product_l2_ratio,
)

PASS, SCI_FAIL, USAGE = 0, 1, 2


@dataclass
class RunContext:
    command: str
    config: dict
    out_root: Path
    started: float = field(default_factory=time.time)
    outputs: list[str] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    _out_dir: Path | None = None

    @property
    def out_dir(self) -> Path:
        """The run directory, made on first use: at the first record or at finish."""
        if self._out_dir is None:
            self._out_dir = _make_run_dir(self.out_root, self.command, self.config)
        return self._out_dir

    def record(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def write_csv(self, name: str, rows: list[dict], fields: list[str]) -> None:
        atomic_write_text(self.record(name), rows_to_csv(rows, fields))

    def write_json(self, name: str, payload: Any) -> None:
        atomic_write_text(self.record(name), dump_json(payload))

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": self.config["seed"],
            "version": __version__,
            "started_unix": self.started,
            "finished_unix": time.time(),
            "outputs": sorted(self.outputs),
            "verdicts": self.verdicts,
        }
        atomic_write_text(self.out_dir / "manifest.json", dump_json(manifest))


def _make_run_dir(out_root: Path, command: str, config: dict) -> Path:
    digest = hashlib.sha256(
        (command + repr(sorted(config.items()))).encode()
    ).hexdigest()[:8]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_root / f"{stamp}-{digest}"
    suffix = 0
    while path.exists():
        suffix += 1
        path = out_root / f"{stamp}-{digest}-{suffix}"
    path.mkdir(parents=True)
    return path


def _from_config(cls, cfg: dict):
    """An instance of the dataclass cls built from the config keys named like its fields."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _initial_data(config: dict, grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    """A simulate config's initial data.  Refused names N or m for modes off the grid, or
    the number that leaves the doubles: N^-s, the largest decay factor e^{-initial_decay m},
    or, for the L2 norm, the family's scale (N^-s for phi_n, else the initial amplitude)."""
    family, what = config["initial"], "the initial amplitude"
    if family == "phi_n":
        what = "the phi_N amplitude"
        u0 = phi_n_data(config["initial_N"], config["initial_s"], grid)
    elif family == "cosine":
        a = config["initial_amplitude"] * np.pi
        u0 = SpectralField.from_modes(grid, {1: a, -1: a})
    else:
        amps, decay = {}, []
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for m in range(1, config["initial_modes"] + 1):
                decay.append(np.exp(-config["initial_decay"] * m))
                a = config["initial_amplitude"] * (rng.normal() + 1j * rng.normal()) * decay[-1]
                amps[m] = a
                amps[-m] = np.conj(a)
        check_range("the initial decay", max(decay))
        u0 = SpectralField.from_modes(grid, amps)
    with np.errstate(over="ignore", invalid="ignore"):
        check_range(what, physical_l2_norm(u0))
    return u0


# ---------------------------------------------------------------------------
# subcommands (every schema also takes `seed`, added by resolve_config)
# ---------------------------------------------------------------------------

SIMULATE_SCHEMA = {
    "j": Field("int", check=lambda v: v >= 1),
    "lam": Field("float", 1.0, check=lambda v: v >= 1),
    "M": Field("int", check=lambda v: v >= 8 and v % 2 == 0),
    "dt": Field("float", check=lambda v: v > 0),
    "T": Field("float", check=lambda v: v > 0),
    "scheme": Field("str", "ifrk4", check=lambda v: v in ("ifrk4", "etdrk4")),
    "nonlinear": Field("bool", True),
    "frame_stride": Field("int", 10, check=lambda v: v >= 1),
    "initial": Field("str", "smooth-random", help="one of phi_n, cosine, smooth-random",
                     check=lambda v: v in ("phi_n", "cosine", "smooth-random")),
    "initial_N": Field("int", 4, check=lambda v: v >= 1),
    "initial_s": Field("float", 0.0),
    "initial_amplitude": Field("float", 0.05, check=lambda v: v > 0),
    "initial_modes": Field("int", 6, check=lambda v: v >= 1),
    "initial_decay": Field("float", 1.5),
}


def run_simulate(ctx: RunContext) -> bool:
    cfg = ctx.config
    solver = _from_config(SolverConfig, cfg)
    # a rule of frames.bin, which stores one frame spacing; integrate takes any stride
    if solver.steps % cfg["frame_stride"]:
        raise ConfigError("frame_stride",
                          f"{cfg['frame_stride']} does not divide the {solver.steps} steps")
    model = DispersionModel(cfg["j"], cfg["lam"])
    grid = TorusGrid(cfg["lam"], cfg["M"])
    u0 = _initial_data(cfg, grid, np.random.default_rng(cfg["seed"]))
    try:
        times, frames = integrate(model, u0, solver)
    except BlowUpError as err:
        ratio = err.ratio if np.isfinite(err.ratio) else None  # null, since NaN is not JSON
        ctx.verdicts["blow_up"] = {"t": err.t, "ratio": ratio}
        print(f"error: {err}", file=sys.stderr)
        return False
    quantities = [conserved_quantities(SpectralField(grid, row)) for row in frames]
    mean0, l20 = quantities[0]
    rows = []
    for t, (mean, l2) in zip(times, quantities):
        rows.append(
            {
                "t": float(t),
                "mean": mean,
                "l2": l2,
                "mean_drift": abs(mean - mean0),
                "l2_drift": abs(l2 - l20) / max(l20, 1e-300),
            }
        )
    ctx.write_csv("conservation.csv", rows, ["t", "mean", "l2", "mean_drift", "l2_drift"])
    write_frames(ctx.record("frames.bin"), frames, model, cfg["dt"] * cfg["frame_stride"])
    ctx.verdicts["max_l2_drift"] = max(r["l2_drift"] for r in rows)
    ctx.verdicts["max_mean_drift"] = max(r["mean_drift"] for r in rows)
    return True


ILLPOSED_SCHEMA = {
    "j": Field("int", check=lambda v: v >= 1),
    "lam": Field("float", 1.0, check=lambda v: v >= 1),
    "s_list": Field("float_list", check=lambda v: len(v) >= 1),
    "N_list": Field("int_list", help="at least 3 positive N in ascending order",
                    check=lambda v: len(v) >= 3 and min(v) >= 1 and v == sorted(set(v))),
    "t": Field("float", 1.0, check=lambda v: v > 0),
}


def run_illposed_sweep(ctx: RunContext) -> bool:
    cfg = ctx.config
    model = DispersionModel(cfg["j"], cfg["lam"])
    all_rows: list[dict] = []
    table = []
    ok = True
    for s, report in zip(cfg["s_list"], growth_sweep(model, cfg["s_list"], cfg["N_list"], cfg["t"])):
        all_rows.extend(report.rows)
        summary = dict(report.summary)
        consistent = bool(report.passed) and (
            summary["grows_unbounded"] == summary["below_threshold"]
        )
        summary["consistent"] = consistent
        summary["s"] = s
        table.append(summary)
        ok = ok and consistent
    ctx.write_csv("growth.csv", all_rows, ["j", "s", "N", "t", "h_s_norm", "resonant_terms"])
    ctx.write_json("verdicts.json", {"j": cfg["j"], "t": cfg["t"], "per_s": table, "passed": ok})
    ctx.verdicts["passed"] = ok
    for entry in table:
        print(
            f"s={entry['s']}: fitted={entry['fitted_exponent']:.4f} "
            f"theory={entry['theory_exponent']:.4f} consistent={entry['consistent']}"
        )
    return ok


AUDIT_SCHEMA = {
    "j_list": Field("int_list", check=lambda v: len(v) >= 1 and min(v) >= 1,
                    help="every j must be >= 1"),
    "kmax": Field("int", check=lambda v: v >= 1),
}


def run_resonance_audit(ctx: RunContext) -> bool:
    cfg = ctx.config
    rows = []
    violations = 0
    for j in cfg["j_list"]:
        with warnings.catch_warnings():  # j = 1, the KdV sanity mode, warns
            warnings.simplefilter("ignore")
            model = DispersionModel(j)
        report = audit_resonance_bound(model, cfg["kmax"])
        rows.extend(report.rows)
        violations += report.summary["violations"]
    ctx.write_csv("audit.csv", rows, ["j", "kmax", "pairs_checked", "violations", "min_ratio"])
    ctx.verdicts["violations"] = violations
    for row in rows:
        print(
            f"j={row['j']}: pairs={row['pairs_checked']} violations={row['violations']} "
            f"min_ratio={row['min_ratio']:.8f}"
        )
    return violations == 0


# estimate id -> (search name, search); each call looks the search up by name
ESTIMATES = {
    "2.1": ("dyadic-bilinear", lambda model, cfg, sc: dyadic_bilinear_ratio(model, cfg["l1"], cfg["l2"], sc)),
    "2.2": ("product-l2", lambda model, cfg, sc: product_l2_ratio(model, cfg["a"], cfg["b"], sc)),
    "2.5": ("embedding", lambda model, cfg, sc: embedding_ratio(model, cfg["s"], sc)),
    "3.1": ("bilinear-zs", lambda model, cfg, sc: bilinear_zs_ratio(model, cfg["s"], sc)),
}

ESTIMATE_SCHEMA = {
    "estimate": Field("str", check=lambda v: v in ESTIMATES),
    "j": Field("int", 2, check=lambda v: v >= 1),
    "lam": Field(
        "float", 1.0, check=lambda v: v >= 1 and v.is_integer(),
        help="the sigma lattice needs an integral lam",
    ),
    "s": Field("float", -1.5),
    "a": Field("float", 0.3),
    "b": Field("float", 0.3),
    "l1": Field("int", 0, check=lambda v: v >= 0),
    "l2": Field("int", 0, check=lambda v: v >= 0),
    "trials": Field("int", 200, check=lambda v: v >= 1),
    "k_max": Field("int", 32, check=lambda v: v >= 2),
    "t_modes": Field("int", 64, check=lambda v: v >= 4),
    "support": Field("int", 48, check=lambda v: v >= 1),
    "generator": Field("str", "mixed", check=lambda v: v == "mixed" or v in GENERATORS,
                       help="mixed or one of " + ", ".join(GENERATORS)),
}


def run_estimate_search(ctx: RunContext) -> bool:
    cfg = ctx.config
    name, run = ESTIMATES[cfg["estimate"]]
    report = run(DispersionModel(cfg["j"], cfg["lam"]), cfg, _from_config(RatioSearchConfig, cfg))
    ctx.write_csv("trials.csv", report.rows, list(report.rows[0]) if report.rows else [])
    keys = ("max_ratio", "argmax_trial", "skipped", "flags", "witness")
    summary = {key: getattr(report, key) for key in keys}
    ctx.write_json("summary.json", {"kind": f"estimate-search-{name}", "inputs": report.params,
                                    "summary": summary, "passed": None, "notes": []})
    ctx.verdicts["max_ratio"] = report.max_ratio
    ctx.verdicts["flags"] = report.flags
    print(
        f"estimate {cfg['estimate']} ({name}): max ratio "
        f"{report.max_ratio:.6g} over {cfg['trials']} trials"
        + (f"  [flags: {', '.join(report.flags)}]" if report.flags else "")
    )
    return True


CONTRACTION_SCHEMA = {
    "j": Field("int", 2, check=lambda v: v >= 1),
    "lam": Field("float", 1.0, check=lambda v: v >= 1),
    "s": Field("float", -1.5),
    "amplitude": Field("float", 0.01, check=lambda v: v > 0),
    "max_iter": Field("int", 10, check=lambda v: v >= 1),
    "n_frames": Field("int", 301, check=lambda v: v >= 41),
    "modes": Field("int", 16, check=lambda v: v >= 8 and v % 2 == 0),
}


def run_contraction(ctx: RunContext) -> bool:
    cfg = ctx.config
    model = DispersionModel(cfg["j"], cfg["lam"])
    grid = TorusGrid(cfg["lam"], cfg["modes"])
    amp = cfg["amplitude"] * np.pi
    phi = SpectralField.from_modes(grid, {1: amp, -1: amp})
    trace = contraction_experiment(
        model, phi, cfg["s"], max_iter=cfg["max_iter"], n_frames=cfg["n_frames"]
    )
    rows = [
        {
            "iteration": i + 1,
            "diff_zs": d,
            "diff_hs_sup": h,
        }
        for i, (d, h) in enumerate(zip(trace.diff_norms, trace.hs_sup_diffs))
    ]
    ctx.write_csv("trace.csv", rows, ["iteration", "diff_zs", "diff_hs_sup"])
    has_verdict = len(trace.diff_norms) >= 2
    factor = trace.factor if has_verdict else None  # no ratio: null, since NaN is not JSON
    verdict = bool(has_verdict and factor < 0.5)
    payload = {
        "factor": factor,
        "converged": trace.converged,
        "diverged": trace.diverged,
        "verdict_contracting": verdict if has_verdict else None,
    }
    ctx.write_json("summary.json", payload)
    ctx.verdicts.update(payload)
    print(
        f"contraction factor: {'n/a' if factor is None else format(factor, '.6g')} "
        f"(converged={trace.converged}, diverged={trace.diverged})"
    )
    return not trace.diverged and (verdict or not has_verdict)


PICARD_SCHEMA = {
    "j_list": Field("int_list", [2], check=lambda v: len(v) >= 1 and min(v) >= 1,
                    help="every j must be >= 1"),
    "N_list": Field("int_list", [2, 4], check=lambda v: len(v) >= 1 and min(v) >= 1,
                    help="every N must be >= 1"),
    "t_list": Field("float_list", [0.1, 0.3], check=lambda v: len(v) >= 1 and min(v) >= 0),
    "s": Field("float", 0.0),
    "lam": Field("float", 1.0, check=lambda v: v >= 1),
    "steps": Field("int", 1024, check=lambda v: v >= 16),
    "tol": Field("float", 1e-6, check=lambda v: v > 0),
}


def _picard_cells(cfg: dict):
    """Yield (j, N, t, model, u0) for every cell of the picard-check grid."""
    for j in cfg["j_list"]:
        model = DispersionModel(j, cfg["lam"])
        for N in cfg["N_list"]:
            grid = TorusGrid(cfg["lam"], grid_size_for_mode(3 * N))
            u0 = phi_n_data(N, cfg["s"], grid)
            for t in cfg["t_list"]:
                yield j, N, t, model, u0


def run_picard_check(ctx: RunContext) -> bool:
    cfg = ctx.config
    rows = []
    ok = True
    for j, N, t, model, u0 in _picard_cells(cfg):
        closed = second_iterate_closed(model, u0, t).field
        quad = second_iterate_quadrature(model, u0, t, cfg["steps"])
        err = float(np.max(np.abs(closed.coeffs - quad.coeffs)))
        # relative to max|A2| once it exceeds 1, so that large data pass at rounding level
        passed = err <= cfg["tol"] * max(1.0, float(np.max(np.abs(closed.coeffs))))
        ok = ok and passed
        rows.append(
            {
                "j": j,
                "N": N,
                "t": t,
                "steps": cfg["steps"],
                "max_abs_err": err,
                "pass": passed,
            }
        )
    ctx.write_csv("oracle.csv", rows, ["j", "N", "t", "steps", "max_abs_err", "pass"])
    ctx.verdicts["passed"] = ok
    for row in rows:
        print(
            f"j={row['j']} N={row['N']} t={row['t']}: err={row['max_abs_err']:.3e} "
            f"{'ok' if row['pass'] else 'FAIL'}"
        )
    return ok


@dataclass(frozen=True)
class Command:
    """A subcommand: its schema, a runner that fills the run context and says whether
    every verdict passed, and for each input a Refused of the library may name (by its
    `what`) the config key that sets it; a `what` not listed is that key itself."""

    help: str
    schema: dict[str, Field]
    run: Callable[[RunContext], bool]
    keys: dict[str, str] = field(default_factory=dict)


COMMANDS = {
    "simulate": Command("integrate the nonlinear equation and track invariants",
                        SIMULATE_SCHEMA, run_simulate,
                        {"the phase": "j", "the phi_N amplitude": "initial_s",
                         "the initial amplitude": "initial_amplitude",
                         "the initial decay": "initial_decay",
                         "N": "initial_N", "m": "initial_modes"}),
    "illposed-sweep": Command("third-iterate growth exponents across s",
                              ILLPOSED_SCHEMA, run_illposed_sweep,
                              {"the phase": "j", "the phi_N amplitude": "j",
                               "the pair weight": "j", "A3": "t", "A3 at s": "s_list"}),
    "resonance-audit": Command("exact integer lower-bound audit", AUDIT_SCHEMA, run_resonance_audit),
    "estimate-search": Command("empirical ratio search for one estimate",
                               ESTIMATE_SCHEMA, run_estimate_search,
                               {"the phi_N amplitude": "s", "the A2-like amplitude": "s",
                                "the Z^s weights": "s", "the Z^s mass": "s",
                                "the X_{s,b} weights": "s", "the X_{0,a} weights": "a",
                                "the X_{0,b} weights": "b"}),
    "contraction": Command("cutoff Duhamel map contraction measurement",
                           CONTRACTION_SCHEMA, run_contraction,
                           {"the phase": "j", "the Z^s weights": "s", "the Z^s mass": "amplitude"}),
    "picard-check": Command("closed-form vs quadrature oracle agreement",
                            PICARD_SCHEMA, run_picard_check,
                            {"the phase": "j_list", "the phi_N amplitude": "s",
                             "the pair weight": "s"}),
}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hokdv",
        description="Spectral numerics laboratory for the periodic higher-order KdV\n"
        "equation: simulation, resonance audits, iterate growth sweeps,\n"
        "estimate ratio searches, and contraction measurements.",
        epilog="commands:\n" + "\n".join(f"  {name:<16} {c.help}" for name, c in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", metavar="COMMAND", choices=COMMANDS,
                        help="the experiment to run, one of the commands below")
    parser.add_argument("--config", type=str, default=None, help="key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
    parser.add_argument("--out-root", type=str, default="runs", help="run directory root")
    # every run is one process; perfbench/run.py still passes --jobs 1
    parser.add_argument("--jobs", type=int, default=1, choices=(1,),
                        help="only 1: every run is one process (kept for callers that pass it)")
    return parser


def resolve_config(args) -> dict:
    """The schema-checked config of a parsed command line; raises ConfigError or
    FileNotFoundError."""
    raw: dict = {}
    if args.config:
        raw.update(load_config(args.config))
    for override in args.set or []:
        raw.update(parse_config_text(override))
    return validate_config(raw, {**COMMANDS[args.command].schema, "seed": Field("int", 2025)})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = resolve_config(args)
        ctx = RunContext(args.command, config, Path(args.out_root))
        passed = command.run(ctx)
    except (ConfigError, Refused, FileNotFoundError) as err:
        if isinstance(err, Refused):  # a rule of the library, before the first write
            err = ConfigError(command.keys.get(err.what, err.what), str(err))
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    ctx.finish()
    print(f"run directory: {ctx.out_dir}")
    return PASS if passed else SCI_FAIL


if __name__ == "__main__":
    sys.exit(main())
