"""Command-line front end: every experiment in the repository is runnable
as one subcommand driven by a flat config file plus overrides.

Exit codes follow a machine-parseable contract:
    0  run completed and every scientific verdict passed
    1  run completed but a scientific verdict failed (growth law violated,
       audit violation, oracle disagreement, divergent contraction, blow-up)
    2  usage or configuration error

Each run writes into its own directory runs/<timestamp>-<confighash>/
containing exactly one manifest.json (command, full configuration, seed,
version, output paths, verdicts) next to the data files.  Given the same
configuration and seed, the data files are byte-identical across runs.
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
    quadrature_steps_needed,
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
from .torus import SpectralField, TorusGrid, physical_l2_norm
from .norms import write_frames, zs_region_exponents
from .verifier import (
    GENERATORS,
    RatioSearchConfig,
    bilinear_zs_ratio,
    check_search_lattice,
    dyadic_bilinear_ratio,
    embedding_ratio,
    product_l2_ratio,
)

PASS, SCI_FAIL, USAGE = 0, 1, 2


@dataclass
class RunContext:
    command: str
    config: dict
    out_dir: Path
    started: float = field(default_factory=time.time)
    outputs: list[str] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

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


def _check_phi_n(key: str, what: str, log2_n: float, power: float) -> None:
    """Refuse a config whose phi_N `what`, about N^power, leaves 2^-1022 .. 2^1022."""
    if not abs(power * log2_n) < 1022.0:
        raise ConfigError(key, f"{what} reaches 2^{power * log2_n:.6g}, outside double precision")


def _initial_data(config: dict, grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    family = config["initial"]
    if family == "phi_n":
        return phi_n_data(config["initial_N"], config["initial_s"], grid)
    if family == "cosine":
        a = config["initial_amplitude"] * np.pi
        return SpectralField.from_modes(grid, {1: a, -1: a})
    amps = {}
    for m in range(1, config["initial_modes"] + 1):
        a = (
            config["initial_amplitude"]
            * (rng.normal() + 1j * rng.normal())
            * np.exp(-config["initial_decay"] * m)
        )
        amps[m] = a
        amps[-m] = np.conj(a)
    return SpectralField.from_modes(grid, amps)


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


def _solver_config(cfg: dict) -> SolverConfig:
    try:
        return _from_config(SolverConfig, cfg)
    except ValueError as err:
        raise ConfigError("T", str(err)) from None


def _initial_scale_key(cfg: dict) -> str:
    """The key that sets the size of the initial data: N^-s for phi_n, the amplitude
    for cosine, and for smooth-random whichever of amplitude and e^{-decay m} (m up
    to initial_modes) is further from 1."""
    if cfg["initial"] == "phi_n":
        return "initial_s"
    if cfg["initial"] == "smooth-random" and (
        abs(cfg["initial_decay"]) * cfg["initial_modes"] > abs(np.log(cfg["initial_amplitude"]))
    ):
        return "initial_decay"
    return "initial_amplitude"


def _check_simulate(cfg: dict) -> None:
    """Refuse a time step, a frame stride or initial data that the run cannot carry:
    frames.bin stores one frame spacing, so the stride must divide the steps, and
    the data must have finite coefficients and a finite, nonzero L2 norm."""
    steps = _solver_config(cfg).steps
    if steps % cfg["frame_stride"]:
        raise ConfigError("frame_stride", f"{cfg['frame_stride']} does not divide the {steps} steps")
    try:
        with np.errstate(all="ignore"):
            u0 = _initial_data(cfg, TorusGrid(cfg["lam"], cfg["M"]),
                               np.random.default_rng(cfg["seed"]))
            l2 = physical_l2_norm(u0)
    except ValueError as err:
        key = "initial_N" if cfg["initial"] == "phi_n" else "initial_modes"
        raise ConfigError(key, str(err)) from None
    except OverflowError:
        raise ConfigError(_initial_scale_key(cfg), "the initial data overflow double precision") from None
    if not np.all(np.isfinite(u0.coeffs)) or not 0.0 < l2 < np.inf:
        raise ConfigError(
            _initial_scale_key(cfg),
            f"the initial data have L2 norm {l2:g} in double precision; "
            "they must be finite and nonzero",
        )


def run_simulate(ctx: RunContext) -> bool:
    cfg = ctx.config
    model = DispersionModel(cfg["j"], cfg["lam"])
    grid = TorusGrid(cfg["lam"], cfg["M"])
    rng = np.random.default_rng(cfg["seed"])
    u0 = _initial_data(cfg, grid, rng)
    try:
        times, frames = integrate(model, u0, _solver_config(cfg))
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


def _check_illposed(cfg: dict) -> None:
    """Refuse an s whose A3, ~ N^(-3s - g) with g = 2j - 1, or its squared H-dot^s norm,
    ~ N^(-4s - 2g), leaves double precision at the largest N (early for s > 0)."""
    g, log2_n = 2 * cfg["j"] - 1, np.log2(max(cfg["N_list"]))
    for s in cfg["s_list"]:
        _check_phi_n("s_list", f"A3 at s = {s:g}", log2_n, max(-3 * s - g, -4 * s - 2 * g, key=abs))


def run_illposed_sweep(ctx: RunContext) -> bool:
    cfg = ctx.config
    model = DispersionModel(cfg["j"], cfg["lam"])
    all_rows: list[dict] = []
    table = []
    ok = True
    for s in cfg["s_list"]:
        report = growth_sweep(model, s, cfg["N_list"], cfg["t"])
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


def _check_estimate(cfg: dict) -> None:
    """Refuse cells int64 cannot multiply exactly, a generator for 2.1 (always dyadic), and for
    2.5 and 3.1 an s the doubles cannot carry (_check_estimate_s)."""
    if cfg["estimate"] == "2.1" and cfg["generator"] != "mixed":
        raise ConfigError("generator", "estimate 2.1 draws only dyadic-concentrated fields")
    l_max = max(cfg["l1"], cfg["l2"]) if cfg["estimate"] == "2.1" else 6
    search = _from_config(RatioSearchConfig, cfg)
    try:
        check_search_lattice(2 * cfg["j"] + 1, int(cfg["lam"]), search, l_max)
    except ValueError as err:
        raise ConfigError("k_max", str(err)) from None
    if cfg["estimate"] in ("2.5", "3.1"):
        _check_estimate_s(cfg)


def _check_estimate_s(cfg: dict) -> None:
    """Refuse, for 2.5 and 3.1, an s whose A2-like phi_N profile, ~ N^-2s, leaves double
    precision at top N, or whose Z^s block weights <k>^{2s_e} <sigma>^{2b_e}
    (norms.zs_region_exponents) may leave 2^-1022 .. 2^1022 on the cells the search can
    reach: a factor alone, or the weight times the largest squared coefficient mass of
    a measured field.  The Y^s and X_{s,b} weights, (s, b) with 0 <= b <= (2j-1)/(2j),
    lie inside the D1 u D5 block's range."""
    j, lam, s = cfg["j"], cfg["lam"], cfg["s"]
    n = 2 * j + 1
    # drawn cells: |m| <= max(k_max, 6) (phi_N reaches 2N), |sigma| <= t_modes, 2^7
    # (dyadic shells up to l = 6) or |m / lam|^n (fixed-tau, phi_N's resonance gap)
    m = max(cfg["k_max"], 6)
    sig = max(cfg["t_modes"], 2.0**7, (m / lam) ** n)
    cells = max(cfg["support"], 2 * cfg["k_max"])
    # log2 of the largest |coefficient| drawn: a complex normal stays below 2^4, and the
    # phi_N pair at 2 <= N <= max(3, k_max // 2) has N^-s and 2N^(1-2s) / |q0(N, N)|
    amp = 4.0
    if cfg["generator"] in ("mixed", "phi_N-family"):
        log_n = np.log2([2.0, max(3, cfg["k_max"] // 2)])
        _check_phi_n("s", "the A2-like profile", log_n[1], -2 * s)
        gap = np.log2(2.0**n - 2.0)  # |q0(N, N)| = (2^n - 2) N^n
        amp = max(amp, *(-s * log_n), *(1.0 + (1.0 - 2.0 * s - n) * log_n - gap))
    if cfg["estimate"] == "3.1":
        # the product: per cell up to `cells` terms |c1 c2| / lam, times |k| / <sigma> <= 2m / lam,
        # on twice the modes, with the resonance shift |q0| <= 3 (2m)^n / lam^n in sigma
        amp = 2.0 * amp + np.log2(cells * 2.0 * m / lam)
        cells, m, sig = cells**2, 2 * m, 2.0 * sig + 3.0 * (2.0 * m / lam) ** n
    # a field's squared coefficients summed, or a Y^s column's L1 mass squared
    mass = 2.0 * amp + 2.0 * np.log2(cells)
    alone, lo, hi = _zs_weight_range(DispersionModel(j, lam), s, np.log2(np.hypot(1.0, m / lam)),
                                     np.log2(np.hypot(1.0, sig)))
    reach = max(alone, hi + mass, -(lo + mass))
    if not reach < 1022.0:
        raise ConfigError("s", f"the Z^s weights may reach 2^±{reach:.6g}, outside double precision")


def _zs_weight_range(model: DispersionModel, s: float, log_k: float, log_sig: float) -> tuple:
    """(alone, lo, hi): log2 bounds of the Z^s block weights <k>^{2s_e} <sigma>^{2b_e}
    (norms.zs_region_exponents) on cells with log2 <k> <= log_k and log2 <sigma> <= log_sig:
    the largest |log2| of one factor, and the smallest and largest log2 of a weight."""
    alone = lo = hi = 0.0
    for se, be in zs_region_exponents(model, s).values():
        k_pow, sig_pow = 2.0 * se * log_k, 2.0 * be * log_sig
        alone = max(alone, abs(k_pow), abs(sig_pow))
        lo = min(lo, min(k_pow, 0.0) + min(sig_pow, 0.0))
        hi = max(hi, max(k_pow, 0.0) + max(sig_pow, 0.0))
    return alone, lo, hi


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


def _check_contraction(cfg: dict) -> None:
    """Refuse an s whose Z^s block weights may leave 2^-1022 .. 2^1022 on the run's frame
    lattice, |m| <= M/2 and |sigma| <= tau_max + |p(M / 2 lam)|, and an amplitude whose
    squared iterate differences, times those weights, may: a Z^s pass that leaves the
    doubles reads as divergence.  The bounds are read in log space."""
    model = DispersionModel(cfg["j"], cfg["lam"])
    # contraction_experiment's grid: 2 half + 1 frames on [-2.2, 2.2], so tau_max < pi half / 2.2
    half, log_k = cfg["n_frames"] // 2, np.log2(cfg["modes"] / 2.0) - np.log2(cfg["lam"])
    log_sig = np.logaddexp2(np.log2(np.pi * half / 2.2), model.order * log_k)
    alone, lo, hi = _zs_weight_range(model, cfg["s"], *(0.5 * np.logaddexp2(0.0, 2.0 * x)
                                                         for x in (log_k, log_sig)))
    reach = max(alone, hi, -lo)
    if not reach < 1022.0:
        raise ConfigError("s", f"the Z^s weights may reach 2^±{reach:.6g} on the frame lattice, "
                               "outside double precision")
    # the first difference, the Duhamel term of the free flow, is the largest a contracting
    # run forms (a diverging one stops once a difference passes 1e8 times the free flow):
    # with |coeff| <= A = amplitude pi, a frame's is <= (1/2) (28/24) 4.4 k (M / lam) A^2 and
    # the time transform's sum over frames adds n dt <= 4.6, so <= 24 k^2 A^2 in all; summed
    # squared over the cells, or a Y^s column squared
    diff = np.log2(24.0) + 2.0 * (log_k + np.log2(cfg["amplitude"]) + np.log2(np.pi))
    mass = 2.0 * diff + 2.0 * np.log2(cfg["modes"] * (2 * half + 1))
    reach = max(hi + mass, -(lo + mass))
    if not reach < 1022.0:
        raise ConfigError("amplitude", f"the squared iterate differences times the Z^s weights "
                                       f"may reach 2^±{reach:.6g}, outside double precision")


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


def _check_picard(cfg: dict) -> None:
    """Refuse an s whose A2(phi_N), ~ N^-2s, leaves double precision at the largest N, and
    a panel budget the quadrature oracle cannot resolve on some cell."""
    _check_phi_n("s", "A2(phi_N)", np.log2(max(cfg["N_list"])), -2 * cfg["s"])
    for j, N, t, model, u0 in _picard_cells(cfg):
        needed = quadrature_steps_needed(model, u0, t)
        if cfg["steps"] < needed:
            raise ConfigError(
                "steps",
                f"{cfg['steps']} panels cannot resolve the forcing at "
                f"j={j} N={N} t={t}; steps must be >= {needed}",
            )


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
    """A subcommand: its schema, an optional check refusing a resolved config before anything
    is written, and a runner that fills the run context and says whether every verdict passed."""

    help: str
    schema: dict[str, Field]
    run: Callable[[RunContext], bool]
    check: Callable[[dict], None] | None = None


COMMANDS = {
    "simulate": Command("integrate the nonlinear equation and track invariants",
                        SIMULATE_SCHEMA, run_simulate, _check_simulate),
    "illposed-sweep": Command("third-iterate growth exponents across s",
                              ILLPOSED_SCHEMA, run_illposed_sweep, _check_illposed),
    "resonance-audit": Command("exact integer lower-bound audit", AUDIT_SCHEMA, run_resonance_audit),
    "estimate-search": Command("empirical ratio search for one estimate",
                               ESTIMATE_SCHEMA, run_estimate_search, _check_estimate),
    "contraction": Command("cutoff Duhamel map contraction measurement",
                           CONTRACTION_SCHEMA, run_contraction, _check_contraction),
    "picard-check": Command("closed-form vs quadrature oracle agreement",
                            PICARD_SCHEMA, run_picard_check, _check_picard),
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
    """The checked config of a parsed command line; raises ConfigError or FileNotFoundError."""
    command = COMMANDS[args.command]
    raw: dict = {}
    if args.config:
        raw.update(load_config(args.config))
    for override in args.set or []:
        raw.update(parse_config_text(override))
    config = validate_config(raw, {**command.schema, "seed": Field("int", 2025)})
    if command.check is not None:
        command.check(config)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    ctx = RunContext(args.command, config, _make_run_dir(Path(args.out_root), args.command, config))
    passed = COMMANDS[args.command].run(ctx)
    ctx.finish()
    print(f"run directory: {ctx.out_dir}")
    return PASS if passed else SCI_FAIL


if __name__ == "__main__":
    sys.exit(main())
