"""Empirical ratio searches for the bilinear and embedding estimates.

Random fields cannot certify a functional inequality; they can only
falsify it or bound its constant from below.  Accordingly, every search
here reports measured ratios with reproducible witnesses, and the test
suite asserts only trend properties (boundedness across lattice sizes,
growth of known-inadmissible configurations).

Fields are sparse collections of (k, tau) cells stored in a curved
parameterization hugging the dispersion surface: a cell is (m, sigma)
with k = m/lam and tau = p(k) + sigma.  A uniform tau window could never
reach the surface at large |k| (p(k) ~ k^{2j+1}); on the curved lattice
every modulation size is representable at every mode, and the bilinear
convolution picks up exactly the resonance shift

    sigma_out = sigma_1 + sigma_2 + p(k1) + p(k2) - p(k1 + k2),

evaluated in exact integer arithmetic on the scaled-sigma lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionModel, Region, region_masks, resonance_q0
from .norms import DyadicShell, ZsNorm, angle_bracket, xsb_mass, zs_norm_cells


@dataclass(frozen=True)
class RatioSearchConfig:
    """Reproducible trial budget and lattice bounds for a ratio search."""

    trials: int = 100
    k_max: int = 32
    t_modes: int = 64  # sigma lattice slots per side of 0
    support: int = 48  # populated cells per random field
    generator: str = "mixed"
    seed: int = 2025

    def __post_init__(self) -> None:
        if self.trials < 1 or self.k_max < 2 or self.t_modes < 4 or self.support < 1:
            raise ValueError("degenerate search configuration")


@dataclass
class RatioReport:
    """Per-trial ratio rows plus the max and its replayable witness."""

    params: dict
    rows: list[dict] = field(default_factory=list)
    max_ratio: float = 0.0
    argmax_trial: int = -1
    witness: dict | None = None
    skipped: int = 0
    flags: list[str] = field(default_factory=list)


class ModulationField:
    """Sparse space-time field on the curved (m, sigma) lattice.

    sigma values are stored as integers scaled by lam**(2j+1), the exact
    resolution at which resonance shifts act; the physical cell measure
    in tau is dtau = 1.

    Cells with m = 0 or a zero coefficient are dropped; the rest are sorted
    by (m, sig_scaled) and unique, duplicates summed in that order.  Cells
    already in that canonical form are kept as given, without a sort.
    """

    __slots__ = ("model", "m", "sig_scaled", "coeffs", "sig_scale")

    def __init__(self, model: DispersionModel, m, sig_scaled, coeffs):
        self.model = model
        self.sig_scale = _scale(model)
        m = np.asarray(m, dtype=np.int64)
        sig = np.asarray(sig_scaled, dtype=np.int64)
        vals = np.asarray(coeffs, dtype=np.complex128)
        keep = vals != 0
        if not keep.all():
            m, sig, vals = m[keep], sig[keep], vals[keep]
        if not _is_canonical(m, sig):
            # lexsort((sig, m)) as two stable passes; the m pass sorts offsets
            # from min(m) in the narrowest unsigned type (numpy radix-sorts up
            # to 16 bits), and the uint64 view keeps offsets past 2^63 exact
            order = np.argsort(sig, kind="stable")
            offset = (m[order] - m.min()).view(np.uint64)
            offset = offset.astype(np.min_scalar_type(offset.max()))
            order = order[np.argsort(offset, kind="stable")]
            m, sig = m[order], sig[order]
            new_cell = (m[1:] != m[:-1]) | (sig[1:] != sig[:-1])
            starts = np.flatnonzero(np.concatenate(([True], new_cell)))
            vals = np.add.reduceat(vals[order], starts)
            m, sig = m[starts], sig[starts]
        # m = 0 cells merge only with each other: dropping them after the sort
        # leaves the other cells as dropping them before would, on fewer cells
        keep = m != 0
        if not keep.all():
            m, sig, vals = m[keep], sig[keep], vals[keep]
        self.m = m
        self.sig_scaled = sig
        self.coeffs = vals

    # -- geometry -----------------------------------------------------------
    @property
    def k(self) -> np.ndarray:
        return self.m / self.model.lam

    @property
    def sigma(self) -> np.ndarray:
        return self.sig_scaled / float(self.sig_scale)

    @property
    def dtau(self) -> float:
        return 1.0

    def is_empty(self) -> bool:
        return len(self.m) == 0

    def where(self, keep: np.ndarray) -> "ModulationField":
        """The cells selected by a boolean mask."""
        return ModulationField(
            self.model, self.m[keep], self.sig_scaled[keep], self.coeffs[keep]
        )

    def region_restricted(self, regions: tuple[Region, ...]) -> "ModulationField":
        masks = region_masks(self.model, self.k, self.sigma)
        keep = np.zeros(len(self.m), dtype=bool)
        for r in regions:
            keep |= masks[r]
        return self.where(keep)

    def describe(self) -> dict:
        return {
            "cells": [
                {
                    "m": int(mm),
                    "sigma_scaled": int(ss),
                    "re": float(vv.real),
                    "im": float(vv.imag),
                }
                for mm, ss, vv in zip(self.m, self.sig_scaled, self.coeffs)
            ],
            "sig_scale": self.sig_scale,
        }

    # -- norms ---------------------------------------------------------------
    def l2_norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.coeffs) ** 2) * self.dtau / self.model.lam)
        )

    def xsb(self, s: float, b: float) -> float:
        return float(
            np.sqrt(
                xsb_mass(self.k, self.sigma, self.coeffs, self.dtau, self.model.lam, s, b)
            )
        )

    def zs(self, s: float, warn_range: bool = False) -> ZsNorm:
        return zs_norm_cells(
            self.m,
            self.k,
            self.sigma,
            self.coeffs,
            self.dtau,
            self.model,
            s,
            warn_range=warn_range,
        )


def _is_canonical(m: np.ndarray, sig: np.ndarray) -> bool:
    """True if the cells are sorted by (m, sig) and unique: m never decreases
    and sig strictly increases where m repeats."""
    if (m[1:] < m[:-1]).any():
        return False
    same_m = m[1:] == m[:-1]
    return not (sig[1:][same_m] <= sig[:-1][same_m]).any()


def check_int64_lattice(order: int, m_bound: int, sig_bound: int) -> None:
    """Refuse a product of cells with |m1| + |m2| <= m_bound and |sig1| + |sig2|
    <= sig_bound unless int64 holds every power, partial sum and output exactly."""
    if 3 * m_bound**order + sig_bound >= 2**63:
        raise ValueError("mode or modulation range too large for the exact int64 sigma lattice")


def convolve_modulation(f: ModulationField, g: ModulationField) -> ModulationField:
    """Bilinear (k, tau) convolution with the normalized measure.

    Output cells are (m1 + m2, sig1 + sig2 + resonance shift); the shift is
    the exact integer gap p(k1) + p(k2) - p(k1+k2) on the scaled lattice.
    """
    model = f.model
    if g.model != model:
        raise ValueError("fields live on different dispersion models")
    if f.is_empty() or g.is_empty():
        return ModulationField(model, [], [], [])
    n = model.order
    # largest |value| per array; the uint64 view keeps |int64 min| = 2^63 exact
    arrays = (f.m, g.m, f.sig_scaled, g.sig_scaled)
    mf, mg, sf, sg = (int(np.abs(a).view(np.uint64).max()) for a in arrays)
    check_int64_lattice(n, mf + mg, sf + sg)
    m1 = f.m[:, None]
    m2 = g.m[None, :]
    m_out = m1 + m2
    # exact integer resonance shift on the scaled-sigma lattice
    shift = model.sign * resonance_q0(n, m1, m2)
    sig_out = f.sig_scaled[:, None] + g.sig_scaled[None, :] + shift
    vals = np.outer(f.coeffs, g.coeffs) * (f.dtau / model.lam)
    return ModulationField(model, m_out.ravel(), sig_out.ravel(), vals.ravel())


def smoothed_derivative(w: ModulationField) -> ModulationField:
    """Apply i k <sigma>^{-1}: the derivative smoothed by one modulation power."""
    mult = 1j * w.k / angle_bracket(w.sigma)
    return ModulationField(w.model, w.m, w.sig_scaled, w.coeffs * mult)


# ---------------------------------------------------------------------------
# field generators
# ---------------------------------------------------------------------------


def _rng_for(cfg: RatioSearchConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, trial)))


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def gaussian_random_field(
    model: DispersionModel, cfg: RatioSearchConfig, rng
) -> ModulationField:
    p = cfg.support
    m = rng.integers(1, cfg.k_max + 1, size=p) * rng.choice([-1, 1], size=p)
    sig = rng.integers(-cfg.t_modes, cfg.t_modes + 1, size=p) * _scale(model)
    return ModulationField(model, m, sig, _complex_normal(rng, p))


def dyadic_concentrated_field(
    model: DispersionModel, cfg: RatioSearchConfig, rng, l: int | None = None
) -> ModulationField:
    if l is None:
        l = int(rng.integers(0, 7))
    p = max(4, cfg.support // 4)
    m = rng.integers(1, cfg.k_max + 1, size=p) * rng.choice([-1, 1], size=p)
    lo, hi = (0, 2) if l == 0 else (2**l, 2 ** (l + 1))
    mag = rng.integers(lo, max(lo + 1, hi), size=p)
    sig = mag * rng.choice([-1, 1], size=p) * _scale(model)
    return ModulationField(model, m, sig, _complex_normal(rng, p))


def free_solution_field(
    model: DispersionModel, cfg: RatioSearchConfig, rng
) -> ModulationField:
    m = np.arange(1, cfg.k_max + 1)
    m = np.concatenate([m, -m])
    amps = _complex_normal(rng, len(m)) * angle_bracket(m / model.lam) ** (-1.0)
    return ModulationField(model, m, np.zeros(len(m), dtype=np.int64), amps)


def fixed_tau_field(
    model: DispersionModel, cfg: RatioSearchConfig, rng
) -> ModulationField:
    """All mass on the single time-frequency plane tau = 0 (sigma = -p(k)).

    The negative control: unweighted products of such fields add coherently
    and their L2 ratio grows like sqrt(k_max).
    """
    m = np.arange(1, cfg.k_max + 1)
    m = np.concatenate([m, -m])
    n = model.order
    sig = np.array([-model.sign * int(mm) ** n for mm in m], dtype=np.int64)
    return ModulationField(model, m, sig, np.ones(len(m), dtype=complex))


def resonant_pair(
    model: DispersionModel, cfg: RatioSearchConfig, rng, s: float, N: int | None = None
) -> tuple[ModulationField, ModulationField]:
    """The two-mode free datum and its windowed second-iterate profile.

    Pairing (free phi_N flow, A2-like output at modulation q0(N, N)) drives
    the product back onto the dispersion surface through the vanishing of
    q1 at the triple (-N, N, N): the same secular mechanism the growth
    sweep measures, expressed at the level of a single bilinear estimate.
    """
    if N is None:
        N = rng.integers(2, max(3, cfg.k_max // 2) + 1)
    N, n = int(N), model.order
    q0 = resonance_q0(n, N, N)
    try:  # every product of the pair's cells; u2 with itself has the largest sums
        check_int64_lattice(n, 4 * N, 2 * abs(q0))
    except ValueError as err:
        raise ValueError(f"resonant pair at N = {N}: {err}") from None
    amp = float(N) ** (-s)
    u1 = ModulationField(model, [N, -N], [0, 0], [amp, amp])
    a2_amp = 2.0 * N * amp**2 / abs(q0)
    shift = model.sign * q0
    u2 = ModulationField(
        model,
        [2 * N, 2 * N, -2 * N, -2 * N],
        [shift, 0, -shift, 0],
        [a2_amp, -a2_amp, a2_amp, -a2_amp],
    )
    return u1, u2


_MIXED = ("gaussian-random", "dyadic-concentrated", "free-solution-like", "phi_N-family")
GENERATORS = _MIXED + ("fixed-tau",)  # the negative control is drawn only by name


def check_search_lattice(order: int, lam: int, cfg: RatioSearchConfig, l_max: int = 6) -> None:
    """Refuse cfg if two generated fields may not multiply exactly in int64; l_max is the
    largest dyadic shell asked for, and resonant pairs reach 2N <= max(6, k_max)."""
    m = max(cfg.k_max, 6)
    sig = max(max(cfg.t_modes, 2 ** (max(l_max, 6) + 1)) * lam**order, m**order)
    check_int64_lattice(order, 2 * m, 2 * sig)


def _scale(model: DispersionModel) -> int:
    """lam^(2j+1), the integer resolution of the scaled-sigma lattice.

    Only an integral lam keeps resonance shifts integers on that lattice.
    """
    if not float(model.lam).is_integer():
        raise ValueError(f"the sigma lattice needs an integral lam, got {model.lam}")
    return int(model.lam) ** model.order


def generate_field(
    name: str, model: DispersionModel, cfg: RatioSearchConfig, rng, s: float = -1.5
) -> ModulationField:
    if name == "gaussian-random":
        return gaussian_random_field(model, cfg, rng)
    if name == "dyadic-concentrated":
        return dyadic_concentrated_field(model, cfg, rng)
    if name == "free-solution-like":
        return free_solution_field(model, cfg, rng)
    if name == "phi_N-family":
        return resonant_pair(model, cfg, rng, s)[1]
    if name == "fixed-tau":
        return fixed_tau_field(model, cfg, rng)
    raise ValueError(f"unknown generator {name!r}")


def _pick_generator(cfg: RatioSearchConfig, trial: int) -> str:
    if cfg.generator != "mixed":
        return cfg.generator
    return _MIXED[trial % len(_MIXED)]


# ---------------------------------------------------------------------------
# ratio searches
# ---------------------------------------------------------------------------


def _update(report: RatioReport, trial: int, gen: str, lhs: float, rhs: float,
            witness_fields: list[ModulationField]) -> None:
    ratio = lhs / rhs if rhs > 0 else 0.0
    report.rows.append(
        {"trial": trial, "generator": gen, "lhs": lhs, "rhs": rhs, "ratio": ratio}
    )
    if ratio > report.max_ratio:
        report.max_ratio = ratio
        report.argmax_trial = trial
        report.witness = {"fields": [f.describe() for f in witness_fields]}


def dyadic_bilinear_ratio(
    model: DispersionModel, l1: int, l2: int, cfg: RatioSearchConfig
) -> RatioReport:
    """Shell-localized product bound: L2 of the convolution against
    (2^{l1} ^ 2^{l2})^{1/2} (2^{l1} v 2^{l2})^{1/(2(2j+1))} times the input masses."""
    report = RatioReport(
        params={"j": model.j, "lam": model.lam, "l1": l1, "l2": l2, **vars(cfg)}
    )
    lo, hi = sorted((2.0**l1, 2.0**l2))
    prefactor = lo**0.5 * hi ** (1.0 / (2.0 * (2.0 * model.j + 1.0)))
    for trial in range(cfg.trials):
        rng = _rng_for(cfg, trial)
        gen = "dyadic-concentrated"
        u1 = dyadic_concentrated_field(model, cfg, rng, l=l1)
        u2 = dyadic_concentrated_field(model, cfg, rng, l=l2)
        u1 = u1.where(DyadicShell(l1).mask(u1.sigma))
        u2 = u2.where(DyadicShell(l2).mask(u2.sigma))
        if u1.is_empty() or u2.is_empty():
            report.skipped += 1
            continue
        lhs = convolve_modulation(u1, u2).l2_norm()
        rhs = prefactor * u1.l2_norm() * u2.l2_norm()
        _update(report, trial, gen, lhs, rhs, [u1, u2])
    return report


def product_l2_ratio(
    model: DispersionModel, a: float, b: float, cfg: RatioSearchConfig
) -> RatioReport:
    """L2 product bound ||uv|| <= C ||u||_{X_{0,a}} ||v||_{X_{0,b}}.

    Admissibility (a + b >= (j+1)/(2j+1), min(a,b) > 1/(2(2j+1))) is checked
    and recorded; inadmissible pairs run as flagged exploratory searches.
    """
    j = model.j
    admissible = (a + b >= (j + 1) / (2 * j + 1) - 1e-12) and min(a, b) > 1 / (
        2 * (2 * j + 1)
    )
    report = RatioReport(
        params={"j": j, "lam": model.lam, "a": a, "b": b, **vars(cfg)},
        flags=[] if admissible else ["inadmissible-exponents"],
    )
    for trial in range(cfg.trials):
        rng = _rng_for(cfg, trial)
        gen = _pick_generator(cfg, trial)
        u = generate_field(gen, model, cfg, rng)
        v = generate_field(gen, model, cfg, rng)
        if u.is_empty() or v.is_empty():
            report.skipped += 1
            continue
        lhs = convolve_modulation(u, v).l2_norm()
        rhs = u.xsb(0.0, a) * v.xsb(0.0, b)
        _update(report, trial, gen, lhs, rhs, [u, v])
    return report


def embedding_ratio(
    model: DispersionModel, s: float, cfg: RatioSearchConfig
) -> RatioReport:
    """The three embedding directions tying X_{s, 1/(2j)}, Z^s, X_{s, (2j-1)/(2j)},
    plus the D1-u-D2-restricted X_{s, 1/2} control."""
    j = model.j
    report = RatioReport(params={"j": j, "lam": model.lam, "s": s, **vars(cfg)})
    maxes = {"low_vs_zs": 0.0, "zs_vs_high": 0.0, "half_d12_vs_zs": 0.0}
    for trial in range(cfg.trials):
        rng = _rng_for(cfg, trial)
        gen = _pick_generator(cfg, trial)
        u = generate_field(gen, model, cfg, rng, s=s)
        if u.is_empty():
            report.skipped += 1
            continue
        zs = u.zs(s).total
        low = u.xsb(s, 1.0 / (2.0 * j))
        high = u.xsb(s, (2.0 * j - 1.0) / (2.0 * j))
        u12 = u.region_restricted((Region.D1, Region.D2))
        zs12 = u12.zs(s).total
        half12 = u12.xsb(s, 0.5)
        row = {
            "trial": trial,
            "generator": gen,
            "low_vs_zs": low / zs if zs > 0 else 0.0,
            "zs_vs_high": zs / high if high > 0 else 0.0,
            "half_d12_vs_zs": half12 / zs12 if zs12 > 0 else 0.0,
        }
        report.rows.append(row)
        for key in maxes:
            if row[key] > maxes[key]:
                maxes[key] = row[key]
                if key == "low_vs_zs":
                    report.argmax_trial = trial
                    report.witness = {"fields": [u.describe()]}
    report.max_ratio = max(maxes.values())
    report.params["max_by_direction"] = maxes
    return report


def bilinear_zs_ratio(
    model: DispersionModel, s: float, cfg: RatioSearchConfig
) -> RatioReport:
    """The product estimate in the resolution space:

        || <sigma>^{-1} d_x (u1 u2) ||_{Z^s}  <=  C ||u1||_{Z^s} ||u2||_{Z^s},

    probed over random and adversarial pairs, including the resonant
    two-mode family that saturates it below the threshold regularity."""
    report = RatioReport(params={"j": model.j, "lam": model.lam, "s": s, **vars(cfg)})
    for trial in range(cfg.trials):
        rng = _rng_for(cfg, trial)
        gen = _pick_generator(cfg, trial)
        if gen == "phi_N-family":
            u1, u2 = resonant_pair(model, cfg, rng, s)
        else:
            u1 = generate_field(gen, model, cfg, rng, s=s)
            u2 = generate_field(gen, model, cfg, rng, s=s)
        if u1.is_empty() or u2.is_empty():
            report.skipped += 1
            continue
        w = smoothed_derivative(convolve_modulation(u1, u2))
        lhs = w.zs(s).total
        rhs = u1.zs(s).total * u2.zs(s).total
        _update(report, trial, gen, lhs, rhs, [u1, u2])
    return report
