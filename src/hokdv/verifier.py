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

evaluated in exact integer arithmetic on the scaled-sigma lattice.  Each
search refuses with torus.Refused, before it draws, a lattice whose cells would
wrap in int64 (`check_search_lattice`, naming k_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dispersion import DispersionModel, Region, region_masks, resonance_q0
from .norms import (
    DyadicShell, ZsNorm, angle_bracket, kept_bounds, kept_indices, segment_sums, xsb_mass,
    zs_norm_cells,
)
from .torus import Refused, check_range, checked_power


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


class _CellPlan:
    """How a list of cells, fields at offsets bounds, reaches canonical form, and
    what its canonical cells alone determine.

    Each field's cells are sorted by (m, sig_scaled) within the field's own
    slice: vals[order] summed over the segments at starts (both None if the
    cells are canonical already), then the cells with m != 0 taken at the
    indices keep (None if no cell has m = 0).  m, sig_scaled and bounds are the canonical
    cells and the fields' offsets among them.  The arrays that depend on those
    cells and the model alone (k, sigma, the smoothed-derivative multiplier,
    the Z^s weights per s) are formed on first use and kept, read-only, as
    they may serve many fields.  A plan never sees coefficients, so it is
    built for cells whose coefficients are all nonzero.

    A product's plan in a memo, when it is used again, gets its pairs by rank
    (rank_pairs): each kept cell's contributing (row, col) pairs of its
    factors' cells, so that pair_sums forms the product's coefficients from the
    factors' coefficients without a gather of every raw value in plan order,
    np.add.reduceat over every segment and the keep take.
    """

    def __init__(self, model: DispersionModel, m: np.ndarray, sig: np.ndarray, bounds: np.ndarray):
        self.model = model
        self.order = self.starts = self.keep = self.head = self.tail = self.long = None
        if not _is_canonical(m, sig, bounds):
            # a stable sort by (field, m, sig) in three stable passes; the m pass
            # sorts offsets from min(m) in the narrowest unsigned type (numpy
            # radix-sorts up to 16 bits), and the uint64 view keeps offsets past
            # 2^63 exact.  Fields stay in their own slices, in their own order.
            order = np.argsort(sig, kind="stable")
            offset = (m[order] - m.min()).view(np.uint64)
            offset = offset.astype(np.min_scalar_type(offset.max()))
            order = order[np.argsort(offset, kind="stable")]
            if len(bounds) > 2:
                ids = np.arange(len(bounds) - 1, dtype=np.min_scalar_type(len(bounds)))
                order = order[np.argsort(np.repeat(ids, np.diff(bounds))[order], kind="stable")]
            m, sig = m[order], sig[order]
            new_cell = (m[1:] != m[:-1]) | (sig[1:] != sig[:-1])
            new_cell[_field_breaks(bounds, len(m))] = True
            starts = np.flatnonzero(np.concatenate(([True], new_cell)))
            self.order, self.starts = order, starts
            m, sig, bounds = m[starts], sig[starts], np.searchsorted(starts, bounds)
        # m = 0 cells merge only with each other: dropping them after the sort
        # leaves the other cells as dropping them before would, on fewer cells
        keep = m != 0
        if not keep.all():
            self.keep = kept_indices(keep)
            m, sig, bounds = m[keep], sig[keep], kept_bounds(keep, bounds)
        self.m, self.sig_scaled, self.bounds = m, sig, bounds
        self.zs_weights: dict = {}  # zs_norm_cells' cache of weight passes by s

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """The canonical coefficients of the planned cells with values vals:
        duplicates summed in canonical order, m = 0 cells dropped."""
        if self.order is not None:
            vals = np.add.reduceat(vals.take(self.order), self.starts)
        if self.keep is not None:
            vals = vals.take(self.keep)
        return vals

    def rank_pairs(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Group a product's pairs by rank: rows and cols index its factors' cells
        (see _pairs), one pair per raw cell.  head is the first pair of every kept
        cell; tail holds, for ranks 1, 2 and 3, the pairs of the cells with 2 to 4
        pairs and the mask of where they add (rank 1 among the cells, ranks 2 and 3
        among rank 1's values); long holds the mask of the cells with 5 pairs or
        more, their pairs in segment order and the segments' offsets (None if
        there is no such cell).  A boolean mask scatters about twice as fast as
        narrow indices."""
        starts = np.arange(len(rows))
        if self.order is not None:
            rows, cols, starts = rows[self.order], cols[self.order], self.starts
        lengths = np.diff(starts, append=len(rows))
        if self.keep is not None:
            starts, lengths = starts[self.keep], lengths[self.keep]
        self.head = rows[starts], cols[starts]
        short = (lengths > 1) & (lengths < 5)
        first, count = starts[short], lengths[short]
        self.tail = [(short, rows[first + 1], cols[first + 1])] if len(first) else []
        for rank in (2, 3):
            at = count > rank
            if at.any():
                self.tail.append((at, rows[first[at] + rank], cols[first[at] + rank]))
        long = lengths >= 5
        self.long = None
        if long.any():
            count = lengths[long]
            offsets = np.cumsum(count) - count
            pos = np.repeat(starts[long] - offsets, count) + np.arange(count.sum())
            self.long = long, rows[pos], cols[pos], offsets

    def pair_sums(self, f: "ModulationField", g: "ModulationField", scale: float):
        """The canonical coefficients of f * g on a plan with pairs by rank, with
        apply's bits.  np.add.reduceat gives a cell its first value plus the sum
        of the rest, which numpy adds in turn while there are at most 3 of them
        (the tail ranks, added into one another before the head) and pairwise
        from 4 on (the long cells, summed by np.add.reduceat itself).  None if
        a pair's value is 0."""
        out = _pair_products(f, g, *self.head, scale)
        if not out.all():
            return None
        if self.tail:
            (cells, rows, cols), *more = self.tail
            tail = _pair_products(f, g, rows, cols, scale)
            if not tail.all():
                return None
            for at, rows, cols in more:
                vals = _pair_products(f, g, rows, cols, scale)
                if not vals.all():
                    return None
                tail[at] += vals
            out[cells] += tail
        if self.long is not None:
            cells, rows, cols, offsets = self.long
            vals = _pair_products(f, g, rows, cols, scale)
            if not vals.all():
                return None
            out[cells] = np.add.reduceat(vals, offsets)
        return out

    @cached_property
    def k(self) -> np.ndarray:
        return _read_only(self.m / self.model.lam)

    @cached_property
    def sigma(self) -> np.ndarray:
        return _read_only(self.sig_scaled / float(_scale(self.model)))

    @cached_property
    def multiplier(self) -> np.ndarray:
        """i k <sigma>^{-1} per cell."""
        return _read_only(1j * self.k / angle_bracket(self.sigma))


class PlanMemo:
    """One search's cell plans, by the key of their cells.  A plan is kept for
    the search once its key comes up a second time; until then only the newest
    plan is kept, so the memo holds the plans of the cells that repeat and one
    more.  A kept plan serves many fields, so its cells are made read-only.
    _run_trials measures the trials whose cells repeat one after another, so
    that their product's plan is the newest when it comes up again; a
    product's plan served from here sums its pairs by rank
    (convolve_modulation)."""

    def __init__(self) -> None:
        self.plans: dict = {}
        self.newest = None

    def recall(self, key) -> _CellPlan | None:
        if key == self.newest:
            self.newest = None  # its second sight: kept for the search
        return self.plans.get(key)

    def keep(self, key, plan: _CellPlan) -> None:
        if self.newest is not None:
            del self.plans[self.newest]
        self.plans[key], self.newest = plan, key
        _read_only(plan.m)
        _read_only(plan.sig_scaled)


class ModulationField:
    """Sparse space-time fields on the curved (m, sigma) lattice.

    sigma values are stored as integers scaled by lam**(2j+1), the exact
    resolution at which resonance shifts act; the physical cell measure
    in tau is dtau = 1.

    Cells with m = 0 or a zero coefficient are dropped; the rest are sorted
    by (m, sig_scaled) and unique, duplicates summed in that order.  Cells
    already in that canonical form are kept as given, without a sort.

    The object is a stack of fields: field i is the cells bounds[i]:bounds[i + 1]
    of the given arrays (bounds None: [0, len(m)], one field), put in canonical
    form on its own, and self.bounds gives their offsets among the kept cells.
    The norms are arrays with one entry per field, each with the bits the field
    gives alone.
    memo, if given, is a search's PlanMemo: a plan for the same cells is taken
    from there, and a new plan is kept there.
    """

    __slots__ = ("model", "m", "sig_scaled", "coeffs", "bounds", "sig_scale", "_plan")

    def __init__(
        self, model: DispersionModel, m, sig_scaled, coeffs, bounds=None,
        memo: PlanMemo | None = None,
    ):
        m = np.asarray(m, dtype=np.int64)
        sig = np.asarray(sig_scaled, dtype=np.int64)
        vals = np.asarray(coeffs, dtype=np.complex128)
        offsets = np.array([0, len(m)]) if bounds is None else np.asarray(bounds, dtype=np.int64)
        keep = vals != 0
        if keep.all():
            key = None if memo is None else (model, m.tobytes(), sig.tobytes(), offsets.tobytes())
            plan = None if memo is None else memo.recall(key)
            if plan is None:
                plan = _CellPlan(model, m, sig, offsets)
                if memo is not None:
                    memo.keep(key, plan)
        else:
            m, sig, vals = m[keep], sig[keep], vals[keep]
            plan = _CellPlan(model, m, sig, kept_bounds(keep, offsets))
        self._set(plan, plan.apply(vals))

    def _set(self, plan: _CellPlan, coeffs: np.ndarray) -> None:
        self.model, self.sig_scale, self._plan = plan.model, _scale(plan.model), plan
        self.m, self.sig_scaled, self.coeffs = plan.m, plan.sig_scaled, coeffs
        self.bounds = plan.bounds

    @classmethod
    def _planned(cls, plan: _CellPlan, coeffs: np.ndarray) -> "ModulationField":
        """The fields on a plan's canonical cells with nonzero coefficients coeffs."""
        field = cls.__new__(cls)
        field._set(plan, coeffs)
        return field

    # -- geometry -----------------------------------------------------------
    @property
    def k(self) -> np.ndarray:
        return self._plan.k

    @property
    def sigma(self) -> np.ndarray:
        return self._plan.sigma

    @property
    def dtau(self) -> float:
        return 1.0

    def is_empty(self) -> bool:
        """True if no field holds a cell."""
        return len(self.m) == 0

    def where(self, keep: np.ndarray) -> "ModulationField":
        """The cells selected by a boolean mask."""
        return ModulationField(
            self.model, self.m[keep], self.sig_scaled[keep], self.coeffs[keep],
            kept_bounds(keep, self.bounds),
        )

    def region_restricted(self, regions: tuple[Region, ...]) -> "ModulationField":
        masks = region_masks(self.model, self.k, self.sigma)
        keep = np.zeros(len(self.m), dtype=bool)
        for r in regions:
            keep |= masks[r]
        return self.where(keep)

    def describe(self, i: int = 0) -> dict:
        """The cells of field i."""
        a, b = self.bounds[i : i + 2]
        cells = zip(*(x[a:b].tolist() for x in (self.m, self.sig_scaled, self.coeffs)))
        return {
            "cells": [
                {"m": mm, "sigma_scaled": ss, "re": v.real, "im": v.imag} for mm, ss, v in cells
            ],
            "sig_scale": self.sig_scale,
        }

    # -- norms (one entry per field) -----------------------------------------
    def l2_norm(self) -> np.ndarray:
        mass = segment_sums(np.abs(self.coeffs) ** 2, self.bounds)
        return np.sqrt(mass * self.dtau / self.model.lam)

    def xsb(self, s: float, b: float, what: str = "the X_{s,b} weights") -> np.ndarray:
        mass = xsb_mass(self.k, self.sigma, self.coeffs, self.dtau, self.model.lam, s, b,
                        bounds=self.bounds, what=what)
        return np.sqrt(mass)

    def zs(self, s: float) -> ZsNorm:
        return zs_norm_cells(
            self.m, self.k, self.sigma, self.coeffs, self.dtau, self.model, s,
            warn_range=False, weights=self._plan.zs_weights, bounds=self.bounds,
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _field_breaks(bounds: np.ndarray, n: int) -> np.ndarray:
    """The neighbour pairs (i, i + 1) of n cells that straddle two fields, by i."""
    inner = bounds[1:-1]
    return inner[(inner > 0) & (inner < n)] - 1


def _is_canonical(m: np.ndarray, sig: np.ndarray, bounds: np.ndarray) -> bool:
    """True if each field's cells are sorted by (m, sig) and unique: m never
    decreases and sig strictly increases where m repeats."""
    ascending = (m[1:] > m[:-1]) | ((m[1:] == m[:-1]) & (sig[1:] > sig[:-1]))
    ascending[_field_breaks(bounds, len(m))] = True
    return bool(ascending.all())


def check_int64_lattice(order: int, m_bound: int, sig_bound: int) -> None:
    """Refuse a product of cells with |m1| + |m2| <= m_bound and |sig1| + |sig2|
    <= sig_bound unless int64 holds every power, partial sum and output exactly:
    Refused names k_max, the search's mode range."""
    if 3 * m_bound**order + sig_bound >= 2**63:
        raise Refused("k_max", "mode or modulation range too large for the exact int64 "
                               "sigma lattice")


def _field_maxima(a: np.ndarray, bounds: np.ndarray) -> list[int]:
    """max |a| over each field's cells, 0 for an empty field; the uint64 view
    keeps |int64 min| = 2^63 exact."""
    out = np.zeros(len(bounds) - 1, dtype=np.uint64)
    filled = np.diff(bounds) > 0
    if filled.any():
        out[filled] = np.maximum.reduceat(np.abs(a).view(np.uint64), bounds[:-1][filled])
    return out.tolist()


def _pairs(fb: np.ndarray, gb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, bounds) of the product of two stacks with field offsets fb and
    gb: the cells f[rows] and g[cols] whose products form it, field by field and
    row-major over (f, g) within a field, and its fields' offsets."""
    nf, ng = np.diff(fb), np.diff(gb)
    reps = np.repeat(ng, nf)  # each f cell meets every g cell of its field
    rows = np.repeat(np.arange(fb[-1]), reps)
    block_start = np.cumsum(reps) - reps - np.repeat(gb[:-1], nf)
    cols = np.arange(len(rows)) - np.repeat(block_start, reps)
    return rows, cols, np.concatenate(([0], np.cumsum(nf * ng)))


def convolve_modulation(
    f: ModulationField, g: ModulationField, memo: PlanMemo | None = None
) -> ModulationField:
    """Bilinear (k, tau) convolution with the normalized measure.

    Output cells are (m1 + m2, sig1 + sig2 + resonance shift); the shift is
    the exact integer gap p(k1) + p(k2) - p(k1+k2) on the scaled lattice.
    For two stacks of as many fields, field i of the product is f_i * g_i.

    memo, if given, is a search's PlanMemo, which holds the cell plans of
    products by their input cells.  A plan found there skips the int64 guard,
    which its cells passed when it was built, and forms the new product from
    its pairs by rank (_CellPlan.pair_sums), with the bits of a fresh call.  A
    product with a zero pair value is canonicalized from its values, as any
    field is.
    """
    model = f.model
    if g.model != model:
        raise ValueError("fields live on different dispersion models")
    fb, gb = f.bounds, g.bounds
    if len(fb) != len(gb):
        raise ValueError("stacks of different numbers of fields")
    scale = f.dtau / model.lam
    key = plan = None
    if memo is not None:
        cells = (f.m, f.sig_scaled, fb, g.m, g.sig_scaled, gb)
        key = (model, *(a.tobytes() for a in cells))
        plan = memo.recall(key)
    if plan is None:  # every pair of nonempty fields must multiply exactly in int64
        sides = ((f.m, fb), (g.m, gb), (f.sig_scaled, fb), (g.sig_scaled, gb))
        mf, mg, sf, sg = (_field_maxima(a, b) for a, b in sides)
        for i in np.flatnonzero((np.diff(fb) > 0) & (np.diff(gb) > 0)).tolist():
            check_int64_lattice(model.order, mf[i] + mg[i], sf[i] + sg[i])
    else:
        if plan.head is None:  # its second use: its pairs by rank, in the narrowest types
            rows, cols, _ = _pairs(fb, gb)
            narrow = np.min_scalar_type
            plan.rank_pairs(rows.astype(narrow(fb[-1])), cols.astype(narrow(gb[-1])))
        vals = plan.pair_sums(f, g, scale)
        if vals is not None:
            return ModulationField._planned(plan, vals)
    m, sig, vals, bounds = _raw_product(f, g, scale)
    if not vals.all():
        return ModulationField(model, m, sig, vals, bounds)
    plan = _CellPlan(model, m, sig, bounds)
    if memo is not None:
        memo.keep(key, plan)
    return ModulationField._planned(plan, plan.apply(vals))


def _pair_products(f: ModulationField, g: ModulationField, rows, cols, scale: float) -> np.ndarray:
    """f.coeffs[rows] * g.coeffs[cols] * scale.  The pair products go to a new array:
    numpy multiplies a one-element array in place without the fused loop that every
    other length takes, so a lone pair would round otherwise (numpy 2.4)."""
    vals = f.coeffs.take(rows) * g.coeffs.take(cols)
    vals *= scale
    return vals


def _raw_product(f: ModulationField, g: ModulationField, scale: float) -> tuple:
    """(m, sig_scaled, vals, bounds): the raw output cells of f * g with their
    values (see _pairs for the order) and the product's field offsets."""
    rows, cols, bounds = _pairs(f.bounds, g.bounds)
    vals = _pair_products(f, g, rows, cols, scale)
    m, m2 = f.m[rows], g.m[cols]
    # exact integer resonance shift on the scaled-sigma lattice
    sig = resonance_q0(f.model.order, m, m2)
    sig *= f.model.sign
    sig += f.sig_scaled[rows]
    sig += g.sig_scaled[cols]
    m += m2
    return m, sig, vals, bounds


def smoothed_derivative(w: ModulationField) -> ModulationField:
    """Apply i k <sigma>^{-1}: the derivative smoothed by one modulation power."""
    vals = w.coeffs * w._plan.multiplier
    if vals.all():  # same cells: keep their plan and what it holds
        return ModulationField._planned(w._plan, vals)
    return ModulationField(w.model, w.m, w.sig_scaled, vals, w.bounds)


# ---------------------------------------------------------------------------
# field generators: the raw cells (m, sig_scaled, coeffs) of one field
# ---------------------------------------------------------------------------


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _gaussian_cells(model: DispersionModel, cfg: RatioSearchConfig, rng) -> tuple:
    p = cfg.support
    m = rng.integers(1, cfg.k_max + 1, size=p) * rng.choice([-1, 1], size=p)
    sig = rng.integers(-cfg.t_modes, cfg.t_modes + 1, size=p) * _scale(model)
    return m, sig, _complex_normal(rng, p)


def _dyadic_cells(
    model: DispersionModel, cfg: RatioSearchConfig, rng, l: int | None = None
) -> tuple:
    if l is None:
        l = int(rng.integers(0, 7))
    p = max(4, cfg.support // 4)
    m = rng.integers(1, cfg.k_max + 1, size=p) * rng.choice([-1, 1], size=p)
    lo, hi = (0, 2) if l == 0 else (2**l, 2 ** (l + 1))
    mag = rng.integers(lo, max(lo + 1, hi), size=p)
    sig = mag * rng.choice([-1, 1], size=p) * _scale(model)
    return m, sig, _complex_normal(rng, p)


def _free_solution_cells(model: DispersionModel, cfg: RatioSearchConfig, rng) -> tuple:
    m = np.arange(1, cfg.k_max + 1)
    m = np.concatenate([m, -m])
    amps = _complex_normal(rng, len(m)) * angle_bracket(m / model.lam) ** (-1.0)
    return m, np.zeros(len(m), dtype=np.int64), amps


def _fixed_tau_cells(model: DispersionModel, cfg: RatioSearchConfig, rng) -> tuple:
    """All mass on the single time-frequency plane tau = 0 (sigma = -p(k)).

    The negative control: unweighted products of such fields add coherently
    and their L2 ratio grows like sqrt(k_max).
    """
    m = np.arange(1, cfg.k_max + 1)
    m = np.concatenate([m, -m])
    n = model.order
    sig = np.array([-model.sign * int(mm) ** n for mm in m], dtype=np.int64)
    return m, sig, np.ones(len(m), dtype=complex)


def _resonant_cells(
    model: DispersionModel, cfg: RatioSearchConfig, rng, s: float, N: int | None = None
) -> tuple[tuple, tuple]:
    """The raw cells of resonant_pair's two fields.  DoubleRangeError names the
    phi_N amplitude N^-s or the A2-like amplitude if it leaves the normal doubles."""
    if N is None:
        N = rng.integers(2, max(3, cfg.k_max // 2) + 1)
    N, n = int(N), model.order
    q0 = resonance_q0(n, N, N)
    try:  # every product of the pair's cells; u2 with itself has the largest sums
        check_int64_lattice(n, 4 * N, 2 * abs(q0))
    except ValueError as err:
        raise ValueError(f"resonant pair at N = {N}: {err}") from None
    amp = checked_power("the phi_N amplitude", N, -s)
    u1 = np.array([N, -N], dtype=np.int64), np.zeros(2, dtype=np.int64), np.array([amp, amp])
    a2_amp = 2.0 * N * checked_power("the A2-like amplitude", amp, 2) / abs(q0)
    check_range("the A2-like amplitude", a2_amp)
    shift = model.sign * q0
    u2 = (
        np.array([2 * N, 2 * N, -2 * N, -2 * N], dtype=np.int64),
        np.array([shift, 0, -shift, 0], dtype=np.int64),
        np.array([a2_amp, -a2_amp, a2_amp, -a2_amp]),
    )
    return u1, u2


def resonant_pair(
    model: DispersionModel, cfg: RatioSearchConfig, rng, s: float, N: int | None = None
) -> tuple[ModulationField, ModulationField]:
    """The two-mode free datum and its windowed second-iterate profile.

    Pairing (free phi_N flow, A2-like output at modulation q0(N, N)) drives
    the product back onto the dispersion surface through the vanishing of
    q1 at the triple (-N, N, N): the same secular mechanism the growth
    sweep measures, expressed at the level of a single bilinear estimate.
    """
    u1, u2 = _resonant_cells(model, cfg, rng, s, N)
    return ModulationField(model, *u1), ModulationField(model, *u2)


_MIXED = ("gaussian-random", "dyadic-concentrated", "free-solution-like", "phi_N-family")
GENERATORS = _MIXED + ("fixed-tau",)  # the negative control is drawn only by name
# the generators whose cells do not depend on the rng, only their coefficients do
_FIXED_CELLS = ("free-solution-like", "fixed-tau")


def check_search_lattice(model: DispersionModel, cfg: RatioSearchConfig, l_max: int = 6) -> None:
    """Refuse cfg if two generated fields may not multiply exactly in int64; l_max is the
    largest dyadic shell asked for, and resonant pairs reach 2N <= max(6, k_max)."""
    m = max(cfg.k_max, 6)
    sig = max(max(cfg.t_modes, 2 ** (max(l_max, 6) + 1)) * _scale(model), m**model.order)
    check_int64_lattice(model.order, 2 * m, 2 * sig)


def _scale(model: DispersionModel) -> int:
    """lam^(2j+1), the integer resolution of the scaled-sigma lattice.

    Only an integral lam keeps resonance shifts integers on that lattice.
    """
    if not float(model.lam).is_integer():
        raise ValueError(f"the sigma lattice needs an integral lam, got {model.lam}")
    return int(model.lam) ** model.order


def field_cells(
    name: str, model: DispersionModel, cfg: RatioSearchConfig, rng, s: float = -1.5
) -> tuple:
    """The raw cells (m, sig_scaled, coeffs) of one field drawn by the named
    generator; ModulationField(model, *cells) is the field."""
    if name == "gaussian-random":
        return _gaussian_cells(model, cfg, rng)
    if name == "dyadic-concentrated":
        return _dyadic_cells(model, cfg, rng)
    if name == "free-solution-like":
        return _free_solution_cells(model, cfg, rng)
    if name == "phi_N-family":
        return _resonant_cells(model, cfg, rng, s)[1]
    if name == "fixed-tau":
        return _fixed_tau_cells(model, cfg, rng)
    raise ValueError(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# ratio searches
# ---------------------------------------------------------------------------

# Product cells one batch of trials may form: one free-solution-like product at
# k_max 128, the largest single product of the searches, so a batch holds no
# more than one trial measured alone did.
_BATCH_CELLS = 65_536


def _batches(sizes: list[int], alone: list[bool]):
    """Trial indices in batches: the trials not alone in batches of at most
    _BATCH_CELLS cells (a larger trial alone), formed in order of size so that
    large trials do not split small ones, then each trial alone in its own."""
    batch, total = [], 0
    for trial in sorted(range(len(sizes)), key=sizes.__getitem__):
        if alone[trial]:
            continue
        if batch and total + sizes[trial] > _BATCH_CELLS:
            yield batch
            batch, total = [], 0
        batch.append(trial)
        total += sizes[trial]
    if batch:
        yield batch
    for trial in np.flatnonzero(alone).tolist():
        yield [trial]


def _stack(model: DispersionModel, cells: list[tuple], memo: PlanMemo) -> ModulationField:
    """The stack of the fields with these raw cells, through the search's memo."""
    m, sig, vals = (np.concatenate(parts) for parts in zip(*cells))
    bounds = np.concatenate(([0], np.cumsum([len(c[0]) for c in cells])))
    return ModulationField(model, m, sig, vals, bounds, memo)


def _run_trials(
    report: RatioReport, model: DispersionModel, cfg: RatioSearchConfig, draw, measure,
    restrict=None,
) -> RatioReport:
    """Fill report with cfg.trials trials of one search.

    Trial t draws the raw cells of its fields as draw(generator, rng), from its
    own stream seeded by (cfg.seed, t), with the configured generator (mixed
    cycles through _MIXED).  Trials are measured in batches (_batches, by the
    product of their fields' raw cell counts): each field of a batch's trials
    is one stack, restrict(*stacks) (if given) gives the stacks measured, and
    measure(memo, *stacks) gives per-trial arrays of the row values and the
    ratio.  A trial whose cells repeat, two fields from a _FIXED_CELLS
    generator, is a batch of its own, after the others: its stacks and their
    product have the same cells in every such trial, so the memo serves their
    plans from the second such trial on.  (A lone field forms no product:
    such trials stay in the batches by size.)  A trial with an empty field
    is counted as skipped.  Rows then go in trial order, and the first trial
    with the largest ratio sets max_ratio, argmax_trial and the witness (its
    fields, described once at the end).
    memo is the search's own PlanMemo: it starts empty and ends with the search.
    """
    memo = PlanMemo()
    gens, draws = [], []
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial)))
        gens.append(_MIXED[trial % len(_MIXED)] if cfg.generator == "mixed" else cfg.generator)
        draws.append(draw(gens[-1], rng))
    measured = {}
    best = None  # (ratio, -trial, stacks, index): the largest ratio so far, its first trial
    sizes = [math.prod(len(cells[0]) for cells in d) for d in draws]
    alone = [len(d) == 2 and gen in _FIXED_CELLS for gen, d in zip(gens, draws)]
    for batch in _batches(sizes, alone):
        sides = zip(*(draws[t] for t in batch))
        stacks = tuple(_stack(model, list(cells), memo) for cells in sides)
        if restrict is not None:
            stacks = restrict(*stacks)
        values, ratios = measure(memo, *stacks)
        columns = {key: v.tolist() for key, v in values.items()}
        filled = np.logical_and.reduce([np.diff(f.bounds) > 0 for f in stacks]).tolist()
        for i, (trial, ratio) in enumerate(zip(batch, ratios.tolist())):
            if not filled[i]:
                continue
            measured[trial] = {key: col[i] for key, col in columns.items()}
            if ratio > 0.0 and (best is None or (ratio, -trial) > best[:2]):
                best = ratio, -trial, stacks, i
    for trial, gen in enumerate(gens):
        if trial not in measured:
            report.skipped += 1
            continue
        report.rows.append({"trial": trial, "generator": gen, **measured[trial]})
    if best is not None:  # the argmax trial and its fields
        report.max_ratio, neg_trial, stacks, i = best
        report.argmax_trial = -neg_trial
        report.witness = {"fields": [f.describe(i) for f in stacks]}
    return report


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per trial, 0 where den is not positive."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _lhs_rhs(lhs: np.ndarray, rhs: np.ndarray) -> tuple[dict, np.ndarray]:
    ratio = _ratio(lhs, rhs)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}, ratio


def dyadic_bilinear_ratio(
    model: DispersionModel, l1: int, l2: int, cfg: RatioSearchConfig
) -> RatioReport:
    """Shell-localized product bound: L2 of the convolution against
    (2^{l1} ^ 2^{l2})^{1/2} (2^{l1} v 2^{l2})^{1/(2(2j+1))} times the input masses.

    Fields are drawn in their shells, yet each is restricted to DyadicShell(l)
    again: from l = 53 on, a drawn |sigma| near 2^{l+1} rounds to 2^{l+1} in
    float64 and leaves the shell, and a trial left with an empty field is skipped.
    It draws no other fields: Refused names a generator other than mixed."""
    if cfg.generator != "mixed":
        raise Refused("generator", "estimate 2.1 draws only dyadic-concentrated fields")
    check_search_lattice(model, cfg, max(l1, l2))
    lo, hi = sorted((2.0**l1, 2.0**l2))
    prefactor = lo**0.5 * hi ** (1.0 / (2.0 * (2.0 * model.j + 1.0)))

    def draw(gen, rng):
        return _dyadic_cells(model, cfg, rng, l=l1), _dyadic_cells(model, cfg, rng, l=l2)

    def restrict(u1, u2):
        return u1.where(DyadicShell(l1).mask(u1.sigma)), u2.where(DyadicShell(l2).mask(u2.sigma))

    def measure(memo, u1, u2):
        lhs = convolve_modulation(u1, u2, memo).l2_norm()
        return _lhs_rhs(lhs, prefactor * u1.l2_norm() * u2.l2_norm())

    report = RatioReport(params={"j": model.j, "lam": model.lam, "l1": l1, "l2": l2, **vars(cfg)})
    # every trial draws dyadic-concentrated fields, and its rows say so
    cfg = replace(cfg, generator="dyadic-concentrated")
    return _run_trials(report, model, cfg, draw, measure, restrict)


def product_l2_ratio(
    model: DispersionModel, a: float, b: float, cfg: RatioSearchConfig
) -> RatioReport:
    """L2 product bound ||uv|| <= C ||u||_{X_{0,a}} ||v||_{X_{0,b}}.

    Admissibility (a + b >= (j+1)/(2j+1), min(a,b) > 1/(2(2j+1))) is checked
    and recorded; inadmissible pairs run as flagged exploratory searches.
    """
    check_search_lattice(model, cfg)
    j = model.j
    admissible = (a + b >= (j + 1) / (2 * j + 1) - 1e-12) and min(a, b) > 1 / (
        2 * (2 * j + 1)
    )

    def draw(gen, rng):
        return field_cells(gen, model, cfg, rng), field_cells(gen, model, cfg, rng)

    def measure(memo, u, v):
        rhs = u.xsb(0.0, a, "the X_{0,a} weights") * v.xsb(0.0, b, "the X_{0,b} weights")
        return _lhs_rhs(convolve_modulation(u, v, memo).l2_norm(), rhs)

    report = RatioReport(
        params={"j": j, "lam": model.lam, "a": a, "b": b, **vars(cfg)},
        flags=[] if admissible else ["inadmissible-exponents"],
    )
    return _run_trials(report, model, cfg, draw, measure)


def embedding_ratio(
    model: DispersionModel, s: float, cfg: RatioSearchConfig
) -> RatioReport:
    """The three embedding directions tying X_{s, 1/(2j)}, Z^s, X_{s, (2j-1)/(2j)},
    plus the D1-u-D2-restricted X_{s, 1/2} control.

    Each trial's ratio is the largest of its three directions; the maximum of
    each direction over the trials is reported as params["max_by_direction"]."""
    check_search_lattice(model, cfg)
    j = model.j
    directions = ("low_vs_zs", "zs_vs_high", "half_d12_vs_zs")

    def draw(gen, rng):
        return (field_cells(gen, model, cfg, rng, s=s),)

    def measure(memo, u):
        zs = u.zs(s).total
        low = u.xsb(s, 1.0 / (2.0 * j))
        high = u.xsb(s, (2.0 * j - 1.0) / (2.0 * j))
        u12 = u.region_restricted((Region.D1, Region.D2))
        zs12 = u12.zs(s).total
        half12 = u12.xsb(s, 0.5)
        ratios = (_ratio(low, zs), _ratio(zs, high), _ratio(half12, zs12))
        return dict(zip(directions, ratios)), np.max(ratios, axis=0)

    report = RatioReport(params={"j": j, "lam": model.lam, "s": s, **vars(cfg)})
    _run_trials(report, model, cfg, draw, measure)
    report.params["max_by_direction"] = {
        key: max([0.0, *(row[key] for row in report.rows)]) for key in directions
    }
    return report


def bilinear_zs_ratio(
    model: DispersionModel, s: float, cfg: RatioSearchConfig
) -> RatioReport:
    """The product estimate in the resolution space:

        || <sigma>^{-1} d_x (u1 u2) ||_{Z^s}  <=  C ||u1||_{Z^s} ||u2||_{Z^s},

    probed over random and adversarial pairs, including the resonant
    two-mode family that saturates it below the threshold regularity."""
    check_search_lattice(model, cfg)

    def draw(gen, rng):
        if gen == "phi_N-family":
            return _resonant_cells(model, cfg, rng, s)
        return field_cells(gen, model, cfg, rng, s=s), field_cells(gen, model, cfg, rng, s=s)

    def measure(memo, u1, u2):
        w = smoothed_derivative(convolve_modulation(u1, u2, memo))
        return _lhs_rhs(w.zs(s).total, u1.zs(s).total * u2.zs(s).total)

    report = RatioReport(params={"j": model.j, "lam": model.lam, "s": s, **vars(cfg)})
    return _run_trials(report, model, cfg, draw, measure)
