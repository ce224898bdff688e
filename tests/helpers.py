"""Shared test-field builders."""

from __future__ import annotations

import numpy as np

from hokdv.torus import SpectralField, TorusGrid


def random_band_limited(
    grid: TorusGrid, rng: np.random.Generator, max_mode: int, real: bool = True
) -> SpectralField:
    """Random field supported on |m| <= max_mode (conjugate symmetric if real)."""
    amps: dict[int, complex] = {}
    for m in range(1, max_mode + 1):
        a = rng.normal() + 1j * rng.normal()
        amps[m] = a
        amps[-m] = np.conj(a) if real else rng.normal() + 1j * rng.normal()
    if not real:
        amps[0] = 0.0
    return SpectralField.from_modes(grid, amps)


def random_spacetime_coeffs(
    rng: np.random.Generator, modes: int, t_modes: int
) -> np.ndarray:
    return rng.normal(size=(modes, t_modes)) + 1j * rng.normal(size=(modes, t_modes))


def reference_audit_summary(model, kmax: int) -> dict:
    """The pure-Python double loop `audit_resonance_bound` replaced, as a reference.

    Returns the report's summary dict: every pair in (m1, m2) order, exact
    big-int cross-multiplication, strict-< update of the running minimum.
    """
    from fractions import Fraction

    j, n = model.j, model.order
    pow_n = {m: m**n for m in range(-2 * kmax, 2 * kmax + 1)}
    pow_j = {m: m**j for m in range(-kmax, kmax + 1)}
    pairs_checked = 0
    violations: list[tuple[int, int]] = []
    min_num, min_den = None, None  # running min of LHS/RHS as exact pair
    argmin = None
    rng1 = [m for m in range(-kmax, kmax + 1) if m != 0]
    for m1 in rng1:
        p1 = pow_n[m1]
        jf1 = abs(pow_j[m1])
        for m2 in rng1:
            m = m1 + m2
            if m == 0:
                continue
            pairs_checked += 1
            lhs = abs(pow_n[m] - p1 - pow_n[m2])
            rhs = n * abs(m) * jf1 * abs(pow_j[m2])
            if lhs < rhs:
                violations.append((m1, m2))
            if min_num is None or lhs * min_den < min_num * rhs:
                min_num, min_den = lhs, rhs
                argmin = (m1, m2)
    min_ratio = float(Fraction(min_num, min_den)) if min_den else float("nan")
    return {
        "pairs_checked": pairs_checked,
        "violations": len(violations),
        "min_ratio": min_ratio,
        "min_ratio_pair": list(argmin) if argmin else None,
        "witnesses": [list(v) for v in violations[:16]],
    }


def reference_modulation_cells(m, sig_scaled, coeffs):
    """The lexsort consolidation `ModulationField` used before its radix-backed
    canonical form, as a reference: (m, sig_scaled, coeffs) arrays.

    Drops m = 0 and zero-coefficient cells, sorts by (m, sig) with one lexsort,
    and sums duplicate cells in that order.
    """
    m = np.asarray(m, dtype=np.int64)
    sig = np.asarray(sig_scaled, dtype=np.int64)
    vals = np.asarray(coeffs, dtype=np.complex128)
    keep = (m != 0) & (vals != 0)
    m, sig, vals = m[keep], sig[keep], vals[keep]
    if len(m):
        order = np.lexsort((sig, m))
        m, sig, vals = m[order], sig[order], vals[order]
        new_cell = np.concatenate(([True], (np.diff(m) != 0) | (np.diff(sig) != 0)))
        starts = np.flatnonzero(new_cell)
        vals = np.add.reduceat(vals, starts)
        m, sig = m[starts], sig[starts]
    return m, sig, vals
