"""Dispersion relation, free semigroup, exact resonance functions, and
modulation regions for the odd-order dispersive equation

    u_t + (-1)^{j+1} d_x^{2j+1} u + (1/2) d_x(u^2) = 0.

The semigroup multiplier is exp(i t p(k)) with p(k) = (-1)^{j+1} k^{2j+1}.
The modulation of a space-time frequency is measured against the same
signed phase, sigma = tau - p(k), so free solutions sit at sigma = 0.

Resonance functions are evaluated in exact integer arithmetic on the
index lattice m (k = m/lam); k^{2j+1} overflows 64-bit floats and ints
long before the mode ranges used here run out.  lam enters only as the
float factor lam^{-(2j+1)} applied afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

from .reporting import ExperimentReport
from .torus import SpectralField


class Region(Enum):
    """Modulation regions partitioning {(tau, k) : |k| >= 1/lam}, plus k = 0."""

    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    ZERO_MODE = "ZeroMode"


@dataclass(frozen=True)
class DispersionModel:
    """Equation order parameter j (order 2j+1) and torus scale lam."""

    j: int
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError(f"j must be a positive integer, got {self.j}")
        if self.j == 1:
            warnings.warn(
                "j = 1 is the classical KdV sanity mode; the well/ill-posedness "
                "thresholds implemented here assume j >= 2",
                stacklevel=2,
            )
        if self.lam < 1:
            raise ValueError(f"lam must be >= 1, got {self.lam}")

    @property
    def order(self) -> int:
        return 2 * self.j + 1

    @property
    def sign(self) -> int:
        return -1 if self.j % 2 == 0 else 1  # (-1)^(j+1)

    def phase(self, k):
        """Semigroup phase speed p(k) = (-1)^{j+1} k^{2j+1}."""
        k = np.asarray(k, dtype=np.float64)
        p = self.sign * k**self.order
        return p if p.ndim else float(p)

    def sigma(self, k, tau):
        """Modulation tau - p(k)."""
        return np.asarray(tau, dtype=np.float64) - self.phase(k)


def free_evolve(model: DispersionModel, u0: SpectralField, t: float) -> SpectralField:
    """Apply the free propagator: coeff(k) -> exp(i t p(k)) coeff(k)."""
    if u0.grid.lam != model.lam:
        raise ValueError(
            f"grid lam {u0.grid.lam} does not match model lam {model.lam}"
        )
    multiplier = np.exp(1j * t * model.phase(u0.grid.k_values))
    return SpectralField(u0.grid, u0.coeffs * multiplier)


def resonance_q0(n: int, m1, m2):
    """q0 = m1^n + m2^n - (m1+m2)^n on index-lattice modes, n = 2j+1.

    Exact for Python ints; plain (unguarded) arithmetic on int64 arrays.  The
    resonance function of k_i = m_i/lam is q0 / lam^n, and the triple forms
    are q2 = q0(m1, m2+m3) and q1 = q0(m2, m3) + q2.
    """
    return m1**n + m2**n - (m1 + m2) ** n


def audit_resonance_bound(model: DispersionModel, kmax: int) -> ExperimentReport:
    """Exhaustively check |k^{2j+1}-k1^{2j+1}-k2^{2j+1}| >= (2j+1)|k k1^j k2^j|.

    Runs over every integer pair 1 <= |m1|, |m2| <= kmax with m1 + m2 != 0,
    entirely in exact integer arithmetic.  Records the minimal LHS/RHS ratio
    and any violating witness (none is expected; a violation would signal an
    implementation bug, since the bound is a proved identity consequence).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
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
    return ExperimentReport(
        kind="resonance-audit",
        inputs={"j": j, "lam": model.lam, "kmax": kmax},
        rows=[
            {
                "j": j,
                "kmax": kmax,
                "pairs_checked": pairs_checked,
                "violations": len(violations),
                "min_ratio": min_ratio,
            }
        ],
        summary={
            "pairs_checked": pairs_checked,
            "violations": len(violations),
            "min_ratio": min_ratio,
            "min_ratio_pair": list(argmin) if argmin else None,
            "witnesses": [list(v) for v in violations[:16]],
        },
        passed=not violations,
    )


def region_masks(
    model: DispersionModel, k: np.ndarray, sigma: np.ndarray
) -> dict[Region, np.ndarray]:
    """Boolean masks per region for (k, sigma) arrays; every cell is in exactly one.

    Boundaries are inclusive toward the lower-indexed region, and |k| = 1
    (covered by both groups of defining inequalities) is assigned to D1-D3.
    """
    k = np.asarray(k, dtype=np.float64)
    n = model.order
    abs_k = np.abs(k)
    abs_s = np.abs(np.asarray(sigma, dtype=np.float64))
    in_inner = abs_s <= (2.0 * n / 3.0) * abs_k ** (n - 1)
    in_outer = abs_s <= 2.0 * n * abs_k**n
    zero = k == 0
    big = abs_k >= 1.0
    small = ~big & ~zero
    return {
        Region.D1: big & in_inner,
        Region.D2: big & ~in_inner & in_outer,
        Region.D3: big & ~in_outer,
        Region.D4: small & ~in_outer,
        Region.D5: small & in_outer,
        Region.ZERO_MODE: zero,
    }


def classify_region(model: DispersionModel, k: float, tau: float) -> Region:
    """The unique modulation region label of one space-time frequency."""
    masks = region_masks(model, k, tau - model.phase(k))
    return next(region for region, mask in masks.items() if mask)


def enumerate_vanishing_q0(model: DispersionModel, kmax: int) -> Iterable[tuple[int, int]]:
    """All integer pairs with m1, m2, m1+m2 nonzero and q0 = 0 (expected empty)."""
    n = model.order
    for m1 in range(-kmax, kmax + 1):
        if m1 == 0:
            continue
        for m2 in range(-kmax, kmax + 1):
            if m2 == 0 or m1 + m2 == 0:
                continue
            if resonance_q0(n, m1, m2) == 0:
                yield (m1, m2)
