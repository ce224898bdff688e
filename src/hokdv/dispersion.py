"""Dispersion relation, free semigroup, exact resonance functions, and
modulation regions for the odd-order dispersive equation

    u_t + (-1)^{j+1} d_x^{2j+1} u + (1/2) d_x(u^2) = 0.

The semigroup multiplier is exp(i t p(k)) with p(k) = (-1)^{j+1} k^{2j+1},
which is exp(-(ik)^{2j+1} t) under coeff(k) = int e^{-ikx} f dx.  With the
solver's 2 pi product factor, the code integrates u_t + d_x^{2j+1} u +
pi d_x(u^2) = 0: the equation above for v(x) = -2 pi u(-x) at even j and
for v = 2 pi u at odd j.  The modulation of a space-time frequency is
measured against the same signed phase, sigma = tau - p(k), so free
solutions sit at sigma = 0.

Resonance functions are evaluated in exact integer arithmetic on the
index lattice m (k = m/lam); k^{2j+1} overflows 64-bit floats and ints
long before the mode ranges used here run out.  lam enters only as the
float factor lam^{-(2j+1)} applied afterwards.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .reporting import ExperimentReport
from .torus import SpectralField, TorusGrid


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

    def check_grid(self, grid: TorusGrid) -> None:
        """Refuse a grid on another torus: the model's multipliers read k = m/lam."""
        if grid.lam != self.lam:
            raise ValueError(f"grid lam {grid.lam} does not match model lam {self.lam}")


def free_evolve(model: DispersionModel, u0: SpectralField, t: float) -> SpectralField:
    """Apply the free propagator: coeff(k) -> exp(i t p(k)) coeff(k)."""
    model.check_grid(u0.grid)
    multiplier = np.exp(1j * t * model.phase(u0.grid.k_values))
    return SpectralField(u0.grid, u0.coeffs * multiplier)


def resonance_q0(n: int, m1, m2):
    """q0 = m1^n + m2^n - (m1+m2)^n on index-lattice modes, n = 2j+1.

    Exact for Python ints; plain (unguarded) arithmetic on int64 arrays.  The
    resonance function of k_i = m_i/lam is q0 / lam^n, and the triple forms
    are q2 = q0(m1, m2+m3) and q1 = q0(m2, m3) + q2.
    """
    return m1**n + m2**n - (m1 + m2) ** n


_AUDIT_ROWS = 32  # m1 rows per audit block
_U = 2.0**-53  # unit roundoff of float64


def _ratio_bounds(float_n, float_r, float_j, off, m1, m2):
    """Certified float64 bounds lo <= lhs/rhs <= hi on the block (m1[:, None], m2).

    float_n, float_r and float_j hold the correctly rounded m^n, n|m| and
    |m|^j at index m + off.  With u = 2^-53, the computed |q0| lies within
    3.1u(|a|+|b|+|c|) of the exact lhs and the computed rhs within 5.1u of
    the exact one, relatively; the 8u and 16u slacks also cover the rounding
    of the bounds themselves.  lo >= 1 therefore certifies lhs >= rhs.
    Pairs with m1 + m2 = 0 or an overflowing power or rhs get hi = inf
    and a lo that is nan or below 1.
    """
    idx = m1[:, None] + (m2 + off)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, c = float_n[idx], float_n[m1 + off][:, None], float_n[m2 + off]
        q = np.abs(a - b - c)
        slack = (np.abs(a) + (np.abs(b) + np.abs(c))) * (8 * _U)
        r = float_r[idx] * float_j[m1 + off][:, None] * float_j[m2 + off]
        lo = (q - slack) / r * (1 - 16 * _U)
        hi = np.where(r < math.inf, (q + slack) / r * (1 + 16 * _U), math.inf)
    return lo, hi


def _first_min(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first minimum of num/den (den > 0) by exact cross products.

    A tournament of adjacent pairs in which the left entry wins ties, so the
    result is the entry a sequential strict-< scan would keep.
    """
    idx = np.arange(num.size)
    while idx.size > 1:
        left, right = idx[0::2], idx[1::2]
        head = left[: right.size]
        right_wins = num[right] * den[head] < num[head] * den[right]
        idx = np.concatenate([np.where(right_wins, right, head), left[right.size :]])
    return int(idx[0])


def audit_resonance_bound(model: DispersionModel, kmax: int) -> ExperimentReport:
    """Check |k^{2j+1}-k1^{2j+1}-k2^{2j+1}| >= (2j+1)|k k1^j k2^j| on every pair.

    Both sides have degree 2j+1, so with k_i = m_i/lam the scale lam cancels:
    the bound does not depend on lam, and the audit reads only model.j and
    model.order, on the integer modes m_i.
    Covers every integer pair 1 <= |m1|, |m2| <= kmax with m1 + m2 != 0 by
    walking one pair per orbit of (m1, m2) -> (m2, m1) and (m1, m2) ->
    (-m1, -m2), under which both sides are invariant: the lexicographically
    first one, which lies in D = {m1 < 0, m1 <= m2, m1 + m2 < 0}.  D is
    walked in blocks of m1 rows in (m1, m2) order, so its first minimal pair
    is the first of all pairs.  A violating pair of D counts its whole orbit
    (2 pairs on the diagonal m1 = m2, 4 elsewhere), and the witnesses are
    the first 16 members of the violating orbits in (m1, m2) order.

    Every verdict is decided exactly.  A float64 filter with a proved
    rounding bound certifies lhs >= rhs on the pairs whose margin exceeds
    that bound and brackets each pair's ratio; exact
    integer arithmetic (int64 where a guard proves every value and cross
    product fits, Python ints otherwise) then settles every pair the filter
    does not certify and every pair whose ratio may be the minimum (a
    filtered exact predicate, after Shewchuk, Discrete Comput. Geom. 18,
    1997).  Records the minimal LHS/RHS ratio, the first pair attaining it
    in (m1, m2) order, and any violating witness (none is expected; a
    violation would signal an implementation bug, since the bound is a
    proved identity consequence).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    j, n = model.j, model.order
    off = 2 * kmax
    pow_n = [m**n for m in range(-off, off + 1)]
    pow_j = [abs(m) ** j for m in range(-off, off + 1)]
    # Correctly rounded; inf (left to the exact step) from 2^1023 on.
    float_n, float_j = (
        np.array([float(p) if p.bit_length() <= 1023 else math.inf for p in pows])
        for pows in (pow_n, pow_j)
    )
    float_r = n * np.abs(np.arange(-off, off + 1, dtype=np.float64))
    max_lhs = (2 * kmax) ** n + 2 * kmax**n
    max_rhs = n * 2 * kmax * kmax ** (2 * j)
    dtype = np.int64 if max_lhs * max_rhs < 2**63 else object
    exact_n, exact_j = np.array(pow_n, dtype=dtype), np.array(pow_j, dtype=dtype)

    rng1 = np.concatenate([np.arange(-kmax, 0), np.arange(1, kmax + 1)])
    pairs_checked = rng1.size * (rng1.size - 1)
    violations: list[tuple[int, int]] = []  # violating pairs of D
    min_num, min_den = None, None  # running min of LHS/RHS as exact pair
    argmin = None
    min_hi = math.inf  # bounds the minimal ratio from above
    for start in range(0, kmax, _AUDIT_ROWS):
        # Rows m1 < 0; columns [m1_first, -m1_first) cover the block's part of D.
        m1 = rng1[start : min(start + _AUDIT_ROWS, kmax)]
        m2 = rng1[start : rng1.size - start - 1]
        lo, hi = _ratio_bounds(float_n, float_r, float_j, off, m1, m2)
        min_hi = min(min_hi, np.fmin.reduce(hi, axis=None))
        in_d = (m1[:, None] <= m2) & (m1[:, None] + m2 < 0)
        # Exact step: every pair of D not certified both lhs >= rhs and above
        # the minimum (nan compares false), walked in (m1, m2) order.
        rows, cols = np.nonzero(in_d & ~((lo >= 1) & (lo > min_hi)))
        if rows.size == 0:
            continue
        p1, p2 = m1[rows], m2[cols]
        p = p1 + p2
        lhs = np.abs(exact_n[p + off] - exact_n[p1 + off] - exact_n[p2 + off])
        rhs = (n * np.abs(p)).astype(dtype) * exact_j[p1 + off] * exact_j[p2 + off]
        bad = lhs < rhs
        violations.extend(zip(p1[bad].tolist(), p2[bad].tolist()))
        i = _first_min(lhs, rhs)
        num, den = int(lhs[i]), int(rhs[i])
        if min_num is None or num * min_den < min_num * den:
            min_num, min_den = num, den
            argmin = (int(p1[i]), int(p2[i]))
    min_ratio = float(Fraction(min_num, min_den)) if min_den else float("nan")
    n_violations = sum(2 if a == b else 4 for a, b in violations)
    orbits = {w for a, b in violations for w in ((a, b), (b, a), (-a, -b), (-b, -a))}
    return ExperimentReport(
        rows=[
            {
                "j": j,
                "kmax": kmax,
                "pairs_checked": pairs_checked,
                "violations": n_violations,
                "min_ratio": min_ratio,
            }
        ],
        summary={
            "pairs_checked": pairs_checked,
            "violations": n_violations,
            "min_ratio": min_ratio,
            "min_ratio_pair": list(argmin) if argmin else None,
            "witnesses": [list(v) for v in sorted(orbits)[:16]],
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
