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
from .torus import DoubleRangeError, SpectralField, TorusGrid


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
        """Semigroup phase speed p(k) = (-1)^{j+1} k^{2j+1} (a numpy scalar for a scalar k)."""
        return self.sign * np.asarray(k, dtype=np.float64) ** self.order

    def check_grid(self, grid: TorusGrid) -> None:
        """Refuse a grid on another torus: the model's multipliers read k = m/lam."""
        if grid.lam != self.lam:
            raise ValueError(f"grid lam {grid.lam} does not match model lam {self.lam}")


def phase_multiplier(model: DispersionModel, k, t) -> np.ndarray:
    """exp(i t p(k)), t a scalar or an array broadcast against k; DoubleRangeError
    names the phase if some t p(k) leaves the doubles."""
    with np.errstate(over="ignore", invalid="ignore"):
        arg = 1j * t * model.phase(k)
    if not np.isfinite(arg).all():
        raise DoubleRangeError("the phase", "some t p(k) is not finite")
    return np.exp(arg)


def free_evolve(model: DispersionModel, u0: SpectralField, t: float) -> SpectralField:
    """Apply the free propagator: coeff(k) -> exp(i t p(k)) coeff(k).  No command
    calls it; it stays here while perfbench/spans.py traces it (ROADMAP item 1)."""
    model.check_grid(u0.grid)
    return SpectralField(u0.grid, u0.coeffs * phase_multiplier(model, u0.grid.k_values, t))


def resonance_q0(n: int, m1, m2):
    """q0 = m1^n + m2^n - (m1+m2)^n on index-lattice modes, n = 2j+1.

    Exact for Python ints; plain (unguarded) arithmetic on int64 arrays.  The
    resonance function of k_i = m_i/lam is q0 / lam^n, and the triple forms
    are q2 = q0(m1, m2+m3) and q1 = q0(m2, m3) + q2.
    """
    return m1**n + m2**n - (m1 + m2) ** n


def _over_r_plus_1(p: list[int]) -> list[int]:
    """p / (r + 1) by synthetic division, ArithmeticError unless p(-1) = 0; every
    polynomial here is a list of Python-int coefficients, lowest power first."""
    q, carry = [0] * max(len(p) - 1, 1), 0
    for i in range(len(p) - 1, 0, -1):
        carry = q[i - 1] = p[i] - carry
    if carry != p[0]:
        raise ArithmeticError("r + 1 does not divide the polynomial")
    return q


def _mobius(p: list[int]) -> list[int]:
    """(1 + x)^deg(p) p(-x/(1 + x)), positive on x > 0 where p is on (-1, 0): p(-x)
    reversed, Taylor-shifted to x + 1 (a suffix sum per pass), reversed back."""
    a = np.array([-c if i % 2 else c for i, c in enumerate(p)][::-1], dtype=object)
    for i in range(len(a) - 1):
        a[i:] = np.cumsum(a[i:][::-1])[::-1]
    return a[::-1].tolist()


def _positive(p: list[int]) -> bool:
    """Descartes' rule of signs, no sign change: p > 0 on x > 0."""
    return min(p) >= 0 and max(p) > 0


def _gap_polynomials(j: int) -> tuple[list[int], list[int], list[int]]:
    """P^2, G and N / (r + 1) of the gap bound at n = 2j + 1.  (k1 + k2)^n - k1^n -
    k2^n = k1 k2 (k1 + k2) P(k1, k2), so on r = k1/k2 the bound's sides have the ratio
    R(r) = |P(r, 1)| / (n |r|^{j-1}); G = (P^2 - n^2 r^{2j-2}) / (r + 1)^2 has the
    sign of R - 1, and N = r (P^2)' - (2j-2) P^2 = n^2 r^{2j-1} d(R^2)/dr."""
    n = 2 * j + 1
    P = np.array(_over_r_plus_1([math.comb(n, i + 1) for i in range(n - 1)]), dtype=object)
    P2 = np.convolve(P, P).tolist()
    F = [c - n * n * (i == 2 * j - 2) for i, c in enumerate(P2)]
    N = [(i - 2 * j + 2) * c for i, c in enumerate(P2)]
    return P2, _over_r_plus_1(_over_r_plus_1(F)), _over_r_plus_1(N)


def _uncertified(j: int, n: int) -> str | None:
    """The first sign condition of the audit that Descartes' rule cannot prove, or
    None.  Condition 1 needs n = 2j + 1, so that R depends on r alone; r < -1 follows
    from R(r) = R(1/r).  At j = 1, G = 0 (the KdV identity, R = 1): 2 and 3 go unused."""
    P2, G, M = _gap_polynomials(j)
    if n != 2 * j + 1 or (any(G) and not (_positive(G) and _positive(_mobius(G)))):
        return "condition 1: G_j > 0 away from r = -1"
    if not any(G):
        return None
    if not _positive([-c for c in _mobius(M)]):  # on (-1, 0), r + 1 > 0 > r^{2j-1}
        return "condition 2: d(R^2)/dr > 0 on (-1, 0)"
    # R(r)^2 > R(-1/2)^2: 4^{j-1} P(r)^2 - 16^{j-1} P(-1/2)^2 r^{2j-2} > 0
    at_half = sum(c * (-1) ** i * 2 ** (4 * j - 4 - i) for i, c in enumerate(P2))
    T = [4 ** (j - 1) * c - at_half * (i == 2 * j - 2) for i, c in enumerate(P2)]
    return None if _positive(T) else "condition 3: R(r) > R(-1/2) on r > 0"


def audit_resonance_bound(model: DispersionModel, kmax: int) -> ExperimentReport:
    """Prove |k^{2j+1}-k1^{2j+1}-k2^{2j+1}| >= (2j+1)|k k1^j k2^j| on every integer
    pair, and report the least ratio on 1 <= |m1|, |m2| <= kmax, m1 + m2 != 0.

    Both sides have degree 2j+1, so lam cancels (k_i = m_i/lam), and their ratio is
    R(r) on r = m1/m2 (`_gap_polynomials`).  `_uncertified` proves by Descartes' rule,
    on (-1, 0) after the Moebius map r = -x/(1 + x) (Collins and Akritas, SYMSAC
    1976): 1. G > 0, so no pair violates the bound; 2. R grows on (-1, 0) away from
    -1, so on r < 0 the least ratio is at -(kmax-1)/kmax or its inverse, first held
    by (-kmax, kmax-1); 3. R on r > 0 exceeds R(-1/2), the largest such least ratio.
    At j = 1 (R = 1) and kmax = 1 (only r = 1) the first pair (-kmax, -kmax) holds
    it.  The cost does not depend on kmax.  A condition left unproved (a wrong lemma
    or a bug) fails the report, and its summary names the condition.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    j, n = model.j, model.order
    failed = _uncertified(j, n)
    if failed:
        summary = {"pairs_checked": 0, "uncertified": failed}
        return ExperimentReport([{"j": j, "kmax": kmax}], summary, passed=False)
    pairs = 2 * kmax * (2 * kmax - 1)
    m1, m2 = (-kmax, -kmax) if j == 1 or kmax == 1 else (-kmax, kmax - 1)
    ratio = float(Fraction(abs(resonance_q0(n, m1, m2)), n * abs(m1 + m2) * abs(m1 * m2) ** j))
    row = {"j": j, "kmax": kmax, "pairs_checked": pairs, "violations": 0, "min_ratio": ratio}
    summary = {"pairs_checked": pairs, "violations": 0, "min_ratio": ratio,
               "min_ratio_pair": [m1, m2], "witnesses": []}
    return ExperimentReport([row], summary, passed=True)


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

