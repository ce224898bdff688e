"""Closed-form Picard iterates of the Duhamel expansion and the two-mode
data family driving the ill-posedness measurement.

With u1(t) = S(t) u0, the second and third expansion kernels are

    A2(u0)(t) = int_0^t S(t-s) d_x(u1(s)^2) ds,
    A3(u0)(t) = 2 int_0^t S(t-s) d_x(u1(s) A2(u0)(s)) ds,

where the quadratic product is the normalized lattice convolution.  Both
are one Duhamel kernel, int_0^t S(t-s) d_x(L R)(s) ds for L and R given as
sums of waves c e^{i s w}: A2 applies it to u1's free waves on both sides,
and A3 to u1's waves and A2's, which A3 reads off the pairs A2's kernel
walks.  Each pair of waves has an exact integer gap whose frequency w sets
its weight E(t, w) = (e^{itw} - 1)/(iw), so the resonant limit E(t, 0) = t
is taken exactly, never by a floating-point threshold.  The kernel phases
only the modes its pairs fill.  `second_iterate_closed` returns A2 as a
SpectralField, `third_iterate_closed` the pair (A3, resonant_terms).

The growth sweep walks A3 once per N, at the amplitude where A3 ~ N^0, and
rescales it to every s, since A3 is cubic in the data.

Each number that could leave the doubles is checked where it is formed,
with torus.DoubleRangeError naming it: the phi_N amplitude N^-s, a pair's
weight and gap frequency, the phase e^{itp(k)}, and in the sweep A3, its
rescaling and its squared norm.  torus.Refused names an input a rule here
refuses: phi_N's N off the grid, the oracle's `steps`, and the sweep's `t`.

A quadrature oracle evaluates the A2 integral by a fourth-order
exponential rule that never forms resonance functions, providing an
independent check on every sign and combinatorial factor of the kernel
that both closed forms run.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .dispersion import DispersionModel, phase_multiplier, resonance_q0
from .expquad import exponential_weights, lagrange_monomial_basis
from .reporting import ExperimentReport
from .torus import (TINY, Refused, SpectralField, TorusGrid, check_range, checked_power,
                    doubles, full_spectrum, half_spectrum, lattice_square, product_scale)


class ResonanceConsistencyError(RuntimeError):
    """A denominator resonance vanished where the integer bound forbids it."""


def phi_n_data(N: int, s: float, grid: TorusGrid) -> SpectralField:
    """Build the two-mode field N^{-s} (chi_N + chi_{-N}) on the grid.

    The grid must also hold mode 3N so that third-iterate output cannot
    silently alias (else Refused names N).
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if 3 * N >= grid.modes // 2:
        raise Refused("N", f"grid with {grid.modes} modes cannot hold mode 3N = {3 * N}; "
                           "enlarge the lattice to avoid aliased iterates")
    amp = checked_power("the phi_N amplitude", N, -s)
    return SpectralField.from_modes(grid, {N: amp, -N: amp})


def _oscillatory_factor(t: float, omega: float) -> complex:
    """E(t, w) = (e^{itw} - 1)/(iw), with the w -> 0 limit equal to t.

    Uses e^{ia} - 1 = 2i sin(a/2) e^{ia/2} so small phases lose no precision.
    """
    if omega == 0.0:
        return complex(t)
    half = 0.5 * t * omega
    return complex(2.0 * np.sin(half) / omega * np.exp(1j * half))


_Wave = tuple[int, complex, int]  # (m, c, q): c e^{i s sign q / lam^n} at lattice mode m


def _free_waves(model: DispersionModel, u0: SpectralField) -> list[_Wave]:
    """The free flow u1(s) = S(s) u0 as waves (m, c, m^n), one per nonzero mode."""
    grid = u0.grid
    model.check_grid(grid)
    if abs(u0.coeffs[0]) != 0.0:
        raise ValueError("data must be mean-zero")
    n = model.order
    idx = np.flatnonzero(u0.coeffs)  # mode 0 is excluded by the mean-zero check
    return [(m, complex(c), m**n) for m, c in zip(grid.m_ints[idx].tolist(), u0.coeffs[idx])]


def _wave_pairs(model: DispersionModel, left: list[_Wave], right: list[_Wave]) -> Iterator:
    """Every pair of waves with output mode m = m_L + m_R != 0, in support order,
    as (m_L, m_R, m, a, gap, w): a = (m/lam) c_L c_R / lam, the exact integer
    gap q_L + q_R - m^n and its frequency w = sign gap / lam^n.  DoubleRangeError
    names the phase if w leaves the doubles, and the pair weight if a does."""
    n, sign, lam = model.order, model.sign, model.lam
    for m1, c1, q1 in left:
        for m2, c2, q2 in right:
            m = m1 + m2
            if m != 0:
                gap = q1 + q2 - m**n
                try:
                    w = sign * float(gap) / float(lam) ** n
                except OverflowError:
                    w = math.inf
                a = (m / lam) * c1 * c2 / lam
                if not (abs(w) < math.inf and TINY <= abs(a) < math.inf):  # name the one
                    check_range("the phase", abs(w), tiny=0.0)
                    check_range("the pair weight", abs(a), huge=sys.float_info.max)
                yield m1, m2, m, a, gap, w


def _duhamel_kernel(
    model: DispersionModel, grid: TorusGrid, t: float, left: list[_Wave], right: list[_Wave]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """int_0^t S(t-s) d_x(L R)(s) ds for L, R given as waves (m, c, q).

    Each pair of `_wave_pairs` adds i a e^{itp(k)} E(t, w) at its output
    mode, w the frequency of its exact gap, so a zero gap takes the
    resonant limit E(t, 0) = t exactly.  The phase e^{itp(k)} is formed on
    the filled modes only.  Returns the raw coefficient array and the
    (m_L, m_R) of every pair whose gap is zero.
    """
    out = np.zeros(grid.modes, dtype=np.complex128)
    resonant = []
    for m1, m2, m, a, gap, w in _wave_pairs(model, left, right):
        if abs(m) >= grid.modes // 2:
            raise ValueError(f"iterate mode {m} leaves the lattice; enlarge the grid")
        if gap == 0:
            resonant.append((m1, m2))
        out[m % grid.modes] += 1j * a * _oscillatory_factor(t, w)
    filled = np.flatnonzero(out)
    out[filled] *= phase_multiplier(model, grid.k_values[filled], t)
    return out, resonant


def second_iterate_closed(model: DispersionModel, u0: SpectralField, t: float) -> SpectralField:
    """Evaluate A2(u0)(t), the Duhamel kernel on the free waves of u0 twice.

    Output mode k picks up, for every splitting k = k1 + k2 of nonzero
    lattice modes, i k e^{i t p(k)} (1/lam) c(k1) c(k2) E(t, w0) with
    w0 = p(k1) + p(k2) - p(k).  w0 = 0 with k != 0 would contradict the
    integer gap bound and raises.
    """
    u1 = _free_waves(model, u0)
    out, resonant = _duhamel_kernel(model, u0.grid, t, u1, u1)
    if resonant:
        m1, m2 = resonant[0]
        raise ResonanceConsistencyError(f"q0 = 0 at nonzero output mode ({m1}, {m2})")
    return SpectralField(u0.grid, out)


def third_iterate_closed(
    model: DispersionModel, u0: SpectralField, t: float
) -> tuple[SpectralField, int]:
    """Evaluate A3(u0)(t) = 2 int_0^t S(t-s) d_x(u1 A2)(s) ds.

    A2(s) is a sum of waves, built from the pairs A2's kernel walks: the pair
    (k2, k3) with weight a and frequency w23 gives a/w23 at q = m23^n + gap
    and -a/w23 at q = m23^n; a zero gap would contradict the integer gap
    bound and raises.  The Duhamel kernel on u1 and these waves then meets,
    per triple k = k1 + k23 != 0, the gaps q1 = m1^n + m2^n + m3^n - m^n and
    q2 = q0(k1, k23).  q2 is never zero, since k1, k23 and k are all
    nonzero.  Returns (A3, resonant_terms), the count of triples with q1 = 0.
    """
    u1 = _free_waves(model, u0)
    n = model.order
    a2 = []
    for m2, m3, m23, a, gap, w23 in _wave_pairs(model, u1, u1):
        if gap == 0:
            raise ResonanceConsistencyError(f"q0(k2, k3) = 0 at nonzero k2 + k3 ({m2}, {m3})")
        amp = a / w23
        a2 += [(m23, amp, m23**n + gap), (m23, -amp, m23**n)]
    out, resonant = _duhamel_kernel(model, u0.grid, t, u1, a2)
    return SpectralField(u0.grid, 2.0 * out), len(resonant)


# ---------------------------------------------------------------------------
# independent quadrature oracle
# ---------------------------------------------------------------------------

_NC4_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_NC4_BASIS = lagrange_monomial_basis(_NC4_NODES)
_PANEL_BLOCK_VALUES = 2**12  # B = 2**12 // M panels: (B, 4, M/2 + 1) arrays of ~128 KB


def quadrature_steps_needed(model: DispersionModel, u0: SpectralField, t: float) -> int:
    """Smallest panel count `second_iterate_quadrature` accepts for A2(u0)(t).

    The forcing d_x(u1(s)^2) oscillates at most at Omega = 2 max|p(k)| over
    the support of u0, read from the free-flow phases alone.  A panel of
    length h = t/steps is accepted while its phase h*Omega is at most pi/2,
    a quarter forcing period; the count is never below 16.  DoubleRangeError
    names the phase if t Omega leaves the doubles.
    """
    support = u0.grid.k_values[np.abs(u0.coeffs) != 0.0]
    with np.errstate(over="ignore"):
        omega = 2.0 * float(np.max(np.abs(model.phase(support)), initial=0.0))
    check_range("the phase", t * omega, tiny=0.0)
    return max(16, math.ceil(t * omega / (0.5 * np.pi)))


def second_iterate_quadrature(
    model: DispersionModel, u0: SpectralField, t: float, steps: int
) -> SpectralField:
    """Duhamel integral for A2 by composite fourth-order exponential quadrature.

    The forcing d_x(u1(s)^2) is sampled from the free flow and interpolated
    cubically on each of `steps` panels; the propagator weight is integrated
    exactly per panel.  Converges at fourth order in 1/steps while the panel
    length resolves the forcing's oscillation; it never inspects resonance
    denominators, so it is an independent oracle for the closed form.

    A budget is accepted only while each panel spans at most a quarter
    period of the forcing: theta = h * Omega <= pi/2, with h = t/steps and
    Omega = 2 max|p(k)| over the support of u0.  Otherwise Refused names
    steps, and its message the cell (j, the largest mode N of u0, t) and the
    smallest accepted panel count (`quadrature_steps_needed`).  On the
    phi_N data (j = 2, 3; N <= 8; 64 to 1024 panels) the error relative to
    max|A2| stayed below 2e-3 for theta <= 1.2, reached 1e-2 near theta = 3
    and stopped falling beyond, up to 0.5 at theta = 9.6.  The rule is
    necessary, not sufficient: where h times a resonance mismatch lands on a
    multiple of 2 pi, the panel errors add up in phase (j = 3, N = 2,
    t = 0.3, 55 panels: theta = 1.40, relative error 9e-2).

    u0 must be a real field, exactly conjugate symmetric (else ValueError): the
    free flow lives on its half spectrum, the nonnegative modes 0 .. M/2, and the
    weights, phases and accumulator on the modes A2 can fill there, 0 .. 2N for u0
    supported on |m| <= N; A2 is mirrored back to the whole lattice.
    DoubleRangeError names the phase if t max|p(k)| on those modes leaves the doubles.
    Panels run in blocks, one forcing `lattice_square` each, the free flow formed
    on the support of u0 only.  A table made once by `exp` carries each panel's end
    value to the end of its block, so one contraction per block replaces the
    per-panel recursion; the two differ by at most 3.9e-11 max|A2| (j = 2, 3, lam = 1, 2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    grid = u0.grid
    model.check_grid(grid)
    needed = quadrature_steps_needed(model, u0, t)
    if steps < needed:
        N = int(np.max(np.abs(grid.m_ints[u0.coeffs != 0]), initial=0))
        raise Refused("steps", f"{steps} panels cannot resolve the forcing at j={model.j} "
                               f"N={N} t={t}; steps must be >= {needed}")
    c = half_spectrum(u0)
    if t == 0.0:
        return SpectralField.zero(grid)
    h = t / steps
    support = np.flatnonzero(c)
    filled = min(len(c), 2 * int(support.max(initial=0)) + 1)  # the modes A2 fills
    k = grid.half_k_values[:filled]
    with np.errstate(over="ignore"):
        lin = model.phase(k)
    check_range("the phase", t * np.max(np.abs(lin)), tiny=0.0)  # every phase formed below
    d_x = 1j * k * product_scale(grid)  # d_x and the scale of lattice_square
    weights = exponential_weights(lin, h, _NC4_NODES, _NC4_BASIS) * d_x
    block = max(1, min(steps, _PANEL_BLOCK_VALUES // grid.modes))
    local = np.exp(1j * ((block - 1 - np.arange(block))[:, None] * h) * lin)
    u1 = np.zeros((block, len(_NC4_NODES), filled), dtype=np.complex128)
    acc = np.zeros(len(c), dtype=np.complex128)
    for start in range(0, steps, block):
        # u1 at each panel's nodes, on the support; a partial block takes local's last n rows
        n = min(block, steps - start)
        nodes = (np.arange(start, start + n)[:, None, None] + _NC4_NODES[:, None]) * h
        u1[:n, :, support] = c[support] * np.exp(1j * nodes * lin[support])
        terms = weights * lattice_square(u1[:n], grid.modes)[..., :filled]
        acc[:filled] *= np.exp(1j * (n * h) * lin)
        acc[:filled] += np.einsum("bm,bkm->m", local[block - n:], terms)
    return SpectralField(grid, full_spectrum(acc, grid.modes))


def growth_sweep(
    model: DispersionModel,
    s_list: list[float],
    n_list: list[int],
    t: float,
) -> list[ExperimentReport]:
    """Measure ||A3(phi_N)(t)||_{H-dot^s} across N and fit the log-log slope,
    one report per s, in `s_list` order.

    A3 is cubic in the data, so A3(phi_N at s) = r^3 A3(phi_N at s_ref) with
    r = N^{-s} / N^{-s_ref}: the kernel is walked once per N, at
    s_ref = -(2j - 1)/3, where A3 ~ N^{-3 s_ref - (2j - 1)} = N^0, and every s
    rescales that walk before its norm is taken, summed over the modes the
    walk fills with `sobolev_norm`'s per-mode terms.  At unit amplitude (s = 0)
    A3 ~ N^{-(2j - 1)} would lose its 3N modes to underflow at large j
    (j = 40, N = 128).  r^3 = N^{-3s - (2j - 1)} is A3's size at s but for
    its constant.  DoubleRangeError names A3 if a walk leaves the normal
    doubles, and A3 at s if r^3 or the squared norm does, or a mode of A3 at s
    overflows; a mode that underflows (A3's 3N modes, at j = 40 and s = -10)
    is left to the norm.  Over j = 2 to 40, at both ends of the accepted s,
    each norm stayed within 6e-16 relative of a walk at s.

    The fitted exponent is compared against the secular-growth prediction
    -2s - (2j - 1); growth (positive exponent) is expected exactly below the
    threshold s = -j + 1/2.  Refused names t unless t |w0| >= 50 at the
    smallest N, w0 = q0(N, N) / lam^n: below t |w0| ~ 1 A3 grows as t^2, not t
    (j = 3, lam = 3.5, t = 1e-8, N = 8, 16, 32 fitted 81.08 against 75), and
    its two waves cancel to a relative rounding error of about 2^-52 / (t |w0|).
    Over j = 1 to 8 the worst misfit fell from 0.30 at t |w0| = 5 to 0.008 at 50.
    """
    if len(n_list) < 3:
        raise ValueError("need at least 3 values of N for the exponent fit")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("N list must be strictly ascending")
    n, N = model.order, n_list[0]
    # in log2 of the exact integer gap, which overflows a float at large j
    log2_tw0 = math.log2(t) + math.log2(abs(resonance_q0(n, N, N))) - n * math.log2(model.lam)
    if log2_tw0 < math.log2(50.0):
        raise Refused("t", f"t |w0| = 2^{log2_tw0:.6g} at N = {N} is below 50, where A3 "
                           "is not yet linear in t and the fit misses the secular law")
    g = 2.0 * model.j - 1.0
    walks = []
    for N in n_list:
        grid = TorusGrid(model.lam, grid_size_for_mode(3 * N))
        data = phi_n_data(N, -g / 3.0, grid)  # amplitude N^(g/3)
        a3, resonant_terms = third_iterate_closed(model, data, t)
        filled = np.flatnonzero(a3.coeffs)  # never mode 0
        walks.append((N, float(N) ** (g / 3.0), resonant_terms,
                      np.abs(grid.k_values[filled]), a3.coeffs[filled]))
    check_range("A3", np.abs(np.concatenate([walk[-1] for walk in walks])))
    log_n = np.log(n_list)
    threshold = -model.j + 0.5
    reports = []
    for s in s_list:
        rows = []
        with doubles("A3 at s"):
            for N, amp_ref, resonant_terms, k, coeffs in walks:
                try:
                    scale = (float(N) ** (-s) / amp_ref) ** 3
                except OverflowError:
                    scale = math.inf
                mass = np.sum((k**s * np.abs(scale * coeffs)) ** 2) / model.lam
                check_range("A3 at s", scale)
                check_range("A3 at s", mass)
                rows.append(
                    {
                        "j": model.j,
                        "s": s,
                        "N": N,
                        "t": t,
                        "h_s_norm": float(np.sqrt(mass)),
                        "resonant_terms": resonant_terms,
                    }
                )
        log_norm = np.log([row["h_s_norm"] for row in rows])
        coeffs, cov = np.polyfit(log_n, log_norm, 1, cov=True)
        exponent = float(coeffs[0])
        theory = -2.0 * s - g
        reports.append(
            ExperimentReport(
                rows=rows,
                summary={
                    "fitted_exponent": exponent,
                    "stderr": float(np.sqrt(cov[0, 0])),
                    "theory_exponent": theory,
                    "threshold_s": threshold,
                    "grows_unbounded": exponent > 0.1,
                    "below_threshold": s < threshold,
                },
                passed=abs(exponent - theory) <= 0.1,
            )
        )
    return reports


def grid_size_for_mode(max_mode: int) -> int:
    """Smallest power-of-two lattice holding the mode (and its negative)."""
    modes = 2
    while modes // 2 <= max_mode + 1:
        modes *= 2
    return modes
