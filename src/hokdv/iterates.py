"""Closed-form Picard iterates of the Duhamel expansion and the two-mode
data family driving the ill-posedness measurement.

With u1(t) = S(t) u0, the second and third expansion kernels are

    A2(u0)(t) = int_0^t S(t-s) d_x(u1(s)^2) ds,
    A3(u0)(t) = 2 int_0^t S(t-s) d_x(u1(s) A2(u0)(s)) ds,

where the quadratic product is the normalized lattice convolution.  Both
are one Duhamel kernel, int_0^t S(t-s) d_x(L R)(s) ds for L and R given as
sums of waves c e^{i s w}: A2 applies it to u1's free waves on both sides,
and A3 to u1's waves and A2's, since A2(s) is itself a sum of waves.  Each
pair of waves contributes an oscillatory weight E(t, w) = (e^{itw} - 1)/(iw)
whose frequency w is a signed resonance function, evaluated in exact integer
arithmetic so that the resonant limit E(t, 0) = t is taken exactly, never
by a floating-point threshold.

A quadrature oracle evaluates the A2 integral by a fourth-order
exponential rule that never forms resonance functions, providing an
independent check on every sign and combinatorial factor of the kernel
that both closed forms run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionModel
from .expquad import exponential_weights, lagrange_monomial_basis
from .reporting import ExperimentReport
from .torus import SpectralField, TorusGrid, lattice_square, product_scale
from .norms import NormSpec, sobolev_norm


class ResonanceConsistencyError(RuntimeError):
    """A denominator resonance vanished where the integer bound forbids it."""


@dataclass(frozen=True)
class IterateResult:
    """A closed-form iterate and its count of resonant terms."""

    field: SpectralField
    resonant_terms: int


def phi_n_data(N: int, s: float, grid: TorusGrid) -> SpectralField:
    """Build the two-mode field N^{-s} (chi_N + chi_{-N}) on the grid.

    The grid must also hold mode 3N so that third-iterate output cannot
    silently alias.
    """
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if 3 * N >= grid.modes // 2:
        raise ValueError(
            f"grid with {grid.modes} modes cannot hold mode 3N = {3 * N}; "
            "enlarge the lattice to avoid aliased iterates"
        )
    amp = float(N) ** (-s)
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
    if grid.lam != model.lam:
        raise ValueError("grid lam does not match model lam")
    if abs(u0.coeffs[0]) != 0.0:
        raise ValueError("data must be mean-zero")
    n = model.order
    idx = np.flatnonzero(u0.coeffs)  # mode 0 is excluded by the mean-zero check
    return [(m, complex(c), m**n) for m, c in zip(grid.m_ints[idx].tolist(), u0.coeffs[idx])]


def _duhamel_kernel(
    model: DispersionModel, grid: TorusGrid, t: float, left: list[_Wave], right: list[_Wave]
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """int_0^t S(t-s) d_x(L R)(s) ds for L, R given as waves (m, c, q).

    q is an exact integer, m^n for a free wave.  Every pair with output mode
    m = m_L + m_R != 0 adds, in support order,

        i k e^{itp(k)} (1/lam) c_L c_R E(t, sign (q_L + q_R - m^n) / lam^n),

    so its exact integer gap q_L + q_R - m^n takes the resonant limit
    E(t, 0) = t exactly.  Returns the raw coefficient array and the (m_L,
    m_R) of every pair whose gap is zero.
    """
    modes = grid.modes
    half = modes // 2
    n = model.order
    lam = model.lam
    lam_pow = float(lam) ** n
    out = np.zeros(modes, dtype=np.complex128)
    resonant = []
    for m1, c1, q1 in left:
        for m2, c2, q2 in right:
            m = m1 + m2
            if m == 0:
                continue
            if not -half < m < half:
                raise ValueError(f"iterate mode {m} leaves the lattice; enlarge the grid")
            gap = q1 + q2 - m**n
            if gap == 0:
                resonant.append((m1, m2))
            omega = model.sign * float(gap) / lam_pow
            k = m / lam
            out[m % modes] += 1j * k * c1 * c2 / lam * _oscillatory_factor(t, omega)
    return out * np.exp(1j * t * model.phase(grid.k_values)), resonant


def second_iterate_closed(model: DispersionModel, u0: SpectralField, t: float) -> IterateResult:
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
    return IterateResult(SpectralField(u0.grid, out), 0)


def third_iterate_closed(model: DispersionModel, u0: SpectralField, t: float) -> IterateResult:
    """Evaluate A3(u0)(t) = 2 int_0^t S(t-s) d_x(u1 A2)(s) ds.

    A2(s) is a sum of waves: each pair k23 = k2 + k3 != 0 of u1's modes
    gives +k23 c2 c3/(lam w23) at q = m2^n + m3^n and -k23 c2 c3/(lam w23)
    at q = m23^n, with w23 = sign q0(k2, k3)/lam^n; q0(k2, k3) = 0 would
    contradict the integer gap bound and raises.  The Duhamel kernel on u1
    and these waves then meets, per triple k = k1 + k23 != 0, the gaps
    q1 = m1^n + m2^n + m3^n - m^n and q2 = q0(k1, k23).  q2 is never zero,
    since k1, k23 and k are all nonzero, so `resonant_terms` counts the
    triples with q1 = 0.
    """
    u1 = _free_waves(model, u0)
    n = model.order
    lam = model.lam
    lam_pow = float(lam) ** n
    a2 = []
    for m2, c2, q2 in u1:
        for m3, c3, q3 in u1:
            m23 = m2 + m3
            if m23 == 0:
                continue
            q23 = m23**n
            q0 = q2 + q3 - q23
            if q0 == 0:
                raise ResonanceConsistencyError(f"q0(k2, k3) = 0 at nonzero k2 + k3 ({m2}, {m3})")
            w23 = model.sign * float(q0) / lam_pow
            amp = (m23 / lam) * c2 * c3 / (lam * w23)
            a2 += [(m23, amp, q2 + q3), (m23, -amp, q23)]
    out, resonant = _duhamel_kernel(model, u0.grid, t, u1, a2)
    return IterateResult(SpectralField(u0.grid, 2.0 * out), len(resonant))


# ---------------------------------------------------------------------------
# independent quadrature oracle
# ---------------------------------------------------------------------------

_NC4_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_NC4_BASIS = lagrange_monomial_basis(_NC4_NODES)
_PANEL_BLOCK_VALUES = 2**12  # B = 2**12 // M panels: (B, 4, M) arrays of 256 KB


def quadrature_steps_needed(model: DispersionModel, u0: SpectralField, t: float) -> int:
    """Smallest panel count `second_iterate_quadrature` accepts for A2(u0)(t).

    The forcing d_x(u1(s)^2) oscillates at most at Omega = 2 max|p(k)| over
    the support of u0, read from the free-flow phases alone.  A panel of
    length h = t/steps is accepted while its phase h*Omega is at most pi/2,
    a quarter forcing period; the count is never below 16.
    """
    support = u0.grid.k_values[np.abs(u0.coeffs) != 0.0]
    omega = 2.0 * float(np.max(np.abs(model.phase(support)), initial=0.0))
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
    Omega = 2 max|p(k)| over the support of u0.  Otherwise ValueError names
    the smallest accepted panel count (`quadrature_steps_needed`).  On the
    phi_N data (j = 2, 3; N <= 8; 64 to 1024 panels) the error relative to
    max|A2| stayed below 2e-3 for theta <= 1.2, reached 1e-2 near theta = 3
    and stopped falling beyond, up to 0.5 at theta = 9.6.  The rule is
    necessary, not sufficient: where h times a resonance mismatch lands on a
    multiple of 2 pi, the panel errors add up in phase (j = 3, N = 2,
    t = 0.3, 55 panels: theta = 1.40, relative error 9e-2).

    Panels run in blocks, one forcing `lattice_square` each, the free flow formed
    on the support of u0 only.  A table made once by `exp` carries each panel's end
    value to the end of its block, so one contraction per block replaces the
    per-panel recursion; the two differ by at most 3.9e-11 max|A2| (j = 2, 3, lam = 1, 2).
    """
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    grid = u0.grid
    if grid.lam != model.lam:
        raise ValueError("grid lam does not match model lam")
    needed = quadrature_steps_needed(model, u0, t)
    if steps < needed:
        raise ValueError(
            f"{steps} panels cannot resolve the forcing oscillation over "
            f"[0, {t}]; steps must be >= {needed}"
        )
    if t == 0.0:
        return SpectralField.zero(grid)
    h = t / steps
    lin = model.phase(grid.k_values)
    d_x = 1j * grid.k_values * product_scale(grid)  # d_x and the scale of lattice_square
    weights = exponential_weights(lin, h, _NC4_NODES, _NC4_BASIS) * d_x
    block = max(1, _PANEL_BLOCK_VALUES // grid.modes)
    support = np.flatnonzero(u0.coeffs)
    local = np.exp(1j * ((block - 1 - np.arange(block))[:, None] * h) * lin)
    u1 = np.zeros((block, len(_NC4_NODES), grid.modes), dtype=np.complex128)
    acc = np.zeros(grid.modes, dtype=np.complex128)
    for start in range(0, steps, block):
        # u1 at each panel's nodes, on the support; a partial block takes local's last n rows
        n = min(block, steps - start)
        nodes = (np.arange(start, start + n)[:, None, None] + _NC4_NODES[:, None]) * h
        u1[:n, :, support] = u0.coeffs[support] * np.exp(1j * nodes * lin[support])
        terms = weights * lattice_square(u1[:n])
        acc *= np.exp(1j * (n * h) * lin)
        acc += np.einsum("bm,bkm->m", local[block - n:], terms)
    return SpectralField(grid, acc)


def growth_sweep(
    model: DispersionModel,
    s: float,
    n_list: list[int],
    t: float,
) -> ExperimentReport:
    """Measure ||A3(phi_N)(t)||_{H-dot^s} across N and fit the log-log slope.

    The fitted exponent is compared against the secular-growth prediction
    -2s - (2j - 1); growth (positive exponent) is expected exactly below the
    threshold s = -j + 1/2.
    """
    if len(n_list) < 3:
        raise ValueError("need at least 3 values of N for the exponent fit")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("N list must be strictly ascending")
    rows = []
    for N in n_list:
        modes = grid_size_for_mode(3 * N)
        grid = TorusGrid(model.lam, modes)
        data = phi_n_data(N, s, grid)
        result = third_iterate_closed(model, data, t)
        norm = sobolev_norm(result.field, NormSpec(s, homogeneous=True))
        rows.append(
            {
                "j": model.j,
                "s": s,
                "N": N,
                "t": t,
                "h_s_norm": norm,
                "resonant_terms": result.resonant_terms,
            }
        )
    log_n = np.log([row["N"] for row in rows])
    log_norm = np.log([row["h_s_norm"] for row in rows])
    coeffs, cov = np.polyfit(log_n, log_norm, 1, cov=True)
    exponent = float(coeffs[0])
    stderr = float(np.sqrt(cov[0, 0]))
    theory = -2.0 * s - (2.0 * model.j - 1.0)
    threshold = -model.j + 0.5
    report = ExperimentReport(
        rows=rows,
        summary={
            "fitted_exponent": exponent,
            "stderr": stderr,
            "theory_exponent": theory,
            "threshold_s": threshold,
            "grows_unbounded": exponent > 0.1,
            "below_threshold": s < threshold,
        },
        passed=abs(exponent - theory) <= 0.1,
    )
    return report


def grid_size_for_mode(max_mode: int) -> int:
    """Smallest power-of-two lattice holding the mode (and its negative)."""
    modes = 2
    while modes // 2 <= max_mode + 1:
        modes *= 2
    return modes
