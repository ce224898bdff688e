"""Closed-form iterates against their independent oracles: hand-evaluated
two-mode sums, oscillatory-weighted quadrature, the exponential Duhamel
rule, the small-time resonant expansion, and the growth-exponent fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import hokdv.iterates
from hokdv.dispersion import DispersionModel, free_evolve
from hokdv.iterates import (
    _PANEL_BLOCK_VALUES,
    IterateResult,
    ResonanceConsistencyError,
    _oscillatory_factor,
    grid_size_for_mode,
    growth_sweep,
    phi_n_data,
    quadrature_steps_needed,
    second_iterate_closed,
    second_iterate_quadrature,
    third_iterate_closed,
)
from hokdv.norms import NormSpec, sobolev_norm
from hokdv.torus import DoubleRangeError, Refused, SpectralField, TorusGrid, inverse_transform

from helpers import (
    accepted_s_edges,
    full_lattice_duhamel_kernel,
    random_band_limited,
    reference_growth_sweep,
    reference_second_iterate_closed,
    reference_second_iterate_quadrature,
    reference_third_iterate_closed,
)


def osc_integral(t, omega):
    """QUADPACK weighted quadrature of int_0^t e^{i omega s} ds."""
    if omega == 0.0:
        return complex(t)
    re, _ = quad(lambda s: 1.0, 0, t, weight="cos", wvar=omega, limit=200)
    im, _ = quad(lambda s: 1.0, 0, t, weight="sin", wvar=omega, limit=200)
    return re + 1j * im


def reference_second_iterate(model, u0, t):
    """Rebuild the double sum with QUADPACK oscillatory factors."""
    grid = u0.grid
    out = np.zeros(grid.modes, dtype=complex)
    supp = sorted((int(m), complex(c)) for m, c in zip(grid.m_ints, u0.coeffs) if c != 0)
    lam_pow = float(model.lam) ** model.order
    n = model.order
    for m1, c1 in supp:
        for m2, c2 in supp:
            m = m1 + m2
            if m == 0:
                continue
            q0 = m1**n + m2**n - m**n
            omega = model.sign * q0 / lam_pow
            k = m / model.lam
            out[grid.index_of(m)] += 1j * k * c1 * c2 / model.lam * osc_integral(t, omega)
    return out * np.exp(1j * t * model.phase(grid.k_values))


def reference_third_iterate(model, u0, t):
    """Triple sum with the outer time integral done by QUADPACK."""
    grid = u0.grid
    out = np.zeros(grid.modes, dtype=complex)
    supp = sorted((int(m), complex(c)) for m, c in zip(grid.m_ints, u0.coeffs) if c != 0)
    lam_pow = float(model.lam) ** model.order
    n = model.order
    for m1, c1 in supp:
        for m2, c2 in supp:
            for m3, c3 in supp:
                m23 = m2 + m3
                if m23 == 0:
                    continue
                m = m1 + m23
                if m == 0:
                    continue
                w23 = model.sign * (m2**n + m3**n - m23**n) / lam_pow
                wb = model.sign * (m1**n + m2**n + m3**n - m**n) / lam_pow
                wa = model.sign * (m1**n + m23**n - m**n) / lam_pow
                outer = (osc_integral(t, wb) - osc_integral(t, wa)) / (1j * w23)
                k, k23 = m / model.lam, m23 / model.lam
                out[grid.index_of(m)] += (
                    2.0 * (1j * k) * (1j * k23) * outer * c1 * c2 * c3 / model.lam**2
                )
    return out * np.exp(1j * t * model.phase(grid.k_values))


# -- data family ---------------------------------------------------------------


def test_phi_n_coefficients_and_norm():
    grid = TorusGrid(1.0, 64)
    u = phi_n_data(8, -2.0, grid)
    assert u.coeffs[grid.index_of(8)] == pytest.approx(64.0)
    assert u.coeffs[grid.index_of(-8)] == pytest.approx(64.0)
    assert sobolev_norm(u, NormSpec(-2.0, homogeneous=True)) == pytest.approx(np.sqrt(2))


def test_phi_n_unit_amplitude_at_zero_regularity():
    grid = TorusGrid(1.0, 64)
    assert phi_n_data(5, 0.0, grid).coeffs[grid.index_of(5)] == 1.0


def test_phi_n_norm_independent_of_n():
    grid = TorusGrid(1.0, 512)
    values = {
        sobolev_norm(phi_n_data(N, -1.5, grid), NormSpec(-1.5, homogeneous=True))
        for N in (4, 16, 64)
    }
    assert all(v == pytest.approx(np.sqrt(2)) for v in values)


def test_phi_n_requires_room_for_third_iterate():
    grid = TorusGrid(1.0, 64)
    with pytest.raises(ValueError):
        phi_n_data(11, 0.0, grid)  # 33 >= 64//2


def test_free_solution_keeps_norm_and_matches_t_zero():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(4, -1.0, grid)
    assert np.array_equal(free_evolve(model, u, 0.0).coeffs, u.coeffs)
    out = free_evolve(model, u, 0.37)
    assert sobolev_norm(out, NormSpec(0.0)) == pytest.approx(
        sobolev_norm(u, NormSpec(0.0)), rel=1e-13
    )


# -- second iterate -------------------------------------------------------------


def test_second_iterate_vanishes_at_zero_time():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(4, 0.0, grid)
    out = second_iterate_closed(model, u, 0.0)
    assert np.all(out.field.coeffs == 0)


def test_second_iterate_two_mode_hand_value():
    grid = TorusGrid(1.0, 64)
    for j, N, t in ((2, 4, 0.3), (3, 2, 0.1)):
        model = DispersionModel(j, 1.0)
        u = phi_n_data(N, 0.0, grid)
        result = second_iterate_closed(model, u, t)
        q0 = abs(2 * N ** (2 * j + 1) - (2 * N) ** (2 * j + 1))
        hand = (
            2
            * N
            * abs(np.exp(1j * t * model.phase(2.0 * N)) - np.exp(2j * t * model.phase(float(N))))
            / q0
        )
        assert abs(result.field.coeffs[grid.index_of(2 * N)]) == pytest.approx(hand, rel=1e-12)
        assert set(grid.m_ints[np.abs(result.field.coeffs) > 1e-14]) <= {-2 * N, 2 * N}


def test_second_iterate_support_is_sum_set():
    grid = TorusGrid(1.0, 128)
    model = DispersionModel(2, 1.0)
    u = SpectralField.from_modes(grid, {2: 1.0, -2: 1.0, 5: 0.5, -5: 0.5})
    out = second_iterate_closed(model, u, 0.2)
    sums = {a + b for a in (2, -2, 5, -5) for b in (2, -2, 5, -5)} - {0}
    assert set(grid.m_ints[np.abs(out.field.coeffs) > 1e-14]) <= sums


def test_third_iterate_support_is_triple_sum_set():
    grid = TorusGrid(1.0, 128)
    model = DispersionModel(2, 1.0)
    modes = (3, -3, 7, -7)
    u = SpectralField.from_modes(grid, {m: 1.0 for m in modes})
    out = third_iterate_closed(model, u, 0.2)
    sums = {a + b + c for a in modes for b in modes for c in modes} - {0}
    assert set(grid.m_ints[out.field.coeffs != 0]) <= sums


def test_second_iterate_of_real_data_is_real():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = random_band_limited(grid, np.random.default_rng(8), 5)
    out = second_iterate_closed(model, u, 0.4)
    samples = inverse_transform(out.field)
    assert np.max(np.abs(samples.imag)) < 1e-10 * max(1, np.max(np.abs(samples.real)))


def test_second_iterate_rejects_nonzero_mean():
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(2, 1.0)
    u = SpectralField.from_modes(grid, {0: 1.0, 1: 1.0, -1: 1.0})
    with pytest.raises(ValueError):
        second_iterate_closed(model, u, 0.1)


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_second_iterate_matches_oscillatory_quadrature(j, lam):
    grid = TorusGrid(lam, 64)
    model = DispersionModel(j, lam)
    u = SpectralField.from_modes(grid, {1: 1.0, -1: 1.0, 3: 0.25, -3: 0.25})
    for t in (0.1, 0.45):
        closed = second_iterate_closed(model, u, t).field.coeffs
        reference = reference_second_iterate(model, u, t)
        assert np.max(np.abs(closed - reference)) < 1e-9
    # The phi_N grid of acceptance criterion 3, including the cells where a
    # 256-panel quadrature is refused; the bound is relative since max|A2|
    # falls to ~1e-7 at j = 3, N = 8.
    for N in (2, 4, 8):
        u = phi_n_data(N, 0.0, grid)
        for t in (0.1, 0.3):
            closed = second_iterate_closed(model, u, t).field.coeffs
            reference = reference_second_iterate(model, u, t)
            assert np.max(np.abs(closed - reference)) <= 1e-9 * np.max(np.abs(closed))


def test_duhamel_quadrature_converges_at_fourth_order():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(4, 0.0, grid)
    closed = second_iterate_closed(model, u, 0.3).field.coeffs
    errs = [
        np.max(np.abs(closed - second_iterate_quadrature(model, u, 0.3, steps).coeffs))
        for steps in (512, 1024, 2048)
    ]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 3.8


def test_duhamel_quadrature_resolved_regime_accuracy():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(2, 0.0, grid)
    closed = second_iterate_closed(model, u, 0.3).field.coeffs
    quad256 = second_iterate_quadrature(model, u, 0.3, 256).coeffs
    assert np.max(np.abs(closed - quad256)) < 1e-10


def test_duhamel_quadrature_refuses_unresolved_budget():
    # j = 2, N = 4, t = 0.3: panel phase 2 * 4^5 * 0.3 / steps <= pi/2
    # first holds at 391.13 -> 392 panels.
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(4, 0.0, grid)
    assert quadrature_steps_needed(model, u, 0.3) == 392
    with pytest.raises(ValueError, match="steps must be >= 392"):
        second_iterate_quadrature(model, u, 0.3, 391)
    closed = second_iterate_closed(model, u, 0.3).field.coeffs
    quad = second_iterate_quadrature(model, u, 0.3, 392).coeffs
    assert np.max(np.abs(closed - quad)) <= 4e-3 * np.max(np.abs(closed))


def test_duhamel_quadrature_rejects_tiny_budget():
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(2, 0.0, grid)
    with pytest.raises(ValueError):
        second_iterate_quadrature(model, u, 0.1, 8)
    assert np.all(second_iterate_quadrature(model, u, 0.0, 64).coeffs == 0)


def _assert_near_per_panel_reference(model, u, t, steps):
    """The blocked oracle replaces the per-panel recursion by one propagator
    contraction per block, so it agrees with that recursion to rounding:
    within 1e-10 of max|reference| (5.9e-12 measured on the grid below)."""
    blocked = second_iterate_quadrature(model, u, t, steps).coeffs
    reference = reference_second_iterate_quadrature(model, u, t, steps).coeffs
    scale = np.max(np.abs(reference))
    assert scale > 0
    assert np.max(np.abs(blocked - reference)) <= 1e-10 * scale, (t, steps)
    return blocked, reference


@pytest.mark.parametrize("modes", [16, 32, 64, 128])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("j", [2, 3])
def test_blocked_quadrature_matches_the_per_panel_reference(j, lam, modes):
    grid = TorusGrid(lam, modes)
    model = DispersionModel(j, lam)
    block = max(1, _PANEL_BLOCK_VALUES // modes)
    covered = set()
    for N, t in ((1, 0.05), (2, 0.3), (min(4, (modes // 2 - 1) // 3), 0.2 * lam)):
        u = phi_n_data(N, 0.0, grid)
        needed = quadrature_steps_needed(model, u, t)
        closed = second_iterate_closed(model, u, t).field.coeffs
        # 16 panels, the smallest accepted budget, part of one block, whole
        # blocks, and whole blocks plus a partial one
        budgets = {16, needed, max(needed, block // 2 + 1), 3 * block, 2 * block + 7}
        for steps in sorted(b for b in budgets if b >= needed):
            blocked, reference = _assert_near_per_panel_reference(model, u, t, steps)
            # no less accurate than the recursion, up to rounding (2.1e-12
            # of max|A2| measured)
            own = np.max(np.abs(reference - closed))
            err = np.max(np.abs(blocked - closed))
            assert err <= own + 1e-11 * np.max(np.abs(closed)), (N, t, steps)
            covered.add("one" if steps <= block else "whole" if steps % block == 0 else "partial")
            if steps == 16:
                covered.add("16")
            if steps == needed:
                covered.add("needed")
    assert {"one", "whole", "partial", "16", "needed"} <= covered


@pytest.mark.parametrize("j", [2, 3])
def test_blocked_quadrature_forms_the_free_flow_on_any_support(j):
    # the free flow is formed on the nonzero modes of u0 only, for a random real
    # field; a one-sided complex one, whose mirror modes are zero, is refused
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(j, 1.0)
    rng = np.random.default_rng(19 + j)
    modes = rng.choice(np.arange(1, 7), size=5, replace=False)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    real = SpectralField.from_modes(
        grid, {**dict(zip(modes, amps)), **dict(zip(-modes, np.conj(amps)))}
    )
    one_sided = SpectralField.from_modes(grid, {2: amps[0], -5: amps[1], 4: amps[2]})
    assert one_sided.coeffs[grid.index_of(-2)] == 0
    t = 0.05 if j == 2 else 0.002
    block = _PANEL_BLOCK_VALUES // grid.modes
    needed = quadrature_steps_needed(model, real, t)
    for steps in sorted({needed, max(needed, 4 * block + 5)}):
        _assert_near_per_panel_reference(model, real, t, steps)
    with pytest.raises(ValueError, match="conjugate symmetric"):
        second_iterate_quadrature(model, one_sided, t, quadrature_steps_needed(model, one_sided, t))


@pytest.mark.parametrize("j,lam,modes", [(2, 1.0, 64), (3, 1.0, 512), (2, 3.0, 256), (4, 1.0, 256)])
def test_quadrature_a2_is_exactly_real(j, lam, modes):
    """A2 of a real field is real bit for bit: coeff(-m) == conj(coeff(m)) and
    coeff(0) real, also on grids where p(-k) != -p(k) in the last bit."""
    grid = TorusGrid(lam, modes)
    model = DispersionModel(j, lam)
    u = random_band_limited(grid, np.random.default_rng(modes + j), 3)
    t = 0.002
    a2 = second_iterate_quadrature(model, u, t, quadrature_steps_needed(model, u, t)).coeffs
    assert np.max(np.abs(a2)) > 0
    assert a2[0].imag == 0.0
    assert np.array_equal(a2[: modes // 2 : -1], np.conj(a2[1 : modes // 2]))


def test_blocked_quadrature_keeps_zero_time_and_refusals():
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(2, 1.0)
    u = phi_n_data(2, 0.0, grid)
    zero = second_iterate_quadrature(model, u, 0.0, 16)
    assert np.array_equal(zero.coeffs, np.zeros(grid.modes, dtype=np.complex128))
    assert np.array_equal(zero.coeffs, reference_second_iterate_quadrature(model, u, 0.0, 16).coeffs)
    refused = [
        (model, u, 0.1, 15),
        (model, u, -0.1, 64),
        (DispersionModel(2, 2.0), u, 0.1, 64),
        (model, u, 0.3, quadrature_steps_needed(model, u, 0.3) - 1),
    ]
    for args in refused:
        with pytest.raises(ValueError) as blocked:
            second_iterate_quadrature(*args)
        with pytest.raises(ValueError) as reference:
            reference_second_iterate_quadrature(*args)
        assert str(blocked.value) == str(reference.value)


# -- third iterate ---------------------------------------------------------------


def test_third_iterate_vanishes_at_zero_time():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    out = third_iterate_closed(model, phi_n_data(4, -2.0, grid), 0.0)
    assert np.max(np.abs(out.field.coeffs)) < 1e-18


def test_third_iterate_counts_resonant_triples():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    out = third_iterate_closed(model, phi_n_data(4, -2.0, grid), 0.5)
    assert out.resonant_terms == 2  # (-N, N, N) hitting +N and its mirror


def test_third_iterate_of_real_data_is_real():
    grid = TorusGrid(1.0, 128)
    model = DispersionModel(2, 1.0)
    u = random_band_limited(grid, np.random.default_rng(9), 4)
    out = third_iterate_closed(model, u, 0.3)
    samples = inverse_transform(out.field)
    assert np.max(np.abs(samples.imag)) < 1e-10 * max(1, np.max(np.abs(samples.real)))


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_third_iterate_matches_oscillatory_quadrature(j, lam):
    grid = TorusGrid(lam, 128)
    model = DispersionModel(j, lam)
    for N, t in ((2, 0.3), (8, 0.1)):
        u = phi_n_data(N, 0.0, grid)
        closed = third_iterate_closed(model, u, t).field.coeffs
        reference = reference_third_iterate(model, u, t)
        assert np.max(np.abs(closed - reference)) < 1e-9


def test_third_iterate_general_support_against_reference():
    grid = TorusGrid(1.0, 128)
    model = DispersionModel(2, 1.0)
    u = SpectralField.from_modes(grid, {1: 0.8, -1: 0.8, 4: 0.3, -4: 0.3})
    closed = third_iterate_closed(model, u, 0.25).field.coeffs
    reference = reference_third_iterate(model, u, 0.25)
    assert np.max(np.abs(closed - reference)) < 1e-9


def test_resonant_mode_grows_linearly_with_hand_slope():
    for j in (2, 3):
        model = DispersionModel(j, 1.0)
        grid = TorusGrid(1.0, 128)
        for N, s in ((4, -2.0), (8, -2.0)):
            u = phi_n_data(N, s, grid)
            ts = np.linspace(0.02, 0.1, 9)
            mags = [abs(third_iterate_closed(model, u, t).field.coeffs[grid.index_of(N)]) for t in ts]
            slope = np.polyfit(ts, mags, 1)[0]
            hand = (
                2.0 * N * (2.0 * N) * float(N) ** (-3 * s)
                / ((2 ** (2 * j + 1) - 2) * float(N) ** (2 * j + 1))
            )
            assert slope == pytest.approx(hand, rel=0.02)


def random_support(grid, rng, count, real):
    """`count` random nonzero modes with |m| <= 12 and random coefficients;
    `real` draws count/2 modes and mirrors them with conjugate coefficients."""
    if real:
        half = rng.choice(np.arange(1, 13), size=count // 2, replace=False)
        amps = {}
        for m in half:
            a = complex(rng.normal(), rng.normal())
            amps[int(m)], amps[-int(m)] = a, a.conjugate()
        return SpectralField.from_modes(grid, amps)
    pool = np.concatenate([np.arange(-12, 0), np.arange(1, 13)])
    modes = rng.choice(pool, size=count, replace=False)
    return SpectralField.from_modes(
        grid, {int(m): complex(rng.normal(), rng.normal()) for m in modes}
    )


@pytest.mark.filterwarnings("ignore:j = 1 is the classical KdV")
@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_second_iterate_keeps_the_bits_of_the_hand_derived_sum(j, lam):
    """A2 through the shared Duhamel kernel equals the hand-derived double sum."""
    model = DispersionModel(j, lam)
    grid = TorusGrid(lam, 64)
    rng = np.random.default_rng(100 * j + int(lam))
    for u in [phi_n_data(N, -1.0, grid) for N in (1, 2, 4, 8)] + [
        random_support(grid, rng, 11, real=False)
    ]:
        result = second_iterate_closed(model, u, 0.3)
        coeffs, resonant = reference_second_iterate_closed(model, u, 0.3)
        assert np.array_equal(result.field.coeffs, coeffs)
        assert result.resonant_terms == resonant == 0


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("j", [2, 3])
def test_third_iterate_matches_the_hand_derived_sum(j, lam):
    """A3, the shared Duhamel kernel on u1 and A2's waves, stays within 1e-13
    of the hand-derived triple sum, with the same resonance count."""
    model = DispersionModel(j, lam)
    cases = []
    if lam == 1.0:
        for N in (2, 4, 8, 16, 32, 64, 128):
            grid = TorusGrid(lam, grid_size_for_mode(3 * N))
            cases += [(phi_n_data(N, s, grid), t) for s in (-1.5, -2.0, 0.0) for t in (0.1, 1.0)]
    grid = TorusGrid(lam, 128)
    rng = np.random.default_rng(10 * j + int(lam))
    for real in (True, False):
        cases += [(random_support(grid, rng, 8, real=real), 0.4) for _ in range(3)]
    resonant_seen = 0
    for u, t in cases:
        result = third_iterate_closed(model, u, t)
        coeffs, resonant = reference_third_iterate_closed(model, u, t)
        scale = np.max(np.abs(coeffs))
        assert scale > 0
        assert np.max(np.abs(result.field.coeffs - coeffs)) <= 1e-13 * scale
        assert result.resonant_terms == resonant
        resonant_seen += resonant
    assert resonant_seen > 0


class _TransportModel(DispersionModel):
    """Order 1, a pure transport: every pair of waves has gap m1 + m2 - (m1 + m2) = 0."""

    order = 1


def test_closed_iterates_refuse_a_zero_gap_and_modes_off_the_lattice():
    grid = TorusGrid(1.0, 16)
    u = SpectralField.from_modes(grid, {2: 1.0, -2: 1.0})
    with pytest.raises(ResonanceConsistencyError, match=r"q0 = 0 at nonzero output mode \(2, 2\)"):
        second_iterate_closed(_TransportModel(2), u, 0.1)
    with pytest.raises(ResonanceConsistencyError, match=r"q0\(k2, k3\) = 0 .* \(2, 2\)"):
        third_iterate_closed(_TransportModel(2), u, 0.1)
    # 16 modes hold |m| <= 7: A2 of modes +-5 reaches 10, A3 of modes +-3 reaches 9
    model = DispersionModel(2, 1.0)
    for iterate, m, out in ((second_iterate_closed, 5, 10), (third_iterate_closed, 3, 9)):
        u = SpectralField.from_modes(grid, {m: 1.0, -m: 1.0})
        with pytest.raises(ValueError, match=f"iterate mode {out} leaves the lattice"):
            iterate(model, u, 0.1)


def test_oscillatory_factor_limit_consistency():
    """E(t, eps) approaches the exact resonant value t at first order in eps."""
    t = 0.7
    exact = _oscillatory_factor(t, 0.0)
    assert exact == complex(t)
    errors = [abs(_oscillatory_factor(t, eps) - exact) for eps in (1e-3, 1e-4, 1e-5)]
    for eps, err in zip((1e-3, 1e-4, 1e-5), errors):
        assert err <= eps * t**2  # first-order in the detuning
    assert errors[0] > errors[1] > errors[2]


# -- growth sweep ----------------------------------------------------------------


def test_growth_sweep_matches_secular_exponent():
    model = DispersionModel(2, 1.0)
    report = growth_sweep(model, [-2.0], [8, 16, 32, 64], 1.0)[0]
    assert report.summary["fitted_exponent"] == pytest.approx(1.0, abs=0.05)
    assert report.passed


def test_growth_sweep_flat_at_threshold():
    model = DispersionModel(2, 1.0)
    report = growth_sweep(model, [-1.5], [8, 16, 32, 64], 1.0)[0]
    assert abs(report.summary["fitted_exponent"]) < 0.05
    assert not report.summary["grows_unbounded"]


def test_growth_sweep_needs_three_points():
    model = DispersionModel(2, 1.0)
    with pytest.raises(ValueError):
        growth_sweep(model, [-2.0], [8, 16], 1.0)
    with pytest.raises(ValueError):
        growth_sweep(model, [-2.0], [16, 8, 32], 1.0)


@pytest.mark.parametrize("n_list", [[8, 8, 16], [8, 8, 8]])
def test_growth_sweep_refuses_repeated_n(n_list):
    model = DispersionModel(2, 1.0)
    with pytest.raises(ValueError, match="strictly ascending"):
        growth_sweep(model, [-2.0], n_list, 1.0)


def test_growth_rows_carry_resonance_counts():
    model = DispersionModel(3, 1.0)
    report = growth_sweep(model, [-3.0], [4, 8, 16], 0.5)[0]
    assert all(row["resonant_terms"] == 2 for row in report.rows)


def _sweep_walks(monkeypatch) -> list[np.ndarray]:
    """Record the A3 coefficients of every walk `growth_sweep` makes, in N order."""
    walks = []
    closed = hokdv.iterates.third_iterate_closed

    def recording(model, u0, t):
        result = closed(model, u0, t)
        walks.append(result.field.coeffs)
        return result

    monkeypatch.setattr(hokdv.iterates, "third_iterate_closed", recording)
    return walks


SWEEP_N = [8, 16, 32, 64, 128]


@pytest.mark.parametrize("j", [2, 3, 8, 20, 40])
def test_growth_sweep_matches_the_per_s_walk_across_the_accepted_range(monkeypatch, j):
    """One A3 walk per N, rescaled to each s, against a walk at every s: at s_c and
    at both edges of the range where illposed-sweep accepts s and a walk at s forms
    its numbers.  (At j = 40 and s below -72.43, A2's pair weight 2N^(1 - 2s) of a
    walk at s overflows at N = 128; the sweep, which walks at N^(g/3), accepts s
    down to -75.)"""
    model = DispersionModel(j, 1.0)
    s_c = -j + 0.5

    def walk_forms(s):
        try:
            reference_growth_sweep(model, s, SWEEP_N, 1.0)
        except DoubleRangeError:
            return False
        return True

    lo, hi = accepted_s_edges({"j": j, "lam": 1.0, "t": 1.0, "N_list": SWEEP_N}, s_c, walk_forms)
    s_list = [lo, s_c, hi]
    walks = _sweep_walks(monkeypatch)
    reports = growth_sweep(model, s_list, SWEEP_N, 1.0)
    assert len(reports) == len(s_list)
    for s, report in zip(s_list, reports):
        want = reference_growth_sweep(model, s, SWEEP_N, 1.0)
        for n, (row, ref) in enumerate(zip(report.rows, want.rows)):
            assert (row["s"], row["N"], row["resonant_terms"]) == (s, ref["N"], ref["resonant_terms"])
            assert row["h_s_norm"] == pytest.approx(ref["h_s_norm"], rel=1e-13, abs=0.0)
            # the modes of the rescaled walk the norm sums over
            scale = (float(row["N"]) ** (-s) / float(row["N"]) ** ((2 * j - 1) / 3)) ** 3
            assert np.count_nonzero(scale * walks[n]) == ref["nonzero_modes"]
        consistent = report.summary["grows_unbounded"] == report.summary["below_threshold"]
        want_consistent = want.summary["grows_unbounded"] == want.summary["below_threshold"]
        assert (report.passed, consistent) == (want.passed, want_consistent)


def test_unit_amplitude_walk_loses_the_3n_modes_at_j40():
    """A walk at unit amplitude (s = 0), rescaled by N^(-3s), would fail the test above:
    at j = 40 and N = 128 its 3N modes underflow, which a walk at s_c keeps."""
    model = DispersionModel(40, 1.0)
    s_c = -39.5
    want = reference_growth_sweep(model, s_c, SWEEP_N, 1.0)
    grid = TorusGrid(1.0, grid_size_for_mode(3 * 128))
    unit = third_iterate_closed(model, phi_n_data(128, 0.0, grid), 1.0).field.coeffs
    rescaled = float(128) ** (-3 * s_c) * unit
    assert want.rows[-1]["nonzero_modes"] == 4
    assert np.count_nonzero(rescaled) == 2


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("N", [2, 8, 32])
@pytest.mark.parametrize("t", [0.0, 0.1, 0.3])
def test_phasing_only_the_filled_modes_is_bit_identical(monkeypatch, j, lam, N, t):
    model = DispersionModel(j, lam)
    grid = TorusGrid(lam, grid_size_for_mode(3 * N))
    u0 = phi_n_data(N, -1.5, grid)
    got = [second_iterate_closed(model, u0, t).field.coeffs,
           third_iterate_closed(model, u0, t).field.coeffs]
    monkeypatch.setattr(hokdv.iterates, "_duhamel_kernel", full_lattice_duhamel_kernel)
    want = [second_iterate_closed(model, u0, t).field.coeffs,
            third_iterate_closed(model, u0, t).field.coeffs]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("j,lam", [(2, 1.0), (3, 2.0), (8, 1.0)])
def test_growth_sweep_norms_keep_the_bits_of_the_whole_lattice_norm(j, lam):
    """growth_sweep sums the H-dot^s mass over the modes A3 fills; sobolev_norm over
    the whole lattice of the same rescaled walk gives the same bits."""
    model, g = DispersionModel(j, lam), 2.0 * j - 1.0
    s_c = -j + 0.5
    s_list = [s_c - 0.5, s_c, s_c + 0.25, 0.0]
    reports = growth_sweep(model, s_list, SWEEP_N, 0.7)
    for s, report in zip(s_list, reports):
        for N, row in zip(SWEEP_N, report.rows):
            grid = TorusGrid(lam, grid_size_for_mode(3 * N))
            walk = third_iterate_closed(model, phi_n_data(N, -g / 3.0, grid), 0.7).field.coeffs
            scale = (float(N) ** (-s) / float(N) ** (g / 3.0)) ** 3
            assert row["h_s_norm"] == sobolev_norm(scale * walk, NormSpec(s, homogeneous=True), grid)


def _exact_a3_mode_n(model, N, t):
    """A3(phi_N)(t) at mode N for unit amplitude, without its phase e^{itp(N)}, as
    rational (re, im).

    Mode N meets one pair of waves: u1's at -N with A2's two waves at 2N, of
    amplitude +-amp = +-(2N/lam^2) / w23, w23 the frequency of the gap
    (2 - 2^n) N^n of (N, N).  One has a zero gap (weight t), the other the gap
    frequency w0 = sign (2^n - 2) N^n / lam^n, so A3_N = 2 i a (t - E(t, w0)) e^{itp(N)}
    with a = (N/lam^2) amp, and t - E(t, w) = -t sum_{k >= 2} (i t w)^(k-1) / k!,
    summed to k = 40 (|t w0| <= 2^-8 here: the rest is below 2^-400)."""
    n, lam, t = model.order, Fraction(model.lam), Fraction(t)
    w23 = model.sign * (2 - 2**n) * N**n / lam**n
    a = Fraction(N) / lam**2 * (2 * N / lam**2) / w23
    x = t * model.sign * (2**n - 2) * N**n / lam**n
    parts = [Fraction(0), Fraction(0)]  # t - E as (re, im)
    term = -t
    for k in range(2, 41):
        term = term * x / k  # -t x^(k-1) / k!, times i^(k-1)
        power = (k - 1) % 4
        parts[power % 2] += term if power < 2 else -term
    re, im = parts
    return -2 * a * im, 2 * a * re


@pytest.mark.parametrize("j,lam,N", [(2, 1.0, 8), (3, 3.5, 8), (4, 1.0, 2)])
@pytest.mark.parametrize("log2_tw0", [-8, -24, -31, -40])
def test_a3_cancellation_error_follows_the_refused_bound(j, lam, N, log2_tw0):
    """At mode N, A3's two waves cancel to t - E(t, w0).  Against the exact value,
    A3's relative error stays within 4 times 2^-52 / (t |w0|); at j = 3, lam = 3.5
    (an inexact w0) it reaches that estimate, past 2^-20 where the estimate is.
    (Elsewhere E's real part may round to t exactly, which leaves an error near
    t |w0| / 3.)  growth_sweep refuses every t here, naming t, as t |w0| < 50."""
    model = DispersionModel(j, lam)
    n = model.order
    t = 2.0**log2_tw0 / ((2**n - 2) * (N / lam) ** n)
    grid = TorusGrid(lam, grid_size_for_mode(3 * N))
    got = third_iterate_closed(model, phi_n_data(N, 0.0, grid), t).field.coeffs[N]
    got /= np.exp(1j * t * model.phase(grid.k_values[N]))
    re, im = _exact_a3_mode_n(model, N, t)
    error2 = ((Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2) / (re**2 + im**2)
    error, estimate = math.sqrt(error2), 2.0 ** (-52 - log2_tw0)
    assert error <= 4 * estimate
    if estimate > 2.0**-20 and (j, lam) == (3, 3.5):
        assert error > 2.0**-20
    with pytest.raises(Refused, match="below 50") as refused:
        growth_sweep(model, [0.0], [N, 2 * N, 4 * N], t)
    assert refused.value.what == "t"
