"""Closed-form iterates against their independent oracles: hand-evaluated
two-mode sums, oscillatory-weighted quadrature, the exponential Duhamel
rule, the small-time resonant expansion, and the growth-exponent fits."""

import numpy as np
import pytest
from scipy.integrate import quad

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
from hokdv.torus import SpectralField, TorusGrid, inverse_transform

from helpers import (
    random_band_limited,
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
        # 16 panels, the smallest accepted budget, part of one block, whole
        # blocks, and whole blocks plus a partial one
        budgets = {16, needed, max(needed, block // 2 + 1), 3 * block, 2 * block + 7}
        for steps in sorted(b for b in budgets if b >= needed):
            blocked = second_iterate_quadrature(model, u, t, steps).coeffs
            reference = reference_second_iterate_quadrature(model, u, t, steps).coeffs
            assert np.array_equal(blocked, reference), (N, t, steps)
            assert np.any(blocked != 0)
            covered.add("one" if steps <= block else "whole" if steps % block == 0 else "partial")
            if steps == 16:
                covered.add("16")
            if steps == needed:
                covered.add("needed")
    assert {"one", "whole", "partial", "16", "needed"} <= covered


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
def test_third_iterate_matches_oscillatory_quadrature(j):
    grid = TorusGrid(1.0, 128)
    model = DispersionModel(j, 1.0)
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
    report = growth_sweep(model, -2.0, [8, 16, 32, 64], 1.0)
    assert report.summary["fitted_exponent"] == pytest.approx(1.0, abs=0.05)
    assert report.passed


def test_growth_sweep_flat_at_threshold():
    model = DispersionModel(2, 1.0)
    report = growth_sweep(model, -1.5, [8, 16, 32, 64], 1.0)
    assert abs(report.summary["fitted_exponent"]) < 0.05
    assert not report.summary["grows_unbounded"]


def test_growth_sweep_needs_three_points():
    model = DispersionModel(2, 1.0)
    with pytest.raises(ValueError):
        growth_sweep(model, -2.0, [8, 16], 1.0)
    with pytest.raises(ValueError):
        growth_sweep(model, -2.0, [16, 8, 32], 1.0)


@pytest.mark.parametrize("n_list", [[8, 8, 16], [8, 8, 8]])
def test_growth_sweep_refuses_repeated_n(n_list):
    model = DispersionModel(2, 1.0)
    with pytest.raises(ValueError, match="strictly ascending"):
        growth_sweep(model, -2.0, n_list, 1.0)


def test_growth_rows_carry_resonance_counts():
    model = DispersionModel(3, 1.0)
    report = growth_sweep(model, -3.0, [4, 8, 16], 0.5)
    assert all(row["resonant_terms"] == 2 for row in report.rows)
