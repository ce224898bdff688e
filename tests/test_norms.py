"""Sobolev, modulation-weighted, and region-decomposed norms; shells;
space-time construction and the binary frame container."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hokdv.dispersion import DispersionModel, Region, free_evolve, region_masks
from hokdv.iterates import phi_n_data
from hokdv.norms import (
    DyadicShell,
    MeanModeDroppedWarning,
    NormRangeWarning,
    NormSpec,
    SpaceTimeField,
    dyadic_localize,
    read_frames,
    shell_masses,
    smooth_bump_window,
    sobolev_norm,
    spacetime_from_timeseries,
    write_frames,
    xsb_norm,
    ys_mass,
    ys_norm,
    zs_norm,
    zs_norm_cells,
    zs_weights,
)
from hokdv.torus import DoubleRangeError, SpectralField, TorusGrid
from hokdv.verifier import ModulationField

from helpers import random_band_limited, random_spacetime_coeffs, reference_zs_norm_cells


@pytest.fixture
def model():
    return DispersionModel(2, 1.0)


@pytest.fixture
def grid():
    return TorusGrid(1.0, 16)


def random_field(grid, seed=0, t_modes=32, dtau=0.5):
    rng = np.random.default_rng(seed)
    return SpaceTimeField(grid, dtau, random_spacetime_coeffs(rng, grid.modes, t_modes))


# -- H^s ---------------------------------------------------------------------


@pytest.mark.parametrize("N,s", [(4, -2.0), (8, -2.0), (16, -1.5), (8, 0.0)])
def test_two_mode_data_has_unit_scale_homogeneous_norm(N, s):
    grid = TorusGrid(1.0, 128)
    u = phi_n_data(N, s, grid)
    assert sobolev_norm(u, NormSpec(s, homogeneous=True)) == pytest.approx(np.sqrt(2.0))


def test_sobolev_norm_of_zero_field(grid):
    assert sobolev_norm(SpectralField.zero(grid), NormSpec(-1.0)) == 0.0


def test_sobolev_single_mode_bracket_weight(grid):
    c = 0.3 - 1.2j
    u = SpectralField.from_modes(grid, {2: c})
    assert sobolev_norm(u, NormSpec(1.0)) == pytest.approx(np.sqrt(5.0) * abs(c))


def test_homogeneous_norm_drops_populated_mean_with_warning(grid):
    u = SpectralField.from_modes(grid, {0: 2.0, 3: 1.0})
    with pytest.warns(MeanModeDroppedWarning):
        value = sobolev_norm(u, NormSpec(-1.0, homogeneous=True))
    assert value == pytest.approx(3.0 ** (-1.0))


# -- X_{s,b} -----------------------------------------------------------------


def test_xsb_unit_weights_recover_total_mass(model, grid):
    u = random_field(grid)
    assert xsb_norm(u, NormSpec(0.0, 0.0), model) ** 2 == pytest.approx(
        u.total_mass_squared()
    )


def test_xsb_single_cell_closed_form(model, grid):
    c = np.zeros((16, 32), dtype=complex)
    grid_idx, tau_idx = grid.index_of(3), 20
    c[grid_idx, tau_idx] = 1.5 + 0.5j
    u = SpaceTimeField(grid, 0.25, c)
    tau = u.tau_values[tau_idx]
    sigma = tau - model.phase(3.0)
    expected = (
        np.hypot(1, 3.0) ** (-1.5)
        * np.hypot(1, sigma) ** 0.75
        * abs(1.5 + 0.5j)
        * np.sqrt(0.25 / 1.0)
    )
    assert xsb_norm(u, NormSpec(-1.5, 0.75), model) == pytest.approx(expected)


def test_xsb_monotone_in_modulation_exponent(model, grid):
    for seed in range(100):
        u = random_field(grid, seed=seed, t_modes=16)
        lo = xsb_norm(u, NormSpec(-1.0, 0.25), model)
        hi = xsb_norm(u, NormSpec(-1.0, 0.75), model)
        assert lo <= hi * (1 + 1e-12)


# -- Y^s ---------------------------------------------------------------------


def test_ys_single_cell(model, grid):
    c = np.zeros((16, 32), dtype=complex)
    c[grid.index_of(2), 5] = 2.0 + 1.0j
    u = SpaceTimeField(grid, 0.5, c)
    expected = np.hypot(1, 2.0) ** (-1.5) * abs(2 + 1j) * 0.5
    assert ys_norm(u, -1.5) == pytest.approx(expected)


def test_ys_is_additive_in_tau_width(model, grid):
    # constant over W cells at one k scales like W, not sqrt(W)
    values = []
    for width in (2, 4, 8):
        c = np.zeros((16, 32), dtype=complex)
        c[grid.index_of(2), 4 : 4 + width] = 1.0
        values.append(ys_norm(SpaceTimeField(grid, 0.5, c), 0.0))
    assert values[1] == pytest.approx(2 * values[0])
    assert values[2] == pytest.approx(4 * values[0])


def test_ys_cauchy_schwarz_against_xsb(model, grid):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = np.zeros((16, 32), dtype=complex)
        width = 6
        c[:, 10 : 10 + width] = random_spacetime_coeffs(rng, 16, width)
        u = SpaceTimeField(grid, 0.5, c)
        bound = np.sqrt(width * 0.5) * xsb_norm(u, NormSpec(-1.0, 0.0), DispersionModel(2, 1.0))
        assert ys_norm(u, -1.0) <= bound * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), s=st.sampled_from([-1.5, 0.0, 1.0]))
def test_ys_mass_is_independent_of_cell_order(seed, s):
    """Cells sorted by m (the sparse-field order, no sort inside) give the dense
    ys_norm exactly; any shuffle of the same cells gives it to rounding."""
    grid = TorusGrid(1.0, 16)
    u = random_field(grid, seed=seed, t_modes=8)
    m, k, _, vals = u.cell_arrays(DispersionModel(2, 1.0))
    order = np.argsort(m, kind="stable")
    sorted_mass = ys_mass(m[order], k[order], vals[order], u.dtau, grid.lam, s)
    assert np.sqrt(sorted_mass) == ys_norm(u, s)
    shuffle = np.random.default_rng(seed).permutation(len(m))
    shuffled_mass = ys_mass(m[shuffle], k[shuffle], vals[shuffle], u.dtau, grid.lam, s)
    assert shuffled_mass == pytest.approx(sorted_mass, rel=1e-13)


@pytest.mark.parametrize("j,lam", [(2, 1.0), (3, 2.0)])
def test_cell_sigma_reads_the_phase_per_wavenumber(j, lam):
    """sigma = tau - p(k) with p read once per wavenumber: the bits of p on every cell."""
    model = DispersionModel(j, lam)
    u = random_field(TorusGrid(lam, 32), t_modes=301)
    _, k, sigma, _ = u.cell_arrays(model)
    assert np.array_equal(k, np.repeat(u.grid.k_values, u.t_modes))
    assert np.array_equal(sigma, np.tile(u.tau_values, u.grid.modes) - model.phase(k))


# -- Z^s ---------------------------------------------------------------------


def test_zs_field_supported_in_single_region(model, grid):
    m, k, sigma, _ = random_field(grid).cell_arrays(model)
    masks = region_masks(model, k, sigma)
    u = random_field(grid, seed=3).masked(masks[Region.D1])
    z = zs_norm(u, -1.5, model)
    assert z.x_d2 == 0.0 and z.x_d3d4 == 0.0
    assert z.x_d1d5 == pytest.approx(
        xsb_norm(u, NormSpec(-1.5, 0.75), model)
    )
    assert z.total == pytest.approx(z.x_d1d5 + z.ys)


def test_zs_zero_field(model, grid):
    z = zs_norm(SpaceTimeField(grid, 0.5, np.zeros((16, 8))), -1.5, model)
    assert z.total == 0.0


def test_zs_warns_outside_window(model, grid):
    u = random_field(grid)
    with pytest.warns(NormRangeWarning):
        zs_norm(u, -0.25, model)


def test_zs_sandwich_directions(model, grid):
    """X at the low exponent sits below Z^s, which sits below X at the high
    exponent, with moderate measured constants on random fields."""
    low_ratios, high_ratios = [], []
    for seed in range(50):
        u = random_field(grid, seed=seed)
        z = zs_norm(u, -1.5, model).total
        low = xsb_norm(u, NormSpec(-1.5, 0.25), model)
        high = xsb_norm(u, NormSpec(-1.5, 0.75), model)
        low_ratios.append(low / z)
        high_ratios.append(z / high)
    assert max(low_ratios) < 1.0 + 1e-12  # Z^s contains the low norm outright
    assert max(high_ratios) < 10.0


@settings(max_examples=80, deadline=None)
@given(
    j=st.sampled_from([2, 3]),
    lam=st.sampled_from([1, 2]),
    s=st.sampled_from([-2.5, -1.5, -1.0, 0.5]),
    seed=st.integers(0, 2**16),
    cells=st.integers(0, 60),
    dense=st.booleans(),
    region=st.sampled_from([None, Region.D1, Region.D2, Region.D3, Region.D4, Region.D5]),
)
@example(j=2, lam=1, s=-1.5, seed=0, cells=0, dense=False, region=None)
@example(j=3, lam=2, s=-2.5, seed=1, cells=40, dense=False, region=Region.D2)
@example(j=2, lam=2, s=-1.5, seed=2, cells=0, dense=True, region=Region.D4)
def test_zs_norm_cells_matches_the_xsb_mass_reference(j, lam, s, seed, cells, dense, region):
    """Weights formed once per cell set give every Z^s component exactly as one
    masked xsb_mass per region block did: sparse modulation-lattice cells and
    dense cell arrays, with region blocks emptied by restriction to one region.
    One weight pass serves two coefficient vectors on the same cells, directly
    and through zs_norm_cells' weights cache."""
    model = DispersionModel(j, float(lam))
    rng = np.random.default_rng(seed)
    if dense:
        u = random_field(TorusGrid(float(lam), 16), seed, t_modes=8 + cells, dtau=rng.uniform(0.1, 50))
        m, k, sigma, vals = u.cell_arrays(model)
        cell_measure = u.dtau
    else:
        sig = rng.choice([-1, 1], cells) * 2.0 ** rng.uniform(0, 12 + 5 * j, cells)
        w = ModulationField(
            model, rng.integers(-8, 9, cells), sig.astype(np.int64), rng.normal(size=cells) + 1j
        )
        m, k, sigma, vals, cell_measure = w.m, w.k, w.sigma, w.coeffs, w.dtau
    if region is not None:
        keep = region_masks(model, k, sigma)[region]
        m, k, sigma, vals = m[keep], k[keep], sigma[keep], vals[keep]
    n = len(vals)
    other = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n) + 1j * rng.normal(size=n)
    weights, cache = zs_weights(m, k, sigma, model, s), {}
    for coeffs in (vals, other):
        want = astuple(reference_zs_norm_cells(m, k, sigma, coeffs, cell_measure, model, s))
        for got in (
            zs_norm_cells(m, k, sigma, coeffs, cell_measure, model, s, warn_range=False),
            weights.norm(coeffs, cell_measure).field(0),
            zs_norm_cells(m, k, sigma, coeffs, cell_measure, model, s, False, weights=cache),
        ):
            assert astuple(got) == want
    assert list(cache) == [s]  # the second coefficient vector reused the first's weights


def test_region_masks_partition_nonzero_columns(model, grid):
    u = random_field(grid)
    m, k, sigma, _ = u.cell_arrays(model)
    masks = region_masks(model, k, sigma)
    covered = np.zeros(len(k), dtype=int)
    for r in (Region.D1, Region.D2, Region.D3, Region.D4, Region.D5):
        covered += masks[r].astype(int)
    assert np.all(covered[k != 0] == 1)
    assert np.all(covered[k == 0] == 0)


# -- shells ------------------------------------------------------------------


def test_free_solution_mass_sits_in_bottom_shell(model, grid):
    # tau window spans +-pi*F/T = +-804, safely past |p(3)| = 243
    rng = np.random.default_rng(4)
    phi = random_band_limited(grid, rng, 3)
    times = -4.0 + 8.0 * np.arange(2048) / 2048
    frames = np.array([free_evolve(model, phi, t).coeffs for t in times])
    stf = spacetime_from_timeseries(grid, smooth_bump_window()(times)[:, None] * frames, times)
    masses = shell_masses(stf, model)
    assert masses[:4].sum() / masses.sum() > 0.99


def test_shell_partition_reassembles_exactly(model, grid):
    u = random_field(grid, seed=9)
    _, _, sigma, _ = u.cell_arrays(model)
    top = int(np.ceil(np.log2(np.hypot(1, sigma).max()))) + 1
    total = np.zeros_like(u.coeffs)
    for l in range(top + 1):
        total = total + dyadic_localize(u, DyadicShell(l), model).coeffs
    assert np.array_equal(total, u.coeffs)


def test_shell_masses_sum_to_total(model, grid):
    u = random_field(grid, seed=10)
    assert shell_masses(u, model).sum() == pytest.approx(u.total_mass_squared())


def test_shell_masses_and_shell_mask_agree_just_below_a_power_of_two(model, grid):
    """sigma = sqrt(63) has <sigma> = 8 - 2^-50 in double precision, where
    floor(log2(<sigma>)) rounds up to 3: the cell belongs to shell 2 in both."""
    sigma = 7.937253933193771
    coeffs = np.zeros((grid.modes, 4), dtype=np.complex128)
    coeffs[grid.index_of(1), 3] = 1.0  # tau = dtau, sigma = dtau - p(1) with p(1) = -1
    u = SpaceTimeField(grid, sigma + model.phase(1.0), coeffs)
    cell_sigma = u.cell_arrays(model)[2][np.flatnonzero(u.coeffs.reshape(-1))]
    assert cell_sigma.tolist() == [sigma]
    assert DyadicShell(2).mask(cell_sigma).tolist() == [True]
    masses = shell_masses(u, model)
    assert masses[2] == u.total_mass_squared()
    assert np.count_nonzero(masses) == 1


# -- space-time construction --------------------------------------------------


def test_time_independent_frames_concentrate_at_zero_tau(model, grid):
    phi = random_band_limited(grid, np.random.default_rng(6), 4)
    times = -4.0 + 8.0 * np.arange(512) / 512
    frames = np.tile(phi.coeffs, (len(times), 1))
    stf = spacetime_from_timeseries(grid, smooth_bump_window()(times)[:, None] * frames, times)
    tau = stf.tau_values
    mass = np.abs(stf.coeffs) ** 2
    near = mass[:, np.abs(tau) < 8].sum()
    assert near / mass.sum() > 0.99


def test_zero_frames_give_zero_field(grid):
    times = np.arange(16) * 0.25 - 2.0
    frames = np.zeros((len(times), grid.modes), dtype=np.complex128)
    stf = spacetime_from_timeseries(grid, frames, times)
    assert np.all(stf.coeffs == 0)


def test_too_few_frames_rejected(grid):
    times = np.arange(4) * 0.25
    frames = np.zeros((len(times), grid.modes), dtype=np.complex128)
    with pytest.raises(ValueError):
        spacetime_from_timeseries(grid, frames, times)


def test_nonuniform_times_rejected(grid):
    times = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8])
    frames = np.zeros((len(times), grid.modes), dtype=np.complex128)
    with pytest.raises(ValueError):
        spacetime_from_timeseries(grid, frames, times)


def test_window_is_one_on_core_and_vanishes_outside():
    eta = smooth_bump_window()
    assert np.all(eta(np.linspace(-1, 1, 11)) == 1.0)
    assert np.all(eta(np.array([-2.0, 2.0, 3.0])) == 0.0)
    mid = eta(np.array([1.5]))
    assert 0 < mid[0] < 1


# -- serialization ------------------------------------------------------------


def test_frames_container_round_trip(tmp_path, model, grid):
    rng = np.random.default_rng(13)
    frames = np.array([random_band_limited(grid, rng, 6).coeffs for _ in range(5)])
    path = tmp_path / "frames.frm"
    write_frames(path, frames, model, 0.125)
    back, back_model, dt = read_frames(path)
    assert dt == 0.125
    assert np.array_equal(back, frames)
    assert back_model.j == model.j and back_model.lam == model.lam


# -- norm axioms ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(0.01, 100.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_norms_are_absolutely_homogeneous(scale, seed):
    model = DispersionModel(2, 1.0)
    grid = TorusGrid(1.0, 8)
    u = random_field(grid, seed=seed, t_modes=16)
    scaled = SpaceTimeField(grid, u.dtau, u.coeffs * scale)
    assert xsb_norm(scaled, NormSpec(-1.5, 0.5), model) == pytest.approx(
        scale * xsb_norm(u, NormSpec(-1.5, 0.5), model), rel=1e-12
    )
    assert ys_norm(scaled, -1.5) == pytest.approx(scale * ys_norm(u, -1.5), rel=1e-12)
    assert zs_norm(scaled, -1.5, model).total == pytest.approx(
        scale * zs_norm(u, -1.5, model).total, rel=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_norms_satisfy_triangle_inequality(seed):
    model = DispersionModel(2, 1.0)
    grid = TorusGrid(1.0, 8)
    u = random_field(grid, seed=seed, t_modes=16)
    v = random_field(grid, seed=seed + 1, t_modes=16)
    w = SpaceTimeField(grid, u.dtau, u.coeffs + v.coeffs)
    for norm in (
        lambda f: xsb_norm(f, NormSpec(-1.5, 0.5), model),
        lambda f: ys_norm(f, -1.5),
        lambda f: zs_norm(f, -1.5, model).total,
    ):
        assert norm(w) <= norm(u) + norm(v) + 1e-12


@pytest.mark.parametrize("s,b,message", [(600.0, 0.5, "overflow"), (0.0, -400.0, "underflow"),
                                         (0.0, 51.3256, "they reach")])
def test_xsb_weights_leave_the_doubles_by_the_callers_name(s, b, message):
    """A bracket power that over- or underflows, or a weight past 2^1022 (here
    <1000>^102.65 = 2^1023), is refused under the name the caller gives its weights."""
    u = ModulationField(DispersionModel(2, 1.0), [3, -5], [2, 1000], [1.0, 1.0j])
    with pytest.raises(DoubleRangeError, match=message) as refused:
        u.xsb(s, b, "the X_{0,b} weights")
    assert refused.value.what == "the X_{0,b} weights"
