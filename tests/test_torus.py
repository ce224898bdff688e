"""Transforms, convolution, and inner products on the scaled torus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hokdv.torus import (
    GridMismatchError,
    SpectralField,
    TorusGrid,
    convolve,
    dealias_cutoff,
    dealias_mask,
    full_spectrum,
    half_spectrum,
    lattice_product,
    lattice_square,
    product_scale,
)

from hokdv.norms import sobolev_norm
from hokdv.solver import conserved_quantities

from helpers import forward_transform, inverse_transform, random_band_limited

TWO_PI = 2.0 * np.pi


def test_constant_transforms_to_zero_mode_only():
    grid = TorusGrid(1.0, 32)
    f = forward_transform(np.ones(32), grid)
    assert f.coeffs[grid.index_of(0)] == pytest.approx(TWO_PI, abs=1e-13)
    others = np.delete(f.coeffs, grid.index_of(0))
    assert np.max(np.abs(others)) < 1e-13


def test_pure_exponential_hits_single_mode():
    grid = TorusGrid(1.0, 32)
    f = forward_transform(np.exp(1j * grid.period * np.arange(32) / 32), grid)
    assert f.coeffs[grid.index_of(1)] == pytest.approx(TWO_PI, abs=1e-12)
    others = np.delete(f.coeffs, grid.index_of(1))
    assert np.max(np.abs(others)) < 1e-12


def test_cosine_coefficients_match_analytic_integral():
    # int_0^{2pi} cos(3x) e^{-ikx} dx = pi at k = +-3, zero elsewhere
    grid = TorusGrid(1.0, 32)
    f = forward_transform(np.cos(3 * grid.period * np.arange(32) / 32), grid)
    assert f.coeffs[grid.index_of(3)] == pytest.approx(np.pi, abs=1e-12)
    assert f.coeffs[grid.index_of(-3)] == pytest.approx(np.pi, abs=1e-12)
    rest = [grid.index_of(m) for m in range(-15, 15) if abs(m) != 3]
    assert np.max(np.abs(f.coeffs[rest])) < 1e-12


def test_inverse_of_constant_coefficient():
    grid = TorusGrid(1.0, 16)
    f = SpectralField.from_modes(grid, {0: TWO_PI})
    assert np.allclose(inverse_transform(f), 1.0, atol=1e-14)


def test_conjugate_symmetric_field_has_real_samples():
    grid = TorusGrid(1.0, 64)
    f = random_band_limited(grid, np.random.default_rng(0), 20, real=True)
    samples = inverse_transform(f)
    assert np.max(np.abs(samples.imag)) < 1e-12


@pytest.mark.parametrize("modes", [64, 256, 1024])
def test_round_trip_identity(modes):
    grid = TorusGrid(1.0, modes)
    rng = np.random.default_rng(modes)
    f = random_band_limited(grid, rng, modes // 2 - 1, real=False)
    again = forward_transform(inverse_transform(f), grid)
    assert np.max(np.abs(again.coeffs - f.coeffs)) < 1e-12 * max(1, np.max(np.abs(f.coeffs)))
    # band-limited samples (no Nyquist content) round-trip the other way too
    samples = inverse_transform(random_band_limited(grid, rng, modes // 2 - 1))
    back = inverse_transform(forward_transform(samples, grid))
    assert np.max(np.abs(back - samples)) < 1e-12 * max(1, np.max(np.abs(samples)))


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_convolution_identity_element(lam):
    grid = TorusGrid(lam, 32)
    ident = SpectralField.from_modes(grid, {0: lam})
    g = random_band_limited(grid, np.random.default_rng(1), 8)
    out = convolve(ident, g)
    assert np.max(np.abs(out.coeffs - g.coeffs)) < 1e-14


def test_single_mode_convolution_is_one_term():
    grid = TorusGrid(1.0, 32)
    f = SpectralField.from_modes(grid, {1: 2.0 + 1.0j})
    g = SpectralField.from_modes(grid, {2: -0.5 + 3.0j})
    out = convolve(f, g)
    assert out.coeffs[grid.index_of(3)] == pytest.approx((2 + 1j) * (-0.5 + 3j))
    assert np.sum(np.abs(out.coeffs) > 1e-15) == 1


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_convolution_matches_pointwise_product(lam):
    # with integral coefficients, F(fg) carries 1/(2 pi lam); the lattice
    # convolution carries 1/lam, so they differ by exactly 2*pi
    grid = TorusGrid(lam, 48)
    rng = np.random.default_rng(7)
    f = random_band_limited(grid, rng, 8, real=False)
    g = random_band_limited(grid, rng, 8, real=False)
    direct = convolve(f, g)
    via_product = forward_transform(inverse_transform(f) * inverse_transform(g), grid)
    assert np.max(np.abs(direct.coeffs - TWO_PI * via_product.coeffs)) < 1e-12 * np.max(
        np.abs(direct.coeffs) + 1
    )


@pytest.mark.parametrize("lam,modes", [(1.0, 32), (2.0, 64), (1.0, 96)])
def test_lattice_square_matches_direct_convolution(lam, modes):
    # support <= M/4: no m1 + m2 wraps onto a kept mode; m1 + m2 = +-M/2 lands
    # in the Nyquist slot, which every SpectralField holds at zero
    grid = TorusGrid(lam, modes)
    f = random_band_limited(grid, np.random.default_rng(modes), modes // 4)
    direct = convolve(f, f).coeffs
    fast = full_spectrum(product_scale(grid) * lattice_square(half_spectrum(f), modes), modes)
    assert np.max(np.abs(fast - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


@pytest.mark.parametrize("lam,modes", [(1.0, 32), (2.0, 64), (1.0, 96)])
def test_lattice_square_of_the_kept_modes_is_the_dealiased_convolution(lam, modes):
    # support up to M/2 - 1; passing only the kept modes is the 2/3 input mask,
    # and no wrapped pair lands on a kept mode
    grid = TorusGrid(lam, modes)
    mask = dealias_mask(grid)
    f = random_band_limited(grid, np.random.default_rng(modes + 1), modes // 2 - 1)
    kept = SpectralField(grid, f.coeffs * mask)
    direct = convolve(kept, kept).coeffs * mask
    short = half_spectrum(f)[: dealias_cutoff(modes) + 1]
    fast = full_spectrum(product_scale(grid) * lattice_square(short, modes), modes) * mask
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))


def test_half_spectrum_refuses_a_field_that_is_not_real():
    grid = TorusGrid(1.0, 16)
    f = random_band_limited(grid, np.random.default_rng(2), 7)
    assert np.array_equal(full_spectrum(half_spectrum(f), 16), f.coeffs)
    for bad in ({1: 1.0j}, {0: 1.0j}, {1: 1.0, -1: 1.0 + 1e-16j}):
        with pytest.raises(ValueError, match="conjugate symmetric"):
            half_spectrum(SpectralField.from_modes(grid, bad))


def test_dealiased_lattice_product_is_masked_direct_convolution():
    grid = TorusGrid(1.0, 64)
    mask = dealias_mask(grid)
    f = random_band_limited(grid, np.random.default_rng(4), 31, real=False)
    kept = SpectralField(grid, f.coeffs * mask)
    direct = convolve(kept, kept).coeffs * mask
    fast = lattice_product(f.coeffs, grid, mask)
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))


def test_lattice_product_batches_leading_axes():
    grid = TorusGrid(1.0, 32)
    rng = np.random.default_rng(9)
    rows = np.array([random_band_limited(grid, rng, 8).coeffs for _ in range(6)])
    batch = lattice_product(rows.reshape(2, 3, 32), grid, dealias_mask(grid))
    for row, out in zip(rows, batch.reshape(6, 32)):
        assert np.array_equal(out, lattice_product(row, grid, dealias_mask(grid)))


def test_inner_product_single_mode_parseval():
    grid = TorusGrid(1.0, 32)
    f = SpectralField.from_modes(grid, {1: TWO_PI})
    # (1/lam) |2 pi|^2 = 4 pi^2 = 2 pi * integral |e^{ix}|^2 dx
    assert np.sum(f.coeffs * np.conj(f.coeffs)) / grid.lam == pytest.approx(4 * np.pi**2)
    g = SpectralField.from_modes(grid, {2: TWO_PI})
    assert np.sum(f.coeffs * np.conj(g.coeffs)) / grid.lam == 0.0


def test_parseval_against_physical_quadrature():
    grid = TorusGrid(1.0, 64)
    rng = np.random.default_rng(3)
    f = random_band_limited(grid, rng, 20)
    g = random_band_limited(grid, rng, 20)
    spectral = np.sum(f.coeffs * np.conj(g.coeffs)) / grid.lam
    fx, gx = inverse_transform(f), inverse_transform(g)
    physical = np.sum(fx * np.conj(gx)) * grid.period / grid.modes
    assert spectral == pytest.approx(TWO_PI * physical, rel=1e-12)


def test_grid_and_length_mismatches_raise():
    g1, g2 = TorusGrid(1.0, 32), TorusGrid(2.0, 32)
    f1 = SpectralField.zero(g1)
    f2 = SpectralField.zero(g2)
    with pytest.raises(GridMismatchError):
        convolve(f1, f2)
    with pytest.raises(ValueError, match="expected"):
        SpectralField(g1, np.ones(16))


def test_nyquist_mode_is_always_zero():
    grid = TorusGrid(1.0, 16)
    c = np.ones(16, dtype=complex)
    f = SpectralField(grid, c)
    assert f.coeffs[grid.nyquist_index] == 0.0


def test_dealias_mask_keeps_bottom_third():
    grid = TorusGrid(1.0, 96)
    mask = dealias_mask(grid)
    assert mask[grid.index_of(31)] and not mask[grid.index_of(32)]


@pytest.mark.parametrize("modes", [48, 96])
def test_dealiased_square_of_third_mode_does_not_alias(modes):
    # (M/3)^2 wraps onto -M/3; the mask must drop M/3 so nothing lands there.
    grid = TorusGrid(1.0, modes)
    third = modes // 3
    f = SpectralField.from_modes(grid, {third: 1.0})
    out = lattice_product(f.coeffs, grid, dealias_mask(grid))
    assert out[grid.index_of(-third)] == 0.0


@settings(max_examples=25, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**16),
)
def test_operations_are_linear(a, b, seed):
    grid = TorusGrid(1.0, 32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(grid, rng, 6, real=False)
    g = random_band_limited(grid, rng, 6, real=False)
    h = random_band_limited(grid, rng, 6, real=False)
    lin = convolve(SpectralField(grid, a * f.coeffs + b * g.coeffs), h).coeffs
    split = a * convolve(f, h).coeffs + b * convolve(g, h).coeffs
    scale = max(1.0, np.max(np.abs(lin)))
    assert np.max(np.abs(lin - split)) < 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_convolution_preserves_conjugate_symmetry(seed):
    grid = TorusGrid(1.0, 32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(grid, rng, 6)
    g = random_band_limited(grid, rng, 6)
    mirror = (-grid.m_ints) % grid.modes
    assert np.array_equal(f.coeffs, np.conj(f.coeffs[mirror]))
    out = convolve(f, g).coeffs
    assert np.max(np.abs(out - np.conj(out[mirror]))) <= 1e-11 * max(1.0, np.max(np.abs(out)))


def test_l2_norm_of_constant_field():
    grid = TorusGrid(1.0, 16)
    f = SpectralField.from_modes(grid, {0: TWO_PI})  # f(x) = 1
    # physical L2 of 1 on [0, 2 pi) is sqrt(2 pi); lattice norm carries sqrt(2 pi) more
    assert sobolev_norm(f.coeffs, 0.0, grid) == pytest.approx(TWO_PI)
    assert conserved_quantities(f.coeffs, grid)[1] == pytest.approx(np.sqrt(TWO_PI))
