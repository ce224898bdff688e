"""Time integration, conserved quantities, the cutoff Duhamel map, the
contraction measurement, and the scaling symmetry."""

import numpy as np
import pytest

from hokdv.dispersion import DispersionModel, free_evolve
from hokdv.iterates import second_iterate_closed
from hokdv.norms import (
    smooth_bump_window,
    sobolev_norm,
    spacetime_from_timeseries,
    zs_norm_cells,
)
from hokdv import solver
from hokdv.solver import (
    BlowUpError,
    SolverConfig,
    _cumulative_integral,
    _stage_factor,
    conserved_quantities,
    contraction_experiment,
    duhamel_map,
    frame_grid,
    integrate,
)
from hokdv.torus import (
    SpectralField,
    TorusGrid,
    dealias_cutoff,
    dealias_mask,
    full_spectrum,
    half_spectrum,
    lattice_product,
    lattice_square,
)

from helpers import (
    homogeneous_sobolev_norm,
    physical_l2_norm,
    random_band_limited,
    reference_contraction_experiment,
    reference_duhamel_map,
    reference_integrate,
    scale_transform,
    zs_norm,
)


def smooth_data(grid, scale=0.05, decay=1.5, max_mode=6, seed=7):
    rng = np.random.default_rng(seed)
    amps = {}
    for m in range(1, max_mode + 1):
        a = scale * (rng.normal() + 1j * rng.normal()) * np.exp(-decay * m)
        amps[m] = a
        amps[-m] = np.conj(a)
    return SpectralField.from_modes(grid, amps)


@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
def test_linear_integration_is_exact(scheme):
    grid = TorusGrid(1.0, 256)
    model = DispersionModel(2, 1.0)
    u0 = smooth_data(grid)
    cfg = SolverConfig(dt=0.02, T=1.0, nonlinear=False, scheme=scheme, frame_stride=10)
    _, frames = integrate(model, u0, cfg)
    exact = free_evolve(model, u0, 1.0)
    assert np.max(np.abs(frames[-1] - exact.coeffs)) < 1e-10


@pytest.mark.parametrize("j", [2, 3])
def test_invariants_over_unit_time(j):
    grid = TorusGrid(1.0, 256)
    model = DispersionModel(j, 1.0)
    u0 = smooth_data(grid)
    cfg = SolverConfig(dt=5e-4, T=1.0, frame_stride=200)
    _, frames = integrate(model, u0, cfg)
    assert np.all(frames[:, grid.nyquist_index] == 0)
    means, l2s = conserved_quantities(frames, grid)
    for mean, l2 in zip(means, l2s):
        assert abs(mean - means[0]) < 1e-12
        assert abs(l2 - l2s[0]) / l2s[0] < 1e-8


def test_temporal_convergence_order():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u0 = smooth_data(grid, scale=0.2, decay=1.0, max_mode=3)

    def end_state(dt):
        cfg = SolverConfig(dt=dt, T=0.25, frame_stride=10**9)
        return integrate(model, u0, cfg)[1][-1]

    e1 = np.max(np.abs(end_state(0.002) - end_state(0.001)))
    e2 = np.max(np.abs(end_state(0.001) - end_state(0.0005)))
    assert e1 / e2 >= 2**3.8


@pytest.mark.parametrize("j,T,dt", [(2, 0.3, 2e-4), (3, 0.1, 4e-5)])
def test_nonlinear_solution_follows_the_picard_expansion(j, T, dt):
    """For data eps phi_N, u(T) = eps u1 - (eps^2/2) A2 + (eps^3/4) A3 + O(eps^4):
    a wrong sign or factor in the product term or in a closed iterate leaves a
    remainder of order eps^2 or eps^3.  3N = 6 sits inside the 2/3 cutoff of
    M = 32, so the solver keeps the third-order output."""
    from hokdv.iterates import phi_n_data, third_iterate_closed

    grid = TorusGrid(1.0, 32)
    model = DispersionModel(j, 1.0)
    phi = phi_n_data(2, 0.0, grid)
    u1 = free_evolve(model, phi, T).coeffs
    a2 = second_iterate_closed(model, phi, T).coeffs
    a3 = third_iterate_closed(model, phi, T)[0].coeffs
    remainders = []
    for eps in (0.4, 0.2, 0.1):
        data = SpectralField(grid, eps * phi.coeffs)
        u_T = integrate(model, data, SolverConfig(dt=dt, T=T, scheme="etdrk4", frame_stride=10**9))[1][-1]
        expansion = eps * u1 - eps**2 / 2 * a2 + eps**3 / 4 * a3
        remainders.append(np.max(np.abs(u_T - expansion)))
    slopes = np.log2(np.array(remainders[:-1]) / np.array(remainders[1:]))
    assert np.all(slopes >= 3.8), (remainders, slopes)


def test_blow_up_detection():
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u0 = smooth_data(grid, scale=40.0, decay=0.3, max_mode=8)
    cfg = SolverConfig(dt=0.05, T=2.0, frame_stride=1)
    with pytest.raises(BlowUpError) as info:
        integrate(model, u0, cfg)
    assert info.value.ratio > 10


def test_mean_zero_requirement():
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(2, 1.0)
    u0 = SpectralField.from_modes(grid, {0: 1.0, 1: 0.1, -1: 0.1})
    with pytest.raises(ValueError):
        integrate(model, u0, SolverConfig(dt=0.01, T=0.1))


@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
@pytest.mark.parametrize("modes", [32, 64, 256])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("j", [2, 3])
def test_integrate_matches_the_reference_stepper(j, lam, modes, scheme):
    """The step weights with the product's constants folded in move frames only
    at rounding level, against the stepper that scales every stage product:
    smooth data with a small tail on every mode (so the input mask matters),
    the linear flow bit for bit, and a blow-up at the same step."""
    model = DispersionModel(j, lam)
    grid = TorusGrid(lam, modes)
    tail = random_band_limited(grid, np.random.default_rng(modes + j), modes // 2 - 1).coeffs
    u0 = SpectralField(grid, smooth_data(grid, scale=1.0, decay=0.5).coeffs + 1e-3 * tail)
    scale = np.max(np.abs(u0.coeffs))
    for stride in (1, 7):
        for nonlinear in (True, False):
            cfg = SolverConfig(dt=1e-3, T=0.02, scheme=scheme, nonlinear=nonlinear,
                               frame_stride=stride)
            times, frames = integrate(model, u0, cfg)
            ref_times, ref_frames = reference_integrate(model, u0, cfg)
            assert np.array_equal(times, ref_times)
            if nonlinear:
                assert np.max(np.abs(frames - ref_frames)) <= 1e-13 * scale
            else:
                assert np.array_equal(frames, ref_frames)
    big = smooth_data(grid, scale=40.0, decay=0.3, max_mode=8)
    cfg = SolverConfig(dt=0.05, T=2.0, scheme=scheme, frame_stride=1)
    with pytest.raises(BlowUpError) as got:
        integrate(model, big, cfg)
    with pytest.raises(BlowUpError) as ref:
        reference_integrate(model, big, cfg)
    assert got.value.t == ref.value.t
    assert got.value.ratio == pytest.approx(ref.value.ratio, rel=1e-12)


@pytest.mark.parametrize("lam,modes", [(1.0, 16), (1.0, 256), (2.0, 64), (3.0, 512)])
def test_stage_factor_times_lattice_square_is_the_product_term(lam, modes):
    """g * lattice_square of the kept modes of v's half spectrum, mirrored, is
    -(ik/2) lattice_product(v) on the whole lattice, masked input and output,
    for real fields with modes beyond the 2/3 cutoff."""
    grid = TorusGrid(lam, modes)
    mask = dealias_mask(grid)
    v = random_band_limited(grid, np.random.default_rng(modes), modes // 2 - 1)
    expect = -0.5j * grid.k_values * lattice_product(v.coeffs, grid, mask)
    kept = half_spectrum(v)[: dealias_cutoff(modes) + 1]
    got = full_spectrum(_stage_factor(grid) * lattice_square(kept, modes), modes)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
@pytest.mark.parametrize("j,lam,modes", [(2, 1.0, 64), (3, 1.0, 512), (2, 3.0, 256), (4, 1.0, 256)])
def test_integrate_frames_are_exactly_real(j, lam, modes, scheme):
    """Every frame is real bit for bit, coeff(-m) == conj(coeff(m)) and coeff(0)
    real, also on grids where p(-k) != -p(k) in the last bit."""
    grid = TorusGrid(lam, modes)
    model = DispersionModel(j, lam)
    u0 = smooth_data(grid)
    _, frames = integrate(model, u0, SolverConfig(dt=1e-4, T=0.002, scheme=scheme, frame_stride=5))
    assert np.all(frames[:, 0].imag == 0.0)
    assert np.array_equal(frames[:, : modes // 2 : -1], np.conj(frames[:, 1 : modes // 2]))


def test_integrate_refuses_a_field_that_is_not_real():
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(2, 1.0)
    one_sided = SpectralField.from_modes(grid, {1: 0.1 + 0.2j, 3: -0.1j})
    with pytest.raises(ValueError, match="conjugate symmetric"):
        integrate(model, one_sided, SolverConfig(dt=0.01, T=0.1))


def test_conserved_quantities_of_named_fields():
    grid = TorusGrid(1.0, 32)
    constant = SpectralField.from_modes(grid, {0: 2.0 * np.pi * 1.7})  # f(x) = 1.7
    mean, l2 = conserved_quantities(constant.coeffs, grid)
    assert mean == pytest.approx(1.7)
    assert l2 == pytest.approx(1.7 * np.sqrt(2 * np.pi))
    from hokdv.iterates import phi_n_data

    two_mode = phi_n_data(4, -1.0, grid)
    mean2, l22 = conserved_quantities(two_mode.coeffs, grid)
    assert mean2 == 0.0
    # Parseval: integral |u|^2 = (1/(2 pi)) * (1/lam) sum |coeff|^2
    assert l22 == pytest.approx(np.sqrt(2 * 16.0 / (2 * np.pi)))


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("modes", [8, 256, 512, 1024])
def test_conserved_quantities_keep_the_bits_of_the_summed_l2_norm(modes, lam):
    """The L2 norm read off H^0 (<k>^0 is exactly 1.0) is the per-row sum of |coeff|^2,
    bit for bit, over a frame array and row by row; the means are coeff(0) / (2 pi lam)."""
    grid = TorusGrid(lam, modes)
    rng = np.random.default_rng(modes)
    half = rng.normal(size=(31, modes // 2 + 1)) + 1j * rng.normal(size=(31, modes // 2 + 1))
    half[:, 0] = half[:, 0].real
    frames = full_spectrum(half, modes) * 10.0 ** rng.integers(-8, 8, (31, 1))
    l2s = [physical_l2_norm(row, grid) for row in frames]
    means = [SpectralField(grid, row).mean_value().real for row in frames]
    assert np.array_equal(conserved_quantities(frames, grid), [means, l2s])
    for row, mean, l2 in zip(frames, means, l2s):
        assert np.array_equal(conserved_quantities(row, grid), (mean, l2))


# -- Duhamel map ------------------------------------------------------------------


def frame_times(n_frames=2801, span=2.2):
    half = n_frames // 2
    dt = span / half
    return dt * np.arange(-half, half + 1)


def test_duhamel_of_zero_is_windowed_free_flow():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05})
    times = frame_times(301)
    eta = smooth_bump_window
    zero = np.zeros((len(times), grid.modes), dtype=np.complex128)
    out = duhamel_map(model, phi, zero, times, held=frame_grid(model, grid, times))
    for idx in (0, 60, 150, 222, 300):
        expect = eta(times[idx]) * free_evolve(model, phi, times[idx]).coeffs
        assert np.max(np.abs(out[idx] - expect)) < 1e-14


def test_duhamel_rejects_frames_that_do_not_match_times():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.05, -1: 0.05})
    times = frame_times(301)
    held = frame_grid(model, grid, times)
    with pytest.raises(ValueError, match="frames have shape"):
        duhamel_map(model, phi, np.zeros((100, grid.modes), dtype=np.complex128), times, held=held)
    with pytest.raises(ValueError, match="frames have shape"):
        duhamel_map(model, phi, np.zeros((len(times), 8), dtype=np.complex128), times, held=held)


def test_duhamel_refuses_unevenly_spaced_times():
    """Every panel is integrated with one dt, so a grid whose spacing changes
    at t = 0 is refused rather than integrated with the wrong step."""
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    times = np.concatenate((0.022 * np.arange(-65, 0), 0.073 * np.arange(66)))
    assert len(times) == 131
    with pytest.raises(ValueError, match="uniformly spaced"):
        frame_grid(model, grid, times)


def test_duhamel_held_frame_grid_gives_the_same_bits():
    """One held frame grid serves maps of different data and frames, and its
    Z^s norms at different s, with the bits of the fresh computation."""
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    times = frame_times(301)
    held = frame_grid(model, grid, times)
    for seed, s in ((1, -1.5), (2, -1.25), (3, -1.5)):
        phi = smooth_data(grid, scale=0.2, seed=seed)
        free = held.free_flow(phi)
        assert np.array_equal(free, np.array(
            [smooth_bump_window(t) * free_evolve(model, phi, t).coeffs for t in times]
        ))
        frames = duhamel_map(model, phi, free, times, held=held)
        assert np.array_equal(frames, reference_duhamel_map(model, phi, free, times))
        assert held.zs_norm(frames, s) == zs_norm(
            spacetime_from_timeseries(grid, frames, times), s, model
        )
    with pytest.raises(ValueError, match="held frame grid"):
        duhamel_map(model, phi, free[1:], times[1:], held=held)


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("modes", [16, 32])
@pytest.mark.parametrize("n_frames", [41, 301])
def test_held_frame_grid_transform_gives_the_bits_of_a_fresh_one(j, lam, modes, n_frames):
    """The held grid's time transform phase, its S(-t) as the conjugate of S(t), and
    its cells give the Z^s norms of a fresh spacetime_from_timeseries and zs_norm."""
    grid = TorusGrid(lam, modes)
    model = DispersionModel(j, lam)
    times = frame_times(n_frames)
    held = frame_grid(model, grid, times)
    assert np.array_equal(held.backward, np.exp(-1j * times[:, None] * model.phase(grid.k_values)))
    phi = smooth_data(grid, scale=0.2, seed=j + modes)
    frames = duhamel_map(model, phi, held.free_flow(phi), times, held=held)
    for s in (-j + 0.5, -j / 2.0):
        assert held.zs_norm(frames, s) == zs_norm(
            spacetime_from_timeseries(grid, frames, times), s, model
        )


def test_held_frame_grid_zs_norm_checks_its_frames():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    held = frame_grid(model, grid, frame_times(41))
    frames = held.free_flow(SpectralField.from_modes(grid, {1: 0.1, -1: 0.1}))
    for wrong in (frames[1:], frames[:, :8], frames[0]):
        with pytest.raises(ValueError, match="frames must be"):
            held.zs_norm(wrong, -1.5)
    few = frame_grid(model, grid, frame_times(7))
    with pytest.raises(ValueError, match=r"\(7, 16\), at least 8 frames"):
        few.zs_norm(few.free_flow(SpectralField.zero(grid)), -1.5)


def test_duhamel_picard_two_matches_closed_second_iterate():
    """One application of the map to the free flow must reproduce
    u1 - (1/2) A2 on the window core."""
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.05 * np.pi, -1: 0.05 * np.pi})
    times = frame_times(2801)
    eta = smooth_bump_window
    eta_t = eta(times)
    u1 = np.array([eta_t[i] * free_evolve(model, phi, t).coeffs for i, t in enumerate(times)])
    out = duhamel_map(model, phi, u1, times, held=frame_grid(model, grid, times))
    worst = 0.0
    for idx in range(0, len(times), 137):
        t = times[idx]
        if not 0.0 <= t <= 1.0:
            continue
        expect = (
            free_evolve(model, phi, t).coeffs
            - 0.5 * second_iterate_closed(model, phi, t).coeffs
        )
        worst = max(worst, np.max(np.abs(out[idx] - expect)))
    assert worst < 1e-8


def test_fixed_point_residual_of_converged_iteration():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.01 * np.pi, -1: 0.01 * np.pi})
    times = frame_times(301)
    eta = smooth_bump_window
    eta_t = eta(times)
    current = np.array(
        [eta_t[i] * free_evolve(model, phi, t).coeffs for i, t in enumerate(times)]
    )
    held = frame_grid(model, grid, times)
    for _ in range(8):
        current = duhamel_map(model, phi, current, times, held=held)
    again = duhamel_map(model, phi, current, times, held=held)
    residual = np.max(np.abs(again - current))
    scale = np.max(np.abs(current))
    assert residual < 1e-8 * scale


@pytest.mark.parametrize("anchor", [0, 1, 6, 10])
def test_cumulative_integral_is_exact_for_cubics(anchor):
    """The interior and one-sided panel rules are all exact on cubics, from
    any anchor, along axis 0 of a (times, modes) array."""
    t = 0.3 * np.arange(11) - 0.9
    f = np.stack([t**3 - 2 * t, 1j * t**2], axis=1)
    exact = np.stack([t**4 / 4 - t**2, 1j * t**3 / 3], axis=1)
    got = _cumulative_integral(f, 0.3, anchor)
    assert np.max(np.abs(got - (exact - exact[anchor]))) < 1e-13


# -- contraction -------------------------------------------------------------------


def test_contraction_factor_small_data():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.01 * np.pi, -1: 0.01 * np.pi})
    trace = contraction_experiment(model, phi, -1.5, max_iter=8, n_frames=301)
    assert trace.converged
    assert trace.factor < 0.5


def test_contraction_zero_data_converges_immediately():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    trace = contraction_experiment(
        model, SpectralField.zero(grid), -1.5, max_iter=3, n_frames=101
    )
    assert trace.converged
    assert all(d == 0 for d in trace.diff_norms)


def test_contraction_factor_scales_linearly_with_amplitude():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    amplitudes = [0.005, 0.01, 0.02, 0.04]
    factors = []
    for amp in amplitudes:
        phi = SpectralField.from_modes(grid, {1: amp * np.pi, -1: amp * np.pi})
        trace = contraction_experiment(model, phi, -1.5, max_iter=5, n_frames=301)
        factors.append(trace.factor)
    design = np.vstack([amplitudes, np.ones(4)]).T
    coef, residual, *_ = np.linalg.lstsq(design, np.array(factors), rcond=None)
    total = np.sum((np.array(factors) - np.mean(factors)) ** 2)
    r_squared = 1.0 - (residual[0] / total if len(residual) else 0.0)
    assert r_squared > 0.99


def test_contraction_diverges_for_large_data():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 10 * np.pi, -1: 10 * np.pi})
    trace = contraction_experiment(model, phi, -1.5, max_iter=8, n_frames=101)
    assert trace.diverged or trace.factor >= 1.0


@pytest.mark.parametrize(
    "amp, outcome",
    [(0.01, (True, False)), (0.16, (False, False)), (10.0, (False, True))],
)
def test_contraction_forms_one_zs_per_iteration(monkeypatch, amp, outcome):
    """One Z^s for the first iterate (the scale of the floor and of the
    divergence test), then one per iteration, of the difference: for data that
    converge, that stop at max_iter and that diverge."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return zs_norm_cells(*args, **kwargs)

    monkeypatch.setattr(solver, "zs_norm_cells", counted)
    grid = TorusGrid(1.0, 16)
    phi = SpectralField.from_modes(grid, {1: amp * np.pi, -1: amp * np.pi})
    trace = contraction_experiment(DispersionModel(2, 1.0), phi, -1.5, max_iter=8, n_frames=301)
    assert (trace.converged, trace.diverged) == outcome
    assert len(calls) == 1 + len(trace.diff_norms)


@pytest.mark.parametrize("n_frames", [41, 100, 301])
@pytest.mark.parametrize("modes", [16, 32])
@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("j", [2, 3])
def test_contraction_matches_the_reference_experiment(j, lam, modes, n_frames):
    """The held frame grid changes no bit of the trace: zero data (converges at
    once), small data, diverging data and small data on six complex modes,
    against the experiment that evolves every frame, builds every propagator
    and forms every Z^s afresh."""
    model = DispersionModel(j, lam)
    grid = TorusGrid(lam, modes)
    s = -1.5 if j == 2 else -2.0
    data = [SpectralField.from_modes(grid, {1: a * np.pi, -1: a * np.pi})
            for a in (0.0, 0.01, 10.0)]
    outcomes = []
    for phi in data + [smooth_data(grid, scale=0.01)]:
        got = contraction_experiment(model, phi, s, max_iter=6, n_frames=n_frames)
        ref = reference_contraction_experiment(model, phi, s, max_iter=6, n_frames=n_frames)
        assert got.diff_norms == ref.diff_norms
        assert got.hs_sup_diffs == ref.hs_sup_diffs
        assert np.array_equal(got.factor, ref.factor, equal_nan=True)
        assert (got.converged, got.diverged) == (ref.converged, ref.diverged)
        outcomes.append((got.converged, got.diverged))
    assert outcomes[0] == (True, False) and outcomes[2] == (False, True)


# -- scaling ------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [2, 4, 8])
@pytest.mark.parametrize("j,s", [(2, -1.5), (3, -2.5)])
def test_homogeneous_norm_scaling_law_is_exact(mu, j, s):
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(j, 1.0)
    u0 = random_band_limited(grid, np.random.default_rng(21), 12)
    scaled, _ = scale_transform(model, u0, mu)
    ratio = homogeneous_sobolev_norm(scaled, s) / homogeneous_sobolev_norm(u0, s)
    assert ratio == pytest.approx(float(mu) ** (-2 * j + 0.5 - s), rel=1e-12)


def test_inhomogeneous_norm_scaling_within_five_percent_at_high_frequency():
    grid = TorusGrid(1.0, 256)
    model = DispersionModel(2, 1.0)
    amps = {m: 1.0 for m in range(32, 49)}
    amps.update({-m: 1.0 for m in range(32, 49)})
    u0 = SpectralField.from_modes(grid, amps)
    scaled, _ = scale_transform(model, u0, 2)
    ratio = sobolev_norm(scaled.coeffs, -1.5, scaled.grid) / sobolev_norm(u0.coeffs, -1.5, grid)
    assert ratio == pytest.approx(2.0 ** (-2 * 2 + 0.5 + 1.5), rel=0.05)


@pytest.mark.parametrize("mu", [2, 3])
def test_solve_then_scale_commutes_with_scale_then_solve(mu):
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u0 = smooth_data(grid, scale=0.3, decay=1.0, max_mode=3, seed=5)
    T = 0.1
    factor = float(mu) ** (2 * model.j + 1)
    scaled0, scaled_model = scale_transform(model, u0, mu)
    _, f_scaled = integrate(
        scaled_model, scaled0, SolverConfig(dt=T / 512, T=T, frame_stride=10**9)
    )
    _, f_orig = integrate(
        model, u0, SolverConfig(dt=(T / factor) / 512, T=T / factor, frame_stride=10**9)
    )
    rescaled_end, _ = scale_transform(model, SpectralField(grid, f_orig[-1]), mu)
    diff = np.max(np.abs(f_scaled[-1] - rescaled_end.coeffs))
    assert diff < 1e-8
