"""Acceptance suite: one test per top-level claim, each printing a
single PASS/FAIL line (run with -s to see them inline).

Every tolerance is pinned here, not configured elsewhere.  Run order is
independent; total runtime is a couple of minutes on a laptop core.
"""

import time

import numpy as np
import pytest

from hokdv.dispersion import (
    DispersionModel,
    Region,
    audit_resonance_bound,
    free_evolve,
    region_masks,
)
from hokdv.iterates import (
    growth_sweep,
    phi_n_data,
    second_iterate_closed,
    second_iterate_quadrature,
    third_iterate_closed,
)
from hokdv.norms import DyadicShell, SpaceTimeField
from hokdv.solver import (
    SolverConfig,
    conserved_quantities,
    contraction_experiment,
    integrate,
)
from hokdv.torus import SpectralField, TorusGrid, convolve
from hokdv.verifier import (
    RatioSearchConfig,
    bilinear_zs_ratio,
    embedding_ratio,
    product_l2_ratio,
)

from helpers import (
    forward_transform,
    homogeneous_sobolev_norm,
    inverse_transform,
    random_band_limited,
    random_spacetime_coeffs,
    scale_transform,
)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}", flush=True)


def smooth_data(grid, scale=0.05, decay=1.5, max_mode=6, seed=7):
    rng = np.random.default_rng(seed)
    amps = {}
    for m in range(1, max_mode + 1):
        a = scale * (rng.normal() + 1j * rng.normal()) * np.exp(-decay * m)
        amps[m] = a
        amps[-m] = np.conj(a)
    return SpectralField.from_modes(grid, amps)


# -- 1. ill-posedness growth law ----------------------------------------------


def test_criterion_1_growth_law():
    cases = [
        (2, -1.75, 0.5),
        (2, -2.0, 1.0),
        (2, -1.5, 0.0),
        (3, -2.5, 0.0),
        (3, -3.0, 1.0),
    ]
    n_list = [8, 16, 32, 64, 128]
    results = []
    ok = True
    for j, s, expected in cases:
        model = DispersionModel(j, 1.0)
        fitted = growth_sweep(model, [s], n_list, 1.0)[0].summary["fitted_exponent"]
        good = abs(fitted - expected) <= 0.1
        ok = ok and good
        results.append(f"j={j} s={s}: {fitted:.3f} (theory {expected})")
    report(1, ok, "; ".join(results))
    assert ok


# -- 2. exact audit --------------------------------------------------------------


def test_criterion_2_resonance_audit():
    start = time.time()
    ok = True
    details = []
    for j in (1, 2, 3, 4):
        with pytest.warns(UserWarning) if j == 1 else _noop():
            model = DispersionModel(j, 1.0)
        rep = audit_resonance_bound(model, 200)
        ok = ok and rep.summary["violations"] == 0
        details.append(f"j={j}: {rep.summary['pairs_checked']} pairs, min ratio {rep.summary['min_ratio']:.6f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report(2, ok, f"{'; '.join(details)}; elapsed {elapsed:.2f}s")
    assert ok


class _noop:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# -- 3. Picard oracle equivalence --------------------------------------------------


def test_criterion_3_oracle_agreement_at_fixed_budget():
    """256 panels agree with the closed form to 1e-6 on every cell where the
    oracle's documented rule accepts them (panel phase 2 N^{2j+1} t / 256 at
    most pi/2); on every other cell the oracle must refuse the budget."""
    steps = 256
    rows = []
    ok = True
    for j in (2, 3):
        model = DispersionModel(j, 1.0)
        for N in (2, 4, 8):
            grid = TorusGrid(1.0, 64)
            u0 = phi_n_data(N, 0.0, grid)
            for t in (0.1, 0.3):
                theta = 2 * N ** (2 * j + 1) * t / steps
                if theta > np.pi / 2:
                    with pytest.raises(ValueError, match="steps must be >="):
                        second_iterate_quadrature(model, u0, t, steps)
                    rows.append(f"j={j} N={N} t={t}: refused (theta={theta:.3g})")
                    continue
                closed = second_iterate_closed(model, u0, t).coeffs
                quad = second_iterate_quadrature(model, u0, t, steps).coeffs
                err = float(np.max(np.abs(closed - quad)))
                good = err <= 1e-6
                ok = ok and good
                rows.append(f"j={j} N={N} t={t}: {err:.2e}{'' if good else ' > 1e-6'}")
    report(3, ok, "256-step agreement; " + "; ".join(rows))
    assert ok, "256-panel quadrature disagrees with the closed form on an accepted cell"


def test_criterion_3_convergence_order():
    model = DispersionModel(2, 1.0)
    grid = TorusGrid(1.0, 64)
    u0 = phi_n_data(4, 0.0, grid)
    closed = second_iterate_closed(model, u0, 0.3).coeffs
    errs = [
        np.max(np.abs(closed - second_iterate_quadrature(model, u0, 0.3, n).coeffs))
        for n in (512, 1024, 2048)
    ]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    ok = min(orders) >= 3.8
    report(3, ok, f"doubling orders {['%.2f' % o for o in orders]} (>= 3.8 required)")
    assert ok


# -- 4. resonant secular growth ------------------------------------------------------


def test_criterion_4_secular_slope():
    ok = True
    details = []
    for j in (2, 3):
        model = DispersionModel(j, 1.0)
        grid = TorusGrid(1.0, 128)
        N, s = 8, -2.0
        u0 = phi_n_data(N, s, grid)
        ts = np.linspace(0.02, 0.1, 9)
        mags = [abs(third_iterate_closed(model, u0, t)[0].coeffs[grid.index_of(N)]) for t in ts]
        slope = np.polyfit(ts, mags, 1)[0]
        hand = 2 * N * (2 * N) * float(N) ** (-3 * s) / (
            (2 ** (2 * j + 1) - 2) * float(N) ** (2 * j + 1)
        )
        rel = abs(slope - hand) / hand
        good = rel <= 0.02
        ok = ok and good
        details.append(f"j={j}: slope {slope:.6g} vs {hand:.6g} (rel {rel:.2e})")
    report(4, ok, "; ".join(details))
    assert ok


# -- 5. solver invariants --------------------------------------------------------------


def test_criterion_5_solver_invariants():
    ok = True
    details = []
    for j in (2, 3):
        model = DispersionModel(j, 1.0)
        grid = TorusGrid(1.0, 256)
        u0 = smooth_data(grid)
        _, frames = integrate(model, u0, SolverConfig(dt=5e-4, T=1.0, frame_stride=200))
        means, l2s = conserved_quantities(frames, grid)
        mean_drift = max(abs(means - means[0]))
        l2_drift = max(abs(l2s - l2s[0]) / l2s[0])
        _, lin_frames = integrate(
            model, u0, SolverConfig(dt=0.01, T=1.0, nonlinear=False, frame_stride=100)
        )
        lin_err = np.max(np.abs(lin_frames[-1] - free_evolve(model, u0, 1.0).coeffs))
        good = mean_drift <= 1e-12 and l2_drift <= 1e-8 and lin_err <= 1e-10
        ok = ok and good
        details.append(
            f"j={j}: mean {mean_drift:.1e}, L2 {l2_drift:.1e}, linear {lin_err:.1e}"
        )
    report(5, ok, "; ".join(details))
    assert ok


# -- 6. contraction ---------------------------------------------------------------------


def test_criterion_6_contraction():
    grid = TorusGrid(1.0, 16)
    model = DispersionModel(2, 1.0)
    phi = SpectralField.from_modes(grid, {1: 0.01 * np.pi, -1: 0.01 * np.pi})
    trace = contraction_experiment(model, phi, -1.5, max_iter=8, n_frames=301)
    amplitudes = [0.005, 0.01, 0.02, 0.04]
    factors = []
    for amp in amplitudes:
        p = SpectralField.from_modes(grid, {1: amp * np.pi, -1: amp * np.pi})
        factors.append(
            contraction_experiment(model, p, -1.5, max_iter=5, n_frames=301).factor
        )
    design = np.vstack([amplitudes, np.ones(4)]).T
    _, residual, *_ = np.linalg.lstsq(design, np.array(factors), rcond=None)
    total = np.sum((np.array(factors) - np.mean(factors)) ** 2)
    r_squared = 1.0 - (residual[0] / total if len(residual) else 0.0)
    ok = trace.factor < 0.5 and r_squared > 0.99
    report(6, ok, f"factor {trace.factor:.4f} (< 0.5), linearity R^2 {r_squared:.6f}")
    assert ok


# -- 7. scaling law -----------------------------------------------------------------------


def test_criterion_7_scaling_law():
    model = DispersionModel(2, 1.0)
    grid = TorusGrid(1.0, 64)
    u0 = SpectralField.from_modes(grid, {3: 1.0, -3: 1.0})
    s = -1.5
    ok = True
    details = []
    for mu in (2, 4, 8):
        scaled, _ = scale_transform(model, u0, mu)
        ratio = homogeneous_sobolev_norm(scaled, s) / homogeneous_sobolev_norm(u0, s)
        target = float(mu) ** (-2 * model.j + 0.5 - s)
        good = abs(ratio - target) <= 1e-12 * target
        ok = ok and good
        details.append(f"mu={mu}: ratio err {abs(ratio - target):.1e}")
    # solve-then-scale against scale-then-solve
    data = smooth_data(grid, scale=0.3, decay=1.0, max_mode=3, seed=5)
    mu, T = 2, 0.1
    factor = float(mu) ** (2 * model.j + 1)
    scaled0, scaled_model = scale_transform(model, data, mu)
    _, f_scaled = integrate(scaled_model, scaled0, SolverConfig(dt=T / 512, T=T, frame_stride=10**9))
    _, f_orig = integrate(
        model, data, SolverConfig(dt=(T / factor) / 512, T=T / factor, frame_stride=10**9)
    )
    rescaled, _ = scale_transform(model, SpectralField(grid, f_orig[-1]), mu)
    commute = float(np.max(np.abs(f_scaled[-1] - rescaled.coeffs)))
    ok = ok and commute <= 1e-8
    details.append(f"commutation {commute:.1e}")
    report(7, ok, "; ".join(details))
    assert ok


# -- 8. norm machinery -----------------------------------------------------------------------


def test_criterion_8_norm_machinery():
    details = []
    # transforms: round trip, Parseval pairing, convolution identity
    # (pointwise-product route needs supports within M/6 to stay alias-free)
    grid = TorusGrid(1.0, 96)
    rng = np.random.default_rng(2)
    f = random_band_limited(grid, rng, 16)
    g = random_band_limited(grid, rng, 16)
    round_trip = np.max(
        np.abs(forward_transform(inverse_transform(f), grid).coeffs - f.coeffs)
    )
    fx, gx = inverse_transform(f), inverse_transform(g)
    physical = np.sum(fx * np.conj(gx)) * grid.period / grid.modes
    parseval = abs(np.sum(f.coeffs * np.conj(g.coeffs)) / grid.lam - 2 * np.pi * physical)
    conv = np.max(
        np.abs(
            convolve(f, g).coeffs
            - 2 * np.pi * forward_transform(fx * gx, grid).coeffs
        )
    )
    transforms_ok = round_trip < 1e-12 and parseval < 1e-12 * abs(physical) and conv < 1e-10
    details.append(
        f"round-trip {round_trip:.1e}, Parseval {parseval:.1e}, convolution {conv:.1e}"
    )

    # shells partition the cells and their mass exactly; region masks partition the
    # punctured lattice
    model = DispersionModel(2, 1.0)
    small = TorusGrid(1.0, 16)
    u = SpaceTimeField(small, 0.5, random_spacetime_coeffs(np.random.default_rng(3), 16, 33))
    _, k, sigma, vals = u.cell_arrays(model)
    top = int(np.ceil(np.log2(np.hypot(1, sigma).max()))) + 1
    shells = [DyadicShell(l).mask(sigma) for l in range(top + 1)]
    reassembled = sum(np.where(shell, vals, 0) for shell in shells)
    mass = np.abs(vals) ** 2 * u.dtau / small.lam
    shells_exact = (
        np.array_equal(sum(shell.astype(int) for shell in shells), np.ones(len(vals), dtype=int))
        and np.array_equal(reassembled, vals)
        and sum(mass[shell].sum() for shell in shells) == pytest.approx(mass.sum())
    )
    masks = region_masks(model, k, sigma)
    cover = sum(
        masks[r].astype(int) for r in (Region.D1, Region.D2, Region.D3, Region.D4, Region.D5)
    )
    masks_ok = bool(np.all(cover[k != 0] == 1) and np.all(cover[k == 0] == 0))
    details.append(f"shells exact {shells_exact}, region partition {masks_ok}")

    # embedding ratios: 1000 fields per (j, s), bounded across lattice sizes
    embed_ok = True
    for j, s in ((2, -1.5), (3, -2.5)):
        model_j = DispersionModel(j, 1.0)
        maxima = {}
        for k_max in (32, 64, 128):
            cfg = RatioSearchConfig(trials=1000, k_max=k_max, t_modes=64, support=48, seed=17)
            rep = embedding_ratio(model_j, s, cfg)
            maxima[k_max] = rep.max_ratio
        trend_ok = maxima[128] <= 1.5 * maxima[32]
        embed_ok = embed_ok and trend_ok
        details.append(
            f"embedding j={j}: max ratios {maxima[32]:.3f}/{maxima[64]:.3f}/{maxima[128]:.3f}"
        )
    ok = transforms_ok and shells_exact and masks_ok and embed_ok
    report(8, ok, "; ".join(details))
    assert ok


# -- 9. bilinear estimate probe -----------------------------------------------------------------


def test_criterion_9_bilinear_probe():
    details = []
    ok = True
    for j in (2, 3):
        s = -j + 0.5
        for lam in (1.0, 2.0, 4.0):
            model = DispersionModel(j, lam)
            maxima = {}
            for k_max in (32, 64, 128):
                cfg = RatioSearchConfig(
                    trials=500, k_max=k_max, t_modes=64, support=48, seed=23
                )
                maxima[k_max] = bilinear_zs_ratio(model, s, cfg).max_ratio
            trend_ok = maxima[128] <= 1.5 * maxima[32]
            ok = ok and trend_ok
            details.append(
                f"j={j} lam={int(lam)}: {maxima[32]:.3f}/{maxima[64]:.3f}/{maxima[128]:.3f}"
            )
    # negative control: the unweighted product ratio must measurably grow
    model = DispersionModel(2, 1.0)
    control = {}
    for k_max in (32, 128):
        cfg = RatioSearchConfig(
            trials=3, k_max=k_max, t_modes=16, support=16, generator="fixed-tau", seed=3
        )
        control[k_max] = product_l2_ratio(model, 0.0, 0.0, cfg).max_ratio
    growth = control[128] / control[32]
    ok = ok and growth >= 1.5
    details.append(f"negative control growth x{growth:.2f}")
    report(9, ok, "; ".join(details))
    assert ok
