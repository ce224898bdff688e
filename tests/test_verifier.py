"""Ratio searches: determinism, homogeneity, closed-form single-cell values,
boundedness trends, the resonant family, and the negative control."""

import numpy as np
import pytest

from hokdv.dispersion import DispersionModel, Region
from hokdv.verifier import (
    ModulationField,
    RatioSearchConfig,
    bilinear_zs_ratio,
    convolve_modulation,
    dyadic_bilinear_ratio,
    embedding_ratio,
    fixed_tau_field,
    product_l2_ratio,
    resonant_pair,
    smoothed_derivative,
)


@pytest.fixture
def model():
    return DispersionModel(2, 1.0)


def test_modulation_field_accumulates_duplicate_cells(model):
    f = ModulationField(model, [1, 1, 2], [0, 0, 5], [1.0, 2.0, 3.0])
    assert len(f.m) == 2
    idx = list(zip(f.m.tolist(), f.sig_scaled.tolist()))
    assert (1, 0) in idx and (2, 5) in idx
    assert f.coeffs[idx.index((1, 0))] == 3.0


def test_modulation_field_drops_zero_mode_and_zero_values(model):
    f = ModulationField(model, [0, 1, 2], [0, 0, 0], [5.0, 0.0, 1.0])
    assert f.m.tolist() == [2]


def test_convolution_shift_is_the_resonance_gap(model):
    # (m=1, sigma=0) * (m=1, sigma=0) -> m=2 at sigma = p(1)+p(1)-p(2) = 30
    f = ModulationField(model, [1], [0], [1.0])
    out = convolve_modulation(f, f)
    assert out.m.tolist() == [2]
    assert out.sig_scaled.tolist() == [30]
    assert out.coeffs[0] == pytest.approx(1.0)  # dtau / lam = 1


def test_stored_sigma_is_the_resonance_mismatch_at_integral_lam():
    model = DispersionModel(2, 2.0)
    f = ModulationField(model, [1, 3], [0, 0], [1.0, 1.0])
    g = ModulationField(model, [2, -5], [0, 0], [1.0, 1.0])
    out = convolve_modulation(f, g)
    assert len(out.m) == 4
    for m, sigma in zip(out.m, out.sigma):
        pairs = [(a, int(m) - a) for a in (1, 3) if int(m) - a in (2, -5)]
        assert len(pairs) == 1
        k1, k2 = (v / model.lam for v in pairs[0])
        expect = model.phase(k1) + model.phase(k2) - model.phase(k1 + k2)
        assert sigma == pytest.approx(expect, rel=1e-12)


def test_non_integral_lam_is_refused():
    with pytest.raises(ValueError, match="integral lam"):
        ModulationField(DispersionModel(2, 1.5), [1], [0], [1.0])


def test_convolution_collision_accumulates(model):
    f = ModulationField(model, [1, 2], [0, 0], [1.0, 1.0])
    g = ModulationField(model, [1, 2], [0, 0], [1.0, 1.0])
    out = convolve_modulation(f, g)
    # (1,2) and (2,1) land on the same (m=3, sigma) cell
    cell_ms = out.m.tolist()
    assert cell_ms.count(3) == 1
    value = out.coeffs[cell_ms.index(3)]
    assert value == pytest.approx(2.0)


def test_empty_inputs_give_empty_output(model):
    empty = ModulationField(model, [], [], [])
    g = ModulationField(model, [1], [0], [1.0])
    assert convolve_modulation(empty, g).is_empty()


def test_ratios_are_scale_invariant(model):
    rng = np.random.default_rng(0)
    u1, u2 = resonant_pair(model, RatioSearchConfig(), rng, -1.5, N=6)
    def ratio(a, b):
        w = smoothed_derivative(convolve_modulation(a, b))
        return w.zs(-1.5).total / (a.zs(-1.5).total * b.zs(-1.5).total)
    base = ratio(u1, u2)
    scaled = ratio(
        ModulationField(model, u1.m, u1.sig_scaled, u1.coeffs * 7.3),
        ModulationField(model, u2.m, u2.sig_scaled, u2.coeffs * 0.011),
    )
    assert scaled == pytest.approx(base, rel=1e-12)


def test_search_reports_are_deterministic(model):
    cfg = RatioSearchConfig(trials=40, k_max=24, t_modes=32, support=32, seed=99)
    a = bilinear_zs_ratio(model, -1.5, cfg)
    b = bilinear_zs_ratio(model, -1.5, cfg)
    assert a.rows == b.rows
    assert a.max_ratio == b.max_ratio and a.argmax_trial == b.argmax_trial
    assert a.witness == b.witness


def test_zero_factor_gives_zero_ratio(model):
    u = ModulationField(model, [1], [0], [1.0])
    empty = ModulationField(model, [], [], [])
    out = convolve_modulation(u, empty)
    assert out.l2_norm() == 0.0


def test_product_l2_single_cell_closed_form(model):
    """One cell against one cell: every norm is a single term."""
    c1, c2 = 1.5 + 0.5j, -2.0 + 1.0j
    sig1, sig2 = 3, -7
    u = ModulationField(model, [2], [sig1], [c1])
    v = ModulationField(model, [5], [sig2], [c2])
    a, b = 0.4, 0.3
    out = convolve_modulation(u, v)
    lhs = out.l2_norm()
    assert lhs == pytest.approx(abs(c1 * c2))  # dtau=lam=1, single output cell
    rhs = u.xsb(0.0, a) * v.xsb(0.0, b)
    expected_rhs = (
        np.hypot(1, sig1) ** a * abs(c1) * np.hypot(1, sig2) ** b * abs(c2)
    )
    assert rhs == pytest.approx(expected_rhs)
    ratio = lhs / rhs
    assert ratio == pytest.approx(np.hypot(1, sig1) ** (-a) * np.hypot(1, sig2) ** (-b))


def test_admissible_product_bound_stays_bounded(model):
    j = model.j
    a = b = (j + 1) / (2 * (2 * j + 1))
    cfg = RatioSearchConfig(trials=120, k_max=32, t_modes=48, support=48, seed=5)
    report = product_l2_ratio(model, a, b, cfg)
    assert not report.flags
    assert report.max_ratio < 5.0


def test_inadmissible_pair_is_flagged_and_grows_with_lattice(model):
    maxima = []
    for k_max in (16, 32, 64, 128):
        cfg = RatioSearchConfig(
            trials=3, k_max=k_max, t_modes=16, support=16, generator="fixed-tau", seed=3
        )
        report = product_l2_ratio(model, 0.0, 0.0, cfg)
        assert "inadmissible-exponents" in report.flags
        maxima.append(report.max_ratio)
    assert maxima[-1] > 1.5 * maxima[0]
    assert all(b > a for a, b in zip(maxima, maxima[1:]))


def test_fixed_tau_control_grows_like_sqrt_k(model):
    rng = np.random.default_rng(1)
    cfg32 = RatioSearchConfig(trials=1, k_max=32, generator="fixed-tau", seed=1)
    cfg128 = RatioSearchConfig(trials=1, k_max=128, generator="fixed-tau", seed=1)
    def unweighted_ratio(cfg):
        u = fixed_tau_field(model, cfg, rng)
        return convolve_modulation(u, u).l2_norm() / u.l2_norm() ** 2
    r32, r128 = unweighted_ratio(cfg32), unweighted_ratio(cfg128)
    assert r128 / r32 == pytest.approx(2.0, rel=0.25)  # sqrt(128/32) = 2


def test_dyadic_shell_ratio_trend_in_upper_shell(model):
    cfg = RatioSearchConfig(trials=40, k_max=24, support=48, seed=5)
    maxima = [dyadic_bilinear_ratio(model, 0, l2, cfg).max_ratio for l2 in (0, 3, 6, 9)]
    assert all(m > 0 for m in maxima)
    assert max(maxima) <= maxima[0] * 1.5  # no growth beyond the prefactor


def test_dyadic_shell_skips_are_counted(model):
    cfg = RatioSearchConfig(trials=5, k_max=4, support=1, seed=8)
    report = dyadic_bilinear_ratio(model, 0, 2, cfg)
    assert report.skipped + len(report.rows) == cfg.trials


def test_embedding_low_direction_never_exceeds_one_on_d1_fields(model):
    cfg = RatioSearchConfig(trials=60, k_max=24, t_modes=32, support=32, seed=13)
    report = embedding_ratio(model, -1.5, cfg)
    # the low norm is one of the Z^s summands' minorants: ratio <= 1 always
    assert report.params["max_by_direction"]["low_vs_zs"] <= 1.0 + 1e-12
    assert report.params["max_by_direction"]["zs_vs_high"] < 10.0
    assert report.params["max_by_direction"]["half_d12_vs_zs"] < 10.0


def test_d1_restricted_field_satisfies_direct_weight_comparison(model):
    rng = np.random.default_rng(2)
    cells_m = rng.integers(1, 20, 40)
    cells_sig = rng.integers(-3, 4, 40)
    u = ModulationField(model, cells_m, cells_sig, np.ones(40)).region_restricted(
        (Region.D1,)
    )
    assert not u.is_empty()
    low = u.xsb(-1.5, 1.0 / 4.0)
    high = u.xsb(-1.5, 3.0 / 4.0)
    assert low <= high * (1 + 1e-12)


@pytest.mark.parametrize("j", [2, 3])
def test_resonant_family_growth_below_threshold(j):
    """Below s = -j + 1/2 the resonant pair drives the ratio like N^{-2s-(2j-1)}."""
    model = DispersionModel(j, 1.0)
    s = -j + 0.25  # a quarter below the threshold
    cfg = RatioSearchConfig()
    rng = np.random.default_rng(0)
    ratios = []
    for N in (4, 16, 64):
        u1, u2 = resonant_pair(model, cfg, rng, s, N=N)
        w = smoothed_derivative(convolve_modulation(u1, u2))
        ratios.append(w.zs(s).total / (u1.zs(s).total * u2.zs(s).total))
    measured = np.polyfit(np.log([4, 16, 64]), np.log(ratios), 1)[0]
    assert measured == pytest.approx(-2 * s - (2 * j - 1), abs=0.1)


@pytest.mark.parametrize("j", [2, 3])
def test_resonant_family_saturates_at_threshold(j):
    model = DispersionModel(j, 1.0)
    s = -j + 0.5
    cfg = RatioSearchConfig()
    rng = np.random.default_rng(0)
    ratios = []
    for N in (4, 16, 64):
        u1, u2 = resonant_pair(model, cfg, rng, s, N=N)
        w = smoothed_derivative(convolve_modulation(u1, u2))
        ratios.append(w.zs(s).total / (u1.zs(s).total * u2.zs(s).total))
    assert max(ratios) <= 1.1 * min(ratios) + 1e-9


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
def test_bilinear_zs_search_runs_on_scaled_tori(lam):
    model = DispersionModel(2, lam)
    cfg = RatioSearchConfig(trials=40, k_max=16, t_modes=32, support=32, seed=21)
    report = bilinear_zs_ratio(model, -1.5, cfg)
    assert report.max_ratio > 0
    assert len(report.rows) + report.skipped == cfg.trials


def test_witness_serialization_replays(model):
    cfg = RatioSearchConfig(trials=30, k_max=16, t_modes=32, support=24, seed=77)
    report = bilinear_zs_ratio(model, -1.5, cfg)
    assert report.witness is not None
    fields = []
    for desc in report.witness["fields"]:
        cells = desc["cells"]
        fields.append(
            ModulationField(
                model,
                [c["m"] for c in cells],
                [c["sigma_scaled"] for c in cells],
                [c["re"] + 1j * c["im"] for c in cells],
            )
        )
    w = smoothed_derivative(convolve_modulation(fields[0], fields[1]))
    replayed = w.zs(-1.5).total / (fields[0].zs(-1.5).total * fields[1].zs(-1.5).total)
    assert replayed == pytest.approx(report.max_ratio, rel=1e-12)
