"""Ratio searches: determinism, homogeneity, closed-form single-cell values,
boundedness trends, the resonant family, and the negative control."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hokdv.dispersion import DispersionModel, Region, resonance_q0
from hokdv.verifier import (
    ModulationField,
    RatioSearchConfig,
    bilinear_zs_ratio,
    check_search_lattice,
    convolve_modulation,
    dyadic_bilinear_ratio,
    embedding_ratio,
    fixed_tau_field,
    product_l2_ratio,
    resonant_pair,
    smoothed_derivative,
)

from helpers import reference_modulation_cells


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


# m pools: a narrow range, a span past 2^16 (uint32 offsets), and the int64
# extremes, whose offsets from min(m) pass 2^63; sig pools reach near +-2^62
_M_POOLS = (
    st.integers(-3, 3),
    st.sampled_from([-(2**17), -5, 0, 1, 2, 2**16 + 3]),
    st.sampled_from([-(2**63), -(2**62), -1, 0, 1, 2**62, 2**63 - 1]),
)
_SIG = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(2**63), -(2**62) - 1, -(2**62), 2**62 - 1, 2**62, 2**63 - 1]),
)
_COEFF = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 - 2j]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


_CELLS = st.one_of(*(st.lists(st.tuples(pool, _SIG, _COEFF), max_size=16) for pool in _M_POOLS))


@settings(max_examples=300, deadline=None)
@given(cells=_CELLS, copies=st.integers(1, 4), shuffle=st.randoms(use_true_random=False),
       canonical=st.booleans(), all_zero=st.booleans())
@example(cells=[], copies=1, shuffle=None, canonical=False, all_zero=False)
def test_modulation_field_matches_the_lexsort_reference(cells, copies, shuffle, canonical, all_zero):
    """Radix-backed canonical form == the old lexsort consolidation, exactly."""
    cells = cells * copies
    if shuffle is not None:
        shuffle.shuffle(cells)
    m = np.array([c[0] for c in cells], dtype=np.int64)
    sig = np.array([c[1] for c in cells], dtype=np.int64)
    vals = np.array([0j if all_zero else c[2] for c in cells], dtype=np.complex128)
    if canonical:
        m, sig, vals = reference_modulation_cells(m, sig, vals)
    f = ModulationField(DispersionModel(2, 1.0), m, sig, vals)
    ref_m, ref_sig, ref_vals = reference_modulation_cells(m, sig, vals)
    assert f.m.dtype == np.int64 and f.sig_scaled.dtype == np.int64
    assert f.coeffs.dtype == np.complex128
    assert np.array_equal(f.m, ref_m)
    assert np.array_equal(f.sig_scaled, ref_sig)
    assert np.array_equal(f.coeffs, ref_vals)
    if all_zero:
        assert f.is_empty()


@pytest.mark.parametrize("m_span", [3, 2**17, 2**63])
def test_large_shuffles_match_the_lexsort_reference(model, m_span):
    """Thousands of cells on a few (m, sig) values: both stable passes decide the
    order in which duplicates are summed, and so the bits of the sums."""
    rng = np.random.default_rng(m_span)
    m_pool = np.array([-m_span, -1, 1, 2, m_span - 1], dtype=np.int64)
    sig_pool = np.array([-(2**62), -3, 0, 5, 2**62], dtype=np.int64)
    n = 6000
    m = rng.choice(m_pool, n)
    sig = rng.choice(sig_pool, n)
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n) + 1j * rng.normal(size=n)
    f = ModulationField(model, m, sig, vals)
    ref_m, ref_sig, ref_vals = reference_modulation_cells(m, sig, vals)
    assert np.array_equal(f.m, ref_m) and np.array_equal(f.sig_scaled, ref_sig)
    assert np.array_equal(f.coeffs, ref_vals)


def test_canonical_cells_are_not_resorted(model):
    f = ModulationField(model, [3, -2, 3, 1, -2], [5, 7, -1, 0, 7], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert f.m.tolist() == [-2, 1, 3, 3] and f.sig_scaled.tolist() == [7, 0, -1, 5]
    w = smoothed_derivative(f)
    assert w.m is f.m and w.sig_scaled is f.sig_scaled


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


def test_convolution_refuses_sigma_sums_past_int64():
    # j = 3, lam = 256: |sig_scaled| = 64 * 256^7 = 2^62 on both cells, so the
    # output sigma would wrap from +128 to -128
    model = DispersionModel(3, 256.0)
    big = 64 * 256**7
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(
            ModulationField(model, [2], [big], [1.0]), ModulationField(model, [-1], [big], [1.0])
        )


@pytest.mark.parametrize("sign", [1, -1])
def test_convolution_just_inside_int64_matches_python_ints(sign):
    model = DispersionModel(3, 1.0)
    n = model.order
    sig1 = 2**62
    sig2 = 2**63 - 1 - 3 * 3**n - sig1  # 3 (|m1| + |m2|)^n + |sig1| + |sig2| = 2^63 - 1
    f = ModulationField(model, [2], [sign * sig1], [1.0])
    out = convolve_modulation(f, ModulationField(model, [-1], [sign * sig2], [1.0]))
    assert out.m.tolist() == [1]
    assert out.sig_scaled.tolist() == [sign * (sig1 + sig2) + model.sign * resonance_q0(n, 2, -1)]
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(f, ModulationField(model, [-1], [sign * (sig2 + 1)], [1.0]))


def _largest_resonant_N(model):
    """The largest N whose resonant pair is built, by bisection over 2 .. 2^64."""
    lo, hi = 2, 2**64
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            resonant_pair(model, RatioSearchConfig(), None, -1.5, N=mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


@pytest.mark.filterwarnings("ignore:j = 1 is the classical KdV sanity mode")
@settings(max_examples=60, deadline=None)
@given(j=st.integers(1, 4), delta=st.integers(-4, 4), far=st.integers(2, 2**80))
def test_resonant_pair_refuses_N_past_int64(j, delta, far):
    """Either resonant_pair raises a ValueError naming N, or every product of its
    cells is accepted and exact; N just past the edge is what convolution refuses."""
    model = DispersionModel(j, 1.0)
    n = model.order
    edge = _largest_resonant_N(model)
    assert j > 3 or edge >= 64  # criterion 9 (j <= 3) draws N <= k_max // 2 = 64
    with pytest.raises(ValueError, match="int64"):  # a checked search never draws N > edge
        check_search_lattice(n, 1, RatioSearchConfig(k_max=2 * (edge + 1)))
    for N in (edge + delta, far):
        if N > edge:
            with pytest.raises(ValueError, match=f"N = {N}"):
                resonant_pair(model, RatioSearchConfig(), None, -1.5, N=N)
            continue
        u1, u2 = resonant_pair(model, RatioSearchConfig(), None, -1.5, N=N)
        for f, g in ((u1, u2), (u2, u2)):
            out = convolve_modulation(f, g)
            expect = {
                (a + b, int(sa) + int(sb) + model.sign * resonance_q0(n, int(a), int(b)))
                for a, sa in zip(f.m.tolist(), f.sig_scaled.tolist())
                for b, sb in zip(g.m.tolist(), g.sig_scaled.tolist())
                if a + b != 0
            }
            assert set(zip(out.m.tolist(), out.sig_scaled.tolist())) == expect
    # one past the edge, u2's cells still fit int64 but their square does not
    N = edge + 1
    shift = model.sign * resonance_q0(n, N, N)
    u2 = ModulationField(model, [2 * N, -2 * N], [shift, -shift], [1.0, 1.0])
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(u2, u2)


def test_search_lattice_check_accepts_the_criterion_9_range():
    cfg = RatioSearchConfig(k_max=128, t_modes=64)
    check_search_lattice(7, 4, cfg)  # j = 3, lam = 4
    with pytest.raises(ValueError, match="int64"):
        check_search_lattice(7, 256, cfg)


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
