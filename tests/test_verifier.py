"""Ratio searches: determinism, homogeneity, closed-form single-cell values,
boundedness trends, the resonant family, and the negative control."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hokdv import norms, verifier
from hokdv.dispersion import DispersionModel, Region, resonance_q0
from hokdv.norms import DyadicShell, angle_bracket
from hokdv.solver import frame_grid
from hokdv.torus import TorusGrid
from hokdv.verifier import (
    GENERATORS,
    ModulationField,
    PlanMemo,
    RatioSearchConfig,
    bilinear_zs_ratio,
    check_int64_lattice,
    check_search_lattice,
    convolve_modulation,
    dyadic_bilinear_ratio,
    embedding_ratio,
    field_cells,
    product_l2_ratio,
    smoothed_derivative,
)

from helpers import (
    lone_field, random_spacetime_coeffs, reference_modulation_cells, reference_run_trials,
    reference_zs_norm_cells, replay_bilinear_zs, replay_embedding,
)


@pytest.fixture
def model():
    return DispersionModel(2, 1.0)


def resonant_pair(model, N, s):
    """The resonant two-mode family's two fields at N (verifier._resonant_pair)."""
    u1, u2 = verifier._resonant_pair(model, N, s)
    return lone_field(model, *u1), lone_field(model, *u2)


def test_modulation_field_accumulates_duplicate_cells(model):
    f = lone_field(model, [1, 1, 2], [0, 0, 5], [1.0, 2.0, 3.0])
    assert len(f.m) == 2
    idx = list(zip(f.m.tolist(), f.sig_scaled.tolist()))
    assert (1, 0) in idx and (2, 5) in idx
    assert f.coeffs[idx.index((1, 0))] == 3.0


def test_modulation_field_drops_zero_mode_and_zero_values(model):
    f = lone_field(model, [0, 1, 2], [0, 0, 0], [5.0, 0.0, 1.0])
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
    f = lone_field(DispersionModel(2, 1.0), m, sig, vals)
    ref_m, ref_sig, ref_vals = reference_modulation_cells(m, sig, vals)
    assert f.m.dtype == np.int64 and f.sig_scaled.dtype == np.int64
    assert f.coeffs.dtype == np.complex128
    assert np.array_equal(f.m, ref_m)
    assert np.array_equal(f.sig_scaled, ref_sig)
    assert np.array_equal(f.coeffs, ref_vals)
    if all_zero:
        assert len(f.m) == 0


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
    f = lone_field(model, m, sig, vals)
    ref_m, ref_sig, ref_vals = reference_modulation_cells(m, sig, vals)
    assert np.array_equal(f.m, ref_m) and np.array_equal(f.sig_scaled, ref_sig)
    assert np.array_equal(f.coeffs, ref_vals)


def test_canonical_cells_are_not_resorted(model):
    f = lone_field(model, [3, -2, 3, 1, -2], [5, 7, -1, 0, 7], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert f.m.tolist() == [-2, 1, 3, 3] and f.sig_scaled.tolist() == [7, 0, -1, 5]
    w = smoothed_derivative(f)
    assert w.m is f.m and w.sig_scaled is f.sig_scaled


def test_convolution_shift_is_the_resonance_gap(model):
    # (m=1, sigma=0) * (m=1, sigma=0) -> m=2 at sigma = p(1)+p(1)-p(2) = 30
    f = lone_field(model, [1], [0], [1.0])
    out = convolve_modulation(f, f, PlanMemo())
    assert out.m.tolist() == [2]
    assert out.sig_scaled.tolist() == [30]
    assert out.coeffs[0] == pytest.approx(1.0)  # dtau / lam = 1


def test_stored_sigma_is_the_resonance_mismatch_at_integral_lam():
    model = DispersionModel(2, 2.0)
    f = lone_field(model, [1, 3], [0, 0], [1.0, 1.0])
    g = lone_field(model, [2, -5], [0, 0], [1.0, 1.0])
    out = convolve_modulation(f, g, PlanMemo())
    assert len(out.m) == 4
    for m, sigma in zip(out.m, out.sigma):
        pairs = [(a, int(m) - a) for a in (1, 3) if int(m) - a in (2, -5)]
        assert len(pairs) == 1
        k1, k2 = (v / model.lam for v in pairs[0])
        expect = model.phase(k1) + model.phase(k2) - model.phase(k1 + k2)
        assert sigma == pytest.approx(expect, rel=1e-12)


def test_non_integral_lam_is_refused():
    with pytest.raises(ValueError, match="integral lam"):
        lone_field(DispersionModel(2, 1.5), [1], [0], [1.0])


def test_convolution_refuses_sigma_sums_past_int64():
    # j = 3, lam = 256: |sig_scaled| = 64 * 256^7 = 2^62 on both cells, so the
    # output sigma would wrap from +128 to -128
    model = DispersionModel(3, 256.0)
    big = 64 * 256**7
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(
            lone_field(model, [2], [big], [1.0]), lone_field(model, [-1], [big], [1.0]), PlanMemo()
        )


@pytest.mark.parametrize("sign", [1, -1])
def test_convolution_just_inside_int64_matches_python_ints(sign):
    model = DispersionModel(3, 1.0)
    n = model.order
    sig1 = 2**62
    sig2 = 2**63 - 1 - 3 * 3**n - sig1  # 3 (|m1| + |m2|)^n + |sig1| + |sig2| = 2^63 - 1
    f = lone_field(model, [2], [sign * sig1], [1.0])
    out = convolve_modulation(f, lone_field(model, [-1], [sign * sig2], [1.0]), PlanMemo())
    assert out.m.tolist() == [1]
    assert out.sig_scaled.tolist() == [sign * (sig1 + sig2) + model.sign * resonance_q0(n, 2, -1)]
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(f, lone_field(model, [-1], [sign * (sig2 + 1)], [1.0]), PlanMemo())


def _largest_resonant_N(model):
    """The largest N whose resonant pair is built, by bisection over 2 .. 2^64."""
    lo, hi = 2, 2**64
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            resonant_pair(model, mid, -1.5)
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
        check_search_lattice(model, RatioSearchConfig(k_max=2 * (edge + 1)))
    for N in (edge + delta, far):
        if N > edge:
            with pytest.raises(ValueError, match=f"N = {N}"):
                resonant_pair(model, N, -1.5)
            continue
        u1, u2 = resonant_pair(model, N, -1.5)
        for f, g in ((u1, u2), (u2, u2)):
            out = convolve_modulation(f, g, PlanMemo())
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
    u2 = lone_field(model, [2 * N, -2 * N], [shift, -shift], [1.0, 1.0])
    with pytest.raises(ValueError, match="int64"):
        convolve_modulation(u2, u2, PlanMemo())


def _raw_product(f, g):
    """The outer-product cells of f * g, row-major, before any consolidation."""
    model = f.model
    m = f.m[:, None] + g.m[None, :]
    shift = model.sign * resonance_q0(model.order, f.m[:, None], g.m[None, :])
    sig = f.sig_scaled[:, None] + g.sig_scaled[None, :] + shift
    vals = np.outer(f.coeffs, g.coeffs) * (f.dtau / model.lam)
    return m.ravel(), sig.ravel(), vals.ravel()


def _reference_product(f, g):
    return reference_modulation_cells(*_raw_product(f, g))


def _reference_smoothed(model, m, sig, vals):
    """i k <sigma>^{-1} on reference cells, zero results dropped."""
    mult = 1j * (m / model.lam) / angle_bracket(sig / float(int(model.lam) ** model.order))
    return reference_modulation_cells(m, sig, vals * mult)


# products of these underflow to 0 (1e-170 squared) or cancel exactly (+-1, +-1j), and
# those drawn over 16 decades, as _varied's, sum with rounding that depends on the order
_PLAN_COEFF = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j, 1e-170, -1e-170j]),
    st.builds(lambda re, im, decade: complex(re, im) * 10.0**decade,
              st.floats(0.5, 2.0), st.floats(-2.0, 2.0), st.integers(-8, 8)),
)


@st.composite
def _plan_cells(draw):
    """(model, f cells, g cells, h cells): random cells on a narrow lattice, g built
    so that every product of f's cells with g's lands on one target cell (at
    m = 0 when the target says so), or a resonant pair at some N."""
    model = DispersionModel(draw(st.sampled_from([2, 3])), float(draw(st.sampled_from([1, 2]))))
    cells = st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=8, unique=True)
    kind = draw(st.sampled_from(["random", "collide", "resonant"]))
    f, h = draw(cells), draw(cells)
    if kind == "random":
        g = draw(cells)
    elif kind == "collide":
        f = list({m: (m, sig) for m, sig in f}.values())  # distinct m, so distinct g cells
        target_m, target_sig = draw(st.integers(-3, 3)), draw(st.integers(-50, 50))
        shift = [model.sign * resonance_q0(model.order, m, target_m - m) for m, _ in f]
        g = [(target_m - m, target_sig - sig - q) for (m, sig), q in zip(f, shift)]
    else:
        u1, u2 = resonant_pair(model, draw(st.integers(2, 64)), -1.5)
        pair = [list(zip(u.m.tolist(), u.sig_scaled.tolist())) for u in (u1, u2)]
        f, g = pair if draw(st.booleans()) else pair[::-1]
    return model, f, g, h


@settings(max_examples=300, deadline=None)
@given(cells=_plan_cells(), data=st.data())
def test_cell_plans_match_a_fresh_product_and_the_reference(cells, data):
    """Within one memo, (f, g) cells come up three times with fresh coefficients,
    then f's cells with h's: every product, smoothed derivative and Z^s equals a
    call through a fresh PlanMemo and the reference consolidation of the raw
    outer cells."""
    model, f_cells, g_cells, h_cells = cells

    def field(cells):
        coeffs = data.draw(st.lists(_PLAN_COEFF, min_size=len(cells), max_size=len(cells)))
        return lone_field(model, [c[0] for c in cells], [c[1] for c in cells], coeffs)

    memo, plans = PlanMemo(), []
    products = [(field(f_cells), field(g_cells)) for _ in range(3)]
    products.append((field(f_cells), field(h_cells)))
    for i, (f, g) in enumerate(products):
        out = convolve_modulation(f, g, memo)
        if i < 3 and _raw_product(f, g)[2].all():
            # every product of (f, g) cells with nonzero values takes the first one's plan
            plans.append(out._plan)
            assert all(plan is plans[0] for plan in plans)
            assert list(memo.plans.values()) == [plans[0]]
        fresh = convolve_modulation(f, g, PlanMemo())
        ref = _reference_product(f, g)
        for got in (out, fresh):
            assert np.array_equal(got.m, ref[0]) and np.array_equal(got.sig_scaled, ref[1])
            assert np.array_equal(got.coeffs, ref[2])
        w = smoothed_derivative(out)
        ref_w = _reference_smoothed(model, *ref)
        for got, want in zip((w.m, w.sig_scaled, w.coeffs), ref_w):
            assert np.array_equal(got, want)
        assert np.array_equal(w.coeffs, smoothed_derivative(fresh).coeffs)
        if len(w.m):
            want = reference_zs_norm_cells(w.m, w.k, w.sigma, w.coeffs, 1.0, model, -1.5)
            assert w.zs(-1.5) == want


def test_search_lattice_check_accepts_the_criterion_9_range():
    cfg = RatioSearchConfig(k_max=128, t_modes=64)
    check_search_lattice(DispersionModel(3, 4.0), cfg)
    with pytest.raises(ValueError, match="int64"):
        check_search_lattice(DispersionModel(3, 256.0), cfg)


def test_convolution_collision_accumulates(model):
    f = lone_field(model, [1, 2], [0, 0], [1.0, 1.0])
    g = lone_field(model, [1, 2], [0, 0], [1.0, 1.0])
    out = convolve_modulation(f, g, PlanMemo())
    # (1,2) and (2,1) land on the same (m=3, sigma) cell
    cell_ms = out.m.tolist()
    assert cell_ms.count(3) == 1
    value = out.coeffs[cell_ms.index(3)]
    assert value == pytest.approx(2.0)


def test_empty_inputs_give_empty_output(model):
    empty = lone_field(model, [], [], [])
    g = lone_field(model, [1], [0], [1.0])
    assert len(convolve_modulation(empty, g, PlanMemo()).m) == 0


def test_ratios_are_scale_invariant(model):
    u1, u2 = resonant_pair(model, 6, -1.5)
    def ratio(a, b):
        w = smoothed_derivative(convolve_modulation(a, b, PlanMemo()))
        return w.zs(-1.5).total / (a.zs(-1.5).total * b.zs(-1.5).total)
    base = ratio(u1, u2)
    scaled = ratio(
        lone_field(model, u1.m, u1.sig_scaled, u1.coeffs * 7.3),
        lone_field(model, u2.m, u2.sig_scaled, u2.coeffs * 0.011),
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
    u = lone_field(model, [1], [0], [1.0])
    empty = lone_field(model, [], [], [])
    out = convolve_modulation(u, empty, PlanMemo())
    assert out.l2_norm() == 0.0


def test_product_l2_single_cell_closed_form(model):
    """One cell against one cell: every norm is a single term."""
    c1, c2 = 1.5 + 0.5j, -2.0 + 1.0j
    sig1, sig2 = 3, -7
    u = lone_field(model, [2], [sig1], [c1])
    v = lone_field(model, [5], [sig2], [c2])
    a, b = 0.4, 0.3
    out = convolve_modulation(u, v, PlanMemo())
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
        u = lone_field(model, *field_cells("fixed-tau", model, cfg, rng))
        return convolve_modulation(u, u, PlanMemo()).l2_norm() / u.l2_norm() ** 2
    r32, r128 = unweighted_ratio(cfg32), unweighted_ratio(cfg128)
    assert r128 / r32 == pytest.approx(2.0, rel=0.25)  # sqrt(128/32) = 2


def test_dyadic_shell_ratio_trend_in_upper_shell(model):
    cfg = RatioSearchConfig(trials=40, k_max=24, support=48, seed=5)
    maxima = [dyadic_bilinear_ratio(model, 0, l2, cfg).max_ratio for l2 in (0, 3, 6, 9)]
    assert all(m > 0 for m in maxima)
    assert max(maxima) <= maxima[0] * 1.5  # no growth beyond the prefactor


def test_dyadic_shell_skips_are_counted(model, monkeypatch):
    """At l >= 53 a drawn |sigma| = 2^{l+1} - 1 rounds to 2^{l+1} in float64 and
    leaves DyadicShell(l): a trial whose l2 field is only that cell is skipped."""
    l2, edge = 53, 2**54 - 1
    assert not DyadicShell(l2).mask(np.array([edge]) / 1.0)[0]
    draw, l2_draws = verifier._dyadic_cells, []

    def dyadic_cells(model, cfg, rng, l=None):
        m, sig, vals = draw(model, cfg, rng, l)
        if l == l2:
            l2_draws.append(l)
            if len(l2_draws) == 3:  # trial 2's l2 field: the edge cell alone
                return m[:1], np.array([edge]), vals[:1]
        return m, sig, vals

    monkeypatch.setattr(verifier, "_dyadic_cells", dyadic_cells)
    cfg = RatioSearchConfig(trials=5, k_max=4, support=1, seed=8)
    report = dyadic_bilinear_ratio(model, 0, l2, cfg)
    assert report.skipped == 1 and [row["trial"] for row in report.rows] == [0, 1, 3, 4]
    assert len(report.rows) + report.skipped == cfg.trials


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
    u = lone_field(model, cells_m, cells_sig, np.ones(40)).region_restricted(
        (Region.D1,)
    )
    assert len(u.m)
    low = u.xsb(-1.5, 1.0 / 4.0)
    high = u.xsb(-1.5, 3.0 / 4.0)
    assert low <= high * (1 + 1e-12)


@pytest.mark.parametrize("j", [2, 3])
def test_resonant_family_growth_below_threshold(j):
    """Below s = -j + 1/2 the resonant pair drives the ratio like N^{-2s-(2j-1)}."""
    model = DispersionModel(j, 1.0)
    s = -j + 0.25  # a quarter below the threshold
    ratios = []
    for N in (4, 16, 64):
        u1, u2 = resonant_pair(model, N, s)
        w = smoothed_derivative(convolve_modulation(u1, u2, PlanMemo()))
        ratios.append(w.zs(s).total / (u1.zs(s).total * u2.zs(s).total))
    measured = np.polyfit(np.log([4, 16, 64]), np.log(ratios), 1)[0]
    assert measured == pytest.approx(-2 * s - (2 * j - 1), abs=0.1)


@pytest.mark.parametrize("j", [2, 3])
def test_resonant_family_saturates_at_threshold(j):
    model = DispersionModel(j, 1.0)
    s = -j + 0.5
    ratios = []
    for N in (4, 16, 64):
        u1, u2 = resonant_pair(model, N, s)
        w = smoothed_derivative(convolve_modulation(u1, u2, PlanMemo()))
        ratios.append(w.zs(s).total / (u1.zs(s).total * u2.zs(s).total))
    assert max(ratios) <= 1.1 * min(ratios) + 1e-9


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
def test_bilinear_zs_search_runs_on_scaled_tori(lam):
    model = DispersionModel(2, lam)
    cfg = RatioSearchConfig(trials=40, k_max=16, t_modes=32, support=32, seed=21)
    report = bilinear_zs_ratio(model, -1.5, cfg)
    assert report.max_ratio > 0
    assert len(report.rows) + report.skipped == cfg.trials


def _dyadic_bilinear(model, fields, s):
    u1, u2 = fields
    prefactor = 1.0 * (2.0**3) ** (1.0 / (2.0 * (2.0 * model.j + 1.0)))  # l1 = 0, l2 = 3
    lhs = convolve_modulation(u1, u2, PlanMemo()).l2_norm()
    return lhs / (prefactor * u1.l2_norm() * u2.l2_norm())


def _product_l2(model, fields, s):
    u, v = fields
    return convolve_modulation(u, v, PlanMemo()).l2_norm() / (u.xsb(0.0, 0.3) * v.xsb(0.0, 0.3))


_SMALL = RatioSearchConfig(trials=30, k_max=16, t_modes=32, support=24, seed=77)


@pytest.mark.parametrize(
    "search,replay,cfg",
    [
        (lambda model, cfg: bilinear_zs_ratio(model, -1.5, cfg), replay_bilinear_zs, _SMALL),
        # the README run, whose largest ratio (trial 89, zs_vs_high) is not low_vs_zs's
        (lambda model, cfg: embedding_ratio(model, -1.5, cfg), replay_embedding,
         RatioSearchConfig(trials=200)),
        (lambda model, cfg: dyadic_bilinear_ratio(model, 0, 3, cfg), _dyadic_bilinear, _SMALL),
        (lambda model, cfg: product_l2_ratio(model, 0.3, 0.3, cfg), _product_l2, _SMALL),
    ],
    ids=["3.1", "2.5", "2.1", "2.2"],
)
def test_witness_serialization_replays(model, search, replay, cfg):
    """The serialized witness of every search is the trial that attains max_ratio:
    its fields, rebuilt from their columns, give max_ratio bit for bit."""
    report = search(model, cfg)
    assert report.witness is not None
    fields = [
        lone_field(model, desc["m"], desc["sigma_scaled"], np.array(desc["re"]) + 1j * np.array(desc["im"]))
        for desc in report.witness["fields"]
    ]
    assert replay(model, fields, -1.5) == report.max_ratio


@pytest.mark.parametrize("j,lam", [(2, 1.0), (3, 2.0)])
def test_search_rows_replay_through_the_reference_helpers(j, lam):
    """Plans reused across a search's trials change no row: 3.1 and 2.2 mixed rows
    equal a trial-by-trial reference recomputation exactly, and a search run
    again after another search gives the same report (each search's memo is
    its own)."""
    model = DispersionModel(j, lam)
    cfg = RatioSearchConfig(trials=40, k_max=64, seed=11)
    first = bilinear_zs_ratio(model, -1.5, cfg)
    assert first.rows == reference_run_trials("3.1", model, cfg, s=-1.5)["rows"]
    other = product_l2_ratio(model, 0.3, 0.3, cfg)
    assert other.rows == reference_run_trials("2.2", model, cfg, a=0.3, b=0.3)["rows"]
    again = bilinear_zs_ratio(model, -1.5, cfg)
    assert vars(again) == vars(first)


_SEARCHES = {
    "2.1": (lambda model, cfg, p: dyadic_bilinear_ratio(model, p["l1"], p["l2"], cfg), ("mixed",)),
    "2.2": (lambda model, cfg, p: product_l2_ratio(model, p["a"], p["b"], cfg), ("mixed", *GENERATORS)),
    "2.5": (lambda model, cfg, p: embedding_ratio(model, p["s"], cfg), ("mixed", *GENERATORS)),
    "3.1": (lambda model, cfg, p: bilinear_zs_ratio(model, p["s"], cfg), ("mixed", *GENERATORS)),
}


def _reference_cases():
    """Every search with every generator (2.1 draws only its own, at l2 = 3 and
    8), cycling through j in {2, 3}, lam in {1, 2}, k_max in {32, 128} and
    1, 5 or 33 trials, so that batches split unevenly; each drawn as it is and
    through _perturbed."""
    cases = []
    for search, (_, gens) in _SEARCHES.items():
        for gen in gens:
            for l2 in (3, 8) if search == "2.1" else (None,):
                cases.append((search, gen, l2))
    out = []
    for i, (search, gen, l2) in enumerate(cases):
        j, lam = (2, 3)[i % 2], (1.0, 2.0)[(i // 2) % 2]
        k_max, trials = (32, 128)[(i // 4) % 2], (1, 5, 33)[i % 3]
        for perturb in (False, True):
            out.append(pytest.param(
                search, gen, l2, j, lam, k_max, trials, perturb,
                id=f"{search}-{gen}-l2{l2}-j{j}-lam{int(lam)}-k{k_max}-t{trials}"
                + ("-perturbed" if perturb else ""),
            ))
    # k_max 128 searches whose fixed-cell trials (free-solution-like, fixed-tau)
    # are batches of their own, several per search, after the others
    for search, gen, j, lam, trials in (
        ("3.1", "mixed", 3, 1.0, 9), ("3.1", "free-solution-like", 2, 1.0, 3),
        ("2.2", "mixed", 3, 2.0, 9), ("2.2", "fixed-tau", 2, 1.0, 3),
    ):
        for perturb in (False, True):
            out.append(pytest.param(
                search, gen, None, j, lam, 128, trials, perturb,
                id=f"{search}-{gen}-j{j}-lam{int(lam)}-k128-t{trials}-alone"
                + ("-perturbed" if perturb else ""),
            ))
    return out


def _perturbed(draw):
    """draw with some fields' coefficients zeroed, wholly (an empty field: a
    skipped trial) or in half, or shrunk so far that products underflow to 0."""

    def wrapped(*args, **kwargs):
        m, sig, c = draw(*args, **kwargs)
        c = np.array(c, dtype=complex)
        lead = c[0].real
        if lead < -0.8:
            c[:] = 0.0
        elif lead > 1.2:
            c[: len(c) // 2] = 0.0
        elif lead > 0.6:
            c[:2] *= 1e-170
        return m, sig, c

    return wrapped


@pytest.mark.parametrize("search,gen,l2,j,lam,k_max,trials,perturb", _reference_cases())
def test_batched_searches_match_the_per_trial_reference(
    monkeypatch, search, gen, l2, j, lam, k_max, trials, perturb
):
    """Trials measured in batches give every row, the maximum, its trial, the
    skip count and the witness with the bits of trials measured one at a time."""
    if perturb:
        for name in ("field_cells", "_dyadic_cells"):
            monkeypatch.setattr(verifier, name, _perturbed(getattr(verifier, name)))
    model = DispersionModel(j, lam)
    params = {"s": -j + 0.5, "a": 0.3, "b": 0.3, "l1": 0, "l2": l2}
    cfg = RatioSearchConfig(trials=trials, k_max=k_max, t_modes=16, support=24, generator=gen,
                            seed=100 + trials)
    report = _SEARCHES[search][0](model, cfg, params)
    ref_params = {key: params[key] for key in {"2.1": ("l1", "l2"), "2.2": ("a", "b")}.get(search, ("s",))}
    want = reference_run_trials(search, model, cfg, **ref_params)
    assert report.rows == want.pop("rows")
    if search == "2.5":
        assert report.params["max_by_direction"] == want.pop("max_by_direction")
    assert {key: getattr(report, key) for key in want} == want
    assert report.skipped + len(report.rows) == trials


def test_a_lone_field_is_a_stack_of_one(model):
    """A field built without bounds is a stack of one field: its norms are arrays
    of length 1 with the bits of the same field in the middle of a stack of three.
    The frame grid's Z^s, of a dense field, gives Python floats."""
    cfg, rng, s = RatioSearchConfig(k_max=16, support=24), np.random.default_rng(5), -1.5
    gens = ("free-solution-like", "gaussian-random", "dyadic-concentrated")
    draws = [field_cells(gen, model, cfg, rng) for gen in gens]
    draws[1] = tuple(np.append(a, x) for a, x in zip(draws[1], (0, 0, 1.0)))  # an m = 0 cell
    m, sig, vals = (np.concatenate(parts) for parts in zip(*draws))
    bounds = np.cumsum([0] + [len(d[0]) for d in draws])
    stack = ModulationField(model, m, sig, vals, bounds)
    alone = lone_field(model, *draws[1])
    pairs = [(alone.l2_norm(), stack.l2_norm()), (alone.xsb(s, 0.3), stack.xsb(s, 0.3))]
    pairs += zip(astuple(alone.zs(s)), astuple(stack.zs(s)))
    for got, of_stack in pairs:
        assert isinstance(got, np.ndarray) and got.shape == (1,)
        assert got[0] == of_stack[1] and got[0] > 0.0
    grid = TorusGrid(1.0, 16)
    times = 0.1 * np.arange(-8, 9)
    frames = random_spacetime_coeffs(rng, len(times), grid.modes)
    dense = astuple(frame_grid(model, grid, times).zs_norm(frames, s))
    assert [type(v) for v in dense] == [float] * 4


def test_stacked_products_check_int64_per_field():
    """The int64 guard takes each pair of fields on its own: field 0 (large m)
    and field 1 (large sigma) each multiply exactly although their maxima
    together would not, and equal the products of the fields alone; one pair
    past int64 is refused as a lone product is."""
    model = DispersionModel(2, 1.0)
    big_m, big_sig = 2286, 2**61
    check_int64_lattice(5, 2 * big_m, 0)
    with pytest.raises(ValueError, match="int64"):
        check_int64_lattice(5, 2 * big_m, 2 * big_sig)
    m, sig, vals = [big_m, -3, 1, 2], [0, 5, big_sig, 0], [1.0, 2j, -1.0, 0.5]
    f = ModulationField(model, m, sig, vals, bounds=[0, 2, 4])
    out = convolve_modulation(f, f, PlanMemo())
    for i, cells in enumerate((slice(0, 2), slice(2, 4))):
        u = lone_field(model, m[cells], sig[cells], vals[cells])
        alone = convolve_modulation(u, u, PlanMemo())
        got = slice(*out.bounds[i : i + 2])
        assert np.array_equal(out.m[got], alone.m) and np.array_equal(out.sig_scaled[got], alone.sig_scaled)
        assert np.array_equal(out.coeffs[got], alone.coeffs)
    past = ModulationField(model, m + [1], sig + [2**62], vals + [1.0], bounds=[0, 2, 5])
    with pytest.raises(ValueError, match="int64") as batched:
        convolve_modulation(past, past, PlanMemo())
    lone = lone_field(model, [1, 2, 1], [big_sig, 0, 2**62], [-1.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="int64") as alone:
        convolve_modulation(lone, lone, PlanMemo())
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("search", ["2.2", "3.1"])
def test_searches_past_int64_are_refused_as_before(search):
    """A lattice past int64 (j = 3, lam = 256, |sigma| up to 100 * 2^56: sigma
    sums pass 2^63) is refused with the ValueError of the per-trial searches."""
    model = DispersionModel(3, 256.0)
    cfg = RatioSearchConfig(trials=6, k_max=8, t_modes=100, support=8, generator="gaussian-random")
    params = {"s": -2.5, "a": 0.3, "b": 0.3}
    ref_params = {key: params[key] for key in (("a", "b") if search == "2.2" else ("s",))}
    with pytest.raises(ValueError, match="int64") as want:
        reference_run_trials(search, model, cfg, **ref_params)
    with pytest.raises(ValueError, match="int64") as got:
        _SEARCHES[search][0](model, cfg, params)
    assert str(got.value) == str(want.value)


def test_repeated_cells_share_their_plans_across_a_search(monkeypatch):
    """Free-solution-like fields have the same cells in every trial, and at k_max
    128 each trial is a batch of its own: both input stacks share one plan per
    search and the products another, so the search forms two Z^s weight passes
    however many trials it runs."""
    passes = []
    weights = norms.zs_weights
    monkeypatch.setattr(norms, "zs_weights", lambda *a, **kw: passes.append(1) or weights(*a, **kw))
    model = DispersionModel(2, 1.0)
    for trials in (3, 9):
        passes.clear()
        cfg = RatioSearchConfig(trials=trials, k_max=128, generator="free-solution-like", seed=4)
        report = bilinear_zs_ratio(model, -1.5, cfg)
        assert len(report.rows) == trials and len(passes) == 2


def _varied(rng, n):
    """n complex coefficients over 16 decades, so that a cell's sum rounds by the
    order in which its terms are added."""
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-8, 8, size=n)


def _served_cases():
    """(model, f cells, g cells): each (m, sig, bounds)."""
    fixed = []
    for j, lam in ((2, 1.0), (3, 2.0)):
        model = DispersionModel(j, lam)
        m, sig, _ = field_cells("fixed-tau", model, RatioSearchConfig(k_max=8), None)
        fixed.append((model, (m, sig, [0, len(m)]), (m, sig, [0, len(m)])))
    model = DispersionModel(2, 1.0)
    free = field_cells("free-solution-like", model, RatioSearchConfig(k_max=8), np.random.default_rng(0))
    return {
        "fixed-tau-j2-lam1": fixed[0],
        "fixed-tau-j3-lam2": fixed[1],
        # every pair meets at m = 0: nothing is left once those cells are dropped
        "empty-product": (model, ([1], [0], [0, 1]), ([-1], [0], [0, 1])),
        # field 0's product is empty, field 1's keeps three of four cells
        "empty-field": (model, ([1, 3, 2], [0, 5, 0], [0, 1, 3]), ([-1, -3, 2], [0, 0, 7], [0, 1, 3])),
        "underflow": (model, free[:2] + ([0, len(free[0])],), free[:2] + ([0, len(free[0])],)),
    }


@pytest.mark.parametrize("case", list(_served_cases()))
def test_served_plans_match_a_fresh_product_bit_for_bit(case):
    """The same cells come up three times in one memo with fresh coefficients: the
    product from the plan the memo serves (summed by rank), its smoothed
    derivative and both Z^s norms equal a fresh PlanMemo's call bit for bit.
    fixed-tau cells meet up to 2 k_max - 1 pairs per output cell, so every tail rank
    and the long cells (5 pairs or more) are summed; the last underflow call's
    first pairs are 1e-340 -> 0, which sends the product back to its values."""
    model, f_cells, g_cells = _served_cases()[case]
    rng, memo, s = np.random.default_rng(11), PlanMemo(), -1.5
    for call in range(3):
        coeffs = [_varied(rng, len(cells[0])) for cells in (f_cells, g_cells)]
        if case == "underflow" and call == 2:
            for c in coeffs:
                c[:2] = 1e-170
        f, g = (ModulationField(model, m, sig, c, bounds)
                for (m, sig, bounds), c in zip((f_cells, g_cells), coeffs))
        out, fresh = convolve_modulation(f, g, memo), convolve_modulation(f, g, PlanMemo())
        served = out._plan.head is not None
        assert served == (call == 1 or (call == 2 and case != "underflow"))
        for got, want in ((out, fresh), (smoothed_derivative(out), smoothed_derivative(fresh))):
            for attr in ("m", "sig_scaled", "coeffs", "bounds"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
            if len(got.m):
                for a, b in zip(astuple(got.zs(s)), astuple(want.zs(s))):
                    assert np.array_equal(a, b)
        if case.startswith("fixed-tau") and served:
            assert len(out._plan.tail) == 3 and out._plan.long is not None
        if case.startswith("empty"):
            assert len(out.m) == (0 if case == "empty-product" else 3)


def test_fixed_cell_generators_are_those_whose_cells_ignore_the_rng():
    """_FIXED_CELLS names exactly the generators whose cells are the same from
    every rng: the trials _run_trials measures as batches of their own."""
    model, cfg = DispersionModel(2, 1.0), RatioSearchConfig(k_max=32)
    for gen in GENERATORS:
        draws = [field_cells(gen, model, cfg, np.random.default_rng(seed)) for seed in range(4)]
        same = all(np.array_equal(d[i], draws[0][i]) for d in draws for i in (0, 1))
        assert same == (gen in verifier._FIXED_CELLS)


@pytest.mark.parametrize("k_max", [32, 128])
def test_free_solution_trials_of_a_search_share_one_product_plan(monkeypatch, k_max):
    """The 8 free-solution-like trials of a mixed 32-trial 3.1 search are batches
    of their own, after one batch of the other 24, and all their products have
    one plan, served by rank.  The one-field 2.5 search forms no product and
    keeps every trial in its batches by size."""
    products, stacks = [], []
    convolve, stack = verifier.convolve_modulation, verifier._stack
    monkeypatch.setattr(verifier, "convolve_modulation",
                        lambda f, g, memo: products.append(convolve(f, g, memo)) or products[-1])
    monkeypatch.setattr(verifier, "_stack", lambda *a: stacks.append(stack(*a)) or stacks[-1])
    model = DispersionModel(2, 1.0)
    cfg = RatioSearchConfig(trials=32, k_max=k_max, seed=9)
    report = bilinear_zs_ratio(model, -1.5, cfg)
    assert [len(w.bounds) - 1 for w in products] == [24] + [1] * 8
    assert all(w._plan is products[1]._plan for w in products[2:])
    assert products[1]._plan.head is not None
    assert len(report.rows) == 32
    stacks.clear()
    embedding_ratio(model, -1.5, replace(cfg, k_max=32))
    assert [len(u.bounds) - 1 for u in stacks] == [32]
