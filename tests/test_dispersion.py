"""Dispersion phase, semigroup, exact resonance functions, region labels."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hokdv.dispersion as dispersion
from hokdv.dispersion import (
    DispersionModel,
    Region,
    audit_resonance_bound,
    classify_region,
    free_evolve,
    region_masks,
    resonance_q0,
)
from hokdv.iterates import (
    phi_n_data,
    second_iterate_closed,
    second_iterate_quadrature,
    third_iterate_closed,
)
from hokdv.norms import NormSpec, SpaceTimeField, sobolev_norm, xsb_norm, zs_norm
from hokdv.solver import SolverConfig, frame_grid, integrate
from hokdv.torus import TorusGrid

from helpers import random_band_limited, reference_audit_summary


def test_phase_values():
    m2 = DispersionModel(2, 1.0)
    assert m2.phase(1.0) == -1.0
    assert m2.phase(2.0) == -32.0
    assert m2.phase(0.0) == 0.0
    m3 = DispersionModel(3, 1.0)
    assert m3.phase(2.0) == 128.0


def test_j_one_warns_and_j_zero_rejects():
    with pytest.warns(UserWarning):
        DispersionModel(1, 1.0)
    with pytest.raises(ValueError):
        DispersionModel(0, 1.0)


def test_free_evolve_identity_at_zero_time():
    grid = TorusGrid(1.0, 32)
    u = random_band_limited(grid, np.random.default_rng(0), 8)
    out = free_evolve(DispersionModel(2, 1.0), u, 0.0)
    assert np.array_equal(out.coeffs, u.coeffs)


@pytest.mark.parametrize("s", [-2.0, 0.0, 1.5])
def test_free_evolve_preserves_sobolev_norms(s):
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = random_band_limited(grid, np.random.default_rng(1), 20)
    before = sobolev_norm(u, NormSpec(s))
    after = sobolev_norm(free_evolve(model, u, 1.7), NormSpec(s))
    assert after == pytest.approx(before, rel=1e-13)


def test_free_evolve_group_law():
    # low modes keep |p(k)| * eps below the tolerance; at large k the phase
    # argument's last bit alone exceeds 1e-12
    grid = TorusGrid(1.0, 64)
    model = DispersionModel(2, 1.0)
    u = random_band_limited(grid, np.random.default_rng(2), 4)
    a = free_evolve(model, free_evolve(model, u, 0.4), 0.7)
    b = free_evolve(model, u, 1.1)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * max(1, np.max(np.abs(b.coeffs)))


@pytest.mark.parametrize("j", [2, 3])
def test_free_evolve_solves_the_integrated_linear_equation(j):
    # The linear part of u_t + d_x^{2j+1} u = 0 is u_t = -(ik)^{2j+1} u-hat under
    # coeff(k) = int e^{-ikx} f dx; free_evolve must give its exact solution.
    grid = TorusGrid(1.0, 32)
    model = DispersionModel(j, 1.0)
    u = random_band_limited(grid, np.random.default_rng(3), 4)
    t = 0.3
    expect = np.exp(-((1j * grid.k_values) ** model.order) * t) * u.coeffs
    assert np.allclose(free_evolve(model, u, t).coeffs, expect, rtol=1e-12, atol=1e-12)


def test_free_evolve_lambda_mismatch():
    grid = TorusGrid(2.0, 32)
    u = random_band_limited(grid, np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        free_evolve(DispersionModel(2, 1.0), u, 0.1)


_ON_ANOTHER_TORUS = {
    "free_evolve": lambda m, u, stf: free_evolve(m, u, 0.1),
    "integrate": lambda m, u, stf: integrate(m, u, SolverConfig(dt=0.01, T=0.02)),
    "frame_grid": lambda m, u, stf: frame_grid(m, u.grid, 0.1 * np.arange(-2, 3)),
    "second_iterate_closed": lambda m, u, stf: second_iterate_closed(m, u, 0.1),
    "third_iterate_closed": lambda m, u, stf: third_iterate_closed(m, u, 0.1),
    "second_iterate_quadrature": lambda m, u, stf: second_iterate_quadrature(m, u, 0.1, 64),
    "xsb_norm": lambda m, u, stf: xsb_norm(stf, NormSpec(0.0, 0.5), m),
    "zs_norm": lambda m, u, stf: zs_norm(stf, 0.0, m),
}


@pytest.mark.parametrize("entry", sorted(_ON_ANOTHER_TORUS))
def test_every_entry_point_refuses_a_grid_on_another_torus(entry):
    """Each entry point that reads k = m/lam off a grid refuses one whose lam is
    not the model's, through `DispersionModel.check_grid`."""
    grid = TorusGrid(2.0, 32)
    u = phi_n_data(2, 0.0, grid)
    stf = SpaceTimeField(grid, 0.5, np.ones((grid.modes, 8)))
    with pytest.raises(ValueError, match="grid lam 2.0 does not match model lam 1.0"):
        _ON_ANOTHER_TORUS[entry](DispersionModel(2, 1.0), u, stf)


def triple_q1_q2(n, m1, m2, m3):
    """(q1, q2) of the triple through resonance_q0: q2 = q0(m1, m2 + m3), q1 = q0(m2, m3) + q2."""
    q2 = resonance_q0(n, m1, m2 + m3)
    return resonance_q0(n, m2, m3) + q2, q2


def test_q0_antisymmetric_pair_vanishes():
    assert resonance_q0(5, 1, -1) == 0


def test_q0_equal_pair_value():
    assert resonance_q0(5, 1, 1) == -30


@pytest.mark.parametrize("N", list(range(1, 65)))
def test_q0_equal_pair_scaling(N):
    # q0(N, N) = N^5 (2 - 2^5) = -30 N^5, checked against direct big-int powers
    direct = N**5 + N**5 - (2 * N) ** 5
    assert resonance_q0(5, N, N) == direct == -30 * N**5


def test_q0_on_int64_arrays_matches_python_ints():
    m1 = np.array([[-7], [3], [40]], dtype=np.int64)
    m2 = np.array([[5, -12, 33]], dtype=np.int64)
    q = resonance_q0(7, m1, m2)
    assert q.dtype == np.int64
    expect = [[resonance_q0(7, int(a), int(b)) for b in m2[0]] for a in m1[:, 0]]
    assert q.tolist() == expect


@pytest.mark.parametrize("j,N", [(2, 3), (3, 5), (4, 2)])
def test_resonant_triple_q1_vanishes_q2_does_not(j, N):
    q1, q2 = triple_q1_q2(2 * j + 1, -N, N, N)
    assert q1 == 0
    assert q2 == (2 ** (2 * j + 1) - 2) * N ** (2 * j + 1)
    assert q2 != 0


def test_q1_all_ones_value():
    q1, _ = triple_q1_q2(5, 1, 1, 1)
    assert q1 == 3 - 3**5 == -240


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(1, 4),
    m1=st.integers(-10**6, 10**6),
    m2=st.integers(-10**6, 10**6),
    m3=st.integers(-10**6, 10**6),
)
def test_triple_forms_match_direct_powers(j, m1, m2, m3):
    n = 2 * j + 1
    m = m1 + m2 + m3
    q1, q2 = triple_q1_q2(n, m1, m2, m3)
    assert q1 == m1**n + m2**n + m3**n - m**n
    assert q2 == m1**n + (m2 + m3) ** n - m**n


def test_audit_small_case_ratio():
    # (k1, k2) = (1, 1): |32 - 2| = 30 against 5 * |2| = 10
    report = audit_resonance_bound(DispersionModel(2, 1.0), 1)
    assert report.summary["violations"] == 0
    assert report.rows[0]["pairs_checked"] == 2  # (1,1) and (-1,-1)
    assert report.rows[0]["min_ratio"] == pytest.approx(3.0)


@pytest.mark.parametrize("j", [2, 3])
def test_audit_exhaustive_medium_range(j):
    report = audit_resonance_bound(DispersionModel(j, 1.0), 80)
    assert report.passed
    assert report.summary["violations"] == 0
    assert report.summary["min_ratio"] >= 1.0


def test_audit_classical_case_attains_equality():
    # at j = 1 the gap is the exact identity 3 k k1 k2, so the ratio is 1
    with pytest.warns(UserWarning):
        model = DispersionModel(1, 1.0)
    report = audit_resonance_bound(model, 40)
    assert report.summary["violations"] == 0
    assert report.summary["min_ratio"] == pytest.approx(1.0, abs=0)


def _quiet_model(j):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the j = 1 sanity-mode warning
        return DispersionModel(j, 1.0)


# The m1 < 0 rows come in blocks of 32: kmax 31 ends one row short of a
# block edge, 33 and 65 one row past one and two blocks.
@pytest.mark.parametrize("kmax", [1, 2, 7, 31, 33, 60, 65])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_audit_matches_reference_loop(j, kmax):
    model = _quiet_model(j)
    assert audit_resonance_bound(model, kmax).summary == reference_audit_summary(model, kmax)


@pytest.mark.parametrize(
    "j,kmax,dtype",
    [(1, 200, np.int64), (2, 40, np.int64), (2, 45, object)],
    ids=["j1-every-pair-ties-int64", "int64", "python-ints"],
)
def test_audit_exact_step_dtype_matches_reference(monkeypatch, j, kmax, dtype):
    seen = []
    first_min = dispersion._first_min

    def spy(num, den):
        seen.append(num.dtype)
        return first_min(num, den)

    monkeypatch.setattr(dispersion, "_first_min", spy)
    model = _quiet_model(j)
    assert audit_resonance_bound(model, kmax).summary == reference_audit_summary(model, kmax)
    assert seen and all(d == np.dtype(dtype) for d in seen)


@pytest.mark.parametrize("j,order,kmax", [(2, 3, 7), (2, 3, 60), (3, 5, 60), (2, 4, 7)])
def test_audit_reports_violations_like_reference(j, order, kmax):
    # An order below 2j+1 breaks the bound on most pairs, which exercises
    # the violation count and the witness list.
    model = SimpleNamespace(j=j, order=order, lam=1.0)
    summary = audit_resonance_bound(model, kmax).summary
    assert summary["violations"] > 16
    assert summary == reference_audit_summary(model, kmax)


def test_audit_expands_each_violating_orbit_into_its_members():
    # At order 3 the gap is 3|m m1 m2| exactly, below 3|m| m1^2 m2^2 when
    # |m1 m2| >= 2.  At kmax 2 the walked pairs (-2, -2), (-2, -1) and
    # (-2, 1) violate; their orbits hold 2 + 4 + 4 pairs, among them both
    # (-2, -1) and (-1, -2), listed in (m1, m2) order.
    model = SimpleNamespace(j=2, order=3, lam=1.0)
    summary = audit_resonance_bound(model, 2).summary
    assert summary["violations"] == 10
    assert summary["witnesses"] == [
        [-2, -2], [-2, -1], [-2, 1], [-1, -2], [-1, 2],
        [1, -2], [1, 2], [2, -1], [2, 1], [2, 2],
    ]
    assert summary == reference_audit_summary(model, 2)


def test_audit_overflowing_float_powers_go_to_the_exact_step():
    # float(4**601) overflows; those pairs must be decided exactly, not crash
    model = DispersionModel(300, 1.0)
    summary = audit_resonance_bound(model, 2).summary
    assert summary == reference_audit_summary(model, 2)
    assert summary["min_ratio"] == pytest.approx(6.78e87, rel=1e-3)


@pytest.mark.parametrize("j", [2, 3])
def test_no_vanishing_q0_off_the_trivial_line(j):
    m = np.arange(-60, 61, dtype=np.int64)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    off_line = (m1 != 0) & (m2 != 0) & (m1 + m2 != 0)
    q0 = resonance_q0(DispersionModel(j, 1.0).order, m1, m2)
    assert not np.any(off_line & (q0 == 0))


def test_classify_region_examples():
    m = DispersionModel(2, 1.0)
    assert classify_region(m, 1.0, m.phase(1.0)) is Region.D1
    assert classify_region(m, 2.0, m.phase(2.0) + 321.0) is Region.D3
    m2 = DispersionModel(2, 2.0)
    assert classify_region(m2, 0.5, m2.phase(0.5)) is Region.D5
    assert classify_region(m2, 0.0, 3.0) is Region.ZERO_MODE


def test_classifier_agrees_with_raw_inequalities():
    """Every label must match the five defining predicates evaluated directly."""
    model = DispersionModel(2, 2.0)
    n = model.order
    rng = np.random.default_rng(11)
    ks = rng.choice(np.concatenate([np.arange(1, 65), -np.arange(1, 65)]), 400) / 2.0
    sigmas = rng.uniform(-1e7, 1e7, 400)
    taus = model.phase(ks) + sigmas
    for k, tau in zip(ks, taus):
        abs_sigma = abs(tau - model.phase(k))
        inner = 2 * n / 3 * abs(k) ** (n - 1)
        outer = 2 * n * abs(k) ** n
        label = classify_region(model, k, tau)
        if abs(k) >= 1:
            if abs_sigma <= inner:
                expect = Region.D1
            elif abs_sigma <= outer:
                expect = Region.D2
            else:
                expect = Region.D3
        else:
            expect = Region.D4 if abs_sigma > outer else Region.D5
        assert label is expect


def test_classifier_array_version_matches_scalar():
    model = DispersionModel(3, 1.0)
    rng = np.random.default_rng(5)
    k = rng.choice(np.concatenate([np.arange(1, 20), -np.arange(1, 20), [0]]), 200).astype(float)
    sigma = rng.uniform(-1e6, 1e6, 200)
    masks = region_masks(model, k, sigma)
    for i, (kk, ss) in enumerate(zip(k, sigma)):
        label = classify_region(model, kk, model.phase(kk) + ss)
        assert [r for r, m in masks.items() if m[i]] == [label]


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(1, 4),
    m1=st.integers(-300, 300).filter(lambda v: v != 0),
    m2=st.integers(-300, 300).filter(lambda v: v != 0),
)
def test_gap_lower_bound_property(j, m1, m2):
    if m1 + m2 == 0:
        return
    n = 2 * j + 1
    lhs = abs(resonance_q0(n, m1, m2))
    rhs = n * abs((m1 + m2) * m1**j * m2**j)
    assert lhs >= rhs
