"""Dispersion phase, semigroup, exact resonance functions, region labels."""

import warnings
from fractions import Fraction
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
from hokdv.norms import sobolev_norm
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
    before = sobolev_norm(u.coeffs, s, grid)
    after = sobolev_norm(free_evolve(model, u, 1.7).coeffs, s, grid)
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
    "free_evolve": lambda m, u: free_evolve(m, u, 0.1),
    "integrate": lambda m, u: integrate(m, u, SolverConfig(dt=0.01, T=0.02)),
    "frame_grid": lambda m, u: frame_grid(m, u.grid, 0.1 * np.arange(-2, 3)),
    "second_iterate_closed": lambda m, u: second_iterate_closed(m, u, 0.1),
    "third_iterate_closed": lambda m, u: third_iterate_closed(m, u, 0.1),
    "second_iterate_quadrature": lambda m, u: second_iterate_quadrature(m, u, 0.1, 64),
}


@pytest.mark.parametrize("entry", sorted(_ON_ANOTHER_TORUS))
def test_every_entry_point_refuses_a_grid_on_another_torus(entry):
    """Each entry point that reads k = m/lam off a grid refuses one whose lam is
    not the model's, through `DispersionModel.check_grid`."""
    u = phi_n_data(2, 0.0, TorusGrid(2.0, 32))
    with pytest.raises(ValueError, match="grid lam 2.0 does not match model lam 1.0"):
        _ON_ANOTHER_TORUS[entry](DispersionModel(2, 1.0), u)


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


@pytest.mark.parametrize("kmax", [1, 2, 3, 7, 31, 33, 60, 65])
@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6, 7, 8])
def test_audit_matches_reference_loop(j, kmax):
    model = _quiet_model(j)
    assert audit_resonance_bound(model, kmax).summary == reference_audit_summary(model, kmax)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_audit_minimum_at_kmax_200(j):
    # j = 1 ties every pair at ratio 1, so the first pair in (m1, m2) order wins;
    # for j >= 2 the minimum sits at (-kmax, kmax - 1), with the float of
    # the exact ratio there.
    summary = audit_resonance_bound(_quiet_model(j), 200).summary
    if j == 1:
        assert summary["min_ratio_pair"] == [-200, -200]
        assert summary["min_ratio"] == 1.0
        return
    n, m1, m2 = 2 * j + 1, -200, 199
    lhs = abs(resonance_q0(n, m1, m2))
    rhs = n * abs(m1 + m2) * abs(m1 * m2) ** j
    assert summary["min_ratio_pair"] == [m1, m2]
    assert summary["min_ratio"] == float(Fraction(lhs, rhs))
    assert summary["min_ratio"] == {
        2: 1.0000251256281407, 3: 1.0000502518875787, 4: 1.0000837539877099
    }[j]


def _poly_at(p, r):
    return sum(c * r**i for i, c in enumerate(p))


def _ratio(j, r):
    """R(r) = |P_j(r, 1)| / ((2j+1) |r|^{j-1}), straight from the gap bound at (r, 1)."""
    n = 2 * j + 1
    return abs((r + 1) ** n - r**n - 1) / (n * abs(r + 1) * abs(r) ** j)


@pytest.mark.parametrize("j", [*range(1, 13), 16, 20, 30])
def test_gap_conditions_hold(j):
    n = 2 * j + 1
    P2, G, M = dispersion._gap_polynomials(j)
    assert dispersion._uncertified(j, n) is None
    # P^2 = ((r+1)^n - r^n - 1)^2 / (r (r+1))^2, (r+1)^2 G = P^2 - n^2 r^{2j-2} and
    # (r+1) M = r (P^2)' - (2j-2) P^2, exactly at more points than their degrees
    for r in (Fraction(i, 7) for i in range(-20, 40) if i not in (-7, 0)):
        p2 = ((r + 1) ** n - r**n - 1) ** 2 / (r * (r + 1)) ** 2
        assert _poly_at(P2, r) == p2
        assert (r + 1) ** 2 * _poly_at(G, r) == p2 - n * n * r ** (2 * j - 2)
        dp2 = sum(i * c * r ** (i - 1) for i, c in enumerate(P2) if i)
        assert (r + 1) * _poly_at(M, r) == r * dp2 - (2 * j - 2) * p2
    if j == 1:  # the KdV identity: R = 1 on every pair
        assert G == [0] and M == [0]
        return
    assert len(G) == 4 * j - 5 and _poly_at(G, -1) > 0  # F / (r + 1)^2, not F
    samples = [Fraction(-i, 97) for i in range(1, 97)]  # r in (-1, 0), from 0 toward -1
    # condition 1: G > 0 off r = -1, so R > 1
    for r in [*samples, *(1 / r for r in samples), Fraction(1, 7), Fraction(1), Fraction(9, 2)]:
        assert _poly_at(G, r) > 0 and _ratio(j, r) > 1
    # condition 2: N / (r + 1) < 0 on (-1, 0), so R grows from -1 to 0
    assert all(_poly_at(M, r) < 0 for r in samples)
    ratios = [_ratio(j, r) for r in samples]
    assert ratios == sorted(ratios, reverse=True) and len(set(ratios)) == len(ratios)
    # condition 3: R on r > 0 stays above R(-1/2) = R(-2, 1)
    assert all(_ratio(j, Fraction(i, 13)) > _ratio(j, Fraction(-1, 2)) for i in range(1, 60))


def test_mobius_map_matches_its_definition():
    rng = np.random.default_rng(31)
    for degree in (0, 1, 2, 5, 9):
        p = [int(v) for v in rng.integers(-9, 10, degree + 1)]
        H = dispersion._mobius(p)
        for x in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            assert _poly_at(H, x) == (1 + x) ** degree * _poly_at(p, -x / (1 + x))


def test_over_r_plus_1_refuses_a_remainder():
    assert dispersion._over_r_plus_1([2, 3, 1]) == [2, 1]  # (r + 1)(r + 2)
    assert dispersion._over_r_plus_1([0]) == [0]
    with pytest.raises(ArithmeticError):
        dispersion._over_r_plus_1([1, 3, 1])


@pytest.mark.parametrize(
    "polys,named",
    [
        # positive on r > 0, but 8r^2 + 8r + 1 = -1 at r = -1/2: only the Moebius map sees it
        (lambda P2, G, M: (P2, [1, 8, 8], M), "condition 1"),
        # N / (r + 1) = 1 > 0 on (-1, 0): R would fall away from -1
        (lambda P2, G, M: (P2, G, [1]), "condition 2"),
        # P^2 = r^2 makes R constant, so R(r) > R(-1/2) fails on r > 0
        (lambda P2, G, M: ([0, 0, 1, 0, 0], G, M), "condition 3"),
    ],
    ids=["condition-1", "condition-2", "condition-3"],
)
def test_audit_names_the_condition_it_cannot_prove(monkeypatch, polys, named):
    _gap_polynomials = dispersion._gap_polynomials
    monkeypatch.setattr(dispersion, "_gap_polynomials", lambda j: polys(*_gap_polynomials(j)))
    report = audit_resonance_bound(DispersionModel(2, 1.0), 7)
    assert report.passed is False
    assert report.summary["uncertified"].startswith(named + ":")
    assert report.rows == [{"j": 2, "kmax": 7}]


@pytest.mark.parametrize("j,order,kmax", [(2, 3, 7), (2, 3, 60), (3, 5, 60), (2, 4, 7)])
def test_audit_of_a_wrong_order_fails_condition_1(j, order, kmax):
    # An order other than 2j+1 breaks the bound on most pairs (the reference
    # loop finds them), and the ratio no longer depends on m1/m2 alone.
    model = SimpleNamespace(j=j, order=order, lam=1.0)
    assert reference_audit_summary(model, kmax)["violations"] > 16
    report = audit_resonance_bound(model, kmax)
    assert report.passed is False
    assert report.summary["uncertified"].startswith("condition 1:")


def test_audit_certifies_j_300():
    # float(4**601) overflows: the certificate and the ratio are exact integers
    model = DispersionModel(300, 1.0)
    summary = audit_resonance_bound(model, 2).summary
    assert summary == reference_audit_summary(model, 2)
    assert summary["min_ratio"] == pytest.approx(6.78e87, rel=1e-3)


def test_audit_at_kmax_a_million_reads_the_closed_form():
    # kmax = 10^6 covers 4 * 10^12 pairs; the closed form reads the minimum at
    # (-kmax, kmax - 1), where R - 1 is of order 1/kmax^2
    for j in (1, 2, 3, 4):
        summary = audit_resonance_bound(_quiet_model(j), 10**6).summary
        assert summary["pairs_checked"] == 2 * 10**6 * (2 * 10**6 - 1)
        assert summary["min_ratio_pair"] == ([-(10**6)] * 2 if j == 1 else [-(10**6), 10**6 - 1])
        assert 1.0 <= summary["min_ratio"] < 1.0 + 1e-11


@pytest.mark.parametrize("j", [2, 3])
def test_no_vanishing_q0_off_the_trivial_line(j):
    m = np.arange(-60, 61, dtype=np.int64)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    off_line = (m1 != 0) & (m2 != 0) & (m1 + m2 != 0)
    q0 = resonance_q0(DispersionModel(j, 1.0).order, m1, m2)
    assert not np.any(off_line & (q0 == 0))


def region_labels(model, k, sigma):
    """The region of each (k, sigma) cell, read off region_masks: exactly one each."""
    masks = region_masks(model, k, sigma)
    labels = [[region for region, mask in masks.items() if mask[i]] for i in range(len(k))]
    assert all(len(found) == 1 for found in labels)
    return [found[0] for found in labels]


def test_classify_region_examples():
    m = DispersionModel(2, 1.0)
    assert region_labels(m, [1.0, 2.0], [0.0, 321.0]) == [Region.D1, Region.D3]
    m2 = DispersionModel(2, 2.0)
    assert region_labels(m2, [0.5, 0.0], [0.0, 3.0]) == [Region.D5, Region.ZERO_MODE]


def test_classifier_agrees_with_raw_inequalities():
    """Every label must match the five defining predicates evaluated directly."""
    model = DispersionModel(2, 2.0)
    n = model.order
    rng = np.random.default_rng(11)
    ks = rng.choice(np.concatenate([np.arange(1, 65), -np.arange(1, 65)]), 400) / 2.0
    sigmas = rng.uniform(-1e7, 1e7, 400)
    taus = model.phase(ks) + sigmas
    labels = region_labels(model, ks, taus - model.phase(ks))
    for k, tau, label in zip(ks, taus, labels):
        abs_sigma = abs(tau - model.phase(k))
        inner = 2 * n / 3 * abs(k) ** (n - 1)
        outer = 2 * n * abs(k) ** n
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
