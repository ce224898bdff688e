"""Shared test-field builders, and the references tests compare product code
against: dense transforms and norms, the scaling transform, and earlier forms of
the product's algorithms."""

from __future__ import annotations

import numpy as np

from hokdv.dispersion import DispersionModel, Region
from hokdv.norms import (
    SpaceTimeField, ZsNorm, _ys_columns, _ys_mass, xsb_mass, zs_norm_cells,
)
from hokdv.torus import SpectralField, TorusGrid
from hokdv.verifier import ModulationField, PlanMemo, convolve_modulation, smoothed_derivative


def random_band_limited(
    grid: TorusGrid, rng: np.random.Generator, max_mode: int, real: bool = True
) -> SpectralField:
    """Random field supported on |m| <= max_mode (conjugate symmetric if real)."""
    amps: dict[int, complex] = {}
    for m in range(1, max_mode + 1):
        a = rng.normal() + 1j * rng.normal()
        amps[m] = a
        amps[-m] = np.conj(a) if real else rng.normal() + 1j * rng.normal()
    if not real:
        amps[0] = 0.0
    return SpectralField.from_modes(grid, amps)


def physical_l2_norm(coeffs: np.ndarray, grid: TorusGrid) -> float:
    """sqrt((1/lam) sum |coeff|^2) / sqrt(2 pi) of one coefficient row: the physical L2
    norm as summed before `solver.conserved_quantities` read it off the H^0 norm."""
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2) / grid.lam)) / np.sqrt(2.0 * np.pi)


def random_spacetime_coeffs(
    rng: np.random.Generator, modes: int, t_modes: int
) -> np.ndarray:
    return rng.normal(size=(modes, t_modes)) + 1j * rng.normal(size=(modes, t_modes))


def forward_transform(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Transform point samples to integral coefficients.

    The rectangle rule (2 pi lam / M) * DFT is exact for functions band
    limited to the retained lattice.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.modes,):
        raise ValueError(
            f"sample array has length {samples.shape}, expected ({grid.modes},)"
        )
    coeffs = np.fft.fft(samples.astype(np.complex128)) * (grid.period / grid.modes)
    return SpectralField(grid, coeffs)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Evaluate the field at the grid points, (1/(2 pi lam)) sum_k coeff(k) e^{ikx}."""
    return np.fft.ifft(f.coeffs) * (f.grid.modes / f.grid.period)


def homogeneous_sobolev_norm(
    u: SpectralField | np.ndarray, s: float, grid: TorusGrid | None = None
) -> float | np.ndarray:
    """Homogeneous H-dot^s norm, ((1/lam) sum_{k != 0} |k|^{2s} |coeff|^2)^{1/2}:
    the k = 0 mode is dropped.  u is a SpectralField, or coefficient rows on grid."""
    if grid is None:
        grid, coeffs = u.grid, u.coeffs
    else:
        coeffs = np.asarray(u)
    nz = grid.m_ints != 0
    w = np.abs(grid.k_values[nz]) ** s
    mass = np.sum((w * np.abs(coeffs[..., nz])) ** 2, axis=-1)
    norm = np.sqrt(mass / grid.lam)
    return float(norm) if norm.ndim == 0 else norm


def lone_field(model: DispersionModel, m, sig_scaled, coeffs) -> ModulationField:
    """The ModulationField of one field with these raw cells."""
    return ModulationField(model, m, sig_scaled, coeffs, [0, len(m)])


def replay_bilinear_zs(model: DispersionModel, fields, s: float) -> np.ndarray:
    """Estimate 3.1's ratio on two lone fields, as a length-1 array."""
    u1, u2 = fields
    w = smoothed_derivative(convolve_modulation(u1, u2, PlanMemo()))
    return w.zs(s).total / (u1.zs(s).total * u2.zs(s).total)


def replay_embedding(model: DispersionModel, fields, s: float) -> np.ndarray:
    """Estimate 2.5's ratio on one lone field, the largest of its three
    direction ratios, as a length-1 array."""
    (u,) = fields
    j = model.j
    u12 = u.region_restricted((Region.D1, Region.D2))
    return max(
        u.xsb(s, 1.0 / (2.0 * j)) / u.zs(s).total,
        u.zs(s).total / u.xsb(s, (2.0 * j - 1.0) / (2.0 * j)),
        u12.xsb(s, 0.5) / u12.zs(s).total,
    )


def xsb_norm(u: SpaceTimeField, s: float, b: float, model: DispersionModel) -> float:
    """X_{s,b} norm with weights <k>^s <tau - p(k)>^b over the cell lattice."""
    model.check_grid(u.grid)
    _, k, sigma, vals = u.cell_arrays(model)
    mass = xsb_mass(k, sigma, vals, u.dtau, u.grid.lam, s, b, np.array([0, len(k)]), "the X_{s,b} weights")
    return float(np.sqrt(mass)[0])


def ys_mass(m, k, coeffs, cell_measure: float, lam: float, s: float) -> np.ndarray:
    """Squared Y^s mass of the cells as one field, l2 in k of <k>^s times the
    L1-in-tau column integral: one entry per field, an array of length 1."""
    return _ys_mass(_ys_columns(m, k, s, np.array([0, len(m)])), np.abs(coeffs), cell_measure, lam)


def ys_norm(u: SpaceTimeField, s: float) -> float:
    """Y^s norm, l2 in k of the tau L1 integral; needs no dispersion model."""
    m = np.repeat(u.grid.m_ints, u.t_modes)
    k = np.repeat(u.grid.k_values, u.t_modes)
    return float(np.sqrt(ys_mass(m, k, u.coeffs.reshape(-1), u.dtau, u.grid.lam, s))[0])


def zs_norm(u: SpaceTimeField, s: float, model: DispersionModel) -> ZsNorm:
    """Region-decomposed Z^s norm; returns the four components and their sum."""
    model.check_grid(u.grid)
    m, k, sigma, vals = u.cell_arrays(model)
    return zs_norm_cells(m, k, sigma, vals, u.dtau, model, s, {}).field(0)


def scale_transform(
    model: DispersionModel, u0: SpectralField, mu: int
) -> tuple[SpectralField, DispersionModel]:
    """Map data to the 2*pi*lam*mu torus: u_mu(x) = mu^{-2j} u0(x / mu).

    On the index lattice the coefficients simply rescale,
    coeff'(m) = mu^{1-2j} coeff(m), reinterpreted at frequency m/(lam mu).
    Solutions scale with time factor mu^{2j+1}.
    """
    if int(mu) != mu or mu < 1:
        raise ValueError(f"mu must be a positive integer, got {mu}")
    mu = int(mu)
    if mu == 1:
        return u0, model
    new_model = DispersionModel(model.j, model.lam * mu)
    new_grid = TorusGrid(model.lam * mu, u0.grid.modes)
    coeffs = u0.coeffs * float(mu) ** (1 - 2 * model.j)
    return SpectralField(new_grid, coeffs), new_model


def reference_audit_summary(model, kmax: int) -> dict:
    """The pure-Python double loop `audit_resonance_bound` replaced, as a reference.

    Returns the report's summary dict: every pair in (m1, m2) order, exact
    big-int cross-multiplication, strict-< update of the running minimum.
    """
    from fractions import Fraction

    j, n = model.j, model.order
    pow_n = {m: m**n for m in range(-2 * kmax, 2 * kmax + 1)}
    pow_j = {m: m**j for m in range(-kmax, kmax + 1)}
    pairs_checked = 0
    violations: list[tuple[int, int]] = []
    min_num, min_den = None, None  # running min of LHS/RHS as exact pair
    argmin = None
    rng1 = [m for m in range(-kmax, kmax + 1) if m != 0]
    for m1 in rng1:
        p1 = pow_n[m1]
        jf1 = abs(pow_j[m1])
        for m2 in rng1:
            m = m1 + m2
            if m == 0:
                continue
            pairs_checked += 1
            lhs = abs(pow_n[m] - p1 - pow_n[m2])
            rhs = n * abs(m) * jf1 * abs(pow_j[m2])
            if lhs < rhs:
                violations.append((m1, m2))
            if min_num is None or lhs * min_den < min_num * rhs:
                min_num, min_den = lhs, rhs
                argmin = (m1, m2)
    min_ratio = float(Fraction(min_num, min_den)) if min_den else float("nan")
    return {
        "pairs_checked": pairs_checked,
        "violations": len(violations),
        "min_ratio": min_ratio,
        "min_ratio_pair": list(argmin) if argmin else None,
        "witnesses": [list(v) for v in violations[:16]],
    }


def reference_modulation_cells(m, sig_scaled, coeffs):
    """The lexsort consolidation `ModulationField` used before its radix-backed
    canonical form, as a reference: (m, sig_scaled, coeffs) arrays.

    Drops m = 0 and zero-coefficient cells, sorts by (m, sig) with one lexsort,
    and sums duplicate cells in that order.
    """
    m = np.asarray(m, dtype=np.int64)
    sig = np.asarray(sig_scaled, dtype=np.int64)
    vals = np.asarray(coeffs, dtype=np.complex128)
    keep = (m != 0) & (vals != 0)
    m, sig, vals = m[keep], sig[keep], vals[keep]
    if len(m):
        order = np.lexsort((sig, m))
        m, sig, vals = m[order], sig[order], vals[order]
        new_cell = np.concatenate(([True], (np.diff(m) != 0) | (np.diff(sig) != 0)))
        starts = np.flatnonzero(new_cell)
        vals = np.add.reduceat(vals, starts)
        m, sig = m[starts], sig[starts]
    return m, sig, vals


def reference_zs_norm_cells(m, k, sigma, coeffs, cell_measure, model, s):
    """The Z^s norm as `norms.zs_norm_cells` formed it before it shared its
    weights across the region blocks, as a reference: one masked X_{s,b} mass
    per block, each recomputing `k != 0` and both bracket weights, and the Y^s
    mass by np.sum over the whole field."""
    from hokdv.dispersion import Region, region_masks
    from hokdv.norms import ZsNorm, angle_bracket, zs_region_exponents

    def xsb_mass(se, be, where):
        sel = (k != 0) & where
        if not np.any(sel):
            return 0.0
        weight = angle_bracket(k[sel]) ** (2.0 * se) * angle_bracket(sigma[sel]) ** (2.0 * be)
        return float(np.sum(weight * np.abs(coeffs[sel]) ** 2) * cell_measure / model.lam)

    masks = region_masks(model, k, sigma)
    exps = zs_region_exponents(model, s)

    def block(mask, se, be):
        return np.sqrt(xsb_mass(se, be, mask))

    x_d1d5 = block(masks[Region.D1] | masks[Region.D5], *exps["d1d5"])
    x_d2 = block(masks[Region.D2], *exps["d2"])
    x_d3d4 = block(masks[Region.D3] | masks[Region.D4], *exps["d3d4"])
    # Y^s: the k != 0 cells in stable m order, L1 in tau per m column
    sel = k != 0
    order = np.argsort(m[sel], kind="stable")
    mm, kk, amps = m[sel][order], k[sel][order], (np.abs(coeffs[sel]) * cell_measure)[order]
    ys_mass = 0.0
    if len(mm):
        starts = np.flatnonzero(np.concatenate(([True], mm[1:] != mm[:-1])))
        col_l1 = np.add.reduceat(amps, starts)
        ys_mass = float(np.sum(angle_bracket(kk[starts]) ** (2.0 * s) * col_l1**2) / model.lam)
    ys = np.sqrt(ys_mass)
    return ZsNorm(float(x_d1d5), float(x_d2), float(x_d3d4), float(ys))


def reference_second_iterate_quadrature(model, u0, t, steps):
    """The per-panel loop `second_iterate_quadrature` used before it evaluated
    its panels in blocks, checks included: one (4, M) forcing product per
    panel, then acc = step_mult * acc and the four node terms added one at a
    time.  A tolerance reference: the blocked oracle contracts each block
    with a propagator table instead of compounding step_mult, so the two
    agree to rounding (within 1e-10 of max|A2|), not bit for bit.  The
    forcing product is the unmasked scaled FFT pair, each transform with its
    own scale, rather than the oracle's folded `lattice_square`."""
    from hokdv.expquad import exponential_weights
    from hokdv.iterates import _NC4_BASIS, _NC4_NODES, quadrature_steps_needed

    if t < 0:
        raise ValueError("t must be nonnegative")
    grid = u0.grid
    model.check_grid(grid)
    needed = quadrature_steps_needed(model, u0, t)
    if steps < needed:
        N = int(np.max(np.abs(grid.m_ints[u0.coeffs != 0]), initial=0))
        raise ValueError(f"{steps} panels cannot resolve the forcing at j={model.j} "
                         f"N={N} t={t}; steps must be >= {needed}")
    if t == 0.0:
        return SpectralField.zero(grid)
    h = t / steps
    lin = model.phase(grid.k_values)
    ik = 1j * grid.k_values
    weights = exponential_weights(lin, h, _NC4_NODES, _NC4_BASIS)
    step_mult = np.exp(1j * lin * h)
    acc = np.zeros(grid.modes, dtype=np.complex128)
    for i in range(steps):
        u1 = u0.coeffs * np.exp(1j * ((i + _NC4_NODES[:, None]) * h) * lin)
        w = np.fft.ifft(u1) * (grid.modes / grid.period)
        panel = ik * (np.fft.fft(w * w) * (grid.period / grid.modes) * (2.0 * np.pi))
        acc = step_mult * acc
        for mth, values in enumerate(panel):
            acc = acc + weights[mth] * values
    return SpectralField(grid, acc)


def _reference_support(u0):
    grid = u0.grid
    out = []
    for idx in np.flatnonzero(np.abs(u0.coeffs) != 0.0):
        m = int(grid.m_ints[idx])
        if m != 0:
            out.append((m, complex(u0.coeffs[idx])))
    return out


def reference_second_iterate_closed(model, u0, t):
    """A2 by the hand-derived double sum `second_iterate_closed` used before
    it ran the shared Duhamel kernel, as a reference, checks included.
    Returns (coeffs, resonant_terms)."""
    from hokdv.dispersion import resonance_q0
    from hokdv.iterates import ResonanceConsistencyError, _oscillatory_factor

    grid = u0.grid
    model.check_grid(grid)
    if abs(u0.coeffs[0]) != 0.0:
        raise ValueError("data must be mean-zero")
    support = _reference_support(u0)
    half = grid.modes // 2
    n = model.order
    lam_pow = float(model.lam) ** n
    out = np.zeros(grid.modes, dtype=np.complex128)
    for m1, c1 in support:
        for m2, c2 in support:
            m = m1 + m2
            if m == 0:
                continue
            if not -half < m < half:
                raise ValueError(f"iterate mode {m} leaves the lattice; enlarge the grid")
            q0 = resonance_q0(n, m1, m2)
            if q0 == 0:
                raise ResonanceConsistencyError(f"q0 = 0 at nonzero output mode ({m1}, {m2})")
            omega = model.sign * float(q0) / lam_pow
            k = m / model.lam
            out[grid.index_of(m)] += 1j * k * c1 * c2 / model.lam * _oscillatory_factor(t, omega)
    phases = np.exp(1j * t * model.phase(grid.k_values))
    return SpectralField(grid, out * phases).coeffs, 0


def reference_third_iterate_closed(model, u0, t):
    """A3 by the hand-derived triple sum `third_iterate_closed` used before
    it ran the shared Duhamel kernel on u1 and A2's waves: per triple,
    2 i k e^{itp(k)} (1/lam^2) c1 c2 c3 (k23/w23) (E(t, w1) - E(t, w2)).
    Returns (coeffs, resonant_terms)."""
    from hokdv.dispersion import resonance_q0
    from hokdv.iterates import ResonanceConsistencyError, _oscillatory_factor

    grid = u0.grid
    model.check_grid(grid)
    if abs(u0.coeffs[0]) != 0.0:
        raise ValueError("data must be mean-zero")
    support = _reference_support(u0)
    half = grid.modes // 2
    n = model.order
    lam_pow = float(model.lam) ** n
    sign = model.sign
    out = np.zeros(grid.modes, dtype=np.complex128)
    resonant = 0
    for m1, c1 in support:
        for m2, c2 in support:
            for m3, c3 in support:
                m23 = m2 + m3
                if m23 == 0:
                    continue
                m = m1 + m23
                if m == 0:
                    continue
                if not -half < m < half:
                    raise ValueError(f"iterate mode {m} leaves the lattice; enlarge the grid")
                q0_23 = resonance_q0(n, m2, m3)
                if q0_23 == 0:
                    raise ResonanceConsistencyError(
                        f"q0(k2, k3) = 0 with nonzero prefactor at ({m1}, {m2}, {m3})"
                    )
                q2 = resonance_q0(n, m1, m23)
                q1 = q0_23 + q2
                if q1 == 0:
                    resonant += 1
                w23 = sign * float(q0_23) / lam_pow
                w_b = sign * float(q1) / lam_pow
                w_a = sign * float(q2) / lam_pow
                factor = _oscillatory_factor(t, w_b) - _oscillatory_factor(t, w_a)
                k = m / model.lam
                k23 = m23 / model.lam
                out[grid.index_of(m)] += 2j * k * (k23 / w23) * factor * c1 * c2 * c3 / model.lam**2
    phases = np.exp(1j * t * model.phase(grid.k_values))
    return SpectralField(grid, out * phases).coeffs, resonant


def full_lattice_duhamel_kernel(model, grid, t, left, right):
    """`iterates._duhamel_kernel` as it was before it phased only the modes it
    fills: the whole lattice times e^{itp(k)}."""
    from hokdv.iterates import _oscillatory_factor, _wave_pairs

    out = np.zeros(grid.modes, dtype=np.complex128)
    resonant = []
    for m1, m2, m, a, gap, w in _wave_pairs(model, left, right):
        if abs(m) >= grid.modes // 2:
            raise ValueError(f"iterate mode {m} leaves the lattice; enlarge the grid")
        if gap == 0:
            resonant.append((m1, m2))
        out[m % grid.modes] += 1j * a * _oscillatory_factor(t, w)
    return out * np.exp(1j * t * model.phase(grid.k_values)), resonant


def reference_growth_sweep(model, s, n_list, t):
    """`growth_sweep` for one s as it was before it walked A3 once per N: a new
    grid and a walk of A3 at phi_N's own amplitude N^-s for every N.  Each row
    also holds `nonzero_modes`, the count of nonzero A3 coefficients."""
    from hokdv.iterates import grid_size_for_mode, phi_n_data, third_iterate_closed
    from hokdv.reporting import ExperimentReport

    rows = []
    for N in n_list:
        grid = TorusGrid(model.lam, grid_size_for_mode(3 * N))
        a3, resonant_terms = third_iterate_closed(model, phi_n_data(N, s, grid), t)
        rows.append(
            {
                "j": model.j,
                "s": s,
                "N": N,
                "t": t,
                "h_s_norm": homogeneous_sobolev_norm(a3, s),
                "resonant_terms": resonant_terms,
                "nonzero_modes": int(np.count_nonzero(a3.coeffs)),
            }
        )
    log_n = np.log([row["N"] for row in rows])
    log_norm = np.log([row["h_s_norm"] for row in rows])
    coeffs, cov = np.polyfit(log_n, log_norm, 1, cov=True)
    exponent = float(coeffs[0])
    theory = -2.0 * s - (2.0 * model.j - 1.0)
    threshold = -model.j + 0.5
    return ExperimentReport(
        rows=rows,
        summary={
            "fitted_exponent": exponent,
            "stderr": float(np.sqrt(cov[0, 0])),
            "theory_exponent": theory,
            "threshold_s": threshold,
            "grows_unbounded": exponent > 0.1,
            "below_threshold": s < threshold,
        },
        passed=abs(exponent - theory) <= 0.1,
    )


def accepted_s_edges(cfg: dict, inside: float, also=None) -> tuple[float, float]:
    """The lowest and the highest s at which an `illposed-sweep` run with the other
    keys of cfg is not refused (exit 2), and also(s) holds if given, found by
    bisection outwards from the accepted s `inside`, out to -1e4 and 1e4."""
    import contextlib
    import io
    import tempfile

    from hokdv.cli import main

    def text(value):
        return ", ".join(map(str, value)) if isinstance(value, list) else str(value)

    sets = [arg for key, value in cfg.items() if key != "s_list"
            for arg in ("--set", f"{key} = {text(value)}")]

    def accepted(s, out_root):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            argv = ["illposed-sweep", *sets, "--set", f"s_list = {s!r}", "--out-root", out_root]
            return main(argv) != 2 and (also is None or also(s))

    with tempfile.TemporaryDirectory() as out_root:
        assert accepted(inside, out_root)
        edges = []
        for outside in (-1e4, 1e4):
            ok, bad = inside, outside
            for _ in range(80):
                mid = 0.5 * (ok + bad)
                if mid in (ok, bad):  # the two are neighbouring doubles
                    break
                ok, bad = (mid, bad) if accepted(mid, out_root) else (ok, mid)
            edges.append(ok)
    return edges[0], edges[1]


def reference_phi_functions(z, count):
    """phi_0 .. phi_{count-1} with the series evaluated on the entries |z| < 0.5 alone,
    gathered out of z, and the recurrence on the others."""
    import math

    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 0.5
    out = [np.exp(z)]
    for r in range(1, count):
        phi = np.empty_like(z)
        phi[~small] = (out[r - 1][~small] - 1.0 / math.factorial(r - 1)) / z[~small]
        series = np.zeros(np.count_nonzero(small), dtype=np.complex128)
        zp = np.ones_like(series)
        for n in range(18):
            series = series + zp / float(math.factorial(n + r))
            zp = zp * z[small]
        phi[small] = series
        out.append(phi)
    return out


def reference_duhamel_map(model, phi, u_frames, times):
    """The cutoff Duhamel map as `solver.duhamel_map` formed it before it took
    held frame-grid arrays, as a reference: window, propagators and dealias
    mask built afresh on every call."""
    from hokdv.norms import smooth_bump_window
    from hokdv.solver import _cumulative_integral
    from hokdv.torus import dealias_mask, lattice_product

    times = np.asarray(times, dtype=np.float64)
    grid = phi.grid
    dt = times[1] - times[0]
    anchor = int(np.argmin(np.abs(times)))
    lin = model.phase(grid.k_values)
    eta_t = np.asarray(smooth_bump_window(times), dtype=np.float64)[:, None]
    t_col = times[:, None]
    q = -0.5j * grid.k_values * lattice_product(u_frames, grid, dealias_mask(grid)) * (-2.0)
    integrand = np.exp(-1j * t_col * lin) * (eta_t * q)
    cumulative = _cumulative_integral(integrand, dt, anchor)
    out = eta_t * (np.exp(1j * t_col * lin) * (phi.coeffs - 0.5 * cumulative))
    out[:, grid.nyquist_index] = 0.0
    return out


def reference_contraction_experiment(model, phi, s, *, max_iter, n_frames):
    """`solver.contraction_experiment` as it ran before it held its frame grid,
    as a reference: the free flow frame by frame through `free_evolve`, every
    map through `reference_duhamel_map`, every Z^s through a fresh `zs_norm`."""
    from hokdv.dispersion import free_evolve
    from hokdv.norms import smooth_bump_window, sobolev_norm, spacetime_from_timeseries
    from hokdv.solver import ContractionTrace

    if n_frames % 2 == 0:
        n_frames += 1
    half = n_frames // 2
    dt = 2.2 / half
    times = dt * np.arange(-half, half + 1)
    grid = phi.grid

    def z_of(frames):
        return zs_norm(spacetime_from_timeseries(grid, frames, times), s, model).total

    def hs_sup(frames):
        return float(np.max(sobolev_norm(frames, s, grid)))

    eta_t = np.asarray(smooth_bump_window(times), dtype=np.float64)[:, None]
    current = eta_t * np.array([free_evolve(model, phi, t).coeffs for t in times])
    trace = ContractionTrace()
    scale = max(z_of(current), 1e-300)
    floor = 1e-13 * scale
    for _ in range(max_iter):
        nxt = reference_duhamel_map(model, phi, current, times)
        diffs = nxt - current
        d = z_of(diffs)
        trace.diff_norms.append(d)
        trace.hs_sup_diffs.append(hs_sup(diffs))
        current = nxt
        if d <= floor:
            trace.converged = True
            break
        if not np.isfinite(d) or d > 1e8 * scale:
            trace.diverged = True
            break
    ratios = [b / a for a, b in zip(trace.diff_norms, trace.diff_norms[1:]) if a > floor]
    trace.factor = max(ratios) if ratios else float("nan")
    if not ratios and len(trace.diff_norms) >= 1:
        trace.converged = trace.converged or trace.diff_norms[-1] <= floor
    return trace


def reference_integrate(model, u0, cfg):
    """`solver.integrate` as it stepped before it folded the product's constants
    into its step weights, as a reference: every stage through the scaled
    product -(ik/2) lattice_product, IFRK4 with its conj(e^{iL dt/2}) factors
    rebuilt on every step."""
    from hokdv.expquad import phi_functions
    from hokdv.solver import BlowUpError
    from hokdv.torus import dealias_mask, lattice_product

    def product_term(coeffs, grid, mask):
        return -0.5j * grid.k_values * lattice_product(coeffs, grid, mask)

    def ifrk4_step(c, grid, dt, half_mult, full_mult, mask):
        f1 = product_term(c, grid, mask)
        w2 = half_mult * (c + 0.5 * dt * f1)
        f2 = np.conj(half_mult) * product_term(w2, grid, mask)
        w3 = half_mult * c + 0.5 * dt * half_mult * f2
        f3 = np.conj(half_mult) * product_term(w3, grid, mask)
        w4 = full_mult * (c + dt * f3)
        f4 = np.conj(full_mult) * product_term(w4, grid, mask)
        w_new = c + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        return full_mult * w_new

    grid = u0.grid
    model.check_grid(grid)
    if abs(u0.mean_value()) > 1e-13:
        raise ValueError("initial data must be mean-zero")
    steps = cfg.steps
    lin = model.phase(grid.k_values)
    mask = dealias_mask(grid)
    half_mult = np.exp(1j * lin * cfg.dt / 2.0)
    full_mult = half_mult * half_mult
    initial_l2 = physical_l2_norm(u0.coeffs, grid)

    if cfg.scheme == "etdrk4":
        z = 1j * lin * cfg.dt
        phis = phi_functions(z, 4)
        half_phis = phi_functions(z / 2.0, 2)
        stage_w = (cfg.dt / 2.0) * half_phis[1]
        w1 = cfg.dt * (phis[1] - 3.0 * phis[2] + 4.0 * phis[3])
        w2 = cfg.dt * 2.0 * (phis[2] - 2.0 * phis[3])
        w3 = cfg.dt * (4.0 * phis[3] - phis[2])

    c = u0.coeffs.copy()
    times = [0.0]
    frames = [u0.coeffs]
    for step in range(steps):
        if cfg.nonlinear:
            if cfg.scheme == "ifrk4":
                c = ifrk4_step(c, grid, cfg.dt, half_mult, full_mult, mask)
            else:
                n0 = product_term(c, grid, mask)
                a = half_mult * c + stage_w * n0
                na = product_term(a, grid, mask)
                b = half_mult * c + stage_w * na
                nb = product_term(b, grid, mask)
                cc = half_mult * a + stage_w * (2.0 * nb - n0)
                nc = product_term(cc, grid, mask)
                c = full_mult * c + w1 * n0 + w2 * (na + nb) + w3 * nc
        else:
            c = full_mult * c
        t_now = (step + 1) * cfg.dt
        if (step + 1) % cfg.frame_stride == 0 or step + 1 == steps:
            frame = SpectralField(grid, c)
            frames.append(frame.coeffs)
            times.append(t_now)
            ratio = physical_l2_norm(frame.coeffs, grid) / max(initial_l2, 1e-300)
            if not np.isfinite(ratio) or ratio > 10.0:
                raise BlowUpError(t_now, ratio, times[-2])
    return np.array(times), np.array(frames)


def reference_run_trials(search, model, cfg, **params) -> dict:
    """The ratio searches of `verifier` as they ran before they measured trials
    in batches, as a reference: each trial's fields drawn from its own
    (cfg.seed, trial) stream and measured alone, products by the lexsort
    consolidation of the raw outer cells, every norm by np.sum over one whole
    field, the witness described whenever the maximum rises.

    search is "2.1" (params l1, l2), "2.2" (a, b), "2.5" (s) or "3.1" (s).
    Returns the report's rows, max_ratio, argmax_trial, skipped and witness,
    and for 2.5 params["max_by_direction"].
    """
    from hokdv import verifier
    from hokdv.dispersion import Region, region_masks, resonance_q0
    from hokdv.norms import DyadicShell, angle_bracket

    lam, n, j = model.lam, model.order, model.j
    scale = int(lam) ** n
    s = params.get("s")

    def restrict(u, keep):
        return reference_modulation_cells(u[0][keep], u[1][keep], u[2][keep])

    def k_sigma(u):
        return u[0] / lam, u[1] / float(scale)

    def product(u, v):
        mf, mg, sf, sg = (max(abs(int(x)) for x in a) for a in (u[0], v[0], u[1], v[1]))
        verifier.check_int64_lattice(n, mf + mg, sf + sg)
        m1, m2 = u[0][:, None], v[0][None, :]
        sig = u[1][:, None] + v[1][None, :] + model.sign * resonance_q0(n, m1, m2)
        vals = np.outer(u[2], v[2]) * (1.0 / lam)
        return reference_modulation_cells((m1 + m2).ravel(), sig.ravel(), vals.ravel())

    def smoothed(w):
        k, sigma = k_sigma(w)
        return reference_modulation_cells(w[0], w[1], w[2] * (1j * k / angle_bracket(sigma)))

    def l2(u):
        return float(np.sqrt(np.sum(np.abs(u[2]) ** 2) * 1.0 / lam))

    def xsb(u, se, be):
        k, sigma = k_sigma(u)
        weight = angle_bracket(k) ** (2.0 * se) * angle_bracket(sigma) ** (2.0 * be)
        return float(np.sqrt(np.sum(weight * np.abs(u[2]) ** 2) * 1.0 / lam))

    def zs(u):
        return reference_zs_norm_cells(u[0], *k_sigma(u), u[2], 1.0, model, s).total

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def draw(gen, rng):
        if search == "2.1":
            fields = [reference_modulation_cells(*verifier._dyadic_cells(model, cfg, rng, l))
                      for l in (params["l1"], params["l2"])]
            return [restrict(u, DyadicShell(l).mask(k_sigma(u)[1]))
                    for u, l in zip(fields, (params["l1"], params["l2"]))]
        if search == "3.1" and gen == "phi_N-family":
            cells = verifier._resonant_cells(model, cfg, rng, s)
        else:
            kw = {} if s is None else {"s": s}
            cells = [verifier.field_cells(gen, model, cfg, rng, **kw)
                     for _ in range(1 if search == "2.5" else 2)]
        return [reference_modulation_cells(*c) for c in cells]

    def measure(*fields):
        if search == "3.1":
            u1, u2 = fields
            lhs, rhs = zs(smoothed(product(u1, u2))), zs(u1) * zs(u2)
        elif search == "2.1":
            u1, u2 = fields
            lo, hi = sorted((2.0 ** params["l1"], 2.0 ** params["l2"]))
            prefactor = lo**0.5 * hi ** (1.0 / (2.0 * (2.0 * j + 1.0)))
            lhs, rhs = l2(product(u1, u2)), prefactor * l2(u1) * l2(u2)
        elif search == "2.2":
            u, v = fields
            lhs, rhs = l2(product(u, v)), xsb(u, 0.0, params["a"]) * xsb(v, 0.0, params["b"])
        else:
            (u,) = fields
            total = zs(u)
            k, sigma = k_sigma(u)
            masks = region_masks(model, k, sigma)
            u12 = restrict(u, masks[Region.D1] | masks[Region.D2])
            ratios = (
                ratio(xsb(u, s, 1.0 / (2.0 * j)), total),
                ratio(total, xsb(u, s, (2.0 * j - 1.0) / (2.0 * j))),
                ratio(xsb(u12, s, 0.5), zs(u12)),
            )
            return dict(zip(("low_vs_zs", "zs_vs_high", "half_d12_vs_zs"), ratios)), max(ratios)
        return {"lhs": lhs, "rhs": rhs, "ratio": ratio(lhs, rhs)}, ratio(lhs, rhs)

    def describe(u):
        return {"m": u[0].tolist(), "sigma_scaled": u[1].tolist(), "re": u[2].real.tolist(),
                "im": u[2].imag.tolist(), "sig_scale": scale}

    out = {"rows": [], "max_ratio": 0.0, "argmax_trial": -1, "skipped": 0, "witness": None}
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial)))
        gen = verifier._MIXED[trial % 4] if cfg.generator == "mixed" else cfg.generator
        if search == "2.1":
            gen = "dyadic-concentrated"
        fields = draw(gen, rng)
        if any(len(u[0]) == 0 for u in fields):
            out["skipped"] += 1
            continue
        values, r = measure(*fields)
        out["rows"].append({"trial": trial, "generator": gen, **values})
        if r > out["max_ratio"]:
            out["max_ratio"], out["argmax_trial"] = r, trial
            out["witness"] = {"fields": [describe(u) for u in fields]}
    if search == "2.5":
        out["max_by_direction"] = {
            key: max([0.0, *(row[key] for row in out["rows"])])
            for key in ("low_vs_zs", "zs_vs_high", "half_d12_vs_zs")
        }
    return out
