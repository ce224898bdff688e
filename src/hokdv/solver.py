"""Pseudo-spectral time integration of the full nonlinear equation, the
cutoff Duhamel map and its contraction measurement, and the scaling
transform between tori.

The linear part is diagonal in Fourier space and is always applied through
its exact unimodular multiplier (k^{2j+1} time scales are hopeless for any
explicit scheme on the raw equation); only the quadratic term is stepped,
either by integrating-factor RK4 or by ETDRK4.  The quadratic product is
the 2/3-dealiased normalized lattice convolution, `torus.lattice_product`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionModel, free_evolve
from .expquad import phi_functions
from .norms import (
    NormSpec,
    smooth_bump_window,
    sobolev_norm,
    spacetime_from_timeseries,
    zs_norm,
)
from .torus import SpectralField, TorusGrid, dealias_mask, lattice_product, physical_l2_norm


class BlowUpError(RuntimeError):
    """L2 norm exceeded ten times its initial value during integration."""

    def __init__(self, t: float, ratio: float):
        super().__init__(
            f"L2 norm grew to {ratio:.3g} times its initial value by t = {t:.6g}; "
            "the run is unstable (reduce dt or the data amplitude)"
        )
        self.t = t
        self.ratio = ratio


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for integrate()."""

    dt: float
    T: float
    dealias: bool = True
    scheme: str = "ifrk4"  # "ifrk4" or "etdrk4"
    nonlinear: bool = True
    frame_stride: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.scheme not in ("ifrk4", "etdrk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.frame_stride < 1:
            raise ValueError("frame_stride must be >= 1")
        if abs(self.steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("T must be an integer multiple of dt")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class ContractionTrace:
    """Successive-difference record of the cutoff Duhamel iteration."""

    iterate_norms: list[float] = field(default_factory=list)
    diff_norms: list[float] = field(default_factory=list)
    hs_sup_diffs: list[float] = field(default_factory=list)
    factor: float = float("nan")
    converged: bool = False
    diverged: bool = False


def _product_term(model: DispersionModel, coeffs: np.ndarray, grid: TorusGrid,
                  mask: np.ndarray | None) -> np.ndarray:
    """-(i k / 2) * (u (*) u) where (*) is the normalized lattice convolution."""
    return -0.5j * grid.k_values * lattice_product(coeffs, grid, mask)


def integrate(
    model: DispersionModel, u0: SpectralField, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """March the equation from u0, returning (times, frames).

    frames is an (n_frames, M) coefficient array, one row per recorded time
    with its Nyquist slot zero.  The mean mode is required to vanish (it is
    conserved and decoupled, and all downstream norm machinery assumes a
    zero-free lattice).  Frames are recorded every cfg.frame_stride steps,
    always including t = 0 and T.
    """
    grid = u0.grid
    if grid.lam != model.lam:
        raise ValueError("grid lam does not match model lam")
    if abs(u0.mean_value()) > 1e-13:
        raise ValueError("initial data must be mean-zero")
    steps = cfg.steps
    lin = model.phase(grid.k_values)
    mask = dealias_mask(grid) if (cfg.dealias and cfg.nonlinear) else None
    half_mult = np.exp(1j * lin * cfg.dt / 2.0)
    full_mult = half_mult * half_mult
    initial_l2 = physical_l2_norm(u0)

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
                c = _ifrk4_step(model, c, grid, cfg.dt, half_mult, full_mult, mask)
            else:
                n0 = _product_term(model, c, grid, mask)
                a = half_mult * c + stage_w * n0
                na = _product_term(model, a, grid, mask)
                b = half_mult * c + stage_w * na
                nb = _product_term(model, b, grid, mask)
                cc = half_mult * a + stage_w * (2.0 * nb - n0)
                nc = _product_term(model, cc, grid, mask)
                c = full_mult * c + w1 * n0 + w2 * (na + nb) + w3 * nc
        else:
            c = full_mult * c
        t_now = (step + 1) * cfg.dt
        if (step + 1) % cfg.frame_stride == 0 or step + 1 == steps:
            frame = SpectralField(grid, c)
            frames.append(frame.coeffs)
            times.append(t_now)
            ratio = physical_l2_norm(frame) / max(initial_l2, 1e-300)
            if not np.isfinite(ratio) or ratio > 10.0:
                raise BlowUpError(t_now, ratio)
    return np.array(times), np.array(frames)


def _ifrk4_step(model, c, grid, dt, half_mult, full_mult, mask):
    """Classical RK4 on the integrating-factor transform w(t) = e^{-Lt} u."""
    f1 = _product_term(model, c, grid, mask)
    w2 = half_mult * (c + 0.5 * dt * f1)
    f2 = np.conj(half_mult) * _product_term(model, w2, grid, mask)
    w3 = half_mult * c + 0.5 * dt * half_mult * f2
    f3 = np.conj(half_mult) * _product_term(model, w3, grid, mask)
    w4 = full_mult * (c + dt * f3)
    f4 = np.conj(full_mult) * _product_term(model, w4, grid, mask)
    w_new = c + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return full_mult * w_new


def conserved_quantities(u: SpectralField) -> tuple[float, float]:
    """(spatial mean, physical L2 norm) of the field."""
    return float(np.real(u.mean_value())), physical_l2_norm(u)


def duhamel_map(
    model: DispersionModel,
    phi: SpectralField,
    u_frames: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Apply the cutoff Duhamel map to an (n_frames, M) frame series:

        Phi(u)(t) = eta(t) S(t) phi - (1/2) eta(t) int_0^t S(t-s) eta(s) d_x(u(s)^2) ds.

    The integral is factored through S(t) S(-s) so the cumulative quadrature
    (fourth-order, uniform grid anchored at t = 0) runs once over the frames.
    eta is `smooth_bump_window()`; a fixed point of this map solves the
    equation on its flat core [-1, 1].
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 4:
        raise ValueError("need at least 4 frames for the cumulative quadrature")
    grid = phi.grid
    u_frames = np.asarray(u_frames)
    if u_frames.shape != (len(times), grid.modes):
        raise ValueError(
            f"frames have shape {u_frames.shape}, expected ({len(times)}, {grid.modes})"
        )
    eta = smooth_bump_window()
    dt = times[1] - times[0]
    anchor = int(np.argmin(np.abs(times)))
    if abs(times[anchor]) > 1e-12:
        raise ValueError("frame times must include t = 0")
    lin = model.phase(grid.k_values)
    eta_t = np.asarray(eta(times), dtype=np.float64)[:, None]
    t_col = times[:, None]
    # d_x(u^2) = -2 * product term
    q = _product_term(model, u_frames, grid, dealias_mask(grid)) * (-2.0)
    integrand = np.exp(-1j * t_col * lin) * (eta_t * q)
    cumulative = _cumulative_integral(integrand, dt, anchor)
    out = eta_t * (np.exp(1j * t_col * lin) * (phi.coeffs - 0.5 * cumulative))
    out[:, grid.nyquist_index] = 0.0
    return out


def _cumulative_integral(f: np.ndarray, dt: float, anchor: int) -> np.ndarray:
    """Cumulative integral along axis 0 from the anchor index on a uniform grid.

    Interior panels use the fourth-order rule
    int_{t_i}^{t_{i+1}} f = dt (-f_{i-1} + 13 f_i + 13 f_{i+1} - f_{i+2}) / 24,
    one-sided cubic rules cover the ends.
    """
    panel = np.empty_like(f[:-1])
    panel[1:-1] = -f[:-3] + 13 * f[1:-2] + 13 * f[2:-1] - f[3:]
    panel[0] = 9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]
    panel[-1] = f[-4] - 5 * f[-3] + 19 * f[-2] + 9 * f[-1]
    panel *= dt / 24.0
    out = np.zeros_like(f)
    out[anchor + 1 :] = np.cumsum(panel[anchor:], axis=0)
    out[:anchor] = -np.cumsum(panel[:anchor][::-1], axis=0)[::-1]
    return out


def contraction_experiment(
    model: DispersionModel,
    phi: SpectralField,
    s: float,
    max_iter: int = 12,
    n_frames: int = 221,
) -> ContractionTrace:
    """Iterate the cutoff Duhamel map and measure successive differences.

    Differences are taken in the discrete Z^s norm of the windowed frame
    series (the contraction norm) with the H^s sup-in-time proxy alongside.
    The reported factor is the largest ratio of successive differences
    before the iteration reaches the convergence floor.
    """
    if n_frames % 2 == 0:
        n_frames += 1  # keep t = 0 on the grid
    half = n_frames // 2
    dt = 2.2 / half  # frames span [-2.2, 2.2], past the window's support [-2, 2]
    times = dt * np.arange(-half, half + 1)
    eta = smooth_bump_window()
    flat = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    grid = phi.grid

    def z_of(frames: np.ndarray) -> float:
        stf = spacetime_from_timeseries(grid, frames, times, window=flat)
        return zs_norm(stf, s, model).total

    def hs_sup(frames: np.ndarray) -> float:
        return float(np.max(sobolev_norm(frames, NormSpec(s), grid)))

    eta_t = np.asarray(eta(times), dtype=np.float64)[:, None]
    current = eta_t * np.array([free_evolve(model, phi, t).coeffs for t in times])
    trace = ContractionTrace()
    trace.iterate_norms.append(z_of(current))
    scale = max(trace.iterate_norms[0], 1e-300)
    floor = 1e-13 * scale
    for _ in range(max_iter):
        nxt = duhamel_map(model, phi, current, times)
        diffs = nxt - current
        d = z_of(diffs)
        trace.diff_norms.append(d)
        trace.hs_sup_diffs.append(hs_sup(diffs))
        trace.iterate_norms.append(z_of(nxt))
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
        # a single step may already sit on the floor (e.g. phi = 0)
        trace.converged = trace.converged or trace.diff_norms[-1] <= floor
    return trace


def scale_transform(
    model: DispersionModel, u0: SpectralField, mu: int
) -> tuple[SpectralField, DispersionModel]:
    """Map data to the 2*pi*lam*mu torus: u_mu(x) = mu^{-2j} u0(x / mu).

    On the index lattice the coefficients simply rescale,
    coeff'(m) = mu^{1-2j} coeff(m), reinterpreted at frequency m/(lam mu).
    Solutions scale with time factor mu^{2j+1} (see scale_time_factor).
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


def scale_time_factor(model: DispersionModel, mu: int) -> float:
    """Solving the scaled problem to time T matches the original at T / mu^{2j+1}."""
    return float(mu) ** (2 * model.j + 1)
