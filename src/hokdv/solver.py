"""Pseudo-spectral time integration of the full nonlinear equation, the
cutoff Duhamel map and its contraction measurement, and the scaling
transform between tori.

The linear part is diagonal in Fourier space and is always applied through
its exact unimodular multiplier (k^{2j+1} time scales are hopeless for any
explicit scheme on the raw equation); only the quadratic term is stepped,
either by integrating-factor RK4 or by ETDRK4.  The quadratic product is the
2/3-dealiased normalized lattice convolution.  `integrate` marches a real
field's half spectrum, its nonnegative modes 0 .. M/2, and folds the product's
constants and the output mask into step weights built once per run on that
half, so each stage is one real-FFT pair (`torus.lattice_square`) on the kept
modes alone, the input mask; `duhamel_map` runs `torus.lattice_product`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionModel, phase_multiplier
from .expquad import phi_functions
from .norms import (
    NormSpec,
    ZsNorm,
    smooth_bump_window,
    sobolev_norm,
    time_transform,
    time_transform_phase,
    uniform_step,
    zs_norm_cells,
)
from .torus import (TINY, Refused, SpectralField, TorusGrid, check_range, dealias_cutoff,
                    dealias_mask, full_spectrum, half_spectrum, lattice_product, lattice_square,
                    physical_l2_norm, product_scale)


class BlowUpError(RuntimeError):
    """L2 norm exceeded ten times its initial value during integration, or left
    double precision somewhere in (since, t], the steps after the last frame."""

    def __init__(self, t: float, ratio: float, since: float):
        if np.isfinite(ratio):
            what = f"L2 norm grew to {ratio:.3g} times its initial value by t = {t:.6g}"
        else:
            what = (f"L2 norm is {ratio} (not finite) at t = {t:.6g}: the state left "
                    f"double precision in ({since:.6g}, {t:.6g}]")
        super().__init__(f"{what}; the run is unstable (reduce dt or the data amplitude)")
        self.t = t
        self.ratio = ratio
        self.since = since


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters for integrate()."""

    dt: float
    T: float
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
            raise Refused("T", "T must be an integer multiple of dt")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class ContractionTrace:
    """Successive-difference record of the cutoff Duhamel iteration."""

    diff_norms: list[float] = field(default_factory=list)
    hs_sup_diffs: list[float] = field(default_factory=list)
    factor: float = float("nan")
    converged: bool = False
    diverged: bool = False


def _stage_factor(grid: TorusGrid) -> np.ndarray:
    """g on the nonnegative modes with -(i k / 2) (u (*) u) = g * lattice_square(v, M),
    v the kept modes of u's half spectrum: the 2/3 rule's output mask."""
    cutoff = dealias_cutoff(grid.modes)
    k = grid.half_k_values
    return (-0.5j * product_scale(grid)) * k * (np.arange(len(k)) <= cutoff)


def integrate(
    model: DispersionModel, u0: SpectralField, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """March the equation from u0, returning (times, frames).

    The state is u's half spectrum, its nonnegative modes 0 .. M/2, so u0 must
    be a real field (exactly conjugate symmetric, else ValueError).  frames
    is an (n_frames, M) coefficient array, one row per recorded time, each
    row exactly conjugate symmetric with its Nyquist slot zero.  The mean
    mode is required to vanish (it is conserved and decoupled, and all
    downstream norm machinery assumes a zero-free lattice).  Frames are
    recorded every cfg.frame_stride steps, always including t = 0 and T.
    """
    grid = u0.grid
    model.check_grid(grid)
    if abs(u0.mean_value()) > 1e-13:
        raise ValueError("initial data must be mean-zero")
    c = half_spectrum(u0)
    steps = cfg.steps
    dt = cfg.dt
    modes = grid.modes
    kept = dealias_cutoff(modes) + 1  # the 2/3 input mask: lattice_square of c[:kept]
    half_mult = phase_multiplier(model, grid.half_k_values, dt / 2.0)
    lin = model.phase(grid.half_k_values)  # finite: its multiplier passed
    full_mult = half_mult * half_mult
    initial_l2 = physical_l2_norm(u0)

    g = _stage_factor(grid)  # folded into every step weight
    if cfg.scheme == "etdrk4":
        z = 1j * lin * dt
        phis = phi_functions(z, 4)
        half_phis = phi_functions(z / 2.0, 2)
        stage_w = (dt / 2.0) * half_phis[1] * g
        w1 = dt * (phis[1] - 3.0 * phis[2] + 4.0 * phis[3]) * g
        w2 = dt * 2.0 * (phis[2] - 2.0 * phis[3]) * g
        w3 = dt * (4.0 * phis[3] - phis[2]) * g
    else:
        # classical RK4 on w(t) = e^{-Lt} u, pushed forward by e^{Lt}: with
        # h = e^{L dt/2}, f = h^2 and conj(h) h = 1 every conj(h) cancels
        in_a = (dt / 2.0) * half_mult * g
        in_b = (dt / 2.0) * g
        in_c = dt * half_mult * g
        out_1 = (dt / 6.0) * full_mult * g
        out_23 = (dt / 3.0) * half_mult * g
        out_4 = (dt / 6.0) * g

    times = [0.0]
    frames = [u0.coeffs]
    # a state that overflows between frames turns inf and nan quietly; the frame check names it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            if not cfg.nonlinear:
                c = full_mult * c
            elif cfg.scheme == "etdrk4":
                q0 = lattice_square(c[:kept], modes)
                hc = half_mult * c
                a = hc + stage_w * q0
                qa = lattice_square(a[:kept], modes)
                qb = lattice_square((hc + stage_w * qa)[:kept], modes)
                qc = lattice_square((half_mult * a + stage_w * (2.0 * qb - q0))[:kept], modes)
                c = full_mult * c + w1 * q0 + w2 * (qa + qb) + w3 * qc
            else:
                q1 = lattice_square(c[:kept], modes)
                hc = half_mult * c
                q2 = lattice_square((hc + in_a * q1)[:kept], modes)
                q3 = lattice_square((hc + in_b * q2)[:kept], modes)
                fc = full_mult * c
                q4 = lattice_square((fc + in_c * q3)[:kept], modes)
                c = fc + out_1 * q1 + out_23 * (q2 + q3) + out_4 * q4
            t_now = (step + 1) * dt
            if (step + 1) % cfg.frame_stride == 0 or step + 1 == steps:
                frame = SpectralField(grid, full_spectrum(c, modes))
                frames.append(frame.coeffs)
                times.append(t_now)
                ratio = physical_l2_norm(frame) / max(initial_l2, 1e-300)
                if not np.isfinite(ratio) or ratio > 10.0:
                    raise BlowUpError(t_now, ratio, times[-2])
    return np.array(times), np.array(frames)


def conserved_quantities(u: SpectralField) -> tuple[float, float]:
    """(spatial mean, physical L2 norm) of the field."""
    return float(np.real(u.mean_value())), physical_l2_norm(u)


@dataclass(frozen=True, eq=False)
class FrameGrid:
    """The time-only arrays of a uniform frame grid on one torus: dt, the index of
    t = 0, the window eta(t_i) as a column, the propagators S(t_i) and S(-t_i) as
    (n_frames, M) arrays, the dealias mask, and norms.time_transform_phase.  Its
    space-time cells and their Z^s weight passes by s are formed by the first
    zs_norm that needs them."""

    model: DispersionModel
    grid: TorusGrid
    times: np.ndarray
    dt: float
    anchor: int
    eta_t: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    mask: np.ndarray
    tau_phase: np.ndarray
    dtau: float
    cells: list = field(default_factory=list)
    zs_weights: dict = field(default_factory=dict)

    def free_flow(self, phi: SpectralField) -> np.ndarray:
        """The windowed free flow eta(t_i) S(t_i) phi, one row per frame."""
        out = self.eta_t * (phi.coeffs * self.forward)  # free_evolve's operand order
        out[:, self.grid.nyquist_index] = 0.0
        return out

    def zs_norm(self, frames: np.ndarray, s: float) -> ZsNorm:
        """Z^s of the space-time field of a frame series on this grid, as
        norms.zs_norm gives it."""
        stf = time_transform(self.grid, frames, self.tau_phase, self.dtau)
        if not self.cells:
            self.cells.extend(stf.cell_arrays(self.model)[:3])
        return zs_norm_cells(*self.cells, stf.coeffs.reshape(-1), stf.dtau, self.model, s,
                             weights=self.zs_weights).field(0)


def frame_grid(model: DispersionModel, grid: TorusGrid, times: np.ndarray) -> FrameGrid:
    """Check a frame grid (at least 4 frames, uniformly spaced, t = 0 among them)
    and build its time-only arrays."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 4:
        raise ValueError("need at least 4 frames for the cumulative quadrature")
    model.check_grid(grid)
    dt = uniform_step(times)
    anchor = int(np.argmin(np.abs(times)))
    if abs(times[anchor]) > 1e-12:
        raise ValueError("frame times must include t = 0")
    forward = phase_multiplier(model, grid.k_values, times[:, None])
    eta_t = np.asarray(smooth_bump_window()(times), dtype=np.float64)[:, None]
    # S(-t) is the conjugate of S(t), the bits of exp(-1j * t * p(k)) on every grid
    return FrameGrid(model, grid, times, dt, anchor, eta_t, forward, forward.conj(),
                     dealias_mask(grid), *time_transform_phase(times, dt))


def duhamel_map(
    model: DispersionModel,
    phi: SpectralField,
    u_frames: np.ndarray,
    times: np.ndarray,
    *,
    held: FrameGrid | None = None,
) -> np.ndarray:
    """Apply the cutoff Duhamel map to an (n_frames, M) frame series:

        Phi(u)(t) = eta(t) S(t) phi - (1/2) eta(t) int_0^t S(t-s) eta(s) d_x(u(s)^2) ds.

    The integral is factored through S(t) S(-s) so the cumulative quadrature
    (fourth-order, uniform grid anchored at t = 0) runs once over the frames.
    eta is `smooth_bump_window()`; a fixed point of this map solves the
    equation on its flat core [-1, 1].  held, if given, is frame_grid(model,
    phi.grid, times), built once for maps over the same frame grid.
    """
    if held is None:
        held = frame_grid(model, phi.grid, times)
    elif held.model != model or held.grid != phi.grid or not np.array_equal(held.times, times):
        raise ValueError("held frame grid was built for another model, torus or times")
    grid = phi.grid
    u_frames = np.asarray(u_frames)
    if u_frames.shape != (len(held.times), grid.modes):
        raise ValueError(
            f"frames have shape {u_frames.shape}, expected ({len(held.times)}, {grid.modes})"
        )
    # d_x(u^2) = -2 * (-(i k / 2) (u (*) u))
    q = -0.5j * grid.k_values * lattice_product(u_frames, grid, held.mask) * (-2.0)
    integrand = held.backward * (held.eta_t * q)
    cumulative = _cumulative_integral(integrand, held.dt, held.anchor)
    out = held.eta_t * (held.forward * (phi.coeffs - 0.5 * cumulative))
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
    *,
    max_iter: int,
    n_frames: int,
) -> ContractionTrace:
    """Iterate the cutoff Duhamel map and measure successive differences.

    Differences are taken in the discrete Z^s norm of the windowed frame
    series (the contraction norm) with the H^s sup-in-time proxy alongside;
    each iteration forms one Z^s, of the difference.  The first iterate's Z^s
    sets the convergence floor (1e-13 of it) and the divergence test.  The
    reported factor is the largest ratio of successive differences over every
    ratio formed, the last included, even when that ratio's later difference
    sits at or below the floor.  The Z^s of nonzero frames and its square must
    be normal doubles (else DoubleRangeError names the Z^s mass): a difference
    that underflowed to 0 would read as converged, and a subnormal square has
    lost bits (at amplitude 1e-78 diff_zs moved by 5e-11 relative).
    """
    if n_frames % 2 == 0:
        n_frames += 1  # keep t = 0 on the grid
    half = n_frames // 2
    dt = 2.2 / half  # frames span [-2.2, 2.2], past the window's support [-2, 2]
    times = dt * np.arange(-half, half + 1)
    grid = phi.grid
    held = frame_grid(model, grid, times)

    def z_of(frames: np.ndarray) -> float:
        z = held.zs_norm(frames, s).total
        if frames.any():  # zero frames have an exact zero Z^s
            check_range("the Z^s mass", z, tiny=TINY**0.5)
        return z

    def hs_sup(frames: np.ndarray) -> float:
        return float(np.max(sobolev_norm(frames, NormSpec(s), grid)))

    current = held.free_flow(phi)
    trace = ContractionTrace()
    scale = max(z_of(current), 1e-300)
    floor = 1e-13 * scale
    for _ in range(max_iter):
        nxt = duhamel_map(model, phi, current, times, held=held)
        diffs = nxt - current
        d = z_of(diffs)
        trace.diff_norms.append(d)
        trace.hs_sup_diffs.append(hs_sup(diffs))
        current = nxt
        if d <= floor:
            trace.converged = True
            break
        if d > 1e8 * scale:
            trace.diverged = True
            break
    # every difference but the last exceeds the floor, or the loop would have stopped there
    ratios = [b / a for a, b in zip(trace.diff_norms, trace.diff_norms[1:])]
    trace.factor = max(ratios) if ratios else float("nan")
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
