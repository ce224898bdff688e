"""Space-time fields and the norm family used throughout: H^s, X_{s,b},
Y^s, the region-decomposed Z^s, and dyadic modulation shells.

A SpaceTimeField holds coefficients on the product of a spatial frequency
lattice and a uniform tau lattice dual to a finite time window.  All
tau integrals are cell-measure weighted sums (measure dtau), and the k
sums carry the 1/lam counting normalization, so every norm here is the
literal lattice transcription of its continuum definition.

The frequency lattice is zero-free: the k = 0 column is held at zero
(fields entering this machinery are mean-zero), mirroring the punctured
lattice on which the modulation regions partition.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dispersion import DispersionModel, Region, region_masks
from .reporting import atomic_write_bytes
from .torus import TorusGrid, SpectralField


class NormRangeWarning(UserWarning):
    """Regularity index outside the window the region decomposition assumes."""


class MeanModeDroppedWarning(UserWarning):
    """Homogeneous weight requested on a field with nonzero mean mode."""


@dataclass(frozen=True)
class NormSpec:
    """Parameters (s, b, homogeneous) selecting a Sobolev / modulation norm."""

    s: float
    b: float = 0.0
    homogeneous: bool = False


@dataclass(frozen=True)
class DyadicShell:
    """Modulation band <sigma> in [2^l, 2^{l+1}); the shells partition the axis."""

    l: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("shell index must be nonnegative")

    def mask(self, sigma: np.ndarray) -> np.ndarray:
        bracket = np.hypot(1.0, np.asarray(sigma, dtype=np.float64))
        return (bracket >= 2.0**self.l) & (bracket < 2.0 ** (self.l + 1))


def angle_bracket(x) -> np.ndarray:
    """<x> = sqrt(1 + x^2)."""
    return np.hypot(1.0, np.asarray(x, dtype=np.float64))


def sobolev_norm(
    u: SpectralField | np.ndarray, spec: NormSpec, grid: TorusGrid | None = None
) -> float | np.ndarray:
    """H^s (or homogeneous H-dot^s) norm, ((1/lam) sum w(k)^{2s} |coeff|^2)^{1/2}.

    u is a SpectralField, or with `grid` given a coefficient array whose last
    axis is the lattice: an (n_frames, M) series gives one norm per frame.
    The homogeneous weight |k|^s excludes the k = 0 mode; if that mode is
    populated it is dropped and a MeanModeDroppedWarning is issued.
    """
    if grid is None:
        grid, coeffs = u.grid, u.coeffs
    else:
        coeffs = np.asarray(u)
    if spec.homogeneous:
        if np.any(coeffs[..., 0] != 0.0):
            warnings.warn(
                "homogeneous norm drops the populated mean mode",
                MeanModeDroppedWarning,
                stacklevel=2,
            )
        nz = grid.m_ints != 0
        w = np.abs(grid.k_values[nz]) ** spec.s
        mass = np.sum((w * np.abs(coeffs[..., nz])) ** 2, axis=-1)
    else:
        w = angle_bracket(grid.k_values) ** spec.s
        mass = np.sum((w * np.abs(coeffs)) ** 2, axis=-1)
    norm = np.sqrt(mass / grid.lam)
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True)
class SpaceTimeField:
    """Coefficients on the (k, tau) lattice: rows spatial modes (fft order),
    columns the tau lattice in ascending order with spacing dtau.

    The tau lattice is dtau * (-T/2 .. T/2 - 1); the unpaired extreme slot
    and the k = 0 row are held at zero (symmetric lattice, mean-zero field).
    """

    grid: TorusGrid
    dtau: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.ndim != 2 or c.shape[0] != self.grid.modes:
            raise ValueError(
                f"coefficients must be (modes, T_modes), got {c.shape}"
            )
        if c.shape[1] < 2:
            raise ValueError("tau lattice needs at least two slots")
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        c[self.grid.nyquist_index, :] = 0.0
        c[0, :] = 0.0  # zero-free spatial lattice: mean-zero fields only
        if c.shape[1] % 2 == 0:
            c[:, 0] = 0.0  # unpaired extreme tau slot, mirrors the Nyquist rule
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def t_modes(self) -> int:
        return self.coeffs.shape[1]

    @property
    def tau_values(self) -> np.ndarray:
        n = self.t_modes
        if n % 2 == 0:
            return self.dtau * np.arange(-n // 2, n // 2)
        return self.dtau * np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)

    def cell_arrays(self, model: DispersionModel):
        """Flattened (m, k, sigma, coeff) arrays over all lattice cells."""
        m = np.repeat(self.grid.m_ints, self.t_modes)
        k = np.repeat(self.grid.k_values, self.t_modes)
        tau = np.tile(self.tau_values, self.grid.modes)
        sigma = tau - model.phase(k)
        return m, k, sigma, self.coeffs.reshape(-1)

    def total_mass_squared(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2) * self.dtau / self.grid.lam)

    def masked(self, mask_cells: np.ndarray) -> "SpaceTimeField":
        """Field with cells outside the flat boolean mask zeroed."""
        kept = np.where(mask_cells.reshape(self.coeffs.shape), self.coeffs, 0.0)
        return SpaceTimeField(self.grid, self.dtau, kept)


# ---------------------------------------------------------------------------
# norm cores over flat cell arrays (shared by dense fields and the sparse
# modulation-lattice fields of the estimate verifier)
# ---------------------------------------------------------------------------


def xsb_mass(
    k: np.ndarray,
    sigma: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    lam: float,
    s: float,
    b: float,
    homogeneous: bool = False,
    where: np.ndarray | None = None,
) -> float:
    """Squared X_{s,b} mass of the listed cells (k = 0 cells excluded)."""
    sel = k != 0
    if where is not None:
        sel = sel & where
    if not np.any(sel):
        return 0.0
    kw = np.abs(k[sel]) if homogeneous else angle_bracket(k[sel])
    weight = kw ** (2.0 * s) * angle_bracket(sigma[sel]) ** (2.0 * b)
    return float(np.sum(weight * np.abs(coeffs[sel]) ** 2) * cell_measure / lam)


def ys_mass(
    m: np.ndarray,
    k: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    lam: float,
    s: float,
) -> float:
    """Squared Y^s mass: l2 in k of <k>^s times the L1-in-tau column integral."""
    sel = k != 0
    if not np.any(sel):
        return 0.0
    m_sel, k_sel, amps = m[sel], k[sel], np.abs(coeffs[sel]) * cell_measure
    if (m_sel[1:] < m_sel[:-1]).any():  # sparse fields come sorted by m
        order = np.argsort(m_sel, kind="stable")
        m_sel, k_sel, amps = m_sel[order], k_sel[order], amps[order]
    starts = np.flatnonzero(np.concatenate(([True], m_sel[1:] != m_sel[:-1])))
    col_l1 = np.add.reduceat(amps, starts)
    col_k = k_sel[starts]
    return float(np.sum(angle_bracket(col_k) ** (2.0 * s) * col_l1**2) / lam)


@dataclass(frozen=True)
class ZsNorm:
    """The Z^s value together with its four constituents."""

    x_d1d5: float
    x_d2: float
    x_d3d4: float
    ys: float

    @property
    def total(self) -> float:
        return self.x_d1d5 + self.x_d2 + self.x_d3d4 + self.ys


def zs_region_exponents(model: DispersionModel, s: float) -> dict[str, tuple[float, float]]:
    """(s, b) pair used on each region block of the Z^s norm."""
    j = model.j
    return {
        "d1d5": (s, (2.0 * j - 1.0) / (2.0 * j)),
        "d2": ((1.0 - 2.0 * j) * s - 1.0, s + 1.0),
        "d3d4": (-s / j - 1.0, s / j + 1.0),
    }


def zs_norm_cells(
    m: np.ndarray,
    k: np.ndarray,
    sigma: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    model: DispersionModel,
    s: float,
    warn_range: bool = True,
) -> ZsNorm:
    if warn_range and not (-model.j + 0.5 <= s <= -model.j / 2.0):
        warnings.warn(
            f"s = {s} outside the window [{-model.j + 0.5}, {-model.j / 2.0}] the "
            "region decomposition is designed for",
            NormRangeWarning,
            stacklevel=2,
        )
    masks = region_masks(model, k, sigma)
    exps = zs_region_exponents(model, s)
    lam = model.lam

    def block(mask: np.ndarray, se: float, be: float) -> float:
        return np.sqrt(xsb_mass(k, sigma, coeffs, cell_measure, lam, se, be, where=mask))

    x_d1d5 = block(masks[Region.D1] | masks[Region.D5], *exps["d1d5"])
    x_d2 = block(masks[Region.D2], *exps["d2"])
    x_d3d4 = block(masks[Region.D3] | masks[Region.D4], *exps["d3d4"])
    ys = np.sqrt(ys_mass(m, k, coeffs, cell_measure, lam, s))
    return ZsNorm(float(x_d1d5), float(x_d2), float(x_d3d4), float(ys))


# ---------------------------------------------------------------------------
# dense-field front ends
# ---------------------------------------------------------------------------


def xsb_norm(u: SpaceTimeField, spec: NormSpec, model: DispersionModel) -> float:
    """X_{s,b} norm with weights <k>^s <tau - p(k)>^b over the cell lattice."""
    if u.grid.lam != model.lam:
        raise ValueError("field and model lam differ")
    _, k, sigma, vals = u.cell_arrays(model)
    return float(
        np.sqrt(
            xsb_mass(k, sigma, vals, u.dtau, u.grid.lam, spec.s, spec.b, spec.homogeneous)
        )
    )


def ys_norm(u: SpaceTimeField, s: float) -> float:
    """Y^s norm, l2 in k of the tau L1 integral; needs no dispersion model."""
    m = np.repeat(u.grid.m_ints, u.t_modes)
    k = np.repeat(u.grid.k_values, u.t_modes)
    return float(np.sqrt(ys_mass(m, k, u.coeffs.reshape(-1), u.dtau, u.grid.lam, s)))


def zs_norm(u: SpaceTimeField, s: float, model: DispersionModel) -> ZsNorm:
    """Region-decomposed Z^s norm; returns the four components and their sum."""
    if u.grid.lam != model.lam:
        raise ValueError("field and model lam differ")
    m, k, sigma, vals = u.cell_arrays(model)
    return zs_norm_cells(m, k, sigma, vals, u.dtau, model, s)


def dyadic_localize(
    u: SpaceTimeField, shell: DyadicShell, model: DispersionModel
) -> SpaceTimeField:
    """Zero every cell whose modulation lies outside the shell's dyadic band."""
    _, _, sigma, _ = u.cell_arrays(model)
    return u.masked(shell.mask(sigma))


def shell_masses(
    u: SpaceTimeField, model: DispersionModel, max_shell: int = 48
) -> np.ndarray:
    """Squared L2 mass per dyadic shell, l = 0 .. max_shell."""
    _, _, sigma, vals = u.cell_arrays(model)
    bracket = angle_bracket(sigma)
    levels = np.floor(np.log2(bracket)).astype(int)
    masses = np.zeros(max_shell + 1)
    weights = np.abs(vals) ** 2 * u.dtau / u.grid.lam
    np.add.at(masses, np.clip(levels, 0, max_shell), weights)
    return masses


def smooth_bump_window() -> Callable:
    """C-infinity cutoff equal to 1 on [-1, 1], supported in [-2, 2].

    Built from the classical exp(-1/x) mollifier step.
    """

    def psi(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    def eta(t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=np.float64))
        y = t - 1.0
        num = psi(1.0 - y)
        den = num + psi(y)
        with np.errstate(invalid="ignore"):
            val = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        val = np.where(t <= 1.0, 1.0, val)
        val = np.where(t >= 2.0, 0.0, val)
        return val

    return eta


def spacetime_from_timeseries(
    grid: TorusGrid,
    frames: np.ndarray,
    times: np.ndarray,
    window: Callable | None = None,
) -> SpaceTimeField:
    """Window a uniform (n_frames, M) time series of spatial coefficients and
    transform in time.

    Produces coefficients F(k, tau_n) = dt * sum_i eta(t_i) u_i(k) e^{-i tau_n t_i}
    on the tau lattice with spacing 2*pi / (n_frames * dt).
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != grid.modes:
        raise ValueError(f"frames must be (n_frames, {grid.modes}), got {frames.shape}")
    n = len(frames)
    if n < 8:
        raise ValueError(f"need at least 8 frames, got {n}")
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (n,):
        raise ValueError("times must match frames")
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("frames must be uniformly spaced in time")
    eta = window if window is not None else smooth_bump_window()
    weights = np.asarray(eta(times), dtype=np.float64)
    stack = frames.T * weights[None, :]
    spectrum = np.fft.fft(stack, axis=1)  # sum_i g_i exp(-2 pi i n i / N)
    tau_fft = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    spectrum *= np.exp(-1j * tau_fft[None, :] * times[0]) * dt
    # reorder columns to ascending tau
    coeffs = np.fft.fftshift(spectrum, axes=1)
    dtau = 2.0 * np.pi / (n * dt)
    return SpaceTimeField(grid, dtau, coeffs)


# ---------------------------------------------------------------------------
# binary frame container (documented layout)
#
#   header, little-endian, 40 bytes:
#       lam      float64
#       j        int64
#       modes    int64      (spatial lattice size M)
#       n_frames int64
#       dt       float64    (frame time step)
#   payload: modes * n_frames complex128 values, row-major, rows in fft
#   mode order, columns in ascending time order.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<dqqqd")


def write_frames(
    path: Path,
    frames: np.ndarray,
    model: DispersionModel,
    dt: float,
) -> None:
    """Serialize an (n_frames, M) frame series: rows of the payload are
    modes, columns are frames."""
    n_frames, modes = frames.shape
    header = _HEADER.pack(model.lam, model.j, modes, n_frames, dt)
    atomic_write_bytes(Path(path), header + np.ascontiguousarray(frames.T, dtype="<c16").tobytes())


def read_frames(path: Path) -> tuple[np.ndarray, DispersionModel, float]:
    """Inverse of write_frames: the (n_frames, M) series, its model and dt."""
    blob = Path(path).read_bytes()
    lam, j, modes, n_frames, dt = _HEADER.unpack_from(blob, 0)
    data = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size).reshape(modes, n_frames)
    return np.array(data.T, dtype=np.complex128, order="C"), DispersionModel(j, lam), dt
