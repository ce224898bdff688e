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

The Z^s and X_{s,b} passes refuse a number that leaves the doubles where it
is formed, with torus.DoubleRangeError: `zs_weights` and `xsb_mass` a weight
outside [2^-1022, 2^1022] or a bracket power that under- or overflows, and
`ZsWeights.norm` and `xsb_mass` a mass that overflows.  A mass that
underflows is left to the field's total, which its caller may check.
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
from .torus import TorusGrid, SpectralField, check_range, doubles


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
        return self.index(sigma) == self.l

    @staticmethod
    def index(sigma) -> np.ndarray:
        """The l of each <sigma>, read exactly from its binary exponent (not log2)."""
        return np.frexp(angle_bracket(sigma))[1] - 1


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
        sigma = tau - np.repeat(model.phase(self.grid.k_values), self.t_modes)
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


def segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of values over each segment bounds[i]:bounds[i + 1], each taken by
    np.sum over its own slice: the bits the segment gives summed alone.
    (np.add.reduceat associates a segment's terms in another order.)"""
    edges = bounds.tolist()
    return np.array([values[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])


def kept_bounds(keep: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Segment offsets bounds after dropping the cells where keep is False."""
    return np.concatenate(([0], np.cumsum(keep)))[bounds]


def kept_indices(keep: np.ndarray) -> np.ndarray:
    """The indices of keep's True cells, in the narrowest unsigned type: a.take()
    on them gives a[keep] several times faster, from less memory than keep."""
    return np.flatnonzero(keep).astype(np.min_scalar_type(len(keep)))


def _lone(n: int) -> np.ndarray:
    """The offsets of n cells that form one field."""
    return np.array([0, n])


def xsb_mass(
    k: np.ndarray,
    sigma: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    lam: float,
    s: float,
    b: float,
    homogeneous: bool = False,
    bounds: np.ndarray | None = None,
    what: str = "the X_{s,b} weights",
) -> np.ndarray:
    """Squared X_{s,b} mass of the listed cells (k = 0 cells excluded), fields at
    offsets bounds (None: one field): one entry per field.  DoubleRangeError names
    `what` if a bracket power under- or overflows, a weight leaves
    [2^-1022, 2^1022], or a mass overflows."""
    bounds = _lone(len(k)) if bounds is None else bounds
    sel = k != 0
    kw = np.abs(k[sel]) if homogeneous else angle_bracket(k[sel])
    with doubles(what, under="raise"):
        weight = kw ** (2.0 * s) * angle_bracket(sigma[sel]) ** (2.0 * b)
    check_range(what, weight)
    with doubles(what):
        terms = weight * np.abs(coeffs[sel]) ** 2
        return segment_sums(terms, kept_bounds(sel, bounds)) * cell_measure / lam


def _ys_columns(m: np.ndarray, k: np.ndarray, s: float, bounds: np.ndarray) -> tuple:
    """The cells-only half of the Y^s mass of the fields at offsets bounds:
    (sel, order, starts, weights, columns) such that the k != 0 cells, gathered
    by sel and then order (None: all cells, as they are), form columns of equal
    m within a field at starts with <k>^{2s} weights; field i owns columns
    columns[i]:columns[i + 1]."""
    ids = np.arange(len(bounds) - 1, dtype=np.min_scalar_type(len(bounds)))
    field = np.repeat(ids, np.diff(bounds))
    sel = k != 0
    if sel.all():
        sel = None
    else:
        m, k, field = m[sel], k[sel], field[sel]
    same_field = field[1:] == field[:-1]
    order = None
    if ((m[1:] < m[:-1]) & same_field).any():  # sparse fields come sorted by m
        order = np.lexsort((m, field))
        m, k, field = m[order], k[order], field[order]
        same_field = field[1:] == field[:-1]
    opens = np.ones(len(m), dtype=bool)
    opens[1:] = (m[1:] != m[:-1]) | ~same_field
    starts = np.flatnonzero(opens)
    columns = np.searchsorted(field[starts], np.arange(len(bounds)))
    return sel, order, starts, angle_bracket(k[starts]) ** (2.0 * s), columns


def _ys_mass(columns: tuple, amps: np.ndarray, cell_measure: float, lam: float) -> np.ndarray:
    """The coefficient half of the Y^s mass over _ys_columns' layout, one per
    field, from the coefficients' moduli amps."""
    sel, order, starts, weights, field_columns = columns
    amps = (amps if sel is None else amps[sel]) * cell_measure
    if order is not None:
        amps = amps[order]
    col_l1 = np.add.reduceat(amps, starts)
    return segment_sums(weights * col_l1**2, field_columns) / lam


def ys_mass(
    m: np.ndarray,
    k: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    lam: float,
    s: float,
) -> np.ndarray:
    """Squared Y^s mass of the cells as one field, l2 in k of <k>^s times the
    L1-in-tau column integral: one entry per field, an array of length 1."""
    return _ys_mass(_ys_columns(m, k, s, _lone(len(m))), np.abs(coeffs), cell_measure, lam)


@dataclass(frozen=True)
class ZsNorm:
    """The Z^s value together with its four constituents, one array entry per
    field of a stack.  field(i) takes out field i's values as Python floats."""

    x_d1d5: float | np.ndarray
    x_d2: float | np.ndarray
    x_d3d4: float | np.ndarray
    ys: float | np.ndarray

    @property
    def total(self) -> float | np.ndarray:
        return self.x_d1d5 + self.x_d2 + self.x_d3d4 + self.ys

    def field(self, i: int) -> "ZsNorm":
        """Field i's norm, as floats, out of per-field arrays."""
        return ZsNorm(*(float(v[i]) for v in (self.x_d1d5, self.x_d2, self.x_d3d4, self.ys)))


def zs_region_exponents(model: DispersionModel, s: float) -> dict[str, tuple[float, float]]:
    """(s, b) pair used on each region block of the Z^s norm."""
    j = model.j
    return {
        "d1d5": (s, (2.0 * j - 1.0) / (2.0 * j)),
        "d2": ((1.0 - 2.0 * j) * s - 1.0, s + 1.0),
        "d3d4": (-s / j - 1.0, s / j + 1.0),
    }


@dataclass(frozen=True)
class ZsWeights:
    """The cells-only half of the Z^s norm of one cell set at one s.

    blocks holds, for the D1 u D5, D2 and D3 u D4 blocks, (cells, weights,
    bounds): the block's cell indices (kept_indices), its cells' <k>^{2s_r}
    <sigma>^{2b_r} weights, and the fields' offsets among them.  ys is the Y^s
    column layout of _ys_columns.
    """

    blocks: tuple
    ys: tuple
    lam: float

    def norm(self, coeffs: np.ndarray, cell_measure: float) -> ZsNorm:
        """The coefficient half: Z^s of coeffs on these cells, one array entry
        per field, each block summed over the field's cells in their order.
        A mass that overflows raises DoubleRangeError naming the Z^s mass; one
        that underflows is left to the field's total."""
        amps, lam = np.abs(coeffs), self.lam
        with doubles("the Z^s mass"):
            mass = amps**2
            x = [
                np.sqrt(segment_sums(weights * mass.take(cells), bounds) * cell_measure / lam)
                for cells, weights, bounds in self.blocks
            ]
            ys = np.sqrt(_ys_mass(self.ys, amps, cell_measure, lam))
        return ZsNorm(*x, ys)


def zs_weights(
    m: np.ndarray,
    k: np.ndarray,
    sigma: np.ndarray,
    model: DispersionModel,
    s: float,
    bounds: np.ndarray | None = None,
) -> ZsWeights:
    """The Z^s weights of the cells (m, k, sigma), fields at offsets bounds (None:
    one field): region masks, bracket powers and Y^s columns, everything of the
    norm that does not read a coefficient, laid out for one entry per field.
    DoubleRangeError names the Z^s weights if a bracket power under- or
    overflows, or a weight leaves [2^-1022, 2^1022]."""
    bounds = _lone(len(m)) if bounds is None else bounds
    masks = region_masks(model, k, sigma)
    exps = zs_region_exponents(model, s)
    # brackets formed once for the three blocks; the region masks exclude k = 0
    k_bracket, sigma_bracket = angle_bracket(k), angle_bracket(sigma)

    def block(mask: np.ndarray, se: float, be: float):
        cells = kept_indices(mask)
        weights = k_bracket.take(cells) ** (2.0 * se) * sigma_bracket.take(cells) ** (2.0 * be)
        return cells, weights, np.searchsorted(cells, bounds)

    with doubles("the Z^s weights", under="raise"):
        blocks = (
            block(masks[Region.D1] | masks[Region.D5], *exps["d1d5"]),
            block(masks[Region.D2], *exps["d2"]),
            block(masks[Region.D3] | masks[Region.D4], *exps["d3d4"]),
        )
        ys = _ys_columns(m, k, s, bounds)
    check_range("the Z^s weights", np.concatenate([weights for _, weights, _ in blocks] + [ys[3]]))
    return ZsWeights(blocks, ys, model.lam)


def zs_norm_cells(
    m: np.ndarray,
    k: np.ndarray,
    sigma: np.ndarray,
    coeffs: np.ndarray,
    cell_measure: float,
    model: DispersionModel,
    s: float,
    warn_range: bool = True,
    weights: dict | None = None,
    bounds: np.ndarray | None = None,
) -> ZsNorm:
    """Z^s of the listed cells: the weight pass zs_weights, then its coefficient
    pass.  weights, if given, is a cache of weight passes by s for these very
    cells: one found there is used, one formed here is stored there.  The cells
    are fields at offsets bounds (None: one field), and the norm holds one array
    entry per field."""
    if warn_range and not (-model.j + 0.5 <= s <= -model.j / 2.0):
        warnings.warn(
            f"s = {s} outside the window [{-model.j + 0.5}, {-model.j / 2.0}] the "
            "region decomposition is designed for",
            NormRangeWarning,
            stacklevel=2,
        )
    zw = None if weights is None else weights.get(s)
    if zw is None:
        zw = zs_weights(m, k, sigma, model, s, bounds)
        if weights is not None:
            weights[s] = zw
    return zw.norm(coeffs, cell_measure)


# ---------------------------------------------------------------------------
# dense-field front ends
# ---------------------------------------------------------------------------


def xsb_norm(u: SpaceTimeField, spec: NormSpec, model: DispersionModel) -> float:
    """X_{s,b} norm with weights <k>^s <tau - p(k)>^b over the cell lattice."""
    model.check_grid(u.grid)
    _, k, sigma, vals = u.cell_arrays(model)
    mass = xsb_mass(k, sigma, vals, u.dtau, u.grid.lam, spec.s, spec.b, spec.homogeneous)
    return float(np.sqrt(mass)[0])


def ys_norm(u: SpaceTimeField, s: float) -> float:
    """Y^s norm, l2 in k of the tau L1 integral; needs no dispersion model."""
    m = np.repeat(u.grid.m_ints, u.t_modes)
    k = np.repeat(u.grid.k_values, u.t_modes)
    return float(np.sqrt(ys_mass(m, k, u.coeffs.reshape(-1), u.dtau, u.grid.lam, s))[0])


def zs_norm(u: SpaceTimeField, s: float, model: DispersionModel) -> ZsNorm:
    """Region-decomposed Z^s norm; returns the four components and their sum."""
    model.check_grid(u.grid)
    m, k, sigma, vals = u.cell_arrays(model)
    return zs_norm_cells(m, k, sigma, vals, u.dtau, model, s).field(0)


def dyadic_localize(
    u: SpaceTimeField, shell: DyadicShell, model: DispersionModel
) -> SpaceTimeField:
    """Zero every cell whose modulation lies outside the shell's dyadic band."""
    _, _, sigma, _ = u.cell_arrays(model)
    return u.masked(shell.mask(sigma))


def shell_masses(
    u: SpaceTimeField, model: DispersionModel, max_shell: int = 48
) -> np.ndarray:
    """Squared L2 mass per DyadicShell l = 0 .. max_shell, the last holding every higher one."""
    _, _, sigma, vals = u.cell_arrays(model)
    levels = np.minimum(DyadicShell.index(sigma), max_shell)
    return np.bincount(levels, np.abs(vals) ** 2 * u.dtau / u.grid.lam, minlength=max_shell + 1)


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


def uniform_step(times: np.ndarray) -> float:
    """The step of a uniformly spaced time grid: at least two times, every step
    equal to the first within rtol 1e-9, atol 1e-12, or ValueError."""
    steps = np.diff(times)
    if not (steps.size and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
        raise ValueError("frames must be uniformly spaced in time, at least two of them")
    return steps[0]


def spacetime_from_timeseries(
    grid: TorusGrid, frames: np.ndarray, times: np.ndarray
) -> SpaceTimeField:
    """Transform a uniform (n_frames, M) time series of spatial coefficients in
    time; the caller windows the frames (e.g. by smooth_bump_window) first.

    Produces coefficients F(k, tau_n) = dt * sum_i u_i(k) e^{-i tau_n t_i}
    on the tau lattice with spacing 2*pi / (n_frames * dt).
    """
    times = np.asarray(times, dtype=np.float64)
    return time_transform(grid, frames, *time_transform_phase(times, uniform_step(times)))


def time_transform_phase(times: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
    """time_transform's (phase, dtau) on times of uniform step dt: e^{-i tau t_0} dt
    in fft order of tau, and the tau spacing 2*pi / (n_frames * dt)."""
    tau_fft = 2.0 * np.pi * np.fft.fftfreq(len(times), d=dt)
    return np.exp(-1j * tau_fft * times[0]) * dt, 2.0 * np.pi / (len(times) * dt)


def time_transform(grid: TorusGrid, frames: np.ndarray, phase: np.ndarray, dtau: float):
    """The SpaceTimeField of (n_frames, M) frames, n_frames = len(phase) >= 8."""
    frames = np.asarray(frames)
    if frames.shape != (len(phase), grid.modes) or len(frames) < 8:
        raise ValueError(f"frames must be ({len(phase)}, {grid.modes}), at least 8 frames; "
                         f"got {frames.shape}")
    spectrum = np.fft.fft(frames.T, axis=1)  # sum_i u_i exp(-2 pi i n i / N)
    spectrum *= phase
    return SpaceTimeField(grid, dtau, np.fft.fftshift(spectrum, axes=1))  # tau ascending


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
