"""Fourier analysis on the 2*pi*lambda periodic torus.

Coefficients are stored in the unnormalized-integral convention

    coeff(k) = integral_0^{2 pi lam} exp(-i k x) f(x) dx,

on the symmetric frequency lattice k = m/lam with integer |m| <= M/2.
Sums over the lattice carry the normalized counting measure, i.e. a
single 1/lam factor; with that convention the discrete L2 pairing
(1/lam) sum_k f(k) conj(g(k)) equals 2*pi times the physical-space
integral of f conj(g).  The 2*pi sits in the transform pair, not in
the lattice measure, so inverse_transform divides by 2*pi*lam.

The Nyquist mode m = -M/2 is forced to zero so the retained lattice is
exactly symmetric and conjugate symmetry survives every operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class GridMismatchError(ValueError):
    """Raised when two fields do not live on the same grid."""


@dataclass(frozen=True)
class TorusGrid:
    """Sampling grid and frequency lattice for the circle of circumference 2*pi*lam.

    lam   -- period / (2*pi); must be >= 1
    modes -- number M of sample points == number of retained lattice slots (even)
    """

    lam: float
    modes: int
    m_ints: np.ndarray = field(init=False, repr=False, compare=False)
    k_values: np.ndarray = field(init=False, repr=False, compare=False)
    x_points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if self.modes < 2 or self.modes % 2 != 0:
            raise ValueError(f"modes must be a positive even integer, got {self.modes}")
        m = (np.fft.fftfreq(self.modes) * self.modes).astype(np.int64)
        x = TWO_PI * self.lam * np.arange(self.modes) / self.modes
        k = m / self.lam
        for arr in (m, k, x):
            arr.setflags(write=False)
        object.__setattr__(self, "m_ints", m)
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "x_points", x)

    @property
    def period(self) -> float:
        return TWO_PI * self.lam

    @property
    def nyquist_index(self) -> int:
        """Array index of the unpaired mode m = -M/2 (always held at zero)."""
        return self.modes // 2

    def index_of(self, m: int) -> int:
        """Array index of integer lattice mode m (k = m/lam)."""
        if not -self.modes // 2 < m < self.modes // 2:
            raise ValueError(f"mode {m} outside lattice |m| < {self.modes // 2}")
        return m % self.modes

    def same_as(self, other: "TorusGrid") -> bool:
        return self.lam == other.lam and self.modes == other.modes


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a spatial function on a TorusGrid.

    Immutable after construction; arithmetic returns new fields.
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.shape != (self.grid.modes,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({self.grid.modes},)"
            )
        c[self.grid.nyquist_index] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.modes, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: TorusGrid, amplitudes: dict[int, complex]) -> "SpectralField":
        """Field with prescribed coefficients at integer lattice modes."""
        c = np.zeros(grid.modes, dtype=np.complex128)
        for m, a in amplitudes.items():
            c[grid.index_of(m)] = a
        return cls(grid, c)

    def coeff_at(self, m: int) -> complex:
        return complex(self.coeffs[self.grid.index_of(m)])

    def mean_value(self) -> complex:
        """Spatial mean, coeff(0) / (2 pi lam)."""
        return complex(self.coeffs[0]) / self.grid.period

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        c = self.coeffs
        mirrored = np.conj(c[(-self.grid.m_ints) % self.grid.modes])
        return bool(np.max(np.abs(c - mirrored)) <= tol * max(1.0, np.max(np.abs(c))))

    def support_modes(self, tol: float = 0.0) -> np.ndarray:
        """Integer modes carrying coefficients larger than tol."""
        mask = np.abs(self.coeffs) > tol
        return np.sort(self.grid.m_ints[mask])

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _require_same_grid(f: SpectralField, g: SpectralField) -> None:
    if not f.grid.same_as(g.grid):
        raise GridMismatchError(
            f"grids differ: (lam={f.grid.lam}, M={f.grid.modes}) vs "
            f"(lam={g.grid.lam}, M={g.grid.modes})"
        )


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


def convolve(f: SpectralField, g: SpectralField) -> SpectralField:
    """Direct lattice convolution with normalized counting measure.

    out(k) = (1/lam) sum_{k1} f(k - k1) g(k1), truncated back to the lattice.
    Under the integral-coefficient convention this equals 2*pi times the
    transform of the pointwise product whenever supports are small enough
    that no wrapped mode survives truncation.  The O(M^2) reference for
    `lattice_product`.
    """
    _require_same_grid(f, g)
    grid = f.grid
    half = grid.modes // 2
    # ascending mode order -M/2 .. M/2-1; full[i] holds mode m = i - 2*half
    full = np.convolve(np.roll(f.coeffs, half), np.roll(g.coeffs, half))
    m = np.arange(-half + 1, half)
    out = np.zeros(grid.modes, dtype=np.complex128)
    out[m % grid.modes] = full[m + 2 * half]
    return SpectralField(grid, out / grid.lam)


def lattice_product(coeffs: np.ndarray, grid: TorusGrid,
                    mask: np.ndarray | None = None) -> np.ndarray:
    """u (*) u, the normalized lattice convolution of coeffs with itself,
    along the last axis (leading axes are batched).

    Computed in physical space; the 2*pi factor converts the pointwise
    product transform to the (dk)_lam convolution convention.  With a mask
    (`dealias_mask`), input and output are restricted to it.  Without one
    the result equals `convolve` on the kept modes while every populated
    pair has |m1 + m2| <= M/2 (the sum M/2 wraps only into the Nyquist slot).
    """
    c = coeffs if mask is None else coeffs * mask
    w = np.fft.ifft(c) * (grid.modes / grid.period)
    prod = np.fft.fft(w * w) * (grid.period / grid.modes) * TWO_PI
    return prod if mask is None else prod * mask


def inner_product(f: SpectralField, g: SpectralField) -> complex:
    """(1/lam) sum_k f(k) conj(g(k)); equals 2*pi * integral f conj(g) dx."""
    _require_same_grid(f, g)
    return complex(np.sum(f.coeffs * np.conj(g.coeffs)) / f.grid.lam)


def l2_norm(f: SpectralField) -> float:
    """Lattice L2 norm sqrt((1/lam) sum |coeff|^2) (== sqrt(2 pi) * physical L2)."""
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2) / f.grid.lam))


def physical_l2_norm(f: SpectralField) -> float:
    """Physical-space L2 norm sqrt(integral |f|^2 dx)."""
    return l2_norm(f) / np.sqrt(TWO_PI)


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """2/3-rule mask: True on modes kept for quadratic products.

    Orszag's cutoff |m| <= (M - 1)//3: a product of two kept modes that
    wraps around the M-point lattice lands on |m| >= M - 2*cutoff > cutoff,
    outside the mask.
    """
    cutoff = (grid.modes - 1) // 3
    return np.abs(grid.m_ints) <= cutoff
