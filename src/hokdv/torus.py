"""Fourier analysis on the 2*pi*lambda periodic torus.

Coefficients are stored in the unnormalized-integral convention

    coeff(k) = integral_0^{2 pi lam} exp(-i k x) f(x) dx,

on the symmetric frequency lattice k = m/lam with integer |m| <= M/2.
Sums over the lattice carry the normalized counting measure, i.e. a
single 1/lam factor; with that convention the discrete L2 pairing
(1/lam) sum_k f(k) conj(g(k)) equals 2*pi times the physical-space
integral of f conj(g).  The 2*pi sits in the transform pair, not in
the lattice measure: samples are (1/(2 pi lam)) sum_k coeff(k) e^{ikx}.

The Nyquist mode m = -M/2 is forced to zero so the retained lattice is
exactly symmetric and conjugate symmetry survives every operation.
A real field is also held by its nonnegative modes 0 .. M/2 alone
(`half_spectrum`, `full_spectrum`), the form `lattice_square` squares.

A rule on an input raises `Refused`, a ValueError naming the input, in the
module that owns the rule; a number that leaves the doubles where it is formed
raises its subclass `DoubleRangeError`, naming the number.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
# the normal doubles, less a factor 2 at the top so that a sum of two cannot overflow
TINY, HUGE = 2.0**-1022, 2.0**1022


class GridMismatchError(ValueError):
    """Raised when two fields do not live on the same grid."""


class Refused(ValueError):
    """An input refused by the rule that owns it; `what` names the input (a parameter
    of the refusing call, or the number it formed), which the CLI maps to a config key."""

    def __init__(self, what: str, message: str):
        super().__init__(message)
        self.what = what


class DoubleRangeError(Refused, ArithmeticError):
    """A number left the doubles where it was formed; `what` names the number."""

    def __init__(self, what: str, detail: str):
        super().__init__(what, f"{what} left double precision ({detail})")


def check_range(what: str, sizes, tiny: float = TINY, huge: float = HUGE) -> None:
    """Raise DoubleRangeError naming `what` unless every size (a magnitude) lies in
    [tiny, huge]; a nan fails too.  An underflow is silent, so it is checked here."""
    if isinstance(sizes, float):  # np.float64 too: no array round trip for one number
        lo = hi = sizes
    else:
        sizes = np.asarray(sizes)
        if not sizes.size:
            return
        lo, hi = sizes.min(), sizes.max()
    if not (lo >= tiny and hi <= huge):
        raise DoubleRangeError(what, f"they reach {lo:.3g} .. {hi:.3g}")


@contextmanager
def doubles(what: str, under: str = "ignore"):
    """A block in which an overflow or a nan, and with under = "raise" an underflow,
    raises DoubleRangeError naming `what` instead of a RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise", under=under):
            yield
    except FloatingPointError as err:
        raise DoubleRangeError(what, str(err)) from None


def checked_power(what: str, base: float, exponent: float) -> float:
    """base^exponent as a float, checked by check_range under the name `what`."""
    try:
        value = float(base) ** exponent
    except OverflowError:
        value = np.inf
    check_range(what, value)
    return value


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

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if self.modes < 2 or self.modes % 2 != 0:
            raise ValueError(f"modes must be a positive even integer, got {self.modes}")
        m = (np.fft.fftfreq(self.modes) * self.modes).astype(np.int64)
        k = m / self.lam
        for arr in (m, k):
            arr.setflags(write=False)
        object.__setattr__(self, "m_ints", m)
        object.__setattr__(self, "k_values", k)

    @property
    def period(self) -> float:
        return TWO_PI * self.lam

    @property
    def nyquist_index(self) -> int:
        """Array index of the unpaired mode m = -M/2 (always held at zero)."""
        return self.modes // 2

    @property
    def half_k_values(self) -> np.ndarray:
        """k = m/lam on the nonnegative modes m = 0 .. M/2 that `half_spectrum` holds."""
        return np.arange(self.modes // 2 + 1) / self.lam

    def index_of(self, m: int) -> int:
        """Array index of integer lattice mode m (k = m/lam)."""
        if not -self.modes // 2 < m < self.modes // 2:
            raise Refused("m", f"mode {m} outside lattice |m| < {self.modes // 2}")
        return m % self.modes


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a spatial function on a TorusGrid.

    Immutable after construction.
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

    def mean_value(self) -> complex:
        """Spatial mean, coeff(0) / (2 pi lam)."""
        return complex(self.coeffs[0]) / self.grid.period


def _require_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(
            f"grids differ: (lam={f.grid.lam}, M={f.grid.modes}) vs "
            f"(lam={g.grid.lam}, M={g.grid.modes})"
        )


def convolve(f: SpectralField, g: SpectralField) -> SpectralField:
    """Direct lattice convolution with normalized counting measure.

    out(k) = (1/lam) sum_{k1} f(k - k1) g(k1), truncated back to the lattice.
    Under the integral-coefficient convention this equals 2*pi times the
    transform of the pointwise product whenever supports are small enough
    that no wrapped mode survives truncation.  The O(M^2) reference for
    `lattice_square` and `lattice_product`; no command calls it, and it stays
    here while perfbench/spans.py traces it (ROADMAP item 1).
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


def lattice_square(c: np.ndarray, modes: int) -> np.ndarray:
    """rfft(irfft(c, M)^2) along the last axis, leading axes batched: the nonnegative
    modes 0 .. M/2 of the square of the real field whose nonnegative modes are c.

    c may hold any number of modes up to M/2 + 1 and the missing ones count as
    zero, so c[..., :dealias_cutoff(M) + 1] is the 2/3-rule input mask.  u (*) u is
    product_scale times it on the kept modes while every populated pair has
    |m1 + m2| <= M/2.
    """
    w = np.fft.irfft(c, modes)
    return np.fft.rfft(w * w)


def product_scale(grid: TorusGrid) -> float:
    """M / lam: the (M / 2 pi lam)^2 (2 pi lam / M) of the transforms times 2 pi."""
    return grid.modes / grid.lam


def lattice_product(coeffs: np.ndarray, grid: TorusGrid, mask: np.ndarray) -> np.ndarray:
    """u (*) u on the mask, a scale in each transform: the arithmetic `duhamel_map` runs,
    whose contraction factor perfbench/check.py pins until its reference is re-recorded."""
    w = np.fft.ifft(coeffs * mask) * (grid.modes / grid.period)
    return np.fft.fft(w * w) * (grid.period / grid.modes) * TWO_PI * mask


def dealias_cutoff(modes: int) -> int:
    """Orszag's 2/3-rule cutoff (M - 1)//3: a product of two modes |m| <= cutoff that
    wraps around the M-point lattice lands on |m| >= M - 2*cutoff > cutoff."""
    return (modes - 1) // 3


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """2/3-rule mask: True on modes kept for quadratic products, |m| <= dealias_cutoff."""
    return np.abs(grid.m_ints) <= dealias_cutoff(grid.modes)


def half_spectrum(f: SpectralField) -> np.ndarray:
    """The nonnegative modes 0 .. M/2 of a real field, mode M/2 zero, as a copy.

    Raises ValueError unless f is exactly conjugate symmetric, coeff(-m) =
    conj(coeff(m)) and coeff(0) real: the half would silently drop the rest.
    """
    c = f.coeffs
    half = f.grid.modes // 2
    if c[0].imag != 0.0 or not np.array_equal(c[:half:-1], np.conj(c[1:half])):
        raise ValueError("the field is not exactly conjugate symmetric (not a real field)")
    return c[: half + 1].copy()


def full_spectrum(half: np.ndarray, modes: int) -> np.ndarray:
    """The M lattice coefficients, leading axes batched, of the real fields whose
    nonnegative modes 0 .. M/2 are `half`: coeff(-m) = conj(coeff(m)), Nyquist zero."""
    out = np.empty(half.shape[:-1] + (modes,), dtype=np.complex128)
    out[..., : modes // 2] = half[..., : modes // 2]
    out[..., modes // 2] = 0.0
    out[..., : modes // 2 : -1] = np.conj(half[..., 1 : modes // 2])
    return out
