"""Phi functions and exponential quadrature weights for diagonal linear parts.

phi_0(z) = e^z and phi_{r+1}(z) = (phi_r(z) - 1/r!)/z; near z = 0 the
recurrences cancel catastrophically, so small arguments, |z| < 0.5, switch
to the series sum_n z^n / (n + r)!, which is evaluated on those alone.
"""

from __future__ import annotations

import math

import numpy as np


def phi_functions(z: np.ndarray, count: int) -> list[np.ndarray]:
    """phi_0 .. phi_{count-1} evaluated elementwise on a complex array."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 0.5
    z_small = np.where(small, z, 0.0)  # the series runs where it is kept, and stays finite
    out = [np.exp(z)]
    for r in range(1, count):
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = (out[r - 1] - 1.0 / math.factorial(r - 1)) / np.where(small, 1.0, z)
        series = np.zeros_like(z)
        zp = np.ones_like(z)
        for n in range(18):
            series = series + zp / float(math.factorial(n + r))
            zp = zp * z_small
        out.append(np.where(small, series, direct))
    return out


def lagrange_monomial_basis(nodes: np.ndarray) -> np.ndarray:
    """Row m holds monomial coefficients of the Lagrange basis at nodes[m]."""
    nodes = np.asarray(nodes, dtype=np.float64)
    return np.linalg.inv(np.vander(nodes, len(nodes), increasing=True)).T


def exponential_weights(
    lin_phase: np.ndarray, h: float, nodes: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """Weights w[m] with sum_m w[m] F(s0 + nodes[m] h) ~= int_0^h e^{iL(h-s)} F ds.

    The kernel is integrated exactly against the interpolating polynomial:
    int_0^h e^{L(h-s)} s^r ds = h^{r+1} r! phi_{r+1}(Lh).
    """
    q = len(nodes)
    z = 1j * np.asarray(lin_phase) * h
    phis = phi_functions(z, q + 1)
    moments = np.stack(
        [h ** (r + 1) * float(math.factorial(r)) * phis[r + 1] for r in range(q)]
    )
    scale = np.array([h ** (-r) for r in range(q)])
    return np.einsum("mr,r,rk->mk", basis, scale, moments)
