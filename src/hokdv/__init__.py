"""Spectral numerics laboratory for the periodic higher-order KdV equation

    u_t + (-1)^{j+1} d_x^{2j+1} u + (1/2) d_x(u^2) = 0,   x in [0, 2 pi lam).

The package holds what the `hokdv` command line runs: fields on the scaled
torus and their dealiased FFT products, exact resonance functions with the
region masks and the certified gap-bound audit, the H^s and X_{s,b} / Z^s
norms over (k, tau) cell arrays, closed-form Picard iterates with their
quadrature oracle, a stiff pseudo-spectral integrator with the cutoff
Duhamel contraction experiment, and ratio searches for the bilinear estimates.
"""

__version__ = "0.1.0"

from .dispersion import DispersionModel, Region
from .norms import SpaceTimeField, sobolev_norm
from .torus import SpectralField, TorusGrid

__all__ = [
    "DispersionModel",
    "Region",
    "SpaceTimeField",
    "SpectralField",
    "TorusGrid",
    "sobolev_norm",
    "__version__",
]
