"""Euler calculus and curvature calculus on finite simplicial complexes.

Exact rational Euler integration of constructible and piecewise-linear
data, angle-defect curvature measures of embedded complexes (closed
forms cover simplices of dimension <= 3 in any ambient dimension, seeded
Monte Carlo covers the rest), stratified Morse indices, pushforwards
with both Fubini identities, and the shrinking-fiber limit on surfaces
of revolution.
"""

from .complexes import (
    PLFunction,
    ProductCellComplex,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    product,
    signature_census,
)
from .curvature import (
    Embedding,
    ValueWithError,
    curvature_integral,
    curvature_measure,
    equilateral_embedding,
    excess_angle,
    final_integral,
    gauss_bonnet_check,
)
from .euler import (
    ConstructibleFunction,
    ceil_integral,
    euler_integral,
    floor_integral,
    floor_integral_oracle_1d,
    tentative_integral,
)
from .morse import morse_curvature_measure, morse_index, morse_indices
from .pushforwards import fubini_chi, fubini_curvature, pushforward
from .adiabatic import WarpFunction, adiabatic_sweep, curvature_density, nonsplit_demo

__version__ = "0.1.0"

__all__ = [
    "PLFunction",
    "ProductCellComplex",
    "SimplicialComplex",
    "SimplicialMap",
    "barycentric_subdivide",
    "product",
    "signature_census",
    "Embedding",
    "ValueWithError",
    "curvature_integral",
    "curvature_measure",
    "equilateral_embedding",
    "excess_angle",
    "final_integral",
    "gauss_bonnet_check",
    "ConstructibleFunction",
    "ceil_integral",
    "euler_integral",
    "floor_integral",
    "floor_integral_oracle_1d",
    "tentative_integral",
    "morse_curvature_measure",
    "morse_index",
    "morse_indices",
    "fubini_chi",
    "fubini_curvature",
    "pushforward",
    "WarpFunction",
    "adiabatic_sweep",
    "curvature_density",
    "nonsplit_demo",
    "__version__",
]
