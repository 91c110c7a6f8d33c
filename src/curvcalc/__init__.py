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
    validate,
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
    vertex_curvature,
)
from .euler import (
    ConstructibleFunction,
    ceil_integral,
    chi_c,
    euler_integral,
    floor_integral,
    floor_integral_oracle_1d,
    tentative_integral,
    weight,
)
from .morse import chi_sum_check, morse_curvature_measure, morse_index, morse_indices
from .pushforwards import (
    check_functoriality,
    fiber_euler,
    fubini_chi,
    fubini_curvature,
    pushforward,
)
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
    "validate",
    "Embedding",
    "ValueWithError",
    "curvature_integral",
    "curvature_measure",
    "equilateral_embedding",
    "excess_angle",
    "final_integral",
    "gauss_bonnet_check",
    "vertex_curvature",
    "ConstructibleFunction",
    "ceil_integral",
    "chi_c",
    "euler_integral",
    "floor_integral",
    "floor_integral_oracle_1d",
    "tentative_integral",
    "weight",
    "chi_sum_check",
    "morse_curvature_measure",
    "morse_index",
    "morse_indices",
    "check_functoriality",
    "fiber_euler",
    "fubini_chi",
    "fubini_curvature",
    "pushforward",
    "WarpFunction",
    "adiabatic_sweep",
    "curvature_density",
    "nonsplit_demo",
    "__version__",
]
