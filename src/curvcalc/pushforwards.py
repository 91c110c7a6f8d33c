"""Pushforward of constructible functions along simplicial maps, and the
product (Fubini) identities for both Euler and curvature integration.

The fiber rule: an open simplex s contributes to the open image simplex
f(s) with multiplicity (-1)^(dim s - dim f(s)). Summed against the
coefficients of a constructible function this computes the fiberwise
Euler integral, is linear, preserves the total Euler integral, and is
functorial. The rule is validated independently in the test suite by
slicing source simplices along rational fiber points and counting open
polytope dimensions.
"""

import numpy as np

from .complexes import (
    ProductCellComplex,
    SimplicialComplex,
    SimplicialMap,
    _integer_array,
    _magnitude,
)
from .curvature import Embedding, curvature_measure, product_embedding
from .errors import CarrierMismatch
from .euler import ConstructibleFunction, euler_integral


def pushforward(f: SimplicialMap, s: ConstructibleFunction) -> ConstructibleFunction:
    """Fiberwise Euler integration of s along f.

    The target carrier is always the full target complex; simplices
    outside the image simply keep coefficient zero. The signed numerators
    of s, over its common denominator, are summed per image index in one
    np.add.at: in int64 where no sum can overflow it, in Python ints
    otherwise.
    """
    if s.carrier != f.source:
        raise CarrierMismatch("the function does not live on the map's source")
    return _push(f.target, f.image_indices[s._cells], f.image_signs[s._cells], s)


def _push(target, indices, signs, s: ConstructibleFunction) -> ConstructibleFunction:
    """The function on target whose cell i sums sign * value over the
    support cells of s sent to index i."""
    numerators = _integer_array(s._numerators, len(s._numerators) * _magnitude(s._numerators))
    sums = np.zeros(len(target), dtype=numerators.dtype)
    np.add.at(sums, indices, signs * numerators)
    return ConstructibleFunction._from_arrays(target, np.arange(len(sums)), sums, s._common)


# ---------------------------------------------------------------------------
# Fubini
# ---------------------------------------------------------------------------

def fubini_chi(s: ConstructibleFunction):
    """(direct, first-factor-last, second-factor-last) Euler integrals of
    a constructible function on a product carrier; all three agree.
    Integrating over one factor is the pushforward onto the other."""
    carrier = s.carrier
    if not isinstance(carrier, ProductCellComplex):
        raise CarrierMismatch("fubini_chi needs a function on a product cell complex")
    support = list(map(carrier.cells().__getitem__, s._cells.tolist()))

    def iterate(key):
        # a cell sends its value to its other part, signed by (-1)^dim of this one
        inner, outer = carrier.factors[key], carrier.factors[1 - key]
        indices = outer.cell_indices([cell[1 - key] for cell in support])
        signs = np.array([1 - 2 * (inner.cell_dim(cell[key]) % 2) for cell in support], dtype=np.int64)
        return euler_integral(_push(outer, indices, signs, s))

    return euler_integral(s), iterate(0), iterate(1)


def fubini_curvature(
    ex: Embedding,
    ey: Embedding,
    samples: int = 100_000,
    seed: int = 0,
) -> list[dict]:
    """Per product-vertex comparison of the product complex's Monte Carlo
    curvature with the product of the factor curvatures.

    The product curvature is estimated directly on the product cells in
    the combined ambient space (product cells are not simplices, so the
    exact formulas do not apply). Factor curvatures use the exact method
    for simplicial factors of dimension <= 3, otherwise their own Monte
    Carlo streams; bounds combine in quadrature plus the product cross
    terms.
    """
    ep = product_embedding(ex, ey)
    kappa_product = curvature_measure(ep, method="mc", samples=samples, seed=seed)

    def factor_measure(e: Embedding, offset: int):
        if isinstance(e.carrier, SimplicialComplex) and e.carrier.dim <= 3:
            return curvature_measure(e, method="exact")
        return curvature_measure(e, method="mc", samples=samples, seed=seed + offset)

    kx = factor_measure(ex, 1)
    ky = factor_measure(ey, 2)
    rows = []
    for vertex in ep.vertex_order:
        u, v = vertex
        direct = kappa_product[vertex]
        fx, fy = kx[u], ky[v]
        expected = fx.value * fy.value
        expected_bound = (
            abs(fx.value) * fy.bound + abs(fy.value) * fx.bound + fx.bound * fy.bound
        )
        rows.append(
            {
                "vertex": vertex,
                "kappa_product": direct.value,
                "kappa_product_bound": direct.bound,
                "kappa_factor_product": expected,
                "kappa_factor_bound": expected_bound,
                "joint_bound": float(
                    np.hypot(direct.bound, expected_bound)
                ),
                "difference": direct.value - expected,
            }
        )
    return rows

