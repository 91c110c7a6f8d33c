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

from fractions import Fraction

import numpy as np

from .complexes import (
    ProductCellComplex,
    SimplicialComplex,
    SimplicialMap,
    _common_numerators,
    _integer_array,
    _magnitude,
)
from .curvature import Embedding, ValueWithError, curvature_measure, product_embedding
from .errors import CarrierMismatch, UnknownSimplex
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
    numerators = _integer_array(s._numerators, len(s._numerators) * _magnitude(s._numerators))
    sums = np.zeros(len(f.target), dtype=numerators.dtype)
    np.add.at(sums, f.image_indices[s._cells], f.image_signs[s._cells] * numerators)
    return ConstructibleFunction._from_arrays(f.target, np.arange(len(sums)), sums, s._common)


def fiber_euler(f: SimplicialMap, target_simplex) -> int:
    """chi_c of the fiber of f over any point of the given open target
    simplex: the fiber rule applied to the constant 1, i.e. the signs of
    the source cells whose image is that simplex, summed."""
    target_simplex = tuple(target_simplex)
    (t,) = f.target.cell_indices([target_simplex])
    if t < 0:
        raise UnknownSimplex(target_simplex)
    return int(f.image_signs[f.image_indices == t].sum())


def check_functoriality(f: SimplicialMap, g: SimplicialMap, s: ConstructibleFunction) -> bool:
    """Exact comparison of (f o g)_* s with f_*(g_* s)."""
    composed = f.compose(g)
    return pushforward(composed, s) == pushforward(f, pushforward(g, s))


# ---------------------------------------------------------------------------
# Fubini
# ---------------------------------------------------------------------------

def _signed_sums(keyed_signs, values) -> dict:
    """{key: sum of sign * value} over parallel sequences of (key, sign)
    pairs and rationals, with zero sums dropped.

    Integer numerators over the common denominator are accumulated per
    key, so each key costs one Fraction however many terms it has.
    """
    common, numerators = _common_numerators(values)
    sums: dict = {}
    for (key, sign), n in zip(keyed_signs, numerators.tolist()):
        sums[key] = sums.get(key, 0) + sign * n
    return {key: Fraction(n, common) for key, n in sums.items() if n}


def fubini_chi(s: ConstructibleFunction):
    """(direct, first-factor-last, second-factor-last) Euler integrals of
    a constructible function on a product carrier; all three agree."""
    carrier = s.carrier
    if not isinstance(carrier, ProductCellComplex):
        raise CarrierMismatch("fubini_chi needs a function on a product cell complex")
    x, y = carrier.factors
    direct = euler_integral(s)

    def iterate(first, second, key):
        # integrate over `first`, leaving a constructible function on `second`
        keyed_signs = []
        for a, b in s.coefficients:
            outer, inner = (b, a) if key == 0 else (a, b)
            keyed_signs.append((outer, -1 if first.cell_dim(inner) % 2 else 1))
        partial = _signed_sums(keyed_signs, s.coefficients.values())
        return euler_integral(ConstructibleFunction(second, partial))

    over_x_first = iterate(x, y, 0)
    over_y_first = iterate(y, x, 1)
    return direct, over_x_first, over_y_first


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


def product_total_curvature(embedding: Embedding, samples: int = 100_000, seed: int = 0) -> ValueWithError:
    """Total curvature mass of an embedded product complex (Monte Carlo)."""
    kappa = curvature_measure(embedding, method="mc", samples=samples, seed=seed)
    return ValueWithError(
        sum(k.value for k in kappa.values()), sum(k.bound for k in kappa.values())
    )
