"""Integration against the compactly-supported Euler characteristic.

chi_c assigns (-1)^dim to every open cell and is additive over disjoint
constructible partitions, which makes the integral of a finitely
supported rational combination of open-cell indicators a finite sum.
Everything in this module is exact rational arithmetic; no floats.

The sums run on integers. The floor, ceil and tentative integrals of a
PL function are alternating sums over simplices, and each equals
sum_v alpha(v) * c(v) for an integer count c(v) per vertex: the signed
number of simplices whose minimum (maximum) vertex is v, or the signed
star counts behind weight(v). The counts come from per-dimension vertex
arrays; the rational values are brought to a common denominator, so a
result costs one Fraction, not one Fraction addition per simplex. Sums
of a constructible function's coefficients (its integral, pushforward
and partial Fubini sums) accumulate integer numerators the same way and
build one Fraction per result cell.
"""

import math
from fractions import Fraction

import numpy as np

from .complexes import PLFunction, SimplicialComplex, _common_numerators
from .errors import CarrierTooHighDimensional, ForeignCell, UnknownVertex


def chi_c(carrier, cells) -> int:
    """Euler characteristic with compact support of a set of open cells."""
    total = 0
    for cell in cells:
        if not carrier.has_cell(cell):
            raise ForeignCell(cell)
        total += (-1) ** carrier.cell_dim(cell)
    return total


class ConstructibleFunction:
    """A finitely supported rational function on the open cells of a
    carrier (a simplicial complex or a product cell complex)."""

    __slots__ = ("carrier", "coefficients")

    def __init__(self, carrier, coefficients):
        coeffs = {}
        for cell, value in dict(coefficients).items():
            if not carrier.has_cell(cell):
                raise ForeignCell(cell)
            value = Fraction(value)
            if value:
                coeffs[cell] = value
        self.carrier = carrier
        self.coefficients = coeffs

    @classmethod
    def _trusted(cls, carrier, coefficients: dict) -> "ConstructibleFunction":
        """Wrap a dict of nonzero Fractions on cells of the carrier
        without checking it again."""
        s = object.__new__(cls)
        s.carrier = carrier
        s.coefficients = coefficients
        return s

    @classmethod
    def zero(cls, carrier) -> "ConstructibleFunction":
        return cls(carrier, {})

    @classmethod
    def indicator_open(cls, carrier, cell) -> "ConstructibleFunction":
        return cls(carrier, {cell: 1})

    @classmethod
    def indicator_closed(cls, carrier, cell) -> "ConstructibleFunction":
        """Indicator of the closure of a cell, expanded into open cells.

        Expanding closed indicators at construction time keeps chi_c
        additive with no inclusion-exclusion bookkeeping later.
        """
        return cls(carrier, {face: 1 for face in carrier.closure(cell)})

    @classmethod
    def ones(cls, carrier) -> "ConstructibleFunction":
        """The constant function 1, i.e. every open cell with weight 1."""
        return cls._trusted(carrier, dict.fromkeys(carrier.cells(), Fraction(1)))

    def __call__(self, cell) -> Fraction:
        if not self.carrier.has_cell(cell):
            raise ForeignCell(cell)
        return self.coefficients.get(cell, Fraction(0))

    def __add__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        if self.carrier != other.carrier:
            raise ForeignCell("cannot add functions on different carriers")
        merged = dict(self.coefficients)
        for cell, value in other.coefficients.items():
            merged[cell] = merged.get(cell, Fraction(0)) + value
        return self._trusted(self.carrier, {c: v for c, v in merged.items() if v})

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "ConstructibleFunction":
        scalar = Fraction(scalar)
        return self._trusted(
            self.carrier, {c: scalar * v for c, v in self.coefficients.items()} if scalar else {}
        )

    def __eq__(self, other):
        return (
            isinstance(other, ConstructibleFunction)
            and self.carrier == other.carrier
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"ConstructibleFunction({len(self.coefficients)} cells)"


def _signed_sums(keyed_signs, values) -> dict:
    """{key: sum of sign * value} over parallel sequences of (key, sign)
    pairs and rationals, with zero sums dropped.

    Integer numerators over the common denominator are accumulated per
    key, so each key costs one Fraction however many terms it has.
    """
    common, numerators = _common_numerators(values)
    sums: dict = {}
    for (key, sign), n in zip(keyed_signs, numerators):
        sums[key] = sums.get(key, 0) + sign * n
    return {key: Fraction(n, common) for key, n in sums.items() if n}


def euler_integral(s: ConstructibleFunction) -> Fraction:
    """Sum of coefficient * (-1)^dim over the support. Linear in s."""
    dim = s.carrier.cell_dim
    signs = ((None, -1 if dim(cell) % 2 else 1) for cell in s.coefficients)
    return _signed_sums(signs, s.coefficients.values()).get(None, Fraction(0))


def _extreme_vertex_integral(alpha: PLFunction, extreme) -> Fraction:
    """sum over simplices s of (-1)^dim s * alpha(extreme vertex of s).

    Vertices are ranked by (alpha, vertex id) and each simplex finds its
    extreme vertex by integer rank; the sum is then sum_v alpha(v) * m(v)
    with m(v) the signed count of simplices whose extreme vertex is v.
    Tied values break by vertex id, which does not change the sum.
    """
    complex = alpha.complex
    common, numerators = alpha.common_numerators()
    # stable, so tied values keep vertex id order
    order = sorted(range(len(numerators)), key=numerators.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    counts = np.zeros(len(order), dtype=np.int64)
    for d in range(complex.dim + 1):
        slots = complex.vertex_positions(d)
        hits = np.bincount(extreme(rank[slots], axis=1), minlength=len(order))
        counts += -hits if d % 2 else hits
    total = sum(numerators[i] * m for i, m in zip(order, counts.tolist()) if m)
    return Fraction(total, common)


def floor_integral(alpha: PLFunction) -> Fraction:
    """Lower Euler integral of a PL function.

    On each open simplex an affine function attains its infimum at a
    vertex, so the integral closes to a finite alternating sum of vertex
    minima over the open-simplex partition of the complex.
    """
    return _extreme_vertex_integral(alpha, np.min)


def ceil_integral(alpha: PLFunction) -> Fraction:
    """Upper Euler integral; same closed form with maxima.

    Note floor_integral <= ceil_integral is false in general (the identity
    on a closed segment has floor 1 and ceil 0).
    """
    return _extreme_vertex_integral(alpha, np.max)


def floor_integral_oracle_1d(alpha: PLFunction, n: int) -> Fraction:
    """Evaluate the step-function approximation integral (1/n) * integral
    of floor(n*alpha) d(chi_c) exactly on a 1-dimensional complex.

    This validates the closed form of floor_integral independently: each
    edge is cut at the finitely many interior points where floor(n*alpha)
    jumps, and chi_c is summed over the resulting open pieces (each open
    interval contributes -1, each cut point +1). For n a common multiple
    of the denominators of alpha the result equals floor_integral(alpha).
    """
    complex = alpha.complex
    if complex.dim > 1:
        raise CarrierTooHighDimensional(
            f"oracle only supports 1-dimensional carriers, got dim {complex.dim}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    for v in complex.vertices:
        total += math.floor(n * alpha.values[v])
    for edge in complex.simplices_of_dim(1):
        a = n * alpha.values[edge[0]]
        b = n * alpha.values[edge[1]]
        lo, hi = (a, b) if a <= b else (b, a)
        # interior cut parameters t in (0,1) where a + t(b-a) is an integer
        cuts = []
        if a != b:
            m = math.floor(lo) + 1  # first integer strictly above lo
            while Fraction(m) < hi:
                cuts.append((Fraction(m) - a) / (b - a))
                m += 1
            cuts.sort()
        breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
        for left, right in zip(breakpoints, breakpoints[1:]):
            mid = (left + right) / 2
            total -= math.floor(a + mid * (b - a))
        for t in cuts:
            total += math.floor(a + t * (b - a))
    return Fraction(total, n)


def tentative_integral(alpha: PLFunction) -> Fraction:
    """Alternating sum over all simplices of the barycenter value of
    alpha, computed as the equal sum over vertices of alpha(v) * weight(v)."""
    weight_common, weight_numerators = _weight_numerators(alpha.complex)
    common, numerators = alpha.common_numerators()
    total = sum(a * w for a, w in zip(numerators, weight_numerators))
    return Fraction(total, common * weight_common)


def _weight_numerators(complex: SimplicialComplex) -> tuple[int, list[int]]:
    """(L, [n_v]) with weight(v) == n_v / L for the vertices in order,
    L = lcm(1, ..., dim + 1), from integer star counts per dimension."""
    common = math.lcm(*range(1, complex.dim + 2))
    numerators = [0] * len(complex.vertices)
    for d in range(complex.dim + 1):
        scale = (-1) ** d * (common // (d + 1))
        counts = np.bincount(complex.vertex_positions(d).ravel(), minlength=len(numerators))
        numerators = [n + scale * c for n, c in zip(numerators, counts.tolist())]
    return common, numerators


def weight(complex: SimplicialComplex, v: int) -> Fraction:
    """The vertex weight sum_i (-1)^i / (i+1) * #{i-simplices containing v}.

    Counts the whole complex; use weights() for more than one vertex.
    """
    if v not in complex.vertices:
        raise UnknownVertex(v)
    return weights(complex)[v]


def weights(complex: SimplicialComplex) -> dict[int, Fraction]:
    """weight(v) for every vertex, from one pass over the complex."""
    common, numerators = _weight_numerators(complex)
    return {v: Fraction(n, common) for v, n in zip(complex.vertices, numerators)}
