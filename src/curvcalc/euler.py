"""Integration against the compactly-supported Euler characteristic.

chi_c assigns (-1)^dim to every open cell and is additive over disjoint
constructible partitions, which makes the integral of a finitely
supported rational combination of open-cell indicators a finite sum.
Everything in this module is exact rational arithmetic; no floats.
"""

import math
from fractions import Fraction

from .complexes import PLFunction, SimplicialComplex
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
    def zero(cls, carrier) -> "ConstructibleFunction":
        return cls(carrier, {})

    @classmethod
    def indicator_open(cls, carrier, cell) -> "ConstructibleFunction":
        return cls(carrier, {cell: Fraction(1)})

    @classmethod
    def indicator_closed(cls, carrier, cell) -> "ConstructibleFunction":
        """Indicator of the closure of a cell, expanded into open cells.

        Expanding closed indicators at construction time keeps chi_c
        additive with no inclusion-exclusion bookkeeping later.
        """
        return cls(carrier, {face: Fraction(1) for face in carrier.closure(cell)})

    @classmethod
    def ones(cls, carrier) -> "ConstructibleFunction":
        """The constant function 1, i.e. every open cell with weight 1."""
        return cls(carrier, {cell: Fraction(1) for cell in carrier.cells()})

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
        return ConstructibleFunction(self.carrier, merged)

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "ConstructibleFunction":
        scalar = Fraction(scalar)
        return ConstructibleFunction(
            self.carrier, {c: scalar * v for c, v in self.coefficients.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, ConstructibleFunction)
            and self.carrier == other.carrier
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"ConstructibleFunction({len(self.coefficients)} cells)"


def euler_integral(s: ConstructibleFunction) -> Fraction:
    """Sum of coefficient * (-1)^dim over the support. Linear in s."""
    return sum(
        (value * (-1) ** s.carrier.cell_dim(cell) for cell, value in s.coefficients.items()),
        Fraction(0),
    )


def floor_integral(alpha: PLFunction) -> Fraction:
    """Lower Euler integral of a PL function.

    On each open simplex an affine function attains its infimum at a
    vertex, so the integral closes to a finite alternating sum of vertex
    minima over the open-simplex partition of the complex.
    """
    return sum(
        (
            (-1) ** (len(s) - 1) * min(alpha.values[v] for v in s)
            for s in alpha.complex.simplices
        ),
        Fraction(0),
    )


def ceil_integral(alpha: PLFunction) -> Fraction:
    """Upper Euler integral; same closed form with maxima.

    Note floor_integral <= ceil_integral is false in general (the identity
    on a closed segment has floor 1 and ceil 0).
    """
    return sum(
        (
            (-1) ** (len(s) - 1) * max(alpha.values[v] for v in s)
            for s in alpha.complex.simplices
        ),
        Fraction(0),
    )


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
    alpha. Equals sum over vertices of alpha(v) * weight(v)."""
    return sum(
        (
            (-1) ** (len(s) - 1) * alpha.barycenter_value(s)
            for s in alpha.complex.simplices
        ),
        Fraction(0),
    )


def weight(complex: SimplicialComplex, v: int) -> Fraction:
    """The vertex weight sum_i (-1)^i / (i+1) * #{i-simplices containing v}."""
    if v not in complex.vertices:
        raise UnknownVertex(v)
    counts: dict[int, int] = {}
    for s in complex.star(v):
        d = len(s) - 1
        counts[d] = counts.get(d, 0) + 1
    return sum(
        (Fraction((-1) ** d, d + 1) * c for d, c in counts.items()),
        Fraction(0),
    )


def weights(complex: SimplicialComplex) -> dict[int, Fraction]:
    return {v: weight(complex, v) for v in complex.vertices}
