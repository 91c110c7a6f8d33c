"""Integration against the compactly-supported Euler characteristic.

chi_c assigns (-1)^dim to every open cell and is additive over disjoint
constructible partitions, which makes the integral of a finitely
supported rational combination of open-cell indicators a finite sum.
Everything in this module is exact rational arithmetic; no floats.

The sums run on integers. A PLFunction and a ConstructibleFunction store
their values as integer numerators over one common denominator, indexed
by the carrier's vertex or cell order. The floor, ceil and tentative
integrals of a PL function are alternating sums over simplices, and each
equals sum_v n_v * c(v) / L for an integer count c(v) per vertex: the
signed number of simplices whose minimum (maximum) vertex is v, or the
signed star counts behind weight(v). The counts come from per-dimension
vertex arrays, so a result costs one dot product and one Fraction. A
constructible function's integral, pushforward and arithmetic run on its
numerator arrays the same way; Fractions are built only when a value or
the coefficients dict is read.
"""

import math
from fractions import Fraction

import numpy as np

from .complexes import (
    PLFunction,
    SimplicialComplex,
    _common_numerators,
    _exact_dot,
    _fractions,
    _integer_array,
    _magnitude,
    _reduced,
)
from .errors import CarrierTooHighDimensional, ForeignCell


class ConstructibleFunction:
    """A finitely supported rational function on the open cells of a
    carrier (a simplicial complex or a product cell complex).

    Stored as the increasing positions in carrier.cells() order of the
    support and their integer numerators over one common denominator,
    reduced as _reduced makes them; the dict of Fractions, coefficients,
    is built in full on first read.
    """

    __slots__ = ("carrier", "_cells", "_numerators", "_common", "_coefficients")

    def __init__(self, carrier, coefficients):
        coeffs = dict(coefficients)
        cells = carrier.cell_indices(coeffs)
        foreign = np.flatnonzero(cells < 0)
        if len(foreign):
            raise ForeignCell(list(coeffs)[foreign[0]])
        coeffs = {cell: Fraction(value) for cell, value in coeffs.items()}
        order = np.argsort(cells)
        common, numerators = _common_numerators(coeffs.values())
        self._store(carrier, cells[order], numerators[order], common)
        self._coefficients = {cell: value for cell, value in coeffs.items() if value}

    def _store(self, carrier, cells: np.ndarray, numerators: np.ndarray, common: int) -> None:
        keep = np.flatnonzero(numerators)
        self.carrier = carrier
        self._cells = cells[keep]
        self._common, self._numerators = _reduced(common, numerators[keep])
        self._coefficients = None

    @classmethod
    def _from_arrays(cls, carrier, cells, numerators, common) -> "ConstructibleFunction":
        """The function with numerators / common on the cells at the
        given increasing positions of the carrier; zeros are dropped."""
        s = object.__new__(cls)
        s._store(carrier, cells, numerators, common)
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
        n = len(carrier)
        return cls._from_arrays(carrier, np.arange(n), np.ones(n, dtype=np.int64), 1)

    @property
    def coefficients(self) -> dict:
        """{cell: nonzero Fraction coefficient}, built on first read."""
        if self._coefficients is None:
            cells = map(self.carrier.cells().__getitem__, self._cells.tolist())
            self._coefficients = dict(zip(cells, _fractions(self._numerators, self._common)))
        return self._coefficients

    def __call__(self, cell) -> Fraction:
        value = self.coefficients.get(cell)
        # a tuple of plain ints equal to a support cell is that cell; the
        # carrier checks the rest, such as floats equal to vertex ids
        if value is None or type(cell) is not tuple or not all(type(v) is int for v in cell):
            if not self.carrier.has_cell(cell):
                raise ForeignCell(cell)
        return Fraction(0) if value is None else value

    def __add__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        if self.carrier != other.carrier:
            raise ForeignCell("cannot add functions on different carriers")
        common = math.lcm(self._common, other._common)
        a, b = self._numerators, other._numerators
        ka, kb = common // self._common, common // other._common
        bound = _magnitude(a) * ka + _magnitude(b) * kb
        cells, at = np.unique(np.concatenate((self._cells, other._cells)), return_inverse=True)
        sums = _integer_array(np.zeros(len(cells), dtype=np.int64), bound)
        sums[at[: len(a)]] = _integer_array(a, bound) * ka
        sums[at[len(a) :]] += _integer_array(b, bound) * kb
        return self._from_arrays(self.carrier, cells, sums, common)

    def __sub__(self, other: "ConstructibleFunction") -> "ConstructibleFunction":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "ConstructibleFunction":
        scalar = Fraction(scalar)
        bound = _magnitude(self._numerators) * max(1, abs(scalar.numerator))
        numerators = _integer_array(self._numerators, bound)
        return self._from_arrays(
            self.carrier, self._cells, numerators * scalar.numerator, self._common * scalar.denominator
        )

    def __eq__(self, other):
        return (
            isinstance(other, ConstructibleFunction)
            and self.carrier == other.carrier
            and self._common == other._common
            and np.array_equal(self._cells, other._cells)
            and np.array_equal(self._numerators, other._numerators)
        )

    def __repr__(self):
        return f"ConstructibleFunction({len(self._cells)} cells)"


def euler_integral(s: ConstructibleFunction) -> Fraction:
    """Sum of coefficient * (-1)^dim over the support. Linear in s.

    Cells are stored in (dimension, lexicographic) order, so a cell's
    dimension is the number of running f-vector totals at or below its
    index."""
    ends = np.cumsum(s.carrier.f_vector(), dtype=np.int64)
    signs = 1 - 2 * (np.searchsorted(ends, s._cells, side="right") % 2)
    return Fraction(_exact_dot(signs, s._numerators), s._common)


def _extreme_vertex_integral(alpha: PLFunction, extreme) -> Fraction:
    """sum over simplices s of (-1)^dim s * alpha(extreme vertex of s).

    Vertices are ranked by (alpha, vertex id) and each simplex finds its
    extreme vertex by integer rank, one column pass of the ufunc extreme
    per vertex slot; the sum is then sum_v alpha(v) * m(v) with m(v) the
    signed count of simplices whose extreme vertex is v. Tied values
    break by vertex id, which does not change the sum.
    """
    complex = alpha.complex
    numerators = alpha._numerators
    order = np.argsort(numerators, kind="stable")  # tied values keep vertex order
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    counts = np.zeros(len(order), dtype=np.int64)  # per rank
    for d in range(complex.dim + 1):
        slots = complex.vertex_positions(d)
        top = rank[slots[:, 0]]
        for j in range(1, d + 1):
            extreme(top, rank[slots[:, j]], out=top)
        hits = np.bincount(top, minlength=len(order))
        counts += -hits if d % 2 else hits
    return Fraction(_exact_dot(counts[rank], numerators), alpha._common)


def floor_integral(alpha: PLFunction) -> Fraction:
    """Lower Euler integral of a PL function.

    On each open simplex an affine function attains its infimum at a
    vertex, so the integral closes to a finite alternating sum of vertex
    minima over the open-simplex partition of the complex.
    """
    return _extreme_vertex_integral(alpha, np.minimum)


def ceil_integral(alpha: PLFunction) -> Fraction:
    """Upper Euler integral; same closed form with maxima.

    Note floor_integral <= ceil_integral is false in general (the identity
    on a closed segment has floor 1 and ceil 0).
    """
    return _extreme_vertex_integral(alpha, np.maximum)


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
    total = _exact_dot(weight_numerators, alpha._numerators)
    return Fraction(total, alpha._common * weight_common)


def _weight_numerators(complex: SimplicialComplex) -> tuple[int, np.ndarray]:
    """(L, n) with weight(v) == n[i] / L for the i-th vertex,
    L = lcm(1, ..., dim + 1), from integer star counts per dimension;
    no |n[i]| passes L times the number of simplices."""
    common = math.lcm(*range(1, complex.dim + 2))
    bound = common * len(complex)
    numerators = _integer_array(np.zeros(len(complex.vertices), dtype=np.int64), bound)
    for d in range(complex.dim + 1):
        counts = np.bincount(complex.vertex_positions(d).ravel(), minlength=len(numerators))
        numerators += _integer_array(counts, bound) * ((-1) ** d * (common // (d + 1)))
    return common, numerators


def weights(complex: SimplicialComplex) -> dict[int, Fraction]:
    """The weight sum_i (-1)^i / (i+1) * #{i-simplices containing v} of
    every vertex v, from one pass over the complex."""
    common, numerators = _weight_numerators(complex)
    # star counts repeat, so one Fraction per distinct numerator serves all
    memo: dict = {}
    fractions = [memo[n] if n in memo else memo.setdefault(n, Fraction(n, common)) for n in numerators.tolist()]
    return dict(zip(complex.vertices, fractions))
