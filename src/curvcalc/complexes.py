"""Finite abstract simplicial complexes, simplicial maps, PL vertex data.

A complex is stored as the full set of its simplices (not just the maximal
ones) because every integral in this package is a sum over all simplices.
Vertices are dense nonnegative integers local to a complex; a simplex is a
strictly increasing tuple of vertex ids. Vertex data (PLFunction values)
are exact rationals so the combinatorial identities downstream can be
tested with equality rather than tolerances.

Also provided: barycentric subdivision with linear extension of vertex
data, product cell complexes, and the signature bookkeeping of the first
subdivision of a standard simplex.
"""

import itertools
from fractions import Fraction

import numpy as np

from .errors import (
    MissingFace,
    NotComposable,
    UnknownSimplex,
    UnknownVertex,
)

Simplex = tuple[int, ...]


def as_simplex(vertices) -> Simplex:
    """Normalize an iterable of vertex ids to a canonical simplex tuple."""
    simplex = tuple(sorted(vertices))
    if not simplex:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(simplex)) != len(simplex):
        raise ValueError(f"duplicate vertices in simplex {vertices!r}")
    if simplex[0] < 0:
        raise ValueError("vertex ids must be nonnegative")
    return simplex


def faces(simplex: Simplex, proper: bool = False):
    """Yield the nonempty faces of a simplex (optionally only proper ones)."""
    top = len(simplex) if not proper else len(simplex) - 1
    for k in range(1, top + 1):
        yield from itertools.combinations(simplex, k)


def validate_simplices(simplices) -> None:
    """Raise MissingFace unless the set is closed under taking faces.

    Face closure also guarantees that every vertex of every simplex is
    registered as a 0-simplex, the other invariant the data structure
    relies on.
    """
    present = set(simplices)
    for simplex in present:
        for face in itertools.combinations(simplex, len(simplex) - 1):
            if face and face not in present:
                raise MissingFace(simplex, face)


class SimplicialComplex:
    """An immutable finite abstract simplicial complex.

    The empty complex is allowed (it shows up as the link of an isolated
    vertex). Equality and hashing are by simplex set. With validate=True
    each simplex is canonicalized with as_simplex and face closure is
    checked; validate=False trusts the caller to pass canonical tuples of
    a face-closed set, as from_maximal, link, full_subcomplex and
    barycentric_subdivide do.
    """

    __slots__ = ("_simplices", "_vertices", "_by_dim", "_positions", "_cofaces")

    def __init__(self, simplices, validate: bool = True):
        if validate:
            simps = frozenset(as_simplex(s) for s in simplices)
            validate_simplices(simps)
        else:
            simps = frozenset(simplices)
        self._simplices = simps
        self._vertices = tuple(sorted(s[0] for s in simps if len(s) == 1))
        by_dim: dict[int, list[Simplex]] = {}
        for s in simps:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}
        self._positions: dict[int, np.ndarray] = {}
        self._cofaces = None  # built by the first star or link call

    @classmethod
    def from_maximal(cls, maximal) -> "SimplicialComplex":
        """Build a complex as the face closure of the given simplices."""
        closed = set()
        for m in maximal:
            closed.update(faces(as_simplex(m)))
        return cls(closed, validate=False)

    @property
    def simplices(self) -> frozenset:
        return self._simplices

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def dim(self) -> int:
        return max(self._by_dim, default=-1)

    def simplices_of_dim(self, d: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(d, ())

    def vertex_positions(self, d: int) -> np.ndarray:
        """Read-only (n_d, d+1) int64 array whose row i holds the
        positions in self.vertices of the vertices of
        simplices_of_dim(d)[i]. Positions, not ids, so sparse vertex ids
        stay compact. Built on first use per dimension."""
        positions = self._positions.get(d)
        if positions is None:
            ids = np.array(self.simplices_of_dim(d), dtype=np.int64).reshape(-1, d + 1)
            positions = np.searchsorted(np.array(self._vertices, dtype=np.int64), ids)
            positions.flags.writeable = False
            self._positions[d] = positions
        return positions

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    # Generic cell-carrier protocol shared with ProductCellComplex, so the
    # Euler-integration code can treat both uniformly.
    def cells(self):
        """All simplices in (dimension, lexicographic) order."""
        return itertools.chain.from_iterable(self._by_dim[d] for d in sorted(self._by_dim))

    def cell_dim(self, cell) -> int:
        return len(cell) - 1

    def has_cell(self, cell) -> bool:
        return cell in self._simplices

    def cell_vertex_objects(self, cell):
        return cell

    def closure(self, cell):
        return tuple(faces(cell))

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self._simplices)

    def star(self, v: int) -> tuple[Simplex, ...]:
        """All simplices containing v (not closed under faces)."""
        if self._cofaces is None:
            cofaces: dict[int, list[Simplex]] = {u: [] for u in self._vertices}
            for s in self._simplices:
                for u in s:
                    cofaces[u].append(s)
            self._cofaces = {u: tuple(sorted(c)) for u, c in cofaces.items()}
        if v not in self._cofaces:
            raise UnknownVertex(v)
        return self._cofaces[v]

    def link(self, v: int) -> "SimplicialComplex":
        """The subcomplex { s : v not in s, s + {v} in X }."""
        link = [tuple(u for u in s if u != v) for s in self.star(v) if len(s) > 1]
        return SimplicialComplex(link, validate=False)

    def full_subcomplex(self, vertex_subset) -> "SimplicialComplex":
        """Simplices all of whose vertices lie in the given set."""
        keep = set(vertex_subset)
        return SimplicialComplex(
            (s for s in self._simplices if keep.issuperset(s)), validate=False
        )

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._simplices <= other._simplices

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __hash__(self):
        return hash(self._simplices)

    def __len__(self):
        return len(self._simplices)

    def __contains__(self, simplex):
        return tuple(simplex) in self._simplices

    def __repr__(self):
        return f"SimplicialComplex({len(self._simplices)} simplices, dim {self.dim})"


def validate(complex: SimplicialComplex) -> None:
    """Re-check face closure of an existing complex. Idempotent."""
    validate_simplices(complex.simplices)


class PLFunction:
    """A function given by exact rational values on every vertex,
    extended affinely over each simplex."""

    __slots__ = ("complex", "values")

    def __init__(self, complex: SimplicialComplex, values):
        vals = {v: Fraction(x) for v, x in dict(values).items()}
        for v in complex.vertices:
            if v not in vals:
                raise UnknownVertex(v)
        for v in vals:
            if v not in complex.vertices:
                raise UnknownVertex(v)
        self.complex = complex
        self.values = vals

    def __call__(self, v: int) -> Fraction:
        return self.values[v]

    def barycenter_value(self, simplex: Simplex) -> Fraction:
        """Value of the affine extension at the barycenter, i.e. the mean
        of the vertex values."""
        return sum(self.values[v] for v in simplex) / len(simplex)

    def __eq__(self, other):
        return (
            isinstance(other, PLFunction)
            and self.complex == other.complex
            and self.values == other.values
        )

    def __repr__(self):
        return f"PLFunction(on {len(self.values)} vertices)"


def constant_function(complex: SimplicialComplex, value) -> PLFunction:
    return PLFunction(complex, {v: Fraction(value) for v in complex.vertices})


class SimplicialMap:
    """A vertex map whose induced simplex images land in the target."""

    __slots__ = ("source", "target", "vertex_map", "_images")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, vertex_map):
        vm = dict(vertex_map)
        target_vertices = set(target.vertices)
        for v in source.vertices:
            if v not in vm:
                raise UnknownVertex(v)
            if vm[v] not in target_vertices:
                raise UnknownVertex(vm[v])
        images = {s: tuple(sorted({vm[v] for v in s})) for s in source.simplices}
        for s, image in images.items():
            if not target.has_cell(image):
                raise MissingFace(s, image)
        self.source = source
        self.target = target
        self.vertex_map = vm
        self._images = images

    def image(self, simplex: Simplex) -> Simplex:
        """Image of a source simplex, with repeated image vertices
        collapsed."""
        image = self._images.get(tuple(simplex))
        if image is None:
            raise UnknownSimplex(simplex)
        return image

    def compose(self, inner: "SimplicialMap") -> "SimplicialMap":
        """self o inner (inner applied first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise NotComposable("inner map's target is not this map's source")
        return SimplicialMap(
            inner.source,
            self.target,
            {v: self.vertex_map[w] for v, w in inner.vertex_map.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.vertex_map == other.vertex_map
        )

    def __repr__(self):
        return f"SimplicialMap({len(self.vertex_map)} vertices)"


def identity_map(complex: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(complex, complex, {v: v for v in complex.vertices})


# ---------------------------------------------------------------------------
# Barycentric subdivision
# ---------------------------------------------------------------------------

def subdivision_vertex_simplices(complex: SimplicialComplex) -> list[Simplex]:
    """The simplices of the input in canonical order; the index of a
    simplex in this list is its vertex id in the subdivision."""
    return sorted(complex.simplices, key=lambda s: (len(s), s))


def _chains(complex: SimplicialComplex):
    """All strict chains s_0 < s_1 < ... < s_k in the face poset, as tuples
    of vertex ids of the subdivision.

    Ids are assigned by (dimension, lexicographic) order, so chain tuples
    are automatically strictly increasing.
    """
    simps = subdivision_vertex_simplices(complex)
    sid = {s: i for i, s in enumerate(simps)}
    ending_at: dict[Simplex, list[tuple[int, ...]]] = {}
    for s in simps:  # faces precede their cofaces in this order
        chains = [(sid[s],)]
        for f in faces(s, proper=True):
            if f in sid:
                for c in ending_at[f]:
                    chains.append(c + (sid[s],))
        ending_at[s] = chains
    all_chains = []
    for s in simps:
        all_chains.extend(ending_at[s])
    return simps, all_chains


def barycentric_subdivide(
    complex: SimplicialComplex, alpha: PLFunction | None = None
):
    """First barycentric subdivision, with the affine extension of alpha.

    The vertices of the result are the simplices of the input; the new
    value at the vertex for a simplex is the mean of the old values over
    its vertices (the affine extension evaluated at the barycenter).
    Returns (complex, plfunction) where the second entry is None when no
    alpha was given.
    """
    simps, chains = _chains(complex)
    subdivided = SimplicialComplex(chains, validate=False)
    new_alpha = None
    if alpha is not None:
        if alpha.complex != complex:
            raise UnknownVertex("alpha is not defined on this complex")
        new_alpha = PLFunction(
            subdivided, {i: alpha.barycenter_value(s) for i, s in enumerate(simps)}
        )
    return subdivided, new_alpha


# ---------------------------------------------------------------------------
# Signatures of the first subdivision of the standard n-simplex
# ---------------------------------------------------------------------------

def full_simplex_complex(n: int) -> SimplicialComplex:
    """The full n-simplex on vertices 0..n with all its faces."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return SimplicialComplex.from_maximal([tuple(range(n + 1))])


def signature_of_chain(chain: tuple[Simplex, ...]) -> tuple[int, ...]:
    """(|A_0|, |A_1 - A_0|, ..., |A_i - A_{i-1}|) for a nested chain."""
    sizes = [len(s) for s in chain]
    return tuple([sizes[0]] + [b - a for a, b in zip(sizes, sizes[1:])])


def _simplex_chains(n: int):
    simps, chains = _chains(full_simplex_complex(n))
    return [tuple(simps[i] for i in chain) for chain in chains]


def signature_census(n: int) -> dict[tuple[int, ...], int]:
    """Count simplices of the first subdivision of the n-simplex by
    signature. For a signature summing to n+1 the count is the multinomial
    (n+1)!/(s_0!...s_i!); in general the unused vertices contribute one
    more factorial in the denominator."""
    census: dict[tuple[int, ...], int] = {}
    for chain in _simplex_chains(n):
        sig = signature_of_chain(chain)
        census[sig] = census.get(sig, 0) + 1
    return census


def signature_barycenter_sums(n: int) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Signature-grouped alternating sums of subdivision barycenters.

    Each simplex of the subdivision is a chain (A_0, ..., A_i); its
    barycenter, written in the coordinates of the original vertices, has
    v-coordinate (1/(i+1)) * sum over the A_k containing v of 1/|A_k|.
    The group sum B(sig) adds (-1)^i times that vector over all chains
    with the given signature. For a full signature with i > 0 this
    cancels against B of its prefix.
    """
    sums: dict[tuple[int, ...], list[Fraction]] = {}
    zero = [Fraction(0)] * (n + 1)
    for chain in _simplex_chains(n):
        sig = signature_of_chain(chain)
        vec = sums.setdefault(sig, list(zero))
        sign = -1 if (len(chain) - 1) % 2 else 1
        scale = Fraction(sign, len(chain))
        for part in chain:
            share = scale / len(part)
            for v in part:
                vec[v] += share
    return {sig: tuple(vec) for sig, vec in sums.items()}


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

class ProductCellComplex:
    """Cell complex whose open cells are pairs of open cells of the two
    factors. Factors may themselves be products, so iterated products
    (e.g. a cube of three segments) are expressible.

    Cells are not re-triangulated: both Fubini theorems hold cellwise and
    re-triangulation would change the product metric.
    """

    __slots__ = ("factors", "_cells", "_vertices")

    def __init__(self, x, y):
        self.factors = (x, y)
        self._cells = frozenset(
            (a, b) for a in x.cells() for b in y.cells()
        )
        self._vertices = tuple(sorted((u, v) for u in x.vertices for v in y.vertices))

    @property
    def vertices(self):
        return self._vertices

    def cells(self):
        return iter(sorted(self._cells, key=lambda c: (self.cell_dim(c), c)))

    def cell_dim(self, cell) -> int:
        a, b = cell
        return self.factors[0].cell_dim(a) + self.factors[1].cell_dim(b)

    @property
    def dim(self) -> int:
        return max((self.cell_dim(c) for c in self._cells), default=-1)

    def has_cell(self, cell) -> bool:
        return cell in self._cells

    def cell_vertex_objects(self, cell):
        a, b = cell
        return tuple(
            itertools.product(
                self.factors[0].cell_vertex_objects(a),
                self.factors[1].cell_vertex_objects(b),
            )
        )

    def closure(self, cell):
        a, b = cell
        return tuple(
            (fa, fb)
            for fa in self.factors[0].closure(a)
            for fb in self.factors[1].closure(b)
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** self.cell_dim(c) for c in self._cells)

    def __len__(self):
        return len(self._cells)

    def __eq__(self, other):
        return (
            isinstance(other, ProductCellComplex)
            and self.factors == other.factors
        )

    def __repr__(self):
        return f"ProductCellComplex({len(self._cells)} cells)"


def product(x, y) -> ProductCellComplex:
    """The product cell complex of two carriers."""
    return ProductCellComplex(x, y)
