"""Finite abstract simplicial complexes, simplicial maps, PL vertex data.

A complex holds every simplex, not just the maximal ones, because every
integral in this package is a sum over all simplices. The d-simplices are
stored as the rows, in lexicographic order, of an (n_d, d+1) int64 array
of vertex positions (indices into the sorted vertex ids); the tuple views
(the simplex set, simplices_of_dim and cells()) are built from these
arrays on first use. Vertices are nonnegative integers local to a
complex; a simplex is a strictly increasing tuple of vertex ids. Vertex
data (PLFunction values) are exact rationals, stored as integer
numerators over one common denominator, so the combinatorial identities
downstream can be tested with equality rather than tolerances.

Also provided: barycentric subdivision with linear extension of vertex
data, product cell complexes, and the signature bookkeeping of the first
subdivision of a standard simplex.
"""

import functools
import itertools
import math
import operator
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


def faces(simplex: Simplex):
    """Yield the nonempty faces of a simplex, itself included."""
    for k in range(1, len(simplex) + 1):
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


_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


# Exact values are stored as integer numerators over one common
# denominator, in an int64 array where every number an operation forms
# from them provably stays below 2^63, and in an array of Python ints
# otherwise. Each operation states that bound and takes its dtype from
# _integer_array.
_INT64_LIMIT = 2**63


def _common_numerators(values) -> tuple[int, np.ndarray]:
    """(L, n) with value_i == n[i] / L, where L is the lcm of the
    denominators of the given rationals: their stored form."""
    values = list(values)
    common = math.lcm(*set(map(_denominator, values)))
    if common == 1:
        numerators = list(map(_numerator, values))
    else:
        numerators = [value.numerator * (common // value.denominator) for value in values]
    return common, _integer_array(numerators, max(map(abs, numerators), default=0))


def _integer_array(integers, bound: int) -> np.ndarray:
    """The integers as int64 when bound, a cap on every value the caller
    forms from them, is below 2^63; as Python ints (object) otherwise."""
    return np.asarray(integers, dtype=np.int64 if bound < _INT64_LIMIT else object)


def _magnitude(integers: np.ndarray) -> int:
    """max(1, max |n|) over an integer array, as a Python int: a factor
    of the overflow bounds, at least 1 so that it also covers the
    integers they are multiplied by."""
    if not len(integers):
        return 1
    return max(1, int(integers.max()), -int(integers.min()))


def _reduced(common: int, numerators: np.ndarray) -> tuple[int, np.ndarray]:
    """The canonical stored form of numerators / common: both divided by
    their gcd, which makes common the lcm of the reduced denominators,
    and the numerators in int64 when they fit."""
    if not numerators.any():  # no numerator to divide: 0 / 1
        return 1, _integer_array(numerators, 0)
    if common != 1:
        divisor = math.gcd(common, int(np.gcd.reduce(numerators)))
        if divisor != 1:
            common //= divisor
            numerators = numerators // divisor
    return common, _integer_array(numerators, _magnitude(numerators))


def _fractions(numerators: np.ndarray, common: int):
    """The Fractions numerators / common, one per entry, in order."""
    return map(Fraction, numerators.tolist(), itertools.repeat(common))


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """sum(a * b) over two integer arrays as a Python int: in int64 when
    no term or partial sum can reach 2^63, in Python ints otherwise."""
    bound = len(a) * _magnitude(a) * _magnitude(b)
    return int(np.dot(_integer_array(a, bound), _integer_array(b, bound)))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int64 array, in lexicographic order."""
    if len(rows) > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
        keep = np.empty(len(rows), dtype=bool)
        keep[0] = True
        np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
        rows = rows[keep]
    return rows


@functools.cache
def _face_columns(k: int, size: int) -> np.ndarray:
    """The column indices of the size-vertex faces of a k-vertex row, one
    face per row, in lexicographic order."""
    columns = np.array(list(itertools.combinations(range(k), size)), dtype=np.int64)
    columns.flags.writeable = False
    return columns.reshape(-1, size)


def facet_rows(rows: np.ndarray) -> np.ndarray:
    """The facets of the rows of an (n, k) array of increasing vertex
    positions, as an (n * k, k - 1) array whose row i * k + j is the j-th
    facet of row i."""
    k = rows.shape[1]
    return rows[:, _face_columns(k, k - 1)].reshape(-1, k - 1)


def _closure_rows(simplices) -> tuple[np.ndarray, list[np.ndarray]]:
    """(vertex ids, per-dimension position rows) of the face closure of
    the given canonical simplex tuples: the rows, as positions in the
    sorted vertex ids, go to _closure."""
    by_size: dict[int, list[Simplex]] = {}
    for s in simplices:
        by_size.setdefault(len(s), []).append(s)
    given = {k: np.array(g, dtype=np.int64) for k, g in by_size.items()}
    every = [g.reshape(-1, 1) for g in given.values()]
    ids = _sorted_rows(np.concatenate(every or [np.empty((0, 1), np.int64)]))[:, 0]
    return ids, _closure({k: np.searchsorted(ids, g) for k, g in given.items()}, len(ids))


def _closure(given: dict, n_vertices: int) -> list[np.ndarray]:
    """Per-dimension position rows of the face closure of the simplices
    given as {k: (n, k) array of strictly increasing vertex positions}
    on the vertices 0..n_vertices - 1, each of which is a 0-simplex.

    The closure runs on arrays from the top dimension down: the
    d-simplices are the distinct rows among the given ones of that size
    and the facets of the (d+1)-simplices.
    """
    rows = []
    above = None
    for k in range(max(given, default=1), 1, -1):
        parts = [] if above is None else [facet_rows(above)]
        if k in given:
            parts.append(given[k])
        above = _sorted_rows(np.concatenate(parts))
        rows.append(above)
    if n_vertices:
        rows.append(np.arange(n_vertices).reshape(-1, 1))
    return rows[::-1]


class _CellCarrier:
    """The cell-carrier protocol members that follow from the sorted
    _vertices, f_vector() and cell_indices(), shared by SimplicialComplex
    and ProductCellComplex so that Euler integration treats both alike.
    Subclasses give cells(), cell_dim, cell_vertex_objects and closure."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def dim(self) -> int:
        return len(self.f_vector()) - 1

    def has_cell(self, cell) -> bool:
        """Whether cell is a cell of this carrier; an unhashable cell
        raises TypeError, as set membership does."""
        hash(cell)
        return bool(self.cell_indices((cell,))[0] >= 0)

    def euler_characteristic(self) -> int:
        return sum(-n if d % 2 else n for d, n in enumerate(self.f_vector()))

    def __len__(self):
        return sum(self.f_vector())


class SimplicialComplex(_CellCarrier):
    """An immutable finite abstract simplicial complex.

    The empty complex is allowed (it shows up as the link of an isolated
    vertex). Equality and hashing are by simplex set. Simplices may be
    given as tuples of vertex ids: each is canonicalized with as_simplex
    and face closure is checked. Constructions on arrays (from_maximal,
    link, full_subcomplex, parse_complex, barycentric_subdivide) pass
    instead vertex_ids, the strictly increasing vertex ids, and rows,
    for each dimension 0..dim the distinct rows in lexicographic order
    of vertex positions of a face-closed set; both are taken as they
    are.
    """

    __slots__ = (
        "_ids", "_vertices", "_rows", "_simplices", "_by_dim", "_keys", "_cell_key_array", "_cells", "_cofaces"
    )

    def __init__(self, simplices=(), *, vertex_ids=None, rows=None):
        checked = None
        if rows is None:
            simplices = checked = frozenset(as_simplex(s) for s in simplices)
            validate_simplices(checked)
            vertex_ids, rows = _closure_rows(simplices)
        for array in (vertex_ids, *rows):
            array.flags.writeable = False
        self._ids = vertex_ids
        self._vertices = tuple(vertex_ids.tolist())
        self._rows = tuple(rows)
        self._simplices = checked  # the tuple views are built on first use
        self._by_dim: dict[int, tuple[Simplex, ...]] = {}
        self._keys: dict[int, np.ndarray] = {}
        self._cell_key_array = None  # built by the first _cell_keys call
        self._cells = None  # built by the first cells() call
        self._cofaces = None  # built by the first star or link call

    @classmethod
    def from_maximal(cls, maximal) -> "SimplicialComplex":
        """Build a complex as the face closure of the given simplices,
        each of which goes through as_simplex once."""
        vertex_ids, rows = _closure_rows(map(as_simplex, maximal))
        return cls(vertex_ids=vertex_ids, rows=rows)

    @property
    def simplices(self) -> frozenset:
        if self._simplices is None:
            self._simplices = frozenset(self.cells())
        return self._simplices

    def simplices_of_dim(self, d: int) -> tuple[Simplex, ...]:
        simplices = self._by_dim.get(d)
        if simplices is None:
            if not 0 <= d < len(self._rows):
                return ()
            simplices = self._by_dim[d] = tuple(zip(*self._ids[self._rows[d].T].tolist()))
        return simplices

    def vertex_positions(self, d: int) -> np.ndarray:
        """Read-only (n_d, d+1) int64 array whose row i holds the
        positions in self.vertices of the vertices of
        simplices_of_dim(d)[i]. Positions, not ids, so sparse vertex ids
        stay compact. This is the stored array itself."""
        if 0 <= d < len(self._rows):
            return self._rows[d]
        empty = np.empty((0, d + 1), dtype=np.int64)
        empty.flags.writeable = False
        return empty

    def simplex_indices(self, rows) -> np.ndarray:
        """Index in simplices_of_dim(k - 1) of each row of an (m, k) array
        of strictly increasing vertex positions, or -1 where the row is
        not a simplex.

        A row is keyed by (index of the face without its last vertex,
        last position), one dimension at a time, so a key stays below
        n_{k-2} * n_vertices: it cannot overflow int64 where a mixed radix
        over all k positions would. The cells() keys of SimplicialMap
        (_cell_keys) shift these by the start of each dimension in cells(),
        which needs len(self) * n_vertices < 2**63.
        """
        rows = np.asarray(rows, dtype=np.int64)
        index = rows[:, 0]  # a vertex's position is its 0-simplex index
        for d in range(1, rows.shape[1]):
            keys = self._simplex_keys(d)
            if not len(keys):
                return np.full(len(rows), -1, dtype=np.int64)
            query = index * len(self._ids) + rows[:, d]
            at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            index = np.where(keys[at] == query, at, -1)
        return index

    def _simplex_keys(self, d: int) -> np.ndarray:
        """The simplex_indices keys of the d-simplices (d >= 1). Rows are
        in lexicographic order, so the keys are strictly increasing."""
        keys = self._keys.get(d)
        if keys is None:
            rows = self.vertex_positions(d)
            keys = self.simplex_indices(rows[:, :-1]) * len(self._ids) + rows[:, -1]
            self._keys[d] = keys
        return keys

    def _cell_keys(self) -> np.ndarray:
        """The keys of every simplex of dimension >= 1, in cells() order:
        (cells() index of the face without the last vertex) * n_vertices
        + last position, which is _simplex_keys(d) shifted by the start
        of dimension d - 1 in cells(). They are strictly increasing, and
        end with the sentinel len(self) * n_vertices, above every key and
        query, so a searchsorted lookup always lands on an entry. Built
        once per complex, like _simplex_keys."""
        keys = self._cell_key_array
        if keys is None:
            n = len(self._ids)
            if len(self) * n >= _INT64_LIMIT:
                raise OverflowError(
                    f"{len(self)} simplices on {n} vertices: cell keys need "
                    "len(complex) * n_vertices < 2**63"
                )
            offsets = np.cumsum((0, *self.f_vector()))
            shifted = [self._simplex_keys(d) + offsets[d - 1] * n for d in range(1, self.dim + 1)]
            keys = self._cell_key_array = np.concatenate((*shifted, [len(self) * n]))
            keys.flags.writeable = False
        return keys

    def cell_indices(self, cells) -> np.ndarray:
        """Position in cells() order of each of the given cells, or -1
        where one is not a simplex of this complex: a strictly increasing
        tuple of its vertex ids, which are integers."""
        cells = tuple(cells)
        top = len(self._rows)
        sizes = [len(c) if isinstance(c, tuple) and len(c) <= top else 0 for c in cells]
        kept = itertools.chain.from_iterable(itertools.compress(cells, sizes))
        entries = np.fromiter(kept, dtype=object, count=sum(sizes))
        # an entry that is not an integer in [0, 2^63) becomes -1, which no id is
        integer = map(isinstance, entries, itertools.repeat((int, np.integer)))
        entries[~np.fromiter(integer, dtype=bool, count=len(entries))] = -1
        ids = np.where((entries >= 0) & (entries < _INT64_LIMIT), entries, -1).astype(np.int64)
        positions = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        known = self._ids[positions] == ids
        sizes = np.array(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        offsets = np.cumsum((0, *self.f_vector()))
        indices = np.full(len(cells), -1, dtype=np.int64)
        for k in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
            sel = np.flatnonzero(sizes == k)
            at = starts[sel, None] + np.arange(k)
            found = self.simplex_indices(positions[at])  # -1 for unsorted rows too
            valid = known[at].all(axis=1) & (found >= 0)
            indices[sel[valid]] = offsets[k - 1] + found[valid]
        return indices

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._rows))

    def cells(self) -> tuple[Simplex, ...]:
        """All simplices in (dimension, lexicographic) order, as a tuple
        built on first use."""
        if self._cells is None:
            self._cells = tuple(
                itertools.chain.from_iterable(map(self.simplices_of_dim, range(self.dim + 1)))
            )
        return self._cells

    def cell_dim(self, cell) -> int:
        return len(cell) - 1

    def cell_vertex_objects(self, cell):
        return cell

    def closure(self, cell):
        return tuple(faces(cell))

    def star(self, v: int) -> tuple[Simplex, ...]:
        """All simplices containing v (not closed under faces)."""
        if self._cofaces is None:
            cofaces: dict[int, list[Simplex]] = {u: [] for u in self._vertices}
            for s in self.simplices:
                for u in s:
                    cofaces[u].append(s)
            self._cofaces = {u: tuple(sorted(c)) for u, c in cofaces.items()}
        if v not in self._cofaces:
            raise UnknownVertex(v)
        return self._cofaces[v]

    def link(self, v: int) -> "SimplicialComplex":
        """The subcomplex { s : v not in s, s + {v} in X }."""
        link = (tuple(u for u in s if u != v) for s in self.star(v) if len(s) > 1)
        vertex_ids, rows = _closure_rows(link)
        return SimplicialComplex(vertex_ids=vertex_ids, rows=rows)

    def full_subcomplex(self, vertex_subset) -> "SimplicialComplex":
        """Simplices all of whose vertices lie in the given set."""
        keep = set(vertex_subset)
        vertex_ids, rows = _closure_rows(s for s in self.simplices if keep.issuperset(s))
        return SimplicialComplex(vertex_ids=vertex_ids, rows=rows)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def __eq__(self, other):
        # the stored arrays are canonical, so equal arrays mean equal sets
        return other is self or (
            isinstance(other, SimplicialComplex)
            and self.f_vector() == other.f_vector()
            and np.array_equal(self._ids, other._ids)
            and all(map(np.array_equal, self._rows, other._rows))
        )

    def __hash__(self):
        return hash((self._ids.tobytes(), *(rows.tobytes() for rows in self._rows)))

    def __contains__(self, simplex):
        return self.has_cell(tuple(simplex))

    def __repr__(self):
        return f"SimplicialComplex({len(self)} simplices, dim {self.dim})"


class PLFunction:
    """A function given by exact rational values on every vertex,
    extended affinely over each simplex.

    The values are stored as integer numerators over one common
    denominator, in complex.vertices order (common_numerators); the dict
    of Fractions, values, is built in full on first read."""

    __slots__ = ("complex", "_common", "_numerators", "_values")

    def __init__(self, complex: SimplicialComplex, values):
        vals = {v: Fraction(x) for v, x in dict(values).items()}
        known = set(complex.vertices)
        if vals.keys() != known:
            missing = [v for v in complex.vertices if v not in vals]
            raise UnknownVertex(missing[0] if missing else next(v for v in vals if v not in known))
        self.complex = complex
        self._common, self._numerators = _common_numerators(map(vals.__getitem__, complex.vertices))
        self._values = vals

    @classmethod
    def _from_numerators(cls, complex: SimplicialComplex, common: int, numerators: np.ndarray) -> "PLFunction":
        """Wrap the stored form, canonical as _reduced makes it, of
        values on the vertices of the complex, in their order."""
        f = object.__new__(cls)
        f.complex = complex
        f._common = common
        f._numerators = numerators
        f._values = None
        return f

    @property
    def values(self) -> dict:
        """{vertex: Fraction value}, built on first read."""
        if self._values is None:
            self._values = dict(zip(self.complex.vertices, _fractions(self._numerators, self._common)))
        return self._values

    def common_numerators(self) -> tuple[int, tuple[int, ...]]:
        """(L, (n_v, ...)) with values[v] == n_v / L for v in
        complex.vertices, L the lcm of the denominators."""
        return self._common, tuple(self._numerators.tolist())

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
            and self._common == other._common
            and np.array_equal(self._numerators, other._numerators)
        )

    def __repr__(self):
        return f"PLFunction(on {len(self.complex.vertices)} vertices)"


def constant_function(complex: SimplicialComplex, value) -> PLFunction:
    return PLFunction(complex, {v: Fraction(value) for v in complex.vertices})


class SimplicialMap:
    """A vertex map whose induced simplex images land in the target.

    The images are computed once per source dimension, on columns: the
    rows of source.vertex_positions(d) go through the vertex map, one
    column per vertex slot, and a compare-exchange network sorts each
    row across the columns. A walk from the left column then finds each
    image's index in the target's cells() order. The first column is a
    vertex, which is its own index. A column equal to its left neighbour
    repeats a vertex: it keeps the index and drops one dimension. Any
    other column adds a vertex: one searchsorted step among the target's
    cell keys (_cell_keys), where a miss gives -1 and stays -1. For each
    source cell, in cells() order, the map keeps the index of its image
    (image_indices) and the sign (-1)^(dim s - dim f(s)) (image_signs),
    the parity of the repeats.
    """

    __slots__ = ("source", "target", "vertex_map", "image_indices", "image_signs")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, vertex_map):
        vm = dict(vertex_map)
        target_vertices = set(target.vertices)
        for v in source.vertices:
            if v not in vm:
                raise UnknownVertex(v)
            if vm[v] not in target_vertices:
                raise UnknownVertex(vm[v])
        # position in target.vertices of each source vertex's image
        moved = np.searchsorted(
            target._ids, np.array([vm[v] for v in source.vertices], dtype=np.int64)
        )
        n = len(target._ids)
        keys = target._cell_keys()
        indices, signs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for d in range(source.dim + 1):
            columns = list(moved[source.vertex_positions(d).T])
            # a compare-exchange network: after the pairs (i, j > i),
            # column i holds the least of columns i..d
            for i, j in itertools.combinations(range(d + 1), 2):
                columns[i], columns[j] = np.minimum(columns[i], columns[j]), np.maximum(columns[i], columns[j])
            index = columns[0]  # a vertex's position is its cells() index
            odd = np.zeros(len(index), dtype=bool)  # parity of dim s - dim f(s)
            for left, column in zip(columns, columns[1:]):
                query = index * n + column  # a miss (-1) makes a negative query
                at = np.searchsorted(keys, query)
                repeat = column == left
                index = np.where(repeat, index, np.where(keys[at] == query, at + n, -1))
                odd ^= repeat
            missing = np.flatnonzero(index < 0)
            if len(missing):
                i = missing[0]
                image = sorted({target.vertices[p] for p in moved[source.vertex_positions(d)[i]].tolist()})
                raise MissingFace(source.simplices_of_dim(d)[i], tuple(image))
            indices.append(index)
            signs.append(np.where(odd, -1, 1))
        indices, signs = np.concatenate(indices), np.concatenate(signs)
        indices.flags.writeable = signs.flags.writeable = False
        self.source = source
        self.target = target
        self.vertex_map = vm
        self.image_indices = indices
        self.image_signs = signs

    def image(self, simplex: Simplex) -> Simplex:
        """Image of a source simplex, with repeated image vertices
        collapsed."""
        (i,) = self.source.cell_indices([tuple(simplex)])
        if i < 0:
            raise UnknownSimplex(simplex)
        return self.target.cells()[self.image_indices[i]]

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
    return list(complex.cells())


def barycentric_subdivide(
    complex: SimplicialComplex, alpha: PLFunction | None = None
):
    """First barycentric subdivision, with the affine extension of alpha.

    The vertices of the result are the simplices of the input, with the
    cells() index as vertex id; its simplices are the strict chains
    s_0 < ... < s_k of the face poset. Ids follow cells() order, so faces
    precede cofaces and each chain is a strictly increasing row. The
    chains are built on arrays, one length at a time, from every (face,
    proper coface) pair of the input, which simplex_indices finds.

    The new value at the vertex for a simplex is the mean of the old
    values over its vertices (the affine extension evaluated at the
    barycenter), summed as integer numerators over the common
    denominator. Returns (complex, plfunction) where the second entry is
    None when no alpha was given.
    """
    if alpha is not None and alpha.complex != complex:
        raise UnknownVertex("alpha is not defined on this complex")
    offsets = np.cumsum((0, *complex.f_vector()))  # id of each dimension's first simplex
    total = int(offsets[-1])
    face_ids, coface_ids = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for d in range(1, complex.dim + 1):
        rows = complex.vertex_positions(d)
        for k in range(1, d + 1):
            columns = _face_columns(d + 1, k)
            found = complex.simplex_indices(rows[:, columns].reshape(-1, k))
            face_ids.append(offsets[k - 1] + found)
            coface_ids.append(np.repeat(offsets[d] + np.arange(len(rows)), len(columns)))
    face_ids, coface_ids = np.concatenate(face_ids), np.concatenate(coface_ids)
    order = np.argsort(face_ids * total + coface_ids, kind="stable")
    face_ids, coface_ids = face_ids[order], coface_ids[order]
    # chains[k]: the chains of k + 1 simplices, in lexicographic order. The
    # chains starting at s are (s) and s + c for each chain c starting at a
    # proper coface of s; joining the pairs in (face, coface) order to the
    # shorter chains, which are grouped by first id, keeps that order.
    chains = [np.arange(total).reshape(-1, 1)] if total else []
    for _ in range(complex.dim):
        shorter = chains[-1]
        counts = np.bincount(shorter[:, 0], minlength=total)
        reps = counts[coface_ids]
        firsts = np.cumsum(reps) - reps
        at = np.repeat((np.cumsum(counts) - counts)[coface_ids] - firsts, reps) + np.arange(int(reps.sum()))
        chains.append(np.column_stack((np.repeat(face_ids, reps), shorter[at])))
    subdivided = SimplicialComplex(vertex_ids=np.arange(total), rows=chains)
    new_alpha = None
    if alpha is not None:
        # the value at simplex s is sum_{v in s} n_v / (L * (d + 1)); over
        # the common denominator L * lcm(1..dim+1) no number formed
        # passes max |n_v| * lcm(1..dim+1)
        scale = math.lcm(*range(1, complex.dim + 2))
        numerators = _integer_array(alpha._numerators, _magnitude(alpha._numerators) * scale)
        parts = [numerators[:0]]
        for d in range(complex.dim + 1):
            rows = complex.vertex_positions(d)
            sums = numerators[rows[:, 0]]
            for j in range(1, d + 1):
                sums += numerators[rows[:, j]]
            parts.append(sums * (scale // (d + 1)))
        new_alpha = PLFunction._from_numerators(
            subdivided, *_reduced(alpha._common * scale, np.concatenate(parts))
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


def _signatures(n: int):
    """The compositions (s_0, ..., s_i) of 1, ..., n+1, the signatures of
    the chains of faces of the n-simplex, by length and then in
    lexicographic order: one per increasing sequence of partial sums
    |A_0| < ... < |A_i| <= n+1."""
    for length in range(1, n + 2):
        for sizes in itertools.combinations(range(1, n + 2), length):
            yield tuple(map(operator.sub, sizes, (0, *sizes[:-1])))


def signature_census(n: int) -> dict[tuple[int, ...], int]:
    """Count simplices of the first subdivision of the n-simplex by
    signature. The permutations of the n+1 vertices act transitively on
    the chains of one signature, and a chain's stabilizer permutes each
    A_k - A_{k-1} and the unused vertices, so for a signature summing to
    n+1 the count is the multinomial (n+1)!/(s_0!...s_i!); in general the
    unused vertices contribute one more factorial in the denominator."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    top = math.factorial(n + 1)
    return {
        sig: top // math.prod(map(math.factorial, (*sig, n + 1 - sum(sig))))
        for sig in _signatures(n)
    }


def signature_barycenter_sums(n: int) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Signature-grouped alternating sums of subdivision barycenters.

    Each simplex of the subdivision is a chain (A_0, ..., A_i); its
    barycenter, written in the coordinates of the original vertices, has
    v-coordinate (1/(i+1)) * sum over the A_k containing v of 1/|A_k|.
    The group sum B(sig) adds (-1)^i times that vector over all chains
    with the given signature. For a full signature with i > 0 this
    cancels against B of its prefix. The vertex permutations permute
    these chains and their barycenters' coordinates, so B(sig) is constant:
    each entry is (-1)^i * count / (n+1), as a barycenter's sum to 1.
    """
    return {
        sig: (Fraction(-count if len(sig) % 2 == 0 else count, n + 1),) * (n + 1)
        for sig, count in signature_census(n).items()
    }


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

class ProductCellComplex(_CellCarrier):
    """Cell complex whose open cells are pairs of open cells of the two
    factors. Factors may themselves be products, so iterated products
    (e.g. a cube of three segments) are expressible.

    Cells are not re-triangulated: both Fubini theorems hold cellwise and
    re-triangulation would change the product metric.
    """

    __slots__ = ("factors", "_vertices", "_order", "_index")

    def __init__(self, x, y):
        self.factors = (x, y)
        self._vertices = tuple(itertools.product(x.vertices, y.vertices))  # both sorted
        self._order = None  # built by the first cells() call
        self._index = None  # built by the first cell_indices() call

    def cells(self) -> tuple:
        """All cells in (dimension, lexicographic) order, as a tuple built
        on first use."""
        if self._order is None:
            pairs = itertools.product(*(f.cells() for f in self.factors))
            self._order = tuple(sorted(pairs, key=lambda c: (self.cell_dim(c), c)))
        return self._order

    def cell_indices(self, cells) -> np.ndarray:
        """Position in cells() order of each of the given cells, or -1
        where one is not a cell of this complex."""
        if self._index is None:
            self._index = {c: i for i, c in enumerate(self.cells())}
        return np.fromiter((self._index.get(c, -1) for c in cells), dtype=np.int64)

    def f_vector(self) -> tuple[int, ...]:
        """Cells per dimension: a k-cell pairs an i-cell of the first
        factor with a (k - i)-cell of the second."""
        x, y = (f.f_vector() for f in self.factors)
        return tuple(np.convolve(x, y).tolist()) if x and y else ()

    def cell_dim(self, cell) -> int:
        a, b = cell
        return self.factors[0].cell_dim(a) + self.factors[1].cell_dim(b)

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

    def __eq__(self, other):
        return (
            isinstance(other, ProductCellComplex)
            and self.factors == other.factors
        )

    def __repr__(self):
        return f"ProductCellComplex({len(self)} cells)"


def product(x, y) -> ProductCellComplex:
    """The product cell complex of two carriers."""
    return ProductCellComplex(x, y)
