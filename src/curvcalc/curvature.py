"""Angle-defect curvature of embedded complexes.

The curvature at a vertex is the alternating sum, over the simplices
containing it, of normal-cone fractions: the fraction of the unit sphere
of directions under which that vertex is the strict maximum of the
simplex. Closed forms cover simplices of dimension <= 3 in any ambient
dimension; larger simplices and product cells use seeded Monte Carlo.
Every float result carries an error bound (0 for exact values); bounds
propagate by summation.

Exact curvature reads the simplex rows: every term of a closed form is
an angle of a triangle face, so one triangle-angle table serves every
simplex, and one bincount sums the signed fractions of every (simplex,
vertex) slot. Monte Carlo pads the cells into an mc.build_cell_arrays table.

An Embedding of a simplicial complex rejects affinely degenerate
simplices: a d-simplex whose (d, N) matrix E of edge vectors from its
first vertex has fewer than d singular values (d > N, the ambient
dimension), a non-finite entry (finite coordinates whose difference
overflows), or a smallest singular value at most _DEGENERACY_RTOL *
largest. A Gram screen clears one with d <= 3 when det G > _SCREEN_RTOL
* F^(2d), G = E E^T, F^2 = trace G >= _SCREEN_TINY (so the threshold is
a normal float); the rest take an SVD. DegenerateSimplex reports the
first in (dimension, lexicographic) order. The check and the angle table
gather rows in chunks under mc.KERNEL_BUDGET_BYTES; the table scales each
edge whose norm leaves [2^-500, 2^500] by a power of two, so that every
accepted simplex, at any scale, gets the angles of its unit copy, whatever
other simplices share its chunk.

equilateral_embedding keeps no matrix: every simplex of it is regular
by construction, so it is not checked, its exact curvature is the Euler
weight of euler.weights, and its Monte Carlo heights are iid (see
height_source). Gaussian heights read each column of one sign less its
coordinate nearest 0 (centred_coordinates), so a translate of a complex
far from the origin gets the heights of one near it.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .complexes import PLFunction, ProductCellComplex, SimplicialComplex, facet_rows
from .euler import weights
from .errors import (
    DegenerateSimplex,
    ExactUnavailable,
    NonFiniteCoordinate,
    PieceNotSubcomplex,
    UnknownSimplex,
    UnknownVertex,
)
from . import _kernels, mc

_DEGENERACY_RTOL = 1e-9
# the Gram screen in front of the SVD: see _gram_clears
_SCREEN_RTOL = 1e-12
_SCREEN_TINY = 1e-90  # so that _SCREEN_RTOL * F^6 stays a normal float
_SCREEN_MAX_AMBIENT = 4096
_HEIGHT_SCALE_EXPONENT = 400


class ValueWithError(NamedTuple):
    value: float
    bound: float


class Embedding:
    """Vertex coordinates in an ambient Euclidean space.

    The carrier may be a simplicial complex (each simplex is checked for
    affine nondegeneracy by the rule in the module docstring) or a
    product cell complex, whose cells are nondegenerate whenever the
    factors are. coordinates is a mapping {vertex: vector}, whose rows, in
    vertex_order, are carrier.vertices followed by any other keys in the
    order given; or an (n, N) array with one row per carrier vertex, in
    carrier.vertices order, which a float64 array gives without a copy
    when neither it nor any array under it is writable. The coordinates and vertex_index dicts are built on first use.

    equilateral_embedding and its restrictions keep an implicit form
    instead of a matrix: a scale c and, per vertex of carrier.vertices,
    a column, row i being c e_columns[i]. Heights, exact curvature,
    restrict, excess_angle and product_embedding read that form, and
    matrix() and coordinates build the matrix only when read.
    """

    _matrix = None  # None in the implicit form until matrix() is read
    _scale = None  # the implicit form's c and columns, None otherwise
    _columns = None
    _coordinates = None
    _vertex_index = None

    def __init__(self, carrier, coordinates):
        if isinstance(coordinates, np.ndarray):
            order = carrier.vertices
            matrix = coordinates
            if matrix.dtype != float or not _frozen(matrix):
                matrix = np.array(matrix, dtype=float)
            if matrix.shape[:1] != (len(order),) or matrix.ndim != 2:
                raise ValueError(
                    f"a coordinate array needs one row per carrier vertex, ({len(order)}, N); "
                    f"got shape {matrix.shape}"
                )
        else:
            order, matrix = _coordinate_rows(carrier, dict(coordinates))
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise NonFiniteCoordinate(order[int(np.argmin(finite))])
        matrix.flags.writeable = False
        self.carrier = carrier
        self.ambient_dim = matrix.shape[1]
        self._matrix = matrix
        self._vertex_order = order
        if isinstance(carrier, SimplicialComplex):
            self._check_nondegenerate()

    @classmethod
    def _implicit(cls, complex: SimplicialComplex, scale: float, columns: np.ndarray, ambient_dim: int):
        """The embedding of a simplicial complex whose row i is scale *
        e_columns[i] in R^ambient_dim, for distinct columns: every simplex
        is a regular one of side scale * sqrt(2), so none is checked."""
        self = cls.__new__(cls)
        self.carrier = complex
        self.ambient_dim = ambient_dim
        self._scale = scale
        self._columns = columns
        self._vertex_order = complex.vertices
        return self

    def _check_nondegenerate(self) -> None:
        """The module docstring's rule and screen, per dimension, in row chunks
        whose gathers and Gram temporaries fit the kernel budget; an SVD decides the rest.
        The carrier's vertices are the first matrix rows, so its vertex
        positions index the matrix."""
        n, matrix = self.ambient_dim, self.matrix()
        for d in range(1, self.carrier.dim + 1):
            if d > n:  # fewer singular values than generators
                raise DegenerateSimplex(self.carrier.simplices_of_dim(d)[0])
            ids = self.carrier.vertex_positions(d)
            for lo, chunk in _row_chunks(ids, 8 * ((2 * d + 1) * n + d * d + 8)):
                with np.errstate(over="ignore"):  # edge-major: (d, rows, N)
                    edges = matrix[chunk[:, 1:].T] - matrix[chunk[:, 0]]
                rows = np.arange(len(chunk))
                if d <= 3 and n <= _SCREEN_MAX_AMBIENT:
                    rows = rows[~_gram_clears(edges)]
                    edges = edges[:, rows]
                degenerate = _rule_flags(edges.transpose(1, 0, 2))
                del edges  # freed before the next chunk's are built
                if degenerate.any():
                    first = lo + int(rows[np.argmax(degenerate)])
                    raise DegenerateSimplex(self.carrier.simplices_of_dim(d)[first])

    @property
    def vertex_order(self):
        return self._vertex_order

    @property
    def coordinates(self) -> dict:
        """{vertex: read-only row of matrix()}, in vertex_order."""
        if self._coordinates is None:
            self._coordinates = dict(zip(self._vertex_order, self.matrix()))
        return self._coordinates

    @property
    def vertex_index(self) -> dict:
        """{vertex: its row in matrix()}."""
        if self._vertex_index is None:
            self._vertex_index = dict(zip(self._vertex_order, range(len(self._vertex_order))))
        return self._vertex_index

    def matrix(self) -> np.ndarray:
        """Read-only (n_vertices, N) coordinate matrix in vertex_order;
        the implicit form builds it on the first read."""
        if self._matrix is None:
            self._matrix = self._rows(np.arange(len(self._vertex_order)))
            self._matrix.flags.writeable = False
        return self._matrix

    def _rows(self, positions) -> np.ndarray:
        """A fresh (len(positions), N) array of the coordinate rows at
        these positions in vertex_order."""
        if self._scale is None:
            return self._matrix[positions]
        rows = np.zeros((len(positions), self.ambient_dim))
        rows[np.arange(len(positions)), self._columns[positions]] = self._scale
        return rows

    def _height_source(self, sizes) -> mc.Source:
        """height_source of matrix(), which the implicit form picks
        without building the matrix."""
        if self._scale is None:
            return height_source(self._matrix, sizes)
        return _iid_source(len(self._vertex_order), sizes)

    def _direction_heights(self, x) -> list:
        """<x, row> for each coordinate row in vertex_order, on the
        coordinates that Gaussian heights read: centred, then rescaled."""
        if self._scale is None:
            return [float(np.dot(x, row)) for row in height_coordinates(centred_coordinates(self._matrix))]
        # row i is c e_columns[i]: its height is a rescaled c times one entry of x
        return (height_coordinates(np.array([self._scale]))[0] * x[self._columns]).tolist()

    def restrict(self, subcomplex: SimplicialComplex) -> "Embedding":
        if subcomplex == self.carrier:  # already checked
            return self
        positions = _piece_positions(self.carrier, subcomplex)
        if positions is None:
            raise PieceNotSubcomplex(f"{subcomplex!r} is not a subcomplex of the carrier")
        if self._scale is not None:
            return Embedding._implicit(subcomplex, self._scale, self._columns[positions], self.ambient_dim)
        rows = self._rows(positions)
        rows.flags.writeable = False  # a fresh copy, kept as it is
        return Embedding(subcomplex, rows)


def _piece_positions(carrier, piece):
    """The positions in carrier.vertices, so the coordinate rows, of the
    vertices of piece, or None unless both are simplicial, carrier holds
    every vertex id of piece and every simplex of piece, as a row of
    carrier positions, is a simplex of carrier."""
    if not all(isinstance(c, SimplicialComplex) for c in (carrier, piece)):
        return None
    # vertex ids are sorted in both, so positions keep every row increasing
    positions = np.searchsorted(carrier._ids, piece._ids)
    if (positions == len(carrier._ids)).any() or (carrier._ids[positions] != piece._ids).any():
        return None
    rows = (positions[piece.vertex_positions(d)] for d in range(piece.dim + 1))
    return positions if all((carrier.simplex_indices(r) >= 0).all() for r in rows) else None


def _frozen(array: np.ndarray) -> bool:
    """True when nothing can write the array's data: it and every array
    in its base chain are read-only, and the chain ends in no other
    buffer (a bytearray or mmap could still be written)."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def _coordinate_rows(carrier, coordinates: dict) -> tuple[tuple, np.ndarray]:
    """(vertex order, float matrix) of a {vertex: vector} mapping that
    covers carrier.vertices: those first, then its other keys."""
    for v in carrier.vertices:
        if v not in coordinates:
            raise UnknownVertex(v)
    order = tuple(dict.fromkeys([*carrier.vertices, *coordinates]))
    rows = [coordinates[v] for v in order]
    try:
        matrix = np.array(rows, dtype=float) if rows else np.zeros((0, 0))
    except ValueError:  # a row that is no vector of floats raises here
        dims = {np.asarray(r, dtype=float).shape for r in rows}
        raise ValueError(f"mixed coordinate dimensions: {dims}") from None
    if matrix.ndim != 2:
        raise ValueError(
            f"coordinates must be vectors of floats, one per vertex; vertex {order[0]!r} "
            f"has shape {np.shape(rows[0])}"
        )
    return order, matrix


def _row_chunks(rows: np.ndarray, row_bytes: int) -> list:
    """(lo, rows[lo : lo + step]) chunks whose row_bytes each fit in mc.KERNEL_BUDGET_BYTES."""
    step = max(1, mc.KERNEL_BUDGET_BYTES // max(row_bytes, 1))
    return [(lo, rows[lo : lo + step]) for lo in range(0, len(rows), step)]


def _rule_flags(edges: np.ndarray) -> np.ndarray:
    """Which rows of an (m, d, N) stack of edge vectors the rule flags,
    from one stacked SVD; non-finite rows are zeroed, so flagged."""
    if not len(edges):
        return np.zeros(0, dtype=bool)
    edges[~np.isfinite(edges).all(axis=(1, 2))] = 0.0
    sv = np.linalg.svd(edges, compute_uv=False)
    return sv[:, -1] <= _DEGENERACY_RTOL * sv[:, 0]


def _gram_clears(edges: np.ndarray) -> np.ndarray:
    """Which rows of a (d, m, N) stack of edge vectors, d <= 3, the
    module docstring's screen clears; the rule flags none of them.

    sigma_max <= F and sigma_min^2 >= det G / F^(2(d-1)), so a cleared
    row has sigma_min > 1e-6 * sigma_max, and a flagged row has a true
    det G <= 1e-18 * F^(2d). The computed det G (see _leibniz_det) is off
    by at most (N + 2) u F^(2d), u = 2^-53: each Gram entry is a dot
    product of N terms, off by at most N u |e_i| |e_j| (Higham, ch. 3),
    so each of the d! products, at most prod |e_i|^2 <= (F^2 / d)^d,
    moves by at most (d N + d! + d) u of that with its own rounding and
    the sum's (ch. 14). For N <= _SCREEN_MAX_AMBIENT that is below
    5e-13 * F^(2d), half the threshold S, so a flagged row is never
    cleared; rounding moves S by a relative 2 d (N + d) u at most.
    F^2 >= 1e-90 keeps S >= 1e-282 normal, so all underflows together move
    det G by under 1e-30 S; an overflow makes det G or S infinite.
    """
    d = edges.shape[0]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = {}
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            g[i, j] = g[j, i] = np.einsum("mk,mk->m", edges[i], edges[j])
        f2 = sum(g[i, i] for i in range(d))
        det = _leibniz_det(g, d)
        return np.isfinite(det) & (f2 >= _SCREEN_TINY) & (det > _SCREEN_RTOL * f2**d)


def _leibniz_det(g, d: int):
    """det of the d x d matrix of arrays g[i, j]: the sum of d! signed products."""
    det = 0
    for p in itertools.permutations(range(d)):
        term = math.prod((g[i, p[i]] for i in range(1, d)), start=g[0, p[0]])
        det = det - term if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else det + term
    return det


def equilateral_embedding(complex: SimplicialComplex) -> Embedding:
    """Scaled coordinate-vector embedding: vertex v goes to
    (sqrt(2)/2) e_v, so every edge has length 1 and every simplex is a
    regular unit-side simplex. It is kept in the implicit form (see
    Embedding), without the n x n matrix, and nothing is checked: every
    simplex is regular by construction."""
    n = len(complex.vertices)
    return Embedding._implicit(complex, math.sqrt(2.0) / 2.0, np.arange(n), n)


def product_embedding(ex: Embedding, ey: Embedding) -> Embedding:
    """Coordinatewise embedding of the product of two embedded carriers."""
    carrier = ProductCellComplex(ex.carrier, ey.carrier)
    nx, ny = len(ex.vertex_order), len(ey.vertex_order)
    rows = np.concatenate(
        [ex._rows(np.repeat(np.arange(nx), ny)), ey._rows(np.tile(np.arange(ny), nx))], axis=1
    )
    return Embedding(carrier, dict(zip(itertools.product(ex.vertex_order, ey.vertex_order), rows)))


def centred_coordinates(coords: np.ndarray) -> np.ndarray:
    """coords less, in each column of one sign, its coordinate nearest 0,
    so heights read no common offset: a far translate of a complex gets
    the heights of one near the origin. A column whose range holds 0
    keeps its values. In any other, the coordinates nearest 0 become
    exact zeros and every other one moves toward 0, not past it, with at
    most one rounding below its own last place. No coordinate grows, so
    the largest magnitude that height_coordinates scales by only falls,
    and a small feature near 0 keeps its coordinates exactly."""
    if not len(coords):
        return coords
    low, high = coords.min(axis=0), coords.max(axis=0)
    return coords - np.where(low > 0.0, low, np.where(high < 0.0, high, 0.0))


def height_coordinates(coords: np.ndarray) -> np.ndarray:
    """The coordinate matrix that Monte Carlo and Morse heights read.

    A nonzero matrix is scaled by the power of two that brings its
    largest magnitude into [2**399, 2**400): dot products with Gaussian
    direction rows stay finite, and coordinates far below the largest,
    subnormal ones included, keep their bits in the heights. Scaling up
    is exact, and scaling down is exact for every coordinate of
    magnitude 2**-398 or more, so neither changes a height comparison.
    """
    big = float(np.abs(coords).max(initial=0.0))
    if big == 0.0:
        return coords
    return np.ldexp(coords, _HEIGHT_SCALE_EXPONENT - math.frexp(big)[1])


def height_source(coords: np.ndarray, sizes: np.ndarray) -> mc.Source:
    """The mc heights source of a coordinate matrix, for a table of these sizes.

    A coordinate-vector matrix, whose rows each hold one nonzero entry,
    one common positive value c, in distinct columns, has iid heights:
    the height of row v along a Gaussian direction x is c x_j for its own
    column j, so the order of a row's heights is a uniformly random
    permutation: it gets _iid_source. Any other matrix gets the Gaussian
    source of the height_coordinates of its centred_coordinates.
    """
    rows, cols = np.nonzero(coords)
    values = coords[rows, cols]
    n = len(coords)
    if (
        n
        and np.array_equal(rows, np.arange(n))
        and values[0] > 0.0
        and (values == values[0]).all()
        and np.bincount(cols).max() == 1
    ):
        return _iid_source(n, sizes)
    return mc.gaussian_source(height_coordinates(centred_coordinates(coords)))


def _iid_source(n: int, sizes: np.ndarray) -> mc.Source:
    """The source of n iid heights a row: mc.rank_source where the kernels
    would rank heights (_kernels.uses_ranks), and mc.key_source otherwise."""
    return mc.rank_source(n) if _kernels.uses_ranks(n, sizes) else mc.key_source(n)


# ---------------------------------------------------------------------------
# Normal-cone fractions
# ---------------------------------------------------------------------------

# For slot v of a tetrahedron, the (face, slot in the face) of its three
# faces at v, face f being row f of the tetrahedron's facet_rows. In
# lexicographic order they are (v, a, b) for the pairs a < b of the other
# slots in combinations order.
_TET_FACES = list(itertools.combinations(range(4), 3))
_TET_CORNERS = np.array(
    [[(f, face.index(v)) for f, face in enumerate(_TET_FACES) if v in face] for v in range(4)]
)


def _norm(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=-1), by the same operations."""
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


@np.errstate(over="ignore")  # an overflowed edge norm is caught and redone
def _triangle_angles(coords: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """The (n, 3) interior angles of the triangles whose vertices are the
    coords rows in each row of an (n, 3) array, at slots 0, 1 and 2.

    Each triangle's edges e01 = p0 - p1, e02 = p0 - p2 and e12 = p1 - p2
    are normalized once, and the angle between unit vectors a and b is
    2 atan2(|a - b|, |a + b|), which stays accurate for nearly parallel or
    opposite edges: (u01, u02) at slot 0, (-u01, u12) at slot 1 and
    (-u02, -u12) at slot 2, the signs folded into the norms. An edge whose
    norm leaves [2^-500, 2^500], where squares near the float limits
    overflow or lose their bits, is scaled exactly by the power of two
    that brings its largest entry into [1/2, 1), and its norm is taken
    again; inside that range the squares that underflow move a norm by
    under N 2^-74 of itself. So every angle is a function of its own
    triangle alone. Rows go in chunks whose gathers and temporaries,
    under 9 floats per row and ambient coordinate, fit in
    mc.KERNEL_BUDGET_BYTES.
    """
    angles = np.empty(triangles.shape)
    for lo, chunk in _row_chunks(triangles, 8 * 9 * coords.shape[1]):
        edges = coords[chunk[:, [0, 0, 1]].T] - coords[chunk[:, [1, 2, 2]].T]  # (3, rows, N)
        norm = _norm(edges)
        far = ~((norm >= 2.0**-500) & (norm <= 2.0**500))
        if far.any():  # squares near the float limits: those edges to [1/2, 1) by a power of two
            scaled = edges[far]
            big = np.abs(scaled).max(axis=-1, keepdims=True, initial=0.0)
            np.ldexp(scaled, -np.frexp(big)[1], out=scaled)
            edges[far] = scaled
            norm[far] = _norm(scaled)
        edges /= norm[..., None]
        u01, u02, u12 = edges
        at = angles[lo : lo + len(chunk)]
        at[:, 0] = 2.0 * np.arctan2(_norm(u01 - u02), _norm(u01 + u02))
        at[:, 1] = 2.0 * np.arctan2(_norm(u01 + u12), _norm(u01 - u12))
        at[:, 2] = 2.0 * np.arctan2(_norm(u02 - u12), _norm(u02 + u12))
    return angles


def _exact_fractions(coords: np.ndarray, complex: SimplicialComplex) -> list:
    """[(rows, fractions)] per dimension d of the complex: rows is
    complex.vertex_positions(d), and fractions the (n_d, d + 1) exact
    normal-cone fractions of its simplices at their slots. Vertex
    positions are coords rows.

    At a vertex v with m other vertices w the cone is where all the
    generators g = p_v - p_w have nonnegative dot products with the
    direction. Its sphere fraction is the Gaussian orthant probability of
    the generators, which depends only on the angles theta_ij between
    them. For m <= 3 it is, in any ambient dimension,
      (1 + C(m, 2)) / 2^m - sum_{i<j} theta_ij / (2^(m-1) pi)
    (Sheppard 1899; Plackett 1954): 1 at a vertex, 1/2 on an edge. The
    angle between p_v - p_a and p_v - p_b is the angle at v of the
    triangle (v, a, b), so one _triangle_angles table serves every
    triangle and every tetrahedron on it; a tetrahedron finds its faces
    with simplex_indices and sums their angles at v in combinations order.
    """
    _exact_dim_rule(complex)
    rows = [complex.vertex_positions(d) for d in range(complex.dim + 1)]
    fractions = [np.full(r.shape, 1.0 / (d + 1)) for d, r in enumerate(rows[:2])]
    if len(rows) > 2:
        angles = _triangle_angles(coords, rows[2])
        fractions.append(2 / 4 - angles / (2 * math.pi))
    if len(rows) > 3:
        faces = complex.simplex_indices(facet_rows(rows[3])).reshape(-1, 4)
        corners = angles[faces[:, _TET_CORNERS[..., 0]], _TET_CORNERS[..., 1]]  # (n_3, 4, 3)
        theta = corners[..., 0] + corners[..., 1] + corners[..., 2]
        fractions.append(4 / 8 - theta / (4 * math.pi))
    return list(zip(rows, fractions))


def _exact_dim_rule(complex: SimplicialComplex) -> None:
    if complex.dim > 3:
        raise ExactUnavailable(f"no exact cone fraction for {complex.dim} generators")


def _cell_table(embedding: Embedding):
    """The mc.build_cell_arrays table of every cell of the carrier, in
    carrier.cells() order."""
    carrier = embedding.carrier
    if isinstance(carrier, SimplicialComplex):  # its vertices are the first coordinate rows
        return mc.build_cell_arrays(mc.simplex_rows(carrier))
    vertex_index = embedding.vertex_index
    cells = [
        ([vertex_index[v] for v in carrier.cell_vertex_objects(c)], carrier.cell_dim(c))
        for c in carrier.cells()
    ]
    groups = []
    # runs of equal size, so the table keeps the cells() order
    for _, run in itertools.groupby(cells, key=lambda cell: len(cell[0])):
        ids, dims = zip(*run)
        groups.append((np.array(ids, dtype=np.int64), np.array(dims, dtype=np.int64)))
    return mc.build_cell_arrays(groups)


def _cone_fractions(source, n_vertices, cells, sizes, samples, seed):
    """Monte Carlo normal-cone fraction and its error bound for every
    (cell, vertex slot) pair of a table from mc.build_cell_arrays, whose
    vertex ids are the rows of the heights source's n_vertices."""
    counts, stats = mc.run_cone_counts(source, cells, sizes, n_vertices, samples, seed)
    # Over P tie-free pairs a slot of a cell with two or more vertices hits
    # at most once per pair, so its count c is binomial(P, 2p): the
    # estimate c / 2P has half the bound of c / P. A vertex hits its own
    # cell twice per pair, so c = 2P: fraction 1, bound 0.
    pairs = stats.pairs
    fractions = counts / (2.0 * pairs)
    bounds = np.zeros(cells.shape)
    multi = sizes > 1
    bounds[multi] = 0.5 * mc.smoothed_binomial_stderr(counts[multi], pairs)
    return fractions, bounds


def _exact_carrier(embedding: Embedding) -> SimplicialComplex:
    if not isinstance(embedding.carrier, SimplicialComplex):
        raise ExactUnavailable("exact cone fractions apply to simplicial carriers only")
    return embedding.carrier


def excess_angle(
    simplex,
    v,
    embedding: Embedding,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> ValueWithError:
    """Normal-cone fraction of one simplex at one of its vertices; the
    exact one is that of the simplex in its face closure."""
    simplex = tuple(simplex)
    carrier = embedding.carrier
    if not carrier.has_cell(simplex):
        raise UnknownSimplex(simplex)
    if method == "exact":
        _exact_carrier(embedding)
    vertices = carrier.cell_vertex_objects(simplex)
    if v not in vertices:
        raise UnknownVertex(v)
    coords = embedding._rows([embedding.vertex_index[w] for w in vertices])
    slot = vertices.index(v)
    if method == "exact":  # the closure's vertex positions are the slots
        _, fractions = _exact_fractions(coords, SimplicialComplex.from_maximal([simplex]))[-1]
        return ValueWithError(float(fractions[0, slot]), 0.0)
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    ids = np.arange(len(vertices), dtype=np.int64).reshape(1, -1)
    cells, sizes, _ = mc.build_cell_arrays([(ids, carrier.cell_dim(simplex))])
    source = height_source(coords, sizes)
    fractions, bounds = _cone_fractions(source, len(coords), cells, sizes, samples, seed)
    return ValueWithError(float(fractions[0, slot]), float(bounds[0, slot]))


# ---------------------------------------------------------------------------
# Vertex curvature
# ---------------------------------------------------------------------------

def _vertex_measure(vertices, values: np.ndarray, bounds: np.ndarray) -> dict:
    """{vertex: ValueWithError} from per-vertex value and bound arrays, in
    the order of vertices."""
    pairs = zip(values.tolist(), bounds.tolist())
    return dict(zip(vertices, map(tuple.__new__, itertools.repeat(ValueWithError), pairs)))


def curvature_measure(
    embedding: Embedding,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Curvature mass at every vertex, as {vertex: (value, bound)}.

    The Monte Carlo estimator shares one direction stream across all
    simplices, so the per-vertex bound (the sum of the per-term standard
    errors of _cone_fractions) upper-bounds the standard deviation of the
    signed sum. Exact values have bound 0; on the implicit form every
    simplex is regular, a d-simplex's fraction is 1/(d+1) at each vertex,
    and the exact curvature is the Euler weight, euler.weights."""
    n = len(embedding.vertex_order)
    if method == "exact":
        carrier = _exact_carrier(embedding)
        if embedding._scale is not None:
            _exact_dim_rule(carrier)
            values = np.fromiter(map(float, weights(carrier).values()), dtype=float, count=n)
        else:  # carrier.vertices are the first coordinate rows
            # one bincount of the signed fraction of every slot, by dimension, then row by row
            slots = _exact_fractions(embedding.matrix(), carrier)
            ids = np.concatenate([np.zeros(0, dtype=np.int64), *(rows.ravel() for rows, _ in slots)])
            signed = [(-f if d % 2 else f).ravel() for d, (_, f) in enumerate(slots)]
            values = np.bincount(ids, weights=np.concatenate([np.zeros(0), *signed]), minlength=n)
        return _vertex_measure(embedding.vertex_order, values, np.zeros(n))
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    cells, sizes, signs = _cell_table(embedding)
    source = embedding._height_source(sizes)
    fractions, bounds = _cone_fractions(source, n, cells, sizes, samples, seed)
    filled = np.arange(cells.shape[1]) < sizes[:, None]
    ids = cells[filled]
    values = np.bincount(ids, weights=(signs[:, None] * fractions)[filled], minlength=n)
    totals = np.bincount(ids, weights=bounds[filled], minlength=n)
    return _vertex_measure(embedding.vertex_order, values, totals)


def curvature_integral(
    alpha: PLFunction,
    embedding: Embedding,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> ValueWithError:
    """Integral of a PL function against the vertex curvature measure:
    sum over vertices of alpha(v) * kappa(v)."""
    if alpha.complex != embedding.carrier:
        raise UnknownVertex("alpha is not defined on the embedded complex")
    weights = {}
    for v in alpha.complex.vertices:  # the embedding may hold other coordinate keys
        try:
            weights[v] = float(alpha.values[v])
        except OverflowError:
            raise ValueError(f"vertex {v!r}: its alpha value lies beyond the float range") from None
    kappa = curvature_measure(embedding, method, samples, seed)
    value = 0.0
    bound = 0.0
    for v, a in weights.items():
        k, b = kappa[v]
        value += a * k
        bound += abs(a) * b
    return ValueWithError(value, bound)


def final_integral(
    embedding: Embedding,
    pieces,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> ValueWithError:
    """Integral of a sum of compactly supported PL pieces.

    Each piece is (subcomplex, alpha-on-subcomplex); each is integrated
    against the curvature measure of its own subcomplex under the
    restricted embedding, with the seed mc.offset_seed(seed, i) for piece
    i, and the results are added. This is how open or discontinuous
    integrands are handled: write them as a signed sum of functions on
    closed subcomplexes first.
    """
    value = 0.0
    bound = 0.0
    for i, (piece, alpha) in enumerate(pieces):
        restricted = embedding.restrict(piece)
        if alpha.complex != piece:
            raise PieceNotSubcomplex(f"piece {i}: alpha is not defined on the piece")
        v, b = curvature_integral(alpha, restricted, method, samples, mc.offset_seed(seed, i))
        value += v
        bound += b
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError("the integral leaves the float range")
    return ValueWithError(value, bound)


def gauss_bonnet_check(
    embedding: Embedding,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Compare total curvature mass with the Euler characteristic."""
    kappa = curvature_measure(embedding, method, samples, seed)
    total = sum(k.value for k in kappa.values())
    bound = sum(k.bound for k in kappa.values())
    chi = embedding.carrier.euler_characteristic()
    return {
        "sum_kappa": total,
        "chi": chi,
        "bound": bound,
        "method": method,
        "discrepancy": abs(total - chi),
    }
