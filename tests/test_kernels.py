"""The Monte Carlo kernels against per-row Python oracles, and the driver
that slices kernel calls under a byte budget."""

import tracemalloc

import numpy as np
import pytest

from curvcalc import _kernels, mc
from curvcalc import fixtures
from curvcalc.complexes import SimplicialComplex, barycentric_subdivide
from curvcalc.curvature import (
    Embedding,
    _cell_table,
    curvature_measure,
    equilateral_embedding,
    product_embedding,
)
from curvcalc.morse import morse_curvature_measure


def random_cells(rng, n_vertices, n_cells, width):
    sizes = rng.integers(1, width + 1, size=n_cells).astype(np.int64)
    cells = np.zeros((n_cells, width), dtype=np.int64)
    for m in range(n_cells):
        picked = rng.choice(n_vertices, size=sizes[m], replace=False)
        cells[m, : sizes[m]] = picked
        cells[m, sizes[m]:] = picked[0]
    return cells, sizes


def tied_heights(rng, n_rows, n_vertices):
    """Gaussian heights with an exact tie between two random vertices on
    every third row."""
    heights = rng.standard_normal((n_rows, n_vertices))
    for b in range(0, n_rows, 3):
        a, c = rng.choice(n_vertices, size=2, replace=False)
        heights[b, a] = heights[b, c]
    return heights


def complex_cell_table(X):
    """The cone kernel's table of every simplex of X; its columns are
    positions in X.vertices, the vertex order of X's fixtures and
    equilateral embeddings."""
    return mc.build_cell_arrays([(X.vertex_positions(d), d) for d in range(X.dim + 1)])


def padded_table_oracle(carrier, vertex_index):
    """The cone kernel's table built one cell at a time, in cells() order."""
    cells_with_dims = [
        (carrier.cell_vertex_objects(c), carrier.cell_dim(c)) for c in carrier.cells()
    ]
    width = max((len(vs) for vs, _ in cells_with_dims), default=1)
    n = len(cells_with_dims)
    cells = np.zeros((n, width), dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    signs = np.zeros(n, dtype=np.int64)
    for m, (vs, dim) in enumerate(cells_with_dims):
        ids = [vertex_index[v] for v in vs]
        sizes[m] = len(ids)
        cells[m] = ids + ids[:1] * (width - len(ids))
        signs[m] = -1 if dim % 2 else 1
    return cells, sizes, signs


def cone_oracle(heights, cells, sizes):
    """Per row: the strict argmax slot of every cell; a row in which any
    cell's maximum is attained twice is flagged and counts nothing."""
    counts = np.zeros(cells.shape, dtype=np.int64)
    ties = np.zeros(len(heights), dtype=bool)
    for b, row in enumerate(heights):
        slots = []
        for cell, size in zip(cells.tolist(), sizes.tolist()):
            values = [row[u] for u in cell[:size]]
            top = max(values)
            if values.count(top) > 1:
                ties[b] = True
                break
            slots.append(values.index(top))
        if not ties[b]:
            for m, j in enumerate(slots):
                counts[m, j] += 1
    return counts, ties


def lower_link_oracle(X, index, heights):
    """Per row and vertex: 1 - chi of the lower link, from the simplices
    of X containing the vertex; a row in which any vertex ties with a
    vertex of its link is flagged and zeroed."""
    result = np.zeros(heights.shape, dtype=np.int64)
    ties = np.zeros(len(heights), dtype=bool)
    for b, row in enumerate(heights):
        for v in X.vertices:
            hv = row[index[v]]
            chi = 0
            for s in X.simplices:
                if v not in s or len(s) == 1:
                    continue
                face = [row[index[u]] for u in s if u != v]
                ties[b] |= hv in face
                if max(face) < hv:
                    chi += (-1) ** (len(face) - 1)
            result[b, index[v]] = 1 - chi
    result[ties] = 0
    return result, ties


@pytest.mark.parametrize("trial", range(3))
def test_cone_counts_match_oracle(trial, rng):
    heights = tied_heights(rng, 300, 7)
    cells, sizes = random_cells(rng, 7, 40, 4)
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    want_counts, want_ties = cone_oracle(heights, cells, sizes)
    assert 0 < want_ties.sum() < len(heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)


@pytest.mark.parametrize("trial", range(3))
def test_cone_counts_match_oracle_on_complex_cells(trial, rng):
    X = fixtures.random_complex(rng)
    cells, sizes, _ = complex_cell_table(X)
    heights = tied_heights(rng, 200, len(X.vertices))
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    want_counts, want_ties = cone_oracle(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)


@pytest.mark.parametrize("trial", range(4))
def test_lower_link_matches_oracle(trial, rng):
    X = fixtures.random_complex(rng)
    emb = equilateral_embedding(X)
    arrays = mc.build_link_arrays(X, emb.vertex_index)
    heights = tied_heights(rng, 150, len(X.vertices))
    idx, ties = _kernels.lower_link_index(heights, *arrays)
    want_idx, want_ties = lower_link_oracle(X, emb.vertex_index, heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(idx, want_idx)


FIXTURES = [
    fixtures.segment,
    fixtures.filled_triangle,
    fixtures.hollow_triangle,
    fixtures.square_boundary,
    fixtures.octahedron,
    fixtures.cone_fan,
    fixtures.book,
    fixtures.solid_tetrahedron,
]


def sparse_octahedron():
    """The octahedron without vertex 2, embedded with the coordinates of
    all six vertices and one more point: coordinate rows 2 and 6 are
    unused, so rows and positions in X.vertices differ."""
    X, emb = fixtures.octahedron()
    sparse = X.full_subcomplex(v for v in X.vertices if v != 2)
    return sparse, Embedding(sparse, {**emb.coordinates, 99: np.array([0.5, 0.5, 0.5])})


@pytest.mark.parametrize("case", [*FIXTURES, sparse_octahedron])
def test_link_rows_are_the_links(case):
    X, emb = case()
    owner, verts, sizes, ptr = mc.build_link_arrays(X, emb.vertex_index)
    assert len(ptr) == len(emb.vertex_order) + 1
    for i, v in enumerate(emb.vertex_order):
        rows = range(ptr[i], ptr[i + 1])
        assert (owner[rows] == i).all()
        assert (verts[rows] != i).all()  # the padding never repeats the owner
        link = [tuple(emb.vertex_order[u] for u in verts[r, : sizes[r]]) for r in rows]
        want = X.link(v).simplices if v in X.vertices else frozenset()
        assert len(link) == len(want) and set(link) == want


def test_lower_link_matches_oracle_with_unused_coordinate_rows(rng):
    X, emb = sparse_octahedron()
    heights = tied_heights(rng, 150, len(emb.vertex_order))
    idx, ties = _kernels.lower_link_index(heights, *mc.build_link_arrays(X, emb.vertex_index))
    want_idx, want_ties = lower_link_oracle(X, emb.vertex_index, heights)
    used = [emb.vertex_index[v] for v in X.vertices]
    assert 0 < ties.sum() < len(heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(idx[:, used], want_idx[:, used])


def cone_over_cycle(n):
    """Vertex 0 coned over the cycle 1..n."""
    rim = list(range(1, n + 1))
    return SimplicialComplex.from_maximal((0, a, b) for a, b in zip(rim, rim[1:] + rim[:1]))


def sd_random_complex():
    X = fixtures.random_complex(np.random.default_rng(21), max_vertices=8)
    return barycentric_subdivide(X)[0]


EDGE_CASES = {
    # no link rows at all
    "vertices_only": lambda: SimplicialComplex.from_maximal([(0,), (1,), (2,)]),
    # vertex 3 owns no link rows: an empty vert_ptr slice
    "isolated_vertex": lambda: SimplicialComplex.from_maximal([(0, 1, 2), (3,), (1, 4)]),
    # only edges: width-1 tables
    "graph": lambda: SimplicialComplex.from_maximal(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 1)]
    ),
    # the apex owns 300 link rows; their running sums leave int8's range
    "cone_over_150_gon": lambda: cone_over_cycle(150),
    # with the apex on top its lower link is 150 points: chi = 150
    "star_150": lambda: SimplicialComplex.from_maximal((0, v) for v in range(1, 151)),
    "sd_random_complex": sd_random_complex,
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_kernels_match_oracles_on_edge_cases(name, rng):
    X = EDGE_CASES[name]()
    index = {v: i for i, v in enumerate(X.vertices)}
    heights = tied_heights(rng, 64, len(X.vertices))
    heights[1, 0] = 10.0  # vertex 0 above everything, its whole link lower
    cells, sizes, _ = complex_cell_table(X)
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    want_counts, want_ties = cone_oracle(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)
    idx, ties = _kernels.lower_link_index(heights, *mc.build_link_arrays(X, index))
    want_idx, want_ties = lower_link_oracle(X, index, heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(idx, want_idx)
    assert not ties[1]


def test_cone_counts_on_vertex_cells_only(rng):
    X = fixtures.random_complex(rng)
    cells, sizes, _ = mc.build_cell_arrays([(X.vertex_positions(0), 0)])
    heights = tied_heights(rng, 50, len(X.vertices))
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    want_counts, want_ties = cone_oracle(heights, cells, sizes)
    assert not ties.any()
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(counts, np.full(cells.shape, 50))


def test_ties_between_non_adjacent_vertices_are_not_flagged(rng):
    X, _ = fixtures.square_boundary()  # 0-1-2-3-0: 0 and 2, 1 and 3 share no simplex
    index = {v: v for v in X.vertices}
    heights = rng.standard_normal((40, 4))
    heights[::2, 2] = heights[::2, 0]
    heights[1::2, 3] = heights[1::2, 1]
    cells, sizes, _ = complex_cell_table(X)
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    assert not ties.any()
    np.testing.assert_array_equal(counts, cone_oracle(heights, cells, sizes)[0])
    idx, ties = _kernels.lower_link_index(heights, *mc.build_link_arrays(X, index))
    assert not ties.any()
    np.testing.assert_array_equal(idx, lower_link_oracle(X, index, heights)[0])


def random_3_complex():
    rng = np.random.default_rng(11)
    while (X := fixtures.random_complex(rng, max_vertices=8)).dim < 3:
        pass
    return X


def sd2_tetrahedron():
    X, _ = fixtures.solid_tetrahedron()
    return barycentric_subdivide(barycentric_subdivide(X)[0])[0]


@pytest.mark.parametrize(
    "table, rows",
    [
        (EDGE_CASES["graph"], 4096),
        (random_3_complex, 4096),
        (sd2_tetrahedron, 1024),  # 1,024 rows already take about 180 MB
    ],
)
def test_kernel_peaks_stay_under_their_row_bytes(table, rows, rng):
    X = table()
    emb = equilateral_embedding(X)
    cells, sizes, _ = complex_cell_table(X)
    link_arrays = mc.build_link_arrays(X, emb.vertex_index)
    n = len(X.vertices)
    heights = rng.standard_normal((rows, n))
    calls = [
        (_kernels.cone_argmax_counts, (cells, sizes), _kernels.cone_row_bytes(sizes)),
        (_kernels.lower_link_index, link_arrays, _kernels.lower_link_row_bytes(link_arrays[1], n)),
    ]
    for kernel, args, row_bytes in calls:
        kernel(heights[:2], *args)  # one-time imports are not temporaries
        tracemalloc.start()
        try:
            kernel(heights, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= rows * row_bytes, kernel.__name__


def test_cone_counts_manual_case():
    heights = np.array([[3.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
    cells = np.array([[0, 1, 2], [0, 2, 0]], dtype=np.int64)
    sizes = np.array([3, 2], dtype=np.int64)
    counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
    assert not ties.any()
    np.testing.assert_array_equal(counts, [[1, 1, 0], [1, 1, 0]])


def test_lower_link_manual_case():
    # path 0 - 1 - 2 with heights making the middle vertex the maximum
    X = fixtures.path_complex(2)
    index = {v: v for v in X.vertices}
    arrays = mc.build_link_arrays(X, index)
    heights = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
    idx, ties = _kernels.lower_link_index(heights, *arrays)
    assert not ties.any()
    # local minima get 1, slope points 0, the local maximum of the first
    # row gets 1 - chi(two points) = -1; each row sums to chi = 1
    np.testing.assert_array_equal(idx, [[1, -1, 1], [0, 1, 0]])


def _table_cases():
    rng = np.random.default_rng(77)
    X = fixtures.random_complex(rng)
    sparse = X.full_subcomplex(v for v in X.vertices if v != 1)
    # an unused coordinate row shifts every later vertex's row
    coords = {**equilateral_embedding(X).coordinates, 99: np.ones(len(X.vertices))}
    padded = Embedding(sparse, coords)
    _, seg = fixtures.segment()
    _, hollow = fixtures.hollow_triangle()
    _, square = fixtures.square_boundary()
    _, tri = fixtures.filled_triangle()
    return [
        fixtures.octahedron()[1],
        fixtures.solid_tetrahedron()[1],
        padded,
        product_embedding(seg, hollow),
        product_embedding(tri, seg),
        product_embedding(product_embedding(square, seg), seg),
    ]


@pytest.mark.parametrize("index", range(6))
def test_cell_table_matches_the_padding_loop(index):
    emb = _table_cases()[index]
    table = _cell_table(emb, "mc")
    for got, want in zip(table, padded_table_oracle(emb.carrier, emb.vertex_index)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_direction_sampling_is_deterministic():
    a = mc.sample_unit_directions(7, 3, 64, 5)
    b = mc.sample_unit_directions(7, 3, 64, 5)
    np.testing.assert_array_equal(a, b)
    c = mc.sample_unit_directions(7, 4, 64, 5)
    assert not np.array_equal(a, c)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_run_cone_counts_uses_exact_sample_count():
    X, emb = fixtures.octahedron()
    cells, sizes, _ = complex_cell_table(X)
    coords = emb.matrix()
    n = 2 * mc.BLOCK_ROWS + 500
    counts, stats = mc.run_cone_counts(lambda d: d @ coords.T, 3, cells, sizes, n, seed=11)
    assert stats.samples == n and stats.batches == 3
    # each simplex has exactly one strict argmax per tie-free direction
    np.testing.assert_array_equal(counts.sum(axis=1), n)


# ---------------------------------------------------------------------------
# Slicing under the byte budget
# ---------------------------------------------------------------------------

def _record_rows(monkeypatch, name):
    """Wrap a kernel so each call's row count is recorded."""
    rows = []
    kernel = getattr(_kernels, name)

    def recorded(heights, *args):
        rows.append(heights.shape[0])
        return kernel(heights, *args)

    monkeypatch.setattr(_kernels, name, recorded)
    return rows


def _coarse_heights(coords):
    # heights rounded to one decimal tie often, so resampling runs too
    return lambda dirs: np.round(dirs @ coords.T, 1)


def test_slicing_changes_no_cone_count(monkeypatch):
    X = fixtures.random_complex(np.random.default_rng(5))
    emb = equilateral_embedding(X)
    cells, sizes, _ = complex_cell_table(X)
    args = (_coarse_heights(emb.matrix()), emb.ambient_dim, cells, sizes, 2000, 4)
    counts, stats = mc.run_cone_counts(*args)
    assert stats.resampled > 0 and stats.batches >= 2
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", 3 * _kernels.cone_row_bytes(sizes))
    rows = _record_rows(monkeypatch, "cone_argmax_counts")
    sliced_counts, sliced_stats = mc.run_cone_counts(*args)
    assert max(rows) == 3
    np.testing.assert_array_equal(sliced_counts, counts)
    assert sliced_stats == stats


def test_slicing_changes_no_lower_link_sum(monkeypatch):
    X = fixtures.random_complex(np.random.default_rng(6))
    emb = equilateral_embedding(X)
    arrays = mc.build_link_arrays(X, emb.vertex_index)
    n = len(X.vertices)
    args = (_coarse_heights(emb.matrix()), emb.ambient_dim, arrays, n, 2000, 4)
    sums, sumsq, stats = mc.run_lower_link_stats(*args)
    assert stats.resampled > 0 and stats.batches >= 2
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", 3 * _kernels.lower_link_row_bytes(arrays[1], n))
    rows = _record_rows(monkeypatch, "lower_link_index")
    sliced = mc.run_lower_link_stats(*args)
    assert max(rows) == 3
    np.testing.assert_array_equal(sliced[0], sums)
    np.testing.assert_array_equal(sliced[1], sumsq)
    assert sliced[2] == stats


@pytest.mark.parametrize("name", ["octahedron", "book"])
def test_slicing_changes_no_measure(name, monkeypatch):
    _, emb = getattr(fixtures, name)()
    cone_stats = []
    run_cone_counts = mc.run_cone_counts

    def recorded(*args):
        counts, stats = run_cone_counts(*args)
        cone_stats.append(stats)
        return counts, stats

    monkeypatch.setattr(mc, "run_cone_counts", recorded)
    samples = mc.BLOCK_ROWS + 200

    def measures():
        return (
            curvature_measure(emb, method="mc", samples=samples, seed=9),
            morse_curvature_measure(emb, samples=samples, seed=9, with_stats=True),
        )

    default = measures()
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", 8192)
    cone_rows = _record_rows(monkeypatch, "cone_argmax_counts")
    link_rows = _record_rows(monkeypatch, "lower_link_index")
    sliced = measures()
    assert max(cone_rows) < 20 and max(link_rows) < 20
    # ValueWithError tuples and McStats compare exactly
    assert sliced == default
    assert cone_stats[0] == cone_stats[1]


def test_kernel_memory_stays_under_the_budget():
    X, _ = fixtures.solid_tetrahedron()
    for _ in range(2):
        X, _ = barycentric_subdivide(X)
    emb = equilateral_embedding(X)
    # one 2,000-row call of either kernel would take far more than the budget
    row_bytes = _kernels.lower_link_row_bytes(
        mc.build_link_arrays(X, emb.vertex_index)[1], len(X.vertices)
    )
    assert 2000 * row_bytes > 10 * mc.KERNEL_BUDGET_BYTES
    tracemalloc.start()
    try:
        morse_curvature_measure(emb, samples=2000, seed=1)
        curvature_measure(emb, method="mc", samples=2000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.KERNEL_BUDGET_BYTES
