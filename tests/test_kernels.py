"""The Monte Carlo pair kernels against per-row Python oracles and the
row kernel they replace, and the driver that slices kernel calls under a
byte budget.

A pair kernel takes m rows of heights H, one per direction x, and
answers for the 2m directions x and -x; its oracles are run on [H; -H]
with every pair dropped that ties in either half.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from curvcalc import _kernels, cli, mc
from curvcalc import fixtures
from curvcalc.complexes import SimplicialComplex, barycentric_subdivide
from curvcalc.curvature import (
    Embedding,
    _cell_table,
    centred_coordinates,
    curvature_measure,
    equilateral_embedding,
    excess_angle,
    height_coordinates,
    height_source,
    product_embedding,
)
from curvcalc.morse import morse_curvature_measure
from curvcalc.pushforwards import fubini_curvature

import row_kernel_oracle


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


def tied_keys(rng, n_rows, n_vertices):
    """uint64 keys in [2**63, 2**64) with an exact tie between two random
    vertices on every third row, two keys one apart, which no float64
    tells apart, on the rows after them, and every fourth row tie-heavy:
    drawn from three neighbouring keys."""
    keys = rng.integers(2**63, 2**64, size=(n_rows, n_vertices), dtype=np.uint64)
    keys[::4] = np.uint64(2**63) + keys[::4] % np.uint64(3)
    for b in range(0, n_rows, 3):
        a, c = rng.choice(n_vertices, size=2, replace=False)
        keys[b, a] = keys[b, c]
        if b + 1 < n_rows:
            keys[b + 1, a] = keys[b + 1, c] - np.uint64(1)
    return keys


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


def stacked(heights):
    """[H; -H]: the x rows, then their negations."""
    return np.concatenate([heights, -heights])


def pair_cone_oracle(heights, cells, sizes):
    """cone_oracle over [H; -H], every pair dropped that ties in either
    half: (counts, tie pairs)."""
    m = len(heights)
    _, ties = cone_oracle(stacked(heights), cells, sizes)
    tie_pairs = ties[:m] | ties[m:]
    counts, _ = cone_oracle(stacked(heights[~tie_pairs]), cells, sizes)
    return counts, tie_pairs


def cone_counts(heights, cells, sizes):
    """cone_argmax_counts given the table's run plan, as mc's driver gives it."""
    return _kernels.cone_argmax_counts(heights, cells, sizes, _kernels.cone_plan(cells, sizes))


def link_index(heights, *link_arrays):
    """lower_link_index given the table's run plan, as mc's driver gives it."""
    plan = _kernels.link_plan(*link_arrays[:2], *link_arrays[3:])
    return _kernels.lower_link_index(heights, *link_arrays, plan)


def index_by_column(heights, link_arrays):
    """lower_link_index's per-owner indices as a (2 * rows, coordinate
    rows) int64 matrix, the x rows then the -x rows, 0 in the columns that
    own no slot, and the tie pairs."""
    index, ties = link_index(heights, *link_arrays)
    full = np.zeros((heights.shape[1], 2 * len(heights)), dtype=np.int64)
    full[link_arrays[4]] = index
    return full.T, ties


def lower_link_oracle(X, index, heights):
    """Per row and vertex: 1 - chi of the lower link, from the simplices
    of X containing the vertex, and 0 for a column X does not use; a row
    in which any vertex ties with a vertex of its link is flagged and
    zeroed."""
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


def pair_lower_link_oracle(X, index, heights):
    """lower_link_oracle over [H; -H], with both rows of every pair zeroed
    that ties in either half: (indices, tie pairs)."""
    m = len(heights)
    result, ties = lower_link_oracle(X, index, stacked(heights))
    tie_pairs = ties[:m] | ties[m:]
    result[np.concatenate([tie_pairs, tie_pairs])] = 0
    return result, tie_pairs


@pytest.mark.parametrize("trial", range(3))
def test_cone_counts_match_oracle(trial, rng):
    heights = tied_heights(rng, 300, 7)
    cells, sizes = random_cells(rng, 7, 40, 4)
    counts, ties = cone_counts(heights, cells, sizes)
    want_counts, want_ties = pair_cone_oracle(heights, cells, sizes)
    assert 0 < want_ties.sum() < len(heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)


@pytest.mark.parametrize("trial", range(3))
def test_cone_counts_match_oracle_on_complex_cells(trial, rng):
    X = fixtures.random_complex(rng)
    cells, sizes, _ = complex_cell_table(X)
    heights = tied_heights(rng, 200, len(X.vertices))
    counts, ties = cone_counts(heights, cells, sizes)
    want_counts, want_ties = pair_cone_oracle(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)


@pytest.mark.parametrize("trial", range(4))
def test_lower_link_matches_oracle(trial, rng):
    X = fixtures.random_complex(rng)
    emb = equilateral_embedding(X)
    arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    heights = tied_heights(rng, 150, len(X.vertices))
    idx, ties = index_by_column(heights, arrays)
    want_idx, want_ties = pair_lower_link_oracle(X, emb.vertex_index, heights)
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


def hit_plane_slots(sizes):
    """(table row, slot) of every slot of _kernels._hit_planes, in its
    layout: size classes ascending, then slot, then table order."""
    return [
        (m, j)
        for k in sorted(set(sizes.tolist()))
        for j in range(k)
        for m in np.flatnonzero(sizes == k).tolist()
    ]


@pytest.mark.parametrize("case", [*FIXTURES, sparse_octahedron])
def test_link_rows_are_the_links(case):
    # each vertex's segment of the Morse table holds the simplices at it,
    # its own vertex cell and one per simplex of its link, signed (-1)^dim
    X, emb = case()
    simp_verts, sizes, signs, order, owners, starts = mc.build_link_arrays(X, len(emb.vertex_index))
    slots = hit_plane_slots(sizes)
    assert len(order) == len(slots) == sum(len(s) for s in X.simplices)
    assert signs.dtype == np.int8
    ends = [*starts[1:].tolist(), len(order)]
    segments = dict(zip(owners.tolist(), zip(starts.tolist(), ends)))
    for i, v in enumerate(emb.vertex_order):
        lo, hi = segments.get(i, (0, 0))
        held = []
        for t in range(lo, hi):
            m, j = slots[order[t]]
            assert simp_verts[m, j] == i  # the slot holds its owner
            assert signs[t] == (-1) ** (sizes[m] - 1)
            held.append(tuple(emb.vertex_order[u] for u in simp_verts[m, : sizes[m]]))
        want = [s for s in X.simplices if v in s] if v in X.vertices else []
        assert len(held) == len(want) and set(held) == set(want)
        link = {tuple(u for u in s if u != v) for s in held} - {()}
        assert link == (X.link(v).simplices if v in X.vertices else set())


@pytest.mark.parametrize("trial", range(3))
def test_morse_sums_are_signed_cone_counts(trial, rng):
    # Banchoff: summed over the rows, each vertex's index is the signed
    # count of the simplices in which it is the strict maximum
    X = fixtures.random_complex(rng)
    index = {v: i for i, v in enumerate(X.vertices)}
    cells, sizes, cell_signs = complex_cell_table(X)
    heights = tied_heights(rng, 200, len(X.vertices))
    counts, cone_ties = cone_counts(heights, cells, sizes)
    idx, ties = index_by_column(heights, mc.build_link_arrays(X, len(index)))
    np.testing.assert_array_equal(ties, cone_ties)
    want = np.zeros(len(X.vertices), dtype=np.int64)
    for m, size in enumerate(sizes.tolist()):
        for j in range(size):
            want[cells[m, j]] += cell_signs[m] * counts[m, j]
    np.testing.assert_array_equal(idx.sum(axis=0), want)


def test_lower_link_matches_oracle_with_unused_coordinate_rows(rng):
    X, emb = sparse_octahedron()
    heights = tied_heights(rng, 150, len(emb.vertex_order))
    idx, ties = index_by_column(heights, mc.build_link_arrays(X, len(emb.vertex_index)))
    want_idx, want_ties = pair_lower_link_oracle(X, emb.vertex_index, heights)
    unused = [emb.vertex_index[v] for v in emb.vertex_order if v not in X.vertices]
    assert 0 < ties.sum() < len(heights) and len(unused) == 2
    np.testing.assert_array_equal(ties, want_ties)
    # the oracle leaves unused rows 0: Banchoff's sum over no simplices
    np.testing.assert_array_equal(idx, want_idx)


def cone_over_cycle(n):
    """Vertex 0 coned over the cycle 1..n."""
    rim = list(range(1, n + 1))
    return SimplicialComplex.from_maximal((0, a, b) for a, b in zip(rim, rim[1:] + rim[:1]))


def sd_random_complex():
    X = fixtures.random_complex(np.random.default_rng(21), max_vertices=8)
    return barycentric_subdivide(X)[0]


EDGE_CASES = {
    # only the one-vertex size class
    "vertices_only": lambda: SimplicialComplex.from_maximal([(0,), (1,), (2,)]),
    # vertex 3 owns one slot, its own vertex cell
    "isolated_vertex": lambda: SimplicialComplex.from_maximal([(0, 1, 2), (3,), (1, 4)]),
    # only edges: width-2 tables
    "graph": lambda: SimplicialComplex.from_maximal(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 1)]
    ),
    # the apex owns 301 slots, so its sums cannot be kept in int8
    "cone_over_150_gon": lambda: cone_over_cycle(150),
    # with the apex on top its lower link is 150 points: chi = 150
    "star_150": lambda: SimplicialComplex.from_maximal((0, v) for v in range(1, 151)),
    # the apex owns 127 slots, the most whose sums are kept in int8; on
    # top its index is 1 - 126
    "star_126": lambda: SimplicialComplex.from_maximal((0, v) for v in range(1, 127)),
    "sd_random_complex": sd_random_complex,
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_kernels_match_oracles_on_edge_cases(name, rng):
    X = EDGE_CASES[name]()
    index = {v: i for i, v in enumerate(X.vertices)}
    heights = tied_heights(rng, 64, len(X.vertices))
    heights[1, 0] = 10.0  # vertex 0 above everything, its whole link lower
    cells, sizes, _ = complex_cell_table(X)
    counts, ties = cone_counts(heights, cells, sizes)
    want_counts, want_ties = pair_cone_oracle(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)
    idx, ties = index_by_column(heights, mc.build_link_arrays(X, len(index)))
    want_idx, want_ties = pair_lower_link_oracle(X, index, heights)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(idx, want_idx)
    assert not ties[1]


def test_cone_counts_on_vertex_cells_only(rng):
    X = fixtures.random_complex(rng)
    cells, sizes, _ = mc.build_cell_arrays([(X.vertex_positions(0), 0)])
    heights = tied_heights(rng, 50, len(X.vertices))
    counts, ties = cone_counts(heights, cells, sizes)
    want_counts, want_ties = pair_cone_oracle(heights, cells, sizes)
    assert not ties.any()
    np.testing.assert_array_equal(counts, want_counts)
    # a vertex is the maximum of its own cell under x and -x
    np.testing.assert_array_equal(counts, np.full(cells.shape, 100))


@pytest.mark.parametrize("k", [255, 256, 300])
def test_a_cell_tied_on_all_its_vertices_is_a_tie_row(k):
    # k hits in one cell: a uint8 count would read 256 as 0
    heights = np.zeros((3, k))
    heights[1] = np.arange(k)
    heights[2, :2] = 1.0
    cells, sizes = np.arange(k)[None, :], np.array([k])
    counts, ties = cone_counts(heights, cells, sizes)
    np.testing.assert_array_equal(ties, [True, False, True])
    np.testing.assert_array_equal(counts, pair_cone_oracle(heights, cells, sizes)[0])
    np.testing.assert_array_equal(counts[0, [0, k - 1]], [1, 1])  # -x, then x


def test_ties_between_non_adjacent_vertices_are_not_flagged(rng):
    X, _ = fixtures.square_boundary()  # 0-1-2-3-0: 0 and 2, 1 and 3 share no simplex
    index = {v: v for v in X.vertices}
    heights = rng.standard_normal((40, 4))
    heights[::2, 2] = heights[::2, 0]
    heights[1::2, 3] = heights[1::2, 1]
    cells, sizes, _ = complex_cell_table(X)
    counts, ties = cone_counts(heights, cells, sizes)
    assert not ties.any()
    np.testing.assert_array_equal(counts, pair_cone_oracle(heights, cells, sizes)[0])
    idx, ties = index_by_column(heights, mc.build_link_arrays(X, len(index)))
    assert not ties.any()
    np.testing.assert_array_equal(idx, pair_lower_link_oracle(X, index, heights)[0])


def random_3_complex():
    rng = np.random.default_rng(11)
    while (X := fixtures.random_complex(rng, max_vertices=8)).dim < 3:
        pass
    return X


def sd2_tetrahedron():
    X, _ = fixtures.solid_tetrahedron()
    return barycentric_subdivide(barycentric_subdivide(X)[0])[0]


def sd2_octahedron():
    X, _ = fixtures.octahedron()
    return barycentric_subdivide(barycentric_subdivide(X)[0])[0]


def cone_over_sd_octahedron():
    """An apex over the subdivided octahedron sphere: the apex owns 147
    slots, so the Morse sums are int64, while the 27 vertices are few
    enough for rank planes."""
    X, _ = fixtures.octahedron()
    sphere = barycentric_subdivide(X)[0]
    apex = max(sphere.vertices) + 1
    return SimplicialComplex.from_maximal((*s, apex) for s in sphere.simplices)


def star_150():
    return EDGE_CASES["star_150"]()


# (rank planes, int64 Morse sums) of each table of the peak test
PEAK_PATHS = {
    "<lambda>": (True, False),  # the graph
    "random_3_complex": (True, False),
    "sd2_tetrahedron": (True, True),
    "cone_over_sd_octahedron": (True, True),
    "sd2_octahedron": (False, False),
    "star_150": (False, True),
}


@pytest.mark.parametrize(
    "table, rows",
    [
        (EDGE_CASES["graph"], 4096),
        (random_3_complex, 4096),
        (sd2_tetrahedron, 1024),
        (cone_over_sd_octahedron, 4096),
        (sd2_octahedron, 1024),
        (star_150, 4096),
    ],
)
def test_kernel_peaks_stay_under_their_row_bytes(table, rows, rng):
    X = table()
    emb = equilateral_embedding(X)
    cells, sizes, _ = complex_cell_table(X)
    link_arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    n = len(X.vertices)
    starts = link_arrays[5]
    wide = _kernels.index_dtype(starts, len(link_arrays[3])) == np.int64
    assert (_kernels.uses_ranks(n, sizes), wide) == PEAK_PATHS[table.__name__]
    calls = [
        (
            _kernels.cone_argmax_counts,
            (cells, sizes, _kernels.cone_plan(cells, sizes)),  # the plan is built once per run
            _kernels.cone_call_bytes(sizes),
            _kernels.cone_row_bytes(sizes, n),
        ),
        (
            _kernels.lower_link_index,
            (*link_arrays, _kernels.link_plan(*link_arrays[:2], *link_arrays[3:])),
            _kernels.index_call_bytes(link_arrays[1], starts),
            _kernels.index_row_bytes(link_arrays[1], n, starts),
        ),
    ]
    for kernel, args, call_bytes, pair_bytes in calls:
        kernel(rng.standard_normal((2, n)), *args)  # one-time imports are not temporaries
        # few-pair calls are where the per-call arrays dominate
        for pairs in (1, 3, rows):
            # a column slice of a vertex-major block, which the kernel copies
            heights = rng.standard_normal((n, pairs + 1))[:, :pairs].T
            tracemalloc.start()
            try:
                kernel(heights, *args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= call_bytes + pairs * pair_bytes, (kernel.__name__, pairs, peak)


# ---------------------------------------------------------------------------
# Rank planes
# ---------------------------------------------------------------------------

def _rank_cases():
    rng = np.random.default_rng(41)
    near_scale = 2.0**400 * rng.standard_normal((60, 12))
    near_scale[:, 1] = np.nextafter(near_scale[:, 0], np.inf)  # one ulp apart
    near_scale[:, 2] = near_scale[:, 0]
    signed_zeros = np.zeros((40, 6))
    signed_zeros[:, ::2] = -0.0  # -0.0 == +0.0: they tie
    signed_zeros[::2, 4] = -1e-300
    signed_zeros[1::2, 5] = 5e-324
    return {
        "random": rng.standard_normal((200, 9)),
        "tie_heavy": np.round(rng.standard_normal((300, 11)), 1),
        "signed_zeros": signed_zeros,
        "near_height_scale": near_scale,
        "one_vertex": rng.standard_normal((5, 1)),
        "uint16": np.round(rng.standard_normal((6, 300)), 2),
    }


@pytest.mark.parametrize("name", _rank_cases())
def test_ranks_keep_every_order_within_a_row(name):
    heights = _rank_cases()[name]
    ranks = _kernels._ranks(np.ascontiguousarray(heights.T)).T
    assert ranks.dtype == (np.uint16 if heights.shape[1] > 256 else np.uint8)
    h, r = heights[:, :, None], ranks[:, :, None]
    hT, rT = heights[:, None, :], ranks[:, None, :]
    np.testing.assert_array_equal(r < rT, h < hT)
    np.testing.assert_array_equal(r == rT, h == hT)
    # the rank counts the heights strictly below
    np.testing.assert_array_equal(ranks, (hT < h).sum(axis=2))


def _both_paths(monkeypatch, kernel, heights, *args):
    """The kernel's result on the path the rule picks, then on the other."""
    chosen = kernel(heights, *args)
    rule = _kernels.uses_ranks
    monkeypatch.setattr(_kernels, "uses_ranks", lambda n, sizes: not rule(n, sizes))
    flipped = kernel(heights, *args)
    monkeypatch.setattr(_kernels, "uses_ranks", rule)
    return chosen, flipped


# (complex, whether its own table uses ranks); star_150's sums are int64
RULE_CASES = {
    "octahedron": (lambda: fixtures.octahedron()[0], True),
    "sd_random_complex": (sd_random_complex, True),
    "star_150": (star_150, False),
    "sd2_octahedron": (sd2_octahedron, False),
}


@pytest.mark.parametrize("name", RULE_CASES)
def test_rank_and_height_planes_agree_bitwise(name, monkeypatch, rng):
    table, ranks = RULE_CASES[name]
    X = table()
    index = {v: i for i, v in enumerate(X.vertices)}
    cells, sizes, _ = complex_cell_table(X)
    assert _kernels.uses_ranks(len(X.vertices), sizes) == ranks
    link_arrays = mc.build_link_arrays(X, len(index))
    heights = tied_heights(rng, 96, len(X.vertices))
    heights[::4] = np.round(heights[::4], 1)  # tie-heavy rows
    keys = tied_keys(rng, 96, len(X.vertices))
    # the competition ranks of the keys, as floats: the same order in every row
    key_ranks = (keys[:, None, :] < keys[:, :, None]).sum(axis=2).astype(float)
    results = []
    for table in (heights, keys, key_ranks):
        (counts, ties), (flip_counts, flip_ties) = _both_paths(
            monkeypatch, cone_counts, table, cells, sizes
        )
        assert 0 < ties.sum() < len(table)
        np.testing.assert_array_equal(ties, flip_ties)
        np.testing.assert_array_equal(counts, flip_counts)
        (idx, link_ties), (flip_idx, flip_link_ties) = _both_paths(
            monkeypatch, link_index, table, *link_arrays
        )
        assert idx.dtype == flip_idx.dtype
        np.testing.assert_array_equal(link_ties, flip_link_ties)
        np.testing.assert_array_equal(idx, flip_idx)
        results.append((counts, ties, idx, link_ties))
    # keys one apart stay apart: no path casts a key to a float
    for got, want in zip(results[1], results[2]):
        np.testing.assert_array_equal(got, want)


def _competition_ranks(heights):
    """The driver's vertex-major rank table of a (rows, n) heights array,
    as the kernels receive it: its transpose."""
    return _kernels._ranks(np.ascontiguousarray(heights.T)).T


@pytest.mark.parametrize("fixture", ["octahedron", "square_boundary"])
def test_rank_rows_with_and_without_ties_match_the_row_oracle(fixture, rng):
    X, _ = getattr(fixtures, fixture)()
    n = len(X.vertices)
    index = {v: i for i, v in enumerate(X.vertices)}
    cells, sizes, _ = complex_cell_table(X)
    link_arrays = mc.build_link_arrays(X, len(index))
    edges = {frozenset(s) for s in X.simplices if len(s) == 2}
    apart = next((a, b) for a in range(n) for b in range(a) if frozenset((a, b)) not in edges)
    edge = tuple(next(iter(edges)))
    heights = mc.permutation_ranks(3, 0, 90, n).T.astype(float)
    # a tie between two vertices that share no cell, then one inside a cell
    heights[30:60, apart[0]] = heights[30:60, apart[1]]
    heights[60:, edge[0]] = heights[60:, edge[1]]
    ranks = _competition_ranks(heights)
    sums = ranks.sum(axis=1)
    assert (sums[:30] == math.comb(n, 2)).all() and (sums[30:] == math.comb(n, 2) - 1).all()
    for rows in (slice(0, 30), slice(0, 60), slice(None)):
        table = ranks[rows]
        counts, ties = cone_counts(table, cells, sizes)
        want_counts, want_ties = row_kernel_oracle.pair_cone_counts(heights[rows], cells, sizes)
        np.testing.assert_array_equal(ties, want_ties)
        np.testing.assert_array_equal(counts, want_counts)
        idx, link_ties = link_index(table, *link_arrays)
        want_idx, want_link_ties = row_kernel_oracle.pair_lower_link_index(
            heights[rows], *link_arrays
        )
        np.testing.assert_array_equal(link_ties, want_link_ties)
        np.testing.assert_array_equal(idx, want_idx)
        # only a tie inside a cell makes a tie pair
        np.testing.assert_array_equal(ties, np.arange(90)[rows] >= 60)


def test_rank_and_height_planes_agree_on_product_cells(monkeypatch, rng):
    _, seg = fixtures.segment()
    _, hollow = fixtures.hollow_triangle()
    emb = product_embedding(product_embedding(seg, hollow), seg)
    cells, sizes, _ = _cell_table(emb)
    heights = np.round(rng.standard_normal((128, len(emb.vertex_order))), 1)
    (counts, ties), (flip_counts, flip_ties) = _both_paths(
        monkeypatch, cone_counts, heights, cells, sizes
    )
    assert 0 < ties.sum() < len(heights)
    np.testing.assert_array_equal(ties, flip_ties)
    np.testing.assert_array_equal(counts, flip_counts)
    np.testing.assert_array_equal(counts, pair_cone_oracle(heights, cells, sizes)[0])


# every table of both lists: graphs, stars, cones, subdivisions, the
# rank and the height side of the rule
PAIR_CASES = {**EDGE_CASES, **{name: table for name, (table, _) in RULE_CASES.items()}}


@pytest.mark.parametrize("flip", [False, True], ids=["chosen_path", "other_path"])
@pytest.mark.parametrize("name", PAIR_CASES)
def test_pair_kernels_equal_the_row_kernel(name, flip, monkeypatch, rng):
    X = PAIR_CASES[name]()
    index = {v: i for i, v in enumerate(X.vertices)}
    cells, sizes, _ = complex_cell_table(X)
    link_arrays = mc.build_link_arrays(X, len(index))
    heights = tied_heights(rng, 96, len(X.vertices))
    heights[::4] = np.round(heights[::4], 1)  # tie-heavy rows
    want_counts, want_ties = row_kernel_oracle.pair_cone_counts(heights, cells, sizes)
    want_idx, want_idx_ties = row_kernel_oracle.pair_lower_link_index(heights, *link_arrays)
    assert want_ties.any() or sizes.max() == 1
    np.testing.assert_array_equal(want_idx_ties, want_ties)
    if flip:
        rule = _kernels.uses_ranks
        monkeypatch.setattr(_kernels, "uses_ranks", lambda n, sizes: not rule(n, sizes))
    counts, ties = cone_counts(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)
    idx, ties = link_index(heights, *link_arrays)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(idx, want_idx)


@pytest.mark.parametrize("flip", [False, True], ids=["chosen_path", "other_path"])
def test_pair_kernel_equals_the_row_kernel_on_product_cells(flip, monkeypatch, rng):
    _, seg = fixtures.segment()
    _, hollow = fixtures.hollow_triangle()
    emb = product_embedding(product_embedding(seg, hollow), seg)
    cells, sizes, _ = _cell_table(emb)
    heights = np.round(rng.standard_normal((128, len(emb.vertex_order))), 1)
    want_counts, want_ties = row_kernel_oracle.pair_cone_counts(heights, cells, sizes)
    assert 0 < want_ties.sum() < len(heights)
    if flip:
        rule = _kernels.uses_ranks
        monkeypatch.setattr(_kernels, "uses_ranks", lambda n, sizes: not rule(n, sizes))
    counts, ties = cone_counts(heights, cells, sizes)
    np.testing.assert_array_equal(ties, want_ties)
    np.testing.assert_array_equal(counts, want_counts)


def test_cone_counts_manual_case():
    heights = np.array([[3.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
    cells = np.array([[0, 1, 2], [0, 2, 0]], dtype=np.int64)
    sizes = np.array([3, 2], dtype=np.int64)
    counts, ties = cone_counts(heights, cells, sizes)
    assert not ties.any()
    # x hits slot 0 of both cells in row 0 and slot 1 in row 1; -x the other
    np.testing.assert_array_equal(counts, [[2, 2, 0], [2, 2, 0]])


def test_lower_link_manual_case():
    # path 0 - 1 - 2 with heights making the middle vertex the maximum
    X = fixtures.path_complex(2)
    index = {v: v for v in X.vertices}
    arrays = mc.build_link_arrays(X, len(index))
    heights = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
    idx, ties = index_by_column(heights, arrays)
    assert not ties.any()
    # local minima get 1, slope points 0, the local maximum of the first
    # row gets 1 - chi(two points) = -1; each row sums to chi = 1. The -x
    # rows come last: negation swaps the two shapes
    np.testing.assert_array_equal(idx, [[1, -1, 1], [0, 1, 0], [0, 1, 0], [1, -1, 1]])


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
    table = _cell_table(emb)
    for got, want in zip(table, padded_table_oracle(emb.carrier, emb.vertex_index)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_direction_sampling_is_deterministic():
    a = mc.sample_unit_directions(7, 3, 64, 5)
    b = mc.sample_unit_directions(7, 3, 64, 5)
    np.testing.assert_array_equal(a, b)
    c = mc.sample_unit_directions(7, 4, 64, 5)
    assert not np.array_equal(a, c)
    # raw Gaussian rows, not unit vectors: only the order of heights is read
    stream = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, 3]))
    np.testing.assert_array_equal(a, stream.standard_normal((64, 5)))


@pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
def test_seeds_outside_the_key_range_raise(seed):
    X, _ = fixtures.segment()
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        mc.sample_unit_directions(seed, 0, 4, 2)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        cli._seeded_product_function(X, seed)


def test_both_ends_of_the_key_range_are_distinct_keys():
    top = mc.sample_unit_directions(2**64 - 1, 0, 4, 3)
    assert top.shape == (4, 3)
    assert not np.array_equal(top, mc.sample_unit_directions(0, 0, 4, 3))
    assert mc.philox_key(np.int64(7)) == mc.philox_key(7) == np.uint64(7)
    with pytest.raises(TypeError):
        mc.philox_key(7.0)


def _gaussian_rows(monkeypatch):
    """Record the row count of every Gaussian block drawn."""
    counts = []
    sample = mc.sample_unit_directions

    def recorded(seed, batch_index, count, dim):
        counts.append(count)
        return sample(seed, batch_index, count, dim)

    monkeypatch.setattr(mc, "sample_unit_directions", recorded)
    return counts


def _key_path_cases():
    X, _ = fixtures.octahedron()
    emb = equilateral_embedding(X)
    disk = SimplicialComplex.from_maximal([(0, 2, 3)])
    return {
        "equilateral": emb,
        "restricted": emb.restrict(disk),
        "half_unit_vectors": Embedding(X, {v: 0.5 * np.eye(6)[i] for i, v in enumerate(X.vertices)}),
        # vertex 1 on e_0: the columns need not follow the rows
        "permuted": Embedding(X, {v: np.eye(8)[(i + 1) % 8] for i, v in enumerate(X.vertices)}),
    }


def assert_same_source(got, want):
    """Two heights sources with equal block rows and equal blocks."""
    assert got.block_rows == want.block_rows
    for block, rows in ((0, 5), (3, 1)):
        a, b = got.draw(9, block, rows), want.draw(9, block, rows)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", _key_path_cases())
def test_coordinate_vector_embeddings_draw_no_gaussians(name, monkeypatch):
    emb = _key_path_cases()[name]
    _, sizes, _ = _cell_table(emb)
    n = len(emb.vertex_order)
    assert _kernels.uses_ranks(n, sizes)
    assert_same_source(height_source(emb.matrix(), sizes), mc.rank_source(n))
    counts = _gaussian_rows(monkeypatch)
    kappa = curvature_measure(emb, method="mc", samples=2000, seed=4)
    morse = morse_curvature_measure(emb, samples=2000, seed=4)
    simplex = max(emb.carrier.simplices, key=len)
    angle = excess_angle(simplex, simplex[0], emb, method="mc", samples=2000, seed=4)
    assert counts == []
    # a regular triangle's cone fraction at a vertex is 1/3
    assert angle.value == pytest.approx(1 / 3, abs=4 * angle.bound)
    chi = emb.carrier.euler_characteristic()
    for measure in (kappa, morse):
        assert math.fsum(k.value for k in measure.values()) == pytest.approx(chi, abs=1e-9)


@pytest.mark.parametrize(
    "coords",
    [
        [[0.5, 0.0], [0.0, 0.0]],  # a zero row
        [[0.5, 0.0], [0.5, 0.0]],  # a repeated column
        [[0.5, 0.0], [0.0, 0.25]],  # unequal scales
        [[-0.5, 0.0], [0.0, -0.5]],  # negative entries
        [[0.5, 0.0, 0.0], [0.0, 0.5, 1e-300]],  # an extra nonzero
        np.zeros((0, 3)),  # no rows
    ],
)
def test_other_matrices_take_gaussian_rows(coords, monkeypatch):
    coords = np.array(coords, dtype=float)
    source = height_source(coords, np.ones(len(coords), dtype=np.int64))
    assert source.block_rows == mc.BLOCK_ROWS
    dirs = mc.sample_unit_directions(1, 0, 4, coords.shape[1])
    heights = height_coordinates(centred_coordinates(coords)) @ dirs.T
    np.testing.assert_array_equal(source.draw(1, 0, 4), heights)
    if len(coords):
        X = SimplicialComplex.from_maximal([(0,), (1,)])
        counts = _gaussian_rows(monkeypatch)
        curvature_measure(Embedding(X, dict(enumerate(coords))), method="mc", samples=6, seed=1)
        assert counts == [3]


def test_equal_coordinates_give_identical_outputs():
    X, _ = fixtures.book()
    sd, _ = barycentric_subdivide(X)
    by_hand = np.zeros((len(sd.vertices),) * 2)
    np.fill_diagonal(by_hand, math.sqrt(0.5))
    runs = []
    for emb in (
        equilateral_embedding(sd),
        Embedding(sd, zip(sd.vertices, by_hand)),
        # the same rows, in a larger ambient space and another vertex order
        Embedding(sd, {v: np.concatenate([by_hand[i], [0.0]]) for i, v in reversed(list(enumerate(sd.vertices)))}),
    ):
        runs.append((
            curvature_measure(emb, method="mc", samples=3001, seed=8),
            morse_curvature_measure(emb, samples=3001, seed=8),
        ))
    assert runs[0] == runs[1]
    assert runs[2] == runs[0]


def _key_stream(seed, block, rows, n):
    """Row r of key block b: raw outputs 4wr .. 4wr + n - 1 of the (seed, b)
    Philox stream, w = ceil(n / 4)."""
    w = -(-n // 4)
    raw = np.random.Philox(key=seed, counter=[0, 0, 0, block]).random_raw(4 * w * rows)
    return raw.reshape(rows, 4 * w)[:, :n].T


# (source, block rows): Gaussian rows cost 8 (n + dim) bytes and keys
# 8 (4 ceil(n / 4) + n) out of BLOCK_BYTES less 1 KiB, ranks
# (itemsize + 1) n + 12 out of BLOCK_BYTES less a cast buffer
BLOCK_CASES = {
    "gaussian_dim_32": (lambda: mc.gaussian_source(np.ones((2, 32))), 7706),
    "gaussian_dim_33": (lambda: mc.gaussian_source(np.ones((2, 33))), 7486),
    "gaussian_dim_2000": (lambda: mc.gaussian_source(np.ones((2, 2000))), 130),
    "keys_61": (lambda: mc.key_source(61), 2096),
    "keys_146": (lambda: mc.key_source(146), 891),
    "ranks_8": (lambda: mc.rank_source(8), mc.BLOCK_ROWS),
    "ranks_257": (lambda: mc.rank_source(257), 2594),
}


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_every_block_draw_holds_at_most_block_bytes(name):
    make, rows = BLOCK_CASES[name]
    source = make()
    assert source.block_rows == rows
    source.draw(1, 0, 1)  # one-time imports are not the draw's
    tracemalloc.start()
    try:
        table = source.draw(1, 2, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mc.BLOCK_BYTES
    assert table.shape[1] == rows and table.flags.c_contiguous
    if name.startswith("keys"):
        np.testing.assert_array_equal(table, _key_stream(1, 2, rows, len(table)))
        assert not np.array_equal(source.draw(1, 3, rows), table)


def test_the_driver_draws_whole_blocks_and_only_slices_them(monkeypatch):
    X = SimplicialComplex.from_maximal([(0, 1)])
    cells, sizes, _ = complex_cell_table(X)
    source = mc.gaussian_source(np.random.default_rng(33).standard_normal((2, 33)))
    draws = _gaussian_rows(monkeypatch)
    mc.run_cone_counts(source, cells, sizes, 2, 2 * source.block_rows + 2, 1)
    assert draws == [source.block_rows, 1]
    # rank rows never tie: 3,000 pairs of 257 vertices take two rank blocks
    rng = np.random.default_rng(3)
    cells = np.array([rng.choice(257, size=4, replace=False) for _ in range(4200)])
    sizes = np.full(4200, 4)
    assert _kernels.uses_ranks(257, sizes)
    _, stats = mc.run_cone_counts(mc.rank_source(257), cells, sizes, 257, 6000, 1)
    assert (stats.resampled, stats.batches) == (0, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 12, 13, 27, 256, 257])
def test_permutation_ranks_are_permutations(n):
    # 12 vertices take one mixed-radix word (12! < 2**32), 13 two; 257 ranks need uint16
    ranks = mc.permutation_ranks(7, 2, 300, n)
    assert ranks.shape == (n, 300)
    assert ranks.dtype == (np.uint16 if n > 256 else np.uint8)
    np.testing.assert_array_equal(np.sort(ranks, axis=0), np.arange(n)[:, None].repeat(300, axis=1))
    assert n < 3 or not np.array_equal(ranks, mc.permutation_ranks(7, 3, 300, n))


def test_permutation_ranks_draw_the_orders_of_four_uniformly():
    ranks = mc.permutation_ranks(5, 0, 24_000, 4)
    codes = ranks[0] * 64 + ranks[1] * 16 + ranks[2] * 4 + ranks[3].astype(np.int64)
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 24
    # chi-square with 23 degrees of freedom: 49.7 is its 0.999 quantile
    assert ((counts - 1000.0) ** 2 / 1000.0).sum() < 49.7


def _kernel_dtypes(monkeypatch):
    """Record the heights dtype of every cone and Morse kernel call."""
    dtypes = []
    for name in ("cone_argmax_counts", "lower_link_index"):
        kernel = getattr(_kernels, name)

        def recorded(heights, *args, kernel=kernel):
            dtypes.append(heights.dtype)
            return kernel(heights, *args)

        monkeypatch.setattr(_kernels, name, recorded)
    return dtypes


def test_dense_tables_take_rank_blocks_and_sparse_ones_keys(monkeypatch):
    dtypes = _kernel_dtypes(monkeypatch)
    dense = equilateral_embedding(fixtures.octahedron()[0])
    curvature_measure(dense, method="mc", samples=400, seed=2)
    morse_curvature_measure(dense, samples=400, seed=2)
    assert set(dtypes) == {np.dtype(np.uint8)}
    dtypes.clear()
    # 60 vertices and 179 slots: ranking would take 3,600 comparisons a row
    sparse = equilateral_embedding(fixtures.path_complex(60))
    _, sizes, _ = _cell_table(sparse)
    assert not _kernels.uses_ranks(60, sizes)
    curvature_measure(sparse, method="mc", samples=400, seed=2)
    morse_curvature_measure(sparse, samples=400, seed=2)
    assert set(dtypes) == {np.dtype(np.uint64)}


@pytest.mark.parametrize("samples", [10.5, 100.0, "100"])
def test_sample_counts_must_be_integers(samples):
    X, _ = fixtures.octahedron()
    emb = equilateral_embedding(X)
    simplex = max(X.simplices, key=len)
    _, segment = fixtures.segment()
    for measure in (
        lambda: curvature_measure(emb, method="mc", samples=samples, seed=1),
        lambda: morse_curvature_measure(emb, samples=samples, seed=1),
        lambda: excess_angle(simplex, simplex[0], emb, method="mc", samples=samples, seed=1),
        lambda: fubini_curvature(segment, segment, samples=samples, seed=1),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            measure()
    assert curvature_measure(emb, method="mc", samples=np.int64(100), seed=1) == curvature_measure(
        emb, method="mc", samples=100, seed=1
    )


def test_no_numpy_ma_import():
    # np.unique imports numpy.ma on its first call, about 10 ms of start-up
    script = """
import sys
from curvcalc import curvature, fixtures, morse
_, emb = fixtures.octahedron()
curvature.curvature_measure(emb, method="mc", samples=300, seed=1)
morse.morse_curvature_measure(emb, samples=300, seed=1)
curvature.curvature_measure(emb, method="exact")
print("numpy.ma" in sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_run_cone_counts_uses_exact_sample_count():
    X, emb = fixtures.octahedron()
    cells, sizes, _ = complex_cell_table(X)
    coords = emb.matrix()
    n = 2 * (2 * mc.BLOCK_ROWS + 500)
    counts, stats = mc.run_cone_counts(mc.gaussian_source(coords), cells, sizes, len(coords), n, 11)
    # one Gaussian row per pair: 2 * BLOCK_ROWS + 500 rows in three blocks
    assert stats.pairs == n // 2 and stats.samples == n and stats.batches == 3
    # each simplex has exactly one strict argmax per tie-free direction
    np.testing.assert_array_equal(counts.sum(axis=1), n)


@pytest.mark.parametrize("samples", [1, 3, 2 * mc.BLOCK_ROWS + 1])
def test_odd_sample_counts_round_up_to_whole_pairs(samples):
    X, emb = fixtures.octahedron()
    cells, sizes, _ = complex_cell_table(X)
    coords = emb.matrix()
    source = mc.gaussian_source(coords)
    counts, stats = mc.run_cone_counts(source, cells, sizes, len(coords), samples, 12)
    pairs = (samples + 1) // 2
    assert (stats.pairs, stats.samples) == (pairs, samples + 1)
    np.testing.assert_array_equal(counts.sum(axis=1), 2 * pairs)
    link_arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    sums, _, morse_stats = mc.run_lower_link_stats(source, link_arrays, len(coords), samples, 12)
    assert morse_stats == stats
    assert sums.sum() == 2 * pairs * X.euler_characteristic()  # chi per direction
    for kappa in (
        curvature_measure(emb, method="mc", samples=samples, seed=12),
        morse_curvature_measure(emb, samples=samples, seed=12),
    ):
        assert sum(k.value for k in kappa.values()) == pytest.approx(2.0, abs=1e-12)
        assert all(np.isfinite(k.bound) and k.bound >= 0 for k in kappa.values())


def test_no_pair_hits_both_ends_of_a_multi_vertex_cell(rng):
    # a vertex that is the strict maximum under x and under -x is the
    # strict maximum and minimum of its cell, so the cell is that vertex
    X = sd_random_complex()
    cells, sizes, _ = complex_cell_table(X)
    heights = tied_heights(rng, 300, len(X.vertices))
    hits, classes, tie_pairs = _kernels._hit_planes(heights, cells, sizes, _kernels.class_plan(cells, sizes))
    assert 0 < tie_pairs.sum() < len(heights)
    m = len(heights)
    for idx, planes in classes:
        x, minus_x = planes[:, :, :m][:, :, ~tie_pairs], planes[:, :, m:][:, :, ~tie_pairs]
        if len(planes) == 1:
            assert x.all() and minus_x.all()
        else:
            assert not (x & minus_x).any()
            # and each direction of a tie-free pair has one hit per cell
            assert (x.sum(axis=0) == 1).all() and (minus_x.sum(axis=0) == 1).all()
    source = mc.gaussian_source(equilateral_embedding(X).matrix())
    counts, stats = mc.run_cone_counts(source, cells, sizes, len(X.vertices), 2000, 3)
    multi = sizes > 1
    assert counts[multi].max() <= stats.pairs
    np.testing.assert_array_equal(counts[~multi, 0], 2 * stats.pairs)


SUBPROCESS_MEASURES = """
from curvcalc import curvature, fixtures, morse, pushforwards
from curvcalc.io import parse_complex
_, emb = fixtures.book()
curvature.curvature_measure(emb, method="mc", samples=301, seed=1)
morse.morse_curvature_measure(emb, samples=301, seed=1)
_, seg = fixtures.segment()
_, hollow = fixtures.hollow_triangle()
pushforwards.fubini_curvature(seg, hollow, samples=301, seed=1)
# a one-vertex complex: its only cell is a vertex cell
point = curvature.Embedding(fixtures.point(), {0: [0.0, 0.0]})
curvature.curvature_measure(point, method="mc", samples=1, seed=1)
morse.morse_curvature_measure(point, samples=1, seed=1)
# parsed files whose degeneracy screen overflows (squares of 1e150 and
# 1e300 edges) or underflows (products of 1e-160 components)
for coords in ("1e150 0 0 1e150 -1e150 -1e150", "1e300 0 0 1e300 -1e300 -1e300",
               "1 1e-160 1e-160 1 -1 -1e-160"):
    a, b, c = (" ".join(pair) for pair in zip(*[iter(coords.split())] * 2))
    text = f"curvcalc-complex v1\\nvertices\\na {a}\\nb {b}\\nc {c}\\nsimplices\\na b c\\n"
    doc = parse_complex(text)
    emb = curvature.Embedding(doc.complex, doc.points)
    kappa = curvature.curvature_measure(emb)
    assert abs(sum(k.value for k in kappa.values()) - 1.0) < 1e-12, kappa
"""


def test_measures_warn_nothing():
    # -W error turns any warning, RuntimeWarnings of a square root of a
    # negative number or of an overflow in the degeneracy screen included,
    # into an exception on stderr
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", SUBPROCESS_MEASURES], capture_output=True, text=True
    )
    assert (run.returncode, run.stderr) == (0, "")


SUBPROCESS_AMBIENT_ZERO = """
from curvcalc import curvature, fixtures, morse
from curvcalc.complexes import SimplicialComplex
for carrier, coords in ((SimplicialComplex(), {}), (fixtures.point(), {0: []})):
    emb = curvature.Embedding(carrier, coords)
    exact = curvature.curvature_measure(emb)
    print(exact == curvature.curvature_measure(emb, method="mc", samples=301, seed=1)
          == morse.morse_curvature_measure(emb, samples=301, seed=1), exact)
"""


def test_measures_in_ambient_dimension_zero_draw_nothing():
    # R^0 rows are empty vectors: every height is 0, and only vertex cells,
    # which never tie, are nondegenerate
    run = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_AMBIENT_ZERO], capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        "True {}",
        "True {0: ValueWithError(value=1.0, bound=0.0)}",
    ]
    assert mc.sample_unit_directions(1, 0, 4, 0).shape == (4, 0)


# ---------------------------------------------------------------------------
# Slicing under the byte budget
# ---------------------------------------------------------------------------

def _record_rows(monkeypatch, name):
    """Wrap a kernel so each call's pair count is recorded."""
    rows = []
    kernel = getattr(_kernels, name)

    def recorded(heights, *args):
        rows.append(heights.shape[0])
        return kernel(heights, *args)

    monkeypatch.setattr(_kernels, name, recorded)
    return rows


def _coarse_heights(coords):
    # heights rounded to one decimal tie often, so resampling runs too
    source = mc.gaussian_source(coords)
    return source._replace(draw=lambda *block: np.round(source.draw(*block), 1))


def test_slicing_changes_no_cone_count(monkeypatch):
    X = fixtures.random_complex(np.random.default_rng(5))
    emb = equilateral_embedding(X)
    cells, sizes, _ = complex_cell_table(X)
    n = len(X.vertices)
    args = (_coarse_heights(emb.matrix()), cells, sizes, n, 4000, 4)
    counts, stats = mc.run_cone_counts(*args)
    assert stats.resampled > 0 and stats.batches >= 2
    budget = _kernels.cone_call_bytes(sizes) + 3 * _kernels.cone_row_bytes(sizes, n)
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", budget)
    rows = _record_rows(monkeypatch, "cone_argmax_counts")
    sliced_counts, sliced_stats = mc.run_cone_counts(*args)
    assert max(rows) == 3
    np.testing.assert_array_equal(sliced_counts, counts)
    assert sliced_stats == stats


def test_slicing_changes_no_lower_link_sum(monkeypatch):
    X = fixtures.random_complex(np.random.default_rng(6))
    emb = equilateral_embedding(X)
    arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    n = len(X.vertices)
    args = (_coarse_heights(emb.matrix()), arrays, n, 4000, 4)
    sums, sumsq, stats = mc.run_lower_link_stats(*args)
    assert stats.resampled > 0 and stats.batches >= 2
    budget = _kernels.index_call_bytes(arrays[1], arrays[5])
    budget += 3 * _kernels.index_row_bytes(arrays[1], n, arrays[5])
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", budget)
    rows = _record_rows(monkeypatch, "lower_link_index")
    sliced = mc.run_lower_link_stats(*args)
    assert max(rows) == 3
    np.testing.assert_array_equal(sliced[0], sums)
    np.testing.assert_array_equal(sliced[1], sumsq)
    assert sliced[2] == stats


ROW_SCALES = {
    "unit": lambda dirs: 1.0 / np.linalg.norm(dirs, axis=1),  # the rows normalized
    "spread": lambda dirs: np.exp(4.0 * np.tanh(dirs[:, -1])),  # factors in (e^-4, e^4)
}


def _row_scaled_heights(coords, scale):
    """A Gaussian source whose heights of each direction row are scaled by
    scale(dirs) > 0, one factor per row. In two or more dimensions, rows
    whose last component exceeds 1 have their first zeroed first, so that
    the square, whose edges are parallel to the axes, ties."""

    def draw(seed, block, rows):
        dirs = mc.sample_unit_directions(seed, block, rows, coords.shape[1])
        if dirs.shape[1] > 1:
            dirs[dirs[:, -1] > 1.0, 0] = 0.0
        return coords @ (dirs * scale(dirs)[:, None]).T

    return mc.gaussian_source(coords)._replace(draw=draw)


@pytest.mark.parametrize("scale", ROW_SCALES)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_positive_row_scales_change_no_count_tie_or_index(fixture, scale, monkeypatch):
    # The sampler's rows are raw Gaussians: both kernels read only the
    # order of the heights along a row, which a positive scale keeps.
    X, emb = fixture()
    n = len(emb.vertex_index)
    cells, sizes, _ = complex_cell_table(X)
    arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    calls = []
    for name in ("cone_argmax_counts", "lower_link_index"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda h, *a, k=kernel: calls.append(k(h, *a)) or calls[-1])
    runs = []
    for factor in (lambda dirs: np.ones(len(dirs)), ROW_SCALES[scale]):
        calls.clear()
        heights = _row_scaled_heights(emb.matrix(), factor)
        cone = mc.run_cone_counts(heights, cells, sizes, n, 600, 2)
        morse = mc.run_lower_link_stats(heights, arrays, n, 600, 2)
        runs.append((cone, morse, list(calls)))
    (cone, morse, calls), (scaled_cone, scaled_morse, scaled_calls) = runs
    np.testing.assert_array_equal(scaled_cone[0], cone[0])
    assert scaled_cone[1] == cone[1]  # the same tie pairs resampled
    for got, want in zip(scaled_morse, morse):
        np.testing.assert_array_equal(got, want)
    assert len(scaled_calls) == len(calls)
    for (got, got_ties), (want, want_ties) in zip(scaled_calls, calls):
        np.testing.assert_array_equal(got, want)  # counts, or every direction's index
        np.testing.assert_array_equal(got_ties, want_ties)
    if fixture is fixtures.square_boundary:
        assert cone[1].resampled > 0


def test_morse_stats_square_the_widest_int8_pair_exactly():
    # The apex of star_126 owns 127 slots, the most an int8 index allows.
    # Each of its 126 edges has the apex on top under exactly one of x and
    # -x, so its pair index is 2 - 126 = -124 in every pair: the widest
    # pair sum an int8 table reaches, whose square needs 14 bits. Each
    # leaf's pair index is 2 - 1 = 1.
    X = EDGE_CASES["star_126"]()
    index = {v: i for i, v in enumerate(X.vertices)}
    arrays = mc.build_link_arrays(X, len(index))
    assert _kernels.index_dtype(arrays[5], len(arrays[3])) == np.int8
    coords = np.random.default_rng(8).standard_normal((len(index), 3))
    source = mc.gaussian_source(coords)
    sums, sumsq, stats = mc.run_lower_link_stats(source, arrays, len(index), 1000, 3)
    assert stats.resampled == 0 and stats.pairs == 500
    want = np.full(len(index), 500)
    want[index[0]] = -124 * 500
    np.testing.assert_array_equal(sums, want)
    want[index[0]] = 124**2 * 500
    np.testing.assert_array_equal(sumsq, want)
    # the pair index is constant, so the bound is exactly 0
    kappa = morse_curvature_measure(equilateral_embedding(X), samples=1000, seed=3)
    assert kappa[0] == (-62.0, 0.0)


def _no_keys(n):
    raise AssertionError("a rank table drew keys")


EQUILATERAL_CASES = {
    # rank blocks, with a raising key source: no keys are drawn
    "equilateral_book": (lambda: fixtures.book()[0], _no_keys),
    "equilateral_sd_octahedron": (
        lambda: barycentric_subdivide(fixtures.octahedron()[0])[0], _no_keys
    ),
    # too few slots for ranks: iid keys
    "equilateral_path_60": (lambda: fixtures.path_complex(60), mc.key_source),
}


@pytest.mark.parametrize("name", ["octahedron", "book", *EQUILATERAL_CASES])
def test_slicing_changes_no_measure(name, monkeypatch):
    if name in EQUILATERAL_CASES:  # not Gaussian rows
        carrier, keys = EQUILATERAL_CASES[name]
        emb = equilateral_embedding(carrier())
        monkeypatch.setattr(mc, "sample_unit_directions", None)
        monkeypatch.setattr(mc, "key_source", keys)
    else:
        _, emb = getattr(fixtures, name)()
    cone_stats, link_stats = [], []
    run_cone_counts = mc.run_cone_counts
    run_lower_link_stats = mc.run_lower_link_stats

    def recorded(*args):
        counts, stats = run_cone_counts(*args)
        cone_stats.append(stats)
        return counts, stats

    def recorded_links(*args):
        sums, sumsq, stats = run_lower_link_stats(*args)
        link_stats.append(stats)
        return sums, sumsq, stats

    monkeypatch.setattr(mc, "run_cone_counts", recorded)
    monkeypatch.setattr(mc, "run_lower_link_stats", recorded_links)
    samples = 2 * mc.BLOCK_ROWS + 400

    def measures():
        return (
            curvature_measure(emb, method="mc", samples=samples, seed=9),
            morse_curvature_measure(emb, samples=samples, seed=9),
        )

    default = measures()
    # a few pairs beyond either kernel's per-call bytes
    _, sizes, _ = _cell_table(emb)
    _, link_sizes, _, _, _, starts = mc.build_link_arrays(emb.carrier, len(emb.vertex_index))
    n = len(emb.vertex_order)
    pair_bytes = max(
        _kernels.cone_row_bytes(sizes, n), _kernels.index_row_bytes(link_sizes, n, starts)
    )
    budget = max(2048, 3 * pair_bytes) + max(
        _kernels.cone_call_bytes(sizes), _kernels.index_call_bytes(link_sizes, starts)
    )
    monkeypatch.setattr(mc, "KERNEL_BUDGET_BYTES", budget)
    cone_rows = _record_rows(monkeypatch, "cone_argmax_counts")
    link_rows = _record_rows(monkeypatch, "lower_link_index")
    sliced = measures()
    assert 1 < max(cone_rows) < 20 and 1 < max(link_rows) < 20
    # ValueWithError tuples and McStats compare exactly
    assert sliced == default
    assert cone_stats[0] == cone_stats[1]
    assert link_stats[0] == link_stats[1]


def test_kernel_memory_stays_under_the_budget():
    X, _ = fixtures.solid_tetrahedron()
    for _ in range(2):
        X, _ = barycentric_subdivide(X)
    emb = equilateral_embedding(X)
    # one 1,500-pair call of either kernel would take far more than the budget
    link_arrays = mc.build_link_arrays(X, len(emb.vertex_index))
    pair_bytes = _kernels.index_row_bytes(link_arrays[1], len(X.vertices), link_arrays[5])
    assert 1500 * pair_bytes > 10 * mc.KERNEL_BUDGET_BYTES
    tracemalloc.start()
    try:
        morse_curvature_measure(emb, samples=3000, seed=1)
        curvature_measure(emb, method="mc", samples=3000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.KERNEL_BUDGET_BYTES
