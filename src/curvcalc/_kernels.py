"""Hot Monte Carlo kernels, in numpy: one hit-plane core, two reductions.

Both kernels take a heights matrix H, H[b, v] being the height of vertex v
under the b-th direction, and a cell table (cells, sizes) padded as
mc.build_cell_arrays pads it. Only the order of the heights in a row
matters, so the core, _hit_planes, may compare per-row competition ranks
instead of heights: the rank of v is the number of heights in its row
strictly below v's, and every < and == between two heights of a row also
holds between their ranks. Ranks fit one byte up to 256 vertices, where a
height takes eight, but ranking a row takes n^2 comparisons, so the core
ranks only when n^2 <= 4 * slots (uses_ranks). Either way it gathers rows
of the vertex-major table into one (cells, rows) plane per slot of a size
class; a slot hits where its plane equals the class's running np.maximum,
and a row in which a cell has two hits is a tie row, which counts nothing
and which the caller resamples. The cone kernel counts hits on bit-packed
planes; the Morse kernel sums signed hits per vertex, a block of vertices
with equal slot counts at a time. Rows are independent, so the driver in
mc.py may slice them under each kernel's row-bytes bound.
"""

import numpy as np


def size_classes(sizes) -> list:
    """The distinct sizes of a cell table, ascending."""
    return np.flatnonzero(np.bincount(sizes)).tolist()


def uses_ranks(n_vertices: int, sizes) -> bool:
    """Whether _hit_planes compares ranks: ranking costs n^2 comparisons
    per row, against one float gather per slot that it shrinks."""
    return n_vertices**2 <= 4 * int(sizes.sum())


def _rank_dtype(n_vertices: int):
    return np.min_scalar_type(max(n_vertices - 1, 0))


def _ranks(ht):
    """ranks[v, b]: the number of w with ht[w, b] < ht[v, b], for a
    vertex-major (n, rows) heights table, in the narrowest dtype holding
    n - 1."""
    ranks = np.zeros(ht.shape, dtype=_rank_dtype(len(ht)))
    below = np.empty(ht.shape, dtype=bool)
    for heights_of_w in ht:
        np.less(heights_of_w, ht, out=below)
        ranks += below.view(np.uint8)  # an add without a bool cast
    return ranks


def _hit_planes(heights, cells, sizes):
    """(hits, classes, tie_rows): hits is a (sizes.sum(), rows) bool array
    with one block per size class k, in size_classes order, and classes
    lists each class's (members, planes), its table rows and its block as
    (k, len(members), rows): planes[j, i, b] says whether slot j of cell
    members[i] holds the cell's maximum in row b."""
    n_rows, n_vertices = heights.shape
    table = np.ascontiguousarray(heights.T)
    if uses_ranks(n_vertices, sizes):
        table = _ranks(table)
    hits = np.empty((int(sizes.sum()), n_rows), dtype=bool)
    tie_rows = np.zeros(n_rows, dtype=bool)
    classes = []
    start = 0
    for k in size_classes(sizes):
        idx = np.flatnonzero(sizes == k)
        planes = hits[start : start + k * len(idx)].reshape(k, len(idx), n_rows)
        start += k * len(idx)
        slot_values = [table[cells[idx, j]] for j in range(k)]  # k of (cells of size k, rows)
        top = slot_values[0] if k == 1 else np.maximum(slot_values[0], slot_values[1])
        for plane in slot_values[2:]:
            np.maximum(top, plane, out=top)
        for j, plane in enumerate(slot_values):
            np.equal(plane, top, out=planes[j])
        del slot_values, top
        if k > 1:  # a cell's k hits are counted in the narrowest dtype holding k
            hits_per_cell = planes.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(k))
            tie_rows |= (hits_per_cell > 1).any(axis=0)
        classes.append((idx, planes))
    return hits, classes, tie_rows


def _plane_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per row of every array _hit_planes allocates, summed as if all
    were live at once: the float table and, when ranking, the ranks and
    their comparison mask; per slot a table entry and a hit; per cell the
    running maximum, a hit count of up to two bytes and its tie mask; the
    tie flags and their per-class reduction."""
    if uses_ranks(n_vertices, sizes):
        item = _rank_dtype(n_vertices).itemsize
        table = (9 + item) * n_vertices
    else:
        item = 8
        table = 8 * n_vertices
    return table + (item + 1) * int(sizes.sum()) + (item + 3) * len(sizes) + 2


def cone_argmax_counts(heights, cells, sizes):
    """(counts, tie_rows): per cell and vertex slot, the number of
    tie-free rows in which that vertex is the strict maximum of the cell.
    cells is an int64 (n_cells, max_size) array padded arbitrarily."""
    hits, classes, tie_rows = _hit_planes(heights, cells, sizes)
    packed = np.packbits(hits, axis=1)
    packed &= np.packbits(~tie_rows)
    slot_counts = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    counts = np.zeros(cells.shape, dtype=np.int64)
    start = 0
    for idx, planes in classes:
        k = len(planes)
        counts[idx, :k] = slot_counts[start : start + k * len(idx)].reshape(k, len(idx)).T
        start += k * len(idx)
    return counts, tie_rows


def cone_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per row of every array cone_argmax_counts allocates, summed
    as if all were live at once: those of _hit_planes, a quarter byte per
    slot for the packed hits and their bit counts, and the keep flags."""
    return _plane_row_bytes(sizes, n_vertices) + (int(sizes.sum()) + 3) // 4 + 2


def index_dtype(starts, n_slots: int):
    """The dtype of the Morse sums: a sum over n slots lies in [-n, n], so
    int8 holds it when no owner has more than 127 slots."""
    return np.int8 if np.diff(starts, append=n_slots).max(initial=0) <= 127 else np.int64


def lower_link_index(heights, simp_verts, sizes, signs, order, owners, starts):
    """(index, tie_rows): index[i, b] is Banchoff's Morse index of
    coordinate row owners[i] in row b, the sum over the simplices s at it
    of (-1)^dim s where it is the strict maximum of s, which is
    1 - chi(lower link), in index_dtype. A row without slots sums nothing
    and is left out.

    The table is mc.build_link_arrays'. In a face-closed complex a cell
    with two hits has an edge with two, so the tie rows are the lower
    link's; their entries are zeroed.
    """
    hits, _, tie_rows = _hit_planes(heights, simp_verts, sizes)
    terms = hits.view(np.int8)[order]
    terms *= signs[:, None]
    index = np.empty((len(owners), len(tie_rows)), dtype=index_dtype(starts, len(order)))
    # owners come sorted by slot count, so each run of owners a..b-1 with
    # the same count w holds one (b - a, w, rows) block of terms
    widths = np.diff(starts, append=len(order))
    firsts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    for a, b in zip(firsts, [*firsts[1:], len(owners)]):
        lo, width = int(starts[a]), int(widths[a])
        block = terms[lo : lo + (b - a) * width].reshape(b - a, width, -1)
        np.add.reduce(block, axis=1, out=index[a:b])
    index[:, tie_rows] = 0
    return index, tie_rows


def index_row_bytes(sizes, n_vertices: int, starts) -> int:
    """Bytes per row of every array lower_link_index and the driver's sums
    allocate, summed as if all were live at once: those of _hit_planes and
    the int8 terms per slot, and per owner (at most one per coordinate row)
    the sums and their squares, int8 and int16, or both int64 if an owner
    has more than 127 slots."""
    per_owner = 3 if index_dtype(starts, int(sizes.sum())) == np.int8 else 16
    return _plane_row_bytes(sizes, n_vertices) + int(sizes.sum()) + per_owner * n_vertices + 8


def backend_name() -> str:
    return "numpy"
