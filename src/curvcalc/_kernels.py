"""Hot Monte Carlo kernels, in numpy: one hit-plane core, two reductions.

Both kernels take a heights matrix H, H[b, v] being the height of vertex v
under the direction x_b of row b, and a cell table (cells, sizes) padded
as mc.build_cell_arrays pads it, and answer for the 2m directions x_b and
-x_b of H's m rows, the transpose of a column slice of a block of an
mc.Source: float64 Gaussian heights, uint64 keys or the ranks of
mc.permutation_ranks, never negated or cast. Only the order of the
heights in a row matters, so the core, _hit_planes, may compare per-row
competition ranks instead of heights: the rank of v is the number of heights in its row strictly
below v's, and every < and == between two heights of a row also holds
between their ranks. Ranks fit one byte up to 256 vertices, where a
height takes eight, but ranking a row takes n^2 comparisons, so the core
ranks only when n^2 <= 4 * slots (uses_ranks), and takes a table already
in the rank dtype as ranks. A row's ranks sum to C(n, 2) exactly when no
two of its heights tie, so a call whose rows all do counts no ties.
Either way the core gathers rows of the vertex-major table into one
(cells, rows) plane per slot of a size class. A slot hits under x where
its plane equals the class's running np.maximum, and under -x where it
equals the running np.minimum: the strict minimum under x is the strict
maximum under -x, exactly, on heights and on ranks. A direction in
which a cell has two hits ties, and a pair with a tie in either
direction counts nothing and is resampled by the caller. The cone
kernel counts hits on bit-packed planes; the Morse kernel sums signed
hits per vertex, a block of vertices with equal slot counts at a time.
Rows are independent, so the driver in mc.py may slice them under each
kernel's per-call and per-pair byte bounds.
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


def _rank_sum_dtype(n_vertices: int):
    """The narrowest dtype holding a row's rank sum, at most C(n, 2)."""
    return np.min_scalar_type(n_vertices * (n_vertices - 1) // 2)


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
    """(hits, classes, tie_pairs) for the m pairs of a (m, n) heights
    array: hits is a (sizes.sum(), 2m) bool array whose column b is
    the direction of row b and column m + b its negation, with one block
    per size class k, in size_classes order; classes lists each class's
    (members, planes), its table rows and its block as (k, len(members),
    2m): planes[j, i, b] says whether slot j of cell members[i] holds the
    cell's maximum in column b. tie_pairs flags the rows that tie in
    either column."""
    n_pairs, n_vertices = heights.shape
    table = np.ascontiguousarray(heights.T)  # a copy, unless the slice is a whole block
    ranked = table.dtype == _rank_dtype(n_vertices)  # mc.permutation_ranks
    if not ranked and uses_ranks(n_vertices, sizes):
        table = _ranks(table)
        ranked = True
    # competition ranks sum to C(n, 2) exactly in a row without a tied pair
    vertex_pairs = n_vertices * (n_vertices - 1) // 2
    tie_free = ranked and bool(
        (table.sum(axis=0, dtype=_rank_sum_dtype(n_vertices)) == vertex_pairs).all()
    )
    hits = np.empty((int(sizes.sum()), 2 * n_pairs), dtype=bool)
    tie_rows = np.zeros(2 * n_pairs, dtype=bool)
    classes = []
    start = 0
    for k in size_classes(sizes):
        idx = np.flatnonzero(sizes == k)
        planes = hits[start : start + k * len(idx)].reshape(k, len(idx), 2 * n_pairs)
        start += k * len(idx)
        classes.append((idx, planes))
        if k == 1:  # a vertex is the maximum of its own cell under x and -x
            planes[...] = True
            continue
        slot_values = [table[cells[idx, j]] for j in range(k)]  # k of (cells of size k, m)
        top = np.maximum(slot_values[0], slot_values[1])
        bottom = np.minimum(slot_values[0], slot_values[1])
        for plane in slot_values[2:]:
            np.maximum(top, plane, out=top)
            np.minimum(bottom, plane, out=bottom)
        # the strict minimum under x is the strict maximum under -x
        for j, plane in enumerate(slot_values):
            np.equal(plane, top, out=planes[j, :, :n_pairs])
            np.equal(plane, bottom, out=planes[j, :, n_pairs:])
        del slot_values, top, bottom
        if not tie_free:
            # a cell's k hits are counted in the narrowest dtype holding k
            hits_per_cell = planes.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(k))
            tie_rows |= (hits_per_cell > 1).any(axis=0)
    return hits, classes, tie_rows[:n_pairs] | tie_rows[n_pairs:]


# numpy's buffered casts (the int64 sums of narrower ints) take up to
# 8,192 elements of 8 bytes for the length of one call
_CAST_BUFFER_BYTES = 8192 * 8


def _call_bytes(sizes) -> int:
    """Bytes of every per-call array _hit_planes allocates: per cell a
    size-class mask, a member index and an entry of one slot's index
    column, and a numpy cast buffer."""
    return 17 * len(sizes) + _CAST_BUFFER_BYTES


def _plane_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per pair of every array _hit_planes allocates, summed as if
    all were live at once: per vertex the contiguous copy of the slice
    and, when ranking, the rank and its comparison mask, and then the
    row's rank sum and its check; per slot a table entry and two hits;
    per cell the running maximum and minimum, two hit counts of up to two
    bytes and their tie masks; the tie flags, their per-class reduction
    and the pair flags."""
    if uses_ranks(n_vertices, sizes):
        item = _rank_dtype(n_vertices).itemsize
        table = (9 + item) * n_vertices + _rank_sum_dtype(n_vertices).itemsize + 1
    else:
        item = 8
        table = 8 * n_vertices
    return table + (item + 2) * int(sizes.sum()) + (2 * item + 6) * len(sizes) + 5


def cone_argmax_counts(heights, cells, sizes):
    """(counts, tie_pairs): per cell and vertex slot, the number of
    directions x and -x of the tie-free rows of heights in which that
    vertex is the strict maximum of the cell. cells is an int64
    (n_cells, max_size) array padded arbitrarily."""
    hits, classes, tie_pairs = _hit_planes(heights, cells, sizes)
    packed = np.packbits(hits, axis=1)
    if tie_pairs.any():
        packed &= np.packbits(np.tile(~tie_pairs, 2))
    slot_counts = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    counts = np.zeros(cells.shape, dtype=np.int64)
    start = 0
    for idx, planes in classes:
        k = len(planes)
        counts[idx, :k] = slot_counts[start : start + k * len(idx)].reshape(k, len(idx)).T
        start += k * len(idx)
    return counts, tie_pairs


def cone_call_bytes(sizes) -> int:
    """Bytes of the per-call arrays of cone_argmax_counts: those of
    _hit_planes, the int64 counts of the padded table and the int64 count
    per slot."""
    return _call_bytes(sizes) + 8 * len(sizes) * int(sizes.max(initial=1)) + 8 * int(sizes.sum())


def cone_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per pair of every array cone_argmax_counts allocates, summed
    as if all were live at once: those of _hit_planes, half a byte per
    slot for the packed hits and their bit counts, and the keep flags."""
    return _plane_row_bytes(sizes, n_vertices) + (int(sizes.sum()) + 1) // 2 + 4


def index_dtype(starts, n_slots: int):
    """The dtype of the Morse sums: a sum over n slots lies in [-n, n], so
    int8 holds it when no owner has more than 127 slots."""
    return np.int8 if np.diff(starts, append=n_slots).max(initial=0) <= 127 else np.int64


def lower_link_index(heights, simp_verts, sizes, signs, order, owners, starts):
    """(index, tie_pairs): index[i, b] is Banchoff's Morse index of
    coordinate row owners[i] in column b of _hit_planes, the sum over the
    simplices s at it of (-1)^dim s where it is the strict maximum of s,
    which is 1 - chi(lower link), in index_dtype. A row without slots
    sums nothing and is left out.

    The table is mc.build_link_arrays'. In a face-closed complex a cell
    with two hits has an edge with two, so the tie pairs are the lower
    links'; both their columns are zeroed.
    """
    hits, _, tie_pairs = _hit_planes(heights, simp_verts, sizes)
    terms = hits.view(np.int8)[order]
    terms *= signs[:, None]
    index = np.empty((len(owners), hits.shape[1]), dtype=index_dtype(starts, len(order)))
    # owners come sorted by slot count, so each run of owners a..b-1 with
    # the same count w holds one (b - a, w, columns) block of terms
    widths = np.diff(starts, append=len(order))
    firsts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    for a, b in zip(firsts, [*firsts[1:], len(owners)]):
        lo, width = int(starts[a]), int(widths[a])
        block = terms[lo : lo + (b - a) * width].reshape(b - a, width, -1)
        np.add.reduce(block, axis=1, out=index[a:b])
    if tie_pairs.any():
        index[:, np.tile(tie_pairs, 2)] = 0
    return index, tie_pairs


def index_call_bytes(sizes, starts) -> int:
    """Bytes of the per-call arrays of lower_link_index and the driver's
    sums: those of _hit_planes and, per owner, the slot counts and block
    starts and the driver's int64 sums and their scatter, 64 bytes in
    all."""
    return _call_bytes(sizes) + 64 * len(starts)


def index_row_bytes(sizes, n_vertices: int, starts) -> int:
    """Bytes per pair of every array lower_link_index and the driver's
    sums allocate, summed as if all were live at once: those of
    _hit_planes and two int8 terms per slot, and per owner (at most one
    per coordinate row) the two sums and the pair's sum and its square,
    int8, int8, int16 and int32, or int64 throughout if an owner has more
    than 127 slots."""
    per_owner = 8 if index_dtype(starts, int(sizes.sum())) == np.int8 else 32
    return _plane_row_bytes(sizes, n_vertices) + 2 * int(sizes.sum()) + per_owner * n_vertices + 3


def backend_name() -> str:
    return "numpy"
