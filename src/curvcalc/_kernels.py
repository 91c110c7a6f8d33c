"""Hot Monte Carlo kernels, in numpy: one hit-plane core, two reductions.

Both kernels take a heights matrix H, H[b, v] being the height of vertex v
under the b-th direction, and a cell table (cells, sizes) padded as
mc.build_cell_arrays pads it. The core, _hit_planes, gathers rows of the
vertex-major H.T into one (cells, rows) plane per slot of a size class; a
slot hits where its plane equals the class's running np.maximum, and a
row in which a cell has two hits is a tie row, which counts nothing and
which the caller resamples. Rows are independent, so the driver in mc.py
may slice them under each kernel's row-bytes bound.
"""

import numpy as np


def size_classes(sizes) -> list:
    """The distinct sizes of a cell table, ascending."""
    return np.flatnonzero(np.bincount(sizes)).tolist()


def _hit_planes(heights, cells, sizes):
    """(hits, classes, tie_rows): hits is a (sizes.sum(), rows) bool array
    with one block per size class k, in size_classes order, and classes
    lists each class's (members, planes), its table rows and its block as
    (k, len(members), rows): planes[j, i, b] says whether slot j of cell
    members[i] holds the cell's maximum in row b."""
    n_rows = heights.shape[0]
    ht = np.ascontiguousarray(heights.T)
    hits = np.empty((int(sizes.sum()), n_rows), dtype=bool)
    tie_rows = np.zeros(n_rows, dtype=bool)
    classes = []
    start = 0
    for k in size_classes(sizes):
        idx = np.flatnonzero(sizes == k)
        planes = hits[start : start + k * len(idx)].reshape(k, len(idx), n_rows)
        start += k * len(idx)
        slot_heights = [ht[cells[idx, j]] for j in range(k)]  # k of (cells of size k, rows)
        top = slot_heights[0] if k == 1 else np.maximum(slot_heights[0], slot_heights[1])
        for plane in slot_heights[2:]:
            np.maximum(top, plane, out=top)
        for j, plane in enumerate(slot_heights):
            np.equal(plane, top, out=planes[j])
        del slot_heights, top
        if k > 1:  # a cell's k hits are counted in the narrowest dtype holding k
            hits_per_cell = planes.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(k))
            tie_rows |= (hits_per_cell > 1).any(axis=0)
        classes.append((idx, planes))
    return hits, classes, tie_rows


def cone_argmax_counts(heights, cells, sizes):
    """(counts, tie_rows): per cell and vertex slot, the number of
    tie-free rows in which that vertex is the strict maximum of the cell.
    cells is an int64 (n_cells, max_size) array padded arbitrarily."""
    _, classes, tie_rows = _hit_planes(heights, cells, sizes)
    counts = np.zeros(cells.shape, dtype=np.int64)
    keep = ~tie_rows
    for idx, planes in classes:
        planes &= keep
        counts[idx, : len(planes)] = np.count_nonzero(planes, axis=2).T
    return counts, tie_rows


def cone_row_bytes(sizes) -> int:
    """Bytes per row of every array cone_argmax_counts allocates, summed
    as if all were live at once: per slot the heights (at least one per
    column if every column is a vertex of a cell), plane and hit; per cell
    the running maximum and two tie masks; the tie and keep flags."""
    return 17 * int(sizes.sum()) + 10 * len(sizes) + 2


def lower_link_index(heights, simp_verts, sizes, signs, order, owners, starts):
    """(index, tie_rows): per row and coordinate row v, Banchoff's Morse
    index of v, the sum over the simplices s at v of (-1)^dim s where v is
    the strict maximum of s, which is 1 - chi(lower link of v).

    The table is mc.build_link_arrays'; a row without slots sums nothing.
    In a face-closed complex a cell with two hits has an edge with two,
    so the tie rows are the lower link's; their entries are zeroed.
    """
    hits, _, tie_rows = _hit_planes(heights, simp_verts, sizes)
    terms = hits.view(np.int8)[order]
    terms *= signs[:, None]
    # a sum over n slots lies in [-n, n]: int8 holds it for n <= 127
    narrow = np.diff(starts, append=len(order)).max(initial=0) <= 127
    idx = np.zeros((heights.shape[1], heights.shape[0]), dtype=np.int64)
    idx[owners] = np.add.reduceat(terms, starts, axis=0, dtype=np.int8 if narrow else np.int64)
    idx[:, tie_rows] = 0
    return idx.T, tie_rows


def index_row_bytes(sizes, n_vertices: int) -> int:
    """Bytes per row of every array lower_link_index allocates, summed as
    if all were live at once: those of cone_row_bytes, the int8 terms per
    slot, and the heights, sums and index per coordinate row."""
    return cone_row_bytes(sizes) + int(sizes.sum()) + 24 * n_vertices


def backend_name() -> str:
    return "numpy"
