"""The one-direction-per-row hit-plane kernels, kept as the oracle of the
pair kernels in curvcalc._kernels.

Row b of a (rows, n) heights matrix is one direction: a slot hits where
its vertex is the maximum of its cell in that row, and a row in which a
cell has two hits is a tie row, which counts nothing. The pair kernels
must give, on x-rows H, what these give on [H; -H] once every pair with
a tie row in either half is dropped.
"""

import numpy as np

from curvcalc import _kernels


def hit_planes(heights, cells, sizes):
    """(hits, classes, tie_rows) as the pair core returns them, for one
    direction per row."""
    n_rows, n_vertices = heights.shape
    table = np.ascontiguousarray(heights.T)
    if _kernels.uses_ranks(n_vertices, sizes):
        table = _kernels._ranks(table)
    hits = np.empty((int(sizes.sum()), n_rows), dtype=bool)
    tie_rows = np.zeros(n_rows, dtype=bool)
    classes = []
    start = 0
    for k in _kernels.size_classes(sizes):
        idx = np.flatnonzero(sizes == k)
        planes = hits[start : start + k * len(idx)].reshape(k, len(idx), n_rows)
        start += k * len(idx)
        slot_values = [table[cells[idx, j]] for j in range(k)]
        top = slot_values[0] if k == 1 else np.maximum(slot_values[0], slot_values[1])
        for plane in slot_values[2:]:
            np.maximum(top, plane, out=top)
        for j, plane in enumerate(slot_values):
            np.equal(plane, top, out=planes[j])
        if k > 1:
            hits_per_cell = planes.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(k))
            tie_rows |= (hits_per_cell > 1).any(axis=0)
        classes.append((idx, planes))
    return hits, classes, tie_rows


def cone_argmax_counts(heights, cells, sizes):
    """(counts, tie_rows): per cell and slot, the tie-free rows in which
    that slot is the cell's strict maximum."""
    hits, classes, tie_rows = hit_planes(heights, cells, sizes)
    hits[:, tie_rows] = False
    counts = np.zeros(cells.shape, dtype=np.int64)
    start = 0
    for idx, planes in classes:
        k = len(planes)
        counts[idx, :k] = hits[start : start + k * len(idx)].sum(axis=1).reshape(k, len(idx)).T
        start += k * len(idx)
    return counts, tie_rows


def link_arrays(simp_verts, sizes, n_vertices):
    """(signs, order, owners, starts) of every slot of the table, vertex
    and edge slots included: order stably sorts the slots, in hit_planes'
    layout, by their owner's slot count, then by owner; signs holds the
    sorted slots' (-1)^dim as int8; owners are the coordinate rows that
    own slots, in that order, and starts where each begins."""
    owner = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [simp_verts[sizes == k, :k].T.ravel() for k in _kernels.size_classes(sizes)]
    )
    counts = np.bincount(owner, minlength=n_vertices)
    order = np.lexsort((owner, counts[owner]))
    slot_sizes = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.full(k * int((sizes == k).sum()), k) for k in _kernels.size_classes(sizes)
    ])
    signs = np.where(slot_sizes % 2, 1, -1).astype(np.int8)[order]
    owners = np.flatnonzero(counts)
    owners = owners[np.argsort(counts[owners], kind="stable")]
    return signs, order, owners, np.cumsum(counts[owners]) - counts[owners]


def lower_link_index(heights, simp_verts, sizes, signs, order, owners, starts):
    """(index, tie_rows): index[i, b] is Banchoff's index of coordinate
    row owners[i] in row b as int64, tie rows zeroed."""
    hits, _, tie_rows = hit_planes(heights, simp_verts, sizes)
    terms = hits[order].astype(np.int64) * signs[:, None]
    index = np.add.reduceat(terms, starts, axis=0) if len(order) else terms[:0]
    index[:, tie_rows] = 0
    return index, tie_rows


def _stacked(heights):
    return np.concatenate([heights, -heights])


def pair_cone_counts(heights, cells, sizes):
    """(counts, tie_pairs): the row counts over [H; -H] with every pair
    dropped that ties in either half."""
    m = len(heights)
    _, ties = cone_argmax_counts(_stacked(heights), cells, sizes)
    tie_pairs = ties[:m] | ties[m:]
    counts, _ = cone_argmax_counts(_stacked(heights[~tie_pairs]), cells, sizes)
    return counts, tie_pairs


def pair_lower_link_index(heights, simp_verts, sizes, n_vertices):
    """(pair_index, tie_pairs): I(x) + I(-x) from the row indices on
    [H; -H], per pair and coordinate row, an (m, n_vertices) int64
    array, 0 in the rows that own no slot and in the pairs that tie in
    either half."""
    m = len(heights)
    table = link_arrays(simp_verts, sizes, n_vertices)
    index, ties = lower_link_index(_stacked(heights), simp_verts, sizes, *table)
    full = np.zeros((n_vertices, 2 * m), dtype=np.int64)
    full[table[2]] = index
    tie_pairs = ties[:m] | ties[m:]
    pair_index = full[:, :m] + full[:, m:]
    pair_index[:, tie_pairs] = 0
    return pair_index.T, tie_pairs
