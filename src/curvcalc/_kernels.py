"""Hot Monte Carlo counting kernels, in numpy.

Both kernels take a heights matrix H of shape (rows, n_vertices), where
H[b, v] is the height of vertex v under the b-th sampled direction, and
work on its vertex-major copy H.T, one contiguous row per vertex: each
table slot gathers whole rows of it into a (cells, rows) plane, and a
cell's maximum is a running np.maximum over its slot planes. Rows
containing an exact height tie anywhere relevant are flagged and
contribute nothing; the caller resamples them. Every row is handled on
its own, so the counts and sums of a matrix are the sums of those of its
row slices. Each kernel has a companion giving an upper bound on the
bytes its temporaries take per row, which the driver in mc.py uses to
slice the rows it passes.
"""

import numpy as np


def cone_argmax_counts(heights, cells, sizes):
    """Count, per cell and per vertex slot, the tie-free rows in which
    that vertex is the strict maximum of the cell.

    cells is an int64 (n_cells, max_size) array of vertex indices padded
    arbitrarily beyond sizes[m]; returns (counts, tie_rows). A slot hits
    where its height equals the cell's maximum, and a tie row is one in
    which some cell has more than one hit.
    """
    n_rows = heights.shape[0]
    ht = np.ascontiguousarray(heights.T)
    tie_rows = np.zeros(n_rows, dtype=bool)
    classes = []
    for k in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == k)
        planes = [ht[cells[idx, j]] for j in range(k)]  # k of (cells of size k, rows)
        top = planes[0].copy()
        for plane in planes[1:]:
            np.maximum(top, plane, out=top)
        hits = np.empty((k, len(idx), n_rows), dtype=bool)
        for j, plane in enumerate(planes):
            np.equal(plane, top, out=hits[j])
        del planes, top
        if k > 1:
            seen = hits[0].copy()
            both = np.empty_like(seen)
            for hit in hits[1:]:
                np.logical_and(seen, hit, out=both)
                tie_rows |= both.any(axis=0)
                seen |= hit
        classes.append((idx, hits))
    counts = np.zeros(cells.shape, dtype=np.int64)
    keep = ~tie_rows
    for idx, hits in classes:
        hits &= keep
        counts[idx, : len(hits)] = np.count_nonzero(hits, axis=2).T
    return counts, tie_rows


def cone_row_bytes(sizes) -> int:
    """Bytes per row of every array cone_argmax_counts allocates, summed
    as if all were live at once: the vertex-major heights (one float per
    column, counted as one per slot, which is at least as many whenever
    every column is a vertex of some cell), the slot planes and a hit mask
    per slot, the running maximum and two tie masks per cell, and the tie
    and keep flags."""
    return 17 * int(sizes.sum()) + 10 * len(sizes) + 2


def lower_link_index(heights, owner, simp_verts, simp_sizes, vert_ptr):
    """Per row and per vertex, the Morse index 1 - chi(lower link).

    The link simplices of all vertices are concatenated: simplex s has
    vertices simp_verts[s, :simp_sizes[s]] (padded with its own first
    vertex), belongs to the link of owner[s], and the per-vertex slices
    are vert_ptr[v]:vert_ptr[v+1]. chi uses the ordinary (closed) Euler
    characteristic of the full subcomplex of the link on strictly lower
    vertices: a link simplex is lower when the running maximum of its
    slot planes is below its owner's height. Rows with a height tie
    between any vertex and its link are flagged; their entries are
    zeroed. The link simplices must come from a face-closed complex, so
    that every vertex of a link is also a one-vertex link simplex of the
    same owner: then the size-1 rows alone find every tie.
    """
    n_rows, n_vertices = heights.shape
    ht = np.ascontiguousarray(heights.T)
    edges = simp_sizes == 1
    tie_rows = (ht[simp_verts[edges, 0]] == ht[owner[edges]]).any(axis=0)
    top = ht[simp_verts[:, 0]]  # (link simplices, rows); padding repeats a real vertex
    for j in range(1, simp_verts.shape[1]):
        np.maximum(top, ht[simp_verts[:, j]], out=top)
    lengths = np.diff(vert_ptr)
    below = top < np.repeat(ht, lengths, axis=0)
    del top, ht
    signs = np.where(simp_sizes % 2 == 1, 1, -1).astype(np.int8)
    terms = below * signs[:, None]
    owners = np.flatnonzero(lengths)
    chi = np.add.reduceat(terms, vert_ptr[owners], axis=0, dtype=np.int64)
    idx = np.ones((n_vertices, n_rows), dtype=np.int64)
    idx[owners] = np.subtract(1, chi, out=chi)
    idx[:, tie_rows] = 0
    return idx.T, tie_rows


def lower_link_row_bytes(simp_verts, n_vertices: int) -> int:
    """Bytes per row of every array lower_link_index allocates, summed as
    if all were live at once. Per link simplex: the two edge-tie planes
    and their mask (at most one each), the running maximum, the slot
    plane, the repeated owner heights, the below mask and the int8 signed
    terms. Per vertex: the vertex-major heights, the int64 sums and the
    int64 index. Per row: the tie flags."""
    return 43 * simp_verts.shape[0] + 24 * n_vertices + 1


def backend_name() -> str:
    return "numpy"
