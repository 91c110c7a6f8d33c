"""Hot Monte Carlo counting kernels, in numpy.

Both kernels take a heights matrix H of shape (rows, n_vertices), where
H[b, v] is the height of vertex v under the b-th sampled direction.
Rows containing an exact height tie anywhere relevant are flagged and
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
    arbitrarily beyond sizes[m]; returns (counts, tie_rows).
    """
    n_rows = heights.shape[0]
    n_cells, width = cells.shape
    tie_rows = np.zeros(n_rows, dtype=bool)
    amax = np.empty((n_rows, n_cells), dtype=np.int64)
    for k in np.unique(sizes):
        idx = np.nonzero(sizes == k)[0]
        vals = heights[:, cells[idx, :k]]  # (rows, cells-of-size-k, k)
        mx = vals.max(axis=2)
        tie_rows |= ((vals == mx[:, :, None]).sum(axis=2) > 1).any(axis=1)
        amax[:, idx] = vals.argmax(axis=2)
    amax[tie_rows] = -1  # tie rows count in no slot
    counts = np.stack([(amax == j).sum(axis=0, dtype=np.int64) for j in range(width)], axis=1)
    return counts, tie_rows


def cone_row_bytes(sizes) -> int:
    """Bytes per row of cone_argmax_counts' temporaries: at most a float
    gather, a mask and int64 tallies per slot and per cell."""
    return 9 * int(sizes.sum()) + 25 * len(sizes)


def lower_link_index(heights, owner, simp_verts, simp_sizes, vert_ptr):
    """Per row and per vertex, the Morse index 1 - chi(lower link).

    The link simplices of all vertices are concatenated: simplex s has
    vertices simp_verts[s, :simp_sizes[s]] (padded with its own first
    vertex), belongs to the link of owner[s], and the per-vertex slices
    are vert_ptr[v]:vert_ptr[v+1]. chi uses the ordinary (closed) Euler
    characteristic of the full subcomplex of the link on strictly lower
    vertices. Rows with a height tie between any vertex and its link are
    flagged; their entries are zeroed.
    """
    n_rows, n_vertices = heights.shape
    idx = np.zeros((n_rows, n_vertices), dtype=np.int64)
    if simp_verts.shape[0] == 0:
        return idx + 1, np.zeros(n_rows, dtype=bool)
    hv = heights[:, owner]  # (rows, total link simplices)
    vals = heights[:, simp_verts]  # (rows, total, max_size); padding repeats a real vertex
    below = (vals < hv[:, :, None]).all(axis=2)
    tie_rows = (vals == hv[:, :, None]).any(axis=(1, 2))
    signs = np.where(simp_sizes % 2 == 1, 1, -1).astype(np.int64)
    contrib = below * signs
    for v in range(n_vertices):
        lo, hi = vert_ptr[v], vert_ptr[v + 1]
        idx[:, v] = 1 - contrib[:, lo:hi].sum(axis=1)
    idx[tie_rows] = 0
    return idx, tie_rows


def lower_link_row_bytes(simp_verts, n_vertices: int) -> int:
    """Bytes per row of lower_link_index's temporaries and output: a
    float gather with a mask per link-simplex slot, owner heights, masks
    and int64 terms per link simplex, and the int64 index per vertex."""
    n_simplices, width = simp_verts.shape
    return (9 * width + 17) * n_simplices + 16 * n_vertices


def backend_name() -> str:
    return "numpy"
