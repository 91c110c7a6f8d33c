"""Deterministic Monte Carlo direction sampling and the kernel driver.

Directions are unit vectors obtained from normalized standard Gaussians,
drawn in blocks of BLOCK_ROWS rows. Block b comes from a counter-based
Philox stream keyed by the user seed with b in the counter, so every
result is a function of the inputs, the seed and the sample count alone.
The driver passes each block's heights to a kernel in row slices sized
so the kernel's temporaries stay under KERNEL_BUDGET_BYTES (one row per
call if a single row exceeds it); kernel results add over rows, so the
slicing changes no output. Rows with exact height ties are discarded by
the kernels and replaced from later blocks, so every estimate uses
exactly the requested number of tie-free directions.

Both kernels' tables come from simplex_rows, the coordinate-matrix rows
of the vertices of every simplex by dimension: build_cell_arrays pads
them into the cone kernel's cells, and build_link_arrays splits each
simplex at each vertex into the lower-link kernel's (owner, link simplex)
rows, which is Banchoff's formula for the Morse index. Neither builds a
link or a coface table.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels

BLOCK_ROWS = 8192
KERNEL_BUDGET_BYTES = 8 * 2**20
_MAX_EMPTY_BLOCKS = 64


def sample_unit_directions(seed: int, batch_index: int, count: int, dim: int) -> np.ndarray:
    """Unit vectors, row-wise, from the (seed, batch_index) Philox stream."""
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    bit_gen = np.random.Philox(key=key, counter=[0, 0, 0, batch_index])
    rng = np.random.Generator(bit_gen)
    vecs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(vecs, axis=1)
    while np.any(norms == 0.0):  # probability zero, but stay total
        bad = norms == 0.0
        vecs[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(vecs, axis=1)
    return vecs / norms[:, None]


@dataclass
class McStats:
    samples: int
    resampled: int
    batches: int  # direction blocks drawn


def _drive(heights_fn, dim: int, n_samples: int, seed: int, row_bytes: int, accumulate):
    """Feed exactly n_samples tie-free directions to accumulate, which
    adds the tie-free rows of a (rows, n_vertices) heights slice to the
    caller's totals and returns the slice's number of tie rows.
    heights_fn maps a (rows, dim) direction array to its heights."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    step = max(1, KERNEL_BUDGET_BYTES // max(row_bytes, 1))
    remaining = n_samples
    blocks = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(BLOCK_ROWS, remaining)
        heights = heights_fn(sample_unit_directions(seed, blocks, rows, dim))
        blocks += 1
        n_tied = sum(accumulate(heights[lo : lo + step]) for lo in range(0, rows, step))
        remaining -= rows - n_tied
        resampled += n_tied
        empty_streak = empty_streak + 1 if n_tied == rows else 0
        if empty_streak >= _MAX_EMPTY_BLOCKS:
            raise RuntimeError("direction sampling keeps hitting height ties")
    return McStats(n_samples, resampled, blocks)


def run_cone_counts(
    heights_fn, dim: int, cells: np.ndarray, sizes: np.ndarray, n_samples: int, seed: int
):
    """Strict-argmax counts per (cell, vertex slot) over exactly
    n_samples tie-free directions, and the run's McStats."""
    counts = np.zeros(cells.shape, dtype=np.int64)

    def accumulate(heights):
        slice_counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
        counts[...] += slice_counts
        return int(ties.sum())

    stats = _drive(heights_fn, dim, n_samples, seed, _kernels.cone_row_bytes(sizes), accumulate)
    return counts, stats


def run_lower_link_stats(
    heights_fn, dim: int, link_arrays, n_vertices: int, n_samples: int, seed: int
):
    """Per-vertex sums and sums of squares of the Morse index over
    exactly n_samples tie-free directions, and the run's McStats."""
    sums = np.zeros(n_vertices, dtype=np.int64)
    sumsq = np.zeros(n_vertices, dtype=np.int64)

    def accumulate(heights):
        idx, ties = _kernels.lower_link_index(heights, *link_arrays)
        sums[...] += idx.sum(axis=0)  # tied rows are zeroed by the kernel
        sumsq[...] += (idx * idx).sum(axis=0)
        return int(ties.sum())

    row_bytes = _kernels.lower_link_row_bytes(link_arrays[1], n_vertices)
    stats = _drive(heights_fn, dim, n_samples, seed, row_bytes, accumulate)
    return sums, sumsq, stats


def smoothed_binomial_stderr(count, n: int):
    """Standard error of a cone-fraction estimate from a hit count or an
    array of them, with the proportion smoothed toward 1/2 by one
    pseudo-count so the bound is never zero."""
    p = (count + 1.0) / (n + 2.0)
    return np.sqrt(p * (1.0 - p) / n)


def build_cell_arrays(groups):
    """Pad per-size vertex index arrays into the (cells, sizes, signs)
    arrays the cone kernel wants.

    groups is a sequence of (ids, dims): ids is an (n, k) int array whose
    rows are the heights-matrix columns of n cells with k vertices each,
    and dims their dimensions (one int, or n of them). The table holds
    the groups' rows in the given order, each padded with its first
    vertex.
    """
    width = max((ids.shape[1] for ids, _ in groups), default=1)
    cells = [np.zeros((0, width), dtype=np.int64)]
    sizes = [np.zeros(0, dtype=np.int64)]
    signs = [np.zeros(0, dtype=np.int64)]
    for ids, dims in groups:
        n, k = ids.shape
        cells.append(np.concatenate([ids, np.repeat(ids[:, :1], width - k, axis=1)], axis=1))
        sizes.append(np.full(n, k, dtype=np.int64))
        signs.append(np.broadcast_to(1 - 2 * (np.asarray(dims, dtype=np.int64) % 2), (n,)))
    return np.concatenate(cells), np.concatenate(sizes), np.concatenate(signs)


def simplex_rows(complex, vertex_index) -> list:
    """(ids, d) per dimension d: ids is the (n_d, d+1) array of the
    coordinate-matrix rows of the vertices of complex.simplices_of_dim(d)."""
    rows = np.fromiter(map(vertex_index.__getitem__, complex.vertices), dtype=np.int64)
    return [(rows[complex.vertex_positions(d)], d) for d in range(complex.dim + 1)]


def build_link_arrays(complex, vertex_index):
    """The lower-link kernel's (owner, simp_verts, simp_sizes, vert_ptr).

    Slot j of a d-simplex with rows ids (d >= 1) gives the link simplex
    ids without ids[j], owned by ids[j] and padded like a cell table row
    with its own first vertex, never the owner. Rows are stably grouped
    by owner; vert_ptr has one slice per coordinate-matrix row, so rows
    the complex does not use get empty slices.
    """
    rows = simplex_rows(complex, vertex_index)[1:]
    by_slot = [(ids, j) for ids, d in rows for j in range(d + 1)]
    owner = np.concatenate([np.zeros(0, dtype=np.int64)] + [ids[:, j] for ids, j in by_slot])
    verts, sizes, _ = build_cell_arrays([(np.delete(ids, j, axis=1), 0) for ids, j in by_slot])
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=len(vertex_index))
    return owner[order], verts[order], sizes[order], np.concatenate([[0], np.cumsum(counts)])
