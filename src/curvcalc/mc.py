"""Deterministic Monte Carlo direction sampling and the kernel driver.

Directions are unnormalized standard Gaussian rows in antithetic pairs:
each row x of a block of BLOCK_ROWS rows stands for the two directions x
and -x. Block b comes from a Philox stream keyed by the seed with b in the
counter, so every result is a function of the inputs, the seed and the
sample count alone. The driver passes each block to a kernel in pair
slices that keep its temporaries under KERNEL_BUDGET_BYTES, and replaces
pairs in which either direction ties from later blocks, so every
estimate uses exactly ceil(samples / 2) tie-free pairs, whatever the
slicing. Both kernels read the simplex_rows table; neither builds a link
or coface.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels

BLOCK_ROWS = 8192
KERNEL_BUDGET_BYTES = 8 * 2**20
_MAX_EMPTY_BLOCKS = 64
SEED_BOUND = 2**64


def philox_key(seed) -> np.uint64:
    """The Philox key of a seed in [0, 2**64); no two seeds share one."""
    seed = operator.index(seed)
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.uint64(seed)


def sample_unit_directions(seed: int, batch_index: int, count: int, dim: int) -> np.ndarray:
    """The (count, dim) standard Gaussian rows of the (seed, batch_index)
    Philox stream, not unit vectors: only the order of heights is read."""
    bit_gen = np.random.Philox(key=philox_key(seed), counter=[0, 0, 0, batch_index])
    return np.random.Generator(bit_gen).standard_normal((count, dim))


@dataclass
class McStats:
    pairs: int  # tie-free direction pairs (x, -x)
    resampled: int  # pairs redrawn because x or -x tied
    batches: int  # direction blocks drawn

    @property
    def samples(self) -> int:
        """Directions used: two per pair."""
        return 2 * self.pairs


def linear_heights(coords):
    """The heights_fn of a coordinate matrix: heights(dirs, out) writes
    coords @ dirs.T, vertex-major, into out."""

    def heights(dirs, out):
        np.matmul(coords, dirs.T, out=out)

    return heights


def _drive(heights_fn, dim, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate):
    """Feed exactly ceil(n_samples / 2) tie-free direction pairs to
    accumulate, which adds the tie-free pairs of a (pairs, n_vertices)
    heights slice to the caller's totals and returns its number of tie
    pairs. Each Gaussian row x of a block is one pair, x and -x.
    heights_fn(dirs, out) writes the heights of a (rows, dim) direction
    array into an (n_vertices, rows) view of one buffer allocated once
    per run; accumulate gets its transpose. A call's fixed bytes come off
    the budget before it is divided into pairs."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n_pairs = -(-n_samples // 2)
    step = max(1, (KERNEL_BUDGET_BYTES - call_bytes) // max(pair_bytes, 1))
    buffer = np.empty(n_vertices * min(step, BLOCK_ROWS, n_pairs))
    remaining = n_pairs
    blocks = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(BLOCK_ROWS, remaining)
        dirs = sample_unit_directions(seed, blocks, rows, dim)
        blocks += 1
        n_tied = 0
        for lo in range(0, rows, step):
            part = dirs[lo : lo + step]
            heights = buffer[: n_vertices * len(part)].reshape(n_vertices, len(part))
            heights_fn(part, heights)
            n_tied += accumulate(heights.T)
        remaining -= rows - n_tied
        resampled += n_tied
        empty_streak = empty_streak + 1 if n_tied == rows else 0
        if empty_streak >= _MAX_EMPTY_BLOCKS:
            raise RuntimeError("direction sampling keeps hitting height ties")
    return McStats(n_pairs, resampled, blocks)


def run_cone_counts(
    heights_fn,
    dim: int,
    cells: np.ndarray,
    sizes: np.ndarray,
    n_vertices: int,
    n_samples: int,
    seed: int,
):
    """Strict-argmax counts per (cell, vertex slot) over the two
    directions of exactly ceil(n_samples / 2) tie-free pairs, and the
    run's McStats; heights_fn gives n_vertices heights per direction."""
    counts = np.zeros(cells.shape, dtype=np.int64)

    def accumulate(heights):
        slice_counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
        counts[...] += slice_counts
        return int(ties.sum())

    call_bytes = _kernels.cone_call_bytes(sizes)
    pair_bytes = _kernels.cone_row_bytes(sizes, n_vertices)
    stats = _drive(heights_fn, dim, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate)
    return counts, stats


def run_lower_link_stats(
    heights_fn, dim: int, link_arrays, n_vertices: int, n_samples: int, seed: int
):
    """Per-vertex sums, and sums of squares, of the pair index
    I(x) + I(-x) over exactly ceil(n_samples / 2) tie-free pairs, and the
    run's McStats."""
    sums = np.zeros(n_vertices, dtype=np.int64)
    sumsq = np.zeros(n_vertices, dtype=np.int64)
    _, sizes, _, order, owners, starts = link_arrays
    # An owner's vertex cell gives 2 per pair, and each of its other w - 1
    # slots +-1 at most once: a simplex with two or more vertices has no
    # vertex that is its strict maximum under both x and -x. So with
    # w <= 127 (an int8 index) |I(x) + I(-x)| <= w + 1 <= 128, which int16
    # holds, and its square, at most 16,384, int32.
    index_dtype = _kernels.index_dtype(starts, len(order))
    pair_dtype = np.promote_types(index_dtype, np.int16)
    square_dtype = np.promote_types(index_dtype, np.int32)

    def accumulate(heights):
        index, ties = _kernels.lower_link_index(heights, *link_arrays)
        m = len(ties)
        pair = np.add(index[:, :m], index[:, m:], dtype=pair_dtype)  # tied pairs are zeroed
        sums[owners] += pair.sum(axis=1, dtype=np.int64)
        sumsq[owners] += np.square(pair, dtype=square_dtype).sum(axis=1, dtype=np.int64)
        return int(ties.sum())

    call_bytes = _kernels.index_call_bytes(sizes, starts)
    pair_bytes = _kernels.index_row_bytes(sizes, n_vertices, starts)
    stats = _drive(heights_fn, dim, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate)
    return sums, sumsq, stats


def smoothed_binomial_stderr(count, n: int):
    """Standard error of the proportion count / n of a binomial hit count
    (count <= n) or an array of them, with the proportion smoothed toward
    1/2 by one pseudo-count so the bound is never zero."""
    p = (count + 1.0) / (n + 2.0)
    return np.sqrt(p * (1.0 - p) / n)


def build_cell_arrays(groups):
    """Pad per-size vertex index arrays into a (cells, sizes, signs) table.

    groups is a sequence of (ids, dims): ids is an (n, k) int array whose
    rows are the heights-matrix columns of n cells with k vertices each,
    and dims their dimensions (one int, or n of them). The table holds the
    rows in the given order, each padded with its first vertex.
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
    """The Morse kernel's (simp_verts, sizes, signs, order, owners, starts).

    The cell table of every simplex is sorted by size, so the hit-plane
    slots run by dimension d, then slot j, then simplex, and hold the
    columns ids[:, j] of simplex_rows, their owners. order stably sorts
    them by their owner's slot count, then by owner, so owners with equal
    counts own one block; signs holds the sorted slots' (-1)^d as int8;
    owners are the columns that own slots, in that order, and starts
    where each begins.
    """
    rows = simplex_rows(complex, vertex_index)
    simp_verts, sizes, _ = build_cell_arrays(rows)
    owner = np.concatenate([np.zeros(0, dtype=np.int64)] + [ids.T.ravel() for ids, _ in rows])
    counts = np.bincount(owner, minlength=len(vertex_index))
    order = np.lexsort((owner, counts[owner]))
    signs = np.where(np.repeat(sizes, sizes) % 2, 1, -1).astype(np.int8)[order]
    owners = np.flatnonzero(counts)
    owners = owners[np.argsort(counts[owners], kind="stable")]
    return simp_verts, sizes, signs, order, owners, np.cumsum(counts[owners]) - counts[owners]
