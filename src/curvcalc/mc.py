"""Deterministic Monte Carlo direction sampling and the kernel driver.

Directions come in antithetic pairs: each row of a block stands for a
direction x and its negation -x. A heights source turns the rows into
vertex heights. linear_heights reads unnormalized standard Gaussian rows
of at most BLOCK_ROWS rows and BLOCK_BYTES bytes a block. Coordinate-vector
matrices, whose Gaussian heights are iid, take key_heights instead
(curvature.height_source picks it): the order of iid heights is a
uniformly random permutation, which the driver draws as the
permutation_ranks of a block when the kernels would rank its heights,
and as one iid uint64 key per vertex and row otherwise. The kernels read
only the order of the heights in a row, so ranks and keys are heights
too. Block b of each comes from a Philox stream keyed by the seed with b
in the counter, so every result is a function of the inputs, the seed
and the sample count alone. The driver passes each block to a
kernel in pair slices that keep its temporaries under
KERNEL_BUDGET_BYTES, and replaces pairs in which either direction ties
from later blocks, so every estimate uses exactly ceil(samples / 2)
tie-free pairs, whatever the slicing. Both kernels read the simplex_rows
table; neither builds a link or coface.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels

BLOCK_ROWS = 8192
KERNEL_BUDGET_BYTES = 8 * 2**20
# A Gaussian or rank block's bytes: a quarter of the kernel budget, fixed,
# since block sizes choose the rows drawn while pair slices change no output.
BLOCK_BYTES = KERNEL_BUDGET_BYTES // 4
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
    """The heights source of a coordinate matrix: heights(dirs, out)
    writes coords @ dirs.T, vertex-major, into out."""

    def heights(dirs, out):
        np.matmul(coords, dirs.T, out=out)

    return heights


def key_heights(seed, block: int, lo: int, out) -> None:
    """The heights source of a coordinate-vector matrix: writes the iid
    uint64 keys of rows lo .. lo + m - 1 of a block into the (n, m) array
    out, vertex-major. Row r of block b is raw outputs 4wr .. 4wr + n - 1
    of the (seed, b) Philox stream, w = ceil(n / 4), and Philox4x64 gives
    4 outputs per counter step, so a slice starts at counter lo * w and
    no key depends on the slicing."""
    n, m = out.shape
    w = -(-n // 4)
    bit_gen = np.random.Philox(key=philox_key(seed), counter=[lo * w, 0, 0, block])
    np.copyto(out, bit_gen.random_raw(4 * w * m).reshape(m, 4 * w)[:, :n].T)


def permutation_ranks(seed, block: int, rows: int, n: int) -> np.ndarray:
    """The (n, rows) ranks of rows uniformly random permutations of
    0 .. n-1, vertex-major, in the kernels' rank dtype: column b is the
    order of n iid heights. Vertex v takes a digit c_v, uniform on [0, v],
    as its rank and lifts every earlier rank >= c_v by one, so the digits
    and the permutations correspond one to one. The digits are packed into
    mixed-radix words below 2**32 that Generator.integers draws, exactly
    uniform, from the (seed, block) Philox stream: the first word of
    every row, then the second, and so on."""
    ranks = np.zeros((n, rows), dtype=_kernels._rank_dtype(n))
    lifted = np.empty((n, rows), dtype=bool)
    quotient = np.empty(rows, dtype=np.uint32)
    rng = np.random.Generator(np.random.Philox(key=philox_key(seed), counter=[0, 0, 0, block]))
    v = 1
    while v < n:
        end, radix_product = v, 1
        while end < n and radix_product * (end + 1) <= 2**32:
            radix_product *= end + 1
            end += 1
        word = rng.integers(radix_product, size=rows, dtype=np.uint32)
        for v in range(v, end):
            # a divmod in two steps: numpy divides by a scalar fast
            np.floor_divide(word, v + 1, out=quotient)
            word -= quotient * (v + 1)
            ranks[v] = word
            word, quotient = quotient, word
            np.greater_equal(ranks[:v], ranks[v], out=lifted[:v])
            ranks[:v] += lifted[:v].view(np.uint8)
        v = end
    return ranks


def _drive(
    heights_fn, dim, sizes, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate
):
    """Feed exactly ceil(n_samples / 2) tie-free direction pairs, for an
    integer n_samples, to accumulate, which adds the tie-free pairs of a
    (pairs, n_vertices) heights slice to the caller's totals and returns
    its number of tie pairs. Each row of a block is one pair, x and -x.
    heights_fn is key_heights, or heights(dirs, out) of a (rows, dim)
    Gaussian direction array. Either writes into an (n_vertices, rows)
    view of one buffer allocated once per run; accumulate gets its
    transpose. On the key path, a table whose cell sizes the kernels rank
    (_kernels.uses_ranks) takes the permutation_ranks of a whole block
    instead, in column slices, and never ties. A call's fixed bytes come
    off the budget before it is divided into pairs, each of which also
    holds its key slice when keys are drawn."""
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    keys = heights_fn is key_heights
    ranks = keys and _kernels.uses_ranks(n_vertices, sizes)
    if ranks:
        # the block's ranks and insertion mask, and per row three 4-byte
        # words: a word, its quotient and their difference, the digit;
        # wider ranks add their lifts through a numpy cast buffer
        row_bytes = (_kernels._rank_dtype(n_vertices).itemsize + 1) * n_vertices + 12
        rank_bytes = BLOCK_BYTES - _kernels._CAST_BUFFER_BYTES
        block_rows = min(BLOCK_ROWS, max(1, rank_bytes // row_bytes))
    elif keys:
        block_rows = BLOCK_ROWS
        pair_bytes += 32 * -(-n_vertices // 4)
    else:
        block_rows = min(BLOCK_ROWS, max(1, BLOCK_BYTES // (8 * max(dim, 1))))
    n_pairs = -(-n_samples // 2)
    step = max(1, (KERNEL_BUDGET_BYTES - call_bytes) // max(pair_bytes, 1))
    if not ranks:
        size = n_vertices * min(step, block_rows, n_pairs)
        buffer = np.empty(size, dtype=np.uint64 if keys else float)
    remaining = n_pairs
    blocks = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(block_rows, remaining)
        if ranks:
            table = permutation_ranks(seed, blocks, rows, n_vertices)
        elif not keys:
            dirs = sample_unit_directions(seed, blocks, rows, dim)
        n_tied = 0
        for lo in range(0, rows, step):
            m = min(step, rows - lo)
            if ranks:
                heights = table[:, lo : lo + m]
            else:
                heights = buffer[: n_vertices * m].reshape(n_vertices, m)
                if keys:
                    key_heights(seed, blocks, lo, heights)
                else:
                    heights_fn(dirs[lo : lo + m], heights)
            n_tied += accumulate(heights.T)
        blocks += 1
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
    run's McStats; heights_fn, a heights source (see _drive), gives
    n_vertices heights per direction."""
    counts = np.zeros(cells.shape, dtype=np.int64)

    def accumulate(heights):
        slice_counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
        counts[...] += slice_counts
        return int(ties.sum())

    call_bytes = _kernels.cone_call_bytes(sizes)
    pair_bytes = _kernels.cone_row_bytes(sizes, n_vertices)
    stats = _drive(
        heights_fn, dim, sizes, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate
    )
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
    stats = _drive(
        heights_fn, dim, sizes, n_vertices, n_samples, seed, call_bytes, pair_bytes, accumulate
    )
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
