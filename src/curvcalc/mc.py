"""Deterministic Monte Carlo direction sampling and the kernel driver.

Directions come in antithetic pairs: each row of a block stands for a
direction x and its negation -x. A heights Source draws block b whole,
as the vertex-major table of its rows' heights, from a Philox stream
keyed by the seed with b in the counter, and caps its rows so that a
draw holds at most BLOCK_BYTES. gaussian_source multiplies a coordinate
matrix by unnormalized standard Gaussian rows. The Gaussian heights of a
coordinate-vector matrix are iid, so their order is a uniformly random
permutation: curvature.height_source gives such a matrix rank_source
where the kernels would rank heights, and key_source, iid uint64 keys,
otherwise. The kernels read only the order of the heights in a row, so
ranks and keys are heights too. The driver hands each block to a kernel
in column slices of at most CALL_BYTES of temporaries, and replaces
pairs in which either direction ties from later blocks, so every
estimate uses exactly ceil(samples / 2) tie-free pairs and is a function
of the inputs, the seed and the sample count alone, whatever the
slicing. Both kernels read the simplex_rows table; neither builds a link
or coface. Their temporaries lie in one workspace per thread
(_kernels.workspace), at most KERNEL_BUDGET_BYTES, kept for the life of
the process by every thread that has run a kernel.
"""

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .errors import PersistentTies

BLOCK_ROWS = 8192
KERNEL_BUDGET_BYTES = _kernels.KERNEL_BUDGET_BYTES
# A block's bytes: a quarter of the kernel budget, fixed, since block
# sizes choose the rows drawn while column slices change no output. A
# draw keeps 1 KiB of them for its generator and array objects.
BLOCK_BYTES = KERNEL_BUDGET_BYTES // 4
# A kernel call's bytes, so its workspace, aim at half the budget: past
# about a thousand pairs a call, on 27-vertex subdivided complexes, more
# pairs a call take no less time per pair, while a whole 8,192-row block
# of a small complex stays one call.
CALL_BYTES = KERNEL_BUDGET_BYTES // 2
_DRAW_OBJECT_BYTES = 1024
_MAX_EMPTY_BLOCKS = 64
SEED_BOUND = 2**64


def philox_key(seed) -> np.uint64:
    """The Philox key of a seed in [0, 2**64); no two seeds share one."""
    seed = operator.index(seed)
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.uint64(seed)


def offset_seed(seed, offset: int) -> int:
    """The seed of a stream derived from a valid seed: seed + offset,
    wrapped into [0, 2**64)."""
    return (int(philox_key(seed)) + offset) % SEED_BOUND


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


class Source(NamedTuple):
    """A heights source: draw(seed, block, rows), for rows <= block_rows,
    returns the (n_vertices, rows) vertex-major table of the block."""

    block_rows: int
    draw: Callable


def _block_rows(row_bytes: int, fixed_bytes: int = _DRAW_OBJECT_BYTES) -> int:
    return min(BLOCK_ROWS, max(1, (BLOCK_BYTES - fixed_bytes) // max(row_bytes, 1)))


def gaussian_source(coords) -> Source:
    """coords @ x.T for the Gaussian rows x of sample_unit_directions; a
    draw holds the rows and their heights, 8 (n + dim) bytes a row."""
    n, dim = coords.shape

    def draw(seed, block, rows):
        return coords @ sample_unit_directions(seed, block, rows, dim).T

    return Source(_block_rows(8 * (n + dim)), draw)


def key_source(n: int) -> Source:
    """n iid uint64 keys a row: row r of block b is raw outputs
    4wr .. 4wr + n - 1 of the (seed, b) Philox stream, w = ceil(n / 4), as
    Philox4x64 gives 4 outputs per counter step; a draw holds the stream
    and its vertex-major copy, 8 (4w + n) bytes a row."""
    w = -(-n // 4)

    def draw(seed, block, rows):
        bit_gen = np.random.Philox(key=philox_key(seed), counter=[0, 0, 0, block])
        raw = bit_gen.random_raw(4 * w * rows).reshape(rows, 4 * w)
        return np.ascontiguousarray(raw[:, :n].T)

    return Source(_block_rows(8 * (4 * w + n)), draw)


def rank_source(n: int) -> Source:
    """The permutation_ranks of n vertices. A draw holds the ranks and
    their insertion mask, and per row three 4-byte words: a word, its
    quotient and their difference, the digit; wider ranks add their lifts
    through a numpy cast buffer."""
    row_bytes = (_kernels._rank_dtype(n).itemsize + 1) * n + 12
    rows = _block_rows(row_bytes, _kernels._CAST_BUFFER_BYTES)
    return Source(rows, lambda seed, block, rows: permutation_ranks(seed, block, rows, n))


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


def _drive(source, n_samples, seed, call_bytes, pair_bytes, accumulate):
    """Feed exactly ceil(n_samples / 2) tie-free direction pairs, for an
    integer n_samples, to accumulate, which adds the tie-free pairs of a
    (pairs, n_vertices) heights slice to the caller's totals and returns
    its number of tie pairs. Each row of a block is one pair, x and -x;
    accumulate gets the transposes of column slices of the source's
    blocks. A call's fixed bytes come off the budget before it is divided
    into pairs."""
    n_samples = operator.index(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n_pairs = -(-n_samples // 2)
    step = max(1, (min(CALL_BYTES, KERNEL_BUDGET_BYTES) - call_bytes) // max(pair_bytes, 1))
    remaining = n_pairs
    blocks = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(source.block_rows, remaining)
        table = source.draw(seed, blocks, rows)
        n_tied = sum(accumulate(table[:, lo : lo + step].T) for lo in range(0, rows, step))
        del table  # before the next block is drawn
        blocks += 1
        remaining -= rows - n_tied
        resampled += n_tied
        empty_streak = empty_streak + 1 if n_tied == rows else 0
        if empty_streak >= _MAX_EMPTY_BLOCKS:
            raise PersistentTies("direction sampling keeps hitting height ties")
    return McStats(n_pairs, resampled, blocks)


def run_cone_counts(source, cells, sizes, n_vertices: int, n_samples: int, seed: int):
    """Strict-argmax counts per (cell, vertex slot) over the two
    directions of exactly ceil(n_samples / 2) tie-free pairs, and the
    run's McStats; source gives n_vertices heights per direction. The
    kernel's plan is built once and serves every call."""
    counts = np.zeros(cells.shape, dtype=np.int64)
    plan = _kernels.cone_plan(cells, sizes)

    def accumulate(heights):
        slice_counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes, plan)
        counts[...] += slice_counts
        return int(ties.sum())

    call_bytes = _kernels.cone_call_bytes(sizes)
    pair_bytes = _kernels.cone_row_bytes(sizes, n_vertices)
    stats = _drive(source, n_samples, seed, call_bytes, pair_bytes, accumulate)
    return counts, stats


def run_lower_link_stats(source, link_arrays, n_vertices: int, n_samples: int, seed: int):
    """Per-vertex sums, and sums of squares, of the pair index
    I(x) + I(-x) over exactly ceil(n_samples / 2) tie-free pairs, and the
    run's McStats. The kernel's plan is built once and serves every call.
    The kernel gives Q, the part of the cells of three or more vertices;
    the vertex and edge cells add the plan's constant c to every pair, so
    with N pairs the sums are sum Q + N c and the squares
    sum Q^2 + 2 c sum Q + N c^2, exact int64 added once, at the end."""
    simp_verts, sizes, _ = link_arrays
    plan = _kernels.link_plan(simp_verts, sizes, n_vertices)
    owner_sums = np.zeros((2, len(plan.owners)), dtype=np.int64)
    square_dtype = _kernels.square_dtype(plan.dtype)

    def accumulate(heights):
        index, ties = _kernels.lower_link_index(heights, simp_verts, sizes, plan)
        owner_sums[0] += index.sum(axis=1, dtype=np.int64)  # tied pairs are zeroed
        # the squares lie in the kernels' workspace
        arena = _kernels.workspace(index.size * square_dtype.itemsize + _kernels._SLACK)
        square = np.square(index, dtype=square_dtype, out=arena(index.shape, square_dtype))
        owner_sums[1] += square.sum(axis=1, dtype=np.int64)
        return int(ties.sum())

    call_bytes = _kernels.index_call_bytes(sizes, plan)
    pair_bytes = _kernels.index_row_bytes(sizes, n_vertices, plan)
    stats = _drive(source, n_samples, seed, call_bytes, pair_bytes, accumulate)
    sums = np.zeros((2, n_vertices), dtype=np.int64)
    sums[:, plan.owners] = owner_sums
    c = plan.constant
    sums[1] += 2 * c * sums[0] + stats.pairs * c * c
    sums[0] += stats.pairs * c
    return sums[0], sums[1], stats


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
    total = sum(len(ids) for ids, _ in groups)
    cells = np.empty((total, width), dtype=np.int64)
    sizes = np.empty(total, dtype=np.int64)
    signs = np.empty(total, dtype=np.int64)
    lo = 0
    for ids, dims in groups:
        n, k = ids.shape
        cells[lo : lo + n, :k] = ids
        cells[lo : lo + n, k:] = ids[:, :1]
        sizes[lo : lo + n] = k
        signs[lo : lo + n] = 1 - 2 * (np.asarray(dims, dtype=np.int64) % 2)
        lo += n
    return cells, sizes, signs


def simplex_rows(complex) -> list:
    """(ids, d) per dimension d: ids is complex.vertex_positions(d), the
    coordinate-matrix rows of the vertices of complex.simplices_of_dim(d)
    in an embedding of the complex, whose vertices are its first rows."""
    return [(complex.vertex_positions(d), d) for d in range(complex.dim + 1)]


def build_link_arrays(complex):
    """The Morse kernel's table (simp_verts, sizes, signs) of every
    simplex of the complex, in simplex_rows order; its run plan,
    _kernels.link_plan, sorts the slots by owner."""
    return build_cell_arrays(simplex_rows(complex))
