"""Deterministic Monte Carlo direction sampling and kernel drivers.

Directions are unit vectors obtained from normalized standard Gaussians.
Each batch draws from a counter-based Philox stream keyed by the user
seed with the batch index in the counter, so the same seed and the same
batch_size reproduce the same output. A different batch_size starts a
fresh counter at every batch boundary and so draws different directions.
Rows with exact height ties are discarded by the kernels and replaced
from later batches, so every estimate uses exactly the requested number
of tie-free directions.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels

_MAX_EMPTY_BATCHES = 64


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
    batches: int


def run_cone_counts(
    heights_fn,
    dim: int,
    cells: np.ndarray,
    sizes: np.ndarray,
    n_samples: int,
    seed: int,
    batch_size: int = 8192,
):
    """Accumulate strict-argmax counts per (cell, vertex slot) over
    exactly n_samples tie-free directions. heights_fn maps a (rows, dim)
    direction array to a (rows, n_vertices) height array."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    counts = np.zeros(cells.shape, dtype=np.int64)
    remaining = n_samples
    batch_index = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(batch_size, remaining)
        dirs = sample_unit_directions(seed, batch_index, rows, dim)
        batch_index += 1
        heights = heights_fn(dirs)
        batch_counts, ties = _kernels.cone_argmax_counts(heights, cells, sizes)
        n_tied = int(ties.sum())
        counts += batch_counts
        remaining -= rows - n_tied
        resampled += n_tied
        empty_streak = empty_streak + 1 if n_tied == rows else 0
        if empty_streak >= _MAX_EMPTY_BATCHES:
            raise RuntimeError("direction sampling keeps hitting height ties")
    return counts, McStats(n_samples, resampled, batch_index)


def run_lower_link_stats(
    heights_fn,
    dim: int,
    link_arrays,
    n_vertices: int,
    n_samples: int,
    seed: int,
    batch_size: int = 8192,
):
    """Accumulate per-vertex sums and sums of squares of the Morse index
    over exactly n_samples tie-free directions."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    owner, simp_verts, simp_sizes, vert_ptr = link_arrays
    sums = np.zeros(n_vertices, dtype=np.int64)
    sumsq = np.zeros(n_vertices, dtype=np.int64)
    remaining = n_samples
    batch_index = 0
    resampled = 0
    empty_streak = 0
    while remaining > 0:
        rows = min(batch_size, remaining)
        dirs = sample_unit_directions(seed, batch_index, rows, dim)
        batch_index += 1
        heights = heights_fn(dirs)
        idx, ties = _kernels.lower_link_index(
            heights, owner, simp_verts, simp_sizes, vert_ptr
        )
        n_tied = int(ties.sum())
        sums += idx.sum(axis=0)  # tied rows are zeroed by the kernel
        sumsq += (idx * idx).sum(axis=0)
        remaining -= rows - n_tied
        resampled += n_tied
        empty_streak = empty_streak + 1 if n_tied == rows else 0
        if empty_streak >= _MAX_EMPTY_BATCHES:
            raise RuntimeError("direction sampling keeps hitting height ties")
    return sums, sumsq, McStats(n_samples, resampled, batch_index)


def smoothed_binomial_stderr(count, n: int):
    """Standard error of a cone-fraction estimate from a hit count or an
    array of them, with the proportion smoothed toward 1/2 by one
    pseudo-count so the bound is never zero."""
    p = (count + 1.0) / (n + 2.0)
    return np.sqrt(p * (1.0 - p) / n)


def build_cell_arrays(cells_with_dims, vertex_index):
    """Pad variable-size vertex lists into the (cells, sizes, signs)
    arrays the cone kernel wants.

    cells_with_dims is a list of (vertex_objects, dim); vertex_index maps
    a vertex object to its column in the heights matrix.
    """
    width = max((len(vs) for vs, _ in cells_with_dims), default=1)
    n = len(cells_with_dims)
    cells = np.zeros((n, width), dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    signs = np.zeros(n, dtype=np.int64)
    for m, (vs, dim) in enumerate(cells_with_dims):
        ids = [vertex_index[v] for v in vs]
        sizes[m] = len(ids)
        cells[m, : len(ids)] = ids
        if len(ids) < width:
            cells[m, len(ids):] = ids[0]
        signs[m] = -1 if dim % 2 else 1
    return cells, sizes, signs


def build_link_arrays(complex, vertex_index):
    """Concatenated link-simplex arrays for the lower-link kernel."""
    owner = []
    verts = []
    sizes = []
    ptr = [0]
    ordered = sorted(complex.vertices, key=lambda v: vertex_index[v])
    for v in ordered:
        link = complex.link(v)
        for s in sorted(link.simplices, key=lambda s: (len(s), s)):
            owner.append(vertex_index[v])
            verts.append([vertex_index[u] for u in s])
            sizes.append(len(s))
        ptr.append(len(owner))
    width = max((len(vs) for vs in verts), default=1)
    verts_arr = np.zeros((len(verts), width), dtype=np.int64)
    for i, vs in enumerate(verts):
        verts_arr[i, : len(vs)] = vs
        if len(vs) < width:
            verts_arr[i, len(vs):] = vs[0]
    return (
        np.array(owner, dtype=np.int64),
        verts_arr,
        np.array(sizes, dtype=np.int64),
        np.array(ptr, dtype=np.int64),
    )
