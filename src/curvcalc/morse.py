"""Stratified Morse indices of linear height functions, and the
direction-averaged curvature measure they induce.

For a linear function on an embedded complex the only critical points
are vertices, and the local topological change at a vertex v is captured
by the lower link: the full subcomplex of link(v) on the vertices with
strictly smaller height. The index is 1 - chi(lower link), with chi the
ordinary Euler characteristic (lower links are compact). Summed over all
vertices the indices give chi of the complex, for every generic
direction; averaging over uniformly sampled directions gives the same
atomic curvature measure as the normal-cone construction.
"""

import numpy as np

from .complexes import SimplicialComplex
from .curvature import Embedding, ValueWithError
from .errors import CarrierMismatch, NonGenericDirection, UnknownVertex
from . import mc


def as_direction(vector) -> np.ndarray:
    """Normalize to a unit vector; rejects the zero vector."""
    x = np.asarray(vector, dtype=float)
    n = float(np.linalg.norm(x))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("direction must be a nonzero finite vector")
    x = x / n
    assert abs(float(np.linalg.norm(x)) - 1.0) < 1e-12
    return x


def _heights(direction, embedding: Embedding) -> dict:
    # h_x(y) = -<x, y>, so the index counts descent rather than ascent
    return {
        v: -float(np.dot(direction, embedding.coordinates[v]))
        for v in embedding.coordinates
    }


def lower_link(complex: SimplicialComplex, v, heights) -> SimplicialComplex:
    """Full subcomplex of link(v) on the vertices with smaller height;
    raises NonGenericDirection on a height tie with v."""
    link = complex.link(v)
    hv = heights[v]
    lower = set()
    for w in link.vertices:
        if heights[w] == hv:
            raise NonGenericDirection(v)
        if heights[w] < hv:
            lower.add(w)
    return link.full_subcomplex(lower)


def morse_index(v, direction, embedding: Embedding) -> int:
    """1 - chi(lower link of v) for the height function of a direction."""
    carrier = embedding.carrier
    if not isinstance(carrier, SimplicialComplex):
        raise CarrierMismatch("Morse indices are defined on simplicial carriers")
    if v not in carrier.vertices:
        raise UnknownVertex(v)
    x = as_direction(direction)
    heights = _heights(x, embedding)
    return 1 - lower_link(carrier, v, heights).euler_characteristic()


def chi_sum_check(direction, embedding: Embedding) -> int:
    """Sum of the vertex indices for one generic direction; equals the
    Euler characteristic of a compact complex."""
    x = as_direction(direction)
    heights = _heights(x, embedding)
    return sum(
        1 - lower_link(embedding.carrier, v, heights).euler_characteristic()
        for v in embedding.carrier.vertices
    )


def morse_curvature_measure(
    embedding: Embedding,
    samples: int = 100_000,
    seed: int = 0,
    with_stats: bool = False,
):
    """Direction-averaged Morse index per vertex, with standard errors.

    Ties are resampled, so every estimate is an average over exactly
    `samples` generic directions. The per-vertex stderr is the empirical
    standard deviation of the integer index divided by sqrt(samples).
    """
    carrier = embedding.carrier
    if not isinstance(carrier, SimplicialComplex):
        raise CarrierMismatch("the Morse measure is defined on simplicial carriers")
    index = embedding.vertex_index
    link_arrays = mc.build_link_arrays(carrier, index)
    coords = embedding.matrix()

    def heights(dirs):
        return -(dirs @ coords.T)

    sums, sumsq, stats = mc.run_lower_link_stats(
        heights, embedding.ambient_dim, link_arrays, len(carrier.vertices), samples, seed
    )
    result = {}
    for v in embedding.vertex_order:
        i = index[v]
        mean = sums[i] / samples
        var = max(sumsq[i] / samples - mean * mean, 0.0)
        result[v] = ValueWithError(float(mean), float(np.sqrt(var / samples)))
    if with_stats:
        return result, stats
    return result
