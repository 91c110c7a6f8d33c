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

morse_index is the lower-link oracle (morse_indices gives every vertex's
from one computation of the heights); the measure's kernel sums Banchoff's
equal form, the signs (-1)^dim s of the simplices s in which v is highest.
"""

import math

import numpy as np

from .complexes import SimplicialComplex
from .curvature import Embedding, _vertex_measure
from .errors import CarrierMismatch, DimensionMismatch, NonGenericDirection, UnknownVertex
from . import mc


def as_direction(vector) -> np.ndarray:
    """Normalize to a unit vector; rejects the zero vector and non-finite
    ones. The vector is first scaled by a power of two that brings its
    largest component into [0.5, 1), which is exact, so the norm of a
    finite vector neither overflows nor underflows."""
    x = np.asarray(vector, dtype=float)
    top = float(np.max(np.abs(x), initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        raise ValueError("direction must be a nonzero finite vector")
    x = np.ldexp(x, -math.frexp(top)[1])
    x = x / np.linalg.norm(x)
    assert abs(float(np.linalg.norm(x)) - 1.0) < 1e-12
    return x


def _heights(direction, embedding: Embedding) -> dict:
    # h_x(y) = -<x, y>, so the index counts descent rather than ascent
    x, dim = as_direction(direction), embedding.ambient_dim
    if x.shape != (dim,):
        raise DimensionMismatch(f"direction has {x.size} components, the embedding {dim}")
    return {v: -h for v, h in zip(embedding.vertex_order, embedding._direction_heights(x))}


def lower_link(complex: SimplicialComplex, v, heights) -> SimplicialComplex:
    """Full subcomplex of link(v) on the vertices with smaller height;
    raises NonGenericDirection on a height tie with v."""
    link = complex.link(v)
    if any(heights[w] == heights[v] for w in link.vertices):
        raise NonGenericDirection(v)
    return link.full_subcomplex(w for w in link.vertices if heights[w] < heights[v])


def _simplicial_carrier(embedding: Embedding) -> SimplicialComplex:
    if not isinstance(embedding.carrier, SimplicialComplex):
        raise CarrierMismatch("Morse indices are defined on simplicial carriers")
    return embedding.carrier


def morse_index(v, direction, embedding: Embedding) -> int:
    """1 - chi(lower link of v) for the height function of a direction."""
    carrier = _simplicial_carrier(embedding)
    if v not in carrier.vertices:
        raise UnknownVertex(v)
    return 1 - lower_link(carrier, v, _heights(direction, embedding)).euler_characteristic()


def morse_indices(direction, embedding: Embedding) -> dict:
    """{v: morse_index(v, direction, embedding)} for every vertex of the
    carrier, with the heights computed once."""
    carrier = _simplicial_carrier(embedding)
    heights = _heights(direction, embedding)
    return {v: 1 - lower_link(carrier, v, heights).euler_characteristic() for v in carrier.vertices}


def morse_curvature_measure(
    embedding: Embedding,
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Direction-averaged Morse index per vertex, with standard errors.

    Directions come in antithetic pairs x, -x, ceil(samples / 2) of
    them, and a pair is resampled when either direction ties, so every
    estimate is an average over exactly 2 * ceil(samples / 2) generic
    directions. The per-vertex stderr is the standard deviation of the
    pair mean (I(x) + I(-x)) / 2 divided by sqrt(pairs), its variance
    smoothed by one pseudo-pair 1/2 from the mean at every vertex of a
    triangle. At any other vertex the pair index is 2 - degree in every
    pair (each edge has v on top under exactly one of x and -x), so the
    estimate is exact and the bound 0; elsewhere it is never 0. The
    kernel plans only the slots of simplices of three or more vertices;
    the vertex and edge terms, 2 - degree per pair, are added once per
    run, in exact integers.
    """
    carrier = _simplicial_carrier(embedding)
    n = len(embedding.vertex_order)
    link_arrays = mc.build_link_arrays(carrier)
    # the pair index I(x) + I(-x) is even in x, so heights need no sign
    source = embedding._height_source(link_arrays[1])
    sums, sumsq, stats = mc.run_lower_link_stats(source, link_arrays, n, samples, seed)
    pairs = stats.pairs
    mean = sums / (2.0 * pairs)  # half the mean pair index
    # squared deviations of the pair means from their mean, and the
    # pseudo-pair's 1/4 once at each vertex of a triangle
    squares = np.maximum(sumsq / 4.0 - pairs * mean * mean, 0.0)
    squares[carrier.vertex_positions(2)] += 0.25  # the carrier's vertices are the first rows
    bound = np.sqrt(squares / ((pairs + 1.0) * pairs))
    # a coordinate the complex does not use is in no simplex: its sums are 0
    return _vertex_measure(embedding.vertex_order, mean, bound)
