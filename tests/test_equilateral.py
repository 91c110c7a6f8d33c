"""The implicit equilateral embedding against the materialized matrix
c * I that it stands for: every Monte Carlo and Morse output is bitwise
equal, exact curvature agrees with the Gram-angle path, and no n x n
matrix is built unless it is asked for."""

import math
import tracemalloc

import numpy as np
import pytest

from curvcalc import euler, fixtures, mc
from curvcalc.complexes import SimplicialComplex, barycentric_subdivide
from curvcalc.curvature import (
    Embedding,
    centred_coordinates,
    curvature_measure,
    equilateral_embedding,
    excess_angle,
)
from curvcalc.errors import ExactUnavailable
from curvcalc.morse import morse_curvature_measure, morse_indices
from curvcalc.pushforwards import fubini_curvature

SCALE = math.sqrt(2.0) / 2.0
COMPLEXES = {
    name: lambda name=name: getattr(fixtures, name)()[0]
    for name in (
        "segment", "filled_triangle", "hollow_triangle", "square_boundary",
        "octahedron", "cone_fan", "book", "solid_tetrahedron",
    )
}
COMPLEXES["sd_book"] = lambda: barycentric_subdivide(fixtures.book()[0])[0]
COMPLEXES["sparse_ids"] = lambda: SimplicialComplex.from_maximal([(3, 10, 42), (10, 42, 77), (5,)])


def materialized(X):
    coords = SCALE * np.eye(len(X.vertices))
    coords.flags.writeable = False
    return Embedding(X, coords)


def recorded_stats(monkeypatch):
    """The McStats of every driver run, in call order."""
    stats = []
    for name in ("run_cone_counts", "run_lower_link_stats"):
        run = getattr(mc, name)

        def recorded(*args, _run=run, **kwargs):
            result = _run(*args, **kwargs)
            stats.append(result[-1])
            return result

        monkeypatch.setattr(mc, name, recorded)
    return stats


def monte_carlo_outputs(emb, seed):
    simplex = max(emb.carrier.simplices, key=len)
    return (
        curvature_measure(emb, method="mc", samples=3001, seed=seed),
        morse_curvature_measure(emb, samples=3001, seed=seed),
        excess_angle(simplex, simplex[-1], emb, method="mc", samples=3001, seed=seed),
    )


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("name", COMPLEXES)
def test_implicit_and_materialized_monte_carlo_are_bitwise_equal(name, seed, monkeypatch):
    X = COMPLEXES[name]()
    stats = recorded_stats(monkeypatch)
    implicit = monte_carlo_outputs(equilateral_embedding(X), seed)
    implicit_stats = list(stats)
    stats.clear()
    dense = monte_carlo_outputs(materialized(X), seed)
    # ValueWithError tuples and McStats compare exactly
    assert implicit == dense
    assert implicit_stats == stats


@pytest.mark.parametrize("name", COMPLEXES)
def test_restrictions_stay_implicit_and_equal(name):
    X = COMPLEXES[name]()
    top = max(X.simplices, key=len)
    piece = SimplicialComplex.from_maximal([top])
    emb, dense = equilateral_embedding(X).restrict(piece), materialized(X).restrict(piece)
    assert emb._matrix is None and emb.ambient_dim == dense.ambient_dim
    assert emb.vertex_order == dense.vertex_order
    np.testing.assert_array_equal(emb.matrix(), dense.matrix())
    for seed in (5, 6):
        assert monte_carlo_outputs(emb, seed) == monte_carlo_outputs(dense, seed)
    assert curvature_measure(emb) == {v: (float(w), 0.0) for v, w in euler.weights(piece).items()}


@pytest.mark.parametrize("seed", [5, 6])
def test_fubini_curvature_of_implicit_factors_is_bitwise_equal(seed):
    X, Y = fixtures.hollow_triangle()[0], fixtures.segment()[0]
    implicit = fubini_curvature(equilateral_embedding(X), equilateral_embedding(Y), samples=3001, seed=seed)
    dense = fubini_curvature(materialized(X), materialized(Y), samples=3001, seed=seed)
    assert implicit == dense


@pytest.mark.parametrize("name", COMPLEXES)
def test_equilateral_exact_curvature_is_the_euler_weight(name):
    X = COMPLEXES[name]()
    kappa = curvature_measure(equilateral_embedding(X), method="exact")
    # the float of each exact weight, and the Gram-angle path on c * I
    assert kappa == {v: (float(w), 0.0) for v, w in euler.weights(X).items()}
    angles = curvature_measure(materialized(X), method="exact")
    for v, (value, bound) in kappa.items():
        assert bound == 0.0 and abs(value - angles[v].value) <= 1e-12


def test_equilateral_exact_curvature_keeps_the_dimension_rule():
    X = SimplicialComplex.from_maximal([tuple(range(5))])
    with pytest.raises(ExactUnavailable):
        curvature_measure(equilateral_embedding(X), method="exact")


def test_the_matrix_is_built_only_on_request(monkeypatch):
    X = COMPLEXES["sd_book"]()

    def refuse(self):
        raise AssertionError("an equilateral embedding is not checked")

    monkeypatch.setattr(Embedding, "_check_nondegenerate", refuse)
    emb = equilateral_embedding(X)
    curvature_measure(emb, method="mc", samples=101, seed=1)
    morse_curvature_measure(emb, samples=101, seed=1)
    curvature_measure(emb, method="exact")
    morse_indices(np.arange(1, len(X.vertices) + 1, dtype=float), emb)
    assert emb._matrix is None
    matrix = emb.matrix()
    np.testing.assert_array_equal(matrix, SCALE * np.eye(len(X.vertices)))
    assert not matrix.flags.writeable and emb.matrix() is matrix
    assert list(emb.coordinates) == list(X.vertices)


def test_morse_indices_read_the_implicit_form():
    X = COMPLEXES["sd_book"]()
    direction = np.random.default_rng(3).standard_normal(len(X.vertices))
    assert morse_indices(direction, equilateral_embedding(X)) == morse_indices(direction, materialized(X))


def test_monte_carlo_on_a_long_path_builds_no_square_matrix():
    # the 5,001 x 5,001 matrix alone would take 200 MB
    emb = equilateral_embedding(fixtures.path_complex(5_000))
    tracemalloc.start()
    try:
        kappa = curvature_measure(emb, method="mc", samples=256, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert kappa[0].value == kappa[5_000].value == 0.5
    assert emb._matrix is None


def test_centring_moves_each_column_of_one_sign_to_0():
    coords = np.array([[1e20, 3.0, -3.0], [1e20, -1.0, -5.0], [1e20 + 2**20, 0.5, -4.0], [2e20, 7.0, -3.5]])
    # the first column loses its least value, the third its greatest, and
    # the second, whose range holds 0, is kept
    want = [[0.0, 3.0, 0.0], [0.0, -1.0, -2.0], [2.0**20, 0.5, -1.0], [1e20, 7.0, -0.5]]
    np.testing.assert_array_equal(centred_coordinates(coords), want)
    # a column spread past the float range holds 0, so it is kept
    wide = np.array([[-1e308, 1e-300], [1e308, 1.0], [1e308, 2.0]])
    np.testing.assert_array_equal(centred_coordinates(wide), [[-1e308, 0.0], [1e308, 1.0], [1e308, 2.0]])
    # a tiny feature at the origin keeps its coordinates beside unit ones
    near = np.array([[0.0, 0.0], [1e-20, 0.0], [0.0, 1e-20], [1.0, 1.0], [2.0, 2.0]])
    np.testing.assert_array_equal(centred_coordinates(near), near)
