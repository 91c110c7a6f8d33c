"""The exact cone fractions of the triangle-angle table against the
per-(cell, slot) oracle in exact_cone_oracle: bitwise equal fractions,
curvature and excess angles, on the fixtures, the subdivision ladders of
the command-line benchmark, random complexes and extreme scales."""

import math

import numpy as np
import pytest

from curvcalc import fixtures, mc
from curvcalc.complexes import SimplicialComplex, barycentric_subdivide, subdivision_vertex_simplices
from curvcalc.curvature import (
    Embedding,
    _exact_fractions,
    curvature_measure,
    excess_angle,
    gauss_bonnet_check,
)

import exact_cone_oracle

FIXTURES = ("segment", "square_boundary", "filled_triangle", "octahedron", "cone_fan", "book", "solid_tetrahedron")


def bits(values) -> np.ndarray:
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_matches_the_oracle(embedding):
    complex = embedding.carrier
    coords = embedding.matrix()
    fast = [f.ravel() for _, f in _exact_fractions(coords, complex)]
    fast = np.concatenate([np.zeros(0), *fast])
    np.testing.assert_array_equal(bits(fast), bits(exact_cone_oracle.slot_fractions(coords, complex)))
    kappa = curvature_measure(embedding)
    expected = exact_cone_oracle.curvature(embedding)
    assert list(kappa) == list(expected)
    np.testing.assert_array_equal(bits([k.value for k in kappa.values()]), bits(list(expected.values())))
    assert all(k.bound == 0.0 for k in kappa.values())


def scaled(embedding, scale):
    return Embedding(embedding.carrier, {v: scale * np.asarray(c) for v, c in embedding.coordinates.items()})


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_the_oracle(name):
    _, embedding = getattr(fixtures, name)()
    assert_matches_the_oracle(embedding)
    complex = embedding.carrier
    cells, sizes, _ = exact_cone_oracle.simplex_table(complex)
    oracle = exact_cone_oracle.exact_cone_fractions(embedding.matrix(), cells, sizes)
    for row, simplex in enumerate(s for d in range(complex.dim + 1) for s in complex.simplices_of_dim(d)):
        for slot, v in enumerate(simplex):
            assert bits(excess_angle(simplex, v, embedding).value) == bits(oracle[row, slot]), simplex


def ladder():
    """The benchmark's exact-curvature ladders: sd1-sd3 of the octahedron,
    the cone fan and the book, sd1-sd2 of the solid tetrahedron, each
    vertex moved by up to 5% of the shortest edge."""
    rng = np.random.default_rng(7)
    for fixture, depth in (("octahedron", 3), ("cone_fan", 3), ("book", 3), ("solid_tetrahedron", 2)):
        x, embedding = getattr(fixtures, fixture)()
        coords = {v: np.asarray(embedding.coordinates[v]) for v in x.vertices}
        for level in range(1, depth + 1):
            parents = subdivision_vertex_simplices(x)
            x, _ = barycentric_subdivide(x)
            coords = {i: np.mean([coords[u] for u in s], axis=0) for i, s in enumerate(parents)}
            points = np.array([coords[v] for v in x.vertices])
            edges = x.vertex_positions(1)
            shortest = np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1).min()
            jitter = rng.uniform(-1.0, 1.0, size=points.shape) * (0.05 * shortest / math.sqrt(3))
            yield f"{fixture}-sd{level}", Embedding(x, zip(x.vertices, points + jitter))


@pytest.mark.parametrize("embedding", [pytest.param(e, id=name) for name, e in ladder()])
def test_subdivision_ladders_match_the_oracle(embedding):
    assert_matches_the_oracle(embedding)


@pytest.mark.parametrize("ambient", [3, 5, 50])
@pytest.mark.parametrize("trial", range(6))
def test_random_complexes_match_the_oracle(ambient, trial):
    rng = np.random.default_rng(2900 + 10 * ambient + trial)
    X = fixtures.random_complex(rng)
    scale = 10.0 ** rng.uniform(-3, 3)
    embedding = Embedding(X, zip(X.vertices, scale * rng.standard_normal((len(X.vertices), ambient))))
    assert_matches_the_oracle(embedding)
    for simplex in X.simplices:
        for v in simplex:
            cells, sizes, _ = mc.build_cell_arrays([(np.arange(len(simplex)).reshape(1, -1), len(simplex) - 1)])
            oracle = exact_cone_oracle.exact_cone_fractions(embedding.matrix()[list(simplex)], cells, sizes)
            assert bits(excess_angle(simplex, v, embedding).value) == bits(oracle[0, simplex.index(v)])


@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-664, 2.0**-530, 2.0**1000])
@pytest.mark.parametrize("name", FIXTURES)
def test_power_of_two_scales_match_the_oracle(name, scale):
    assert_matches_the_oracle(scaled(getattr(fixtures, name)()[1], scale))


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_a_tiny_triangle_beside_a_unit_one_matches_the_oracle(tiny):
    X = SimplicialComplex.from_maximal([(0, 1, 2), (0, 3, 4)])
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (-tiny, 0.0), 4: (0.0, -tiny)}
    assert_matches_the_oracle(Embedding(X, coords))


def test_a_tiny_triangle_and_a_unit_tetrahedron_in_one_chunk_keep_their_own_curvature():
    # the five triangles in R^3 make one chunk of the angle table: every
    # edge of the small one leaves [2^-500, 2^500] and is rescaled, and
    # none of the tetrahedron's faces is
    triangle = {0: (0.0, 0.0, 0.0), 1: (1e-200, 0.0, 0.0), 2: (0.3e-200, 0.7e-200, 0.0)}
    tetrahedron = {3: (1.0, 1.0, 1.0), 4: (1.0, -1.0, -1.0), 5: (-1.0, 1.0, -1.0), 6: (-1.3, -0.8, 1.1)}
    union = Embedding(SimplicialComplex.from_maximal([(0, 1, 2), (3, 4, 5, 6)]), {**triangle, **tetrahedron})
    kappa = curvature_measure(union)
    for maximal, coords in (((0, 1, 2), triangle), ((3, 4, 5, 6), tetrahedron)):
        alone = curvature_measure(Embedding(SimplicialComplex.from_maximal([maximal]), coords))
        np.testing.assert_array_equal(bits([kappa[v].value for v in alone]), bits([k.value for k in alone.values()]))
    assert_matches_the_oracle(union)


def test_exact_paths_build_no_cell_table(monkeypatch):
    def refuse(groups):
        raise AssertionError("the exact path built a padded cell table")

    monkeypatch.setattr(mc, "build_cell_arrays", refuse)
    for name in FIXTURES:
        _, embedding = getattr(fixtures, name)()
        kappa = curvature_measure(embedding)
        report = gauss_bonnet_check(embedding)
        assert report["discrepancy"] < 1e-12 and len(kappa) == len(embedding.vertex_order)
        top = embedding.carrier.simplices_of_dim(embedding.carrier.dim)[0]
        assert 0.0 < excess_angle(top, top[0], embedding).value <= 1.0


@pytest.mark.parametrize("ambient", [0, 2])
def test_complexes_without_triangles(ambient):
    # no vertices, vertices only (in R^0 too) and edges only
    for maximal in ([], [(0,), (1,)], [(0, 1), (1, 2)]):
        X = SimplicialComplex.from_maximal(maximal)
        if X.dim > ambient:
            continue
        coords = {v: np.arange(ambient) * (v + 1.0) + v for v in X.vertices}
        embedding = Embedding(X, coords)
        kappa = curvature_measure(embedding)
        assert kappa == {v: (1.0 - 0.5 * sum(v in s for s in X.simplices_of_dim(1)), 0.0) for v in X.vertices}
        assert_matches_the_oracle(embedding)
