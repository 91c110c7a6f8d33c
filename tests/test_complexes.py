import math
from fractions import Fraction

import pytest

from curvcalc.complexes import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    full_simplex_complex,
    identity_map,
    product,
    signature_barycenter_sums,
    signature_census,
    subdivision_vertex_simplices,
    validate,
    validate_simplices,
)
from curvcalc.errors import MissingFace, NotComposable, UnknownSimplex, UnknownVertex
from curvcalc import fixtures


def brute_force_link(complex, v):
    # oracle: enumerate cofaces directly from the simplex set
    return {
        tuple(u for u in s if u != v)
        for s in complex.simplices
        if v in s and len(s) > 1
    }


class TestValidation:
    def test_edge_with_endpoints_is_valid(self):
        X = SimplicialComplex([(0,), (1,), (0, 1)])
        validate(X)

    def test_closure_violation(self):
        with pytest.raises(MissingFace):
            validate_simplices({(0, 1)})

    def test_full_2_simplex_is_valid(self):
        X = full_simplex_complex(2)
        assert len(X) == 7
        validate(X)

    def test_from_maximal_closes(self):
        X = SimplicialComplex.from_maximal([(0, 1, 2)])
        assert X == full_simplex_complex(2)


class TestStarLink:
    def test_link_of_apex_of_full_2_simplex(self):
        X = full_simplex_complex(2)
        assert X.link(2).simplices == frozenset({(0,), (1,), (0, 1)})

    def test_link_of_interior_path_vertex(self):
        X = fixtures.path_complex(2)
        assert X.link(1).simplices == frozenset({(0,), (2,)})

    def test_octahedron_link_is_4_cycle(self):
        X, _ = fixtures.octahedron()
        for v in X.vertices:
            link = X.link(v)
            assert link.simplices == frozenset(brute_force_link(X, v))
            assert len(link) == 8  # 4 vertices + 4 edges
            assert link.euler_characteristic() == 0

    def test_star_contains_vertex(self):
        X, _ = fixtures.octahedron()
        assert all(0 in s for s in X.star(0))
        assert len(X.star(0)) == 9

    def test_unknown_vertex(self):
        X = fixtures.path_complex(1)
        with pytest.raises(UnknownVertex):
            X.link(17)

    @pytest.mark.parametrize("seed", range(5))
    def test_link_matches_brute_force_on_random_complexes(self, seed):
        import numpy as np

        rng = np.random.default_rng(600 + seed)
        X = fixtures.random_complex(rng)
        for v in X.vertices:
            assert X.link(v).simplices == frozenset(brute_force_link(X, v))
            assert set(X.star(v)) == {s for s in X.simplices if v in s}


    def test_trusted_builds_do_not_recanonicalize(self, monkeypatch):
        from curvcalc import complexes

        calls = []
        as_simplex = complexes.as_simplex
        monkeypatch.setattr(complexes, "as_simplex", lambda s: calls.append(s) or as_simplex(s))
        maximal = [(0, 1, 2), (2, 3), (1, 2, 4)]
        X = SimplicialComplex.from_maximal(maximal)
        assert calls == maximal  # one call per maximal simplex, none per face
        sd, _ = barycentric_subdivide(X)
        sd.link(0)
        sd.full_subcomplex(range(5))
        assert len(calls) == len(maximal)
        SimplicialComplex(X.simplices)
        assert len(calls) == len(maximal) + len(X)

    @pytest.mark.parametrize("seed", range(5))
    def test_vertex_positions_index_the_vertices(self, seed):
        import numpy as np

        rng = np.random.default_rng(650 + seed)
        X = fixtures.random_complex(rng)
        X = X.full_subcomplex(v for v in X.vertices if v % 3)  # sparse ids
        for d in range(X.dim + 1):
            positions = X.vertex_positions(d)
            assert positions.shape == (len(X.simplices_of_dim(d)), d + 1)
            assert [tuple(X.vertices[i] for i in row) for row in positions.tolist()] == list(
                X.simplices_of_dim(d)
            )
            assert not positions.flags.writeable
            assert X.vertex_positions(d) is positions


class TestBarycentricSubdivision:
    def test_edge_with_identity_values(self):
        X = SimplicialComplex.from_maximal([(0, 1)])
        alpha = PLFunction(X, {0: 0, 1: 1})
        sd, beta = barycentric_subdivide(X, alpha)
        assert sd.f_vector() == (3, 2)
        # new vertex for the edge carries the barycenter value 1/2
        order = subdivision_vertex_simplices(X)
        values = {s: beta.values[i] for i, s in enumerate(order)}
        assert values[(0,)] == 0
        assert values[(1,)] == 1
        assert values[(0, 1)] == Fraction(1, 2)

    def test_single_vertex(self):
        X = fixtures.point()
        sd, beta = barycentric_subdivide(X, PLFunction(X, {0: Fraction(3, 7)}))
        assert len(sd) == 1
        assert beta.values[0] == Fraction(3, 7)

    def test_full_2_simplex_has_25_simplices(self):
        sd, _ = barycentric_subdivide(full_simplex_complex(2))
        assert len(sd) == 25
        assert sd.f_vector() == (7, 12, 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_count_formula(self, seed, rng):
        X = fixtures.random_complex(rng)
        sd, _ = barycentric_subdivide(X)
        assert len(sd.vertices) == len(X)
        validate(sd)

    def test_linear_extension_is_the_mean(self, rng):
        X = fixtures.random_complex(rng)
        alpha = fixtures.random_rational_values(rng, X)
        _, beta = barycentric_subdivide(X, alpha)
        for i, s in enumerate(subdivision_vertex_simplices(X)):
            assert beta.values[i] == sum(alpha.values[v] for v in s) / len(s)


class TestSignatures:
    def test_dimension_one_census(self):
        census = signature_census(1)
        assert census == {(1,): 2, (2,): 1, (1, 1): 2}

    def test_unit_signatures_of_triangle(self):
        assert signature_census(2)[(1, 1, 1)] == 6

    @pytest.mark.parametrize("n", range(6))
    def test_barycenter_signature_is_unique(self, n):
        assert signature_census(n)[(n + 1,)] == 1

    @pytest.mark.parametrize("n", range(6))
    def test_census_matches_multinomials(self, n):
        census = signature_census(n)
        total = 0
        for sig, count in census.items():
            used = sum(sig)
            expected = math.factorial(n + 1) // math.factorial(n + 1 - used)
            for part in sig:
                expected //= math.factorial(part)
            assert count == expected, sig
            total += count
        sd, _ = barycentric_subdivide(full_simplex_complex(n))
        assert total == len(sd)

    @pytest.mark.parametrize("n", range(5))
    def test_full_signature_cancellation(self, n):
        sums = signature_barycenter_sums(n)
        zero = tuple([Fraction(0)] * (n + 1))
        for sig in sums:
            if sum(sig) == n + 1 and len(sig) > 1:
                prefix = sig[:-1]
                combined = tuple(a + b for a, b in zip(sums[sig], sums[prefix]))
                assert combined == zero, sig
        # everything except the barycenter cancels
        total = [Fraction(0)] * (n + 1)
        for vec in sums.values():
            total = [a + b for a, b in zip(total, vec)]
        assert tuple(total) == tuple([Fraction(1, n + 1)] * (n + 1))


class TestProducts:
    def test_point_times_complex_is_isomorphic(self):
        X, _ = fixtures.octahedron()
        P = product(fixtures.point(), X)
        assert len(P) == len(X)
        dims = sorted(P.cell_dim(c) for c in P.cells())
        assert dims == sorted(len(s) - 1 for s in X.simplices)

    def test_edge_times_edge(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        P = product(edge, edge)
        assert len(P) == 9
        by_dim = {}
        for c in P.cells():
            by_dim[P.cell_dim(c)] = by_dim.get(P.cell_dim(c), 0) + 1
        assert by_dim == {0: 4, 1: 4, 2: 1}

    def test_hollow_triangle_times_edge_has_18_cells(self):
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        edge = SimplicialComplex.from_maximal([(0, 1)])
        assert len(product(hollow, edge)) == 18

    def test_euler_characteristic_is_multiplicative(self):
        tri = full_simplex_complex(2)
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        P = product(tri, hollow)
        assert P.euler_characteristic() == tri.euler_characteristic() * hollow.euler_characteristic()

    def test_closure_is_componentwise(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        P = product(edge, edge)
        cell = ((0, 1), (0, 1))
        closure = set(P.closure(cell))
        assert closure == {
            (a, b) for a in edge.closure((0, 1)) for b in edge.closure((0, 1))
        }

    def test_iterated_product(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        cube = product(product(edge, edge), edge)
        assert len(cube) == 27
        assert cube.euler_characteristic() == 1


class TestSimplicialMaps:
    def test_non_simplicial_vertex_map_rejected(self):
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        path = fixtures.path_complex(2)
        # wrapping the 3-cycle around the path sends the edge (0, 2) to
        # the non-edge (0, 2) of the path
        with pytest.raises(MissingFace):
            SimplicialMap(hollow, path, {0: 0, 1: 1, 2: 2})

    def test_collapse_is_allowed(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        f = SimplicialMap(edge, fixtures.point(), {0: 0, 1: 0})
        assert f.image((0, 1)) == (0,)

    def test_composition(self):
        path = fixtures.path_complex(2)
        edge = SimplicialComplex.from_maximal([(0, 1)])
        g = SimplicialMap(path, edge, {0: 0, 1: 1, 2: 1})
        f = SimplicialMap(edge, fixtures.point(), {0: 0, 1: 0})
        composed = f.compose(g)
        assert composed.vertex_map == {0: 0, 1: 0, 2: 0}
        with pytest.raises(NotComposable):
            g.compose(f)

    def test_identity(self):
        X, _ = fixtures.octahedron()
        assert identity_map(X).image((0, 2, 3)) == (0, 2, 3)

    def test_image_is_defined_on_source_simplices_only(self):
        f, _ = fixtures.octahedron_to_path()
        for s in f.source.simplices:
            assert f.image(s) == tuple(sorted({f.vertex_map[v] for v in s}))
        with pytest.raises(UnknownSimplex):
            f.image((0, 1))  # the poles span no edge


class TestPLFunction:
    def test_must_cover_every_vertex(self):
        X = fixtures.path_complex(1)
        with pytest.raises(UnknownVertex):
            PLFunction(X, {0: 1})
        with pytest.raises(UnknownVertex):
            PLFunction(X, {0: 1, 1: 2, 5: 0})

    def test_barycenter_value(self):
        X = full_simplex_complex(2)
        alpha = PLFunction(X, {0: 0, 1: 1, 2: Fraction(1, 2)})
        assert alpha.barycenter_value((0, 1, 2)) == Fraction(1, 2)
