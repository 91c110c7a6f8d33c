import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
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
from curvcalc import complexes, fixtures

import complex_oracles


def brute_force_link(complex, v):
    # oracle: enumerate cofaces directly from the simplex set
    return {
        tuple(u for u in s if u != v)
        for s in complex.simplices
        if v in s and len(s) > 1
    }


def matches_map_oracle(source, target, vertex_map) -> bool:
    """Check SimplicialMap against the tuple oracle: the same image arrays,
    or MissingFace naming the oracle's first bad (simplex, image).
    Returns whether the map is simplicial."""
    indices, signs, bad = complex_oracles.map_images(source, target, vertex_map)
    if bad is not None:
        with pytest.raises(MissingFace) as caught:
            SimplicialMap(source, target, vertex_map)
        assert (caught.value.simplex, caught.value.face) == bad
        return False
    f = SimplicialMap(source, target, vertex_map)
    assert f.image_indices.tolist() == indices
    assert f.image_signs.tolist() == signs
    return True


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

    @pytest.mark.parametrize("n", range(6))
    def test_census_counts_the_subdivision_rows(self, n):
        # the closed form against the chains of the subdivision itself: a
        # chain element's size is its dimension in the f-vector offsets
        import numpy as np

        simplex = full_simplex_complex(n)
        offsets = np.cumsum((0, *simplex.f_vector()))
        sd, _ = barycentric_subdivide(simplex)
        counted = Counter()
        for d in range(sd.dim + 1):
            sizes = np.searchsorted(offsets, sd.vertex_positions(d), side="right")
            counted.update(map(tuple, np.diff(sizes, axis=1, prepend=0).tolist()))
        assert counted == signature_census(n)

    @pytest.mark.parametrize("n", range(5))
    def test_group_sums_add_the_oracle_chains(self, n):
        # B(sig) summed chain by chain over the oracle's chains of faces
        simps, chains = complex_oracles.chains(full_simplex_complex(n))
        sums = {}
        for chain in chains:
            parts = [simps[i] for i in chain]
            sig = (len(parts[0]), *(len(b) - len(a) for a, b in zip(parts, parts[1:])))
            vec = sums.setdefault(sig, [Fraction(0)] * (n + 1))
            scale = Fraction((-1) ** (len(chain) - 1), len(chain))
            for part in parts:
                for v in part:
                    vec[v] += scale / len(part)
        assert {sig: tuple(vec) for sig, vec in sums.items()} == signature_barycenter_sums(n)

    def test_census_subdivides_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the census needs no subdivision")

        monkeypatch.setattr(complexes, "barycentric_subdivide", refuse)
        assert len(signature_census(6)) == 2**7 - 1
        assert len(signature_barycenter_sums(4)) == 2**5 - 1

    def test_negative_dimension_is_rejected(self):
        with pytest.raises(ValueError):
            signature_census(-1)


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

    def test_ordered_cells_are_the_sorted_product_of_the_factor_cells(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        for x, y in ((hollow, edge), (edge, full_simplex_complex(2)), (product(edge, edge), edge)):
            P = product(x, y)
            cells = P.cells()
            assert len(cells) == len(set(cells))
            assert set(cells) == set(itertools.product(x.cells(), y.cells()))
            keys = [(P.cell_dim(c), c) for c in cells]
            assert keys == sorted(keys)
            assert tuple(P.cells()) == cells

    def test_has_cell_agrees_with_membership_in_the_cells(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        P = product(hollow, edge)
        cells = P.cells()
        foreign = [((0,), (9,)), ((0,),), (), (0, 1), ((0, 1, 2), (0,)), ((0,), (0,), (0,))]
        for cell in (*cells, *foreign):
            assert P.has_cell(cell) == (cell in cells)
        assert sum(map(P.has_cell, foreign)) == 0
        with pytest.raises(TypeError):
            P.has_cell([(0,), (0,)])


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

    @pytest.mark.parametrize("simplex", [(3, 0), (0, 0), (0, 99), (), (-1,), (0, 2, 3, 4)])
    def test_image_rejects_what_is_not_a_source_simplex(self, simplex):
        f, _ = fixtures.octahedron_to_path()
        with pytest.raises(UnknownSimplex):
            f.image(simplex)

    def test_image_accepts_any_sequence(self):
        f, _ = fixtures.octahedron_to_path()
        assert f.image([0, 2, 3]) == f.image((0, 2, 3))

    def test_missing_face_names_the_first_bad_simplex_in_cells_order(self, rng):
        # random vertex maps into a path: every source simplex whose
        # image skips a path vertex or has three vertices is bad
        for trial in range(40):
            X = fixtures.random_complex(rng, max_vertices=8, max_dim=3)
            path = fixtures.path_complex(3)
            vertex_map = {v: int(rng.integers(0, 4)) for v in X.vertices}
            bad = [
                s for s in X.cells()
                if not path.has_cell(tuple(sorted({vertex_map[v] for v in s})))
            ]
            if not bad:
                SimplicialMap(X, path, vertex_map)
                continue
            with pytest.raises(MissingFace) as caught:
                SimplicialMap(X, path, vertex_map)
            assert caught.value.simplex == bad[0]
            assert caught.value.face == tuple(sorted({vertex_map[v] for v in bad[0]}))

    @pytest.mark.parametrize("seed", range(6))
    def test_images_match_the_tuple_oracle(self, seed):
        # collapsing maps into random targets, into full simplices (where
        # every image is a simplex) and from a subdivision onto its
        # complex by last vertex (always simplicial)
        rng = np.random.default_rng(seed)
        found = Counter()
        for trial in range(30):
            X = fixtures.random_complex(rng, max_vertices=9, max_dim=4)
            k = int(rng.integers(1, 6))
            for target in (fixtures.random_complex(rng, max_vertices=6, max_dim=3), full_simplex_complex(k)):
                images = rng.choice(target.vertices, size=len(X.vertices)).tolist()
                found[matches_map_oracle(X, target, dict(zip(X.vertices, images)))] += 1
            sd, _ = barycentric_subdivide(X)
            last = {i: s[-1] for i, s in enumerate(X.cells())}
            assert matches_map_oracle(sd, X, last)
        assert found[True] >= 30 and found[False] >= 5

    def test_target_with_only_vertices(self):
        # no simplex above dimension 0, so the target has no cell key to
        # search: collapsed edges map onto vertices, any other edge misses
        X = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
        points = SimplicialComplex.from_maximal([(5,), (7,)])
        assert matches_map_oracle(X, points, {0: 7, 1: 7, 2: 7, 3: 7})
        assert not matches_map_oracle(X, points, {0: 7, 1: 7, 2: 7, 3: 5})
        assert matches_map_oracle(points, points, {5: 5, 7: 7})

    def test_empty_source(self):
        empty = SimplicialComplex()
        for target in (empty, fixtures.point(), fixtures.octahedron()[0]):
            f = SimplicialMap(empty, target, {})
            assert f.image_indices.tolist() == f.image_signs.tolist() == []

    def test_a_repeat_then_a_miss_names_the_first_bad_face(self):
        # the row (0, 1, 2) goes to (4, 4, 6): a repeat, then the non-edge
        # (4, 6); its face (0, 2) misses first and is the one named
        X = SimplicialComplex.from_maximal([(0, 1, 2)])
        target = SimplicialComplex.from_maximal([(4, 5), (6,)])
        with pytest.raises(MissingFace) as caught:
            SimplicialMap(X, target, {0: 4, 1: 4, 2: 6})
        assert (caught.value.simplex, caught.value.face) == ((0, 2), (4, 6))
        assert not matches_map_oracle(X, target, {2: 4, 1: 6, 0: 4})

    def test_the_vertex_map_is_validated_one_vertex_at_a_time(self):
        # an image must equal a target vertex as a set member: 1.0 and
        # True are vertex 1, 1.5 and "1" are not; the first bad vertex
        # in source.vertices order is named
        X = fixtures.path_complex(2)
        target = fixtures.path_complex(3)
        for bad in (1.5, "1"):
            with pytest.raises(UnknownVertex) as caught:
                SimplicialMap(X, target, {0: bad, 1: 2, 2: 3})
            assert caught.value.vertex == bad and type(caught.value.vertex) is type(bad)
        for alias in (1.0, True):
            f = SimplicialMap(X, target, {0: alias, 1: 2, 2: 3})
            assert f.image((0, 1)) == (1, 2)
        with pytest.raises(UnknownVertex) as caught:
            SimplicialMap(X, target, {0: 0, 1: 9, 2: 1.5})
        assert caught.value.vertex == 9
        with pytest.raises(UnknownVertex) as caught:
            SimplicialMap(X, target, {0: 0, 2: "1"})
        assert caught.value.vertex == 1  # vertex 1 has no image
        with pytest.raises(UnknownVertex) as caught:
            SimplicialMap(X, target, {2: 0, 1: "1", 0: 1.5})
        assert caught.value.vertex == 1.5

    def test_image_arrays_follow_cells_order(self):
        f, path = fixtures.octahedron_to_path()
        target_cells = list(path.cells())
        for i, s in enumerate(f.source.cells()):
            image = f.image(s)
            assert target_cells[f.image_indices[i]] == image
            assert f.image_signs[i] == (-1) ** (len(s) - len(image))


class TestSimplexLookup:
    # 2^16 vertices: a mixed-radix key over 4 or 5 vertex positions would
    # need 2^64 or 2^80 values, past int64
    N = 2**16

    @pytest.fixture(scope="class")
    def big(self):
        n = self.N
        tops = [tuple(range(n - 5, n)), (0, n // 2, n - 7, n - 6), (1, 2, 3, n - 2, n - 1)]
        return SimplicialComplex.from_maximal([*tops, *((v,) for v in range(n))])

    def test_radix_keys_would_overflow(self, big):
        assert len(big.vertices) == self.N and self.N**4 > 2**63

    def test_every_simplex_finds_itself(self, big):
        for d in range(big.dim + 1):
            rows = big.vertex_positions(d)
            assert big.simplex_indices(rows).tolist() == list(range(len(rows)))
        cells = list(big.cells())
        assert big.cell_indices(reversed(cells)).tolist() == list(range(len(cells)))[::-1]

    def test_non_simplices_are_not_found(self, big):
        n = self.N
        rows = [
            (n - 6, n - 5, n - 4, n - 3, n - 2),  # shifted by one from a 4-simplex
            (0, n // 2, n - 7, n - 5),
            (1, 2, 3, n - 3, n - 1),
            (0, 1, 2, 3, n - 1),
            (n - 4, n - 3, n - 2, n - 1, n - 1),  # repeats the last vertex
        ]
        for row in rows:
            assert big.simplex_indices([row]).tolist() == [-1]
        assert big.simplex_indices([(0, n - 1)]).tolist() == [-1]
        assert big.simplex_indices([(n - 2, n - 1)]).tolist() != [-1]

    def test_cell_keys_refuse_to_overflow(self, monkeypatch):
        # a map's cell keys reach len(target) * n_vertices, which must stay
        # below 2^63; a complex that large cannot be built, so fake its size
        path = fixtures.path_complex(2)
        monkeypatch.setattr(SimplicialComplex, "__len__", lambda self: 2**62)
        with pytest.raises(OverflowError, match=r"2\*\*63"):
            SimplicialMap(path, path, {v: v for v in path.vertices})

    def test_cell_keys_are_built_once_per_target(self, big):
        # a small source mapped into big reads big's stored keys rather
        # than rebuilding work proportional to len(big)
        keys = big._cell_keys()
        assert not keys.flags.writeable
        u, v = big.simplices_of_dim(1)[0]
        source = SimplicialComplex.from_maximal([(0, 1)])
        assert SimplicialMap(source, big, {0: u, 1: v}).image((0, 1)) == (u, v)
        assert big._cell_keys() is keys

    def test_maps_onto_high_vertex_positions(self, big):
        n = self.N
        # a 5-simplex plus a tail of vertices, collapsed onto big's
        # vertices: the simplex goes onto the top 4-simplex, the tail
        # onto low vertices
        source = SimplicialComplex.from_maximal([tuple(range(6)), *((v,) for v in range(6, 40))])
        onto = {0: n - 5, 1: n - 5, 2: n - 4, 3: n - 3, 4: n - 2, 5: n - 1}
        onto.update({v: v % 7 for v in range(6, 40)})
        f = SimplicialMap(source, big, onto)
        for s in source.cells():
            assert f.image(s) == tuple(sorted({onto[v] for v in s}))
        assert matches_map_oracle(source, big, onto)
        identity = {v: v for v in big.vertices}
        assert matches_map_oracle(big, big, identity)
        onto[0] = n - 6  # (n-6, n-5) is not an edge of big
        with pytest.raises(MissingFace) as caught:
            SimplicialMap(source, big, onto)
        assert caught.value.simplex == (0, 1)
        assert caught.value.face == (n - 6, n - 5)


class TestPLFunction:
    def test_must_cover_every_vertex(self):
        X = fixtures.path_complex(1)
        with pytest.raises(UnknownVertex):
            PLFunction(X, {0: 1})
        with pytest.raises(UnknownVertex):
            PLFunction(X, {0: 1, 1: 2, 5: 0})

    def test_names_the_first_missing_or_foreign_vertex(self):
        X = fixtures.path_complex(3)
        with pytest.raises(UnknownVertex) as caught:
            PLFunction(X, {3: 0, 0: 1, 9: 2})
        assert caught.value.vertex == 1
        with pytest.raises(UnknownVertex) as caught:
            PLFunction(X, {0: 0, 8: 1, 1: 0, 2: 0, 3: 0, 9: 2})
        assert caught.value.vertex == 8

    def test_validation_is_linear_in_the_vertex_count(self):
        # scanning the vertex tuple once per value is quadratic: about 18 s
        # at this size on a 2-vCPU VM
        X = SimplicialComplex.from_maximal([(i, i + 1) for i in range(49_999)])
        values = {v: Fraction(v, 7) for v in X.vertices}
        start = time.perf_counter()
        alpha = PLFunction(X, values)
        assert time.perf_counter() - start < 1.0
        assert alpha.values == values

    def test_barycenter_value(self):
        X = full_simplex_complex(2)
        alpha = PLFunction(X, {0: 0, 1: 1, 2: Fraction(1, 2)})
        assert alpha.barycenter_value((0, 1, 2)) == Fraction(1, 2)
