import itertools
from fractions import Fraction

import pytest

from curvcalc.complexes import (
    SimplicialComplex,
    SimplicialMap,
    identity_map,
    product,
)
from curvcalc.curvature import Embedding, curvature_measure, equilateral_embedding
from curvcalc.errors import CarrierMismatch, ForeignCell, MissingFace
from curvcalc.euler import ConstructibleFunction, euler_integral
from curvcalc.pushforwards import fubini_chi, fubini_curvature, pushforward
from curvcalc import fixtures

from euler_oracles import pushforward_oracle
from fiber_slice_oracle import fiber_chi_at_point, random_interior_point


def all_simplicial_maps(source, target):
    """Every vertex map that induces a simplicial map."""
    maps = []
    for values in itertools.product(target.vertices, repeat=len(source.vertices)):
        vm = dict(zip(source.vertices, values))
        try:
            maps.append(SimplicialMap(source, target, vm))
        except MissingFace:
            continue
    return maps


def random_constructible(rng, carrier):
    cells = sorted(carrier.simplices)
    picks = rng.integers(0, len(cells), size=min(4, len(cells)))
    return ConstructibleFunction(
        carrier,
        {
            cells[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
            for i in picks
        },
    )


class TestFiberRuleAgainstSliceOracle:
    # validate the (-1)^(dim drop) fiber rule by slicing source simplices
    # at explicit rational fiber points, with no use of the rule itself

    def test_octahedron_projection(self, rng):
        f, path = fixtures.octahedron_to_path()
        ones = ConstructibleFunction.ones(f.source)
        rule = pushforward(f, ones)
        for tau in path.cells():
            for _ in range(3):
                y = random_interior_point(rng, tau)
                assert fiber_chi_at_point(f, y) == rule(tau), tau

    def test_oracle_rejects_a_corrupted_rule(self, rng):
        # drop the sign and the oracle must disagree somewhere, otherwise
        # the comparison above would be vacuous
        f, path = fixtures.octahedron_to_path()
        corrupted = {}
        for cell in f.source.simplices:
            image = f.image(cell)
            corrupted[image] = corrupted.get(image, 0) + 1  # missing (-1)^drop
        mismatches = 0
        for tau in path.cells():
            y = random_interior_point(rng, tau)
            if fiber_chi_at_point(f, y) != corrupted[tau]:
                mismatches += 1
        assert mismatches > 0

    def test_exhaustive_small_maps(self, rng):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        pairs = [(tri, edge), (hollow, edge), (fixtures.path_complex(2), edge)]
        checked = 0
        for source, target in pairs:
            for f in all_simplicial_maps(source, target):
                rule = pushforward(f, ConstructibleFunction.ones(source))
                for tau in target.cells():
                    y = random_interior_point(rng, tau)
                    assert fiber_chi_at_point(f, y) == rule(tau)
                    checked += 1
        assert checked > 50


class TestPushforward:
    def test_identity_keeps_functions(self, rng):
        X, _ = fixtures.octahedron()
        s = random_constructible(rng, X)
        assert pushforward(identity_map(X), s) == s

    def test_constant_map_gives_chi_c(self, rng):
        X, _ = fixtures.octahedron()
        pt = fixtures.point()
        c = SimplicialMap(X, pt, {v: 0 for v in X.vertices})
        fs = pushforward(c, ConstructibleFunction.ones(X))
        assert fs.coefficients == {(0,): euler_integral(ConstructibleFunction.ones(X))}
        s = random_constructible(rng, X)
        assert euler_integral(pushforward(c, s)) == euler_integral(s)

    def test_sphere_like_projection_onto_path(self):
        f, path = fixtures.octahedron_to_path()
        fs = pushforward(f, ConstructibleFunction.ones(f.source))
        # all the mass sits on the two pole fibers
        assert fs.coefficients == {(0,): Fraction(1), (2,): Fraction(1)}
        assert euler_integral(fs) == 2

    def test_positive_function_can_push_to_negative(self):
        # frozen counterexample: an open edge is nonnegative, but its
        # compactly-supported fiber integral is -1
        edge = SimplicialComplex.from_maximal([(0, 1)])
        c = SimplicialMap(edge, fixtures.point(), {0: 0, 1: 0})
        s = ConstructibleFunction.indicator_open(edge, (0, 1))
        assert pushforward(c, s).coefficients == {(0,): Fraction(-1)}

    def test_carrier_mismatch(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        other = SimplicialComplex.from_maximal([(0, 1), (1, 2)])
        c = SimplicialMap(edge, fixtures.point(), {0: 0, 1: 0})
        with pytest.raises(CarrierMismatch):
            pushforward(c, ConstructibleFunction.ones(other))

    def test_sums_past_int64_stay_exact(self):
        # each numerator fits in int64, their sum over the point does not
        X = fixtures.path_complex(4)
        c = SimplicialMap(X, fixtures.point(), {v: 0 for v in X.vertices})
        big = {(v,): Fraction(2**62 + v) for v in X.vertices}
        s = ConstructibleFunction(X, big)
        assert pushforward(c, s).coefficients == {(0,): Fraction(5 * 2**62 + 10)}
        assert pushforward(c, s).coefficients == pushforward_oracle(c, s)
        thirds = ConstructibleFunction(X, {cell: Fraction(2**70, 3) for cell in X.cells()})
        assert pushforward(c, thirds).coefficients == {(0,): Fraction(2**70, 3)}

    def test_functions_on_every_cell_in_any_order(self, rng):
        f, _ = fixtures.octahedron_to_path()
        cells = list(f.source.cells())
        values = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in cells]
        in_order = ConstructibleFunction(f.source, dict(zip(cells, values)))
        reversed_order = ConstructibleFunction(f.source, dict(zip(cells[::-1], values[::-1])))
        expected = pushforward_oracle(f, in_order)
        assert pushforward(f, in_order).coefficients == expected
        assert pushforward(f, reversed_order).coefficients == expected

    @pytest.mark.parametrize("trial", range(10))
    def test_integral_preservation_random(self, trial, rng):
        menagerie = fixtures.small_complex_menagerie()
        source = menagerie[int(rng.integers(0, len(menagerie)))]
        target = menagerie[int(rng.integers(0, len(menagerie)))]
        maps = all_simplicial_maps(source, target)
        f = maps[int(rng.integers(0, len(maps)))]
        s = random_constructible(rng, source)
        assert euler_integral(pushforward(f, s)) == euler_integral(s)


class TestFiberEuler:
    def test_identity_fibers_are_points(self):
        X = fixtures.path_complex(2)
        f = identity_map(X)
        fibers = pushforward(f, ConstructibleFunction.ones(f.source))  # chi_c of each fiber
        for tau in X.cells():
            assert fibers(tau) == 1

    def test_octahedron_interior_fiber_is_a_circle(self):
        f, _ = fixtures.octahedron_to_path()
        fibers = pushforward(f, ConstructibleFunction.ones(f.source))
        assert fibers((1,)) == 0
        assert fibers((0, 1)) == 0
        assert fibers((0,)) == 1

    def test_staircase_projection_of_a_square(self):
        # triangulated unit square projected onto its x-axis edge: the
        # fiber over an interior point is a closed segment, chi_c = 1
        square = SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
        edge = SimplicialComplex.from_maximal([(0, 1)])
        f = SimplicialMap(square, edge, {0: 0, 1: 1, 2: 0, 3: 1})
        fibers = pushforward(f, ConstructibleFunction.ones(f.source))
        assert fibers((0, 1)) == 1
        assert fibers((0,)) == 1

    def test_unknown_target_simplex(self):
        f, _ = fixtures.octahedron_to_path()
        fibers = pushforward(f, ConstructibleFunction.ones(f.source))
        with pytest.raises(ForeignCell):
            fibers((0, 2))


class TestFunctoriality:
    def test_identity_composition(self, rng):
        X, _ = fixtures.octahedron()
        s = random_constructible(rng, X)
        identity = identity_map(X)
        assert pushforward(identity.compose(identity), s) == pushforward(identity, pushforward(identity, s))

    def test_octahedron_path_point_factorization(self):
        g, path = fixtures.octahedron_to_path()
        pt = fixtures.point()
        f = SimplicialMap(path, pt, {v: 0 for v in path.vertices})
        ones = ConstructibleFunction.ones(g.source)
        assert pushforward(f.compose(g), ones) == pushforward(f, pushforward(g, ones))
        total = pushforward(f.compose(g), ones)
        assert total.coefficients == {(0,): Fraction(2)}

    def test_exhaustive_small_sweep(self, rng):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        path = fixtures.path_complex(2)
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        inner_maps = all_simplicial_maps(tri, path)
        outer_maps = all_simplicial_maps(path, edge)
        assert inner_maps and outer_maps
        for g in inner_maps:
            s = random_constructible(rng, tri)
            for f in outer_maps:
                assert pushforward(f.compose(g), s) == pushforward(f, pushforward(g, s))


class TestFubiniChi:
    def test_single_open_cell(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        P = product(tri, edge)
        s = ConstructibleFunction.indicator_open(P, ((0, 1, 2), (0, 1)))
        expected = Fraction((-1) ** 3)
        assert fubini_chi(s) == (expected, expected, expected)

    def test_closed_edge_times_hollow_triangle(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        P = product(edge, hollow)
        s = ConstructibleFunction.ones(P)
        assert fubini_chi(s) == (0, 0, 0)

    @pytest.mark.parametrize("trial", range(7))
    def test_random_functions_on_product_fixtures(self, trial, rng):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        if trial == 6:  # an iterated product, with numerators past 2^63
            P, scale = product(product(edge, edge), edge), 2**70
        else:
            P, scale = product((hollow, edge, tri)[trial % 3], (edge, tri, hollow)[trial % 3]), 1
        cells = sorted(P.cells(), key=repr)
        s = ConstructibleFunction(
            P,
            {
                cells[i]: Fraction(int(rng.integers(-9, 10)) * scale, int(rng.integers(1, 6)))
                for i in rng.integers(0, len(cells), size=5)
            },
        )
        if trial == 6:
            assert max(map(abs, s._numerators.tolist())) >= 2**63
        direct, first, second = fubini_chi(s)
        assert direct == first == second

    def test_reads_the_stored_form_only(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        s = Fraction(3, 2) * ConstructibleFunction.ones(product(tri, edge))
        assert fubini_chi(s) == (Fraction(3, 2),) * 3
        assert s._coefficients is None  # the Fraction dict was never built

    def test_zero_function(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        assert fubini_chi(ConstructibleFunction.zero(product(edge, edge))) == (0, 0, 0)


class TestFubiniCurvature:
    def test_unit_square_corners(self):
        _, ex = fixtures.segment()
        rows = fubini_curvature(ex, ex, samples=30_000, seed=21)
        for row in rows:
            assert row["kappa_factor_product"] == pytest.approx(0.25, abs=1e-12)
            assert abs(row["difference"]) <= 4 * max(row["joint_bound"], 1e-12)

    def test_point_factor_changes_nothing(self):
        X, emb = fixtures.filled_triangle()
        pt = fixtures.point()
        ept = Embedding(pt, {0: [0.0]})
        rows = fubini_curvature(ept, emb, samples=30_000, seed=8)
        from curvcalc.curvature import curvature_measure

        exact = curvature_measure(emb, method="exact")
        for row in rows:
            _, v = row["vertex"]
            assert abs(row["kappa_product"] - exact[v].value) <= 4 * max(
                row["kappa_product_bound"], 1e-12
            )

    def test_cube_total_mass_is_one(self):
        _, ex = fixtures.segment()
        from curvcalc.curvature import product_embedding
        from curvcalc.curvature import gauss_bonnet_check

        square = product_embedding(ex, ex)
        cube = product_embedding(square, ex)
        check = gauss_bonnet_check(cube, method="mc", samples=40_000, seed=12)
        assert check["chi"] == 1
        assert check["discrepancy"] <= 4 * max(check["bound"], 1e-12)


def test_factor_seeds_wrap_at_the_largest_seed():
    # a 4-simplex factor takes Monte Carlo on seed + 1, which wraps to 0
    simplex = equilateral_embedding(SimplicialComplex.from_maximal([tuple(range(5))]))
    _, segment = fixtures.segment()
    rows = fubini_curvature(simplex, segment, samples=200, seed=2**64 - 1)
    factor = curvature_measure(simplex, "mc", samples=200, seed=0)
    for row in rows:
        u, _ = row["vertex"]
        assert row["kappa_factor_product"] == factor[u].value * 0.5
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie in"):
            fubini_curvature(simplex, segment, samples=200, seed=seed)
