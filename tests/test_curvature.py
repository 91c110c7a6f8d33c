import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from curvcalc import curvature, mc
from curvcalc.complexes import (
    PLFunction,
    SimplicialComplex,
    barycentric_subdivide,
    constant_function,
    subdivision_vertex_simplices,
)
from curvcalc.curvature import (
    Embedding,
    _cell_table,
    _cone_fractions,
    _exact_fractions,
    curvature_integral,
    curvature_measure,
    equilateral_embedding,
    excess_angle,
    final_integral,
    gauss_bonnet_check,
    height_coordinates,
    height_source,
    product_embedding,
)
from curvcalc.errors import DegenerateSimplex, ExactUnavailable, NonFiniteCoordinate, PieceNotSubcomplex
from curvcalc.euler import tentative_integral, weights
from curvcalc.morse import morse_curvature_measure
from curvcalc import fixtures

TWO_PI = 2 * math.pi


def all_fixtures():
    return {
        "segment": fixtures.segment(),
        "square_boundary": fixtures.square_boundary(),
        "filled_triangle": fixtures.filled_triangle(),
        "octahedron": fixtures.octahedron(),
        "cone_fan": fixtures.cone_fan(),
        "book": fixtures.book(),
    }


class TestExcessAngle:
    def test_vertex_simplex_is_full_sphere(self):
        _, emb = fixtures.segment()
        assert excess_angle((0,), 0, emb) == (1.0, 0.0)

    def test_edge_is_half_sphere_in_any_ambient(self):
        for _, emb in (fixtures.segment(), fixtures.filled_triangle(), fixtures.octahedron()):
            edge = next(s for s in emb.carrier.simplices if len(s) == 2)
            assert excess_angle(edge, edge[0], emb).value == 0.5

    def test_unit_right_angle_corner(self):
        # apex of the diagonal triangle of a unit square: interior angle
        # pi/2, so the normal cone is a quarter of the circle
        tri, emb = fixtures.filled_triangle()
        exact = excess_angle((0, 1, 2), 0, emb)
        assert exact.value == pytest.approx(0.25, abs=1e-12)
        estimate = excess_angle((0, 1, 2), 0, emb, method="mc", samples=40_000, seed=3)
        assert abs(estimate.value - exact.value) <= 4 * estimate.bound

    def test_equilateral_triangle_shares_the_sphere_three_ways(self):
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        emb = Embedding(
            tri, {0: [0, 0], 1: [1, 0], 2: [0.5, math.sqrt(3) / 2]}
        )
        for v in (0, 1, 2):
            assert excess_angle((0, 1, 2), v, emb).value == pytest.approx(1 / 3, abs=1e-12)

    def test_regular_tetrahedron_shares_four_ways(self):
        tet = SimplicialComplex.from_maximal([(0, 1, 2, 3)])
        emb = Embedding(
            tet,
            {0: [1, 1, 1], 1: [1, -1, -1], 2: [-1, 1, -1], 3: [-1, -1, 1]},
        )
        for v in range(4):
            assert excess_angle((0, 1, 2, 3), v, emb).value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("trial", range(4))
    def test_cone_fractions_partition_the_sphere(self, dim, trial):
        # for any single simplex the normal cones at its vertices tile
        # the direction sphere, so the exact fractions sum to 1
        rng = np.random.default_rng(7000 + 10 * dim + trial)
        simplex = tuple(range(dim + 1))
        X = SimplicialComplex.from_maximal([simplex])
        coords = rng.standard_normal((dim + 1, 3))
        emb = Embedding(X, dict(enumerate(coords)))
        total = sum(excess_angle(simplex, v, emb).value for v in simplex)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(3))
    def test_irregular_tetrahedron_exact_vs_monte_carlo(self, trial):
        rng = np.random.default_rng(7700 + trial)
        X = SimplicialComplex.from_maximal([(0, 1, 2, 3)])
        emb = Embedding(X, dict(enumerate(rng.standard_normal((4, 3)))))
        for v in range(4):
            exact = excess_angle((0, 1, 2, 3), v, emb)
            estimate = excess_angle(
                (0, 1, 2, 3), v, emb, method="mc", samples=50_000, seed=trial
            )
            assert abs(exact.value - estimate.value) <= 4 * estimate.bound

    def test_exact_unavailable_for_four_simplex_and_product_cells(self):
        simplex = (0, 1, 2, 3, 4)
        X = SimplicialComplex.from_maximal([simplex])
        emb = Embedding(X, {0: np.zeros(4), **{i + 1: e for i, e in enumerate(np.eye(4))}})
        with pytest.raises(ExactUnavailable):
            excess_angle(simplex, 0, emb)
        with pytest.raises(ExactUnavailable):
            curvature_measure(emb)
        _, seg = fixtures.segment()
        square = product_embedding(seg, seg)
        cell = max(square.carrier.cells(), key=square.carrier.cell_dim)
        with pytest.raises(ExactUnavailable):
            excess_angle(cell, square.carrier.cell_vertex_objects(cell)[0], square)
        with pytest.raises(ExactUnavailable):
            curvature_measure(square)

    def test_degenerate_embedding_rejected(self):
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        with pytest.raises(DegenerateSimplex):
            Embedding(tri, {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [2.0, 0.0]})


class TestEquilateralEmbedding:
    def test_single_edge_has_length_one(self):
        X = SimplicialComplex.from_maximal([(0, 1)])
        emb = equilateral_embedding(X)
        d = np.linalg.norm(emb.coordinates[0] - emb.coordinates[1])
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_all_pairwise_distances_are_one(self, rng):
        X = fixtures.random_complex(rng)
        emb = equilateral_embedding(X)
        vs = X.vertices
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                d = np.linalg.norm(emb.coordinates[u] - emb.coordinates[v])
                assert d == pytest.approx(1.0, abs=1e-15)


class TestVertexCurvature:
    def test_segment_endpoints(self):
        _, emb = fixtures.segment()
        kappa = curvature_measure(emb)
        assert kappa[0].value == 0.5
        assert kappa[1].value == 0.5

    def test_closed_polygon_is_flat(self):
        _, emb = fixtures.square_boundary()
        for v, k in curvature_measure(emb).items():
            assert k.value == 0.0

    def test_filled_triangle_gets_exterior_angles(self):
        # right isoceles triangle: interior angles pi/2, pi/4, pi/4
        _, emb = fixtures.filled_triangle()
        kappa = curvature_measure(emb)
        assert kappa[0].value == pytest.approx((math.pi - math.pi / 2) / TWO_PI, abs=1e-12)
        assert kappa[1].value == pytest.approx((math.pi - math.pi / 4) / TWO_PI, abs=1e-12)
        assert kappa[2].value == pytest.approx((math.pi - math.pi / 4) / TWO_PI, abs=1e-12)
        assert sum(k.value for k in kappa.values()) == pytest.approx(1.0, abs=1e-12)

    def test_octahedron_vertex(self):
        _, emb = fixtures.octahedron()
        kappa = curvature_measure(emb)
        for k in kappa.values():
            assert k.value == pytest.approx(1 / 3, abs=1e-12)

    def test_solid_tetrahedron_total(self):
        _, emb = fixtures.solid_tetrahedron()
        total = sum(k.value for k in curvature_measure(emb).values())
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(all_fixtures()))
    def test_gauss_bonnet_exact(self, name):
        _, emb = all_fixtures()[name]
        report = gauss_bonnet_check(emb, method="exact")
        assert report["discrepancy"] <= 1e-9

    @pytest.mark.parametrize("name", sorted(all_fixtures()))
    def test_gauss_bonnet_monte_carlo(self, name):
        _, emb = all_fixtures()[name]
        report = gauss_bonnet_check(emb, method="mc", samples=20_000, seed=7)
        assert abs(report["sum_kappa"] - report["chi"]) <= 4 * max(report["bound"], 1e-12)

    @pytest.mark.parametrize("name", sorted(all_fixtures()))
    def test_exact_vs_monte_carlo(self, name):
        # every (fixture, vertex) trial at 10^5 samples stays inside the
        # 4-sigma band, which is stronger than the 99%-of-trials target
        _, emb = all_fixtures()[name]
        exact = curvature_measure(emb, method="exact")
        estimate = curvature_measure(emb, method="mc", samples=100_000, seed=13)
        for v in exact:
            assert abs(exact[v].value - estimate[v].value) <= 4 * estimate[v].bound


class TestExactOracle:
    """Exact cone fractions against a 50-digit reference computed
    independently of the library: Sheppard's orthant probability in its
    arcsine-of-correlation form, P = 1/2^m + sum_{i<j} asin(rho_ij) / (2^(m-1) pi)
    for m <= 3 generators."""

    @staticmethod
    def reference_fraction(points, v):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            pv = [mpmath.mpf(float(t)) for t in points[v]]
            gens = [
                [a - mpmath.mpf(float(b)) for a, b in zip(pv, p)]
                for w, p in enumerate(points)
                if w != v
            ]
            m = len(gens)
            total = mpmath.mpf(1) / 2**m
            for i in range(m):
                for j in range(i + 1, m):
                    dot = mpmath.fsum(a * b for a, b in zip(gens[i], gens[j]))
                    norms = mpmath.sqrt(mpmath.fsum(a * a for a in gens[i])) * mpmath.sqrt(
                        mpmath.fsum(b * b for b in gens[j])
                    )
                    total += mpmath.asin(dot / norms) / (2 ** (m - 1) * mpmath.pi)
            return float(total)

    @pytest.mark.parametrize("ambient", [3, 6])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_simplices_match_the_reference(self, ambient, dim):
        rng = np.random.default_rng(9100 + 10 * ambient + dim)
        simplex = tuple(range(dim + 1))
        X = SimplicialComplex.from_maximal([simplex])
        for _ in range(150):
            points = rng.standard_normal((dim + 1, ambient))
            emb = Embedding(X, dict(enumerate(points)))
            fractions = [excess_angle(simplex, v, emb).value for v in simplex]
            for v, got in enumerate(fractions):
                assert abs(got - self.reference_fraction(points, v)) <= 1e-15
            assert sum(fractions) == pytest.approx(1.0, abs=1e-15)

    def test_exact_curvature_is_independent_of_the_ambient_space(self):
        rng = np.random.default_rng(9200)
        X = fixtures.random_complex(rng)
        coords = rng.standard_normal((len(X.vertices), 3))
        before = curvature_measure(Embedding(X, dict(zip(X.vertices, coords))))
        q, r = np.linalg.qr(rng.standard_normal((7, 7)))
        padded = np.hstack([coords, np.zeros((len(X.vertices), 4))]) @ (q * np.sign(np.diag(r))).T
        after = curvature_measure(Embedding(X, dict(zip(X.vertices, padded))))
        for v in X.vertices:
            assert after[v].value == pytest.approx(before[v].value, abs=1e-12)


class TestInvariance:
    @staticmethod
    def random_isometry(rng, dim):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        shift = rng.standard_normal(dim)
        return lambda x: q @ np.asarray(x) + shift

    def test_exact_isometry_invariance(self, rng):
        _, emb = fixtures.filled_triangle()
        move = self.random_isometry(rng, 2)
        moved = Embedding(
            emb.carrier, {v: move(x) for v, x in emb.coordinates.items()}
        )
        before = curvature_measure(emb)
        after = curvature_measure(moved)
        for v in before:
            assert after[v].value == pytest.approx(before[v].value, abs=1e-12)

    def test_monte_carlo_isometry_invariance(self, rng):
        _, emb = fixtures.octahedron()
        move = self.random_isometry(rng, 3)
        moved = Embedding(
            emb.carrier, {v: move(x) for v, x in emb.coordinates.items()}
        )
        before = curvature_measure(emb, method="mc", samples=20_000, seed=5)
        after = curvature_measure(moved, method="mc", samples=20_000, seed=6)
        for v in before:
            joint = math.hypot(before[v].bound, after[v].bound)
            assert abs(before[v].value - after[v].value) <= 4 * joint

    @pytest.mark.parametrize("scale", [2.0, 0.5, 4.0])
    def test_power_of_two_rescaling_is_bitwise(self, scale):
        _, emb = fixtures.octahedron()
        scaled = Embedding(
            emb.carrier, {v: scale * x for v, x in emb.coordinates.items()}
        )
        before = curvature_measure(emb, method="mc", samples=5_000, seed=2)
        after = curvature_measure(scaled, method="mc", samples=5_000, seed=2)
        assert before == after

    def test_general_rescaling_exact_method(self):
        _, emb = fixtures.filled_triangle()
        scaled = Embedding(
            emb.carrier, {v: 3.7 * x for v, x in emb.coordinates.items()}
        )
        before = curvature_measure(emb)
        after = curvature_measure(scaled)
        for v in before:
            assert after[v].value == pytest.approx(before[v].value, abs=1e-12)


class TestWeightTheorem:
    # the vertex weight of the combinatorial integral equals the
    # curvature under the all-edges-length-one embedding

    def test_edge_and_triangle_exact(self):
        for maximal in [(0, 1)], [(0, 1, 2)]:
            X = SimplicialComplex.from_maximal(maximal)
            emb = equilateral_embedding(X)
            w = weights(X)
            kappa = curvature_measure(emb, method="exact")
            for v in X.vertices:
                assert kappa[v].value == pytest.approx(float(w[v]), abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_complexes_monte_carlo(self, seed):
        rng = np.random.default_rng(1000 + seed)
        X = fixtures.random_complex(rng)
        emb = equilateral_embedding(X)
        w = weights(X)
        kappa = curvature_measure(emb, method="mc", samples=30_000, seed=seed)
        for v in X.vertices:
            assert abs(float(w[v]) - kappa[v].value) <= 3 * kappa[v].bound


class TestIntegrals:
    def test_constant_one_gives_chi(self):
        X, emb = fixtures.octahedron()
        value = curvature_integral(constant_function(X, 1), emb)
        assert value.value == pytest.approx(2.0, abs=1e-12)

    def test_equilateral_matches_tentative(self, rng):
        X = fixtures.random_complex(rng)
        alpha = fixtures.random_rational_values(rng, X)
        emb = equilateral_embedding(X)
        estimate = curvature_integral(alpha, emb, method="mc", samples=40_000, seed=9)
        expected = float(tentative_integral(alpha))
        assert abs(estimate.value - expected) <= 4 * max(estimate.bound, 1e-12)

    def test_open_interval_as_signed_pieces(self):
        X, emb = fixtures.segment()
        pieces = [
            (X, constant_function(X, 1)),
            (SimplicialComplex([(0,)]), PLFunction(SimplicialComplex([(0,)]), {0: -1})),
            (SimplicialComplex([(1,)]), PLFunction(SimplicialComplex([(1,)]), {1: -1})),
        ]
        value = final_integral(emb, pieces)
        assert value.value == pytest.approx(-1.0, abs=1e-9)
        assert value.bound == 0.0

    def test_single_piece_reduces_to_gauss_bonnet(self):
        X, emb = fixtures.cone_fan()
        value = final_integral(emb, [(X, constant_function(X, 1))])
        assert value.value == pytest.approx(X.euler_characteristic(), abs=1e-9)

    def test_additivity_over_refinement(self):
        path = fixtures.path_complex(2)
        emb = Embedding(path, {0: [0.0], 1: [1.0], 2: [2.0]})
        left = SimplicialComplex([(0,), (1,), (0, 1)])
        right = SimplicialComplex([(1,), (2,), (1, 2)])
        middle = SimplicialComplex([(1,)])
        split = final_integral(
            emb,
            [(left, constant_function(left, 1)), (right, constant_function(right, 1))],
        )
        merged = final_integral(
            emb,
            [(path, constant_function(path, 1)), (middle, constant_function(middle, 1))],
        )
        assert split.value == pytest.approx(merged.value, abs=1e-9)
        assert split.value == pytest.approx(2.0, abs=1e-9)

    def test_piece_seeds_wrap_at_the_largest_seed(self):
        # piece i takes seed + i modulo 2**64, so the second piece of the
        # largest seed takes seed 0; seeds outside [0, 2**64) still raise
        X, emb = fixtures.filled_triangle()
        pieces = [(X, constant_function(X, 1)), (X, constant_function(X, 2))]
        top = 2**64 - 1
        value = final_integral(emb, pieces, "mc", 200, top)
        first, second = (
            curvature_integral(alpha, emb, "mc", 200, seed)
            for (_, alpha), seed in zip(pieces, (top, 0))
        )
        assert value == (first.value + second.value, first.bound + second.bound)
        assert second != curvature_integral(pieces[1][1], emb, "mc", 200, 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in"):
                final_integral(emb, pieces, "mc", 200, seed)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_coordinates_off_the_carrier_change_no_integral(self, method):
        # an Embedding may hold coordinate keys outside its carrier, after its vertices
        X, plain = fixtures.segment()
        wide = Embedding(X, {**plain.coordinates, 7: [5.0]})
        alpha = PLFunction(X, {0: 2, 1: -3})
        if method == "exact":
            assert curvature_integral(alpha, wide) == (-0.5, 0.0)
        assert curvature_integral(alpha, wide, method, 200) == curvature_integral(alpha, plain, method, 200)
        assert final_integral(wide, [(X, alpha)], method, 200) == final_integral(plain, [(X, alpha)], method, 200)

    def test_alpha_beyond_the_float_range_is_refused_before_the_curvature_run(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("the curvature measure ran")

        monkeypatch.setattr(curvature, "curvature_measure", unreached)
        X, emb = fixtures.segment()
        for big in (10**400, Fraction(-(10**400), 3)):
            alpha = PLFunction(X, {0: 1, 1: big})
            with pytest.raises(ValueError, match="vertex 1: its alpha value lies beyond the float range"):
                curvature_integral(alpha, emb)
            with pytest.raises(ValueError, match="vertex 1"):
                final_integral(emb, [(X, alpha)], "mc", 200)

    def test_an_integral_beyond_the_float_range_is_refused(self):
        # the centre of a five-edge star has curvature 1 - 5/2
        star = SimplicialComplex.from_maximal([(0, v) for v in range(1, 6)])
        angles = 2 * math.pi * np.arange(5) / 5
        emb = Embedding(star, {0: [0.0, 0.0], **{v: [math.cos(a), math.sin(a)] for v, a in zip(range(1, 6), angles)}})
        assert curvature_measure(emb)[0].value == pytest.approx(-1.5)
        alpha = PLFunction(star, {0: Fraction(15, 10) * 10**308, **dict.fromkeys(range(1, 6), 0)})
        with pytest.raises(ValueError, match="the integral leaves the float range"):
            final_integral(emb, [(star, alpha)])

    def test_piece_must_be_a_subcomplex(self):
        X, emb = fixtures.segment()
        foreign = SimplicialComplex.from_maximal([(0, 2)])
        with pytest.raises(PieceNotSubcomplex):
            final_integral(emb, [(foreign, constant_function(foreign, 1))])
        # every vertex lies in the hollow triangle, the filled one's triangle does not
        _, hollow = fixtures.hollow_triangle()
        filled, _ = fixtures.filled_triangle()
        with pytest.raises(PieceNotSubcomplex):
            final_integral(hollow, [(filled, constant_function(filled, 1))])
        # sparse vertex ids: a piece's ids map to the carrier's positions
        carrier = SimplicialComplex.from_maximal([(3, 40, 700), (700, 9000)])
        sparse = Embedding(carrier, {3: [0.0, 0.0], 40: [1.0, 0.0], 700: [0.0, 1.0], 9000: [2.0, 2.0]})
        piece = SimplicialComplex.from_maximal([(40, 700), (700, 9000)])
        assert sparse.restrict(piece).coordinates.keys() == {40, 700, 9000}
        np.testing.assert_array_equal(sparse.restrict(piece).matrix(), [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        for outside in ([(40, 9000)], [(40, 41)], [(3, 40, 700, 9000)]):
            piece = SimplicialComplex.from_maximal(outside)
            with pytest.raises(PieceNotSubcomplex):
                final_integral(sparse, [(piece, constant_function(piece, 1))])

    def test_products_have_no_pieces(self):
        X, ex = fixtures.segment()
        square = product_embedding(ex, ex)
        with pytest.raises(PieceNotSubcomplex):
            final_integral(square, [(X, constant_function(X, 1))])
        with pytest.raises(PieceNotSubcomplex):
            final_integral(ex, [(square.carrier, constant_function(X, 1))])


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestArrayCoordinates:
    """Embedding(carrier, array): one row per carrier vertex, in
    carrier.vertices order, against the {vertex: vector} form."""

    @pytest.mark.parametrize("name", sorted(all_fixtures()))
    def test_an_array_gives_the_embedding_of_the_mapping(self, name):
        X, emb = all_fixtures()[name]
        from_array = Embedding(X, np.array([emb.coordinates[v] for v in X.vertices]))
        assert from_array.vertex_order == emb.vertex_order == X.vertices
        assert same_bits(from_array.matrix(), emb.matrix())
        assert from_array.vertex_index == emb.vertex_index
        assert all(same_bits(from_array.coordinates[v], c) for v, c in emb.coordinates.items())
        assert curvature_measure(from_array) == curvature_measure(emb)
        assert curvature_measure(from_array, "mc", 300, 4) == curvature_measure(emb, "mc", 300, 4)

    def test_a_read_only_float_array_is_kept_and_any_other_copied(self):
        X, emb = fixtures.filled_triangle()
        rows = np.array(emb.matrix())
        writable = Embedding(X, rows)
        rows[0] = 99.0
        assert same_bits(writable.matrix(), emb.matrix()) and not writable.matrix().flags.writeable
        rows.flags.writeable = False
        assert Embedding(X, rows).matrix() is rows
        base = np.array(emb.matrix())
        view = base.view()
        view.flags.writeable = False  # read-only, but base can still write it
        kept = Embedding(X, view).matrix()
        base[0] = 99.0
        assert kept is not view and same_bits(kept, emb.matrix())
        integers = np.array([[0, 0], [1, 0], [0, 1]])
        integers.flags.writeable = False
        assert Embedding(X, integers).matrix().dtype == np.float64

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3,), (3, 2, 1), (0, 2)])
    def test_an_array_needs_one_row_per_carrier_vertex(self, shape):
        X, _ = fixtures.filled_triangle()
        with pytest.raises(ValueError, match=r"one row per carrier vertex, \(3, N\)"):
            Embedding(X, np.zeros(shape))

    def test_both_forms_refuse_the_same_vertex_and_simplex(self):
        # sparse ids, so a row index is no vertex id
        X = SimplicialComplex.from_maximal([(3, 5, 9), (9, 12)])
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        for bad, error in ((np.inf, NonFiniteCoordinate), (np.nan, NonFiniteCoordinate)):
            broken = rows.copy()
            broken[2, 1] = bad
            with pytest.raises(error) as from_array:
                Embedding(X, broken)
            with pytest.raises(error) as from_mapping:
                Embedding(X, dict(zip(X.vertices, broken)))
            assert str(from_array.value) == str(from_mapping.value) and "9" in str(from_array.value)
        flat = rows.copy()
        flat[2] = [2.0, 0.0]  # (3, 5, 9) on a line
        with pytest.raises(DegenerateSimplex) as from_array:
            Embedding(X, flat)
        with pytest.raises(DegenerateSimplex) as from_mapping:
            Embedding(X, dict(zip(X.vertices, flat)))
        assert from_array.value.simplex == from_mapping.value.simplex == (3, 5, 9)

    def test_the_exact_path_builds_no_coordinate_dict(self):
        X, emb = fixtures.octahedron()
        embedding = Embedding(X, emb.matrix())
        curvature_measure(embedding)
        final_integral(embedding, [(X, constant_function(X, 1))])
        assert embedding._coordinates is None and embedding._vertex_index is None

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_restriction_slices_the_matrix_rows(self, method):
        # sparse ids and a coordinate key off the carrier; each piece's
        # restriction against the mapping restricted key by key
        rng = np.random.default_rng(52)
        X = SimplicialComplex.from_maximal([(2, 5, 9), (5, 9, 11), (11, 20), (30,)])
        coords = {**{v: rng.standard_normal(3) for v in X.vertices}, 99: np.ones(3)}
        pieces = [
            (X.full_subcomplex({5, 9, 11}), None),
            (SimplicialComplex.from_maximal([(2, 5, 9)]), None),
            (SimplicialComplex.from_maximal([(11, 20), (30,)]), None),
            (SimplicialComplex.from_maximal([(20,)]), None),
            (X, None),
        ]
        pieces = [(piece, fixtures.random_rational_values(rng, piece)) for piece, _ in pieces]
        emb = Embedding(X, coords)
        value = bound = 0.0
        for i, (piece, alpha) in enumerate(pieces):
            restricted = emb.restrict(piece)
            if piece == X:  # the carrier itself, already checked
                oracle = emb
            else:
                oracle = Embedding(piece, {v: emb.coordinates[v] for v in piece.vertices})
            assert restricted.vertex_order == oracle.vertex_order
            assert same_bits(restricted.matrix(), oracle.matrix())
            v, b = curvature_integral(alpha, oracle, method, 400, mc.offset_seed(6, i))
            value += v
            bound += b
        fresh = Embedding(X, coords)
        assert final_integral(fresh, pieces, method, 400, 6) == (value, bound)
        assert fresh._coordinates is None


@pytest.mark.parametrize(
    "coordinates",
    [
        {0: 0.0, 1: 1.0},  # scalars, not vectors
        {0: np.float64(0.0), 1: np.float64(1.0)},
        {0: [[0.0]], 1: [[1.0]]},  # one level of nesting too many
    ],
)
def test_coordinates_that_are_not_vectors_raise_a_value_error(coordinates):
    X = SimplicialComplex.from_maximal([(0, 1)])
    with pytest.raises(ValueError, match="coordinates must be vectors of floats"):
        Embedding(X, coordinates)


@pytest.mark.parametrize(
    "largest",
    [0.0, 1.0, 2.0**399, np.nextafter(2.0**400, 0), 2.0**400, -1.5e308, np.finfo(float).max],
)
def test_height_coordinates_scale_by_a_power_of_two(largest):
    coords = np.array([[largest, 0.5], [2.0**-398, -largest / 2]])
    scaled = height_coordinates(coords)
    top = np.abs(scaled).max()
    assert 2.0**399 <= top < 2.0**400
    ratio = top / np.abs(coords).max()
    assert math.frexp(ratio)[0] == 0.5  # a power of two
    np.testing.assert_array_equal(scaled / ratio, coords)  # zeros stay zeros
    assert not height_coordinates(np.zeros((2, 2))).any()


class TestPairBounds:
    """The Monte Carlo bounds of antithetic pairs, checked by z-scores
    against the exact values over many seeds: a bound that is too small
    by sqrt(2) would give a mean z^2 near 2."""

    SEEDS = range(40)

    def test_vertex_cells_are_exact(self):
        _, emb = fixtures.book()
        assert excess_angle((0,), 0, emb, method="mc", samples=7, seed=1) == (1.0, 0.0)
        point = Embedding(fixtures.point(), {0: [0.0, 0.0]})
        assert curvature_measure(point, method="mc", samples=1, seed=1) == {0: (1.0, 0.0)}

    def test_cone_fraction_bounds_are_not_optimistic(self):
        z = []
        for name in ("filled_triangle", "solid_tetrahedron", "octahedron"):
            _, emb = getattr(fixtures, name)()
            cells, sizes, _ = _cell_table(emb)
            filled = np.arange(cells.shape[1]) < sizes[:, None]
            # the exact fractions of the same slots, padded into the table
            exact = np.zeros(cells.shape)
            exact[filled] = np.concatenate([f.ravel() for _, f in _exact_fractions(emb.matrix(), emb.carrier)])
            # the terms of triangles and tetrahedra; edges are exact in pairs
            terms = filled & (sizes[:, None] > 2)
            for seed in self.SEEDS:
                source = emb._height_source(sizes)
                fractions, bounds = _cone_fractions(source, len(emb.vertex_order), cells, sizes, 2000, seed)
                z.extend((fractions[terms] - exact[terms]) / bounds[terms])
        z = np.array(z)
        assert len(z) > 1000 and (z**2).mean() < 1.35

    def test_curvature_bounds_are_not_optimistic(self):
        cone_z, morse_z = [], []
        for name in ("filled_triangle", "book", "cone_fan", "octahedron"):
            _, emb = getattr(fixtures, name)()
            exact = curvature_measure(emb, method="exact")
            for seed in self.SEEDS:
                cone = curvature_measure(emb, method="mc", samples=2000, seed=seed)
                morse = morse_curvature_measure(emb, samples=2000, seed=seed + 1000)
                for v, (value, _) in exact.items():
                    cone_z.append((cone[v].value - value) / cone[v].bound)
                    morse_z.append((morse[v].value - value) / morse[v].bound)
        for z in (np.array(cone_z), np.array(morse_z)):
            assert len(z) >= 30 * 4 and (z**2).mean() < 1.5


def test_exact_curvature_memory_stays_under_twice_the_budget():
    # sd^2 of the solid tetrahedron (2,745 simplices) at its barycenter
    # coordinates, padded by small random columns to N = 2,000: one gather
    # of the tetrahedra's (rows, 4, N) points would be far over the budget
    X, emb = fixtures.solid_tetrahedron()
    coords = {v: np.asarray(emb.coordinates[v], dtype=float) for v in X.vertices}
    for _ in range(2):
        parents = subdivision_vertex_simplices(X)
        X, _ = barycentric_subdivide(X)
        coords = {i: np.mean([coords[u] for u in s], axis=0) for i, s in enumerate(parents)}
    pad = 1e-3 * np.random.default_rng(2).standard_normal((len(X.vertices), 2000 - 3))
    embedding = Embedding(X, {v: np.concatenate([coords[v], pad[i]]) for i, v in enumerate(X.vertices)})
    assert len(X.simplices_of_dim(3)) * 4 * 2000 * 8 > 2 * mc.KERNEL_BUDGET_BYTES
    tracemalloc.start()
    try:
        kappa = curvature_measure(embedding, "exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.KERNEL_BUDGET_BYTES
    total = math.fsum(k.value for k in kappa.values())
    assert total == pytest.approx(X.euler_characteristic(), abs=1e-9)  # Gauss-Bonnet


def test_monte_carlo_memory_in_r2000_stays_under_twice_the_budget():
    # one block of 8,192 Gaussian rows in R^2000 alone would take 125 MiB
    X = fixtures.random_complex(np.random.default_rng(3))
    coords = np.random.default_rng(4).standard_normal((len(X.vertices), 2000))
    embedding = Embedding(X, zip(X.vertices, coords))
    tracemalloc.start()
    try:
        kappa = curvature_measure(embedding, "mc", samples=4000, seed=1)
        morse = morse_curvature_measure(embedding, samples=4000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.KERNEL_BUDGET_BYTES
    for measure in (kappa, morse):
        total = math.fsum(k.value for k in measure.values())
        assert total == pytest.approx(X.euler_characteristic(), abs=1e-9)


def rotated(emb, seed):
    """emb's coordinates times a random orthogonal matrix Q: C Q (C Q)^T =
    C C^T, so an equilateral embedding keeps iid Gaussian heights, but its
    matrix is no longer one of coordinate vectors."""
    n = emb.ambient_dim
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    return Embedding(emb.carrier, zip(emb.vertex_order, emb.matrix() @ q))


def assert_law_of_rotated_gaussian_heights(X, table_dtype):
    """MC and Morse on X's equilateral embedding, whose source draws
    tables of table_dtype, agree within 4 bounds with those of a rotated
    copy, which takes Gaussian rows, a second code path for the same law,
    and both with the Euler weights."""
    emb = equilateral_embedding(X)
    turned = rotated(emb, 5)
    _, sizes, _ = _cell_table(emb)
    assert height_source(turned.matrix(), sizes).draw(6, 0, 1).dtype == float
    assert height_source(emb.matrix(), sizes).draw(6, 0, 1).dtype == table_dtype
    w = weights(X)
    for measure in (
        lambda e: curvature_measure(e, "mc", samples=20000, seed=6),
        lambda e: morse_curvature_measure(e, samples=20000, seed=6),
    ):
        keys, gauss = measure(emb), measure(turned)
        for v in X.vertices:
            (a, ba), (b, bb) = keys[v], gauss[v]
            assert abs(a - b) <= 4 * math.hypot(ba, bb) + 1e-12, v
            assert abs(a - float(w[v])) <= 4 * ba + 1e-12, v
            assert abs(b - float(w[v])) <= 4 * bb + 1e-12, v


@pytest.mark.parametrize("subdivided", [False, True], ids=["fixture", "sd1"])
@pytest.mark.parametrize("name", list(all_fixtures()))
def test_iid_keys_follow_the_law_of_rotated_gaussian_heights(name, subdivided):
    # every case is dense enough for the kernels to rank: rank blocks
    X, _ = all_fixtures()[name]
    if subdivided:
        X, _ = barycentric_subdivide(X)
    assert_law_of_rotated_gaussian_heights(X, np.uint8)


def test_uint64_keys_follow_the_law_of_rotated_gaussian_heights():
    # sd^2 of the octahedron: 146 vertices and 1,874 slots, too sparse to
    # rank, so its equilateral embedding draws iid uint64 keys
    X, _ = fixtures.octahedron()
    X = barycentric_subdivide(barycentric_subdivide(X)[0])[0]
    assert len(X.vertices) == 146
    assert_law_of_rotated_gaussian_heights(X, np.uint64)


def scaled(emb, scale):
    return Embedding(emb.carrier, {v: scale * np.asarray(c) for v, c in emb.coordinates.items()})


@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-664, 2.0**-530, 2.0**1000])
def test_exact_curvature_is_the_same_at_every_power_of_two_scale(scale):
    # the squares of generator entries underflow to 0 at 2^-664, about
    # 1e-200, and keep a few bits at 2^-530; generators are rescaled first
    for name, (_, emb) in {**all_fixtures(), "solid_tetrahedron": fixtures.solid_tetrahedron()}.items():
        assert curvature_measure(scaled(emb, scale)) == curvature_measure(emb), name


def two_triangles(big, tiny):
    """Right triangles of legs `big` and `tiny` sharing their corner vertex 0."""
    X = SimplicialComplex.from_maximal([(0, 1, 2), (0, 3, 4)])
    coords = {0: (0.0, 0.0), 1: (big, 0.0), 2: (0.0, big), 3: (-tiny, 0.0), 4: (0.0, -tiny)}
    return Embedding(X, coords)


def tiny_triangle_beside_unit_ones(leg):
    """A right triangle of legs `leg` at the origin, and two unit triangles
    on the square (1, 1)-(2, 2)."""
    X = SimplicialComplex.from_maximal([(0, 1, 2), (3, 4, 5), (4, 5, 6)])
    coords = {0: (0.0, 0.0), 1: (leg, 0.0), 2: (0.0, leg), 3: (1.0, 1.0), 4: (2.0, 1.0), 5: (1.0, 2.0), 6: (2.0, 2.0)}
    return Embedding(X, coords)


@pytest.mark.parametrize("big, tiny", [(1.0, 1e-160), (1.0, 1e-200), (1.0, 5e-324), (2.0**600, 1e-300)])
def test_exact_curvature_of_a_tiny_triangle_beside_a_larger_one(big, tiny):
    kappa = curvature_measure(two_triangles(big, tiny))
    assert kappa == curvature_measure(two_triangles(1.0, 1.0))
    assert [kappa[v].value for v in (1, 2, 3, 4)] == [0.375] * 4
    assert math.fsum(k.value for k in kappa.values()) == 1.0  # Gauss-Bonnet, chi = 1


@pytest.mark.parametrize("largest", [np.nextafter(2.0**-400, 0), 1e-200, 5e-324])
def test_height_coordinates_scale_tiny_matrices_up(largest):
    coords = np.array([[largest, 0.0], [0.0, -largest / 2]])
    up = height_coordinates(coords)
    assert 2.0**399 <= np.abs(up).max() < 2.0**400
    shift = 400 - math.frexp(largest)[1]  # up by an exact power of two
    np.testing.assert_array_equal(up, np.ldexp(coords, shift))
    np.testing.assert_array_equal(np.ldexp(up, -shift), coords)


def test_monte_carlo_measures_of_a_subnormal_triangle_match_the_unit_one():
    # heights of a subnormal matrix would keep a few bits; it is scaled up first
    _, emb = fixtures.filled_triangle()
    tiny = scaled(emb, 2.0**-1070)
    assert curvature_measure(tiny, "mc", 2000, 3) == curvature_measure(emb, "mc", 2000, 3)
    assert morse_curvature_measure(tiny, 2000, 3) == morse_curvature_measure(emb, 2000, 3)


def test_monte_carlo_measures_of_a_subnormal_triangle_beside_a_unit_one():
    # one scale serves the whole matrix; the legs of 1e-322 must keep their bits
    mixed, unit = two_triangles(1.0, 1e-322), two_triangles(1.0, 1.0)
    assert curvature_measure(mixed, "mc", 20_000, 1) == curvature_measure(unit, "mc", 20_000, 1)
    assert morse_curvature_measure(mixed, 20_000, 1) == morse_curvature_measure(unit, 20_000, 1)
    # a tiny triangle at the origin beside unit ones off it: no column is
    # of one sign, so centring keeps every coordinate of the tiny triangle
    mixed, unit = tiny_triangle_beside_unit_ones(1e-20), tiny_triangle_beside_unit_ones(1.0)
    assert curvature_measure(mixed, "mc", 20_000, 1) == curvature_measure(unit, "mc", 20_000, 1)
    assert morse_curvature_measure(mixed, 20_000, 1) == morse_curvature_measure(unit, 20_000, 1)
