import itertools
import math

import numpy as np
import pytest

from curvcalc.curvature import Embedding, curvature_measure, product_embedding
from curvcalc.errors import CarrierMismatch, DimensionMismatch, NonGenericDirection
from curvcalc.morse import (
    as_direction,
    morse_curvature_measure,
    morse_index,
    morse_indices,
)
from curvcalc import fixtures, mc
from curvcalc.complexes import SimplicialComplex

from test_kernels import FIXTURES, pair_index_by_column, sparse_octahedron


class TestMorseIndex:
    def test_extrema_on_a_path(self):
        path = fixtures.path_complex(2)
        emb = Embedding(path, {0: [0.0], 1: [-1.0], 2: [0.5]})
        # h(y) = -<x, y> with x = (1,): the vertex at coordinate 0.5 is
        # the h-minimum (empty lower link), the one at -1.0 the h-maximum
        assert morse_index(2, [1.0], emb) == 1
        assert morse_index(1, [1.0], emb) == -1
        assert sum(morse_indices([1.0], emb).values()) == 1

    def test_interior_slope_point_is_regular(self):
        path = fixtures.path_complex(2)
        emb = Embedding(path, {0: [0.0], 1: [1.0], 2: [2.0]})
        assert morse_index(1, [1.0], emb) == 0

    def test_octahedron_poles_both_count_one(self):
        _, emb = fixtures.octahedron()
        assert morse_index(0, [0.0, 0.0, -1.0], emb) == 1
        assert morse_index(0, [0.0, 0.0, 1.0], emb) == 1

    def test_octahedron_equator_tie_is_non_generic(self):
        _, emb = fixtures.octahedron()
        with pytest.raises(NonGenericDirection):
            morse_index(0, [1.0, 0.0, 0.0], emb)

    def test_direction_must_be_nonzero(self):
        with pytest.raises(ValueError):
            as_direction([0.0, 0.0])

    @pytest.mark.parametrize(
        "vector", [[], [0.0, -0.0], [np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]]
    )
    def test_direction_must_be_finite_and_nonzero(self, vector):
        with pytest.raises(ValueError, match="nonzero finite vector"):
            as_direction(vector)

    @pytest.mark.parametrize(
        "vector, unit",
        [
            ([1e200, 1e200, 1e200], [1.0, 1.0, 1.0]),  # the plain norm overflows
            ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),  # the plain norm underflows to 0
            ([-1e308, 1e308], [-1.0, 1.0]),
            ([5e-324, 0.0], [1.0, 0.0]),  # the smallest subnormal
        ],
    )
    def test_directions_of_any_finite_scale_are_accepted(self, vector, unit):
        # pytest turns RuntimeWarnings into errors, so no overflow is reported
        np.testing.assert_allclose(as_direction(vector), as_direction(unit), rtol=1e-15)

    def test_scaling_changes_no_ordinary_direction(self, rng):
        # a power-of-two scale is exact, so in the normal range the result
        # is bitwise the plain normalization
        for _ in range(200):
            x = rng.standard_normal(rng.integers(1, 6)) * 10.0 ** rng.integers(-100, 100)
            np.testing.assert_array_equal(as_direction(x), x / np.linalg.norm(x))


    @pytest.mark.parametrize("direction", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    def test_direction_length_must_match_the_embedding(self, direction):
        _, emb = fixtures.octahedron()
        message = f"direction has {len(direction)} components, the embedding 3"
        with pytest.raises(DimensionMismatch, match=message):
            morse_index(0, direction, emb)
        with pytest.raises(DimensionMismatch, match=message):
            morse_indices(direction, emb)


class TestMorseIndices:
    @pytest.mark.parametrize("fixture", [*FIXTURES, sparse_octahedron])
    def test_all_at_once_equals_the_per_vertex_oracle(self, fixture, rng):
        X, emb = fixture()
        for _ in range(10):
            x = rng.standard_normal(emb.ambient_dim)
            indices = morse_indices(x, emb)
            assert list(indices) == list(X.vertices)
            assert indices == {v: morse_index(v, x, emb) for v in X.vertices}
            assert sum(indices.values()) == X.euler_characteristic()

    def test_a_tie_is_reported_at_the_first_tied_vertex(self):
        _, emb = fixtures.octahedron()
        x = [1.0, 0.0, 0.0]  # the equator's four vertices tie in pairs

        def ties(v):
            try:
                morse_index(v, x, emb)
            except NonGenericDirection:
                return True
            return False

        with pytest.raises(NonGenericDirection) as raised:
            morse_indices(x, emb)
        assert raised.value.vertex == next(filter(ties, emb.carrier.vertices))

    def test_products_are_refused(self):
        _, seg = fixtures.segment()
        with pytest.raises(CarrierMismatch):
            morse_indices([1.0, 0.5], product_embedding(seg, seg))


class TestChiSum:
    def test_segment(self):
        _, emb = fixtures.segment()
        assert sum(morse_indices([0.83], emb).values()) == 1

    def test_octahedron_fixed_direction(self):
        _, emb = fixtures.octahedron()
        assert sum(morse_indices(np.array([0.3, 0.5, 0.8]), emb).values()) == 2

    def test_hollow_triangle(self):
        _, emb = fixtures.hollow_triangle()
        assert sum(morse_indices([0.2, 0.95], emb).values()) == 0

    @pytest.mark.parametrize(
        "fixture, chi",
        [
            (fixtures.octahedron, 2),
            (fixtures.cone_fan, 1),
            (fixtures.book, 1),
            (fixtures.filled_triangle, 1),
        ],
    )
    def test_random_directions_conserve_chi(self, fixture, chi, rng):
        _, emb = fixture()
        for _ in range(25):
            x = rng.standard_normal(emb.ambient_dim)
            assert sum(morse_indices(x, emb).values()) == chi


class TestIndexLocality:
    def test_deleting_far_simplices_keeps_the_index(self, rng):
        # removing everything outside the closed star of the vertex (the
        # full subcomplex on its star's vertices) cannot change the index
        X, emb = fixtures.octahedron()
        v = 0
        star_vertices = {u for s in X.star(v) for u in s}
        smaller = X.full_subcomplex(star_vertices)
        assert len(smaller) < len(X)
        sub_emb = Embedding(
            smaller, {u: emb.coordinates[u] for u in smaller.vertices}
        )
        for _ in range(10):
            x = rng.standard_normal(3)
            assert morse_index(v, x, emb) == morse_index(v, x, sub_emb)


class TestVectorizedIndexOracle:
    @pytest.mark.parametrize("fixture", [*FIXTURES, sparse_octahedron])
    def test_lower_link_kernel_equals_scalar_index(self, fixture):
        # every tie-free pair of the vectorized kernel, its Q plus the
        # plan's constant, must give per vertex exactly the sum of the
        # integers the scalar lower-link index gives for x and -x;
        # morse_index's height is -<x, p>
        X, emb = fixture()
        dirs = mc.sample_unit_directions(11, 0, 50, emb.ambient_dim)
        heights = -(dirs @ emb.matrix().T)
        idx, ties = pair_index_by_column(heights, mc.build_link_arrays(X), len(emb.vertex_index))
        assert not ties.all()
        for row in np.nonzero(~ties)[0]:
            for v in X.vertices:
                want = morse_index(v, dirs[row], emb) + morse_index(v, -dirs[row], emb)
                assert idx[row, emb.vertex_index[v]] == want, (row, v)


class TestMorseMeasure:
    def test_segment_endpoints(self):
        _, emb = fixtures.segment()
        kappa = morse_curvature_measure(emb, samples=20_000, seed=1)
        for v in (0, 1):
            assert abs(kappa[v].value - 0.5) <= 4 * kappa[v].bound

    def test_isolated_point_is_always_critical(self):
        X = fixtures.point()
        emb = Embedding(X, {0: [0.0, 0.0]})
        kappa = morse_curvature_measure(emb, samples=2_000, seed=0)
        assert kappa[0] == (1.0, 0.0)

    def test_filled_triangle_matches_exterior_angles(self):
        _, emb = fixtures.filled_triangle()
        exact = curvature_measure(emb, method="exact")
        kappa = morse_curvature_measure(emb, samples=40_000, seed=2)
        for v in exact:
            assert abs(kappa[v].value - exact[v].value) <= 4 * max(kappa[v].bound, 1e-12)

    @pytest.mark.parametrize(
        "fixture",
        [
            fixtures.segment,
            fixtures.square_boundary,
            fixtures.filled_triangle,
            fixtures.octahedron,
            fixtures.cone_fan,
            fixtures.book,
        ],
    )
    def test_agreement_with_normal_cone_curvature(self, fixture):
        _, emb = fixture()
        cone = curvature_measure(emb, method="mc", samples=20_000, seed=3)
        morse = morse_curvature_measure(emb, samples=20_000, seed=4)
        for v in cone:
            joint = math.hypot(cone[v].bound, morse[v].bound)
            assert abs(cone[v].value - morse[v].value) <= 4 * max(joint, 1e-12)

    @pytest.mark.parametrize(
        "name",
        ["octahedron", "cone_fan", "book", "filled_triangle", "hollow_triangle", "square_boundary"],
    )
    def test_bound_is_zero_only_where_the_estimate_is_exact(self, name):
        # With 1 to 8 samples every pair can give a vertex the same index;
        # the pseudo-pair keeps its bound above 0 unless the vertex is in
        # no triangle, where the pair index is 2 - degree in every pair.
        X, emb = getattr(fixtures, name)()
        exact = curvature_measure(emb, method="exact")
        in_triangle = set(itertools.chain.from_iterable(X.simplices_of_dim(2)))
        for samples in (1, 2, 4, 8):
            for seed in range(20):
                kappa = morse_curvature_measure(emb, samples=samples, seed=seed)
                for v, (value, bound) in kappa.items():
                    assert (bound == 0.0) == (v not in in_triangle), (samples, seed, v)
                    assert bound > 0.0 or abs(value - exact[v].value) <= 1e-9, (samples, seed, v)

    def test_measure_builds_no_link_or_star(self, monkeypatch):
        def refuse(self, v):
            raise AssertionError("the Monte Carlo path built a link or star")

        monkeypatch.setattr(SimplicialComplex, "link", refuse)
        monkeypatch.setattr(SimplicialComplex, "star", refuse)
        for fixture in (fixtures.octahedron, sparse_octahedron):
            X, emb = fixture()
            kappa = morse_curvature_measure(emb, samples=2_000, seed=6)
            assert abs(sum(k.value for k in kappa.values()) - X.euler_characteristic()) < 1e-12

    def test_unused_coordinate_rows_carry_no_mass(self):
        X, emb = sparse_octahedron()
        kappa = morse_curvature_measure(emb, samples=2_000, seed=6)
        cone = curvature_measure(emb, method="mc", samples=2_000, seed=6)
        assert kappa.keys() == cone.keys() == set(emb.vertex_order)
        for v in set(emb.vertex_order) - set(X.vertices):
            assert kappa[v] == cone[v] == (0.0, 0.0)

    def test_tie_resampling_is_rare(self, monkeypatch):
        _, emb = fixtures.octahedron()
        recorded = []
        run_lower_link_stats = mc.run_lower_link_stats

        def record(*args):
            sums, sumsq, stats = run_lower_link_stats(*args)
            recorded.append(stats)
            return sums, sumsq, stats

        monkeypatch.setattr(mc, "run_lower_link_stats", record)
        morse_curvature_measure(emb, samples=100_000, seed=5)
        (stats,) = recorded
        assert stats.samples == 100_000
        assert stats.resampled <= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_vertex_weights_in_the_unit_edge_metric(self, seed):
        # closes the triangle: the combinatorial weights equal the
        # normal-cone curvature, which equals this direction average
        from curvcalc.curvature import equilateral_embedding
        from curvcalc.euler import weights

        rng = np.random.default_rng(4000 + seed)
        X = fixtures.random_complex(rng)
        w = weights(X)
        kappa = morse_curvature_measure(
            equilateral_embedding(X), samples=30_000, seed=seed
        )
        for v in X.vertices:
            gap = abs(float(w[v]) - kappa[v].value)
            assert gap <= 4 * max(kappa[v].bound, 1e-12)
