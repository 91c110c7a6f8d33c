import math
from fractions import Fraction

import numpy as np
import pytest

from curvcalc.complexes import (
    PLFunction,
    SimplicialComplex,
    barycentric_subdivide,
    constant_function,
    full_simplex_complex,
    product,
)
from curvcalc.errors import CarrierTooHighDimensional, ForeignCell, TooManyCuts
from curvcalc.euler import (
    ConstructibleFunction,
    ceil_integral,
    euler_integral,
    floor_integral,
    floor_integral_oracle_1d,
    tentative_integral,
    weights,
)
from curvcalc import euler, fixtures

from euler_oracles import barycenter_sum, weight_oracle


def edge_with_identity():
    X = SimplicialComplex.from_maximal([(0, 1)])
    return X, PLFunction(X, {0: 0, 1: 1})


class TestChiC:
    def test_open_interval_is_minus_one(self):
        X, _ = edge_with_identity()
        assert euler_integral(ConstructibleFunction(X, {(0, 1): 1})) == -1

    def test_closed_edge_is_one(self):
        X, _ = edge_with_identity()
        assert euler_integral(ConstructibleFunction(X, dict.fromkeys([(0,), (1,), (0, 1)], 1))) == 1

    def test_circle_is_zero(self):
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        assert euler_integral(ConstructibleFunction.ones(hollow)) == 0

    def test_foreign_cell(self):
        X, _ = edge_with_identity()
        with pytest.raises(ForeignCell):
            euler_integral(ConstructibleFunction(X, {(0, 2): 1}))


class TestCall:
    def test_reads_the_support_and_zero_elsewhere(self):
        X, _ = fixtures.octahedron()
        s = ConstructibleFunction(X, {(0, 2): Fraction(1, 3), (0, 2, 3): 2})
        assert s((0, 2)) == Fraction(1, 3) and s((0, 2, 3)) == 2
        assert s((1,)) == 0 and s((1, 4, 5)) == 0
        assert s((np.int64(0), np.int64(2))) == Fraction(1, 3)
        assert s((True, 2)) == 0  # True is vertex 1, as has_cell reads it
        assert all(type(s(c)) is Fraction for c in X.cells())

    @pytest.mark.parametrize(
        "cell",
        [(0, 1), (2, 0), (0, 2, 2), (9,), (), (0.0, 2.0), (0.0, 2.0, 3.0), (1.0,), ((0,), (2,))],
    )
    def test_a_non_cell_is_foreign_even_when_it_equals_a_support_cell(self, cell):
        # (0.0, 2.0) hashes and compares equal to the support cell (0, 2),
        # but its entries are not vertex ids
        X, _ = fixtures.octahedron()
        s = ConstructibleFunction(X, {(0, 2): 1, (0, 2, 3): 2, (1,): 3})
        with pytest.raises(ForeignCell):
            s(cell)

    def test_unhashable_cells_raise_type_error(self):
        X, _ = fixtures.octahedron()
        with pytest.raises(TypeError):
            ConstructibleFunction.ones(X)([0, 2])

    def test_product_carriers(self):
        edge = SimplicialComplex.from_maximal([(0, 1)])
        P = product(edge, edge)
        s = ConstructibleFunction(P, {((0,), (0, 1)): 5})
        assert s(((0,), (0, 1))) == 5 and s(((1,), (0,))) == 0
        with pytest.raises(ForeignCell):
            s(((0,), (2,)))


class TestEulerIntegral:
    def test_closed_interval_minus_endpoints(self):
        # the integrand 1_[0,1] - 1_{0} - 1_{1} equals the open-interval
        # indicator, whose chi_c is -1
        X, _ = edge_with_identity()
        s = (
            ConstructibleFunction.indicator_closed(X, (0, 1))
            - ConstructibleFunction.indicator_open(X, (0,))
            - ConstructibleFunction.indicator_open(X, (1,))
        )
        assert euler_integral(s) == -1

    def test_zero_function(self):
        X, _ = edge_with_identity()
        assert euler_integral(ConstructibleFunction.zero(X)) == 0

    def test_arithmetic_keeps_nonzero_fractions_only(self):
        X, _ = edge_with_identity()
        s = ConstructibleFunction(X, {(0,): Fraction(1, 2), (0, 1): 3})
        assert (s - s).coefficients == {}
        assert (0 * s).coefficients == {}
        assert (s + s).coefficients == {(0,): 1, (0, 1): 6}
        assert (Fraction(2, 3) * s).coefficients == {(0,): Fraction(1, 3), (0, 1): 2}
        ones = ConstructibleFunction.ones(X)
        assert ones == ConstructibleFunction(X, {c: 1 for c in X.simplices})
        for t in (s + s, Fraction(2, 3) * s, ones):
            assert all(type(v) is Fraction for v in t.coefficients.values())

    def test_zero_results_over_denominators_past_int64(self):
        # a zero result over a common denominator of 2^70 reduces to 0 / 1
        X, _ = edge_with_identity()
        tiny = Fraction(1, 2**70)
        s = tiny * ConstructibleFunction(X, {(0,): 3, (0, 1): -5})
        assert (s - s) == ConstructibleFunction.zero(X) == tiny * ConstructibleFunction.zero(X)
        assert (s - s).coefficients == {}
        assert euler_integral(s) == 8 * tiny
        zero = PLFunction(X, {0: tiny, 1: tiny})
        _, beta = barycentric_subdivide(X, zero)
        assert beta.common_numerators() == (2**70, (1, 1, 1))
        assert 0 * ConstructibleFunction(X, {(0,): 2**70}) == ConstructibleFunction.zero(X)

    def test_sums_of_int64_numerators_past_int64(self):
        # each numerator fits in int64, their sums do not
        X = SimplicialComplex.from_maximal([(v,) for v in range(4)])
        alpha = PLFunction(X, dict.fromkeys(X.vertices, 2**62))
        for integral in (floor_integral, ceil_integral, tentative_integral):
            assert integral(alpha) == 2**64
        ones = ConstructibleFunction(X, dict.fromkeys(X.simplices, 2**62))
        assert euler_integral(ones) == 2**64

    def test_disk_has_chi_one(self):
        X = full_simplex_complex(2)
        assert euler_integral(ConstructibleFunction.ones(X)) == 1

    @pytest.mark.parametrize("trial", range(5))
    def test_linearity(self, trial, rng):
        X = fixtures.random_complex(rng)
        cells = sorted(X.simplices)

        def random_function():
            return ConstructibleFunction(
                X,
                {
                    cells[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                    for i in rng.integers(0, len(cells), size=4)
                },
            )

        s, t = random_function(), random_function()
        a = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        b = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        assert euler_integral(a * s + b * t) == a * euler_integral(s) + b * euler_integral(t)


class TestFloorCeil:
    def test_identity_on_edge(self):
        _, alpha = edge_with_identity()
        assert floor_integral(alpha) == 1
        assert ceil_integral(alpha) == 0

    def test_floor_can_exceed_ceil(self):
        _, alpha = edge_with_identity()
        assert floor_integral(alpha) > ceil_integral(alpha)

    @pytest.mark.parametrize("c", [Fraction(3), Fraction(-7, 2)])
    def test_constant_gives_chi_c_multiple(self, c, rng):
        X = fixtures.random_complex(rng)
        alpha = constant_function(X, c)
        expected = c * euler_integral(ConstructibleFunction.ones(X))
        assert floor_integral(alpha) == expected
        assert ceil_integral(alpha) == expected

    def test_path_example(self):
        X = fixtures.path_complex(2)
        alpha = PLFunction(X, {0: 0, 1: 1, 2: 2})
        assert floor_integral(alpha) == 2
        assert ceil_integral(alpha) == 0

    def test_not_additive(self):
        # frozen counterexample: id and 1 - id on the segment
        X, alpha = edge_with_identity()
        beta = PLFunction(X, {0: 1, 1: 0})
        gamma = PLFunction(X, {0: 1, 1: 1})
        assert floor_integral(alpha) == 1
        assert floor_integral(beta) == 1
        assert floor_integral(gamma) == 1  # != 1 + 1


class TestFloorOracle:
    def test_identity_on_edge_n2(self):
        _, alpha = edge_with_identity()
        assert floor_integral_oracle_1d(alpha, 2) == 1

    def test_constant_on_a_vertex(self):
        X = fixtures.point()
        alpha = constant_function(X, 1)
        for n in (1, 2, 5):
            assert floor_integral_oracle_1d(alpha, n) == 1

    def test_single_edge_n1(self):
        _, alpha = edge_with_identity()
        assert floor_integral_oracle_1d(alpha, 1) == 1

    def test_rejects_surfaces(self):
        X = full_simplex_complex(2)
        with pytest.raises(CarrierTooHighDimensional):
            floor_integral_oracle_1d(constant_function(X, 0), 3)

    def test_counts_its_cuts_before_making_them(self, monkeypatch):
        # alpha runs 0 .. n along the edge: n - 1 integers lie strictly between
        _, alpha = edge_with_identity()
        monkeypatch.setattr(euler, "_ORACLE_MAX_CUTS", 10)
        assert floor_integral_oracle_1d(alpha, 11) == 1
        with pytest.raises(TooManyCuts, match="11 times"):
            floor_integral_oracle_1d(alpha, 12)

    @pytest.mark.parametrize("trial", range(6))
    def test_stabilizes_to_closed_form(self, trial, rng):
        X = fixtures.path_complex(int(rng.integers(1, 5)))
        alpha = fixtures.random_rational_values(rng, X)
        denominators = math.lcm(*(v.denominator for v in alpha.values.values()))
        n = denominators * int(rng.integers(1, 4))
        assert floor_integral_oracle_1d(alpha, n) == floor_integral(alpha)


class TestTentative:
    def test_identity_on_edge(self):
        _, alpha = edge_with_identity()
        assert tentative_integral(alpha) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(4))
    def test_full_simplex_gives_barycenter_value(self, n, rng):
        X = full_simplex_complex(n)
        alpha = fixtures.random_rational_values(rng, X)
        assert tentative_integral(alpha) == alpha.barycenter_value(tuple(range(n + 1)))

    def test_split_triangle_coefficients(self):
        lam = Fraction(2, 7)
        _, extend = fixtures.lambda_split_triangle(lam)
        coefficients = (
            tentative_integral(extend(1, 0, 0)),
            tentative_integral(extend(0, 1, 0)),
            tentative_integral(extend(0, 0, 1)),
        )
        assert coefficients == (
            Fraction(1, 6),
            Fraction(1, 3) + lam / 6,
            Fraction(1, 2) - lam / 6,
        )

    @pytest.mark.parametrize("trial", range(8))
    def test_weight_identity(self, trial, rng):
        X = fixtures.random_complex(rng)
        alpha = fixtures.random_rational_values(rng, X)
        w = weights(X)
        by_weights = sum((alpha.values[v] * w[v] for v in X.vertices), Fraction(0))
        assert by_weights == tentative_integral(alpha)
        # tentative_integral is computed from the weights, so also check
        # both against the per-simplex definitions
        assert tentative_integral(alpha) == barycenter_sum(alpha)
        assert all(w[v] == weight_oracle(X, v) for v in X.vertices)

    @pytest.mark.parametrize("trial", range(5))
    def test_subdivision_invariance(self, trial, rng):
        X = fixtures.random_complex(rng)
        alpha = fixtures.random_rational_values(rng, X)
        value = tentative_integral(alpha)
        X1, alpha1 = barycentric_subdivide(X, alpha)
        assert tentative_integral(alpha1) == value
        _, alpha2 = barycentric_subdivide(X1, alpha1)
        assert tentative_integral(alpha2) == value

    def test_three_levels_of_subdivision(self):
        X = SimplicialComplex.from_maximal([(0, 1, 2), (2, 3)])
        alpha = PLFunction(
            X, {0: Fraction(1, 3), 1: -2, 2: Fraction(5, 7), 3: 0}
        )
        value = tentative_integral(alpha)
        for _ in range(3):
            X, alpha = barycentric_subdivide(X, alpha)
            assert tentative_integral(alpha) == value


class TestWeights:
    def test_isolated_vertex(self):
        assert weights(fixtures.point())[0] == 1

    def test_segment_endpoint(self):
        X = SimplicialComplex.from_maximal([(0, 1)])
        assert weights(X) == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_full_triangle_vertex(self):
        X = full_simplex_complex(2)
        assert weights(X)[0] == Fraction(1, 3)

    def test_weights_sum_to_chi(self, rng):
        X = fixtures.random_complex(rng)
        assert sum(weights(X).values()) == X.euler_characteristic()
