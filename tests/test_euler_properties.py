"""Property tests: the integer-count Euler sums against their per-simplex
definitions (tests/euler_oracles.py) on generated complexes, rational
vertex values with ties, sparse vertex ids and random simplicial maps;
and the stored form of PLFunction and ConstructibleFunction (integer
numerators over one common denominator) against the Fractions it
stands for, on subdivisions, product carriers and numerators past
2^63."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcalc import fixtures  # noqa: E402
from curvcalc.complexes import (  # noqa: E402
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    _common_numerators,
    barycentric_subdivide,
    product,
    subdivision_vertex_simplices,
)
from curvcalc.euler import (  # noqa: E402
    ConstructibleFunction,
    ceil_integral,
    euler_integral,
    floor_integral,
    tentative_integral,
    weights,
)
from curvcalc.pushforwards import fubini_chi, pushforward  # noqa: E402

from euler_oracles import (  # noqa: E402
    barycenter_sum,
    ceil_integral_oracle,
    euler_integral_oracle,
    floor_integral_oracle,
    pushforward_oracle,
    weight_oracle,
)

SETTINGS = settings(max_examples=80, deadline=None)
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def complexes(draw):
    """fixtures.random_complex, and half the time a full subcomplex of it
    on a vertex subset, which leaves gaps in the vertex ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = fixtures.random_complex(
        rng, max_vertices=draw(st.integers(3, 9)), max_dim=draw(st.integers(1, 4))
    )
    if draw(st.booleans()):
        X = X.full_subcomplex(draw(st.sets(st.sampled_from(X.vertices), min_size=1)))
    return X


@st.composite
def pl_functions(draw):
    """Vertex values drawn from a small pool, so that ties are common."""
    X = draw(complexes())
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=6))
    return PLFunction(X, {v: draw(st.sampled_from(pool)) for v in X.vertices})


# numerators up to 2^80 over denominators up to 2^40: over their common
# denominator the numerators, and their sums, pass 2^63
HUGE_RATIONALS = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**40))
VALUES = st.one_of(RATIONALS, HUGE_RATIONALS)


def constructible_functions(carrier):
    """Coefficients on some cells, or on every cell in cells() order as
    ones() lists them, or on every cell in reverse order."""
    cells = list(carrier.cells())
    some = st.dictionaries(st.sampled_from(cells), VALUES)
    every = st.lists(VALUES, min_size=len(cells), max_size=len(cells)).flatmap(
        lambda values: st.sampled_from([cells, cells[::-1]]).map(
            lambda order: dict(zip(order, values))
        )
    )
    return st.one_of(some, every, st.just(dict.fromkeys(cells, 1))).map(
        lambda coefficients: ConstructibleFunction(carrier, coefficients)
    )


@st.composite
def simplicial_maps(draw):
    """A random vertex map out of a generated complex; the target is the
    face closure of the images plus a few extra vertices and simplices,
    so some target cells lie outside the image."""
    X = draw(complexes())
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    vertex_map = {v: draw(st.sampled_from(ids)) for v in X.vertices}
    images = {tuple(sorted({vertex_map[v] for v in s})) for s in X.simplices}
    extra = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1, max_size=3), max_size=3))
    target = SimplicialComplex.from_maximal([*images, *extra, *((u,) for u in ids)])
    return SimplicialMap(X, target, vertex_map)


@SETTINGS
@given(pl_functions())
def test_floor_and_ceil_equal_the_per_simplex_extremes(alpha):
    assert floor_integral(alpha) == floor_integral_oracle(alpha)
    assert ceil_integral(alpha) == ceil_integral_oracle(alpha)


@SETTINGS
@given(pl_functions())
def test_tentative_equals_the_barycenter_sum(alpha):
    assert tentative_integral(alpha) == barycenter_sum(alpha)


@SETTINGS
@given(complexes())
def test_weights_are_star_sums_and_add_up_to_chi(X):
    w = weights(X)
    assert list(w) == list(X.vertices)
    assert w == {v: weight_oracle(X, v) for v in X.vertices}
    assert sum(w.values()) == X.euler_characteristic()


@SETTINGS
@given(st.data())
def test_pushforward_follows_the_fiber_rule(data):
    f = data.draw(simplicial_maps())
    s = data.draw(constructible_functions(f.source))
    pushed = pushforward(f, s)
    assert pushed.coefficients == pushforward_oracle(f, s)
    assert all(type(value) is Fraction for value in pushed.coefficients.values())
    assert euler_integral(s) == euler_integral_oracle(s)
    assert euler_integral(pushed) == euler_integral(s)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fubini_partial_sums_equal_the_direct_integral(data):
    carrier = product(data.draw(complexes()), data.draw(complexes()))
    s = data.draw(constructible_functions(carrier))
    expected = euler_integral_oracle(s)
    assert fubini_chi(s) == (expected, expected, expected)


# ---------------------------------------------------------------------------
# The stored form: integer numerators over one common denominator
# ---------------------------------------------------------------------------

def small_complexes(max_vertices=6, max_dim=2):
    return st.builds(
        lambda seed, n, d: fixtures.random_complex(np.random.default_rng(seed), max_vertices=n, max_dim=d),
        st.integers(0, 2**32 - 1),
        st.integers(3, max_vertices),
        st.integers(1, max_dim),
    )


@st.composite
def subdivided_pl_functions(draw):
    """(X, alpha, depth, sd^depth alpha) for p/q values, and values whose
    numerators over the common denominator pass 2^63, with depth 0-2."""
    X = draw(small_complexes())
    alpha = PLFunction(X, {v: draw(VALUES) for v in X.vertices})
    beta = alpha
    depth = draw(st.integers(0, 2))
    for _ in range(depth):
        beta = barycentric_subdivide(beta.complex, beta)[1]
    return X, alpha, depth, beta


def assert_stored_form_matches_the_values(alpha):
    """common_numerators() is the lcm form of the values, built from
    the stored arrays, and the arrays are int64 exactly when they fit."""
    common, numerators = _common_numerators(alpha.values[v] for v in alpha.complex.vertices)
    assert alpha.common_numerators() == (common, tuple(numerators.tolist()))
    wide = any(abs(n) >= 2**63 for n in numerators.tolist())
    assert alpha._numerators.dtype == (object if wide else np.int64)
    assert list(alpha.values) == list(alpha.complex.vertices)
    assert all(type(v) is Fraction and type(v.numerator) is int for v in alpha.values.values())


@SETTINGS
@given(subdivided_pl_functions())
def test_subdivided_values_and_integrals_match_the_per_simplex_oracles(case):
    X, alpha, depth, beta = case
    assert_stored_form_matches_the_values(beta)
    # the stored form is canonical: the same values rebuilt from Fractions
    # compare equal, whichever denominators produced them
    assert PLFunction(beta.complex, dict(beta.values)) == beta
    assert floor_integral(beta) == floor_integral_oracle(beta) == floor_integral_oracle(alpha)
    assert ceil_integral(beta) == ceil_integral_oracle(beta) == ceil_integral_oracle(alpha)
    assert tentative_integral(beta) == barycenter_sum(beta)
    w = weights(beta.complex)
    assert w == {v: weight_oracle(beta.complex, v) for v in beta.complex.vertices}
    if depth:
        previous = X if depth == 1 else barycentric_subdivide(X)[0]
        assert list(beta.values) == list(range(len(previous)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pushforward_of_stored_functions_along_the_last_vertex_map(data):
    """sd^2 X -> sd X sends a chain to its last simplex; push ones() and a
    function with huge coefficients along it."""
    X = data.draw(small_complexes(max_vertices=5))
    sd1, _ = barycentric_subdivide(X)
    sd2, _ = barycentric_subdivide(sd1)
    last = {i: s[-1] for i, s in enumerate(subdivision_vertex_simplices(sd1))}
    f = SimplicialMap(sd2, sd1, last)
    cells = sd2.cells()
    huge = ConstructibleFunction(sd2, data.draw(st.dictionaries(st.sampled_from(cells), VALUES, max_size=12)))
    for s in (ConstructibleFunction.ones(sd2), huge):
        pushed = pushforward(f, s)
        assert pushed.coefficients == pushforward_oracle(f, s)
        assert euler_integral(pushed) == euler_integral(s) == euler_integral_oracle(s)
    assert euler_integral(pushforward(f, ConstructibleFunction.ones(sd2))) == X.euler_characteristic()


def added(a: dict, b: dict, scale=1) -> dict:
    """The coefficients of a + scale * b, one Fraction per cell."""
    out = dict(a)
    for cell, value in b.items():
        out[cell] = out.get(cell, Fraction(0)) + scale * value
    return {cell: value for cell, value in out.items() if value}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_arithmetic_on_simplicial_and_product_carriers(data):
    X = data.draw(small_complexes(max_vertices=4))
    carrier = data.draw(st.sampled_from([X, product(X, data.draw(small_complexes(max_vertices=3, max_dim=1)))]))
    cells = list(carrier.cells())
    s = data.draw(constructible_functions(carrier))
    t = data.draw(constructible_functions(carrier))
    scalar = data.draw(VALUES)
    ones = ConstructibleFunction.ones(carrier)
    assert ones.coefficients == dict.fromkeys(cells, Fraction(1))
    assert ones == ConstructibleFunction(carrier, dict.fromkeys(reversed(cells), 1))
    assert euler_integral(ones) == carrier.euler_characteristic()
    cell = data.draw(st.sampled_from(cells))
    closed = ConstructibleFunction.indicator_closed(carrier, cell)
    assert closed.coefficients == dict.fromkeys(carrier.closure(cell), 1)
    a, b = s.coefficients, t.coefficients
    for result, expected in (
        (s + t, added(a, b)),
        (s - t, added(a, b, -1)),
        (scalar * s, added({}, a, scalar)),
        (s + closed, added(a, closed.coefficients)),
        (s - s, {}),
    ):
        assert result.coefficients == expected
        assert result == ConstructibleFunction(carrier, expected)
        assert euler_integral(result) == euler_integral_oracle(result)
        assert all(type(v) is Fraction and type(v.numerator) is int for v in result.coefficients.values())
    # the same function through different denominators
    assert Fraction(1, 3) * (3 * s) == s == (s + s) - s
    assert Fraction(1, 2) * (s + s) == s
