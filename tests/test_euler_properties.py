"""Property tests: the integer-count Euler sums against their per-simplex
definitions (tests/euler_oracles.py) on generated complexes, rational
vertex values with ties, sparse vertex ids and random simplicial maps."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcalc import fixtures  # noqa: E402
from curvcalc.complexes import PLFunction, SimplicialComplex, SimplicialMap, product  # noqa: E402
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
