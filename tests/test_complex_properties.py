"""Property tests: the array face closure and subdivision against their
tuple definitions (tests/complex_oracles.py), and the constructible
function file format round trip, on generated complexes with sparse
vertex ids."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcalc.complexes import SimplicialComplex, barycentric_subdivide  # noqa: E402
from curvcalc.euler import ConstructibleFunction  # noqa: E402
from curvcalc.io import (  # noqa: E402
    ComplexDocument,
    parse_complex,
    parse_constructible,
    serialize_complex,
    serialize_constructible,
)

from complex_oracles import chains, face_closure  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None)

# simplices of up to 6 vertices on sparse ids, isolated vertices included
MAXIMAL = st.lists(
    st.sets(st.integers(0, 40), min_size=1, max_size=6).map(sorted).map(tuple),
    max_size=8,
)


@SETTINGS
@given(MAXIMAL, st.randoms(use_true_random=False))
def test_closure_matches_the_tuple_closure(maximal, random):
    shuffled = [tuple(random.sample(m, len(m))) for m in maximal]
    X = SimplicialComplex.from_maximal(shuffled)
    closed = face_closure(maximal)
    assert X.simplices == frozenset(closed)
    assert X.cells() == tuple(sorted(closed, key=lambda s: (len(s), s)))
    assert X == SimplicialComplex(closed)


@SETTINGS
@given(st.lists(st.sets(st.integers(0, 12), min_size=1, max_size=4).map(sorted).map(tuple), max_size=5))
def test_subdivision_matches_the_chains(maximal):
    X = SimplicialComplex.from_maximal(maximal)
    sd, _ = barycentric_subdivide(X)
    simps, oracle = chains(X)
    assert sd.vertices == tuple(range(len(simps)))
    assert sd.cells() == tuple(sorted(oracle, key=lambda c: (len(c), c)))


RATIONALS = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)


@st.composite
def documents_with_functions(draw):
    maximal = draw(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4).map(sorted).map(tuple), min_size=1, max_size=6))
    X = SimplicialComplex.from_maximal(maximal)
    names = [f"v{i}" for i in range(max(X.vertices) + 1)]
    doc = parse_complex(serialize_complex(ComplexDocument(X, names, None, None)))
    cells = list(doc.complex.cells())
    coefficients = draw(st.dictionaries(st.sampled_from(cells), RATIONALS))
    return doc, ConstructibleFunction(doc.complex, coefficients)


@SETTINGS
@given(documents_with_functions())
def test_constructible_round_trip(case):
    doc, s = case
    text = serialize_constructible(s, doc)
    again = parse_constructible(text, doc)
    assert again == s
    assert serialize_constructible(again, doc) == text
