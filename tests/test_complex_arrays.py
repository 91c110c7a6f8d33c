"""The array-built complexes against their tuple definitions
(tests/complex_oracles.py): face closure, barycentric subdivision and its
vertex values, maximal simplices in the file format, and the fibers of a
simplicial map."""

import time
from fractions import Fraction

import numpy as np
import pytest

from curvcalc import complexes, euler, fixtures
from curvcalc.complexes import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    full_simplex_complex,
    subdivision_vertex_simplices,
)
from curvcalc.errors import UnknownVertex
from curvcalc.euler import ConstructibleFunction
from curvcalc.io import ComplexDocument, parse_complex, serialize_complex
from curvcalc.pushforwards import pushforward

import complex_oracles
from complex_oracles import chains, face_closure, serialize_complex_by_closure

FIXTURE_FILES = ("edge.txt", "octahedron.txt", "path3.txt", "point.txt", "triangle.txt")


def random_maximal(rng, max_vertices=9, max_dim=4, spread=1):
    """A few random simplices on vertex ids spread * v + offset, plus some
    isolated vertices beyond them."""
    n = int(rng.integers(1, max_vertices + 1))
    offset = int(rng.integers(0, 4))
    ids = [spread * v + offset for v in range(n)]
    maximal = [(int(v),) for v in rng.choice(ids, size=int(rng.integers(0, n + 1)), replace=False)]
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(1, min(max_dim + 1, n) + 1))
        maximal.append(tuple(rng.permutation(rng.choice(ids, size=size, replace=False)).tolist()))
    return maximal


def assert_canonical(X: SimplicialComplex, simplices: set):
    """X stores exactly the given face-closed set: sorted vertex ids, and
    per dimension the lexicographically sorted rows of positions."""
    vertices = sorted(s[0] for s in simplices if len(s) == 1)
    assert X.vertices == tuple(vertices)
    assert X.simplices == frozenset(simplices)
    assert len(X) == len(simplices)
    dim = max(map(len, simplices), default=0) - 1
    assert X.dim == dim
    for d in range(dim + 1):
        expected = sorted(s for s in simplices if len(s) == d + 1)
        assert X.simplices_of_dim(d) == tuple(expected)
        positions = [tuple(vertices.index(v) for v in s) for s in expected]
        assert X.vertex_positions(d).tolist() == [list(p) for p in positions]
        assert X.vertex_positions(d).dtype == np.int64
        assert not X.vertex_positions(d).flags.writeable
    assert X.cells() == tuple(sorted(simplices, key=lambda s: (len(s), s)))
    assert X.euler_characteristic() == sum((-1) ** (len(s) - 1) for s in simplices)


class TestFaceClosure:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_tuple_closure(self, seed):
        rng = np.random.default_rng(3100 + seed)
        maximal = random_maximal(rng, spread=int(rng.integers(1, 4)))
        X = SimplicialComplex.from_maximal(maximal)
        closed = face_closure(maximal)
        assert_canonical(X, closed)
        assert X == SimplicialComplex(closed)
        assert hash(X) == hash(SimplicialComplex(closed))

    def test_empty_and_single_vertices(self):
        empty = SimplicialComplex.from_maximal([])
        assert_canonical(empty, set())
        assert empty == SimplicialComplex([]) and empty.f_vector() == ()
        assert empty.vertex_positions(0).shape == (0, 1)
        points = SimplicialComplex.from_maximal([(7,), (2,), (7,)])
        assert_canonical(points, {(2,), (7,)})

    def test_repeated_and_nested_inputs(self):
        X = SimplicialComplex.from_maximal([(3, 1, 2), (1, 2), (2, 3, 1), (4,), (1, 2, 3, 5)])
        assert_canonical(X, face_closure([(1, 2, 3, 5), (4,)]))

    @pytest.mark.parametrize(
        "bad, message",
        [((), "at least one vertex"), ((1, 2, 1), "duplicate"), ((-1, 2), "nonnegative")],
    )
    def test_keeps_the_as_simplex_errors(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex.from_maximal([(0, 1), bad])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, ranks", [(7, False), (1000, False), (2**40, True)])
    def test_keyed_rows_match_the_lexsort(self, k, n, ranks, monkeypatch):
        # with entries up to 2^40, every column past the first would take
        # the key past 2^63, so each takes the dense rank first
        rng = np.random.default_rng(3150 + k)
        rows = rng.integers(0, n, size=(400, k))
        rows = rng.permutation(np.concatenate([rows, rows[rng.integers(0, 400, 200)]]))
        rows[0] = n - 1  # the largest entry
        expected = rows[np.lexsort(rows.T[::-1])]
        expected = expected[np.r_[True, (expected[1:] != expected[:-1]).any(axis=1)]]
        calls = []
        runs = complexes._runs
        monkeypatch.setattr(complexes, "_runs", lambda key: calls.append(1) or runs(key))
        found = complexes._sorted_rows(rows, n)
        assert found.dtype == np.int64 and np.array_equal(found, expected)
        assert len(calls) == (k if ranks else 1)

    def test_keys_stop_below_two_to_the_63(self, monkeypatch):
        # (2^31 - 1) * 2^32 + 2^32 - 1 = 2^63 - 1 fits; one more and it would not
        calls = []
        runs = complexes._runs
        monkeypatch.setattr(complexes, "_runs", lambda key: calls.append(1) or runs(key))
        rows = np.array([[2**31 - 1, 2**32 - 1], [0, 5], [2**31 - 1, 0], [0, 5]])
        assert complexes._sorted_rows(rows, 2**32).tolist() == [[0, 5], [2**31 - 1, 0], [2**31 - 1, 2**32 - 1]]
        assert len(calls) == 2  # (max + 1) * n reaches 2^63: ranked first
        calls.clear()
        assert complexes._sorted_rows(rows // 2, 2**32).tolist() == [[0, 2], [2**30 - 1, 0], [2**30 - 1, 2**31 - 1]]
        assert len(calls) == 1

    def test_matches_the_tuple_closure_on_60000_vertices(self, monkeypatch):
        # tetrahedra among 60,000 vertices: the keys of the highest pass
        # 2^63 at the last column, so the closure ranks them there once
        rng = np.random.default_rng(3190)
        maximal = [(v,) for v in range(60_000)] + [(59_996, 59_997, 59_998, 59_999)]
        maximal += [tuple(rng.choice(60_000, size=4, replace=False).tolist()) for _ in range(30)]
        maximal += [tuple(sorted(s)[:3]) for s in maximal[-10:]]
        calls = []
        runs = complexes._runs
        monkeypatch.setattr(complexes, "_runs", lambda key: calls.append(1) or runs(key))
        X = SimplicialComplex.from_maximal(maximal)
        assert len(calls) == 5  # the vertex ids, one per dimension 3..1, one rank
        closed = face_closure(maximal)
        assert X.vertices == tuple(range(60_000))  # so positions are ids
        for d in range(4):
            expected = sorted(s for s in closed if len(s) == d + 1)
            assert X.vertex_positions(d).tolist() == list(map(list, expected))

    @pytest.mark.parametrize("seed", range(20))
    def test_parsed_files_match_the_tuple_closure(self, seed):
        # simplex lines in any vertex order, some repeated or nested, and
        # names declared in a shuffled order: ids follow the file
        rng = np.random.default_rng(3200 + seed)
        maximal = random_maximal(rng, max_vertices=12, max_dim=4)
        names = {v: f"n{v}" for s in maximal for v in s}
        declared = list(rng.permutation(sorted(names)).tolist())
        lines = ["curvcalc-complex v1", "vertices", *(names[v] for v in declared), "simplices"]
        lines += [" ".join(names[v] for v in s) for s in maximal + maximal[:2]]
        doc = parse_complex("\n".join(lines) + "\n")
        ids = {v: i for i, v in enumerate(declared)}
        closed = face_closure(tuple(ids[v] for v in s) for s in maximal)
        assert doc.names == [names[v] for v in declared]
        assert_canonical(doc.complex, closed)

    def test_equality_is_by_simplex_set(self):
        X = SimplicialComplex.from_maximal([(0, 1, 2)])
        assert X != SimplicialComplex.from_maximal([(0, 1, 3)])
        assert X != SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        assert X != full_simplex_complex(3)
        assert X == full_simplex_complex(2)
        assert X != "not a complex"


def assert_subdivision_matches_chains(X: SimplicialComplex, sd: SimplicialComplex):
    simps, oracle = chains(X)
    assert subdivision_vertex_simplices(X) == simps
    assert sd.vertices == tuple(range(len(simps)))
    assert_canonical(sd, set(oracle))


class TestCellMembership:
    @pytest.mark.parametrize("seed", range(20))
    def test_has_cell_answers_as_the_simplex_set(self, seed):
        rng = np.random.default_rng(3300 + seed)
        X = SimplicialComplex.from_maximal(random_maximal(rng, spread=int(rng.integers(1, 4))))
        own = list(X.cells())
        drawn = [tuple(rng.integers(0, 16, size=k).tolist()) for k in rng.integers(1, 6, size=40)]
        queries = [
            *own,
            *(s[::-1] for s in own if len(s) > 1),  # unsorted
            *(s + s[-1:] for s in own),  # a repeated vertex
            *drawn,  # foreign ids, and non-simplices on known ones
            *map(tuple, map(sorted, drawn)),
            (),
            ((0,), (1,)),  # a product cell
            tuple(map(np.int64, own[-1])),
            tuple(map(np.uint8, own[0])),
            (2**70,),
            (-1,),
            "0",
            ("0",),
        ]
        got = [X.has_cell(c) for c in queries]
        assert X._simplices is None  # answered from the stored rows
        assert got == [c in X.simplices for c in queries]
        assert X.cell_indices(queries).tolist() == [
            own.index(c) if c in X.simplices else -1 for c in queries
        ]
        for unhashable in ([0], [0, 1], ([0],)):
            with pytest.raises(TypeError):
                unhashable in X.simplices
            with pytest.raises(TypeError):
                X.has_cell(unhashable)
        assert all(list(c) in X for c in own) and [max(X.vertices) + 1] not in X

    def test_a_first_lookup_builds_no_tuple_view(self):
        X, _ = fixtures.solid_tetrahedron()
        for _ in range(3):
            X, _ = barycentric_subdivide(X)
        start = time.perf_counter()
        ConstructibleFunction.indicator_open(X, (0,))
        assert time.perf_counter() - start < 0.005
        assert X._simplices is None


class TestSubdivision:
    @pytest.mark.parametrize("seed", range(25))
    def test_rows_and_ids_match_the_chains_two_levels_deep(self, seed):
        rng = np.random.default_rng(3200 + seed)
        X = SimplicialComplex.from_maximal(random_maximal(rng, max_vertices=7, max_dim=3, spread=3))
        for _ in range(2):
            sd, _ = barycentric_subdivide(X)
            assert_subdivision_matches_chains(X, sd)
            X = sd

    @pytest.mark.parametrize("n", range(5))
    def test_full_simplex(self, n):
        X = full_simplex_complex(n)
        sd, _ = barycentric_subdivide(X)
        assert_subdivision_matches_chains(X, sd)

    def test_dim_0_and_empty(self):
        X = SimplicialComplex.from_maximal([(4,), (9,), (11,)])
        sd, beta = barycentric_subdivide(X, PLFunction(X, {4: 1, 9: Fraction(-2, 3), 11: 0}))
        assert_subdivision_matches_chains(X, sd)
        assert beta.values == {0: 1, 1: Fraction(-2, 3), 2: 0}
        empty = SimplicialComplex.from_maximal([])
        sd, beta = barycentric_subdivide(empty, PLFunction(empty, {}))
        assert len(sd) == 0 and sd == empty and beta.values == {}


def assert_values_are_barycenters(alpha: PLFunction, beta: PLFunction):
    X = alpha.complex
    expected = {i: alpha.barycenter_value(s) for i, s in enumerate(X.cells())}
    assert list(beta.values.items()) == list(expected.items())
    for value in beta.values.values():
        assert type(value.numerator) is int and type(value.denominator) is int


class TestSubdividedValues:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_barycenter_value(self, seed):
        rng = np.random.default_rng(3300 + seed)
        X = SimplicialComplex.from_maximal(random_maximal(rng, max_dim=4, spread=2))
        alpha = fixtures.random_rational_values(rng, X)
        for _ in range(2):
            sd, beta = barycentric_subdivide(X, alpha)
            assert_values_are_barycenters(alpha, beta)
            assert beta.complex is sd
            X, alpha = sd, beta

    @pytest.mark.parametrize(
        "values",
        [
            # integers below 2^63 whose four-term sums wrap in int64
            [2**62 + 1, 2**62 + 3, 2**62, 2**61, -5],
            # over the common denominator 15 the numerators pass 2^63
            [Fraction(2**62 + 1, 3), Fraction(-(2**61), 5), 2**63 - 7, Fraction(2**62, 15), Fraction(-1, 3)],
        ],
    )
    def test_numerators_past_int64_sum_as_python_ints(self, values):
        X = SimplicialComplex.from_maximal([(0, 1, 2, 3), (3, 4)])
        alpha = PLFunction(X, dict(enumerate(values)))
        sd, beta = barycentric_subdivide(X, alpha)
        assert_values_are_barycenters(alpha, beta)
        _, gamma = barycentric_subdivide(sd, beta)
        assert_values_are_barycenters(beta, gamma)

    def test_foreign_alpha_is_rejected(self):
        X = full_simplex_complex(2)
        with pytest.raises(UnknownVertex):
            barycentric_subdivide(X, PLFunction(full_simplex_complex(1), {0: 0, 1: 1}))


class TestMaximalSimplices:
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_fixture_files(self, name, fixture_dir):
        doc = parse_complex((fixture_dir / name).read_text())
        assert serialize_complex(doc) == serialize_complex_by_closure(doc)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_complexes_and_subdivisions(self, seed):
        rng = np.random.default_rng(3400 + seed)
        # sparse vertex ids: names are indexed by id, so ids outside the
        # complex get names too
        X = SimplicialComplex.from_maximal(random_maximal(rng, max_dim=5, spread=2))
        for _ in range(2):
            names = [f"v{i}" for i in range(max(X.vertices) + 1)]
            doc = ComplexDocument(X, names, None, None)
            assert serialize_complex(doc) == serialize_complex_by_closure(doc)
            X, _ = barycentric_subdivide(X)

    @pytest.mark.parametrize("seed", range(10))
    def test_with_coordinates_and_values(self, seed):
        rng = np.random.default_rng(3450 + seed)
        X = fixtures.random_complex(rng, max_vertices=9, max_dim=4)
        alpha = fixtures.random_rational_values(rng, X)
        points = rng.standard_normal((len(X.vertices), 2))
        doc = ComplexDocument(X, [f"v{v}" for v in X.vertices], points, alpha)
        assert serialize_complex(doc) == serialize_complex_by_closure(doc)

    def test_integer_coordinates_print_as_floats(self):
        X = full_simplex_complex(2)
        points = np.array([[0, 0], [1, 0], [0, 1]])
        doc = ComplexDocument(X, ["a", "b", "c"], points, None)
        text = serialize_complex(doc)
        assert text == serialize_complex_by_closure(doc)
        assert "b 1.0 0.0\n" in text


def last_vertex_map(X: SimplicialComplex) -> SimplicialMap:
    """sd^2 X -> sd X, each vertex of sd^2 X (a simplex of sd X) sent to
    its last vertex."""
    sd, _ = barycentric_subdivide(X)
    sd2, _ = barycentric_subdivide(sd)
    return SimplicialMap(sd2, sd, {i: s[-1] for i, s in enumerate(subdivision_vertex_simplices(sd))})


class TestFiberEuler:
    def maps(self, rng):
        f, _ = fixtures.octahedron_to_path()
        yield f
        yield last_vertex_map(full_simplex_complex(2))
        yield last_vertex_map(fixtures.random_complex(rng, max_vertices=6, max_dim=3))
        for X in fixtures.small_complex_menagerie():
            yield SimplicialMap(X, fixtures.point(), dict.fromkeys(X.vertices, 0))

    def test_equals_the_pushforward_of_ones(self, rng):
        # chi_c of the fiber over an open target cell is the sum of the
        # image signs of the source cells sent onto it
        for f in self.maps(rng):
            pushed = pushforward(f, ConstructibleFunction.ones(f.source))
            for i, t in enumerate(f.target.cells()):
                assert pushed(t) == f.image_signs[f.image_indices == i].sum()


def test_exact_pipeline_builds_no_tuples_per_face(monkeypatch):
    """parse -> sd^2 -> the three integrals -> weights -> last-vertex map
    -> pushforward runs neither the per-simplex face generator nor the
    chain oracle, so the tuple path cannot creep back."""
    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    monkeypatch.setattr(complexes, "faces", counted(complexes.faces))
    monkeypatch.setattr(complex_oracles, "chains", counted(complex_oracles.chains))
    rng = np.random.default_rng(3500)
    X = fixtures.random_complex(rng, max_vertices=8, max_dim=3)
    doc = ComplexDocument(X, [f"v{v}" for v in X.vertices], None, fixtures.random_rational_values(rng, X))
    doc = parse_complex(serialize_complex(doc))
    sd1, alpha1 = barycentric_subdivide(doc.complex, doc.alpha)
    sd2, alpha2 = barycentric_subdivide(sd1, alpha1)
    for integral in (euler.floor_integral, euler.ceil_integral, euler.tentative_integral):
        assert integral(doc.alpha) == integral(alpha2)
    weights = euler.weights(sd2)
    collapse = SimplicialMap(
        sd2, sd1, {i: s[-1] for i, s in enumerate(subdivision_vertex_simplices(sd1))}
    )
    pushed = pushforward(collapse, ConstructibleFunction.ones(sd2))
    assert euler.euler_integral(pushed) == X.euler_characteristic()
    assert sum(alpha2.values[v] * w for v, w in weights.items()) == euler.tentative_integral(alpha2)
    assert calls == []
    # the counters do count
    complex_oracles.chains(X)
    complexes.full_simplex_complex(1).closure((0, 1))
    assert calls == ["chains", "faces"]
