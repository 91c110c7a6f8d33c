from fractions import Fraction

import numpy as np
import pytest

from curvcalc.complexes import full_simplex_complex
from curvcalc.errors import DimensionMismatch, ParseError
from curvcalc.io import (
    ComplexDocument,
    parse_complex,
    parse_constructible,
    parse_map,
    serialize_complex,
    serialize_constructible,
)
from curvcalc.euler import ConstructibleFunction, euler_integral

TRIANGLE_DOC = """curvcalc-complex v1
vertices
a 0.0 0.0 alpha=0
b 1.0 0.0 alpha=1/2
c 0.0 1.0 alpha=1
simplices
a b c
"""


def test_maximal_simplex_closes_to_full_triangle():
    doc = parse_complex(TRIANGLE_DOC)
    assert doc.complex == full_simplex_complex(2)
    assert doc.names == ["a", "b", "c"]
    assert doc.alpha.values[1] == Fraction(1, 2)
    assert doc.points[2].tolist() == [0.0, 1.0]


def test_round_trip_is_stable():
    doc = parse_complex(TRIANGLE_DOC)
    text = serialize_complex(doc)
    again = parse_complex(text)
    assert again.complex == doc.complex
    assert again.names == doc.names
    assert np.array_equal(again.points, doc.points)
    assert again.alpha.values == doc.alpha.values
    assert serialize_complex(again) == text


def test_vertices_without_coordinates():
    doc = parse_complex("curvcalc-complex v1\nvertices\nx\ny\nsimplices\nx y\n")
    assert doc.points is None
    assert doc.alpha is None
    assert len(doc.complex) == 3


def test_comments_and_blank_lines_are_ignored():
    text = "# a comment\n\n" + TRIANGLE_DOC.replace("a b c", "a b c  # the face")
    doc = parse_complex(text)
    assert doc.complex == full_simplex_complex(2)


def test_decimal_alpha_needs_prefix():
    text = "curvcalc-complex v1\nvertices\na 1.0 alpha=0.25\nb 0.0 alpha=1\nsimplices\na b\n"
    doc = parse_complex(text)
    assert doc.alpha.values[0] == Fraction(1, 4)
    assert doc.points[0].tolist() == [1.0]


def coordinate_tuples(text):
    """{vertex id: tuple of floats}, one vertex line at a time: the dict
    the parser stored before it kept one matrix, or None."""
    coords, section = {}, None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line in ("vertices", "simplices"):
            section = line
        elif line and section == "vertices":
            tokens = line.split()[1:]
            if tokens and (tokens[-1].startswith("alpha=") or "/" in tokens[-1]):
                tokens.pop()
            if tokens:
                coords[len(coords)] = tuple(map(float, tokens))
    return coords or None


def fixture_texts(fixture_dir):
    from curvcalc import fixtures
    from curvcalc.complexes import barycentric_subdivide

    texts = [path.read_text() for path in sorted(fixture_dir.glob("*.txt"))]
    for name in ("segment", "square_boundary", "filled_triangle", "octahedron", "cone_fan", "book"):
        X, emb = getattr(fixtures, name)()
        names = [f"v{v}" for v in X.vertices]
        texts.append(serialize_complex(ComplexDocument(X, names, emb.matrix(), None)))
        sd, _ = barycentric_subdivide(X)  # no coordinates
        texts.append(serialize_complex(ComplexDocument(sd, [f"b{v}" for v in sd.vertices], None, None)))
    # two vertices sections, one with alpha values in both forms
    texts.append(
        "curvcalc-complex v1\nvertices\na 0 -0.0 1/2\nb 1e-320 1_0 alpha=3\nsimplices\na b\n"
        "vertices\nc inf 2.5 alpha=-1/3\nsimplices\nb c\nvertices\nd 7 8 0/1\n"
    )
    return texts


def test_points_are_one_read_only_matrix_of_the_coordinates(fixture_dir):
    for text in fixture_texts(fixture_dir):
        doc = parse_complex(text)
        expected = coordinate_tuples(text)
        if expected is None:
            assert doc.points is None
            continue
        assert doc.points.dtype == np.float64 and not doc.points.flags.writeable
        assert doc.points.shape == (len(doc.names), len(expected[0]))
        assert repr(list(map(tuple, doc.points.tolist()))) == repr([expected[v] for v in range(len(doc.names))])
        with pytest.raises(ValueError, match="read-only"):
            doc.points[0, 0] = 1.0


def test_coordinate_arities_are_compared_across_sections():
    text = "curvcalc-complex v1\nvertices\na 0 0\nsimplices\na\nvertices\nb 1\n"
    with pytest.raises(DimensionMismatch, match=r"arities differ across vertices: \[1, 2\]"):
        parse_complex(text)
    text = "curvcalc-complex v1\nvertices\na 0 0\nvertices\nb\nc 1 2\n"
    with pytest.raises(DimensionMismatch, match="some vertices have coordinates and some do not"):
        parse_complex(text)


def test_wrong_coordinate_arity():
    text = "curvcalc-complex v1\nvertices\na 0 0\nb 1\nsimplices\na b\n"
    with pytest.raises(DimensionMismatch):
        parse_complex(text)


def test_some_vertices_missing_coordinates():
    text = "curvcalc-complex v1\nvertices\na 0 0\nb\nsimplices\na b\n"
    with pytest.raises(DimensionMismatch):
        parse_complex(text)


@pytest.mark.parametrize(
    "text",
    [
        "not-a-header\nvertices\na\n",
        "curvcalc-complex v1\nvertices\na\na\n",
        "curvcalc-complex v1\nvertices\na\nsimplices\na b\n",
        "curvcalc-complex v1\nvertices\na alpha=1\nb\nsimplices\na b\n",
        "curvcalc-complex v1\nstray\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_complex(text)


def test_octahedron_fixture_file(fixture_dir):
    doc = parse_complex((fixture_dir / "octahedron.txt").read_text())
    assert len(doc.complex) == 26
    assert doc.complex.euler_characteristic() == 2


@pytest.mark.parametrize("seed", range(4))
def test_round_trip_on_random_complexes(seed):
    import numpy as np

    from curvcalc import fixtures

    rng = np.random.default_rng(900 + seed)
    X = fixtures.random_complex(rng)
    names = [f"v{i}" for i in X.vertices]
    points = rng.standard_normal((len(X.vertices), 3))
    alpha = fixtures.random_rational_values(rng, X)
    doc = ComplexDocument(X, names, points, alpha)
    again = parse_complex(serialize_complex(doc))
    assert again.complex == X
    assert again.names == names
    assert np.array_equal(again.points, points)
    assert again.alpha.values == alpha.values


def test_map_parse_and_validation(fixture_dir):
    source = parse_complex((fixture_dir / "octahedron.txt").read_text())
    target = parse_complex((fixture_dir / "path3.txt").read_text())
    f = parse_map((fixture_dir / "octa_to_path.map").read_text(), source, target)
    top = source.name_to_id["top"]
    assert f.vertex_map[top] == target.name_to_id["hi"]
    with pytest.raises(ParseError):
        parse_map("map v1\nnowhere -> hi\n", source, target)
    with pytest.raises(ParseError):
        parse_map("wrong header\n", source, target)


PREAMBLE = "# a comment above the header\n\n   # and one more\n"  # 3 lines


@pytest.mark.parametrize(
    "body, line",
    [
        ("wrong header\n", 4),
        ("curvcalc-complex v1\nstray\nvertices\na\n", 5),
        ("curvcalc-complex v1\nvertices\na\na\n", 7),
        ("curvcalc-complex v1\nvertices\na 0 0\nb x 0\n", 7),
        ("curvcalc-complex v1\nvertices\na\n# note\n\nsimplices\na b\n", 10),
    ],
)
def test_complex_errors_count_lines_from_the_top_of_the_file(body, line):
    with pytest.raises(ParseError) as caught:
        parse_complex(PREAMBLE + body)
    assert caught.value.line == line
    with pytest.raises(ParseError) as caught:
        parse_complex(body)
    assert caught.value.line == line - 3


@pytest.mark.parametrize(
    "body, line",
    [
        ("wrong header\n", 4),
        ("map v1\ntop -> hi\n\nnowhere -> hi\n", 7),
        ("map v1\ntop hi\n", 5),
    ],
)
def test_map_errors_count_lines_from_the_top_of_the_file(fixture_dir, body, line):
    source = parse_complex((fixture_dir / "octahedron.txt").read_text())
    target = parse_complex((fixture_dir / "path3.txt").read_text())
    with pytest.raises(ParseError) as caught:
        parse_map(PREAMBLE + body, source, target)
    assert caught.value.line == line
    with pytest.raises(ParseError) as caught:
        parse_map(body, source, target)
    assert caught.value.line == line - 3


def test_constructible_round_trip():
    doc = parse_complex(TRIANGLE_DOC)
    s = ConstructibleFunction(
        doc.complex, {(0, 1, 2): Fraction(1, 3), (0,): Fraction(-2)}
    )
    text = serialize_constructible(s, doc)
    again = parse_constructible(text, doc)
    assert again == s
    assert euler_integral(again) == euler_integral(s)


def test_constructible_parse_errors():
    doc = parse_complex(TRIANGLE_DOC)
    with pytest.raises(ParseError):
        parse_constructible("{", doc)
    with pytest.raises(ParseError):
        parse_constructible('[{"simplex": ["zz"], "value": "1"}]', doc)
