"""Property tests: the section-at-a-time complex file parser against the
line-by-line oracle (tests/complex_oracles.py) on generated documents
and on mutations of them. Both give an equal ComplexDocument, or both
raise the same exception type with the same message and line."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcalc.io import COMPLEX_HEADER, parse_complex  # noqa: E402

from complex_oracles import parse_complex_by_lines  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)

NAME = st.text("abcxyz019_.-", min_size=1, max_size=3).filter(
    lambda name: name not in ("vertices", "simplices")
)
FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["1e-3", "-0.5", "+2", "1_000", ".5", "3.", "inf", "-1E2"]),
)
RATIONAL = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["0.25", "-3", "1e2", "7"]).map(lambda x: "alpha=" + x),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda pq: f"alpha={pq[0]}/{pq[1]}"),
)
SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t "])
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])
COMMENT = st.sampled_from(["", "", "", "  # note", "#x", "\t# a b c"])
JUNK = st.sampled_from(
    ["x/y", "a=b", "1/0", "alpha=zz", "zz", "nan", "vertices", "simplices", "#", "", "q", "1/2"]
)


@st.composite
def documents(draw):
    """Complex file text: vertex sections interleaved with simplex
    sections whose lines name only vertices declared above them, with
    comments, blank lines, mixed separators and line endings."""
    names = draw(st.lists(NAME, min_size=1, max_size=8, unique=True))
    width = draw(st.integers(0, 3))
    with_alpha = draw(st.booleans())
    vertex_lines = []
    for name in names:
        tokens = [name] + [draw(FLOAT) for _ in range(width)]
        if with_alpha:
            tokens.append(draw(RATIONAL))
        vertex_lines.append(tokens)
    # cut the vertex lines into sections; each simplex section follows one
    cuts = sorted(draw(st.sets(st.integers(1, len(names)), max_size=3)) | {len(names)})
    blocks = [("comment", [])] if draw(st.booleans()) else []
    blocks.append(("header", []))
    start = 0
    for cut in cuts:
        blocks.append(("vertices", vertex_lines[start:cut]))
        simplex_lines = [
            draw(st.lists(st.sampled_from(names[:cut]), min_size=1, max_size=4, unique=True))
            for _ in range(draw(st.integers(0, 4)))
        ]
        blocks.append(("simplices", simplex_lines))
        start = cut
    out = []
    for kind, lines in blocks:
        if kind == "comment":
            out.append("# leading comment")
            continue
        if kind == "header":
            out.append(COMPLEX_HEADER + draw(COMMENT))
            continue
        for _ in range(draw(st.integers(1, 2))):  # a section header may repeat
            out.append(draw(st.sampled_from(["", " ", "\t"])) + kind + draw(COMMENT))
        for tokens in lines:
            if draw(st.integers(0, 4)) == 0:
                out.append(draw(st.sampled_from(["", "   ", "# only a comment"])))
            text = tokens[0]
            for token in tokens[1:]:
                text += draw(SEPARATOR) + token
            out.append(draw(st.sampled_from(["", " ", "\t"])) + text + draw(COMMENT))
    newline = draw(NEWLINE)
    return newline.join(out) + draw(st.sampled_from([newline, "", newline * 2]))


@st.composite
def mutated(draw):
    """A generated document with one line deleted, duplicated, moved or
    replaced, or with one of its tokens replaced, repeated or dropped, or
    junk appended; the header is left alone in all but short documents."""
    lines = draw(documents()).splitlines()
    i = draw(st.integers(3 if len(lines) > 4 else 0, len(lines) - 1))
    actions = ["delete", "duplicate", "move", "replace", "token", "append", "repeat", "drop"]
    action = draw(st.sampled_from(actions))
    if action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    elif action == "move":
        lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
    elif action == "replace":
        lines[i] = " ".join(draw(st.lists(JUNK, max_size=3)))
    elif action == "append":
        lines[i] += " " + draw(JUNK)
    else:
        tokens = lines[i].split() or [""]
        j = draw(st.integers(0, len(tokens) - 1))
        if action == "token":
            tokens[j] = draw(JUNK)
        elif action == "repeat":
            tokens.append(tokens[j])
        else:
            del tokens[j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """The parsed document as comparable parts, or the exception raised."""
    try:
        doc = parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc), getattr(exc, "line", None)
    points = None if doc.points is None else doc.points.tolist()
    return doc.complex, doc.names, repr(points), doc.alpha


@SETTINGS
@given(documents())
def test_bulk_parser_matches_the_line_oracle(text):
    expected = outcome(parse_complex_by_lines, text)
    assert not isinstance(expected[0], type)  # a generated document is valid
    assert outcome(parse_complex, text) == expected


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_bulk_parser_matches_the_line_oracle_on_mutations(text):
    assert outcome(parse_complex, text) == outcome(parse_complex_by_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        # a name declared on a later line is unknown above it
        "curvcalc-complex v1\nvertices\na\nsimplices\na b\nvertices\nb\n",
        # the first error in line order wins across sections and kinds
        "curvcalc-complex v1\nvertices\na 1\nb 2\nsimplices\na a\nvertices\nc/d\n",
        "curvcalc-complex v1\nvertices\na 1\nb x\nc 1/0\nsimplices\nzz\n",
        "curvcalc-complex v1\nvertices\na 1 alpha=q\nb x\n",
        "curvcalc-complex v1\nvertices\na 1\na y\n",
        # within one line: bad name, duplicate, bad rational, bad coordinate
        "curvcalc-complex v1\nvertices\na\na=b x 1/0\n",
        "curvcalc-complex v1\nvertices\na\na x 1/0\n",
        "curvcalc-complex v1\nvertices\na x 1/0\n",
        "curvcalc-complex v1\nvertices\na b c\nsimplices\na q a\n",
        # lines are numbered from the header
        "\n# c\ncurvcalc-complex v1\nvertices\na\nsimplices\nb\n",
        "curvcalc-complex v1\n\n\nstray\nvertices\na\n",
        "curvcalc-complex v1\nsimplices\nvertices\n",
        "curvcalc-complex v1\nvertices\na 1 2 alpha=1\nb 1 alpha=2\nc alpha=3\n",
        "curvcalc-complex v1\nvertices\na alpha=1\nb\nsimplices\na b\n",
        "curvcalc-complex v1\r\nvertices\r\na\t0\r\nb  1\r\nsimplices\r\na\tb # edge\r\n",
        "curvcalc-complex v1\x0bvertices\x85a 1 b 2\x1csimplices\x1da b",
    ],
)
def test_bulk_parser_matches_the_line_oracle_on_edge_cases(text):
    assert outcome(parse_complex, text) == outcome(parse_complex_by_lines, text)
