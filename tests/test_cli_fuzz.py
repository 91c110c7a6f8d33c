"""Mutated input files for every subcommand: each run exits 0 and prints
no non-finite number, or exits 2 with one JSON diagnostic on the stderr
argument; it never raises."""

import io
import json
import math
import pathlib
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcalc.cli import run  # noqa: E402

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"

PROFILE = "t,f\n0,1\n0.25,1.2\n0.5,1.3\n0.75,1.2\n1,1\n"

# Input files by slot; the argv templates below name their slots.
BASE = {
    "complex": (FIXTURE_DIR / "octahedron.txt").read_bytes(),
    "triangle": (FIXTURE_DIR / "triangle.txt").read_bytes(),
    "edge": (FIXTURE_DIR / "edge.txt").read_bytes(),
    "path": (FIXTURE_DIR / "path3.txt").read_bytes(),
    "point": (FIXTURE_DIR / "point.txt").read_bytes(),
    "map": (FIXTURE_DIR / "octa_to_path.map").read_bytes(),
    "map2": (FIXTURE_DIR / "path_to_point.map").read_bytes(),
    "function": (FIXTURE_DIR / "open_edge.fn.json").read_bytes(),
    "profile": PROFILE.encode(),
}

ENTRIES = [
    ("validate", "{complex}", "--vertex", "top"),
    ("integrate", "{triangle}", "--kind", "floor"),
    ("integrate", "{triangle}", "--kind", "ceil"),
    ("integrate", "{triangle}", "--kind", "tentative"),
    ("integrate", "{edge}", "--kind", "floor-oracle"),
    ("integrate", "{complex}", "--kind", "weights"),
    ("integrate", "{edge}", "--kind", "simple", "--function", "{function}"),
    ("subdivide", "{triangle}", "--times", "1"),
    ("curvature", "{complex}", "--method", "exact"),
    ("curvature", "{complex}", "--method", "mc", "--samples", "64"),
    ("curvature", "{triangle}", "--alpha"),
    ("gauss-bonnet-check", "{complex}"),
    ("morse-curvature", "{complex}", "--samples", "64"),
    ("morse-index", "{complex}", "--direction", "0.3,0.5,0.8"),
    ("pushforward", "--source", "{complex}", "--target", "{path}", "--map", "{map}"),
    ("pushforward", "--source", "{complex}", "--target", "{path}", "--map", "{map}",
     "--compose", "{map2}", "--compose-target", "{point}"),
    ("fubini-check", "--left", "{triangle}", "--right", "{edge}", "--kind", "chi"),
    ("fubini-check", "--left", "{triangle}", "--right", "{edge}", "--kind", "curvature",
     "--samples", "64"),
    ("adiabatic", "--profile", "file:{profile}", "--eps", "0,0.5", "--grid", "64"),
]

NUMBER = re.compile(rb"(?<![\w.])-?\d+(\.\d+)?(?![\w./])")


def _flip(data, draw):
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]


def _drop_line(data, draw):
    lines = data.splitlines(keepends=True)
    if lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return b"".join(lines)


def _duplicate_line(data, draw):
    lines = data.splitlines(keepends=True)
    if lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    return b"".join(lines)


def _collinear(data, draw):
    """Put every vertex on one line through the origin: the i-th number
    on line k becomes k * scale * i."""
    scale = draw(st.sampled_from([1, 2, -3]))
    lines = []
    for k, line in enumerate(data.splitlines(keepends=True)):
        i = iter(range(1, len(line) + 1))
        lines.append(NUMBER.sub(lambda _: str(k * scale * next(i)).encode(), line))
    return b"".join(lines)


def _replace_number(data, draw, tokens):
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    m = numbers[draw(st.integers(0, len(numbers) - 1))]
    return data[: m.start()] + draw(st.sampled_from(tokens)) + data[m.end():]


def _nan(data, draw):
    return _replace_number(data, draw, [b"nan", b"inf", b"-inf"])


# extreme finite numbers, and one that reads as an infinite float
EXTREME = [b"1e308", b"-1e308", b"1e-300", b"5e-324", b"1e400"]


def _extreme(data, draw):
    return _replace_number(data, draw, EXTREME)


JSON_VALUE = re.compile(rb'(?<=:)\s*("[^"]*"|-?\d[\d.eE+-]*)')


def _json_literal(data, draw):
    """Put a JSON value no rational reads in place of one: a zero
    denominator, or a number json reads as an infinite float."""
    values = list(JSON_VALUE.finditer(data))
    if not values:
        return data
    m = values[draw(st.integers(0, len(values) - 1))]
    literal = draw(st.sampled_from([b' "1/0"', b" Infinity", b" -Infinity", b" 1e400"]))
    return data[: m.start()] + literal + data[m.end():]


MUTATIONS = [_flip, _drop_line, _duplicate_line, _collinear, _nan, _extreme, _json_literal]


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


_STRICT_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def assert_prints_finite_numbers(text: str) -> None:
    """Every number in a run's stdout is finite. CSV rows and complex text
    come first, if any: in each of their lines, every CSV or whitespace
    field after the first that reads as a float is finite. The first
    field is a vertex name, which may spell nan or inf, or an eps that the
    argv gave. The rest, if any, is JSON documents, parsed strictly."""
    lines = text.splitlines(keepends=True)
    n = 0
    if lines and re.match(r"(vertex,|eps,|curvcalc-complex )", lines[0]):
        # the adiabatic CSV ends where its JSON summary starts
        tail = lines[0].startswith("eps,")
        n = next((i for i, line in enumerate(lines) if tail and line.startswith("{")), len(lines))
    for line in lines[:n]:
        for field in re.split(r"[,\s]+", line.strip())[1:]:
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), line
    documents = "".join(lines[n:]).strip()
    at = 0
    while at < len(documents):
        _, at = _STRICT_JSON.raw_decode(documents, at)
        at = len(documents) - len(documents[at:].lstrip())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200)
@given(data=st.data())
def test_mutated_inputs_exit_0_or_2_with_json(fuzz_dir, data):
    entry = data.draw(st.sampled_from(ENTRIES))
    slots = sorted({s for a in entry for s in re.findall(r"\{(\w+)\}", a)})
    target = data.draw(st.sampled_from(slots))
    contents = dict(BASE)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        contents[target] = mutate(contents[target], data.draw)
    paths = {}
    for slot in slots:
        path = fuzz_dir / slot
        path.write_bytes(contents[slot])
        paths[slot] = str(path)
    argv = [a.format(**paths) for a in entry]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), err.getvalue()
    else:
        assert_prints_finite_numbers(out.getvalue())
