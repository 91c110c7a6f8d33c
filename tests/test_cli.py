import argparse
import csv
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import curvcalc
from curvcalc import cli, fixtures
from curvcalc.cli import build_parser, run
from curvcalc.complexes import SimplicialComplex, product
from curvcalc.curvature import Embedding, ValueWithError, curvature_measure
from curvcalc.errors import UsageError
from curvcalc.io import ComplexDocument, parse_complex, serialize_complex
from curvcalc.morse import morse_curvature_measure

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# One entry per subcommand and mode. Together they must execute every
# public function of the package except LIBRARY_ONLY.
CORPUS = [
    ("validate", "octahedron.txt", "--vertex", "top"),
    ("integrate", "edge.txt", "--kind", "floor"),
    ("integrate", "edge.txt", "--kind", "ceil"),
    ("integrate", "edge.txt", "--kind", "tentative"),
    ("integrate", "edge.txt", "--kind", "simple", "--function", "open_edge.fn.json"),
    ("integrate", "edge.txt", "--kind", "floor-oracle"),
    ("integrate", "edge.txt", "--kind", "weights"),
    ("subdivide", "edge.txt", "--times", "2"),
    ("subdivide", "--census", "2"),
    ("curvature", "octahedron.txt", "--method", "exact"),
    ("curvature", "octahedron.txt", "--method", "mc", "--samples", "500", "--format", "json"),
    ("curvature", "triangle.txt", "--alpha", "--method", "exact"),
    ("curvature", "octahedron.txt", "--equilateral", "--method", "exact"),
    ("gauss-bonnet-check", "octahedron.txt", "--method", "exact"),
    ("gauss-bonnet-check", "octahedron.txt", "--method", "mc", "--samples", "500"),
    ("morse-curvature", "octahedron.txt", "--samples", "500"),
    ("morse-curvature", "octahedron.txt", "--samples", "500", "--format", "json"),
    ("morse-index", "octahedron.txt", "--direction", "0.3,0.5,0.8"),
    ("morse-index", "octahedron.txt", "--direction", "0.3,0.5,0.8", "--format", "json"),
    ("pushforward", "--source", "octahedron.txt", "--target", "path3.txt",
     "--map", "octa_to_path.map"),
    ("pushforward", "--source", "octahedron.txt", "--target", "path3.txt",
     "--map", "octa_to_path.map", "--compose", "path_to_point.map",
     "--compose-target", "point.txt"),
    ("fubini-check", "--left", "triangle.txt", "--right", "edge.txt", "--kind", "chi"),
    ("fubini-check", "--left", "edge.txt", "--right", "edge.txt", "--kind", "curvature",
     "--samples", "500"),
    ("fubini-check", "--left", "edge.txt", "--right", "edge.txt", "--kind", "curvature",
     "--samples", "500", "--format", "json"),
    ("adiabatic", "--profile", "sphere", "--eps", "0,0.5", "--grid", "64"),
    ("adiabatic", "--profile", "cylinder", "--eps", "0", "--grid", "64", "--nonsplit"),
    ("adiabatic", "--profile", "sphere", "--eps", "0", "--grid", "64", "--format", "json"),
]

# Public functions the CLI deliberately does not call.
LIBRARY_ONLY = {
    # one cone fraction; no CLI output holds a single simplex's angle
    "excess_angle",
    # needs the direction generic only on the link of v, so it answers
    # where morse_indices (what `morse-index` prints) raises NonGenericDirection
    "morse_index",
}


def _corpus_argv(entry):
    return [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in entry]


@pytest.fixture(scope="module")
def corpus_run():
    """Run the corpus under a profiler; return the per-entry results and
    the code objects of every Python function that was called."""
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    results = []
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        for entry in CORPUS:
            out, err = io.StringIO(), io.StringIO()
            code = run(_corpus_argv(entry), stdout=out, stderr=err)
            results.append((entry, code, err.getvalue()))
    finally:
        sys.setprofile(previous)
    return results, called


def _public_functions():
    return {
        name: obj
        for name in curvcalc.__all__
        if inspect.isfunction(obj := getattr(curvcalc, name))
    }


def test_corpus_entries_exit_0(corpus_run):
    results, _ = corpus_run
    failed = [(entry, code, err) for entry, code, err in results if code != 0]
    assert not failed


def test_every_public_function_runs_from_the_cli(corpus_run):
    _, called = corpus_run
    missing = {
        name
        for name, fn in _public_functions().items()
        if fn.__code__ not in called and name not in LIBRARY_ONLY
    }
    assert not missing, f"no CLI corpus entry runs {sorted(missing)}"


def test_library_only_functions_stay_unreached(corpus_run):
    _, called = corpus_run
    public = _public_functions()
    assert LIBRARY_ONLY <= public.keys()
    reached = {name for name in LIBRARY_ONLY if public[name].__code__ in called}
    assert not reached, f"reached from the CLI, drop from LIBRARY_ONLY: {sorted(reached)}"


def test_corpus_covers_every_subcommand_choice():
    """Every subcommand, and every value of every option with choices,
    per subcommand."""
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    commands = subparsers.choices
    needed = set()
    for name, p in commands.items():
        needed.add((name, None, None))
        for action in p._actions:
            if action.choices is not None:
                needed.update((name, action.dest, c) for c in action.choices)
    seen = set()
    for entry in CORPUS:
        args = parser.parse_args(_corpus_argv(entry))
        seen.add((args.command, None, None))
        for action in commands[args.command]._actions:
            if action.choices is not None:
                seen.add((args.command, action.dest, getattr(args, action.dest)))
    missing = sorted(map(str, needed - seen))
    assert not missing, f"no corpus entry covers (subcommand, option, value) {missing}"


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"], ["curvature", "-h"]])
def test_help_goes_to_the_stdout_argument(argv, capsys):
    code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: curvcalc") and "--help" in out
    assert capsys.readouterr() == ("", "")


def test_floor_integral_of_identity_fixture(fixture_dir):
    code, out, _ = invoke("integrate", str(fixture_dir / "edge.txt"), "--kind", "floor")
    assert code == 0
    assert out == '{"value": "1"}\n'
    code, out, _ = invoke("integrate", str(fixture_dir / "edge.txt"), "--kind", "ceil")
    assert out == '{"value": "0"}\n'
    code, out, _ = invoke("integrate", str(fixture_dir / "edge.txt"), "--kind", "tentative")
    assert out == '{"value": "1/2"}\n'


def test_floor_oracle_matches_floor(fixture_dir, tmp_path):
    edge = str(fixture_dir / "edge.txt")
    assert invoke("integrate", edge, "--kind", "floor-oracle") == invoke(
        "integrate", edge, "--kind", "floor"
    )
    path = tmp_path / "path.txt"
    path.write_text(
        "curvcalc-complex v1\nvertices\na 0 alpha=1/3\nb 1 alpha=-5/4\n"
        "c 2 alpha=7/6\nd 3 alpha=1/2\nsimplices\na b\nb c\nc d\n"
    )
    # exact once n is a common multiple of the denominators 3, 4, 6, 2;
    # the default n is their lcm, 12
    oracle = invoke("integrate", str(path), "--kind", "floor-oracle", "--oracle-n", "24")
    assert oracle == invoke("integrate", str(path), "--kind", "floor")
    assert oracle[:2] == (0, '{"value": "11/4"}\n')
    assert invoke("integrate", str(path), "--kind", "floor-oracle") == oracle
    assert invoke("integrate", str(path), "--kind", "floor-oracle", "--oracle-n", "16")[1] == (
        '{"value": "43/16"}\n'
    )


def test_floor_oracle_rejects_surfaces(fixture_dir):
    code, out, err = invoke(
        "integrate", str(fixture_dir / "triangle.txt"), "--kind", "floor-oracle"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "CarrierTooHighDimensional"


def test_simple_integral_and_weights(fixture_dir):
    code, out, _ = invoke(
        "integrate",
        str(fixture_dir / "edge.txt"),
        "--kind",
        "simple",
        "--function",
        str(fixture_dir / "open_edge.fn.json"),
    )
    assert code == 0
    assert json.loads(out) == {"value": "-1"}
    code, out, _ = invoke("integrate", str(fixture_dir / "edge.txt"), "--kind", "weights")
    assert json.loads(out) == {"p0": "1/2", "p1": "1/2"}


def test_validate_reports_link_sizes(fixture_dir):
    code, out, _ = invoke(
        "validate", str(fixture_dir / "octahedron.txt"), "--vertex", "top"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["simplices"] == 26
    assert report["chi"] == 2 and report["link"] == 8


def test_validate_counts_the_star_from_the_simplex_rows(fixture_dir, tmp_path, monkeypatch):
    # every vertex of every fixture file and of random complexes, with
    # the tuple star unreachable while validate runs
    paths = sorted(fixture_dir.glob("*.txt"))
    rng = np.random.default_rng(4100)
    for i in range(12):
        X = fixtures.random_complex(rng, max_vertices=9, max_dim=4)
        paths.append(tmp_path / f"random{i}.txt")
        paths[-1].write_text(serialize_complex(ComplexDocument(X, [f"v{v}" for v in X.vertices], None, None)))
    stars = {}
    for path in paths:
        doc = parse_complex(path.read_text())
        stars[path] = {name: len(doc.complex.star(v)) for v, name in enumerate(doc.names)}

    def unreached(*args):
        raise AssertionError("validate built the star's tuples")

    monkeypatch.setattr(SimplicialComplex, "star", unreached)
    for path, by_name in stars.items():
        for name, star in by_name.items():
            code, out, err = invoke("validate", str(path), "--vertex", name)
            assert code == 0, err
            report = json.loads(out)
            assert (report["star"], report["link"]) == (star, star - 1)


def test_validate_reports_chi_c_and_the_link_from_what_it_has(fixture_dir, monkeypatch):
    # chi_c of every cell is chi, and s -> s - {v} sends the star onto
    # the link plus the empty simplex: neither needs a second computation
    from curvcalc import euler
    from curvcalc.complexes import SimplicialComplex

    def recomputed(*args, **kwargs):
        raise AssertionError("validate recomputed a number it already had")

    monkeypatch.setattr(SimplicialComplex, "link", recomputed)
    monkeypatch.setattr(euler, "euler_integral", recomputed)
    code, out, _ = invoke("validate", str(fixture_dir / "octahedron.txt"), "--vertex", "top")
    assert code == 0
    report = json.loads(out)
    assert report["chi_c"] == report["chi"] == 2
    assert (report["star"], report["link"]) == (9, 8)


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "edge.txt", "--kind", "floor"),
        ("validate", "octahedron.txt"),
        ("subdivide", "edge.txt"),
        ("gauss-bonnet-check", "octahedron.txt"),
        ("pushforward", "--source", "octahedron.txt", "--target", "path3.txt",
         "--map", "octa_to_path.map"),
    ],
)
def test_format_is_rejected_where_nothing_reads_it(argv, capsys):
    assert invoke(*_corpus_argv(argv))[0] == 0
    code, out, err = invoke(*_corpus_argv(argv), "--format", "csv")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert report["message"].endswith("unrecognized arguments: --format csv")
    assert capsys.readouterr().err == ""


# The subcommands that read --seed, --samples or --grid; every other
# (subcommand, flag) pair is a usage error.
READS = {
    "curvature": {"--seed", "--samples"},
    "gauss-bonnet-check": {"--seed", "--samples"},
    "morse-curvature": {"--seed", "--samples"},
    "fubini-check": {"--seed", "--samples"},
    "adiabatic": {"--grid"},
}
FIRST_ENTRIES = {entry[0]: entry for entry in reversed(CORPUS)}
DROPPED = [
    (entry, flag)
    for command, entry in sorted(FIRST_ENTRIES.items())
    for flag in ("--seed", "--samples", "--grid")
    if flag not in READS.get(command, ())
]


def test_dropped_flags_cover_every_unread_slot():
    assert len(FIRST_ENTRIES) == 10 and len(DROPPED) == 21


@pytest.mark.parametrize("entry, flag", DROPPED)
def test_flags_are_rejected_where_nothing_reads_them(entry, flag, capsys):
    code, out, err = invoke(*_corpus_argv(entry), flag, "7")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert report["message"].endswith(f"unrecognized arguments: {flag} 7")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("curvature", "octahedron.txt", "--samples", "0"), "--samples: must be at least 1, got 0"),
        (("morse-curvature", "octahedron.txt", "--samples", "-3"), "must be at least 1, got -3"),
        (("adiabatic", "--profile", "sphere", "--grid", "4"), "--grid: must be at least 5, got 4"),
        (("adiabatic", "--profile", "sphere", "--grid", "x"), "--grid: invalid int value: 'x'"),
        (("subdivide", "edge.txt", "--times", "-1"), "--times: must be at least 0, got -1"),
        (("subdivide", "--census", "-1"), "--census: must be at least 0, got -1"),
        (("integrate", "edge.txt", "--kind", "floor-oracle", "--oracle-n", "0"),
         "--oracle-n: must be at least 1, got 0"),
    ],
)
def test_parser_checks_samples_and_grid(argv, message):
    code, out, err = invoke(*_corpus_argv(argv))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert report["message"].endswith(message)


def test_integer_flags_accept_their_lowest_values(fixture_dir):
    edge = str(fixture_dir / "edge.txt")
    code, out, _ = invoke("subdivide", edge, "--times", "0")
    assert code == 0 and len(parse_complex(out).complex) == 3  # the edge as it is
    assert invoke("subdivide", "--census", "0") == (0, '{"1": 1}\n', "")  # the point itself
    assert invoke("integrate", edge, "--kind", "floor-oracle", "--oracle-n", "1")[0] == 0


def test_census_stops_below_17():
    # the census of the n-simplex lists 2^(n+1) - 1 signatures
    with pytest.raises(UsageError, match="--census: must be below 17, got 17"):
        build_parser().parse_args(["subdivide", "--census", "17"])
    code, out, err = invoke("subdivide", "--census", "16")
    assert code == 0 and err == ""
    assert len(json.loads(out)) == 2**17 - 1


def test_product_rows_follow_the_product_vertices(tmp_path, fixture_dir):
    # a path of 11 edges: by repr, p10 * p0 would come before p2 * p0
    path = tmp_path / "path11.txt"
    path.write_text(
        "\n".join(
            [
                "curvcalc-complex v1",
                "vertices",
                *(f"p{i} {float(i)}" for i in range(12)),
                "simplices",
                *(f"p{i} p{i + 1}" for i in range(11)),
            ]
        )
        + "\n"
    )
    edge = fixture_dir / "edge.txt"
    code, out, _ = invoke(
        "fubini-check", "--left", str(path), "--right", str(edge), "--kind", "curvature",
        "--samples", "200", "--format", "json",
    )
    assert code == 0
    left, right = parse_complex(path.read_text()), parse_complex(edge.read_text())
    carrier = product(left.complex, right.complex)
    expected = [f"{left.names[u]}*{right.names[v]}" for u, v in carrier.vertices]
    assert [row["vertex"] for row in json.loads(out)] == expected


def test_unknown_subcommand_exits_2():
    code, _, err = invoke("nonsense")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("integrate", "edge.txt", "--kind", "nosuch"), "argument --kind: invalid choice: 'nosuch'"),
        (("validate", "edge.txt", "--nosuch"), "unrecognized arguments: --nosuch"),
        (("integrate", "edge.txt"), "the following arguments are required: --kind"),
    ],
)
def test_usage_errors_are_json_diagnostics(argv, message, capsys):
    code, out, err = invoke(*_corpus_argv(argv))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert message in report["message"]
    assert capsys.readouterr().err == ""


def test_missing_file_exits_2(fixture_dir):
    code, _, err = invoke("validate", str(fixture_dir / "no-such-file.txt"))
    assert code == 2
    assert "error" in json.loads(err)


def test_bad_document_reports_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = invoke("validate", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


# JSON values that parse but are no rational: a zero denominator, and
# floats json reads as infinite
MALFORMED_VALUES = ['"1/0"', "Infinity", "-Infinity", "1e400"]


@pytest.mark.parametrize("value", MALFORMED_VALUES)
def test_malformed_function_values_exit_2_from_integrate(value, fixture_dir, tmp_path):
    function = tmp_path / "f.json"
    function.write_text(f'[{{"simplex": ["p0", "p1"], "value": {value}}}]')
    code, out, err = invoke(
        "integrate", str(fixture_dir / "edge.txt"), "--kind", "simple", "--function", str(function)
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("value", MALFORMED_VALUES)
def test_malformed_function_values_exit_2_from_pushforward(value, tmp_path):
    function = tmp_path / "f.json"
    function.write_text(f'[{{"simplex": ["top"], "value": "1"}}, {{"simplex": ["e1"], "value": {value}}}]')
    code, out, err = invoke(*_corpus_argv(FIRST_ENTRIES["pushforward"]), "--function", str(function))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_validate_unknown_vertex_exits_2(fixture_dir):
    code, out, err = invoke(
        "validate", str(fixture_dir / "octahedron.txt"), "--vertex", "nosuch"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UnknownVertex"


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf", "1e400"])
def test_non_finite_coordinate_exits_2(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text(
        f"curvcalc-complex v1\nvertices\na 0 0\nb 1 {bad}\nc 0 1\nsimplices\na b c\n"
    )
    # subdivide embeds nothing, and refuses the coordinate as the others do
    for argv in (("curvature", str(path), "--method", "exact"), ("subdivide", str(path))):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "NonFiniteCoordinate", "message": "vertex 1 has a non-finite coordinate"
        }


OVERFLOW = (
    "curvcalc-complex v1\nvertices\na 1e308 0\nb -1e308 0\nc 0 1e308\nsimplices\na b c\n"
)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--method", "exact"),
        ("curvature", "--method", "mc", "--samples", "200"),
        ("gauss-bonnet-check",),
        ("morse-curvature", "--samples", "200"),
    ],
)
def test_overflowing_edge_vectors_are_degenerate(tmp_path, argv, capsys):
    # finite coordinates, but b - a overflows to -inf
    path = tmp_path / "overflow.txt"
    path.write_text(OVERFLOW)
    code, out, err = invoke(argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["error"] == "DegenerateSimplex"
    assert "(0, 1)" in report["message"]  # the edge a b, first in cells() order
    assert capsys.readouterr() == ("", "")


NEAR_FLOAT_MAX = {"a": (1.5e308, 1.5e308), "b": (1.4e308, 1.5e308)}
UNIT_TRIANGLE = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}


@pytest.mark.parametrize(
    "points, scale",
    [(NEAR_FLOAT_MAX, 2.0**-1000), (UNIT_TRIANGLE, 2.0**1000)],
    ids=["segment_near_float_max", "triangle_times_2_1000"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--method", "exact"),
        ("curvature", "--method", "mc", "--samples", "500", "--seed", "4"),
        ("morse-curvature", "--samples", "500", "--seed", "4"),
        ("morse-index", "--direction", "0.6,0.8"),
    ],
    ids=" ".join,
)
def test_huge_coordinates_print_what_their_power_of_two_rescaling_prints(
    tmp_path, points, scale, argv, capsys
):
    # heights and generator norms of the larger copy overflow unless scaled
    outputs = []
    for name, factor in (("given", 1.0), ("rescaled", scale)):
        lines = ["curvcalc-complex v1", "vertices"]
        lines += [f"{v} {x * factor!r} {y * factor!r}" for v, (x, y) in points.items()]
        lines += ["simplices", " ".join(points)]
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = invoke(argv[0], str(path), *argv[1:])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "bad_row",
    [
        "0.5",  # one column
        "0.5,x",  # non-numeric cell
        "0.5,nan",  # non-finite value
        "0.5,inf",
    ],
)
def test_malformed_profile_row_exits_2(tmp_path, bad_row):
    rows = ["t,f", "0,1", "0.25,1", bad_row, "0.75,1", "1,1"]
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, err = invoke("adiabatic", "--profile", f"file:{path}", "--eps", "0")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ParseError"
    assert report["message"].endswith("(line 4)")


def _one_json_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def test_adiabatic_grid_cap_exits_2():
    code, out, err = invoke("adiabatic", "--profile", "sphere", "--grid", "100000000000")
    assert code == 2 and out == ""
    assert _one_json_line(err) == {
        "error": "ValueError", "message": "grid must be at most 4194304, got 100000000000"
    }


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize(
    "t, f",
    [
        # second differences that overflow
        ([i / 8 for i in range(9)], [1e308] * 4 + [1.7e308] + [1e308] * 4),
        # a step whose square underflows to 0
        ([i * 1.25e-301 for i in range(9)], [1.0] * 4 + [1.3] + [1.0] * 4),
    ],
)
@pytest.mark.parametrize("flags", [("--nonsplit",), ("--format", "csv"), ("--format", "json")])
def test_adiabatic_non_finite_curvature_exits_2(tmp_path, t, f, flags):
    path = tmp_path / "profile.csv"
    path.write_text("t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t, f)))
    code, out, err = invoke("adiabatic", "--profile", f"file:{path}", *flags)
    assert code == 2 and out == ""
    assert _one_json_line(err) == {
        "error": "ValueError", "message": "the curvature at eps=0.0 leaves the float range on this profile"
    }


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_adiabatic_grid_with_the_largest_float_exits_2(tmp_path):
    # the uniformity tolerance, ulps of the largest t, was inf here, so the
    # grid passed as uniform and its masses were printed
    path = tmp_path / "profile.csv"
    path.write_text("t,f\n0,1\n0.25,1\n0.5,1\n0.75,1\n1.7976931348623157e308,1\n")
    code, out, err = invoke("adiabatic", "--profile", f"file:{path}", "--format", "json")
    assert code == 2 and out == ""
    assert _one_json_line(err) == {"error": "ValueError", "message": "grid must be uniform"}


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_alpha_beyond_the_float_range_exits_2(tmp_path, method):
    path = tmp_path / "triangle.txt"
    path.write_text(
        "curvcalc-complex v1\nvertices\na 0 0 alpha=1e400\nb 1 0 alpha=0\nc 0 1 alpha=0\n"
        "simplices\na b c\n"
    )
    code, out, err = invoke("curvature", str(path), "--alpha", "--method", method, "--samples", "100")
    assert code == 2 and out == ""
    assert _one_json_line(err) == {
        "error": "ValueError", "message": "vertex 0: its alpha value lies beyond the float range"
    }


FAR_PATH = "curvcalc-complex v1\nvertices\na 1e20 0\nb 1e20 1\nc 1e20 2\nsimplices\na b\nb c\n"
# two edges 2e20 apart, either side of x = 0: centring keeps a column whose
# range holds 0, and each edge's unit step is lost to its 1e20 offset
FAR_CLUSTERS = (
    "curvcalc-complex v1\nvertices\na -1e20 0\nb -1e20 1\nc 1e20 0\nd 1e20 1\nsimplices\na b\nc d\n"
)
MC_COMMANDS = [
    ("curvature", "{path}", "--method", "mc", "--samples", "100"),
    ("morse-curvature", "{path}", "--samples", "100"),
    ("fubini-check", "--left", "{path}", "--right", "{path}", "--kind", "curvature", "--samples", "100"),
]


@pytest.mark.parametrize("argv", MC_COMMANDS)
def test_persistent_height_ties_exit_2(tmp_path, argv):
    path = tmp_path / "far.txt"
    path.write_text(FAR_CLUSTERS)
    code, out, err = invoke(*(a.format(path=path) for a in argv))
    assert code == 2 and out == ""
    assert _one_json_line(err) == {
        "error": "PersistentTies", "message": "direction sampling keeps hitting height ties"
    }
    code, out, _ = invoke("curvature", str(path))
    assert code == 0 and out == "vertex,kappa,stderr\na,0.5,0\nb,0.5,0\nc,0.5,0\nd,0.5,0\n"


@pytest.mark.parametrize("argv", MC_COMMANDS)
def test_a_far_translate_gets_the_heights_of_a_near_one(tmp_path, argv):
    # the x column, of one sign, loses its coordinate nearest 0, so the unit
    # steps along the path survive
    path = tmp_path / "far.txt"
    path.write_text(FAR_PATH)
    code, out, _ = invoke(*(a.format(path=path) for a in argv), "--format", "json")
    assert code == 0
    exact = {"a": 0.5, "b": 0.0, "c": 0.5}
    if argv[0] == "fubini-check":
        rows = json.loads(out)
        assert len(rows) == 9
        for row in rows:
            u, v = row["vertex"].split("*")
            assert row["kappa_factor_product"] == exact[u] * exact[v]
            assert abs(row["kappa_product"] - row["kappa_factor_product"]) <= 4 * row["joint_bound"]
    else:
        # an edge has one maximum in each direction of a pair, so these are exact
        assert {v: row["kappa"] for v, row in json.loads(out).items()} == exact
    code, out, _ = invoke("curvature", str(path))
    assert code == 0 and out == "vertex,kappa,stderr\na,0.5,0\nb,0,0\nc,0.5,0\n"


def test_gauss_bonnet_check_json(fixture_dir):
    code, out, _ = invoke(
        "gauss-bonnet-check",
        str(fixture_dir / "octahedron.txt"),
        "--method",
        "mc",
        "--samples",
        "5000",
        "--seed",
        "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 2
    assert abs(report["sum_kappa"] - 2) <= 4 * report["bound"] + 1e-9
    assert abs(report["final_integral"] - report["sum_kappa"]) < 1e-9


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_gauss_bonnet_check_computes_the_measure_once(fixture_dir, method, monkeypatch):
    from curvcalc import curvature

    calls = []
    measure = curvature.curvature_measure

    def counted(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    monkeypatch.setattr(curvature, "curvature_measure", counted)
    code, out, _ = invoke(
        "gauss-bonnet-check", str(fixture_dir / "octahedron.txt"), "--method", method
    )
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert report["final_integral"] == report["sum_kappa"]


def test_curvature_csv_and_json(fixture_dir):
    code, out, _ = invoke(
        "curvature", str(fixture_dir / "octahedron.txt"), "--method", "exact"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,kappa,stderr"
    assert len(lines) == 7
    code, out, _ = invoke(
        "curvature",
        str(fixture_dir / "octahedron.txt"),
        "--method",
        "exact",
        "--format",
        "json",
    )
    data = json.loads(out)
    assert data["top"]["kappa"] == pytest.approx(1 / 3, abs=1e-9)


def test_curvature_alpha_integral(fixture_dir):
    code, out, _ = invoke(
        "curvature", str(fixture_dir / "triangle.txt"), "--alpha", "--method", "exact"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-9)


def test_equilateral_flag_for_coordinate_free_files(tmp_path):
    doc = "curvcalc-complex v1\nvertices\na\nb\nc\nsimplices\na b c\n"
    path = tmp_path / "abstract.txt"
    path.write_text(doc)
    code, _, err = invoke("curvature", str(path), "--method", "mc", "--samples", "200")
    assert code == 2  # no coordinates
    code, out, _ = invoke(
        "morse-curvature", str(path), "--equilateral", "--samples", "500"
    )
    assert code == 0
    assert out.splitlines()[0] == "vertex,kappa,stderr"


def test_morse_index_csv(fixture_dir):
    code, out, _ = invoke(
        "morse-index", str(fixture_dir / "octahedron.txt"), "--direction", "0.3,0.5,0.8"
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows == {"top": "1", "bottom": "1", "e1": "0", "e2": "0", "e3": "0", "e4": "0"}


@pytest.mark.parametrize(
    "direction, error, message",
    [
        ("1,1", "DimensionMismatch", "direction has 2 components, the embedding 3"),
        ("1,0,0,0", "DimensionMismatch", "direction has 4 components, the embedding 3"),
        ("1,x,0", "UsageError", "argument --direction: want a nonzero finite"),
        ("1,,0", "UsageError", "argument --direction: want a nonzero finite"),
        ("0,0,0", "UsageError", "argument --direction: want a nonzero finite"),
        ("nan,1,0", "UsageError", "argument --direction: want a nonzero finite"),
        ("1,inf,0", "UsageError", "argument --direction: want a nonzero finite"),
    ],
)
def test_morse_index_rejects_bad_directions(direction, error, message, fixture_dir, capsys):
    code, out, err = invoke(
        "morse-index", str(fixture_dir / "octahedron.txt"), "--direction", direction
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == error
    assert message in report["message"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "direction, unit",
    [
        # the plain norm of the first two overflows, that of the others
        # underflows; (1, 1, 1) ties the octahedron's top with e1 and e2
        ("1e200,1e200,1e200", "1,1,1"),
        ("1e200,2e200,3e200", "1,2,3"),
        ("1e-200,2e-200,3e-200", "1,2,3"),
        ("1e-320,2e-320,3e-320", "1,2,3"),
    ],
)
def test_morse_index_accepts_finite_directions_of_any_scale(direction, unit, fixture_dir, capsys):
    octahedron = str(fixture_dir / "octahedron.txt")
    scaled = invoke("morse-index", octahedron, "--direction", direction)
    assert scaled == invoke("morse-index", octahedron, "--direction", unit)
    assert "UsageError" not in scaled[2]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "seed, message",
    [
        ("-1", "argument --seed: must be at least 0, got -1"),
        (str(2**64), f"argument --seed: must be below {2**64}, got {2**64}"),
        (str(10**23), f"argument --seed: must be below {2**64}, got {10**23}"),
    ],
)
@pytest.mark.parametrize("command", ["morse-curvature", "fubini-check"])
def test_seeds_outside_the_key_range_are_usage_errors(command, seed, message):
    entry = FIRST_ENTRIES[command]
    code, out, err = invoke(*_corpus_argv(entry), "--seed", seed)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert report["message"].endswith(message)


def test_the_largest_seed_is_its_own_key(fixture_dir):
    # seeds used to be masked to 64 bits, so -1 printed what 2**64 - 1 prints
    argv = ("morse-curvature", str(fixture_dir / "octahedron.txt"), "--samples", "200")
    top = invoke(*argv, "--seed", str(2**64 - 1))
    assert top[0] == 0 and top[2] == ""
    assert top != invoke(*argv, "--seed", "0")
    chi = ("fubini-check", "--left", str(fixture_dir / "edge.txt"),
           "--right", str(fixture_dir / "triangle.txt"), "--seed", str(2**64 - 1))
    assert invoke(*chi)[0] == 0


def test_the_largest_seed_wraps_in_derived_streams(fixture_dir, tmp_path):
    # the 4-simplex factor takes Monte Carlo on seed + 1, which wraps to 0
    path = tmp_path / "simplex4.txt"
    path.write_text(
        "curvcalc-complex v1\nvertices\n"
        + "".join(f"v{i} {' '.join('1' if j == i else '0' for j in range(5))}\n" for i in range(5))
        + "simplices\nv0 v1 v2 v3 v4\n"
    )
    code, out, err = invoke(
        "fubini-check", "--left", str(path), "--right", str(fixture_dir / "edge.txt"),
        "--kind", "curvature", "--samples", "200", "--seed", str(2**64 - 1),
    )
    assert (code, err) == (0, "") and out


def test_floor_oracle_refuses_unbounded_cuts(tmp_path):
    # n defaults to 1000003, so the edges hold about 2 * 10**6 cut points
    path = tmp_path / "path.txt"
    path.write_text(
        "curvcalc-complex v1\nvertices\na 0 alpha=0\nb 1 alpha=1\nc 2 alpha=1/1000003\n"
        "simplices\na b\nb c\n"
    )
    code, out, err = invoke("integrate", str(path), "--kind", "floor-oracle")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "TooManyCuts"


def test_pushforward_and_compose(fixture_dir):
    args = (
        "pushforward",
        "--source", str(fixture_dir / "octahedron.txt"),
        "--target", str(fixture_dir / "path3.txt"),
        "--map", str(fixture_dir / "octa_to_path.map"),
    )
    code, out, _ = invoke(*args)
    assert code == 0
    body, fibers_line = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    entries = json.loads(body)
    assert {(tuple(e["simplex"]), e["value"]) for e in entries} == {
        (("lo",), "1"),
        (("hi",), "1"),
    }
    assert json.loads(fibers_line)["fiber_chi"]["mid"] == 0
    code, out, _ = invoke(
        *args,
        "--compose", str(fixture_dir / "path_to_point.map"),
        "--compose-target", str(fixture_dir / "point.txt"),
    )
    assert code == 0
    assert json.loads(out) == [{"simplex": ["pt"], "value": "2"}]


PUSHFORWARD = FIRST_ENTRIES["pushforward"]
COMPOSE = next(entry for entry in CORPUS if "--compose" in entry)


@pytest.mark.parametrize("with_function", [False, True])
def test_pushforward_runs_at_most_two_pushforwards(with_function, tmp_path, monkeypatch):
    from curvcalc import pushforwards

    argv = _corpus_argv(PUSHFORWARD)
    if with_function:
        function = tmp_path / "f.json"
        function.write_text(json.dumps([
            {"simplex": ["top", "e1"], "value": "3/2"},
            {"simplex": ["e1", "e2", "top"], "value": "-7"},
            {"simplex": ["e3"], "value": "1/3"},
        ]))
        argv += ["--function", str(function)]
    calls = []
    push = pushforwards.pushforward

    def counted(*args):
        calls.append(args)
        return push(*args)

    monkeypatch.setattr(pushforwards, "pushforward", counted)
    code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert len(calls) == (2 if with_function else 1)
    monkeypatch.undo()
    # the fibers do not depend on the function
    assert out.splitlines()[-1] == invoke(*_corpus_argv(PUSHFORWARD))[1].splitlines()[-1]


def test_pushforward_compose_runs_three_pushforwards(monkeypatch):
    # (g o f)_* s once, and f_* s and g_* of it once each for the check
    from curvcalc import pushforwards

    expected = invoke(*_corpus_argv(COMPOSE))
    calls = []
    push = pushforwards.pushforward

    def counted(*args):
        calls.append(args)
        return push(*args)

    monkeypatch.setattr(pushforwards, "pushforward", counted)
    assert invoke(*_corpus_argv(COMPOSE)) == expected
    assert expected[0] == 0 and len(calls) == 3


def test_bad_map_gives_the_same_error_on_every_run(fixture_dir, tmp_path):
    # top -> lo and e1 -> hi send the edge top e1 onto lo hi, which the
    # path lacks; so do top e3 and top e1 e2, later in cells() order
    bad = tmp_path / "bad.map"
    bad.write_text("map v1\ntop -> lo\nbottom -> mid\ne1 -> hi\ne2 -> mid\ne3 -> hi\ne4 -> mid\n")
    argv = [
        sys.executable, "-m", "curvcalc.cli", "pushforward",
        "--source", str(fixture_dir / "octahedron.txt"),
        "--target", str(fixture_dir / "path3.txt"),
        "--map", str(bad),
    ]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("1", "2")
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(2, "", runs[0].stderr)] * 2
    assert json.loads(runs[0].stderr) == {
        "error": "MissingFace",
        "message": "simplex (0, 2) is missing face (0, 2)",
    }


def test_the_parser_is_built_once(monkeypatch):
    from curvcalc import cli

    built = []
    build = cli.build_parser

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    try:
        first = invoke("--help")
        second = invoke("subdivide", "--census", "2")
        third = invoke("curvature", "-h")
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1
    assert first[1].startswith("usage: curvcalc") and third[1].startswith("usage: curvcalc curvature")
    assert second[0] == 0 and json.loads(second[1])["1,1,1"] == 6


def test_fubini_chi_json(fixture_dir):
    code, out, _ = invoke(
        "fubini-check",
        "--left", str(fixture_dir / "triangle.txt"),
        "--right", str(fixture_dir / "edge.txt"),
        "--seed", "5",
    )
    assert code == 0
    triple = json.loads(out)
    assert triple["equal"]
    assert triple["direct"] == triple["left_factor_last"] == triple["right_factor_last"]


def test_fubini_curvature_table(fixture_dir):
    code, out, _ = invoke(
        "fubini-check",
        "--left", str(fixture_dir / "edge.txt"),
        "--right", str(fixture_dir / "edge.txt"),
        "--kind", "curvature",
        "--samples", "5000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,kappa_product,kappa_factor_product,joint_bound"
    assert len(lines) == 5


def test_fubini_curvature_csv_and_json_hold_the_same_rows(fixture_dir):
    argv = (
        "fubini-check",
        "--left", str(fixture_dir / "triangle.txt"),
        "--right", str(fixture_dir / "edge.txt"),
        "--kind", "curvature",
        "--samples", "500",
    )
    code, csv_out, _ = invoke(*argv)
    assert code == 0
    header, *lines = csv_out.strip().splitlines()
    code, json_out, _ = invoke(*argv, "--format", "json")
    assert code == 0
    rows = json.loads(json_out)
    assert len(rows) == len(lines) == 6
    for line, row in zip(lines, rows):
        name, *values = line.split(",")
        assert list(row) == header.split(",")
        assert list(row.values()) == [name, *map(float, values)]


def test_adiabatic_csv_plus_summary(fixture_dir):
    code, out, _ = invoke(
        "adiabatic", "--profile", "sphere", "--eps", "0,0.5", "--grid", "512"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,t,lambda"
    summary = json.loads(lines[-1])
    assert summary["chi"] == 2
    assert len(lines) == 1 + 2 * 512 + 1

    code, out, _ = invoke(
        "adiabatic",
        "--profile", "cylinder",
        "--eps", "0",
        "--grid", "64",
        "--format", "json",
        "--nonsplit",
    )
    summary = json.loads(out)
    assert summary["nonsplit"]["absolutely_continuous"]


def test_subdivide_round_trips(fixture_dir):
    code, out, _ = invoke("subdivide", str(fixture_dir / "edge.txt"))
    assert code == 0
    doc = parse_complex(out)
    assert len(doc.complex) == 5
    assert doc.alpha is not None
    code, out, _ = invoke("subdivide", "--census", "2")
    assert json.loads(out)["1,1,1"] == 6


def test_byte_identical_reruns(fixture_dir):
    for args in (
        ("curvature", str(fixture_dir / "octahedron.txt"), "--method", "mc", "--samples", "2000", "--seed", "9"),
        ("morse-curvature", str(fixture_dir / "octahedron.txt"), "--samples", "2000", "--seed", "9"),
        ("adiabatic", "--profile", "torus", "--eps", "0,0.9", "--grid", "128"),
        ("fubini-check", "--left", str(fixture_dir / "edge.txt"), "--right", str(fixture_dir / "edge.txt"), "--kind", "curvature", "--samples", "1000"),
    ):
        first = invoke(*args)
        second = invoke(*args)
        assert first == second
        assert first[0] == 0


def test_console_entry_point(fixture_dir):
    out = subprocess.run(
        [sys.executable, "-m", "curvcalc.cli", "integrate", str(fixture_dir / "edge.txt"), "--kind", "floor"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == '{"value": "1"}\n'


@pytest.mark.parametrize("times", ["1", "2"])
def test_subdivided_coordinates_keep_gauss_bonnet(fixture_dir, tmp_path, times):
    # each new vertex sits at the mean of its simplex's points, so the
    # subdivided file embeds and its exact curvature still sums to chi
    checked = []
    for path in sorted(fixture_dir.glob("*.txt")):
        doc = parse_complex(path.read_text())
        if doc.points is None:
            continue
        code, out, _ = invoke("subdivide", str(path), "--times", times)
        assert code == 0 and parse_complex(out).points is not None
        subdivided = tmp_path / path.name
        subdivided.write_text(out)
        code, out, err = invoke("gauss-bonnet-check", str(subdivided), "--method", "exact")
        assert code == 0, err
        report = json.loads(out)
        assert report["chi"] == doc.complex.euler_characteristic()
        assert report["discrepancy"] <= 1e-9
        checked.append(path.name)
    assert checked == ["edge.txt", "octahedron.txt", "path3.txt", "point.txt", "triangle.txt"]


def test_subdivided_coordinates_are_barycenters(fixture_dir):
    code, out, _ = invoke("subdivide", str(fixture_dir / "triangle.txt"))
    doc = parse_complex(out)
    # b3 is the edge (a, b), b6 the triangle itself
    assert doc.points[3].tolist() == [0.5, 0.0]
    assert doc.points[6].tolist() == pytest.approx([1 / 3, 1 / 3], abs=1e-16)


def test_subdivided_coordinates_near_the_float_limit_stay_finite(tmp_path):
    # the mean of 1e308 and 1.5e308 lies between them, though their sum overflows
    path = tmp_path / "edge.txt"
    path.write_text("curvcalc-complex v1\nvertices\np0 1e308\np1 1.5e308\nsimplices\np0 p1\n")
    code, out, _ = invoke("subdivide", str(path))
    assert code == 0 and parse_complex(out).points[2].tolist() == [1.25e308]
    code, out, _ = invoke("subdivide", str(path), "--times", "2")
    points = parse_complex(out).points.ravel().tolist()
    assert code == 0 and all(1e308 <= x <= 1.5e308 for x in points)
    subdivided = tmp_path / "sd2.txt"
    subdivided.write_text(out)
    code, out, err = invoke("gauss-bonnet-check", str(subdivided), "--method", "exact")
    assert code == 0, err
    assert json.loads(out)["discrepancy"] == 0.0


@pytest.mark.parametrize("leg", ["1e-200", "5e-324"])
def test_exact_curvature_of_a_tiny_triangle(tmp_path, leg):
    # no squared generator entry may underflow to a zero norm
    printed = []
    for name, size in (("tiny", leg), ("unit", "1")):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"curvcalc-complex v1\nvertices\np0 0 0\np1 {size} 0\np2 0 {size}\nsimplices\np0 p1 p2\n")
        code, out, err = invoke("curvature", str(path), "--format", "json")
        assert code == 0 and err == ""
        printed.append(out)
        code, out, err = invoke("gauss-bonnet-check", str(path))
        assert code == 0 and json.loads(out)["discrepancy"] == 0.0
    assert printed[0] == printed[1]


# Names that json and csv escape or quote: a double quote, a backslash,
# a non-ASCII letter and a control character.
ODD_NAMES = ['q"uote', "back\\slash", "\u00e4", "ctl\x01"]


def reference_kappa_output(doc, kappa, fmt):
    """The curvature table as json.dumps of a dict of dicts, or as
    csv.writer rows: the writer that cli._write_kappa replaces."""
    rows = [(doc.names[v], f"{kappa[v].value:.12g}", f"{kappa[v].bound:.12g}") for v in sorted(kappa)]
    if fmt == "json":
        return json.dumps({name: {"kappa": float(k), "stderr": float(b)} for name, k, b in rows}) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("vertex", "kappa", "stderr"))
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["exact", "mc", "morse"])
def test_kappa_output_is_what_json_dumps_and_csv_writer_write(fmt, command, tmp_path):
    X, emb = fixtures.octahedron()
    names = ODD_NAMES + [f"v{v}" for v in X.vertices[len(ODD_NAMES) :]]
    path = tmp_path / "odd.txt"
    path.write_text(serialize_complex(ComplexDocument(X, names, emb.matrix(), None)))
    doc = parse_complex(path.read_text())
    assert doc.names == names
    embedding = Embedding(doc.complex, doc.points)
    if command == "morse":
        kappa = morse_curvature_measure(embedding, 500, 3)
        argv = ["morse-curvature", str(path), "--samples", "500", "--seed", "3"]
    else:
        kappa = curvature_measure(embedding, command, 500, 3)
        argv = ["curvature", str(path), "--method", command, "--samples", "500", "--seed", "3"]
    code, out, err = invoke(*argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == reference_kappa_output(doc, kappa, fmt)


@pytest.mark.parametrize(
    "x",
    [1.5e12, 999999999999.5, 1e16, -0.0, 5e-324, 1e-5, 0.0, 1 / 3, -2.5e-300, math.nan, math.inf, -math.inf],
)
def test_json_numbers_are_what_json_dumps_prints(x):
    text = f"{x:.12g}"
    assert cli._json_number(text) == json.dumps(float(text))
    # and inside the whole table, with a bound of the same value
    doc = ComplexDocument(None, ODD_NAMES, None, None)
    kappa = {v: ValueWithError(x * (v + 1), x) for v in range(len(ODD_NAMES))}
    for fmt in ("json", "csv"):
        out = io.StringIO()
        cli._write_kappa(doc, kappa, fmt, out)
        assert out.getvalue() == reference_kappa_output(doc, kappa, fmt)


def test_each_distinct_value_is_formatted_once(monkeypatch):
    # 0.0 == -0.0, yet they print apart; a NaN equals nothing, itself included
    values = [0.0, -0.0, 0.5, 0.5, -0.0, 1 / 3, 0.0, math.nan]
    doc = ComplexDocument(None, [f"v{v}" for v in range(len(values))], None, None)
    kappa = {v: ValueWithError(x, 0.0) for v, x in enumerate(values)}
    formatted = []
    json_number = cli._json_number
    monkeypatch.setattr(cli, "_json_number", lambda text: formatted.append(text) or json_number(text))
    for fmt in ("json", "csv"):
        out = io.StringIO()
        cli._write_kappa(doc, kappa, fmt, out)
        assert out.getvalue() == reference_kappa_output(doc, kappa, fmt)
    assert sorted(formatted) == sorted(["0", "-0", "0.5", "0.333333333333", "nan"])
