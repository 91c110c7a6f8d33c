"""Batch command-line front end.

All subcommands are deterministic: identical inputs and seed produce
byte-identical output. Rationals print as p/q in lowest terms, floats
with 12 significant digits. Validation failures exit with status 2 and a
JSON diagnostic on stderr.
"""

import argparse
import contextvars
import csv
import functools
import io as _io
import json
import sys
from fractions import Fraction

import numpy as np

from . import adiabatic as adiabatic_mod
from . import curvature as curvature_mod
from . import euler as euler_mod
from . import mc
from . import morse as morse_mod
from . import pushforwards as pushforward_mod
from .complexes import barycentric_subdivide, product, signature_census
from .curvature import Embedding, equilateral_embedding
from .errors import CurvCalcError, NonFiniteCoordinate, UsageError
from .euler import ConstructibleFunction
from .io import (
    ComplexDocument,
    parse_complex,
    parse_constructible,
    parse_map,
    serialize_complex,
    serialize_constructible,
)

def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


def _dump_json(obj, out) -> None:
    out.write(json.dumps(obj) + "\n")


def _write_csv(rows, header, out) -> None:
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    out.write(buffer.getvalue())


def _load_document(path: str) -> ComplexDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_complex(handle.read())


def _embedding_for(doc: ComplexDocument, equilateral: bool) -> Embedding:
    if equilateral:
        return equilateral_embedding(doc.complex)
    if doc.coordinates is None:
        raise CurvCalcError("complex file has no coordinates; pass --equilateral")
    return Embedding(doc.complex, doc.coordinates)


def _require_alpha(doc: ComplexDocument):
    if doc.alpha is None:
        raise CurvCalcError("complex file defines no vertex values (alpha)")
    return doc.alpha


def _write_kappa(doc: ComplexDocument, kappa, fmt: str, out) -> None:
    rows = [
        (doc.names[v], f"{kappa[v].value:.12g}", f"{kappa[v].bound:.12g}")
        for v in sorted(kappa)
    ]
    if fmt == "json":
        _dump_json(
            {name: {"kappa": float(k), "stderr": float(b)} for name, k, b in rows}, out
        )
    else:
        _write_csv(rows, ("vertex", "kappa", "stderr"), out)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args, out) -> int:
    doc = _load_document(args.complex)
    chi = doc.complex.euler_characteristic()
    report = {
        "ok": True,
        "vertices": len(doc.names),
        "simplices": len(doc.complex),
        "dim": doc.complex.dim,
        "chi": chi,
        "chi_c": chi,  # the sum of (-1)^dim over every open cell is chi
    }
    if args.vertex is not None:
        star = len(doc.complex.star(doc.vertex_id(args.vertex)))
        # s -> s - {v} sends the star onto the link and the empty simplex
        report.update(star=star, link=star - 1)
    _dump_json(report, out)
    return 0


def _cmd_integrate(args, out) -> int:
    doc = _load_document(args.complex)
    if args.kind == "simple":
        if args.function is None:
            raise CurvCalcError("--kind simple needs --function")
        with open(args.function, encoding="utf-8") as handle:
            s = parse_constructible(handle.read(), doc)
        value = euler_mod.euler_integral(s)
    elif args.kind == "weights":
        weights = euler_mod.weights(doc.complex)
        _dump_json({doc.names[v]: str(w) for v, w in sorted(weights.items())}, out)
        return 0
    else:
        alpha = _require_alpha(doc)
        if args.kind == "floor":
            value = euler_mod.floor_integral(alpha)
        elif args.kind == "ceil":
            value = euler_mod.ceil_integral(alpha)
        elif args.kind == "tentative":
            value = euler_mod.tentative_integral(alpha)
        else:  # floor-oracle
            n = args.oracle_n
            if n is None:  # the oracle is exact at any common multiple
                n = alpha.common_numerators()[0]
            value = euler_mod.floor_integral_oracle_1d(alpha, n)
    _dump_json({"value": str(value)}, out)
    return 0


def _cmd_subdivide(args, out) -> int:
    if args.census is not None:
        census = signature_census(args.census)
        _dump_json(
            {",".join(map(str, sig)): count for sig, count in sorted(census.items())},
            out,
        )
        return 0
    if args.complex is None:
        raise CurvCalcError("subdivide needs a complex file (or --census)")
    doc = _load_document(args.complex)
    complex, alpha, points = doc.complex, doc.alpha, doc.coordinates
    if points is not None:
        points = np.array([points[v] for v in complex.vertices], dtype=float)
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():  # as an Embedding refuses them
            raise NonFiniteCoordinate(complex.vertices[int(np.argmin(finite))])
        # means near the float limit are taken 2^shift smaller, so no sum overflows
        shift = max(0, int(np.frexp(np.abs(points).max(initial=0.0))[1]) - 1000)
    for _ in range(args.times):
        if points is not None:  # the new vertex of a simplex sits at the mean of its points
            rows = map(complex.vertex_positions, range(complex.dim + 1))
            means = [np.ldexp(points[r], -shift).mean(axis=1) for r in rows]
            points = np.ldexp(np.concatenate(means), shift)
        complex, alpha = barycentric_subdivide(complex, alpha)
    names = [f"b{i}" for i in range(len(complex.vertices))]
    coordinates = None if points is None else dict(enumerate(points))
    out.write(serialize_complex(ComplexDocument(complex, names, coordinates, alpha)))
    return 0


def _cmd_curvature(args, out) -> int:
    doc = _load_document(args.complex)
    embedding = _embedding_for(doc, args.equilateral)
    if args.alpha:
        # the file's alpha on the whole complex is one compact piece
        value = curvature_mod.final_integral(
            embedding, [(doc.complex, _require_alpha(doc))], args.method, args.samples, args.seed
        )
        _dump_json({"value": _fmt(value.value), "bound": _fmt(value.bound)}, out)
        return 0
    kappa = curvature_mod.curvature_measure(
        embedding, args.method, args.samples, args.seed
    )
    _write_kappa(doc, kappa, args.format, out)
    return 0


def _cmd_gauss_bonnet(args, out) -> int:
    doc = _load_document(args.complex)
    embedding = _embedding_for(doc, args.equilateral)
    report = curvature_mod.gauss_bonnet_check(
        embedding, args.method, args.samples, args.seed
    )
    _dump_json(
        {
            "sum_kappa": _fmt(report["sum_kappa"]),
            "chi": report["chi"],
            "bound": _fmt(report["bound"]),
            "discrepancy": _fmt(report["discrepancy"]),
            # the compact-piece integral of the constant 1 is the total mass
            "final_integral": _fmt(report["sum_kappa"]),
            "method": report["method"],
        },
        out,
    )
    return 0


def _cmd_morse_curvature(args, out) -> int:
    doc = _load_document(args.complex)
    embedding = _embedding_for(doc, args.equilateral)
    kappa = morse_mod.morse_curvature_measure(embedding, args.samples, args.seed)
    _write_kappa(doc, kappa, args.format, out)
    return 0


def _cmd_morse_index(args, out) -> int:
    doc = _load_document(args.complex)
    embedding = _embedding_for(doc, False)
    indices = morse_mod.morse_indices(args.direction, embedding)
    rows = [(doc.names[v], str(indices[v])) for v in sorted(indices)]
    if args.format == "json":
        _dump_json({name: int(i) for name, i in rows}, out)
    else:
        _write_csv(rows, ("vertex", "index"), out)
    return 0


def _cmd_pushforward(args, out) -> int:
    source = _load_document(args.source)
    target = _load_document(args.target)
    with open(args.map, encoding="utf-8") as handle:
        first = parse_map(handle.read(), source, target)
    if args.function is not None:
        with open(args.function, encoding="utf-8") as handle:
            s = parse_constructible(handle.read(), source)
    else:
        s = ConstructibleFunction.ones(source.complex)
    if args.compose is not None:
        if args.compose_target is None:
            raise CurvCalcError("--compose needs --compose-target")
        final = _load_document(args.compose_target)
        with open(args.compose, encoding="utf-8") as handle:
            second = parse_map(handle.read(), target, final)
        # (g o f)_* s is the output; g_*(f_* s) checks it
        result = pushforward_mod.pushforward(second.compose(first), s)
        iterated = pushforward_mod.pushforward(second, pushforward_mod.pushforward(first, s))
        if result != iterated:
            raise CurvCalcError("functoriality check failed")  # pragma: no cover
        out.write(serialize_constructible(result, final))
        return 0
    result = pushforward_mod.pushforward(first, s)
    # the pushforward of the constant 1 holds every fiber's chi_c
    fiber_chi = result if args.function is None else pushforward_mod.pushforward(
        first, ConstructibleFunction.ones(source.complex)
    )
    fibers = {
        "|".join(target.names[v] for v in cell): int(fiber_chi.coefficients.get(cell, 0))
        for cell in target.complex.cells()
    }
    out.write(serialize_constructible(result, target))
    _dump_json({"fiber_chi": fibers}, out)
    return 0


def _seeded_product_function(carrier, seed: int) -> ConstructibleFunction:
    rng = np.random.Generator(
        np.random.Philox(key=mc.philox_key(seed))
    )
    coeffs = {cell: Fraction(int(rng.integers(-6, 7))) for cell in carrier.cells()}
    return ConstructibleFunction(carrier, coeffs)


def _cmd_fubini_check(args, out) -> int:
    left = _load_document(args.left)
    right = _load_document(args.right)
    if args.kind == "chi":
        carrier = product(left.complex, right.complex)
        s = _seeded_product_function(carrier, args.seed)
        direct, first, second = pushforward_mod.fubini_chi(s)
        _dump_json(
            {
                "direct": str(direct),
                "left_factor_last": str(first),
                "right_factor_last": str(second),
                "equal": direct == first == second,
            },
            out,
        )
        return 0
    ex = _embedding_for(left, False)
    ey = _embedding_for(right, False)
    rows = pushforward_mod.fubini_curvature(ex, ey, args.samples, args.seed)
    header = ("vertex", "kappa_product", "kappa_factor_product", "joint_bound")
    table = [
        (
            f"{left.names[r['vertex'][0]]}*{right.names[r['vertex'][1]]}",
            *(f"{r[key]:.12g}" for key in header[1:]),
        )
        for r in rows
    ]
    if args.format == "json":
        _dump_json([dict(zip(header, (name, *map(float, values)))) for name, *values in table], out)
    else:
        _write_csv(table, header, out)
    return 0


def _cmd_adiabatic(args, out) -> int:
    warp = adiabatic_mod.profile(args.profile, args.grid)
    eps_grid = [float(t) for t in args.eps.split(",")]
    report = adiabatic_mod.adiabatic_sweep(warp, eps_grid)
    if args.format == "csv":
        rows = []
        for eps in eps_grid:
            measure = adiabatic_mod.curvature_density(warp, eps)
            rows.extend(
                (f"{eps:.12g}", f"{t:.12g}", f"{lam:.12g}")
                for t, lam in zip(measure.t, measure.density)
            )
        _write_csv(rows, ("eps", "t", "lambda"), out)
    summary = {
        "chi": report["chi"],
        "results": [
            {
                "eps": _fmt(r["eps"]),
                "interior_mass": _fmt(r["interior_mass"]),
                "atom_a": _fmt(r["atom_start"]),
                "atom_b": _fmt(r["atom_end"]),
                "total": _fmt(r["total"]),
            }
            for r in report["rows"]
        ],
    }
    if "limit_ambiguity" in report:
        summary["limit_ambiguity"] = report["limit_ambiguity"]
    if args.nonsplit:
        demo = adiabatic_mod.nonsplit_demo(warp)
        summary["nonsplit"] = {
            "pushforward_density_support": _fmt(demo["pushforward_density_support"]),
            "base_atoms": [
                _fmt(demo["base_measure"]["atom_start"]),
                _fmt(demo["base_measure"]["atom_end"]),
            ],
            "absolutely_continuous": demo["absolutely_continuous"],
        }
    _dump_json(summary, out)
    return 0


# The stdout of the run() in progress; the parser is shared by every run.
_run_stdout = contextvars.ContextVar("run_stdout", default=None)


class _Parser(argparse.ArgumentParser):
    """Writes help and usage to the stdout given to run() (the process's
    outside run) and raises usage errors, so that run reports them as
    JSON."""

    def print_help(self, file=None):
        super().print_help(file if file is not None else _run_stdout.get())

    def print_usage(self, file=None):
        super().print_usage(file if file is not None else _run_stdout.get())

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_in(low: int, below: int | None = None):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _direction(text):
    """A comma-separated direction vector, normalized."""
    try:
        return morse_mod.as_direction([float(t) for t in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want a nonzero finite comma-separated vector, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    # each flag group goes only to the subcommands that read it
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument(
        "--seed", type=_int_in(0, mc.SEED_BOUND), default=0, help="RNG seed (default 0)"
    )
    sampled.add_argument(
        "--samples",
        type=_int_in(1),
        default=10_000,
        help="Monte Carlo directions, drawn as antithetic pairs x, -x: an odd"
        " count rounds up to the next even one (default 10000)",
    )
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = _Parser(
        prog="curvcalc",
        description="Euler and curvature calculus on finite simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, *parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, help="check a complex file")
    p.add_argument("complex")
    p.add_argument("--vertex", help="also report star/link sizes of a vertex")

    p = command("integrate", _cmd_integrate, help="Euler integrals of file data")
    p.add_argument("complex")
    p.add_argument(
        "--kind",
        choices=("floor", "ceil", "tentative", "simple", "floor-oracle", "weights"),
        required=True,
    )
    p.add_argument("--function", help="constructible-function JSON (for --kind simple)")
    p.add_argument(
        "--oracle-n",
        type=_int_in(1),
        help="step count n (default: the lcm of the alpha denominators)",
    )

    p = command("subdivide", _cmd_subdivide, help="barycentric subdivision")
    p.add_argument("complex", nargs="?")
    p.add_argument("--times", type=_int_in(0), default=1)
    p.add_argument(
        "--census",
        type=_int_in(0, 17),
        help="print the signature census of a standard simplex instead",
    )

    for name, handler, parents in (
        ("curvature", _cmd_curvature, [sampled, formatted]),
        ("gauss-bonnet-check", _cmd_gauss_bonnet, [sampled]),
    ):
        p = command(name, handler, *parents)
        p.add_argument("complex")
        p.add_argument("--method", choices=("exact", "mc"), default="exact")
        p.add_argument("--equilateral", action="store_true")
        if handler is _cmd_curvature:
            p.add_argument(
                "--alpha",
                action="store_true",
                help="integrate the file's vertex values against curvature",
            )

    p = command("morse-curvature", _cmd_morse_curvature, sampled, formatted)
    p.add_argument("complex")
    p.add_argument("--equilateral", action="store_true")

    p = command("morse-index", _cmd_morse_index, formatted)
    p.add_argument("complex")
    p.add_argument("--direction", type=_direction, required=True, help="comma-separated vector")

    p = command("pushforward", _cmd_pushforward)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--function")
    p.add_argument("--compose", help="second map file, applied after --map")
    p.add_argument("--compose-target", help="target complex of the second map")

    p = command("fubini-check", _cmd_fubini_check, sampled, formatted)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--kind", choices=("chi", "curvature"), default="chi")

    p = command("adiabatic", _cmd_adiabatic, formatted)
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", default="0,0.5,0.9,0.99")
    p.add_argument("--nonsplit", action="store_true")
    p.add_argument("--grid", type=_int_in(5), default=4096)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv, stdout=None, stderr=None) -> int:
    """Parse arguments and dispatch; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    token = _run_stdout.set(stdout)
    try:
        args = _shared_parser().parse_args(argv)
        return args.handler(args, stdout)
    except SystemExit:  # --help
        return 0
    except CurvCalcError as exc:
        _dump_json({"error": exc.code, "message": str(exc)}, stderr)
        return 2
    except (OSError, ValueError) as exc:
        _dump_json({"error": type(exc).__name__, "message": str(exc)}, stderr)
        return 2
    finally:
        _run_stdout.reset(token)


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
