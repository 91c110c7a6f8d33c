"""Text formats for complexes, simplicial maps, and constructible functions.

A complex file (header ``curvcalc-complex v1``) has ``vertices`` sections,
one vertex per line: its name, then optional coordinates as
space-separated decimals, then an optional vertex value, an exact
rational ``p/q`` or an ``alpha=``-prefixed literal. A bare decimal after
the name is always read as a coordinate, so a decimal vertex value needs
the ``alpha=`` prefix; a trailing ``p/q`` token is a value either way.
``simplices`` sections list simplices by vertex name, and the parser
takes their face closure.

parse_complex reads the file into arrays: vertex ids are dense integers
in file order, with the names in a side table; the simplex lines become
integer rows, one array per arity, for the array face closure
(complexes._closure); and the coordinates become one read-only
(n_vertices, N) float64 matrix in vertex-id order, ComplexDocument.points,
which curvature.Embedding takes as it is.
"""

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .complexes import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    _closure,
    _common_numerators,
    facet_rows,
)
from .errors import DimensionMismatch, ParseError, UnknownVertex
from .euler import ConstructibleFunction

COMPLEX_HEADER = "curvcalc-complex v1"
MAP_HEADER = "map v1"


@dataclass
class ComplexDocument:
    """A parsed complex file: the complex plus its side tables."""

    complex: SimplicialComplex
    names: list[str]
    # read-only (n_vertices, N) float64 array, row v for vertex id v; None
    # when the file gives no coordinates
    points: np.ndarray | None
    alpha: PLFunction | None

    @property
    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def vertex_id(self, name: str) -> int:
        if name not in self.names:
            raise UnknownVertex(name)
        return self.names.index(name)


# the line boundaries of str.splitlines, which a comment runs up to
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_SECTIONS = ("vertices", "simplices")
_CONVERSION_ERRORS = (ValueError, ZeroDivisionError)


def _lines(text: str) -> list[str]:
    """The lines of a text with comments and surrounding whitespace
    stripped, split where str.splitlines splits."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    return list(map(str.strip, text.splitlines()))


def _header_lines(text: str, header: str) -> tuple[list[str], int]:
    """(lines, header_at): the lines of a text as _lines gives them and
    the index of the first nonblank one, which must be the header."""
    lines = _lines(text)
    header_at = next((i for i, line in enumerate(lines) if line), None)
    if header_at is None or lines[header_at] != header:
        raise ParseError(f"expected header {header!r}", 1 if header_at is None else header_at + 1)
    return lines, header_at


def _positions(lines: list[str], line: str) -> list[int]:
    """The indices of every occurrence of a line, found by list.index."""
    found = []
    try:
        while True:
            found.append(lines.index(line, found[-1] + 1 if found else 0))
    except ValueError:
        return found


def _groups(keys: list) -> dict:
    """{key: indices of its occurrences}, a range when all keys are equal."""
    if len(set(keys)) <= 1:
        return dict.fromkeys(keys[:1], range(len(keys)))
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _first_failure(convert, items):
    """(index, exception) of the first item on which convert raises a
    ValueError or ZeroDivisionError."""
    for i, item in enumerate(items):
        try:
            convert(item)
        except _CONVERSION_ERRORS as exc:
            return i, exc
    raise AssertionError("no item fails")


def _rational(tokens: list[str]) -> Fraction:
    return Fraction(tokens[-1].removeprefix("alpha="))


def _vertex_section(lines, names, ids, blocks, alphas):
    """Read a vertices section's nonblank lines into the tables; returns
    the section's first error as (index in lines, message), or None.

    Each check runs over the whole section, and the errors of one line
    rank: bad name, duplicate, bad rational, bad coordinate. Lines are
    grouped by token count and by whether the last token is an alpha
    value, with one float conversion per group, whose coordinates go to
    blocks as (vertex ids, (rows, width) float array); the ids of a
    whole section are a slice, as numpy indexes with a range item by item.
    """
    tokens = list(map(str.split, lines))
    start = len(names)
    fresh = list(map(itemgetter(0), tokens))
    names += fresh
    ids.update(zip(fresh, itertools.count(start)))
    errors = []
    joined = " ".join(fresh)
    if "/" in joined or "=" in joined:
        j = next(j for j, name in enumerate(fresh) if "/" in name or "=" in name)
        errors.append((j, 0, f"bad vertex name {fresh[j]!r}"))
    if len(ids) < len(names):
        seen = set(names[:start])
        j = next(j for j, name in enumerate(fresh) if name in seen or seen.add(name))
        errors.append((j, 1, f"duplicate vertex {fresh[j]!r}"))
    lasts = " ".join(map(itemgetter(-1), tokens))
    if "/" in lasts or "alpha=" in lasts:
        flags = [len(t) > 1 and (t[-1].startswith("alpha=") or "/" in t[-1]) for t in tokens]
    else:
        flags = itertools.repeat(False)
    for (k, has_alpha), at in _groups(list(zip(map(len, tokens), flags))).items():
        whole = len(at) == len(tokens)
        rows = tokens if whole else [tokens[j] for j in at]
        vids = range(start, len(names)) if whole else [start + j for j in at]
        if has_alpha:
            try:
                alphas.update(zip(vids, map(_rational, rows)))
            except _CONVERSION_ERRORS:
                i, exc = _first_failure(_rational, rows)
                token = rows[i][-1].removeprefix("alpha=")
                errors.append((at[i], 2, f"bad rational {token!r}: {exc}"))
        width = k - 1 - has_alpha
        if width:
            part = itemgetter(slice(1, 1 + width))
            values = map(float, itertools.chain.from_iterable(map(part, rows)))
            try:
                block = np.fromiter(values, dtype=float, count=len(rows) * width)
            except ValueError:
                i, exc = _first_failure(lambda row: list(map(float, part(row))), rows)
                errors.append((at[i], 3, f"bad coordinate: {exc}"))
            else:
                at_ids = slice(start, len(names)) if whole else vids
                blocks.append((at_ids, block.reshape(-1, width)))
    return min(errors)[::2] if errors else None


def _simplex_section(lines, ids, given):
    """Map a simplices section's nonblank lines to sorted rows of vertex
    ids, one (n, k) array per group of lines of k names, appended to
    given[k]; returns the section's first error as (index in lines,
    message), or None.

    A name not yet in ids (never declared, or declared on a later line)
    is unknown; on one line an unknown name ranks before a repeat.
    """
    tokens = list(map(str.split, lines))
    errors = []
    for k, at in _groups(list(map(len, tokens))).items():
        rows = tokens if len(at) == len(tokens) else [tokens[j] for j in at]
        flat = map(ids.get, itertools.chain.from_iterable(rows), itertools.repeat(-1))
        simplices = np.fromiter(flat, dtype=np.int64, count=len(rows) * k).reshape(-1, k)
        simplices.sort(axis=1)
        unknown = simplices[:, 0] < 0
        repeated = (simplices[:, 1:] == simplices[:, :-1]).any(axis=1)
        if unknown.any():
            i = int(np.argmax(unknown))
            name = next(name for name in rows[i] if name not in ids)
            errors.append((at[i], 0, f"unknown vertex {name!r}"))
        if repeated.any():
            i = int(np.argmax(repeated))
            errors.append((at[i], 1, "repeated vertex in simplex"))
        given.setdefault(k, []).append(simplices)
    return min(errors)[::2] if errors else None


def parse_complex(text: str) -> ComplexDocument:
    """Parse a complex file. Lines are numbered from the top of the file,
    which is line 1; the first error in line order is raised.

    Each section's lines are read in bulk: vertex lines by token count,
    simplex lines by arity into integer rows. Vertex ids are dense, so
    the rows go to the array face closure as they are.
    """
    lines, header_at = _header_lines(text, COMPLEX_HEADER)
    # every line above the header is blank, so no section mark lies there
    marks = sorted(i for word in _SECTIONS for i in _positions(lines, word))
    stray = next((i for i in range(header_at + 1, marks[0] if marks else len(lines)) if lines[i]), None)
    if stray is not None:
        raise ParseError("content before a section header", stray + 1)
    names: list[str] = []
    ids: dict[str, int] = {}
    blocks: list[tuple] = []
    alphas: dict[int, Fraction] = {}
    given: dict[int, list[np.ndarray]] = {}
    for mark, end in zip(marks, marks[1:] + [len(lines)]):
        body = list(filter(None, lines[mark + 1 : end]))
        if lines[mark] == "vertices":
            error = _vertex_section(body, names, ids, blocks, alphas)
        else:
            error = _simplex_section(body, ids, given)
        if error is not None:
            j, message = error
            raise ParseError(message, [i for i in range(mark + 1, end) if lines[i]][j] + 1)
    if not names:
        raise ParseError("no vertices")
    arities = {block.shape[1] for _, block in blocks}
    if len(arities) > 1:
        raise DimensionMismatch(
            f"coordinate arities differ across vertices: {sorted(arities)}"
        )
    points = None
    if blocks:
        if sum(len(block) for _, block in blocks) != len(names):
            raise DimensionMismatch("some vertices have coordinates and some do not")
        points = np.empty((len(names), *arities))
        for vids, block in blocks:
            points[vids] = block
        points.flags.writeable = False
    # isolated named vertices count as 0-simplices even if the simplices
    # section does not repeat them
    rows = _closure({k: np.concatenate(parts) for k, parts in given.items()}, len(names))
    complex = SimplicialComplex(vertex_ids=np.arange(len(names)), rows=rows)
    alpha = None
    if alphas:
        if len(alphas) != len(names):
            raise ParseError("alpha given for some vertices but not all")
        values = map(alphas.__getitem__, range(len(names)))  # in vertex id order
        alpha = PLFunction._from_numerators(complex, *_common_numerators(values))
    return ComplexDocument(complex, names, points, alpha)


def serialize_complex(doc: ComplexDocument) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = [COMPLEX_HEADER, "vertices"]
    points = None if doc.points is None else np.asarray(doc.points, dtype=float).tolist()
    for vid, name in enumerate(doc.names):
        parts = [name]
        if points is not None:
            parts.extend(map(repr, points[vid]))
        if doc.alpha is not None:
            parts.append(f"alpha={doc.alpha.values[vid]}")
        out.append(" ".join(parts))
    out.append("simplices")
    # maximal simplices only, top dimension first: a d-simplex is maximal
    # unless it is a facet of some (d+1)-simplex
    complex = doc.complex
    names = [doc.names[v] for v in complex.vertices]
    for d in range(complex.dim, -1, -1):
        maximal = np.ones(complex.f_vector()[d], dtype=bool)
        if d < complex.dim:
            maximal[complex.simplex_indices(facet_rows(complex.vertex_positions(d + 1)))] = False
        rows = complex.vertex_positions(d)[maximal].tolist()
        out.extend(" ".join(map(names.__getitem__, row)) for row in rows)
    return "\n".join(out) + "\n"


def parse_map(text: str, source: ComplexDocument, target: ComplexDocument) -> SimplicialMap:
    """Parse a map file. Lines are numbered from the top of the file, which
    is line 1; the first bad line raises."""
    lines, header_at = _header_lines(text, MAP_HEADER)
    src_ids = source.name_to_id
    dst_ids = target.name_to_id
    vertex_map: dict[int, int] = {}
    for lineno, line in enumerate(lines[header_at + 1 :], start=header_at + 2):
        if not line:
            continue
        if "->" not in line:
            raise ParseError("expected 'source-name -> target-name'", lineno)
        lhs, rhs = (part.strip() for part in line.split("->", 1))
        if lhs not in src_ids:
            raise ParseError(f"unknown source vertex {lhs!r}", lineno)
        if rhs not in dst_ids:
            raise ParseError(f"unknown target vertex {rhs!r}", lineno)
        if src_ids[lhs] in vertex_map:
            raise ParseError(f"vertex {lhs!r} mapped twice", lineno)
        vertex_map[src_ids[lhs]] = dst_ids[rhs]
    return SimplicialMap(source.complex, target.complex, vertex_map)


def parse_constructible(text: str, doc: ComplexDocument) -> ConstructibleFunction:
    """Constructible-function JSON: a list of {"simplex": [names...],
    "value": "p/q"} entries over the open simplices of a complex."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(data, list):
        raise ParseError("expected a JSON list of {simplex, value} entries")
    ids = doc.name_to_id
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for entry in data:
        try:
            simplex = tuple(sorted(ids[name] for name in entry["simplex"]))
            value = Fraction(entry["value"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad entry {entry!r}: {exc}") from None
        coeffs[simplex] = coeffs.get(simplex, Fraction(0)) + value
    return ConstructibleFunction(doc.complex, coeffs)


def serialize_constructible(s: ConstructibleFunction, doc: ComplexDocument) -> str:
    entries = [
        {"simplex": [doc.names[v] for v in cell], "value": str(value)}
        for cell, value in sorted(s.coefficients.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return json.dumps(entries, indent=2) + "\n"
