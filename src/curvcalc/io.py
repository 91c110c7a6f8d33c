"""Text formats for complexes, simplicial maps, and constructible functions.

Complex files (header ``curvcalc-complex v1``) have a ``vertices`` section
(one vertex per line: name, optional coordinates as space-separated
decimals, optional vertex value as an exact rational ``p/q`` or an
``alpha=``-prefixed literal) and a ``simplices`` section listing maximal
simplices by vertex name; the parser takes the face closure. Vertex ids
are dense integers assigned in file order; names live in a side table.

A bare decimal after the name is always read as a coordinate, so decimal
vertex values must use the ``alpha=`` prefix; ``p/q`` trailing tokens are
recognized either way.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import PLFunction, SimplicialComplex, SimplicialMap, _closure_rows, facet_rows
from .errors import DimensionMismatch, ParseError, UnknownVertex
from .euler import ConstructibleFunction

COMPLEX_HEADER = "curvcalc-complex v1"
MAP_HEADER = "map v1"


@dataclass
class ComplexDocument:
    """A parsed complex file: the complex plus its side tables."""

    complex: SimplicialComplex
    names: list[str]
    coordinates: dict[int, tuple[float, ...]] | None
    alpha: PLFunction | None

    @property
    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def vertex_id(self, name: str) -> int:
        if name not in self.names:
            raise UnknownVertex(name)
        return self.names.index(name)


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}: {exc}", lineno) from None


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_complex(text: str) -> ComplexDocument:
    lines = text.splitlines()
    header_at = next((i for i, raw in enumerate(lines) if _strip(raw)), None)
    if header_at is None or _strip(lines[header_at]) != COMPLEX_HEADER:
        raise ParseError(
            f"expected header {COMPLEX_HEADER!r}",
            1 if header_at is None else header_at + 1,
        )
    lines = lines[header_at:]
    section = None
    names: list[str] = []
    ids: dict[str, int] = {}
    coords: dict[int, tuple[float, ...]] = {}
    alphas: dict[int, Fraction] = {}
    maximal: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = _strip(raw)
        if not line:
            continue
        if line in ("vertices", "simplices"):
            section = line
            continue
        if section == "vertices":
            tokens = line.split()
            name = tokens[0]
            if "/" in name or "=" in name:
                raise ParseError(f"bad vertex name {name!r}", lineno)
            if name in ids:
                raise ParseError(f"duplicate vertex {name!r}", lineno)
            rest = tokens[1:]
            alpha = None
            if rest and (rest[-1].startswith("alpha=") or "/" in rest[-1]):
                token = rest.pop()
                alpha = _parse_rational(token.removeprefix("alpha="), lineno)
            vid = len(names)
            ids[name] = vid
            names.append(name)
            if rest:
                try:
                    coords[vid] = tuple(float(t) for t in rest)
                except ValueError as exc:
                    raise ParseError(f"bad coordinate: {exc}", lineno) from None
            if alpha is not None:
                alphas[vid] = alpha
        elif section == "simplices":
            try:
                simplex = tuple(sorted(ids[t] for t in line.split()))
            except KeyError as exc:
                raise ParseError(f"unknown vertex {exc.args[0]!r}", lineno) from None
            if len(set(simplex)) != len(simplex):
                raise ParseError("repeated vertex in simplex", lineno)
            maximal.append(simplex)
        else:
            raise ParseError("content before a section header", lineno)
    if not names:
        raise ParseError("no vertices")
    arities = {len(c) for c in coords.values()}
    if len(arities) > 1:
        raise DimensionMismatch(
            f"coordinate arities differ across vertices: {sorted(arities)}"
        )
    if coords and len(coords) != len(names):
        raise DimensionMismatch("some vertices have coordinates and some do not")
    # isolated named vertices count as 0-simplices even if the simplices
    # section does not repeat them; every simplex is canonical already, so
    # the face closure takes them as they are
    maximal.extend((i,) for i in range(len(names)))
    vertex_ids, rows = _closure_rows(maximal)
    complex = SimplicialComplex(vertex_ids=vertex_ids, rows=rows)
    alpha = None
    if alphas:
        if len(alphas) != len(names):
            raise ParseError("alpha given for some vertices but not all")
        alpha = PLFunction(complex, alphas)
    return ComplexDocument(complex, names, coords or None, alpha)


def serialize_complex(doc: ComplexDocument) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = [COMPLEX_HEADER, "vertices"]
    for vid, name in enumerate(doc.names):
        parts = [name]
        if doc.coordinates is not None:
            parts.extend(repr(float(x)) for x in doc.coordinates[vid])
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
    lines = text.splitlines()
    header_at = next((i for i, raw in enumerate(lines) if _strip(raw)), None)
    if header_at is None or _strip(lines[header_at]) != MAP_HEADER:
        raise ParseError(f"expected header {MAP_HEADER!r}", 1)
    lines = lines[header_at:]
    src_ids = source.name_to_id
    dst_ids = target.name_to_id
    vertex_map: dict[int, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = _strip(raw)
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad entry {entry!r}: {exc}") from None
        coeffs[simplex] = coeffs.get(simplex, Fraction(0)) + value
    return ConstructibleFunction(doc.complex, coeffs)


def serialize_constructible(s: ConstructibleFunction, doc: ComplexDocument) -> str:
    entries = [
        {"simplex": [doc.names[v] for v in cell], "value": str(value)}
        for cell, value in sorted(s.coefficients.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return json.dumps(entries, indent=2) + "\n"
