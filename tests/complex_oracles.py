"""Tuple-based definitions of the complex builders, as test oracles.

The library closes faces, subdivides and finds maximal simplices on
per-dimension arrays, and parses complex files a section at a time. Each
oracle here is the per-simplex (or per-line) definition it replaces:
Python tuples, sets and sorts, with no arrays.
"""

import itertools
from fractions import Fraction

import numpy as np

from curvcalc.complexes import PLFunction, SimplicialComplex, faces
from curvcalc.errors import DimensionMismatch, ParseError
from curvcalc.io import COMPLEX_HEADER, ComplexDocument


def face_closure(maximal) -> set:
    """Every nonempty face of every given simplex."""
    closed = set()
    for m in maximal:
        closed.update(faces(tuple(sorted(m))))
    return closed


def chains(complex):
    """(simplices in (dimension, lexicographic) order, all strict chains
    s_0 < s_1 < ... < s_k of the face poset as tuples of indices into that
    order), built per simplex from the chains ending at its faces."""
    simps = sorted(complex.simplices, key=lambda s: (len(s), s))
    sid = {s: i for i, s in enumerate(simps)}
    ending_at: dict[tuple, list[tuple[int, ...]]] = {}
    for s in simps:  # faces precede their cofaces in this order
        found = [(sid[s],)]
        for f in itertools.chain.from_iterable(
            itertools.combinations(s, k) for k in range(1, len(s))
        ):
            for c in ending_at[f]:
                found.append(c + (sid[s],))
        ending_at[s] = found
    return simps, [c for s in simps for c in ending_at[s]]


def serialize_complex_by_closure(doc) -> str:
    """The complex file text, with the maximal simplices found by sorting
    the simplex set and skipping the closure of each one emitted."""
    out = [COMPLEX_HEADER, "vertices"]
    for vid, name in enumerate(doc.names):
        parts = [name]
        if doc.points is not None:
            parts.extend(repr(float(x)) for x in doc.points[vid])
        if doc.alpha is not None:
            parts.append(f"alpha={doc.alpha.values[vid]}")
        out.append(" ".join(parts))
    out.append("simplices")
    covered = set()
    for s in sorted(doc.complex.simplices, key=lambda s: (-len(s), s)):
        if s not in covered:
            out.append(" ".join(doc.names[v] for v in s))
            covered.update(faces(s))
    return "\n".join(out) + "\n"


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}: {exc}", lineno) from None


def parse_complex_by_lines(text: str) -> ComplexDocument:
    """The complex file parser as one loop over the lines: each line is
    checked and read in turn, so the first bad line raises, and a
    simplex line sees only the vertices declared above it. Lines are
    numbered from the top of the file, which is line 1."""
    lines = text.splitlines()
    header_at = next((i for i, raw in enumerate(lines) if _strip(raw)), None)
    if header_at is None or _strip(lines[header_at]) != COMPLEX_HEADER:
        raise ParseError(
            f"expected header {COMPLEX_HEADER!r}",
            1 if header_at is None else header_at + 1,
        )
    section = None
    names: list[str] = []
    ids: dict[str, int] = {}
    coords: dict[int, tuple[float, ...]] = {}
    alphas: dict[int, Fraction] = {}
    maximal: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[header_at + 1 :], start=header_at + 2):
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
    # isolated named vertices count as 0-simplices
    complex = SimplicialComplex(face_closure(maximal) | {(i,) for i in range(len(names))})
    alpha = None
    if alphas:
        if len(alphas) != len(names):
            raise ParseError("alpha given for some vertices but not all")
        alpha = PLFunction(complex, alphas)
    points = None
    if coords:
        points = np.array([coords[v] for v in range(len(names))], dtype=float)
        points.flags.writeable = False
    return ComplexDocument(complex, names, points, alpha)


def map_images(source, target, vertex_map):
    """(image indices, image signs, first bad (simplex, image) or None) of
    a vertex map, one source cell at a time in cells() order: the image
    of s is the sorted set of its vertices' images, looked up in
    target.cells(), and its sign is (-1)**(len(s) - len(image))."""
    index = {c: i for i, c in enumerate(target.cells())}
    indices, signs = [], []
    for s in source.cells():
        image = tuple(sorted({vertex_map[v] for v in s}))
        if image not in index:
            return indices, signs, (s, image)
        indices.append(index[image])
        signs.append((-1) ** (len(s) - len(image)))
    return indices, signs, None
