"""Tuple-based definitions of the complex builders, as test oracles.

The library closes faces, subdivides and finds maximal simplices on
per-dimension arrays. Each oracle here is the per-simplex definition it
replaces: Python tuples, sets and sorts, with no arrays.
"""

import itertools

from curvcalc.complexes import faces
from curvcalc.io import COMPLEX_HEADER


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
        if doc.coordinates is not None:
            parts.extend(repr(float(x)) for x in doc.coordinates[vid])
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
