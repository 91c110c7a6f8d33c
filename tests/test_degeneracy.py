"""The embedding's degeneracy check against the per-simplex SVD oracle:
the same rejections, the same first simplex, bounded memory."""

import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest

from curvcalc import fixtures, mc
from curvcalc.complexes import SimplicialComplex, barycentric_subdivide, subdivision_vertex_simplices
from curvcalc.curvature import _DEGENERACY_RTOL, Embedding, equilateral_embedding
from curvcalc.errors import DegenerateSimplex
from curvcalc.io import parse_complex

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = (
    "segment",
    "filled_triangle",
    "hollow_triangle",
    "square_boundary",
    "octahedron",
    "cone_fan",
    "book",
    "solid_tetrahedron",
)


def first_degenerate_oracle(complex, coords):
    """One SVD per simplex, in cells() order: the first simplex whose edge
    vectors from its first vertex have fewer singular values than vectors,
    or a smallest one at most _DEGENERACY_RTOL * max(largest, 1)."""
    for simplex in complex.cells():
        if len(simplex) > 1:
            pts = np.array([coords[v] for v in simplex], dtype=float)
            gens = pts[1:] - pts[0]
            sv = np.linalg.svd(gens, compute_uv=False)
            if len(sv) < len(gens) or sv[-1] <= _DEGENERACY_RTOL * max(sv[0], 1.0):
                return simplex
    return None


def first_rejected(complex, coords):
    try:
        Embedding(complex, coords)
    except DegenerateSimplex as exc:
        return exc.simplex
    return None


def fixture_cases():
    """Every fixture at sd^0..sd^2 with barycenter coordinates, flattened
    by dropping its last axis and pinched by moving vertex 1 onto
    vertex 0, and the coordinate files under tests/fixtures."""
    cases = []
    for name in FIXTURE_NAMES:
        X, emb = getattr(fixtures, name)()
        coords = {v: np.asarray(emb.coordinates[v], dtype=float) for v in X.vertices}
        for level in range(3):
            cases.append((f"{name}-sd{level}", X, coords))
            cases.append((f"{name}-sd{level}-flat", X, {v: c[:-1] for v, c in coords.items()}))
            cases.append((f"{name}-sd{level}-pinched", X, {**coords, 1: coords[0]}))
            parents = subdivision_vertex_simplices(X)
            X, _ = barycentric_subdivide(X)
            coords = {i: np.mean([coords[u] for u in s], axis=0) for i, s in enumerate(parents)}
    for path in sorted(FIXTURE_DIR.glob("*.txt")):
        doc = parse_complex(path.read_text())
        if doc.coordinates is not None:
            cases.append((path.name, doc.complex, doc.coordinates))
    return cases


@pytest.mark.parametrize("case", fixture_cases(), ids=lambda case: case[0])
def test_rejections_match_oracle_on_fixtures(case):
    _, X, coords = case
    assert first_rejected(X, coords) == first_degenerate_oracle(X, coords)


@pytest.mark.parametrize("seed", range(20))
def test_rejections_match_oracle_on_random_complexes(seed):
    # Gaussian coordinates in R^1..R^4: tetrahedra in R^2, triangles in R^1
    rng = np.random.default_rng(900 + seed)
    X = fixtures.random_complex(rng)
    coords = dict(zip(X.vertices, rng.standard_normal((len(X.vertices), 1 + seed % 4))))
    assert first_rejected(X, coords) == first_degenerate_oracle(X, coords)


def test_near_degenerate_sweep_matches_oracle():
    """A triangle and a tetrahedron whose last vertex sits t * scale off
    the affine hull of the others, scaled by scale, in R^2..R^7."""
    rng = np.random.default_rng(31)
    outcomes = set()
    for d, ambient in itertools.product((2, 3), range(2, 8)):
        X = SimplicialComplex.from_maximal([tuple(range(d + 1))])
        base = rng.standard_normal((d, ambient))
        hull = base[1:] - base[0]
        # a unit normal to the hull, when the ambient space has room
        q, _ = np.linalg.qr(np.vstack([hull, rng.standard_normal((1, ambient))]).T, mode="reduced")
        normal = q[:, -1] if d <= ambient else np.zeros(ambient)
        inside = base[0] + rng.uniform(0.2, 0.4, size=d - 1) @ hull
        for t, scale in itertools.product(np.logspace(-11, -7, 9), np.logspace(-3, 3, 7)):
            pts = np.vstack([base, inside + t * normal]) * scale
            coords = dict(enumerate(pts))
            expected = first_degenerate_oracle(X, coords)
            assert first_rejected(X, coords) == expected, (d, ambient, t, scale)
            outcomes.add(expected is None)
    assert outcomes == {True, False}  # the sweep straddles the threshold


def test_simplices_beyond_the_ambient_dimension_are_degenerate():
    tet = SimplicialComplex.from_maximal([(0, 1, 2, 3)])
    plane = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0], 3: [1.0, 1.0]}
    assert first_rejected(tet, plane) == (0, 1, 2, 3) == first_degenerate_oracle(tet, plane)
    tri = SimplicialComplex.from_maximal([(0, 1, 2)])
    line = {0: [0.0], 1: [1.0], 2: [3.0]}
    assert first_rejected(tri, line) == (0, 1, 2) == first_degenerate_oracle(tri, line)
    # a lower-dimensional degenerate simplex comes first
    plane[3] = plane[2]
    assert first_rejected(tet, plane) == (2, 3) == first_degenerate_oracle(tet, plane)


def test_first_degenerate_simplex_in_cells_order():
    # triangles (0, 4, 5) and (1, 2, 3) are flat; (0, 4, 5) comes first
    X = SimplicialComplex.from_maximal([(1, 2, 3), (0, 4, 5), (0, 1, 6)])
    coords = {
        0: [0.0, 0.0], 1: [1.0, 0.0], 2: [2.0, 1.0], 3: [3.0, 2.0],
        4: [1.0, 1.0], 5: [2.0, 2.0], 6: [0.0, 1.0],
    }
    assert first_rejected(X, coords) == (0, 4, 5) == first_degenerate_oracle(X, coords)
    # a coincident pair makes an edge degenerate, which precedes every triangle
    coords[6] = coords[1]
    assert first_rejected(X, coords) == (1, 6) == first_degenerate_oracle(X, coords)


def test_check_memory_stays_under_the_budget():
    # a strip of triangles on n vertices, equilateral, so N = n: one
    # unchunked (n_d, d, N) gather per dimension would exceed the budget
    n = 800
    X = SimplicialComplex.from_maximal([(i, i + 1, i + 2) for i in range(n - 2)])
    assert len(X.simplices_of_dim(2)) * 2 * n * 8 > mc.KERNEL_BUDGET_BYTES
    coords = equilateral_embedding(X).coordinates
    tracemalloc.start()
    try:
        Embedding(X, coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mc.KERNEL_BUDGET_BYTES
