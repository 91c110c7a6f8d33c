"""The embedding's degeneracy check against the per-simplex SVD oracle:
the same rejections, the same first simplex, bounded memory. The Gram
screen in front of the stacked SVD must never clear a simplex the rule
flags: slivers around both thresholds, extreme scales and simplices the
screen does not cover check that."""

import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest

from curvcalc import curvature, fixtures, mc
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
    vectors from its first vertex overflow, have fewer singular values than
    vectors, or a smallest one at most _DEGENERACY_RTOL * largest."""
    for simplex in complex.cells():
        if len(simplex) > 1:
            pts = np.array([coords[v] for v in simplex], dtype=float)
            with np.errstate(over="ignore"):
                gens = pts[1:] - pts[0]
            if not np.isfinite(gens).all():  # the difference overflows
                return simplex
            sv = np.linalg.svd(gens, compute_uv=False)
            if len(sv) < len(gens) or sv[-1] <= _DEGENERACY_RTOL * sv[0]:
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
        if doc.points is not None:
            cases.append((path.name, doc.complex, dict(enumerate(doc.points))))
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


def _strip_embedding(n, d, sliver):
    """The strip of d-simplices (i, ..., i + d) on n vertices in R^n: at
    the coordinate vectors (equilateral), or, for sliver, at
    i e_0 + 1e-7 e_i, so that every simplex is too thin for the screen
    and too thick for the rule."""
    X = SimplicialComplex.from_maximal([tuple(range(i, i + d + 1)) for i in range(n - d)])
    if not sliver:
        return X, equilateral_embedding(X).coordinates
    coords = 1e-7 * np.eye(n)
    coords[:, 0] += np.arange(n)
    return X, dict(enumerate(coords))


def check_peak(d, sliver):
    """Peak traced bytes of the degeneracy check alone on a strip."""
    n = 800
    X, coords = _strip_embedding(n, d, sliver)
    # one unchunked gather of the (n_d, d, N) edge vectors, with its two
    # operands, would exceed the budget
    assert len(X.simplices_of_dim(d)) * (2 * d + 1) * n * 8 > mc.KERNEL_BUDGET_BYTES
    emb = Embedding(X, coords)
    tracemalloc.start()
    try:
        emb._check_nondegenerate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_check_memory_stays_under_the_budget():
    # a strip of triangles on 800 vertices, equilateral, so N = 800: the
    # chunk step counts the gathers and the Gram screen's temporaries
    assert check_peak(2, False) < 1.1 * mc.KERNEL_BUDGET_BYTES


@pytest.mark.parametrize("d, sliver", [(1, False), (3, False), (2, True), (4, False)], ids=str)
def test_check_memory_stays_under_the_budget_past_the_screen(d, sliver):
    # slivers are all left to the SVD, 4-simplices skip the screen: the
    # copy of the rows the screen leaves is inside the step's count too
    assert check_peak(d, sliver) < 1.1 * mc.KERNEL_BUDGET_BYTES


class CountedSvd:
    """np.linalg.svd that counts the matrices it is given."""

    def __init__(self, monkeypatch):
        self.rows = 0
        self.svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", self)

    def __call__(self, a, *args, **kwargs):
        self.rows += 1 if np.ndim(a) == 2 else len(a)
        return self.svd(a, *args, **kwargs)


def test_no_row_of_a_jittered_subdivision_reaches_the_svd(monkeypatch):
    # sd^2 of the octahedron at barycenter coordinates, each coordinate
    # moved by up to 0.005: every simplex is cleared by the Gram screen
    X, emb = fixtures.octahedron()
    coords = {v: np.asarray(emb.coordinates[v], dtype=float) for v in X.vertices}
    for _ in range(2):
        parents = subdivision_vertex_simplices(X)
        X, _ = barycentric_subdivide(X)
        coords = {i: np.mean([coords[u] for u in s], axis=0) for i, s in enumerate(parents)}
    rng = np.random.default_rng(5)
    coords = {v: c + rng.uniform(-0.005, 0.005, size=3) for v, c in coords.items()}
    counted = CountedSvd(monkeypatch)
    Embedding(X, coords)
    assert counted.rows == 0
    # the oracle does take the SVD
    assert first_degenerate_oracle(X, coords) is None and counted.rows > 0


def _simplex_with_singular_values(rng, sv, ambient, scale):
    """Coordinates of a d-simplex, d = len(sv), whose edge vectors from
    vertex 0 have the given singular values, placed at a random offset
    of the given scale in R^ambient."""
    d = len(sv)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((ambient, d)))
    edges = (u * sv) @ v.T
    base = scale * rng.standard_normal(ambient)
    return dict(enumerate(np.vstack([base, base + edges])))


def test_slivers_across_both_thresholds_match_oracle(monkeypatch):
    """Triangles and tetrahedra in R^d..R^(d+2) whose sigma_min / sigma_max
    runs from 1e-4 down to 1e-12, at sigma_max from 1e-3 to 1e3: the
    screen's margin (1e-6) and the rule's (1e-9) both fall inside."""
    rng = np.random.default_rng(77)
    counted = CountedSvd(monkeypatch)
    outcomes = set()
    for d in (2, 3):
        X = SimplicialComplex.from_maximal([tuple(range(d + 1))])
        for ambient, ratio, top in itertools.product(
            range(d, d + 3), np.logspace(-4, -12, 17), (1e-3, 1.0, 1e3)
        ):
            sv = np.geomspace(top, top * ratio, d)
            coords = _simplex_with_singular_values(rng, sv, ambient, 10 * top)
            before = counted.rows
            expected = first_degenerate_oracle(X, coords)
            oracle_rows = counted.rows - before
            assert first_rejected(X, coords) == expected, (d, ambient, ratio, top)
            screened = counted.rows - before - oracle_rows == 0
            outcomes.add((expected is None, screened))
    # cleared by the screen, passed by the SVD, and flagged by the SVD
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("scale", [1e-150, 1e-5, 1e150, 1e300])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_extreme_scales_match_oracle(scale, d):
    # a regular simplex and a flat one at each scale; at 1e-150 F^2 is
    # below the screen's floor, at 1e150 its threshold overflows and at
    # 1e300 so does F^2; 1e-5 edges are small but not degenerate
    rng = np.random.default_rng(int(d + 10 * np.log10(scale) % 97))
    X = SimplicialComplex.from_maximal([tuple(range(d + 1))])
    regular = scale * np.eye(d + 1)
    flat = regular.copy()
    flat[-1] = flat[:-1].mean(axis=0) + scale * 1e-12 * rng.standard_normal(d + 1)
    for pts in (regular, flat, regular[:, ::-1] * rng.uniform(0.5, 1.0, d + 1)):
        coords = dict(enumerate(pts))
        assert first_rejected(X, coords) == first_degenerate_oracle(X, coords), (scale, d)


def test_overflowing_differences_are_degenerate():
    # finite coordinates whose difference overflows, next to a good edge
    X = SimplicialComplex.from_maximal([(0, 1), (1, 2)])
    coords = {0: [-1.5e308, 0.0], 1: [0.0, 0.0], 2: [1.5e308, 1.0]}
    assert first_rejected(X, coords) is None
    tri = SimplicialComplex.from_maximal([(0, 1, 2)])
    assert first_rejected(tri, coords) == (0, 2) == first_degenerate_oracle(tri, coords)


@pytest.mark.parametrize("ambient", [3, 4, 5])
def test_four_simplices_take_the_svd(ambient, monkeypatch):
    # the screen covers d <= 3; a 4-simplex goes to the SVD whole, and in
    # R^3 it has fewer singular values than edges
    rng = np.random.default_rng(ambient)
    X = SimplicialComplex.from_maximal([(0, 1, 2, 3, 4)])
    pts = rng.standard_normal((5, ambient))
    cases = [pts, np.vstack([pts[:4], pts[:4].mean(axis=0)])]  # generic, flat
    if ambient >= 4:
        sliver = pts.copy()
        sliver[4] = pts[:4].mean(axis=0) + 1e-8 * rng.standard_normal(ambient)
        cases.append(sliver)
    for case in cases:
        coords = dict(enumerate(case))
        counted = CountedSvd(monkeypatch)
        expected = first_degenerate_oracle(X, coords)
        oracle_rows = counted.rows
        assert first_rejected(X, coords) == expected
        if ambient >= 4:
            assert counted.rows - oracle_rows >= 1


def test_screen_never_clears_a_flagged_row():
    # direct: every row the rule flags is left uncleared by the screen. An
    # edge has one singular value, so at d = 1 the rule flags only the
    # zero edges of coincident points: those are added to the stack there
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for ambient in (d, d + 2, 40):
            ratios = np.logspace(-3, -14, 300)
            tops = np.geomspace(1e-12, 1e6, 300)
            rows = []
            for ratio, top in zip(ratios, rng.permutation(tops)):
                coords = _simplex_with_singular_values(rng, np.geomspace(top, top * ratio, d), ambient, top)
                rows.append(np.array([coords[i] - coords[0] for i in range(1, d + 1)]))
            edges = np.array(rows)
            if d == 1:
                points = tops[::30, None, None] * rng.standard_normal((10, 1, ambient))
                edges = np.concatenate([edges, points - points])
            sv = np.linalg.svd(edges, compute_uv=False)
            flagged = sv[:, -1] <= _DEGENERACY_RTOL * sv[:, 0]
            cleared = curvature._gram_clears(edges.transpose(1, 0, 2).copy())
            assert flagged.any() and cleared.any()
            assert not (flagged & cleared).any()
            if d == 1:  # exactly the coincident points are flagged
                assert np.array_equal(np.flatnonzero(flagged), np.arange(300, 310))


SCALES = (1e-150, 1.0, 1e150)


def rejections_across_scales(X, coords):
    return [first_rejected(X, {v: scale * np.asarray(c) for v, c in coords.items()}) for scale in SCALES]


@pytest.mark.parametrize("case", fixture_cases(), ids=lambda case: case[0])
def test_rejections_are_scale_invariant_on_fixtures(case):
    # the rule reads the shape of each simplex, not the unit of length
    _, X, coords = case
    first = rejections_across_scales(X, coords)
    assert first == [first_degenerate_oracle(X, coords)] * len(SCALES)


def test_rejections_are_scale_invariant_on_the_near_degenerate_sweep():
    """The sweep of test_near_degenerate_sweep_matches_oracle at unit
    scale, moved to 1e-150 and 1e150: the same accepts, the same first
    rejected simplex."""
    rng = np.random.default_rng(31)
    outcomes = set()
    for d, ambient in itertools.product((2, 3), range(2, 8)):
        X = SimplicialComplex.from_maximal([tuple(range(d + 1))])
        base = rng.standard_normal((d, ambient))
        hull = base[1:] - base[0]
        q, _ = np.linalg.qr(np.vstack([hull, rng.standard_normal((1, ambient))]).T, mode="reduced")
        normal = q[:, -1] if d <= ambient else np.zeros(ambient)
        inside = base[0] + rng.uniform(0.2, 0.4, size=d - 1) @ hull
        for t in np.logspace(-11, -7, 9):
            first = rejections_across_scales(X, dict(enumerate(np.vstack([base, inside + t * normal]))))
            assert first == [first[1]] * len(SCALES), (d, ambient, t)
            outcomes.add(first[1] is None)
    assert outcomes == {True, False}  # the sweep straddles the threshold


def cofactor_det(g, d):
    """The per-dimension cofactor forms of det G that the screen once used."""
    if d == 1:
        return g[0, 0]
    if d == 2:
        return g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
    return (
        g[0, 0] * (g[1, 1] * g[2, 2] - g[1, 2] * g[1, 2])
        - g[0, 1] * (g[0, 1] * g[2, 2] - g[1, 2] * g[0, 2])
        + g[0, 2] * (g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2])
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_leibniz_determinant_matches_the_cofactor_forms(d):
    # random Gram stacks, well conditioned and near singular: the two sums
    # of the same d! products agree to a few ulps of their largest product
    rng = np.random.default_rng(40 + d)
    edges = rng.standard_normal((d, 500, d + 2)) * np.geomspace(1e-3, 1e3, 500)[:, None]
    edges[-1, ::2] = edges[0, ::2] + 1e-6 * rng.standard_normal((250, d + 2))
    gram = np.einsum("imk,jmk->ijm", edges, edges)
    g = {(i, j): gram[i, j] for i in range(d) for j in range(d)}
    leibniz, cofactor = curvature._leibniz_det(g, d), cofactor_det(g, d)
    largest = np.prod([gram[i, i] for i in range(d)], axis=0)
    np.testing.assert_array_less(np.abs(leibniz - cofactor), 16 * np.finfo(float).eps * largest)
    if d <= 2:  # the same products, added in the same order
        assert np.array_equal(leibniz, cofactor)
