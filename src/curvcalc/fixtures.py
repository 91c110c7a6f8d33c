"""Small embedded complexes used by the CLI docs, tests, and benchmarks,
plus seeded random complexes for property sweeps."""

import math
from fractions import Fraction

import numpy as np

from .complexes import PLFunction, SimplicialComplex, SimplicialMap
from .curvature import Embedding


def point() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([(0,)])


def segment() -> tuple[SimplicialComplex, Embedding]:
    """The unit interval as an edge embedded in the line."""
    complex = SimplicialComplex.from_maximal([(0, 1)])
    return complex, Embedding(complex, {0: [0.0], 1: [1.0]})


def path_complex(n_edges: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal([(i, i + 1) for i in range(n_edges)])


def filled_triangle(coords=None) -> tuple[SimplicialComplex, Embedding]:
    complex = SimplicialComplex.from_maximal([(0, 1, 2)])
    if coords is None:
        coords = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0]}
    return complex, Embedding(complex, coords)


def hollow_triangle() -> tuple[SimplicialComplex, Embedding]:
    complex = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    coords = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.5, math.sqrt(3) / 2]}
    return complex, Embedding(complex, coords)


def square_boundary() -> tuple[SimplicialComplex, Embedding]:
    complex = SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3), (0, 3)])
    coords = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 1.0], 3: [0.0, 1.0]}
    return complex, Embedding(complex, coords)


def octahedron() -> tuple[SimplicialComplex, Embedding]:
    """Boundary of the octahedron on the unit coordinate vectors; vertices
    0/1 are the poles +-e3, vertices 2..5 the equator."""
    triangles = []
    equator = [2, 3, 4, 5]
    for pole in (0, 1):
        for a, b in zip(equator, equator[1:] + equator[:1]):
            triangles.append(tuple(sorted((pole, a, b))))
    complex = SimplicialComplex.from_maximal(triangles)
    coords = {
        0: [0.0, 0.0, 1.0],
        1: [0.0, 0.0, -1.0],
        2: [1.0, 0.0, 0.0],
        3: [0.0, 1.0, 0.0],
        4: [-1.0, 0.0, 0.0],
        5: [0.0, -1.0, 0.0],
    }
    return complex, Embedding(complex, coords)


def cone_fan(n_sides: int = 4, apex_height: float = 1.0) -> tuple[SimplicialComplex, Embedding]:
    """A fan of triangles around an apex (a polyhedral cone without its
    base), a disk topologically."""
    apex = 0
    rim = list(range(1, n_sides + 1))
    triangles = [
        tuple(sorted((apex, a, b))) for a, b in zip(rim, rim[1:] + rim[:1])
    ]
    complex = SimplicialComplex.from_maximal(triangles)
    coords = {apex: [0.0, 0.0, apex_height]}
    for k, v in enumerate(rim):
        angle = 2 * math.pi * k / n_sides
        coords[v] = [math.cos(angle), math.sin(angle), 0.0]
    return complex, Embedding(complex, coords)


def book(pages: int = 3) -> tuple[SimplicialComplex, Embedding]:
    """Triangular pages glued along one common spine edge."""
    spine = (0, 1)
    triangles = [tuple(sorted(spine + (2 + k,))) for k in range(pages)]
    complex = SimplicialComplex.from_maximal(triangles)
    coords = {0: [0.0, 0.0, 0.0], 1: [0.0, 0.0, 1.0]}
    for k in range(pages):
        angle = 2 * math.pi * k / max(pages, 2)
        coords[2 + k] = [math.cos(angle), math.sin(angle), 0.5]
    return complex, Embedding(complex, coords)


def solid_tetrahedron() -> tuple[SimplicialComplex, Embedding]:
    complex = SimplicialComplex.from_maximal([(0, 1, 2, 3)])
    coords = {
        0: [0.0, 0.0, 0.0],
        1: [1.0, 0.0, 0.0],
        2: [0.0, 1.0, 0.0],
        3: [0.0, 0.0, 1.0],
    }
    return complex, Embedding(complex, coords)


def lambda_split_triangle(lam: Fraction):
    """The triangle v0 v1 v2 with the edge v1 v2 split at the point
    p = lam * v1 + (1 - lam) * v2 and the splitting vertex joined to v0.

    Returns (complex, original_alpha -> PLFunction): the second entry
    extends a value triple on (v0, v1, v2) affinely to the split vertex 3.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("the split parameter must lie strictly between 0 and 1")
    complex = SimplicialComplex.from_maximal([(0, 1, 3), (0, 2, 3)])

    def extend(a0, a1, a2) -> PLFunction:
        a0, a1, a2 = Fraction(a0), Fraction(a1), Fraction(a2)
        return PLFunction(
            complex, {0: a0, 1: a1, 2: a2, 3: lam * a1 + (1 - lam) * a2}
        )

    return complex, extend


def octahedron_to_path() -> tuple[SimplicialMap, SimplicialComplex]:
    """Vertex-level height projection of the octahedron onto a path with
    three vertices (bottom pole, equator, top pole)."""
    octa, _ = octahedron()
    path = path_complex(2)
    vertex_map = {0: 2, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
    return SimplicialMap(octa, path, vertex_map), path


def small_complex_menagerie() -> list[SimplicialComplex]:
    """Complexes with at most 5 vertices, for exhaustive map sweeps."""
    return [
        point(),
        SimplicialComplex.from_maximal([(0, 1)]),
        path_complex(2),
        SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)]),
        SimplicialComplex.from_maximal([(0, 1, 2)]),
        SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)]),
        SimplicialComplex.from_maximal([(0, 1), (1, 2), (2, 3), (3, 4)]),
    ]


def random_complex(rng: np.random.Generator, max_vertices: int = 8, max_dim: int = 3) -> SimplicialComplex:
    """A face closure of a few random simplices; every vertex is kept."""
    n = int(rng.integers(3, max_vertices + 1))
    maximal = [(int(v),) for v in range(n)]
    for _ in range(int(rng.integers(2, 7))):
        size = int(rng.integers(2, min(max_dim + 1, n) + 1))
        maximal.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return SimplicialComplex.from_maximal(maximal)


def random_rational_values(rng: np.random.Generator, complex: SimplicialComplex) -> PLFunction:
    values = {
        v: Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))
        for v in complex.vertices
    }
    return PLFunction(complex, values)
