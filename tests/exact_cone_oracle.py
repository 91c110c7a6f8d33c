"""The per-(cell, slot) exact cone fractions, kept as the oracle of the
triangle-angle table in curvcalc.curvature.

Each slot of each cell of a padded mc.build_cell_arrays table computes
its own generators p_v - p_w and the Sheppard sum of the angles between
them, with no table shared across cells. The fast path must give
bitwise the same fractions, and so the same curvature.
"""

import itertools
import math

import numpy as np

from curvcalc import _kernels, mc
from curvcalc.errors import ExactUnavailable


@np.errstate(over="ignore")  # an overflowed generator norm is caught and redone
def exact_cone_fractions(coords: np.ndarray, cells: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Exact normal-cone fraction for every (cell, vertex slot) pair of a
    simplex table from mc.build_cell_arrays; padding slots stay 0.

    For m <= 3 generators at a slot the fraction is
      (1 + C(m, 2)) / 2^m - sum_{i<j} theta_ij / (2^(m-1) pi),
    theta = 2 atan2(|u - w|, |u + w|) on unit generators. Each cell goes
    alone, so a generator is rescaled by a power of two exactly when a
    norm of its own slot's generators leaves [2^-500, 2^500].
    """
    fractions = np.zeros(cells.shape)
    for n in _kernels.size_classes(sizes):
        m = n - 1
        if m > 3:
            raise ExactUnavailable(f"no exact cone fraction for {m} generators")
        for row in np.flatnonzero(sizes == n):
            pts = coords[cells[row, :n]]
            for v in range(n):
                gens = pts[[v]] - pts[[w for w in range(n) if w != v]]
                norm = np.linalg.norm(gens, axis=-1, keepdims=True)
                if not (norm.min(initial=1.0) >= 2.0**-500 and norm.max(initial=1.0) <= 2.0**500):
                    big = np.abs(gens).max(axis=-1, keepdims=True, initial=0.0)
                    np.ldexp(gens, -np.frexp(big)[1], out=gens)
                    norm = np.linalg.norm(gens, axis=-1, keepdims=True)
                unit = gens / norm
                theta = sum(
                    2.0 * np.arctan2(
                        np.linalg.norm(unit[i] - unit[j], axis=-1),
                        np.linalg.norm(unit[i] + unit[j], axis=-1),
                    )
                    for i, j in itertools.combinations(range(m), 2)
                )
                fractions[row, v] = (1 + math.comb(m, 2)) / 2.0**m - theta / (2.0 ** (m - 1) * math.pi)
    return fractions


def simplex_table(complex):
    """The padded (cells, sizes, signs) table of every simplex, by
    dimension, on vertex positions."""
    return mc.build_cell_arrays([(complex.vertex_positions(d), d) for d in range(complex.dim + 1)])


def slot_fractions(coords, complex) -> np.ndarray:
    """The oracle's fractions of every filled slot of simplex_table, in
    its order: by dimension, then simplex, then slot."""
    cells, sizes, _ = simplex_table(complex)
    return exact_cone_fractions(coords, cells, sizes)[np.arange(cells.shape[1]) < sizes[:, None]]


def curvature(embedding) -> dict:
    """{vertex: kappa} from the oracle's fractions, summed in slot order."""
    complex = embedding.carrier
    cells, sizes, signs = simplex_table(complex)
    fractions = exact_cone_fractions(embedding.matrix(), cells, sizes)
    filled = np.arange(cells.shape[1]) < sizes[:, None]
    n = len(embedding.vertex_order)
    values = np.bincount(cells[filled], weights=(signs[:, None] * fractions)[filled], minlength=n)
    return dict(zip(embedding.vertex_order, values.tolist()))
