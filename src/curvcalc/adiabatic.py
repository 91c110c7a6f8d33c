"""Curvature measures of surfaces of revolution and their base-interval
pushforwards, with fiber circles shrunk by a factor (1 - eps).

A warp function f > 0 on [a, b] determines the metric dt^2 + (c f)^2
dtheta^2 with c = 1 - eps. Its Gauss curvature is -f''/f independently of
c, so the pushforward of the normalized curvature measure onto the base
has interior density -c f''(t); a pole (f = 0 at an end) carries a
cone-defect atom 1 - c f'(pole), and a boundary circle carries the
normalized geodesic-curvature atom c f'(boundary) with the outward
orientation. As eps -> 1 the interior density dies linearly and the
atoms absorb the mass, while the total stays equal to the Euler
characteristic fixed by the end conditions.

Discretization: pointwise densities use central second differences; the
interior mass uses the telescoped difference of the same second-order
one-sided derivative estimates that feed the atoms (on a periodic grid
the wrapped differences telescope to 0), so the total mass is conserved
exactly across eps and discrete Gauss-Bonnet is exact. The one-sided
estimates themselves converge at O(grid^-2), which is what the accuracy
tests measure.
"""

import csv
import io as _io
import math
from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex
from .curvature import Embedding, curvature_measure
from .errors import GridTooCoarse, NegativeWarp, ParseError

POLE_TOLERANCE = 1e-12  # relative to the profile's largest value, as every tolerance on f
# A float array over the grid takes 8 * grid bytes, and each eps holds
# about five of them (t, f, the second differences, the density and a
# temporary): 2**22 points keep that near 160 MiB.
MAX_GRID = 2**22


@dataclass(frozen=True)
class WarpFunction:
    """Samples of a warp profile on a uniform grid.

    For periodic profiles the last sample must repeat the first; the two
    grid ends are then identified and there are no atoms. Values are
    compared with tolerances relative to the largest one, so a profile
    and its multiples are accepted alike and have the same poles.
    """

    t: np.ndarray
    f: np.ndarray
    periodic: bool = False

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f", f)
        if t.ndim != 1 or t.shape != f.shape:
            raise ValueError("t and f must be 1-d arrays of equal length")
        if len(t) < 5:
            raise GridTooCoarse(f"need at least 5 grid points, got {len(t)}")
        if not (np.isfinite(t).all() and np.isfinite(f).all()):
            raise ValueError("t and f must be finite")
        with np.errstate(over="ignore"):  # a step beyond the float range is no uniform step
            steps = np.diff(t)
        if np.any(steps <= 0):
            raise ValueError("grid must be strictly increasing")
        h = steps[0]
        # relative to h, with room for the rounding of t: a few ulps of its
        # largest entry, a bound that stays finite up to the float limit
        tolerance = 1e-9 * h + 4 * np.finfo(float).eps * np.abs(t).max()
        if not np.isfinite(steps).all() or np.any(np.abs(steps - h) > tolerance):
            raise ValueError("grid must be uniform")
        if np.any(f < 0):
            raise NegativeWarp("warp values must be nonnegative")
        object.__setattr__(self, "_pole_level", POLE_TOLERANCE * float(f.max()))
        if np.any(f[1:-1] <= self._pole_level):
            raise NegativeWarp("warp values must be positive on the open interval")
        if self.periodic:
            if abs(f[0] - f[-1]) > 1e-9 * f.max():
                raise ValueError("periodic profile must repeat its first value")
            if f[0] <= self._pole_level:
                raise NegativeWarp("periodic profile cannot vanish")

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])

    def pole_at_start(self) -> bool:
        return not self.periodic and self.f[0] < self._pole_level

    def pole_at_end(self) -> bool:
        return not self.periodic and self.f[-1] < self._pole_level

    def derivative_start(self) -> float:
        """Second-order one-sided df/dt at the left end."""
        f, h = self.f, self.step
        return float((-3 * f[0] + 4 * f[1] - f[2]) / (2 * h))

    def derivative_end(self) -> float:
        f, h = self.f, self.step
        return float((3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h))

    def surface_euler_characteristic(self) -> int:
        """2 for two poles, 1 for pole plus boundary, 0 otherwise."""
        return int(self.pole_at_start()) + int(self.pole_at_end())


@dataclass(frozen=True)
class BaseMeasure:
    """A measure on the base interval: a gridded interior density plus
    atoms at the two ends."""

    t: np.ndarray
    density: np.ndarray
    atom_start: float
    atom_end: float
    interior_mass: float
    eps: float

    @property
    def total(self) -> float:
        return self.interior_mass + self.atom_start + self.atom_end


def _second_differences(w: WarpFunction) -> np.ndarray:
    f, h = w.f, w.step
    d2 = np.empty_like(f)
    d2[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / (h * h)
    if w.periodic:
        d2[0] = (f[1] - 2 * f[0] + f[-2]) / (h * h)
        d2[-1] = d2[0]
    else:
        d2[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        d2[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return d2


def curvature_density(w: WarpFunction, eps: float) -> BaseMeasure:
    """Pushforward of the normalized curvature measure of the surface
    with fibers scaled by (1 - eps); ValueError where the density, an
    atom or the total mass is not a finite float."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    measure = _curvature_density(w, eps)
    if not (np.isfinite(measure.density).all() and math.isfinite(measure.total)):
        raise ValueError(f"the curvature at eps={eps} leaves the float range on this profile")
    return measure


@np.errstate(all="ignore")  # curvature_density refuses a non-finite result
def _curvature_density(w: WarpFunction, eps: float) -> BaseMeasure:
    c = 1.0 - eps
    density = -c * _second_differences(w)
    if w.periodic:
        # the wrapped second differences sum to 0: each f_i appears as +f twice and as -2f once
        return BaseMeasure(w.t, density, 0.0, 0.0, 0.0, eps)
    d_start = w.derivative_start()
    d_end = w.derivative_end()
    if w.pole_at_start():
        if d_start <= 0:
            raise ValueError("a pole needs a positive inward derivative")
        atom_start = 1.0 - c * d_start
    else:
        atom_start = -c * d_start  # outward direction at the left end is -t
    if w.pole_at_end():
        if -d_end <= 0:
            raise ValueError("a pole needs a positive inward derivative")
        atom_end = 1.0 - c * (-d_end)
    else:
        atom_end = c * d_end
    interior_mass = -c * (d_end - d_start)
    return BaseMeasure(w.t, density, atom_start, atom_end, interior_mass, eps)


def adiabatic_sweep(w: WarpFunction, eps_grid) -> dict:
    """curvature_density across an eps grid, with a mass bookkeeping
    summary per entry."""
    rows = []
    for eps in eps_grid:
        m = curvature_density(w, eps)
        rows.append(
            {
                "eps": float(eps),
                "interior_mass": m.interior_mass,
                "atom_start": m.atom_start,
                "atom_end": m.atom_end,
                "total": m.total,
                "density_sup": float(np.max(np.abs(m.density))),
            }
        )
    report = {
        "chi": w.surface_euler_characteristic(),
        "rows": rows,
    }
    if w.pole_at_start() or w.pole_at_end():
        # In the limit the pole atoms tend to 1 (the fiber over a pole is
        # a point with chi = 1), while the base interval's own curvature
        # atom at an endpoint is 1/2; the sweep reports the observed
        # limit and leaves the bookkeeping of that mismatch to the caller.
        report["limit_ambiguity"] = (
            "pole atoms converge to 1, not to chi(fiber) * base-atom = 1/2"
        )
    return report


def base_interval_measure(w: WarpFunction) -> dict:
    """The base's own curvature measure: atoms 1/2 at the two ends of an
    interval (computed from the 1-dimensional embedded complex), nothing
    for a periodic base."""
    if w.periodic:
        return {"atom_start": 0.0, "atom_end": 0.0, "interior": 0.0}
    segment = SimplicialComplex.from_maximal([(0, 1)])
    emb = Embedding(segment, {0: [float(w.t[0])], 1: [float(w.t[-1])]})
    kappa = curvature_measure(emb, method="exact")
    return {
        "atom_start": kappa[0].value,
        "atom_end": kappa[1].value,
        "interior": 0.0,
    }


def nonsplit_demo(w: WarpFunction) -> dict:
    """Exhibit the failure of absolute continuity: the pushforward
    density can be nonzero on a set of positive measure while the base's
    own curvature measure is purely atomic."""
    measure = curvature_density(w, 0.0)
    interior = measure.density[1:-1]
    # the rounding bound of a second difference: samples each within an
    # ulp of max f (eps * max f) and the two roundings of the sum move
    # f_{i-1} - 2 f_i + f_{i+1} by under 8 eps * max f; twice that, over h^2
    # (infinite where h^2 is subnormal, and then every finite density is 0)
    with np.errstate(over="ignore"):
        rounding = 16 * np.finfo(float).eps * float(w.f.max()) / w.step**2
    support = float(np.count_nonzero(np.abs(interior) > rounding) * w.step)
    base = base_interval_measure(w)
    return {
        "pushforward_density_support": support,
        "pushforward_atoms": {
            "start": measure.atom_start,
            "end": measure.atom_end,
        },
        "base_measure": base,
        "absolutely_continuous": support == 0.0,
    }


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

# name -> ((start, stop), warp f(t), periodic)
_PROFILES = {
    "sphere": ((-math.pi / 2, math.pi / 2), np.cos, False),
    "cylinder": ((0.0, 1.0), np.ones_like, False),
    "cone": ((0.0, 1.0), np.copy, False),
    "torus": ((0.0, 2 * math.pi), lambda t: 2.0 + np.cos(t), True),
    "paraboloid": ((0.0, 1.0), lambda t: 1.0 + t * t, False),
}


def profile(name: str, grid: int = 4096) -> WarpFunction:
    """Built-in warp profiles; `file:<path>` loads a two-column CSV
    (t, f) with an optional `periodic` marker in the header row."""
    if name.startswith("file:"):
        with open(name[5:], encoding="utf-8") as handle:
            return load_profile_csv(handle.read())
    if grid < 5:
        raise GridTooCoarse(f"grid must be at least 5, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r}; choose from {tuple(_PROFILES)} or file:<csv>")
    (start, stop), f, periodic = _PROFILES[name]
    t = np.linspace(start, stop, grid)
    return WarpFunction(t, f(t), periodic=periodic)


def load_profile_csv(text: str) -> WarpFunction:
    """Rows of (t, f); a non-numeric first row is a header, and a
    `periodic` cell in it marks the profile periodic. A malformed row
    raises ParseError with its 1-based line number."""
    reader = csv.reader(_io.StringIO(text))
    periodic = False
    data = []
    for row in reader:
        if not row:
            continue
        if reader.line_num == 1 and not _is_number(row[0]):
            periodic = any(cell.strip().lower() == "periodic" for cell in row)
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns (t, f), got {len(row)}", reader.line_num)
        try:
            point = (float(row[0]), float(row[1]))
        except ValueError:
            raise ParseError(f"non-numeric value in row {row!r}", reader.line_num) from None
        if not all(map(math.isfinite, point)):
            raise ParseError(f"non-finite value in row {row!r}", reader.line_num)
        data.append(point)
    t = np.array([p[0] for p in data])
    f = np.array([p[1] for p in data])
    return WarpFunction(t, f, periodic=periodic)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False
