"""The three benchmark workloads: inputs from a seed, one job runner, and
oracles that do not depend on the code under test.

Each workload exposes

    generate(seed, workdir) -> (batch, warm-up job)
    prepare(spec)           -> the job's input object (untimed)
    run(spec, input)        -> the job's result (timed)
    check(job, result)      -> list of oracle failures (untimed)
    corrupt(job, result)    -> [(label, wrong result)] for the self-test

A Job's ``spec`` is plain JSON data, so a fresh interpreter can rebuild the
warm-up job when set-up time is measured.

Job sizes are drawn from size bands that do not depend on the seed: the
seed picks which complexes, vertex values, jitter and Monte Carlo streams a
run sees, the bands fix how much work a batch holds, so runs on different
seeds measure the same amount of work. The size of a barycentric
subdivision depends only on the f-vector of what is subdivided, which lets
the generators test a band before building anything large.
"""

import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Library functions are looked up on their modules at call time, never
# imported by name, so the tracer's wrappers see every call a job makes.
from curvcalc import cli, complexes, curvature, euler, fixtures, morse, pushforwards
from curvcalc import io as cc_io

from program import BenchmarkError

_MAX_DRAWS = 20_000


@dataclass
class Job:
    kind: str
    spec: object
    expected: object = None


# ---------------------------------------------------------------------------
# Combinatorics computed here, independently of curvcalc.complexes
# ---------------------------------------------------------------------------

def face_closure(maximal) -> set:
    closed = set()
    for top in maximal:
        top = tuple(sorted(top))
        for k in range(1, len(top) + 1):
            closed.update(itertools.combinations(top, k))
    return closed


def f_vector(simplices) -> list[int]:
    dim = max(len(s) for s in simplices) - 1
    counts = [0] * (dim + 1)
    for s in simplices:
        counts[len(s) - 1] += 1
    return counts


def euler_characteristic(simplices) -> int:
    return sum((-1) ** (len(s) - 1) for s in simplices)


def _surjections(n: int, k: int) -> int:
    """Ordered partitions of n things into k nonempty blocks, k! S(n, k)."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


def subdivided_f_vector(f: list[int]) -> list[int]:
    """f-vector of the barycentric subdivision: a d-simplex contributes one
    k-simplex per chain of k+1 faces ending at it."""
    out = [0] * len(f)
    for d, count in enumerate(f):
        for k in range(d + 1):
            out[k] += count * _surjections(d + 1, k + 1)
    return out


def maximal_simplices(simplices) -> list[tuple[int, ...]]:
    sets = [frozenset(s) for s in simplices]
    return sorted(
        tuple(sorted(s)) for s in sets if not any(s < t for t in sets)
    )


def _draw_complex(rng, max_vertices, accept):
    for _ in range(_MAX_DRAWS):
        x = fixtures.random_complex(rng, max_vertices=max_vertices, max_dim=3)
        if accept(f_vector(x.simplices)):
            return x
    raise BenchmarkError("no random complex fell in the size band")


# ---------------------------------------------------------------------------
# euler-subdiv: exact Euler calculus, no floats
# ---------------------------------------------------------------------------

class EulerSubdiv:
    name = "euler-subdiv"
    # (label, jobs per batch, band of simplex counts of sd^2 X). The bands
    # sit in the triangle-sized, one-tetrahedron and two-tetrahedra clusters
    # of random_complex(max_vertices=10); the mix puts the median inside the
    # middle band and the 90th percentile inside the top one.
    SLOTS = (("small", 6, (120, 260)), ("medium", 8, (2745, 2770)), ("large", 4, (5369, 5495)))
    # Every vertex value is n/840 with n coprime to 840 = lcm(1..8): the
    # seed picks n, while the size of the fractions, which sets the cost of
    # Fraction arithmetic, is the same in every run.
    DENOMINATOR = 840

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        batch = [
            self._job(rng, label, band)
            for label, count, band in self.SLOTS
            for _ in range(count)
        ]
        return batch, self._job(rng, "small", self.SLOTS[0][2])

    def _job(self, rng, label, band):
        lo, hi = band
        x = _draw_complex(
            rng, 10, lambda f: lo <= sum(subdivided_f_vector(subdivided_f_vector(f))) <= hi
        )
        tops = maximal_simplices(x.simplices)
        lines = ["curvcalc-complex v1", "vertices"]
        lines += [f"v{v} alpha={self._numerator(rng)}/{self.DENOMINATOR}" for v in x.vertices]
        lines.append("simplices")
        lines += [" ".join(f"v{v}" for v in top) for top in tops]
        closed = face_closure(tops)
        expected = {
            "chi": euler_characteristic(closed),
            "sd2_size": sum(subdivided_f_vector(subdivided_f_vector(f_vector(closed)))),
        }
        return Job(label, "\n".join(lines) + "\n", expected)

    def _numerator(self, rng):
        while True:
            n = int(rng.integers(-12 * self.DENOMINATOR, 12 * self.DENOMINATOR + 1))
            if math.gcd(n, self.DENOMINATOR) == 1:
                return n

    def prepare(self, spec):
        return spec

    def run(self, spec, text):
        doc = cc_io.parse_complex(text)
        x, alpha = doc.complex, doc.alpha
        sd1, alpha1 = complexes.barycentric_subdivide(x, alpha)
        sd2, alpha2 = complexes.barycentric_subdivide(sd1, alpha1)
        integrals = {
            kind: (fn(alpha), fn(alpha2))
            for kind, fn in (
                ("floor", euler.floor_integral),
                ("ceil", euler.ceil_integral),
                ("tentative", euler.tentative_integral),
            )
        }
        weights = euler.weights(sd2)
        # The vertices of sd^2 X are the simplices of sd X; sending each to
        # its last vertex is simplicial sd^2 X -> sd X.
        last_vertex = {
            i: s[-1] for i, s in enumerate(complexes.subdivision_vertex_simplices(sd1))
        }
        collapse = complexes.SimplicialMap(sd2, sd1, last_vertex)
        pushed = pushforwards.pushforward(collapse, euler.ConstructibleFunction.ones(sd2))
        return {
            "integrals": integrals,
            "weights": weights,
            "alpha2": alpha2.values,
            "pushed_integral": euler.euler_integral(pushed),
            "sd2_size": len(sd2),
        }

    def check(self, job, result):
        failures = []
        for kind, (on_x, on_sd2) in result["integrals"].items():
            if on_x != on_sd2:
                failures.append(f"{kind} integral changed under subdivision: {on_x} -> {on_sd2}")
        weighted = sum(
            (result["alpha2"][v] * w for v, w in result["weights"].items()), Fraction(0)
        )
        if weighted != result["integrals"]["tentative"][1]:
            failures.append("tentative integral differs from the weighted vertex sum")
        if result["pushed_integral"] != job.expected["chi"]:
            failures.append(
                f"pushforward integral {result['pushed_integral']} != chi {job.expected['chi']}"
            )
        if result["sd2_size"] != job.expected["sd2_size"]:
            failures.append(f"sd^2 has {result['sd2_size']} simplices, expected {job.expected['sd2_size']}")
        return failures

    def corrupt(self, job, result):
        def altered(**changes):
            return {**result, **changes}

        integrals = result["integrals"]
        floor_x, floor_sd2 = integrals["floor"]
        tent_x, tent_sd2 = integrals["tentative"]
        # a wrong weight shows only where alpha is nonzero
        a_vertex = next(v for v, a in result["alpha2"].items() if a)
        return [
            ("floor", altered(integrals={**integrals, "floor": (floor_x, floor_sd2 - 1)})),
            ("tentative", altered(integrals={**integrals, "tentative": (tent_x + Fraction(1, 7), tent_sd2)})),
            ("weight", altered(weights={**result["weights"], a_vertex: result["weights"][a_vertex] + 1})),
            ("pushforward", altered(pushed_integral=result["pushed_integral"] + 1)),
        ]

    def broken_spec(self, spec):
        return spec.replace("simplices", "simplices\nv0 nosuchvertex", 1)


# ---------------------------------------------------------------------------
# cli-exact: exact curvature through the command-line front end
# ---------------------------------------------------------------------------

_TOLERANCE = 1e-9
_JITTER = 0.05
# Euler characteristic of each built-in surface of revolution: two poles,
# a tube, a pole and a boundary circle, a torus, a band.
_PROFILE_CHI = {"sphere": 2, "cylinder": 0, "cone": 1, "torus": 0, "paraboloid": 0}


class CliExact:
    name = "cli-exact"
    # (fixture, deepest subdivision). sd^3 of the solid tetrahedron has
    # 61,649 simplices and takes seconds per job, so its ladder stops at 2.
    LADDERS = (
        ("octahedron", 3),
        ("cone_fan", 3),
        ("book", 3),
        ("solid_tetrahedron", 2),
    )

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        batch = []
        for fixture, depth in self.LADDERS:
            x, embedding = getattr(fixtures, fixture)()
            coords = {v: np.asarray(embedding.coordinates[v]) for v in x.vertices}
            for level in range(1, depth + 1):
                parents = complexes.subdivision_vertex_simplices(x)
                x, _ = complexes.barycentric_subdivide(x)
                coords = {i: np.mean([coords[u] for u in s], axis=0) for i, s in enumerate(parents)}
                path = os.path.join(workdir, f"{fixture}-sd{level}.txt")
                expected = self._write_complex(rng, x, coords, path)
                batch.append(Job("gauss-bonnet", ["gauss-bonnet-check", path, "--method", "exact"], expected))
                batch.append(
                    Job("curvature", ["curvature", path, "--method", "exact", "--format", "json"], expected)
                )
                if fixture == "book" and level == 1:
                    warmup = batch[-1]
        for name, chi in _PROFILE_CHI.items():
            eps = ",".join(repr(float(e)) for e in np.sort(rng.uniform(0.0, 0.99, size=4)))
            argv = ["adiabatic", "--profile", name, "--eps", eps, "--nonsplit", "--format", "json"]
            batch.append(Job("adiabatic", argv, {"chi": chi, "n_eps": 4}))
        return batch, warmup

    @staticmethod
    def _write_complex(rng, x, coords, path):
        tops = [tuple(s) for s in x.simplices_of_dim(x.dim)]
        points = np.array([coords[v] for v in x.vertices])
        edges = np.array(sorted({e for top in tops for e in itertools.combinations(top, 2)}))
        shortest = float(np.min(np.linalg.norm(points[edges[:, 0]] - points[edges[:, 1]], axis=1)))
        jitter = rng.uniform(-1.0, 1.0, size=points.shape) * (_JITTER * shortest / math.sqrt(3))
        moved = points + jitter
        names = [f"b{v}" for v in x.vertices]
        lines = ["curvcalc-complex v1", "vertices"]
        lines += [" ".join([name, *map(repr, map(float, p))]) for name, p in zip(names, moved)]
        lines.append("simplices")
        lines += [" ".join(names[v] for v in top) for top in tops]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        expected = {"chi": euler_characteristic(face_closure(tops)), "names": names}
        if x.dim == 2:
            expected["kappa"] = dict(zip(names, _angle_curvature(moved, np.array(tops), edges)))
        else:
            # Banchoff: a vertex inside a 3-manifold has curvature 0. The
            # fixture is the corner simplex, so inside means every
            # barycentric coordinate of the unjittered point is positive.
            barycentric = np.column_stack([1.0 - points.sum(axis=1), points])
            inside = barycentric.min(axis=1) > 1e-9
            expected["interior"] = [n for n, flag in zip(names, inside) if flag]
        return expected

    def prepare(self, spec):
        return spec

    def run(self, spec, argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(argv), stdout=out, stderr=err)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, job, result):
        if result["code"] != 0:
            return [f"exit code {result['code']}: {result['stderr'].strip()}"]
        try:
            out = json.loads(result["stdout"])
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        expected = job.expected
        chi = expected["chi"]
        failures = []
        if job.kind == "gauss-bonnet":
            for key in ("sum_kappa", "final_integral"):
                if not abs(out[key] - chi) <= _TOLERANCE:
                    failures.append(f"{key} {out[key]} != chi {chi}")
            if out["chi"] != chi:
                failures.append(f"reported chi {out['chi']} != {chi}")
        elif job.kind == "curvature":
            kappa = {name: row["kappa"] for name, row in out.items()}
            if sorted(kappa) != sorted(expected["names"]):
                return ["curvature output does not list every vertex once"]
            total = math.fsum(kappa.values())
            if not abs(total - chi) <= _TOLERANCE:
                failures.append(f"sum of kappa {total} != chi {chi}")
            for name, value in expected.get("kappa", {}).items():
                if not abs(kappa[name] - value) <= _TOLERANCE:
                    failures.append(f"kappa({name}) {kappa[name]} != angle formula {value}")
            for name in expected.get("interior", ()):
                if not abs(kappa[name]) <= _TOLERANCE:
                    failures.append(f"interior vertex {name} has kappa {kappa[name]}")
        else:
            rows = out["results"]
            if len(rows) != expected["n_eps"] or "nonsplit" not in out:
                failures.append("adiabatic output is missing rows or the nonsplit report")
            for row in rows:
                if not abs(row["total"] - chi) <= _TOLERANCE:
                    failures.append(f"total {row['total']} at eps {row['eps']} != chi {chi}")
        return failures

    def corrupt(self, job, result):
        out = json.loads(result["stdout"])
        if job.kind == "gauss-bonnet":
            out["sum_kappa"] += 1e-6
        elif job.kind == "curvature":
            out[next(iter(out))]["kappa"] += 1e-6
        else:
            out["results"][-1]["total"] += 1e-6
        return [
            (f"{job.kind} value", {**result, "stdout": json.dumps(out)}),
            (f"{job.kind} exit code", {**result, "code": 2}),
        ]

    def broken_spec(self, spec):
        return [*spec, "--samples", "0"]


def _angle_curvature(points, triangles, edges):
    """kappa(v) = 1 - E_v / 2 + sum over triangles T at v of
    (pi - theta_T(v)) / 2 pi, from arccos corner angles."""
    kappa = np.ones(len(points))
    kappa -= np.bincount(edges.ravel(), minlength=len(points)) / 2.0
    for corner in range(3):
        a = triangles[:, corner]
        b = triangles[:, (corner + 1) % 3]
        c = triangles[:, (corner + 2) % 3]
        u = points[b] - points[a]
        w = points[c] - points[a]
        cos = np.einsum("ij,ij->i", u, w) / (np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        theta = np.arccos(np.clip(cos, -1.0, 1.0))
        np.add.at(kappa, a, (math.pi - theta) / (2.0 * math.pi))
    return kappa.tolist()


# ---------------------------------------------------------------------------
# curv-mc: Monte Carlo curvature as library users run it
# ---------------------------------------------------------------------------

_SIGMAS = 6.0


class CurvMc:
    name = "curv-mc"
    SAMPLES = 20_000
    # Random complexes with at most 8 vertices whose cone-kernel slot count
    # (sum of simplex sizes) lies in 40..45, and first subdivisions whose
    # link simplices (the lower-link kernel's rows, which set its largest
    # temporary) number 740..760: 289-298 simplices in R^25-R^30. The
    # small jobs hold the median, the subdivided ones the 90th percentile.
    SMALL = (8, (40, 45))
    SUBDIVIDED = (2, (740, 760))
    PRODUCTS = (
        ("segment", "segment"),
        ("segment", "hollow_triangle"),
        ("filled_triangle", "segment"),
        ("square_boundary", "segment"),
    )

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n_small, (small_lo, small_hi) = self.SMALL
        n_sd, (sd_lo, sd_hi) = self.SUBDIVIDED

        def small(f):
            return small_lo <= sum((d + 1) * n for d, n in enumerate(f)) <= small_hi

        def subdividable(f):
            sd = subdivided_f_vector(f)
            return sd_lo <= sum((k + 1) * n for k, n in enumerate(sd) if k > 0) <= sd_hi

        batch = []
        for _ in range(n_small):
            batch.extend(self._measure_jobs(rng, _draw_complex(rng, 8, small), subdivide=False))
        for _ in range(n_sd):
            batch.extend(self._measure_jobs(rng, _draw_complex(rng, 8, subdividable), subdivide=True))
        for left, right in self.PRODUCTS:
            spec = {"kind": "fubini", "left": left, "right": right,
                    "samples": self.SAMPLES, "seed": int(rng.integers(2**31))}
            batch.append(Job("fubini", spec))
        return batch, self._measure_jobs(rng, _draw_complex(rng, 8, small), subdivide=False)[0]

    def _measure_jobs(self, rng, x, subdivide):
        tops = [list(s) for s in maximal_simplices(x.simplices)]
        jobs = []
        for kind in ("mc", "morse"):
            spec = {"kind": kind, "maximal": tops, "subdivide": subdivide,
                    "samples": self.SAMPLES, "seed": int(rng.integers(2**31))}
            target = self.prepare(spec)
            expected = {v: float(w) for v, w in euler.weights(target).items()}
            jobs.append(Job(kind, spec, expected))
        return jobs

    def prepare(self, spec):
        if spec["kind"] == "fubini":
            return getattr(fixtures, spec["left"])()[1], getattr(fixtures, spec["right"])()[1]
        x = complexes.SimplicialComplex.from_maximal(tuple(s) for s in spec["maximal"])
        if spec["subdivide"]:
            x, _ = complexes.barycentric_subdivide(x)
        return x

    def run(self, spec, target):
        samples, seed = spec["samples"], spec["seed"]
        if spec["kind"] == "fubini":
            return pushforwards.fubini_curvature(*target, samples=samples, seed=seed)
        embedding = curvature.equilateral_embedding(target)
        if spec["kind"] == "mc":
            return curvature.curvature_measure(embedding, method="mc", samples=samples, seed=seed)
        return morse.morse_curvature_measure(embedding, samples=samples, seed=seed)

    def check(self, job, result):
        # Never compare with stored MC outputs: they depend on batch_size.
        if job.kind == "fubini":
            return [
                f"product vertex {row['vertex']}: {row['kappa_product']} vs factor product "
                f"{row['kappa_factor_product']} exceeds {_SIGMAS:g} x joint bound {row['joint_bound']}"
                for row in result
                if not abs(row["kappa_product"] - row["kappa_factor_product"])
                <= _SIGMAS * row["joint_bound"]
            ]
        if sorted(result) != sorted(job.expected):
            return ["estimate does not cover every vertex once"]
        return [
            f"vertex {v}: {est.value} vs weight {job.expected[v]} exceeds {_SIGMAS:g} x bound {est.bound}"
            for v, est in result.items()
            if not abs(est.value - job.expected[v]) <= _SIGMAS * est.bound + 1e-12
        ]

    def corrupt(self, job, result):
        if job.kind == "fubini":
            row = result[0]
            bad = {**row, "kappa_product": row["kappa_product"] + 2 * _SIGMAS * row["joint_bound"] + 1.0}
            return [("fubini product curvature", [bad, *result[1:]])]
        v, est = next(iter(result.items()))
        bad = est._replace(value=est.value + 2 * _SIGMAS * est.bound + 1.0)
        return [(f"{job.kind} estimate", {**result, v: bad})]

    def broken_spec(self, spec):
        return {**spec, "samples": 0}


WORKLOADS = {w.name: w for w in (EulerSubdiv(), CliExact(), CurvMc())}
