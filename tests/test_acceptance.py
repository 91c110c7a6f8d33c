"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Tolerances are fixed here, not calibrated elsewhere:
exact-arithmetic criteria assert equality, Monte Carlo criteria use the
reported error bounds (4 sigma), and discretization criteria use the
stated absolute tolerances.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from curvcalc.adiabatic import curvature_density, nonsplit_demo, profile
from curvcalc.complexes import (
    PLFunction,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    constant_function,
    product,
    signature_barycenter_sums,
    signature_census,
)
from curvcalc.curvature import (
    Embedding,
    curvature_measure,
    equilateral_embedding,
    final_integral,
    gauss_bonnet_check,
)
from curvcalc.errors import MissingFace
from curvcalc.euler import (
    ConstructibleFunction,
    ceil_integral,
    euler_integral,
    floor_integral,
    tentative_integral,
    weights,
)
from curvcalc.morse import morse_curvature_measure
from curvcalc.pushforwards import check_functoriality, fubini_chi, fubini_curvature, pushforward
from curvcalc import fixtures

from euler_oracles import barycenter_sum


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}", flush=True)
        raise
    print(f"criterion {number:02d} PASS  {description}", flush=True)


def gauss_bonnet_fixtures():
    return [
        ("segment", *fixtures.segment(), 1),
        ("hollow polygon", *fixtures.square_boundary(), 0),
        ("filled triangle", *fixtures.filled_triangle(), 1),
        ("octahedron", *fixtures.octahedron(), 2),
        ("cone fan", *fixtures.cone_fan(), 1),
        ("three-page book", *fixtures.book(3), 1),
    ]


def all_simplicial_maps(source, target):
    maps = []
    for values in itertools.product(target.vertices, repeat=len(source.vertices)):
        vm = dict(zip(source.vertices, values))
        try:
            maps.append(SimplicialMap(source, target, vm))
        except MissingFace:
            continue
    return maps


def test_criterion_01_floor_and_ceiling_integrals():
    with criterion(1, "floor/ceiling closed forms on the identity over [0,1]"):
        X = SimplicialComplex.from_maximal([(0, 1)])
        alpha = PLFunction(X, {0: 0, 1: 1})
        floor_integral(alpha)  # warm the code paths before timing
        start = time.perf_counter()
        lower = floor_integral(alpha)
        upper = ceil_integral(alpha)
        elapsed = time.perf_counter() - start
        assert lower == 1
        assert upper == 0
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_02_tentative_integral_values():
    with criterion(2, "alternating barycenter sums: edge and the split triangle"):
        X = SimplicialComplex.from_maximal([(0, 1)])
        assert tentative_integral(PLFunction(X, {0: 0, 1: 1})) == Fraction(1, 2)
        lam = Fraction(1, 3)
        _, extend = fixtures.lambda_split_triangle(lam)
        coefficients = (
            tentative_integral(extend(1, 0, 0)),
            tentative_integral(extend(0, 1, 0)),
            tentative_integral(extend(0, 0, 1)),
        )
        assert coefficients == (
            Fraction(1, 6),
            Fraction(1, 3) + lam / 6,
            Fraction(1, 2) - lam / 6,
        )


def test_criterion_03_subdivision_invariance_sweep():
    with criterion(3, "integral invariance under two barycentric subdivisions, 50 random complexes"):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        for _ in range(50):
            X = fixtures.random_complex(rng, max_vertices=8, max_dim=3)
            alpha = fixtures.random_rational_values(rng, X)
            value = tentative_integral(alpha)
            assert value == barycenter_sum(alpha)
            X1, alpha1 = barycentric_subdivide(X, alpha)
            assert tentative_integral(alpha1) == value == barycenter_sum(alpha1)
            _, alpha2 = barycentric_subdivide(X1, alpha1)
            assert tentative_integral(alpha2) == value
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_04_signature_identities():
    with criterion(4, "signature census multinomials (n <= 5) and group cancellation (n <= 4)"):
        for n in range(6):
            for sig, count in signature_census(n).items():
                expected = math.factorial(n + 1) // math.factorial(n + 1 - sum(sig))
                for part in sig:
                    expected //= math.factorial(part)
                assert count == expected
        for n in range(1, 5):
            sums = signature_barycenter_sums(n)
            zero = tuple([Fraction(0)] * (n + 1))
            checked = 0
            for sig, vec in sums.items():
                if sum(sig) == n + 1 and len(sig) > 1:
                    combined = tuple(a + b for a, b in zip(vec, sums[sig[:-1]]))
                    assert combined == zero
                    checked += 1
            assert checked > 0


def test_criterion_05_weights_equal_equilateral_curvature():
    with criterion(5, "vertex weights match exact and Monte Carlo curvature in the unit-edge metric"):
        start = time.perf_counter()
        rng = np.random.default_rng(55)
        for _ in range(20):
            X = fixtures.random_complex(rng, max_vertices=8)
            w = weights(X)
            kappa = curvature_measure(
                equilateral_embedding(X), method="mc", samples=100_000, seed=int(rng.integers(1 << 30))
            )
            exact = curvature_measure(equilateral_embedding(X), method="exact")
            for v in X.vertices:
                gap = abs(float(w[v]) - kappa[v].value)
                assert gap <= 4 * kappa[v].bound, (v, gap, kappa[v].bound)
                assert abs(float(w[v]) - exact[v].value) <= 1e-12, (v, exact[v])
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f} s"


def test_criterion_06_gauss_bonnet_on_all_fixtures():
    with criterion(6, "total curvature equals chi on six embedded fixtures (exact and MC)"):
        for name, X, emb, chi in gauss_bonnet_fixtures():
            assert X.euler_characteristic() == chi, name
            exact = gauss_bonnet_check(emb, method="exact")
            assert exact["discrepancy"] <= 1e-9, name
            estimate = gauss_bonnet_check(emb, method="mc", samples=100_000, seed=6)
            assert abs(estimate["sum_kappa"] - chi) <= 4 * max(estimate["bound"], 1e-12), name


def test_criterion_07_open_interval_boundary_example():
    with criterion(7, "signed compact pieces integrate the open interval to -1"):
        X, emb = fixtures.segment()
        left = SimplicialComplex([(0,)])
        right = SimplicialComplex([(1,)])
        value = final_integral(
            emb,
            [
                (X, constant_function(X, 1)),
                (left, PLFunction(left, {0: -1})),
                (right, PLFunction(right, {1: -1})),
            ],
        )
        assert abs(value.value - (-1.0)) <= 1e-9
        assert value.bound == 0.0


def test_criterion_08_normal_cone_vs_morse_average():
    with criterion(8, "normal-cone and Morse-average curvatures agree on every fixture vertex"):
        for name, X, emb, _ in gauss_bonnet_fixtures():
            cone = curvature_measure(emb, method="mc", samples=100_000, seed=81)
            morse = morse_curvature_measure(emb, samples=100_000, seed=82)
            for v in X.vertices:
                joint = math.hypot(cone[v].bound, morse[v].bound)
                gap = abs(cone[v].value - morse[v].value)
                assert gap <= 4 * max(joint, 1e-12), (name, v, gap, joint)


def test_criterion_09_pushforward_sweep():
    with criterion(9, "fiber integration: exhaustive small-map sweep and the projection example"):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        menagerie = fixtures.small_complex_menagerie()
        random_count = 0
        for source, target in itertools.product(menagerie, repeat=2):
            for f in all_simplicial_maps(source, target):
                cells = sorted(source.simplices)
                picks = rng.integers(0, len(cells), size=min(3, len(cells)))
                s = ConstructibleFunction(
                    source,
                    {
                        cells[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                        for i in picks
                    },
                )
                assert euler_integral(pushforward(f, s)) == euler_integral(s)
                random_count += 1
        assert random_count >= 100

        edge = SimplicialComplex.from_maximal([(0, 1)])
        path = fixtures.path_complex(2)
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        for g in all_simplicial_maps(tri, path):
            s = ConstructibleFunction.ones(tri)
            for f in all_simplicial_maps(path, edge):
                assert check_functoriality(f, g, s)

        projection, _ = fixtures.octahedron_to_path()
        fs = pushforward(projection, ConstructibleFunction.ones(projection.source))
        assert euler_integral(fs) == 2
        assert fs.coefficients == {(0,): Fraction(1), (2,): Fraction(1)}
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_10_fubini_identities():
    with criterion(10, "product integrals: exact chi triples and the curvature product rule"):
        rng = np.random.default_rng(10)
        edge = SimplicialComplex.from_maximal([(0, 1)])
        tri = SimplicialComplex.from_maximal([(0, 1, 2)])
        hollow = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
        for left, right in ((hollow, edge), (edge, tri), (tri, hollow)):
            carrier = product(left, right)
            cells = sorted(carrier.cells(), key=repr)
            for _ in range(5):
                s = ConstructibleFunction(
                    carrier,
                    {
                        cells[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                        for i in rng.integers(0, len(cells), size=6)
                    },
                )
                direct, first, second = fubini_chi(s)
                assert direct == first == second

        _, ex = fixtures.segment()
        for rows, quarter in (
            (fubini_curvature(ex, ex, samples=100_000, seed=101), True),
            (fubini_curvature(ex, Embedding(tri, {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0]}), samples=100_000, seed=102), False),
        ):
            for row in rows:
                gap = abs(row["kappa_product"] - row["kappa_factor_product"])
                assert gap <= 4 * max(row["joint_bound"], 1e-12), row
                if quarter:
                    assert row["kappa_factor_product"] == pytest.approx(0.25, abs=1e-12)


def test_criterion_11_adiabatic_limit_on_the_round_profile():
    with criterion(11, "shrinking fibers: mass transfer on the round two-pole profile"):
        start = time.perf_counter()
        warp = profile("sphere", grid=10_000)
        for eps in (0.0, 0.5, 0.9, 0.99):
            measure = curvature_density(warp, eps)
            assert abs(measure.total - 2.0) <= 1e-6, eps
            assert abs(measure.interior_mass - 2 * (1 - eps)) <= 1e-4, eps
            assert abs(measure.atom_start - eps) <= 1e-6, eps
            assert abs(measure.atom_end - eps) <= 1e-6, eps
        demo = nonsplit_demo(warp)
        assert demo["pushforward_density_support"] > 0
        assert demo["base_measure"]["interior"] == 0.0
        assert demo["base_measure"]["atom_start"] == 0.5
        assert not demo["absolutely_continuous"]
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.1f} s"
