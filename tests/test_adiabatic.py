import math

import numpy as np
import pytest

from curvcalc.adiabatic import (
    WarpFunction,
    adiabatic_sweep,
    curvature_density,
    load_profile_csv,
    nonsplit_demo,
    profile,
)
from curvcalc.errors import GridTooCoarse, NegativeWarp

EPS_GRID = (0.0, 0.5, 0.9, 0.99)


class TestWarpValidation:
    def test_too_few_points(self):
        with pytest.raises(GridTooCoarse):
            WarpFunction(np.linspace(0, 1, 4), np.ones(4))

    def test_negative_values(self):
        t = np.linspace(0, 1, 16)
        with pytest.raises(NegativeWarp):
            WarpFunction(t, t - 0.5)

    def test_interior_zero(self):
        t = np.linspace(-1, 1, 17)
        with pytest.raises(NegativeWarp):
            WarpFunction(t, np.abs(t))

    def test_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        with pytest.raises(ValueError):
            WarpFunction(t, np.ones(5))

    def test_periodic_must_wrap(self):
        t = np.linspace(0, 1, 16)
        with pytest.raises(ValueError):
            WarpFunction(t, 1.0 + t, periodic=True)

    @pytest.mark.parametrize(
        "t, f, periodic",
        [
            (np.linspace(0, 1, 6), [1, np.nan, 1, 1, 1, 1], False),
            (np.linspace(0, 1, 6), [1, 1, np.inf, 1, 1, 1], True),
            (np.linspace(0, 1, 6), [1, 1, 1, 1, 1, -np.inf], False),
            ([0, 0.2, np.nan, 0.6, 0.8, 1], np.ones(6), False),
        ],
    )
    def test_non_finite_samples(self, t, f, periodic):
        with pytest.raises(ValueError, match="finite"):
            WarpFunction(t, f, periodic=periodic)

    def test_grid_argument(self):
        with pytest.raises(GridTooCoarse):
            profile("sphere", grid=4)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile("mystery")

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            curvature_density(profile("cylinder", 64), 1.0)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_uniformity_is_relative_to_the_step(self, scale):
        # one doubled step is a nonuniform grid in any unit of t
        with pytest.raises(ValueError, match="grid must be uniform"):
            WarpFunction(scale * np.array([0.0, 1, 3, 4, 5, 6]), np.ones(6))

    @pytest.mark.parametrize("name", ["sphere", "cylinder", "cone", "torus", "paraboloid"])
    def test_built_in_profiles_are_uniform(self, name):
        for grid in (5, 64, 4096):
            assert profile(name, grid).step > 0

    def test_linspace_far_from_zero_is_uniform(self):
        # the steps of a linspace differ by the rounding of t, ulps of 1e6
        t = np.linspace(1e6, 1e6 + 1, 4096)
        assert WarpFunction(t, np.ones_like(t)).step == pytest.approx(1 / 4095)


@pytest.fixture(scope="module")
def warp():
    return profile("sphere", grid=10_000)


class TestSphere:
    """Round profile with two poles: everything has a closed form."""

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_total_mass_is_two(self, warp, eps):
        assert curvature_density(warp, eps).total == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_interior_mass_shrinks_linearly(self, warp, eps):
        m = curvature_density(warp, eps)
        assert m.interior_mass == pytest.approx(2 * (1 - eps), abs=1e-4)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_pole_atoms_absorb_the_mass(self, warp, eps):
        m = curvature_density(warp, eps)
        assert m.atom_start == pytest.approx(eps, abs=1e-6)
        assert m.atom_end == pytest.approx(eps, abs=1e-6)

    def test_density_matches_cosine(self, warp):
        m = curvature_density(warp, 0.25)
        interior = slice(1, -1)
        expected = 0.75 * np.cos(warp.t[interior])
        assert np.max(np.abs(m.density[interior] - expected)) < 1e-6

    def test_total_mass_conservation_across_eps(self, warp):
        totals = [curvature_density(warp, eps).total for eps in EPS_GRID]
        assert max(totals) - min(totals) < 1e-8

    def test_density_sup_norm_vanishes_linearly(self, warp):
        sups = [
            np.max(np.abs(curvature_density(warp, eps).density)) for eps in EPS_GRID
        ]
        ratios = [s / (1 - eps) for s, eps in zip(sups, EPS_GRID)]
        assert max(ratios) - min(ratios) < 1e-9

    def test_discretization_error_is_second_order(self):
        errors = []
        for grid in (500, 1000, 2000):
            m = curvature_density(profile("sphere", grid), 0.5)
            errors.append(abs(m.atom_start - 0.5))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


class TestOtherProfiles:
    def test_flat_cylinder_is_massless(self):
        w = profile("cylinder", 512)
        for eps in EPS_GRID:
            m = curvature_density(w, eps)
            assert m.total == pytest.approx(0.0, abs=1e-12)
            assert m.atom_start == pytest.approx(0.0, abs=1e-12)
            assert np.max(np.abs(m.density)) == pytest.approx(0.0, abs=1e-9)

    def test_flat_cone_is_a_disk(self):
        w = profile("cone", 512)
        m = curvature_density(w, 0.0)
        # slope-1 pole: no defect; all the mass is the boundary turn
        assert m.atom_start == pytest.approx(0.0, abs=1e-9)
        assert m.atom_end == pytest.approx(1.0, abs=1e-9)
        assert m.total == pytest.approx(1.0, abs=1e-9)
        assert w.surface_euler_characteristic() == 1

    def test_torus_profile_cancels_over_a_period(self):
        w = profile("torus", 2048)
        for eps in (0.0, 0.7):
            m = curvature_density(w, eps)
            assert m.total == 0.0
            assert m.atom_start == 0.0
            # the wrapped second differences telescope: the mass is +0.0
            assert math.copysign(1.0, m.interior_mass) == 1.0 and m.interior_mass == 0.0
            assert abs(math.fsum(m.density[:-1]) * w.step) < 1e-9

    def test_paraboloid_band_has_signed_density(self):
        w = profile("paraboloid", 512)
        m = curvature_density(w, 0.0)
        assert np.all(m.density[1:-1] < 0)
        assert m.total == pytest.approx(0.0, abs=1e-9)


class TestSweepAndReports:
    def test_sweep_summary(self):
        w = profile("sphere", 2000)
        report = adiabatic_sweep(w, EPS_GRID)
        assert report["chi"] == 2
        assert len(report["rows"]) == len(EPS_GRID)
        assert "limit_ambiguity" in report
        totals = [r["total"] for r in report["rows"]]
        assert max(totals) - min(totals) < 1e-8

    def test_cylinder_sweep_has_no_ambiguity_flag(self):
        report = adiabatic_sweep(profile("cylinder", 64), (0.0, 0.5))
        assert "limit_ambiguity" not in report

    def test_nonsplit_sphere(self):
        demo = nonsplit_demo(profile("sphere", 2000))
        assert demo["pushforward_density_support"] > 3.0
        assert demo["base_measure"]["atom_start"] == 0.5
        assert demo["base_measure"]["atom_end"] == 0.5
        assert demo["base_measure"]["interior"] == 0.0
        assert not demo["absolutely_continuous"]

    def test_nonsplit_cylinder_raises_no_alarm(self):
        demo = nonsplit_demo(profile("cylinder", 512))
        assert demo["pushforward_density_support"] == 0.0
        assert demo["absolutely_continuous"]

    def test_nonsplit_paraboloid_has_negative_density(self):
        w = profile("paraboloid", 512)
        demo = nonsplit_demo(w)
        assert demo["pushforward_density_support"] > 0.9
        m = curvature_density(w, 0.0)
        assert m.density[len(m.density) // 2] == pytest.approx(-2.0, abs=1e-6)


class TestCsvProfiles:
    def test_load_plain(self):
        t = np.linspace(0.0, 1.0, 64)
        text = "\n".join(f"{a},{1.0 + a}" for a in t)
        w = load_profile_csv(text)
        assert not w.periodic
        assert w.f[0] == 1.0

    def test_load_periodic_header(self):
        t = np.linspace(0.0, 2 * math.pi, 64)
        lines = ["t,f,periodic"] + [f"{a},{2.0 + math.cos(a)}" for a in t]
        w = load_profile_csv("\n".join(lines))
        assert w.periodic
        assert curvature_density(w, 0.3).total == 0.0
