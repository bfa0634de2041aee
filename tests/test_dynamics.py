import math

import numpy as np
import pytest

from dislodyn.geometry import Configuration, HalfPlane, Plane
from dislodyn.kernels_analytic import analytic_kernels
from dislodyn.mechanics import GlideSet, energy_from_arrays, mobility_glide
from dislodyn.dynamics import (BoundaryCollision, HorizonReached,
                               IntegrationParams, PairCollision,
                               corrected_collision_time, integrate)

TWO_PI = 2.0 * math.pi


def cfg(points, burgers):
    return Configuration.from_arrays(points, burgers)


class TestCorrectedTime:
    def test_boundary_formula(self):
        assert corrected_collision_time(0.0626, "boundary", 1e-3) == \
            pytest.approx(0.0626 + TWO_PI * 1e-6, abs=1e-15)

    def test_pair_formula(self):
        assert corrected_collision_time(0.3926, "pair", 1e-3) == \
            pytest.approx(0.3926 + 0.5 * math.pi * 1e-6, abs=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            corrected_collision_time(1.0, "nope", 1e-3)


class TestHalfPlaneSingle:
    def test_trajectory_tracks_closed_form(self):
        dom = HalfPlane.upper()
        traj = integrate(cfg([(0.0, 0.1)], [1]), dom, analytic_kernels(dom))
        T = TWO_PI * 0.01
        # height at T/2 from the dense output vs the closed form
        y_mid = traj.positions_at(T / 2)[0, 1]
        assert y_mid == pytest.approx(math.sqrt(0.005), abs=1e-6)
        assert abs(traj.states[:, 0, 0]).max() < 1e-14  # purely vertical

    def test_correction_is_exact_here(self):
        # the leading-order boundary law is exact in the half plane, so the
        # corrected time equals 2 pi delta^2 up to integrator tolerance
        dom = HalfPlane.upper()
        for eps in (1e-2, 1e-3):
            traj = integrate(cfg([(0.0, 0.1)], [1]), dom,
                             analytic_kernels(dom),
                             params=IntegrationParams(eps_stop=eps))
            assert traj.termination.corrected_time == pytest.approx(
                TWO_PI * 0.01, rel=1e-6)


class TestEventHandling:
    def test_disk_center_is_stationary(self, disk, disk_kernels):
        traj = integrate(cfg([(0.0, 0.0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(t_max=10.0))
        assert isinstance(traj.termination, HorizonReached)
        assert np.max(np.abs(traj.states)) < 1e-12

    def test_plane_equal_pair_reaches_horizon(self):
        dom = Plane()
        traj = integrate(cfg([(0.25, 0), (-0.25, 0)], [1, 1]), dom,
                         analytic_kernels(dom),
                         params=IntegrationParams(t_max=5.0))
        assert isinstance(traj.termination, HorizonReached)
        seps = [np.linalg.norm(s[0] - s[1]) for s in traj.states]
        assert all(b > a for a, b in zip(seps, seps[1:]))

    def test_earliest_event_wins(self, disk, disk_kernels):
        # close opposite pair deep inside: pair event fires, not boundary
        traj = integrate(cfg([(0.05, 0), (-0.05, 0)], [1, -1]), disk,
                         disk_kernels)
        assert isinstance(traj.termination, PairCollision)
        assert {traj.termination.i, traj.termination.j} == {0, 1}

    def test_boundary_event_reports_index_and_point(self, disk, disk_kernels):
        traj = integrate(cfg([(0.9, 0), (-0.2, 0)], [1, 1]), disk,
                         disk_kernels)
        term = traj.termination
        assert isinstance(term, BoundaryCollision)
        assert term.index == 0
        assert np.hypot(*term.boundary_point) == pytest.approx(1.0, abs=1e-9)

    def test_min_separation_precondition(self, disk, disk_kernels):
        with pytest.raises(ValueError):
            integrate(cfg([(0.99999, 0)], [1]), disk, disk_kernels)

    def test_sample_validity(self, disk, disk_kernels):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels)
        # all but the final sample stay strictly farther than eps_stop
        for z in traj.states[:-1]:
            assert 1.0 - np.hypot(*z[0]) > traj.eps_stop * 0.999
        assert isinstance(traj.termination, BoundaryCollision)

    def test_times_strictly_increasing(self, disk, disk_kernels):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels)
        assert np.all(np.diff(traj.times) > 0)


class TestEnergyMonotone:
    def test_identity_mobility_dissipates(self, disk, disk_kernels, rng):
        for _ in range(10):
            n = rng.integers(1, 4)
            pts = rng.uniform(-0.55, 0.55, (n, 2))
            if n > 1 and min(np.linalg.norm(pts[i] - pts[j])
                             for i in range(n)
                             for j in range(i + 1, n)) < 0.2:
                continue
            b = rng.choice([-1, 1], n)
            traj = integrate(Configuration.from_arrays(pts, b), disk,
                             disk_kernels,
                             params=IntegrationParams(t_max=0.2))
            e = [energy_from_arrays(z, b, disk_kernels) for z in traj.states]
            for a, c in zip(e, e[1:]):
                assert c <= a + 1e-9 * (1 + abs(a))

    def test_glide_mobility_dissipates(self, disk, disk_kernels):
        glide = GlideSet.square_lattice()
        b = np.array([1, -1])
        traj = integrate(cfg([(0.4, 0.2), (-0.3, -0.1)], b), disk,
                         disk_kernels,
                         mobility=lambda f: mobility_glide(f, glide),
                         params=IntegrationParams(t_max=0.2, rel_tol=1e-6))
        e = [energy_from_arrays(z, b, disk_kernels) for z in traj.states]
        for a, c in zip(e, e[1:]):
            assert c <= a + 1e-9 * (1 + abs(a))


class TestNumericalContracts:
    def test_determinism(self, disk, disk_kernels):
        runs = [integrate(cfg([(0.8, 0.1), (-0.3, 0.2)], [1, -1]), disk,
                          disk_kernels) for _ in range(2)]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)
        assert runs[0].termination.kind == runs[1].termination.kind
        assert runs[0].termination.stop_time == runs[1].termination.stop_time
        assert runs[0].termination.corrected_time == \
            runs[1].termination.corrected_time

    def test_tolerance_tightening_converges(self, disk, disk_kernels):
        times = []
        for rtol in (1e-8, 5e-9):
            traj = integrate(cfg([(0.9, 0)], [1]), disk, disk_kernels,
                             params=IntegrationParams(rel_tol=rtol))
            times.append(traj.termination.corrected_time)
        assert abs(times[0] - times[1]) < 10 * 1e-8 * (1 + times[0])

    def test_trajectory_samples_api(self, disk, disk_kernels):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels)
        t0, c0 = traj.samples[0]
        assert t0 == 0.0
        assert c0.positions[0] == pytest.approx([0.8, 0.0])

    def test_step_budget_failure(self, disk, disk_kernels):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(max_steps=2))
        assert traj.termination.kind == "failure"

    @pytest.mark.parametrize("max_steps,n_samples", [(1, 1), (2, 2), (5, 4)])
    def test_step_budget_keeps_progress(self, disk, disk_kernels, max_steps,
                                        n_samples):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(max_steps=max_steps))
        assert traj.termination.reason == "step budget exceeded"
        assert traj.stats["n_samples"] == len(traj.times) == n_samples
        assert traj.stats["accepted_steps"] == n_samples - 1
        # only the evaluations within the budget are counted
        assert traj.stats["nfev"] <= 7 * max_steps
        # the kept states follow the run outward along the x axis
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.diff(traj.states[:, 0, 0]) > 0)
        if n_samples > 1:
            assert traj.positions_at(traj.times[-1]) == \
                pytest.approx(traj.states[-1])
        else:
            with pytest.raises(ValueError, match="no dense output"):
                traj.positions_at(0.0)


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("t_max", math.nan), ("t_max", 0.0), ("t_max", -math.inf),
        ("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", 0.0),
        ("abs_tol", math.nan), ("abs_tol", math.inf), ("abs_tol", -1e-10),
        ("eps_stop", math.nan), ("eps_stop", math.inf), ("eps_stop", 0.0),
        ("max_steps", 0), ("max_steps", 2.5), ("max_steps", math.nan),
    ])
    def test_invalid_value_refused(self, field, value):
        # NaN passes a plain `<= 0` test; a NaN t_max or tolerance then
        # hangs the solver and a NaN eps_stop disables every event
        with pytest.raises(ValueError, match=field):
            IntegrationParams(**{field: value})

    def test_unbounded_horizon_allowed(self):
        assert IntegrationParams(t_max=math.inf).t_max == math.inf
