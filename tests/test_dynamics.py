import math
import re

import numpy as np
import pytest

from dislodyn.geometry import Configuration, HalfPlane, Plane
from dislodyn.kernels_analytic import analytic_kernels
from dislodyn.oracles import disk_single
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

    def test_positions_at_stored_times(self):
        dom = HalfPlane.upper()
        traj = integrate(cfg([(0.0, 0.1)], [1]), dom, analytic_kernels(dom))
        for t, z in zip(traj.times, traj.states):
            assert np.max(np.abs(traj.positions_at(t) - z)) <= 1e-12

    @pytest.mark.parametrize("where", ["before", "after", "nan"])
    def test_positions_at_refuses_outside_range(self, where):
        dom = HalfPlane.upper()
        traj = integrate(cfg([(0.0, 0.1)], [1]), dom, analytic_kernels(dom))
        t = {"before": -1e-9, "after": traj.times[-1] * (1 + 1e-9),
             "nan": math.nan}[where]
        span = f"[{float(traj.times[0])!r}, {float(traj.times[-1])!r}]"
        with pytest.raises(ValueError, match=re.escape(span)):
            traj.positions_at(t)

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


class TestRescaledTime:
    @pytest.mark.parametrize("delta,nfev_in_t", [(0.05, 296), (0.2, 410),
                                                 (0.5, 488)])
    def test_disk_single_accuracy_and_cost(self, disk, disk_kernels, delta,
                                           nfev_in_t):
        # nfev_in_t: what RK45 spent integrating in physical time, where its
        # error was 2.2e-7, 1.1e-7 and 4.3e-8
        traj = integrate(cfg([(1.0 - delta, 0.0)], [1]), disk, disk_kernels)
        assert traj.termination.kind == "boundary"
        assert traj.termination.corrected_time == pytest.approx(
            disk_single(delta).collision_time, rel=1e-7)
        assert traj.stats["nfev"] <= nfev_in_t // 2

    def test_rest_state_keeps_physical_time(self, disk, disk_kernels):
        # v = 0 gives g = 1, so s = t along the whole run
        traj = integrate(cfg([(0.0, 0.0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(t_max=2.0))
        assert traj.interpolant.ts == pytest.approx(traj.times, rel=1e-14)
        assert traj.times[-1] == pytest.approx(2.0, rel=1e-14)


class TestEpsStop:
    def test_closed_form_keeps_requested_eps(self, disk, disk_kernels):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(eps_stop=1e-3))
        assert traj.stats["eps_stop"] == traj.eps_stop == 1e-3
        assert traj.stats["eps_stop_raised"] is False

    def test_grid_raises_eps_to_its_margin(self, square, square_grid):
        traj = integrate(cfg([(0.5, 0.4)], [1]), square, square_grid,
                         params=IntegrationParams(t_max=1e-3))
        assert traj.stats["eps_stop"] == traj.eps_stop == \
            square_grid.min_eval_distance > 1e-4 * square.diameter
        assert traj.stats["eps_stop_raised"] is True


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

    @pytest.mark.parametrize("max_steps", [1, 2, 5])
    def test_step_budget_keeps_progress(self, disk, disk_kernels, max_steps):
        traj = integrate(cfg([(0.8, 0)], [1]), disk, disk_kernels,
                         params=IntegrationParams(max_steps=max_steps))
        # the budget is 7 * max_steps evaluations: RK45 spends 2 choosing its
        # first step and 6 on each step after, and no step of this run is
        # rejected, so it keeps every step that the budget pays for
        n_samples = 1 + (7 * max_steps - 2) // 6
        assert n_samples - 1 <= max_steps
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
