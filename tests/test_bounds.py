import math

import numpy as np
import pytest

from dislodyn.errors import (PreconditionViolated, ScenarioMismatch,
                             UnboundedDomain)
from dislodyn.geometry import (Configuration, Disk, ExteriorDisk, HalfPlane,
                               Plane, in_class_D)
from dislodyn.kernels_analytic import analytic_kernels
from dislodyn.mechanics import forces_from_arrays
from dislodyn.dynamics import integrate
from dislodyn.bounds import (boundary_scenario, c_sigma, default_sigma,
                             fatal_force_bound, grad_G_bounds,
                             grad_h_far_bound, grad_h_near_bound,
                             pair_scenario, scenario_report,
                             verify_against_trajectory)

TWO_PI = 2.0 * math.pi


class TestCSigma:
    def test_frozen_values(self):
        assert c_sigma(0.5) == pytest.approx(1.5820360694488342, abs=1e-12)
        assert c_sigma(0.2) == pytest.approx(1.2988570571031550, abs=1e-12)
        assert c_sigma(0.1) == pytest.approx(1.2410080608307978, abs=1e-12)

    def test_blow_up_near_one(self):
        assert c_sigma(0.9999) > 1e3

    def test_monotone_increasing(self):
        grid = np.linspace(0.05, 0.95, 50)
        vals = [c_sigma(s) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(PreconditionViolated):
                c_sigma(bad)


class TestGradGBounds:
    def test_example_value(self):
        b = grad_G_bounds((0.9, 0.0), (-0.5, 0.0), Disk())
        assert b.y_precondition_ok
        assert b.bound_y == pytest.approx(1 / (TWO_PI * 1.4) + 1 / (TWO_PI * 0.5),
                                          abs=1e-12)

    def test_bounds_dominate_analytic_disk(self, disk_kernels, rng):
        dom = Disk()
        checked = 0
        while checked < 1000:
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-0.9, 0.9, 2)
            if not (dom.contains(x) and dom.contains(y)):
                continue
            sep = np.linalg.norm(x - y)
            if sep < 1e-3:
                continue
            b = grad_G_bounds(x, y, dom)
            gy = np.linalg.norm(disk_kernels.grad_y_G(x, y))
            assert gy <= b.bound_y * (1 + 1e-9)
            if b.x_precondition_ok:
                gx = np.linalg.norm(disk_kernels.grad_x_G(x, y))
                assert gx <= b.bound_x * (1 + 1e-9)
            checked += 1

    @pytest.mark.parametrize("domain", [ExteriorDisk(), HalfPlane.upper()])
    def test_bounds_dominate_other_domains(self, domain, rng):
        ev = analytic_kernels(domain)
        checked = 0
        while checked < 1000:
            if isinstance(domain, ExteriorDisk):
                x = rng.uniform(-4, 4, 2)
                y = rng.uniform(-4, 4, 2)
            else:
                x = rng.uniform([-3, 0.01], [3, 3])
                y = rng.uniform([-3, 0.01], [3, 3])
            if not (domain.contains(x) and domain.contains(y)):
                continue
            sep = np.linalg.norm(x - y)
            if sep < 1e-3:
                continue
            b = grad_G_bounds(x, y, domain)
            assert np.linalg.norm(ev.grad_y_G(x, y)) <= b.bound_y * (1 + 1e-9)
            if b.x_precondition_ok:
                assert np.linalg.norm(ev.grad_x_G(x, y)) <= b.bound_x * (1 + 1e-9)
            checked += 1

    def test_far_limit_halfplane(self):
        dom = HalfPlane.upper()
        y = np.array([0.0, 0.7])
        vals = []
        for L in (10.0, 100.0, 1000.0):
            b = grad_G_bounds((L, 0.3), y, dom)
            vals.append(b.bound_y)
        assert vals[-1] == pytest.approx(1 / (TWO_PI * 0.7), rel=1e-2)


class TestGradHFarBound:
    def test_example_value(self):
        # unit disk: lambda = 0, d1 = 0.5
        assert grad_h_far_bound((0.5, 0.0), Disk()) == pytest.approx(
            2 * math.log(2) / (math.pi * 0.5), abs=1e-12)

    def test_dominates_analytic(self, disk_kernels, rng):
        dom = Disk()
        checked = 0
        while checked < 1000:
            x = rng.uniform(-1, 1, 2)
            if not dom.contains(x) or np.hypot(*x) > 0.999:
                continue
            bound = grad_h_far_bound(x, dom)
            assert np.linalg.norm(disk_kernels.grad_h(x)) <= bound * (1 + 1e-9)
            checked += 1

    def test_center_consistent(self, disk_kernels):
        assert grad_h_far_bound((0.0, 0.0), Disk()) == 0.0
        assert np.linalg.norm(disk_kernels.grad_h((0.0, 0.0))) == 0.0

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedDomain):
            grad_h_far_bound((0.0, 0.5), HalfPlane.upper())


class TestGradHNearBound:
    def test_disk_example(self, disk_kernels):
        pred, radius = grad_h_near_bound((0.95, 0.0), Disk(), 0.5)
        assert pred == pytest.approx([-1 / (TWO_PI * 0.05), 0.0], abs=1e-12)
        assert radius == pytest.approx(c_sigma(0.5) / math.pi, abs=1e-12)
        err = np.linalg.norm(disk_kernels.grad_h((0.95, 0.0)) - pred)
        assert err <= radius

    def test_halfplane_exact(self):
        dom = HalfPlane.upper()
        ev = analytic_kernels(dom)
        pred, radius = grad_h_near_bound((0.3, 0.2), dom, 0.5)
        assert radius == 0.0
        assert ev.grad_h((0.3, 0.2)) == pytest.approx(pred, abs=1e-14)

    def test_exterior_disk_pass(self):
        dom = ExteriorDisk()
        ev = analytic_kernels(dom)
        x = (1.1, 0.0)
        pred, radius = grad_h_near_bound(x, dom, 0.5)
        assert np.linalg.norm(ev.grad_h(x) - pred) <= radius

    def test_sweep_disk_and_exterior(self, rng):
        for dom in (Disk(), ExteriorDisk()):
            ev = analytic_kernels(dom)
            checked = 0
            while checked < 500:
                d1 = rng.uniform(0.005, 0.45)
                ang = rng.uniform(0, TWO_PI)
                r = 1 - d1 if isinstance(dom, Disk) else 1 + d1
                x = r * np.array([math.cos(ang), math.sin(ang)])
                pred, radius = grad_h_near_bound(x, dom, 0.5)
                assert np.linalg.norm(ev.grad_h(x) - pred) <= radius * (1 + 1e-9)
                checked += 1

    def test_too_far_raises(self):
        with pytest.raises(PreconditionViolated):
            grad_h_near_bound((0.1, 0.0), Disk(), 0.5)


class TestFatalForceBound:
    def test_single_dislocation_value(self):
        # C_{1,sigma} = C_sigma, the interaction sum is empty
        assert fatal_force_bound(1, 1.0, 0.05) == pytest.approx(
            c_sigma(0.05) / TWO_PI, abs=1e-12)

    def test_example_near_boundary(self, disk_kernels):
        z = np.array([0.95, 0.0])
        f = forces_from_arrays(z[None, :], np.array([1]), disk_kernels)[0]
        predicted = np.array([1.0, 0.0]) / (4 * math.pi * 0.05)
        err = np.linalg.norm(f - predicted)
        assert err == pytest.approx(0.0408, abs=2e-3)
        assert err <= fatal_force_bound(1, 1.0, 0.05)

    def test_monotone_near_pole(self):
        sigma, rho = 0.1, 1.0
        gammas = np.linspace(2 * sigma * rho + 0.01, 2 * sigma * rho + 0.3, 20)
        vals = [fatal_force_bound(3, rho, sigma, g) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gamma_required_for_multiple(self):
        with pytest.raises(PreconditionViolated):
            fatal_force_bound(2, 1.0, 0.1)
        with pytest.raises(PreconditionViolated):
            fatal_force_bound(2, 1.0, 0.4, 0.5)  # gamma <= 2 sigma rho

    def test_holds_on_sampled_class_configs(self, disk_kernels, rng):
        # 1000 random configurations in the near-boundary class, n in 1..3
        dom = Disk()
        sigma = 0.06
        delta, gamma = 0.05, 0.5
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 4))
            d1 = rng.uniform(0.005, delta)
            ang = rng.uniform(0, TWO_PI)
            z1 = (1 - d1) * np.array([math.cos(ang), math.sin(ang)])
            pts = [z1]
            ok = True
            for _ in range(n - 1):
                for _ in range(200):
                    p = rng.uniform(-0.5, 0.5, 2)
                    if np.hypot(*p) > 1 - gamma - 1e-9:
                        continue
                    if all(np.linalg.norm(p - q) > gamma for q in pts[1:]):
                        break
                else:
                    ok = False
                pts.append(p)
            if not ok:
                continue
            b = rng.choice([-1, 1], n)
            b[0] = 1
            config = Configuration.from_arrays(pts, b)
            if not in_class_D(config, dom, delta, gamma):
                continue
            f = forces_from_arrays(config.positions, config.burgers,
                                   disk_kernels)[0]
            probe = dom.probe(pts[0])
            predicted = probe.normal / (4 * math.pi * probe.distance)
            err = np.linalg.norm(f - predicted)
            assert err <= fatal_force_bound(n, 1.0, sigma,
                                            gamma if n > 1 else None)
            checked += 1


class TestBoundaryScenario:
    def test_frozen_example(self):
        rep = boundary_scenario(1, 1.0, 0.1, 0.1, 0.5)
        assert rep.constants["c_delta0"] == pytest.approx(
            0.24820161216615957, abs=1e-12)
        assert rep.t_collision_bound == pytest.approx(0.08357540277897313,
                                                      abs=1e-12)
        assert rep.verdict == "holds"

    def test_halfplane_limit(self):
        rep = boundary_scenario(1, math.inf, 0.5, 0.1, 0.5)
        assert rep.constants["c_delta0"] == 0.0
        assert rep.t_collision_bound == pytest.approx(TWO_PI * 0.01, abs=1e-14)

    def test_safe_window_example(self):
        rep = boundary_scenario(2, 1.0, 0.05, 0.05, 0.5)
        assert rep.safe_window == pytest.approx(
            math.pi * (0.45**2 - 0.2**2) / 6, abs=1e-12)

    def test_scale_invariance(self):
        base = boundary_scenario(3, 1.0, 0.1, 0.04, 0.5)
        for lam in (0.5, 2.0, 10.0):
            scaled = boundary_scenario(3, lam, 0.1, lam * 0.04, lam * 0.5)
            assert scaled.constants["c_delta0"] == pytest.approx(
                base.constants["c_delta0"], rel=1e-12)

    def test_invalid_regime_reported(self):
        # delta0 >= gamma0/4 leaves the correction factor undefined
        rep = boundary_scenario(2, 1.0, 0.5, 0.2, 0.5)
        assert rep.verdict == "not-applicable"
        assert "delta0 >= gamma0/4" in rep.violations

    def test_leading_order_limit(self):
        d = 1e-4
        rep = boundary_scenario(1, 1.0, 0.5, d, 0.5)
        assert rep.t_collision_bound / (TWO_PI * d * d) == pytest.approx(
            1.0, rel=1e-3)

    def test_default_sigma(self):
        assert default_sigma(0.1, 1.0) == 0.5
        assert default_sigma(0.7, 1.0) == pytest.approx(0.7)
        assert 0 < default_sigma(2.0, 1.0) < 1


class TestPairScenario:
    def test_zeta_max_n2(self):
        rep = pair_scenario(2, 4.0, 1.0, 0.1)
        assert rep.constants["zeta0_max"] == pytest.approx(
            math.sqrt(2) / 4, abs=1e-12)

    def test_frozen_example(self):
        rep = pair_scenario(2, 4.0, 1.0, 0.1)
        assert rep.constants["c_zeta0"] == pytest.approx(0.08, abs=1e-12)
        assert rep.t_collision_bound == pytest.approx(
            math.pi * 0.01 / (2 * 0.92), abs=1e-12)
        # the looser alternate denominator is reported alongside
        assert rep.constants["t_bound_alt"] == pytest.approx(
            math.pi * 0.01 / (2 * 0.99), abs=1e-12)

    def test_plane_pair_oracle_within_bound(self):
        rep = pair_scenario(2, math.inf, 1.0, 0.1)
        exact = math.pi * 0.1**2 / 2  # separation zeta collapses at pi zeta^2/2
        assert exact <= rep.t_collision_bound
        assert rep.verdict == "holds"

    def test_leading_order_limit(self):
        z = 1e-4
        rep = pair_scenario(2, math.inf, 1.0, z)
        assert rep.t_collision_bound / (math.pi * z * z / 2) == pytest.approx(
            1.0, rel=1e-3)

    def test_unbounded_rejected_for_three(self):
        with pytest.raises(UnboundedDomain):
            pair_scenario(3, math.inf, 1.0, 0.1)

    def test_three_in_bounded_domain(self):
        rep = pair_scenario(3, 6.0, 1.0, 0.05)
        assert rep.constants["Lambda_domain"] == pytest.approx(
            2 * math.log(3), abs=1e-12)
        assert rep.t_collision_bound is not None
        assert rep.safe_window is not None and rep.safe_window > 0

    def test_lambda_zero_limit_continuous(self):
        # n = 3 in the unit disk: Lambda = 0 exactly; compare the cubic
        # formula against a nearby diameter
        rep0 = pair_scenario(3, 2.0, 0.4, 0.02)
        rep1 = pair_scenario(3, 2.0 + 1e-9, 0.4, 0.02)
        assert rep0.safe_window == pytest.approx(rep1.safe_window, rel=1e-6)

    def test_invalid_zeta_reported(self):
        rep = pair_scenario(2, 4.0, 1.0, 0.5)
        assert rep.verdict == "not-applicable"


class TestScenarioReport:
    BOUNDARY = {"scenario": "boundary", "delta0": 0.1, "gamma0": 0.5}
    PAIR = {"scenario": "pair", "eta0": 0.5, "zeta0": 0.05}

    def test_least_count_without_n(self):
        assert scenario_report(self.BOUNDARY, None, math.inf).inputs["n"] == 1
        assert scenario_report(self.PAIR, None, math.inf).inputs["n"] == 2

    def test_caller_defaults_fill_missing_keys(self):
        b = scenario_report(self.BOUNDARY, 3, 2.0)
        assert b == boundary_scenario(3, 1.0, default_sigma(0.1, 1.0), 0.1, 0.5)
        p = scenario_report(self.PAIR, 3, 2.0)
        assert p == pair_scenario(3, 2.0, 0.5, 0.05)
        assert scenario_report(dict(self.PAIR, n=2, diam=4.0), 3,
                               2.0) == pair_scenario(2, 4.0, 0.5, 0.05)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown bounds scenario"):
            scenario_report({"scenario": "typo"}, None, math.inf)

    def test_to_dict_writes_non_finite_as_repr(self):
        d = pair_scenario(2, math.inf, 0.5, 0.1).to_dict()
        assert list(d) == ["scenario", "inputs", "constants",
                           "t_collision_bound", "safe_window",
                           "sufficiency_lhs", "sufficiency_rhs", "verdict",
                           "violations"]
        assert list(d["inputs"].items()) == [
            ("n", 2), ("diam", "inf"), ("eta0", 0.5), ("zeta0", 0.1)]
        assert d["safe_window"] == d["sufficiency_rhs"] == "inf"
        assert d["verdict"] == "holds" and d["violations"] == []


class TestVerifyAgainstTrajectory:
    def test_halfplane_boundary_scenario(self):
        dom = HalfPlane.upper()
        traj = integrate(Configuration.from_arrays([[0.0, 0.1]], [1]), dom,
                         analytic_kernels(dom))
        rep = boundary_scenario(1, math.inf, 0.5, 0.1, 0.5)
        check = verify_against_trajectory(rep, traj)
        assert check.passed
        # the exact case saturates the bound: margin is zero up to solver error
        assert abs(check.margin) < 1e-5

    def test_disk_boundary_scenario(self, disk, disk_kernels):
        traj = integrate(Configuration.from_arrays([[0.9, 0.0]], [1]), disk,
                         disk_kernels)
        rep = boundary_scenario(1, 1.0, 0.1, 0.1, 0.5)
        check = verify_against_trajectory(rep, traj)
        assert check.passed
        assert traj.termination.corrected_time <= rep.t_collision_bound

    def test_plane_pair_scenario(self):
        dom = Plane()
        traj = integrate(
            Configuration.from_arrays([[0.05, 0.0], [-0.05, 0.0]], [1, -1]),
            dom, analytic_kernels(dom))
        rep = pair_scenario(2, math.inf, 1.0, 0.1)
        check = verify_against_trajectory(rep, traj)
        assert check.passed

    def test_mismatch_detected(self, disk, disk_kernels):
        traj = integrate(Configuration.from_arrays([[0.9, 0.0]], [1]), disk,
                         disk_kernels)
        rep = pair_scenario(2, 2.0, 0.4, 0.02)
        check = verify_against_trajectory(rep, traj)
        assert not check.passed and not check.termination_matches

    def test_not_applicable_raises(self, disk, disk_kernels):
        traj = integrate(Configuration.from_arrays([[0.9, 0.0]], [1]), disk,
                         disk_kernels)
        rep = boundary_scenario(2, 1.0, 0.5, 0.2, 0.5)
        with pytest.raises(ScenarioMismatch):
            verify_against_trajectory(rep, traj)
