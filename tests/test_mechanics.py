import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dislodyn.errors import CoincidentPoints, PointInsideDisk, PointOutside
from dislodyn.geometry import (AxisAlignedPolygon, Configuration, Disk,
                               ExteriorDisk, HalfPlane, Plane)
from dislodyn.kernels_analytic import analytic_kernels
from dislodyn.kernels_numeric import (GridKernels, NumericKernelConfig,
                                      NystromKernels)
from dislodyn.mechanics import (GlideSet, energy, energy_from_arrays, forces,
                                forces_from_arrays, mobility_glide,
                                mobility_identity)

TWO_PI = 2.0 * math.pi


def cfg(points, burgers):
    return Configuration.from_arrays(points, burgers)


class TestEnergy:
    def test_single_near_boundary(self, disk_kernels):
        # E_1 = h/2 = log(2 delta - delta^2) / (4 pi) at delta = 0.1
        e = energy(cfg([(0.9, 0.0)], [1]), disk_kernels)
        assert e == pytest.approx(math.log(0.19) / (4 * math.pi), abs=1e-12)

    def test_plane_pair_unit_separation(self):
        ev = analytic_kernels(Plane())
        assert energy(cfg([(1.0, 0), (0.0, 0)], [1, -1]), ev) == pytest.approx(
            0.0, abs=1e-15)

    def test_disk_pair_closed_form(self, disk_kernels):
        # symmetric opposite pair at radius 0.3; frozen from the explicit
        # two-dislocation energy of the unit disk
        e = energy(cfg([(0.3, 0), (-0.3, 0)], [1, -1]), disk_kernels)
        assert e == pytest.approx(-0.1100260402455969, abs=1e-12)

    def test_rotation_invariance(self, disk_kernels, rng):
        ang = rng.uniform(0, TWO_PI)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        pts = np.array([[0.3, 0.1], [-0.2, -0.4], [0.5, 0.2]])
        b = [1, -1, 1]
        e1 = energy(cfg(pts, b), disk_kernels)
        e2 = energy(cfg(pts @ R.T, b), disk_kernels)
        assert e1 == pytest.approx(e2, abs=1e-12)


class TestForces:
    def test_single_disk_motion_law(self, disk_kernels):
        f = forces(cfg([(0.5, 0.0)], [1]), disk_kernels)
        assert f[0] == pytest.approx([0.5 / (TWO_PI * 0.75), 0.0], abs=1e-12)

    def test_plane_pair(self):
        ev = analytic_kernels(Plane())
        f = forces(cfg([(1.0, 0), (0.0, 0)], [1, -1]), ev)
        assert f[0] == pytest.approx([-1.0 / TWO_PI, 0.0], abs=1e-14)

    def test_halfplane_single(self):
        ev = analytic_kernels(HalfPlane.upper())
        f = forces(cfg([(0.0, 0.1)], [1]), ev)
        assert f[0] == pytest.approx([0.0, -1.0 / (4 * math.pi * 0.1)],
                                     abs=1e-12)

    def test_action_reaction_in_plane(self, rng):
        ev = analytic_kernels(Plane())
        for _ in range(20):
            pts = rng.uniform(-2, 2, (2, 2))
            if np.linalg.norm(pts[0] - pts[1]) < 0.1:
                continue
            b = rng.choice([-1, 1], 2)
            f = forces(cfg(pts, b), ev)
            assert f[0] + f[1] == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_rotation_equivariance_disk(self, disk_kernels, rng):
        pts = np.array([[0.3, 0.1], [-0.2, -0.4]])
        b = [1, -1]
        ang = 0.7
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        f = forces(cfg(pts, b), disk_kernels)
        f_rot = forces(cfg(pts @ R.T, b), disk_kernels)
        assert f @ R.T == pytest.approx(f_rot, abs=1e-12)

    @pytest.mark.parametrize("domain,sampler", [
        (Disk(), lambda rng: rng.uniform(-0.65, 0.65, 2)),
        (ExteriorDisk(), lambda rng: rng.uniform(1.3, 3.0, 2) * rng.choice([-1, 1], 2)),
        (HalfPlane.upper(), lambda rng: rng.uniform([-1.5, 0.2], [1.5, 2.5])),
        (Plane(), lambda rng: rng.uniform(-2, 2, 2)),
    ])
    def test_forces_match_fd_energy_gradient(self, domain, sampler, rng):
        # 100 random configurations per domain, relative error < 1e-6
        ev = analytic_kernels(domain)
        step = 1e-6 * (domain.diameter if domain.bounded else 2.0)
        checked = 0
        while checked < 100:
            n = rng.integers(1, 4)
            pts = np.array([sampler(rng) for _ in range(n)])
            if n > 1 and min(np.linalg.norm(pts[i] - pts[j])
                             for i in range(n) for j in range(i + 1, n)) < 0.15:
                continue
            b = rng.choice([-1, 1], n)
            f = forces_from_arrays(pts, b, ev)
            g = np.zeros_like(f)
            for i in range(n):
                for c in range(2):
                    zp = pts.copy()
                    zp[i, c] += step
                    zm = pts.copy()
                    zm[i, c] -= step
                    g[i, c] = -(energy_from_arrays(zp, b, ev)
                                - energy_from_arrays(zm, b, ev)) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(f))))
            assert np.max(np.abs(f - g)) / scale < 1e-6
            checked += 1


class TestMobility:
    def test_identity_passthrough(self):
        for f in ([[0.0, 0.0]], [[1.0, -2.0]], [[0.5, 0.5], [-1.0, 3.0]]):
            assert mobility_identity(np.array(f)) == pytest.approx(np.array(f))

    def test_glide_axis_selection(self):
        g = GlideSet.square_lattice()
        assert mobility_glide(np.array([[2.0, 1.0]]), g)[0] == pytest.approx([2.0, 0.0])

    def test_glide_tie_break_lowest_index(self):
        g = GlideSet.square_lattice()  # order: +e1, -e1, +e2, -e2
        assert mobility_glide(np.array([[1.0, 1.0]]), g)[0] == pytest.approx([1.0, 0.0])

    def test_glide_negative_direction(self):
        g = GlideSet.square_lattice()
        # f = (-3, 0.5): argmax is -e1 with dot 3, so v = 3 * (-e1)
        assert mobility_glide(np.array([[-3.0, 0.5]]), g)[0] == pytest.approx(
            [-3.0, 0.0])

    def test_zero_force_zero_velocity(self):
        g = GlideSet.square_lattice()
        assert mobility_glide(np.array([[0.0, 0.0]]), g)[0] == pytest.approx(
            [0.0, 0.0])

    @given(fx=st.floats(-10, 10), fy=st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_glide_dissipative(self, fx, fy):
        g = GlideSet(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                      (math.sqrt(0.5), math.sqrt(0.5)),
                      (-math.sqrt(0.5), -math.sqrt(0.5))))
        f = np.array([[fx, fy]])
        v = mobility_glide(f, g)[0]
        assert v @ f[0] >= -1e-12
        assert np.linalg.norm(v) <= np.linalg.norm(f[0]) + 1e-12

    @given(fx=st.floats(-5, 5), fy=st.floats(-5, 5),
           lam=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_glide_argmax_scale_invariant(self, fx, fy, lam):
        if fx == 0 and fy == 0:
            return
        g = GlideSet.square_lattice()
        f = np.array([[fx, fy]])
        v1 = mobility_glide(f, g)[0]
        v2 = mobility_glide(lam * f, g)[0]
        # scaling the force leaves the selected direction unchanged
        n1 = np.linalg.norm(v1)
        n2 = np.linalg.norm(v2)
        if n1 > 1e-12 and n2 > 1e-12:
            assert v1 / n1 == pytest.approx(v2 / n2, abs=1e-9)

    def test_glide_set_validation(self):
        with pytest.raises(ValueError):
            GlideSet(((1.0, 0.0), (0.0, 1.0)))  # not closed under negation
        with pytest.raises(ValueError):
            GlideSet(((1.0, 0.0), (-1.0, 0.0)))  # does not span
        with pytest.raises(ValueError):
            GlideSet(((2.0, 0.0), (-2.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


class TestNumericDomainForces:
    @pytest.mark.parametrize("backend", ["grid", "integral"])
    def test_forces_match_fd_energy_gradient_numeric(self, square,
                                                     square_integral, backend,
                                                     rng):
        # numeric backends carry discretization error; the contract is 1e-3
        if backend == "grid":
            from dislodyn.kernels_numeric import (GridKernels,
                                                  NumericKernelConfig)
            ev = GridKernels(square, NumericKernelConfig(
                grid_spacing=math.sqrt(2) / 384))
        else:
            ev = square_integral
        step = 1e-6
        checked = 0
        while checked < 10:
            pts = rng.uniform(0.2, 0.8, (2, 2))
            if np.linalg.norm(pts[0] - pts[1]) < 0.2:
                continue
            b = np.array([1, -1])
            f = forces_from_arrays(pts, b, ev)
            g = np.zeros_like(f)
            for i in range(2):
                for c in range(2):
                    zp = pts.copy()
                    zp[i, c] += step
                    zm = pts.copy()
                    zm[i, c] -= step
                    g[i, c] = -(energy_from_arrays(zp, b, ev)
                                - energy_from_arrays(zm, b, ev)) / (2 * step)
            rel = np.max(np.abs(f - g)) / max(1.0, float(np.max(np.abs(f))))
            assert rel < 1e-3
            checked += 1


def loop_forces(pts, b, ev):
    """The Peach-Koehler sum over the scalar kernel methods, pair by pair."""
    out = np.empty((len(pts), 2))
    for i in range(len(pts)):
        f = -0.5 * ev.grad_h(pts[i])
        for j in range(len(pts)):
            if j != i:
                f = f - b[i] * b[j] * ev.grad_x_G(pts[i], pts[j])
        out[i] = f
    return out


def loop_energy(pts, b, ev):
    total = 0.0
    for i in range(len(pts)):
        total += 0.5 * ev.h(pts[i])
        for j in range(i + 1, len(pts)):
            total += b[i] * b[j] * ev.G(pts[i], pts[j])
    return total


def spread_points(rng, sampler, n, min_sep=0.05):
    pts = []
    while len(pts) < n:
        p = sampler(rng)
        if all(np.linalg.norm(p - q) >= min_sep for q in pts):
            pts.append(p)
    return np.array(pts)


BATCHED_CASES = {
    "disk": (lambda: analytic_kernels(Disk()),
             lambda rng: rng.uniform(-0.65, 0.65, 2)),
    "exterior_disk": (lambda: analytic_kernels(ExteriorDisk()),
                      lambda rng: rng.uniform(1.3, 3.0, 2) * rng.choice([-1, 1], 2)),
    "half_plane": (lambda: analytic_kernels(HalfPlane.upper()),
                   lambda rng: rng.uniform([-1.5, 0.2], [1.5, 2.5])),
    "plane": (lambda: analytic_kernels(Plane()),
              lambda rng: rng.uniform(-2, 2, 2)),
    "nystrom_disk": (lambda: NystromKernels(Disk(), NumericKernelConfig(
        boundary_nodes=64)), lambda rng: rng.uniform(-0.6, 0.6, 2)),
    "grid_square": (lambda: GridKernels(AxisAlignedPolygon.square(),
                                        NumericKernelConfig(grid_spacing=1 / 32)),
                    lambda rng: rng.uniform(0.15, 0.85, 2)),
}


class TestBatchedAssembly:
    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_matches_scalar_loop(self, case, n, rng):
        make, sampler = BATCHED_CASES[case]
        ev = make()
        pts = spread_points(rng, sampler, n)
        b = rng.choice([-1, 1], n)
        want = loop_forces(pts, b, ev)
        got = forces_from_arrays(pts, b, ev)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        e_want = loop_energy(pts, b, ev)
        assert abs(energy_from_arrays(pts, b, ev) - e_want) <= 1e-13 * abs(e_want)

    def test_batched_shapes(self):
        ev = analytic_kernels(Disk())
        pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.1]])
        grad_h, grad_G = ev.grad_h_and_G(pts)
        h, G = ev.h_and_G(pts)
        assert grad_h.shape == (3, 2) and grad_G.shape == (3, 3, 2)
        assert h.shape == (3,) and G.shape == (3, 3)
        assert np.all(grad_G[[0, 1, 2], [0, 1, 2]] == 0.0)
        assert np.all(np.diag(G) == 0.0)
        assert grad_G[1, 2] == pytest.approx(ev.grad_x_G(pts[1], pts[2]), abs=1e-15)
        assert G[2, 0] == pytest.approx(ev.G(pts[2], pts[0]), abs=1e-15)

    @pytest.mark.parametrize("domain,pts,error,named", [
        (Disk(), [[0.1, 0.0], [1.5, 0.25]], PointOutside, "(1.5, 0.25)"),
        (ExteriorDisk(), [[2.0, 0.0], [0.5, 0.25]], PointInsideDisk, "(0.5, 0.25)"),
        (HalfPlane.upper(), [[0.0, 1.0], [0.75, -0.5]], PointOutside, "(0.75, -0.5)"),
        (Disk(), [[0.1, 0.2], [0.3, 0.1], [0.1, 0.2]], CoincidentPoints, "(0.1, 0.2)"),
        (Plane(), [[1.5, 0.25], [1.5, 0.25]], CoincidentPoints, "(1.5, 0.25)"),
        (Plane(), [[0.0, 0.0], [math.nan, 1.0]], PointOutside, "(nan, 1.0)"),
        (ExteriorDisk(), [[2.0, 0.0], [math.inf, 1.0]], PointOutside, "(inf, 1.0)"),
    ])
    def test_errors_name_the_point(self, domain, pts, error, named):
        ev = analytic_kernels(domain)
        b = np.ones(len(pts))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for assemble in (forces_from_arrays, energy_from_arrays):
                with pytest.raises(error) as exc:
                    assemble(np.array(pts), b, ev)
                assert named in str(exc.value)

    @pytest.mark.parametrize("case", [
        pytest.param("disk", id="analytic"),
        pytest.param("nystrom_disk", id="nystrom"),
        pytest.param("grid_square", id="grid"),
        "exterior_disk", "half_plane", "plane",
    ])
    def test_disk_forces_use_no_scalar_calls(self, case, monkeypatch, rng):
        # the scalar methods live on the base class, which is in every MRO
        def refuse(*args):
            raise AssertionError("scalar kernel call")

        make, sampler = BATCHED_CASES[case]
        ev = make()
        for cls in type(ev).__mro__:
            for name in ("grad_x_G", "grad_x_k", "grad_h", "G", "k", "h"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, refuse)
        pts = spread_points(rng, sampler, 20)
        b = rng.choice([-1, 1], 20)
        assert np.all(np.isfinite(forces_from_arrays(pts, b, ev)))
        assert math.isfinite(energy_from_arrays(pts, b, ev))
