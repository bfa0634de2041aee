import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dislodyn.errors import NoBoundary, ParameterOrder
from dislodyn.geometry import (AxisAlignedPolygon, Configuration, Disk,
                               Dislocation, ExteriorDisk, HalfPlane, Plane,
                               SmoothCurveDomain, boundary_probe,
                               cardioid_domain, in_class_C, in_class_D,
                               min_separation)


def config(points, burgers=None):
    if burgers is None:
        burgers = [1] * len(points)
    return Configuration.from_arrays(points, burgers)


class TestBoundaryProbe:
    def test_disk_radial(self):
        p = boundary_probe((0.5, 0.0), Disk())
        assert p.distance == pytest.approx(0.5, abs=1e-15)
        assert p.point == pytest.approx([1.0, 0.0])
        assert p.normal == pytest.approx([1.0, 0.0])
        assert p.curvature == pytest.approx(1.0)

    def test_halfplane_flat(self):
        p = boundary_probe((0.0, 0.1), HalfPlane.upper())
        assert p.distance == pytest.approx(0.1)
        assert p.point == pytest.approx([0.0, 0.0])
        assert p.normal == pytest.approx([0.0, -1.0])
        assert p.curvature == 0.0

    def test_disk_diagonal_point(self):
        # |x| = 0.5 so the nearest point is x/|x|
        p = boundary_probe((0.3, 0.4), Disk())
        assert p.distance == pytest.approx(0.5, abs=1e-12)
        assert p.point == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_disk_matches_brute_force(self, rng):
        dom = Disk(center=(0.2, -0.1), radius=1.7)
        theta = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
        ring = np.stack([0.2 + 1.7 * np.cos(theta),
                         -0.1 + 1.7 * np.sin(theta)], axis=1)
        for _ in range(25):
            x = np.array([0.2, -0.1]) + rng.uniform(-1, 1, 2)
            if not dom.contains(x):
                continue
            d_brute = np.min(np.hypot(ring[:, 0] - x[0], ring[:, 1] - x[1]))
            assert boundary_probe(x, dom).distance == pytest.approx(
                d_brute, abs=1e-8)

    def test_disk_radial_closed_form_sweep(self, rng):
        dom = Disk(radius=2.5)
        for _ in range(200):
            x = rng.uniform(-2.4, 2.4, 2)
            if not dom.contains(x):
                continue
            expected = 2.5 - np.linalg.norm(x)
            assert abs(boundary_probe(x, dom).distance - expected) < 1e-12

    def test_exterior_disk(self):
        p = boundary_probe((2.0, 0.0), ExteriorDisk())
        assert p.distance == pytest.approx(1.0)
        assert p.normal == pytest.approx([-1.0, 0.0])
        assert p.curvature == pytest.approx(-1.0)

    def test_plane_has_no_boundary(self):
        with pytest.raises(NoBoundary):
            boundary_probe((0.0, 0.0), Plane())

    def test_disk_center_ambiguous(self):
        p = boundary_probe((0.0, 0.0), Disk())
        assert p.ambiguous
        assert p.distance == pytest.approx(1.0)


class TestSmoothCurve:
    def test_circle_probe_matches_disk(self, rng):
        circ = SmoothCurveDomain.circle(radius=1.0)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, 2)
            if not circ.contains(x):
                continue
            assert circ.probe(x).distance == pytest.approx(
                1.0 - np.linalg.norm(x), abs=1e-10)

    def test_cardioid_brute_force_distance(self, cardioid, rng):
        theta = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
        pts = cardioid.position(theta)
        for _ in range(10):
            x = rng.uniform(0.2, 0.7, 2)
            if not cardioid.contains(x):
                continue
            d_brute = float(np.min(np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])))
            d = cardioid.probe(x).distance
            # brute force resolution limits the agreement
            assert abs(d - d_brute) < 1e-7

    def test_cardioid_fits_unit_square(self, cardioid):
        pts = cardioid.position(np.linspace(0, 2 * np.pi, 4096))
        assert pts[:, 0].min() > -1e-9 and pts[:, 0].max() < 1 + 1e-9
        assert pts[:, 1].min() > -1e-9 and pts[:, 1].max() < 1 + 1e-9

    def test_cardioid_diameter_without_dense_matrix(self):
        tracemalloc.start()
        try:
            dom = cardioid_domain()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense 2048 x 2048 distance matrix would take about 130 MB here
        assert peak < 40e6
        pts = dom._pts
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        assert dom.diameter == float(np.sqrt(dx * dx + dy * dy).max())

    def test_orientation_validated(self):
        with pytest.raises(ValueError):
            SmoothCurveDomain(
                lambda t: np.stack([np.cos(-t), np.sin(-t)], axis=-1),
                lambda t: np.stack([np.sin(-t), -np.cos(-t)], axis=-1),
                lambda t: np.stack([-np.cos(-t), -np.sin(-t)], axis=-1))

    def test_from_table_round_trip(self):
        theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        rows = np.stack([theta, np.cos(theta), np.sin(theta),
                         -np.sin(theta), np.cos(theta),
                         -np.cos(theta), -np.sin(theta)], axis=1)
        dom = SmoothCurveDomain.from_table(rows)
        assert dom.probe((0.5, 0.0)).distance == pytest.approx(0.5, abs=1e-6)

    def test_curvature_sign_circle(self):
        circ = SmoothCurveDomain.circle(radius=2.0)
        assert circ.probe((1.0, 0.0)).curvature == pytest.approx(0.5, abs=1e-9)


class TestPolygon:
    def test_square_probe(self, square):
        p = square.probe((0.5, 0.1))
        assert p.distance == pytest.approx(0.1)
        assert p.point == pytest.approx([0.5, 0.0])
        assert p.normal == pytest.approx([0.0, -1.0])
        assert p.curvature == 0.0

    def test_center_is_ambiguous(self, square):
        assert square.probe((0.5, 0.5)).ambiguous

    def test_near_corner_flagged(self, square):
        p = square.probe((1e-10, 0.5e-10))
        assert p.near_corner
        assert math.isnan(p.curvature)

    def test_axis_aligned_enforced(self):
        with pytest.raises(ValueError):
            AxisAlignedPolygon([(0, 0), (1, 1), (0, 2), (-1, 1)])

    def test_ccw_enforced(self):
        with pytest.raises(ValueError):
            AxisAlignedPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_contains(self, square):
        assert square.contains((0.5, 0.5))
        assert not square.contains((1.5, 0.5))
        assert not square.contains((1.0, 0.5))  # boundary point


class TestMinSeparation:
    def test_single(self):
        assert min_separation(config([(0.5, 0)]), Disk()) == pytest.approx(0.5)

    def test_pair_symmetric(self):
        c = config([(0.5, 0), (-0.5, 0)], [1, -1])
        assert min_separation(c, Disk()) == pytest.approx(0.5)

    def test_three_candidates(self):
        c = config([(0.9, 0), (0.7, 0)], [1, -1])
        assert min_separation(c, Disk()) == pytest.approx(0.1)

    def test_plane_only_pairwise(self):
        c = config([(0.0, 0), (3.0, 4.0)], [1, 1])
        assert min_separation(c, Plane()) == pytest.approx(5.0)
        assert min_separation(config([(0, 0)]), Plane()) == math.inf

    def test_permutation_invariance(self, rng):
        pts = rng.uniform(-0.6, 0.6, (4, 2))
        c1 = config(pts)
        perm = rng.permutation(4)
        c2 = config(pts[perm])
        assert min_separation(c1, Disk()) == pytest.approx(
            min_separation(c2, Disk()), abs=1e-15)

    def test_rigid_motion_invariance(self, rng):
        pts = rng.uniform(-0.5, 0.5, (3, 2))
        ang = 1.1
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        shift = np.array([0.3, -0.2])
        moved = pts @ R.T + shift
        d1 = min_separation(config(pts), Disk())
        d2 = min_separation(config(moved), Disk(center=tuple(shift)))
        assert d1 == pytest.approx(d2, abs=1e-12)


class TestClasses:
    def test_class_D_single(self):
        c = config([(0.95, 0)])
        assert in_class_D(c, Disk(), 0.1, 0.5)

    def test_class_D_pair_true(self):
        c = config([(0.95, 0), (-0.2, 0)], [1, -1])
        assert in_class_D(c, Disk(), 0.1, 0.5)

    def test_class_D_pair_false(self):
        c = config([(0.95, 0), (-0.6, 0)], [1, -1])
        assert not in_class_D(c, Disk(), 0.1, 0.5)

    def test_class_D_order_error(self):
        with pytest.raises(ParameterOrder):
            in_class_D(config([(0.95, 0)]), Disk(), 0.5, 0.1)

    def test_class_C_pair_true(self):
        c = config([(0.05, 0), (-0.05, 0)], [1, -1])
        assert in_class_C(c, Disk(), 0.2, 0.5)

    def test_class_C_separation_false(self):
        c = config([(0.05, 0), (0.4, 0)], [1, -1])
        assert not in_class_C(c, Disk(), 0.2, 0.5)

    def test_class_C_third_too_close(self):
        c = config([(0.05, 0), (-0.05, 0), (0.3, 0)], [1, -1, 1])
        assert not in_class_C(c, Disk(), 0.2, 0.5)

    def test_class_C_order_error(self):
        with pytest.raises(ParameterOrder):
            in_class_C(config([(0, 0.1), (0, -0.1)], [1, -1]),
                       Disk(), 0.5, 0.2)

    @given(delta=st.floats(0.01, 0.15), gamma=st.floats(0.2, 0.6),
           wider=st.floats(1.0, 2.0), narrower=st.floats(0.3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_class_D_monotone(self, delta, gamma, wider, narrower):
        c = config([(0.93, 0.0), (-0.25, 0.1)], [1, -1])
        dom = Disk()
        if in_class_D(c, dom, delta, gamma):
            # enlarging delta or shrinking gamma keeps membership
            assert in_class_D(c, dom, min(delta * wider, gamma * 0.99), gamma)
            if delta < gamma * narrower:
                assert in_class_D(c, dom, delta, gamma * max(narrower,
                                                             delta / gamma + 1e-6))

    @given(zeta=st.floats(0.02, 0.3), eta=st.floats(0.35, 0.8),
           wider=st.floats(1.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_class_C_monotone(self, zeta, eta, wider):
        c = config([(0.04, 0.0), (-0.04, 0.02)], [1, -1])
        dom = Disk()
        if in_class_C(c, dom, zeta, eta):
            assert in_class_C(c, dom, min(zeta * wider, eta * 0.99), eta)
            assert in_class_C(c, dom, zeta, max(eta / wider, zeta * 1.01))


class TestTypes:
    def test_burgers_validated(self):
        with pytest.raises(ValueError):
            Dislocation(np.array([0.0, 0.0]), 2)

    def test_distinct_positions(self):
        with pytest.raises(ValueError):
            config([(0.1, 0.1), (0.1, 0.1)], [1, -1])

    def test_validate_in_domain(self):
        c = config([(1.5, 0.0)])
        with pytest.raises(ValueError):
            c.validate_in(Disk())

    def test_disk_radius_positive(self):
        with pytest.raises(ValueError):
            Disk(radius=-1.0)


class TestDiskRadiusEstimate:
    def test_ellipse_default_rho(self):
        # max curvature of an ellipse sits at the major-axis ends: a / b^2
        a, b = 1.0, 0.6
        dom = SmoothCurveDomain(
            lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=-1),
            lambda t: np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1),
            lambda t: np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1))
        assert dom.disk_radius == pytest.approx(b * b / a, rel=1e-4)

    def test_supplied_rho_wins(self):
        circ = SmoothCurveDomain.circle(radius=2.0)
        assert circ.disk_radius == 2.0
