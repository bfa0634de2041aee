import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dislodyn.errors import NoBoundary, ParameterOrder
from dislodyn.geometry import (_CARDIOID_A, AxisAlignedPolygon, Configuration, Disk,
                               Dislocation, ExteriorDisk, HalfPlane, Plane,
                               SmoothCurveDomain, _odd_crossings, _separation,
                               cardioid_domain, in_class_C, in_class_D,
                               min_separation)


def config(points, burgers=None):
    if burgers is None:
        burgers = [1] * len(points)
    return Configuration.from_arrays(points, burgers)


class TestBoundaryProbe:
    def test_disk_radial(self):
        p = Disk().probe((0.5, 0.0))
        assert p.distance == pytest.approx(0.5, abs=1e-15)
        assert p.point == pytest.approx([1.0, 0.0])
        assert p.normal == pytest.approx([1.0, 0.0])
        assert p.curvature == pytest.approx(1.0)

    def test_halfplane_flat(self):
        p = HalfPlane.upper().probe((0.0, 0.1))
        assert p.distance == pytest.approx(0.1)
        assert p.point == pytest.approx([0.0, 0.0])
        assert p.normal == pytest.approx([0.0, -1.0])
        assert p.curvature == 0.0

    def test_disk_diagonal_point(self):
        # |x| = 0.5 so the nearest point is x/|x|
        p = Disk().probe((0.3, 0.4))
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
            assert dom.probe(x).distance == pytest.approx(
                d_brute, abs=1e-8)

    def test_disk_radial_closed_form_sweep(self, rng):
        dom = Disk(radius=2.5)
        for _ in range(200):
            x = rng.uniform(-2.4, 2.4, 2)
            if not dom.contains(x):
                continue
            expected = 2.5 - np.linalg.norm(x)
            assert abs(dom.probe(x).distance - expected) < 1e-12

    def test_exterior_disk(self):
        p = ExteriorDisk().probe((2.0, 0.0))
        assert p.distance == pytest.approx(1.0)
        assert p.normal == pytest.approx([-1.0, 0.0])
        assert p.curvature == pytest.approx(-1.0)

    def test_plane_has_no_boundary(self):
        with pytest.raises(NoBoundary):
            Plane().probe((0.0, 0.0))

    def test_disk_center_ambiguous(self):
        p = Disk().probe((0.0, 0.0))
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

    def test_parametrization_must_be_points_by_coordinates(self):
        # a (2, m) array is refused, not read as m scrambled points
        with pytest.raises(ValueError, match=r"shape \(2, 1024\)"):
            SmoothCurveDomain(lambda t: np.array([np.cos(t), np.sin(t)]),
                              lambda t: np.array([-np.sin(t), np.cos(t)]),
                              lambda t: np.array([-np.cos(t), -np.sin(t)]))

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


def trefoil_table(m=400):
    """Sample rows of the non-convex curve r = 1 + 0.3 cos 3t for
    ``SmoothCurveDomain.from_table``."""
    t = np.linspace(0, 2 * np.pi, m, endpoint=False)
    r, dr, ddr = 1 + 0.3 * np.cos(3 * t), -0.9 * np.sin(3 * t), -2.7 * np.cos(3 * t)
    c, s = np.cos(t), np.sin(t)
    return np.stack([t, r * c, r * s, dr * c - r * s, dr * s + r * c,
                     ddr * c - 2 * dr * s - r * c, ddr * s + 2 * dr * c - r * s],
                    axis=1)


def widened_box_points(dom, count, seed):
    lo, hi = dom._pts.min(axis=0) - 0.05, dom._pts.max(axis=0) + 0.05
    return np.random.default_rng(seed).uniform(lo, hi, (count, 2))


CURVES = {"cardioid": cardioid_domain,
          "table": lambda: SmoothCurveDomain.from_table(trefoil_table())}


class TestCurveNewton:
    """The safeguarded Newton refinement of the nearest boundary point."""

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_tangential_residual_at_rounding_level(self, name):
        dom = CURVES[name]()
        worst = 0.0
        for x, y in widened_box_points(dom, 3000, 3000):
            _, _, theta, _, converged = dom._nearest(x, y)
            assert converged
            th = np.array([theta])
            q, d = dom.position(th)[0], dom.derivative(th)[0]
            worst = max(worst, abs((q - (x, y)) @ d))
        assert worst < 1e-14 * dom.diameter ** 2

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_distance_matches_dense_search(self, name):
        dom = CURVES[name]()
        pts = widened_box_points(dom, 3000, 3000)
        dense = dom.position(np.linspace(0, 2 * np.pi, 2 ** 16, endpoint=False))
        spacing = np.hypot(*np.diff(dense, axis=0, append=dense[:1]).T).max()
        for p in pts:
            d = dom.probe(p).distance
            brute = math.sqrt(np.min((dense[:, 0] - p[0]) ** 2
                                     + (dense[:, 1] - p[1]) ** 2))
            # no dense sample is nearer, and the dense search overshoots by
            # at most its resolution
            assert -1e-15 <= brute - d <= spacing ** 2 / max(d, spacing)

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_sign_is_the_ray_cast(self, name):
        dom = CURVES[name]()
        pts = widened_box_points(dom, 3000, 3000)
        sd = np.array([dom.signed_distance(p) for p in pts])
        assert ((sd > 0) == dom.contains_many(pts)).all()
        # most signs come from the normal, not from the ray cast
        assert sum(dom._probe(p)[1] != 0.0 for p in pts[:300]) > 250

    def test_circle_matches_disk(self):
        circ = SmoothCurveDomain.circle(radius=1.3, center=(0.2, -0.1))
        disk = Disk(center=(0.2, -0.1), radius=1.3)
        pts = widened_box_points(circ, 3000, 3000)
        sd = np.array([circ.signed_distance(p) for p in pts])
        assert ((sd > 0) == circ.contains_many(pts)).all()
        for p, s in zip(pts, sd):
            a, b = circ.probe(p), disk.probe(p)
            assert abs(s) == a.distance
            assert abs(a.distance - b.distance) < 1e-12
            assert np.abs(a.point - b.point).max() < 1e-12
            assert np.abs(a.normal - b.normal).max() < 1e-9

    def test_curve_evaluations_per_query(self, cardioid, monkeypatch):
        calls = []
        position = cardioid.position

        def counted(t):
            calls.append(len(t))
            return position(t)

        monkeypatch.setattr(cardioid, "position", counted)
        per_query = []
        for p in widened_box_points(cardioid, 300, 7):
            calls.clear()
            cardioid.signed_distance(p)
            per_query.append(len(calls))
        assert np.mean(per_query) <= 4 and max(per_query) <= 6

    def test_cusp(self, cardioid):
        cusp = cardioid.position(np.zeros(1))[0]
        a = _CARDIOID_A
        points = [cusp]
        for eps in (1e-12, 1e-9, 1e-6, 1e-3):
            # on the symmetry axis, just inside and just outside
            points += [cusp - (eps, 0.0), cusp + (eps, 0.0)]
        for r in (1e-6, 1e-3, 0.05):
            # inside, with the cusp as nearest boundary point
            for ang in (0.6 * np.pi, np.pi, 1.4 * np.pi):
                points.append(cusp + r * np.array([np.cos(ang), np.sin(ang)]))
        inside = cardioid.contains_many(np.array(points))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, c in zip(points, inside):
                probe, side = cardioid._probe(p)
                assert np.isfinite(probe.normal).all()
                assert np.linalg.norm(probe.normal) == pytest.approx(1.0)
                assert (cardioid.signed_distance(p) > 0) == c
                assert cardioid.contains(p) == c
                if probe.point.tolist() == cusp.tolist():
                    # zero speed: the ray cast decides, and the curvature
                    # is undefined
                    assert side == 0.0
                    assert not math.isfinite(probe.curvature)
                    assert probe.distance == pytest.approx(
                        np.linalg.norm(p - cusp), abs=1e-15)
        assert inside[1::2][:4].all() and not inside[2::2][:4].any()
        # the branches sit a * (x / a)^(3/2) off the axis
        assert cardioid.probe(cusp + (1e-3, 0.0)).distance == pytest.approx(
            a * (1e-3 / a) ** 1.5, rel=1e-2)


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


# every domain that answers contains_many, with a box around its boundary
QUERY_DOMAINS = {
    "disk": (Disk(center=(0.3, -0.2), radius=1.7), (-1.6, 2.2)),
    "exterior_disk": (ExteriorDisk(center=(0.1, 0.2), radius=0.8), (-1.5, 1.5)),
    "square": (AxisAlignedPolygon.square(), (-0.2, 1.2)),
    "L": (AxisAlignedPolygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
          (-0.2, 2.2)),
    "cardioid": (cardioid_domain(), (-0.1, 1.1)),
}


@pytest.mark.parametrize("name", sorted(QUERY_DOMAINS))
def test_queries_agree(name, rng):
    dom, (lo, hi) = QUERY_DOMAINS[name]
    pts = rng.uniform(lo, hi, (300, 2))
    inside = [dom.contains(p) for p in pts]
    assert 50 < sum(inside) < 250
    assert dom.contains_many(pts).tolist() == inside
    for p, c in zip(pts, inside):
        sd = dom.signed_distance(p)
        assert (sd > 0) == c
        assert dom.probe(p).distance == abs(sd)


def test_disk_and_exterior_are_opposite(rng):
    inner, outer = Disk(center=(0.2, -0.1), radius=0.7), \
        ExteriorDisk(center=(0.2, -0.1), radius=0.7)
    for p in rng.uniform(-1.0, 1.0, (50, 2)):
        a, b = inner.probe(p), outer.probe(p)
        assert outer.signed_distance(p) == -inner.signed_distance(p)
        assert b.normal.tolist() == (-a.normal).tolist()
        assert b.curvature == -a.curvature
        assert b.point.tolist() == a.point.tolist() and b.distance == a.distance


def all_edges_ray_cast(points, edges):
    """The even-odd ray cast with a crossing for every (point, edge) pair,
    kept as the reference for the straddling-edge one."""
    (vx, vy), (wx, wy) = edges[:, 0].T, edges[:, 1].T
    px, py = points[:, :1], points[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = vx + (py - vy) * (wx - vx) / (wy - vy)
    return np.sum(((vy > py) != (wy > py)) & (xs > px), axis=1) % 2 == 1


@pytest.mark.parametrize("name", ["square", "L", "cardioid"])
def test_ray_cast_matches_all_edges(name, rng):
    dom, (lo, hi) = QUERY_DOMAINS[name]
    edges = dom._edges
    v = edges[:, 0]
    vertical = edges[edges[:, 0, 0] == edges[:, 1, 0]]
    pts = np.concatenate([
        rng.uniform(lo, hi, (700, 2)),
        # level with every vertex, left of, at and right of it
        np.column_stack([rng.uniform(lo, hi, len(v)), v[:, 1]]),
        v,
        v + [0.25, 0.0],
        # on the vertical edges, and level with their ends
        vertical[:, 0] + rng.uniform(size=(len(vertical), 1))
        * (vertical[:, 1] - vertical[:, 0]),
        vertical[:, 1] - [1e-3, 0.0],
    ])
    got = _odd_crossings(pts, edges)
    assert got.tolist() == all_edges_ray_cast(pts, edges).tolist()
    assert 0 < got.sum() < len(pts)


def loop_separation(positions, domain, first=1):
    """The boundary distances and a 2-norm per pair, in a Python loop."""
    best = math.inf
    if domain.has_boundary:
        best = min(domain.probe(p).distance for p in positions)
    for j in range(first, len(positions)):
        for i in range(j):
            best = min(best, float(np.linalg.norm(positions[i] - positions[j])))
    return best


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

    @pytest.mark.parametrize("domain", [Disk(), Plane()])
    def test_twenty_match_pair_loop(self, domain, rng):
        for _ in range(20):
            pts = rng.uniform(-0.6, 0.6, (20, 2))
            for first in (1, 2):
                ref = loop_separation(pts, domain, first)
                assert abs(_separation(pts, domain, first) - ref) <= np.spacing(ref)
            assert min_separation(config(pts), domain) == _separation(pts, domain)


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

    def test_duplicates_refused_among_twenty(self, rng):
        pts = rng.uniform(-0.6, 0.6, (20, 2))
        config(pts)
        for a, b in ([0.3, 0.1], [0.3, 0.1]), ([0.0, 0.1], [-0.0, 0.1]), \
                ([0.2, -0.0], [0.2, 0.0]):
            dup = pts.copy()
            dup[4], dup[17] = a, b
            with pytest.raises(ValueError, match="pairwise distinct"):
                config(dup)
        # one ulp apart is distinct; NaN equals nothing, so NaN coordinates
        # are never duplicates
        near = pts.copy()
        near[17] = np.nextafter(near[4], 1.0)
        config(near)
        nan = pts.copy()
        nan[4] = nan[17] = [math.nan, 0.1]
        config(nan)

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
