"""Domain descriptions and geometric queries.

Domains are immutable after construction and all queries are pure, so they
can be shared freely between concurrent workers.  Every domain answers

* ``signed_distance(x)``  -- positive inside, negative outside,
* ``probe(x)``            -- distance, nearest boundary point, outward
  normal and signed curvature there,
* ``contains(x)``         -- strict interior test,

plus the scalar descriptors ``diameter`` and ``disk_radius`` (the radius of
the uniform interior/exterior tangent disks; infinite for flat boundaries,
undefined for polygons).  The bounded domains and the exterior disk also
answer ``contains_many(points)``, the interior test of an (m, 2) array.

Each query has one body.  ``Disk`` and ``ExteriorDisk`` share theirs and
differ only in the sign of the side they keep; the smooth curve and the
polygon test containment with one even-odd ray cast against a closed
polyline, which computes a crossing only for the edges that straddle each
point's height; the polygon projects points onto all its edges in one (m, E)
pass; and ``min_separation``, ``in_class_D`` and ``in_class_C`` take their
distances to the event set from one function.

The smooth curve's nearest point costs a few curve evaluations: an argmin
over its samples, then safeguarded Newton steps on the parameter, the first
from derivatives cached at the samples.  Its ``signed_distance`` takes the
sign from the outward normal there, and casts a ray only where the normal
cannot decide: at a cusp, at an ambiguous or unconverged probe, and within
the sag band, the distance within which the sample polyline and the curve
may put a point on different sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoBoundary, ParameterOrder

__all__ = [
    "BoundaryProbe",
    "Disk",
    "ExteriorDisk",
    "HalfPlane",
    "Plane",
    "SmoothCurveDomain",
    "AxisAlignedPolygon",
    "Dislocation",
    "Configuration",
    "min_separation",
    "in_class_D",
    "in_class_C",
    "cardioid_domain",
]

_VERTEX_TOL = 1e-9
# Newton refinement on a smooth curve: at most _NEWTON_ITERATIONS curve
# evaluations, converged once the residual is within _ROUNDING of the size
# of its terms, and the normal decides the side only where x - gamma(theta)
# is normal to the curve within _NORMAL_TOL (relative)
_NEWTON_ITERATIONS = 60
_ROUNDING = 8.0 * np.finfo(float).eps
_NORMAL_TOL = 1e-6


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {p.shape}")
    return p


def _odd_crossings(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Even-odd ray cast of (m, 2) points against a closed polyline, given
    as (E, 2 endpoints, 2) ``edges``: True where a ray to +x crosses it an
    odd number of times.  Only the edges that straddle a point's y, none of
    them horizontal, get a crossing.  Points go 512 at a time, so a dense
    curve needs no large temporaries."""
    (vx, vy), (wx, wy) = edges[:, 0].T, edges[:, 1].T
    out = np.empty(len(points), dtype=bool)
    for s in range(0, len(points), 512):
        px = points[s:s + 512, 0]
        py = points[s:s + 512, 1]
        k, e = np.nonzero((vy > py[:, None]) != (wy > py[:, None]))
        xs = vx[e] + (py[k] - vy[e]) * (wx[e] - vx[e]) / (wy[e] - vy[e])
        out[s:s + 512] = np.bincount(k[xs > px[k]], minlength=len(px)) % 2 == 1
    return out


def _pair(x, y) -> np.ndarray:
    """``np.stack([x, y], axis=-1)`` without its per-call overhead, which
    the one-parameter evaluations of a boundary probe would pay."""
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def _frame(d: np.ndarray, dd: np.ndarray):
    """Unit tangent, outward normal, signed curvature and speed of a CCW
    curve from its (m, 2) first and second derivatives."""
    speed = np.hypot(d[:, 0], d[:, 1])
    tangent = d / speed[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    kappa = (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed**3
    return tangent, normal, kappa, speed


@dataclass(frozen=True)
class BoundaryProbe:
    """Result of a nearest-boundary query.

    ``distance`` is the unsigned distance to the boundary, ``point`` the
    nearest boundary point, ``normal`` the outward unit normal there and
    ``curvature`` the signed curvature (positive for the unit-disk boundary
    seen from inside).  ``ambiguous`` flags a non-unique minimizer (possible
    only at distance >= disk_radius); ``near_corner`` flags a polygon probe
    whose nearest point fell within tolerance of a vertex, where the
    curvature is undefined.
    """

    distance: float
    point: np.ndarray
    normal: np.ndarray
    curvature: float
    ambiguous: bool = False
    near_corner: bool = False


class Domain:
    """Shared interface; concrete variants below."""

    has_boundary: bool = True
    bounded: bool = True

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def disk_radius(self) -> float:
        raise NotImplementedError

    def signed_distance(self, x) -> float:
        raise NotImplementedError

    def contains(self, x, margin: float = 0.0) -> bool:
        return self.signed_distance(x) > margin

    def probe(self, x) -> BoundaryProbe:
        raise NotImplementedError


@dataclass(frozen=True)
class _RoundDomain(Domain):
    """One side of a circle: ``_side`` is +1 for the disk, -1 for its exterior.

    The kernels and the samplers dispatch on ``isinstance(domain, Disk)``, so
    the two sides share this base and neither subclasses the other.
    """

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    _side = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be strictly positive")
        # the centre as an array, so queries convert no tuple per call
        object.__setattr__(self, "_c", np.asarray(self.center, dtype=float))

    @property
    def disk_radius(self) -> float:
        return self.radius

    def signed_distance(self, x) -> float:
        u = _as_point(x) - self._c
        # a difference, not side * (radius - r): on the circle both sides
        # give +0.0
        side = self._side
        return side * self.radius - side * math.hypot(u[0], u[1])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2) - self._c
        return self._side * (self.radius - np.hypot(pts[:, 0], pts[:, 1])) > 0.0

    def probe(self, x) -> BoundaryProbe:
        u = _as_point(x) - self._c
        r = math.hypot(u[0], u[1])
        side = self._side
        if r == 0.0:
            # every boundary point is nearest; return an arbitrary one
            s = self._c + (self.radius, 0.0)
            return BoundaryProbe(self.radius, s, np.array([side, 0.0]),
                                 side / self.radius, ambiguous=True)
        # the outward normal of the exterior points into the removed disk;
        # dividing by -r negates u / r exactly
        nu = u / (side * r)
        return BoundaryProbe(abs(self.radius - r), self._c + (side * self.radius) * nu,
                             nu, side / self.radius)


class Disk(_RoundDomain):
    """Open disk of ``radius`` about ``center``."""

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


class ExteriorDisk(_RoundDomain):
    """Complement of a closed disk; the domain is unbounded."""

    bounded = False
    _side = -1.0

    @property
    def diameter(self) -> float:
        return math.inf


@dataclass(frozen=True)
class HalfPlane(Domain):
    """Half plane { x : x . normal < offset } with flat boundary."""

    normal: tuple[float, float] = (0.0, -1.0)
    offset: float = 0.0
    bounded = False

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError("half-plane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(n / norm))

    @classmethod
    def upper(cls) -> "HalfPlane":
        """The upper half plane { y > 0 }."""
        return cls(normal=(0.0, -1.0), offset=0.0)

    @property
    def diameter(self) -> float:
        return math.inf

    @property
    def disk_radius(self) -> float:
        return math.inf

    def signed_distance(self, x) -> float:
        p = _as_point(x)
        return self.offset - float(p @ self.normal)

    def probe(self, x) -> BoundaryProbe:
        p = _as_point(x)
        nu = np.asarray(self.normal)
        d = self.offset - float(p @ nu)
        s = p + d * nu
        return BoundaryProbe(abs(d), s, nu.copy(), 0.0)


@dataclass(frozen=True)
class Plane(Domain):
    """The whole plane; it has no boundary and every boundary query fails."""

    has_boundary = False
    bounded = False

    @property
    def diameter(self) -> float:
        return math.inf

    @property
    def disk_radius(self) -> float:
        return math.inf

    def signed_distance(self, x) -> float:
        return math.inf

    def contains(self, x, margin: float = 0.0) -> bool:
        return True

    def probe(self, x) -> BoundaryProbe:
        raise NoBoundary("the whole plane has no boundary")


class SmoothCurveDomain(Domain):
    """Interior of a simple closed C^2 curve given parametrically.

    The curve must be traversed counterclockwise on [0, 2*pi).  A nearest-point
    query starts at the nearest of ``n_samples`` nodes and refines theta by
    safeguarded Newton steps on (gamma(theta) - x) . gamma'(theta) = 0: each
    step stays inside the bracket of the node's two neighbours, which the
    sign of that residual shrinks, and the bracket is bisected wherever the
    step would leave it or the squared distance is not convex.  Containment
    is an even-odd ray cast against the sample polyline.

    ``signed_distance`` takes its sign from the outward normal at the nearest
    point, and falls back to the ray cast wherever the normal cannot decide:
    where Newton did not converge to a minimum, at an ambiguous probe, at zero
    speed (a cusp), where x - gamma(theta) is not normal to the curve, and
    within the sag band, twice the largest gap between the curve and its
    polyline, where the two may put a point on different sides.  So
    ``signed_distance(x) > 0`` is exactly ``contains(x)``.
    """

    def __init__(
        self,
        position: Callable[[np.ndarray], np.ndarray],
        derivative: Callable[[np.ndarray], np.ndarray],
        second_derivative: Callable[[np.ndarray], np.ndarray],
        rho: float | None = None,
        n_samples: int = 1024,
        name: str = "parametric",
    ):
        self.position = position
        self.derivative = derivative
        self.second_derivative = second_derivative
        self.name = name
        self._theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        self._step = 2.0 * np.pi / n_samples
        pts, d, dd = self._jet(self._theta)
        # a cusp node has zero speed and no frame; its curvature is dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = _frame(d, dd)[2]
        self._pts = pts
        # contiguous coordinates for the nearest-sample search, and the jet
        # (x, y, x', y', x'', y'') of every node, where Newton starts
        self._xs = np.ascontiguousarray(pts[:, 0])
        self._ys = np.ascontiguousarray(pts[:, 1])
        self._jets = np.hstack([pts, d, dd])
        w = np.roll(pts, -1, axis=0)
        self._edges = np.stack([pts, w], axis=1)
        area2 = np.sum(pts[:, 0] * w[:, 1] - w[:, 0] * pts[:, 1])
        if area2 <= 0:
            raise ValueError("curve must be simple, closed and counterclockwise")
        # the sag band: beyond twice the curve's largest gap from its
        # polyline (taken at the mid-parameters, where a smooth arc's gap
        # peaks), the ray cast and the curve put a point on the same side
        gap = (np.asarray(position(self._theta + 0.5 * self._step), float)
               - 0.5 * (pts + w))
        self._sag = 2.0 * float(np.hypot(gap[:, 0], gap[:, 1]).max())
        kappa = kappa[np.isfinite(kappa)]
        kmax = float(np.max(np.abs(kappa))) if kappa.size else 0.0
        self._rho = float(rho) if rho is not None else (
            1.0 / kmax if kmax > 0 else math.inf)
        # nodes more than 4 indices from node 0 around the circle; the
        # ambiguity scan reads it at index offsets from the nearest node
        offset = np.arange(n_samples)
        self._far = np.minimum(offset, n_samples - offset) > 4
        # largest pairwise distance, 256 rows at a time: the whole matrix
        # takes over 100 MB at the cardioid's 2048 samples
        x, y = self._pts[:, :1], self._pts[:, 1:]
        self._diam = max(float(np.sqrt((x[i:i + 256] - x.T) ** 2
                                       + (y[i:i + 256] - y.T) ** 2).max())
                         for i in range(0, n_samples, 256))

    @property
    def diameter(self) -> float:
        return self._diam

    @property
    def disk_radius(self) -> float:
        return self._rho

    def _jet(self, th: np.ndarray):
        """Position, first and second derivative at the parameters ``th``,
        each (len(th), 2)."""
        jet = tuple(np.asarray(f(th), float) for f in
                    (self.position, self.derivative, self.second_derivative))
        for a in jet:
            if a.shape != (len(th), 2):
                raise ValueError(f"the parametrization returned shape {a.shape} "
                                 f"for {len(th)} parameters; expected "
                                 f"({len(th)}, 2)")
        return jet

    def curve_frame(self, theta):
        """Point, unit tangent, outward normal, curvature and speed at theta."""
        th = np.atleast_1d(np.asarray(theta, float))
        p, d, dd = self._jet(th)
        tangent, normal, kappa, speed = _frame(d, dd)
        if np.isscalar(theta) or np.asarray(theta).ndim == 0:
            return p[0], tangent[0], normal[0], float(kappa[0]), float(speed[0])
        return p, tangent, normal, kappa, speed

    def contains(self, x, margin: float = 0.0) -> bool:
        p = _as_point(x)
        inside = bool(_odd_crossings(p[None], self._edges)[0])
        if margin > 0.0 and inside:
            return self.probe(p).distance > margin
        return inside

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        return _odd_crossings(np.asarray(points, dtype=float).reshape(-1, 2),
                              self._edges)

    def signed_distance(self, x) -> float:
        p = _as_point(x)
        probe, side = self._probe(p)
        if side == 0.0:
            side = 1.0 if _odd_crossings(p[None], self._edges)[0] else -1.0
        return side * probe.distance

    def probe(self, x) -> BoundaryProbe:
        return self._probe(_as_point(x))[0]

    def _nearest(self, x: float, y: float):
        """Squared distances from (x, y) to the samples, the nearest sample's
        index, the parameter theta of the nearest boundary point, its jet,
        and whether Newton converged there to a minimum of the distance."""
        d2 = (self._xs - x) ** 2 + (self._ys - y) ** 2
        k = int(np.argmin(d2))
        t = float(self._theta[k])
        lo, hi = t - self._step, t + self._step
        jet = self._jets[k].tolist()
        for _ in range(_NEWTON_ITERATIONS):
            qx, qy, dx, dy, ddx, ddy = jet
            rx, ry = qx - x, qy - y
            # half the first and second derivatives of |gamma(t) - (x, y)|^2
            g = rx * dx + ry * dy
            h = dx * dx + dy * dy + rx * ddx + ry * ddy
            # converged once g is down to the rounding error of its terms
            if h > 0.0 and abs(g) <= _ROUNDING * ((abs(qx) + abs(qy) + abs(x) + abs(y))
                                                 * (abs(dx) + abs(dy))):
                return d2, k, t, jet, True
            if g > 0.0:
                hi = t
            elif g < 0.0 or h <= 0.0:
                # at g == 0 this is a maximum or a flat point, and either
                # side holds a minimum
                lo = t
            if h > 0.0:
                t_new = t - g / h
                if lo < t_new < hi:
                    t = t_new
                    jet = self._jet_at(t)
                    continue
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            t = mid
            jet = self._jet_at(t)
        return d2, k, t, jet, False

    def _jet_at(self, t: float) -> list[float]:
        """The jet (x, y, x', y', x'', y'') at one parameter, as floats."""
        return [v for a in self._jet(np.array((t,))) for v in a[0].tolist()]

    def _probe(self, p: np.ndarray):
        """The probe of ``p`` and its side of the curve: +1 inside, -1
        outside, 0 where the normal cannot decide."""
        x, y = float(p[0]), float(p[1])
        d2, k, _, (qx, qy, dx, dy, ddx, ddy), converged = self._nearest(x, y)
        # the frame of one point in floats, as _frame computes it for arrays
        # at a tenth of the cost; at zero speed (a cusp) the tangent is its
        # limit from above, along the second derivative
        speed = math.hypot(dx, dy)
        if speed > 0.0:
            tx, ty = dx / speed, dy / speed
            kappa = (dx * ddy - dy * ddx) / speed**3
        else:
            s = math.hypot(ddx, ddy)
            tx, ty = ddx / s, ddy / s
            kappa = math.nan
        rx, ry = x - qx, y - qy
        dist = math.hypot(rx, ry)
        # ambiguity: another local minimum matching the global one
        ambiguous = False
        if dist >= self._rho * (1.0 - 1e-9):
            ties = np.flatnonzero(d2 - d2[k] < 1e-9 * max(1.0, self._diam) ** 2)
            ambiguous = bool(np.any(self._far[(ties - k) % len(d2)]))
        side = 0.0
        if (converged and not ambiguous and speed > 0.0 and dist > self._sag
                and abs(rx * dx + ry * dy) <= _NORMAL_TOL * dist * speed):
            side = -1.0 if rx * ty - ry * tx > 0.0 else 1.0
        probe = BoundaryProbe(dist, np.array([qx, qy]), np.array([ty, -tx]), kappa,
                              ambiguous=ambiguous)
        return probe, side

    @classmethod
    def circle(cls, radius: float = 1.0, center=(0.0, 0.0),
               n_samples: int = 1024) -> "SmoothCurveDomain":
        cx, cy = center

        def pos(t):
            return _pair(cx + radius * np.cos(t), cy + radius * np.sin(t))

        def dpos(t):
            return _pair(-radius * np.sin(t), radius * np.cos(t))

        def ddpos(t):
            return _pair(-radius * np.cos(t), -radius * np.sin(t))

        return cls(pos, dpos, ddpos, rho=radius, n_samples=n_samples, name="circle")

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[float]],
                   rho: float | None = None) -> "SmoothCurveDomain":
        """Build a curve from (theta, x, y, x', y', x'', y'') sample rows.

        Positions are interpolated with periodic cubic splines; the supplied
        derivative columns are checked against the spline for consistency.
        """
        from scipy.interpolate import CubicSpline

        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 7:
            raise ValueError("table rows must be (theta, x, y, x', y', x'', y'')")
        order = np.argsort(arr[:, 0])
        arr = arr[order]
        theta = np.concatenate([arr[:, 0], [arr[0, 0] + 2.0 * np.pi]])
        xs = np.concatenate([arr[:, 1], [arr[0, 1]]])
        ys = np.concatenate([arr[:, 2], [arr[0, 2]]])
        sx = CubicSpline(theta, xs, bc_type="periodic")
        sy = CubicSpline(theta, ys, bc_type="periodic")
        scale = max(1.0, float(np.abs(arr[:, 3:5]).max()))
        resid = max(float(np.abs(sx(arr[:, 0], 1) - arr[:, 3]).max()),
                    float(np.abs(sy(arr[:, 0], 1) - arr[:, 4]).max()))
        if resid > 1e-2 * scale:
            raise ValueError("derivative columns inconsistent with sampled positions")

        t0 = float(arr[0, 0])

        def wrap(t):
            return np.mod(np.asarray(t, float) - t0, 2.0 * np.pi) + t0

        def pos(t):
            t = wrap(t)
            return _pair(sx(t), sy(t))

        def dpos(t):
            t = wrap(t)
            return _pair(sx(t, 1), sy(t, 1))

        def ddpos(t):
            t = wrap(t)
            return _pair(sx(t, 2), sy(t, 2))

        return cls(pos, dpos, ddpos, rho=rho, n_samples=max(1024, 2 * len(rows)),
                   name="table")


# default cardioid scale: full height 2 * 2a * max((1-cos t) sin t) equals one
_CARDIOID_A = 1.0 / (4.0 * 1.2990381056766580)


def cardioid_domain(a: float = _CARDIOID_A, offset: tuple[float, float] | None = None,
                    n_samples: int = 2048) -> SmoothCurveDomain:
    """Builtin cardioid r(theta) = 2a(1 - cos theta), shifted into the unit square.

    The default ``a`` makes the bounding box fit the unit square; ``offset``
    defaults to centering that box at (0.5, 0.5).  The curve has a single
    cusp at theta = 0.  A probe whose nearest point is the cusp gets the
    normal's limit from theta > 0 and NaN curvature, and its side comes from
    the ray cast; the quadrature avoids the cusp node itself.
    """
    if offset is None:
        # bounding box in x is [-4a, a/2]; centre it at 0.5
        offset = (0.5 + 1.75 * a, 0.5)
    ox, oy = offset

    def pos(t):
        c, s = np.cos(t), np.sin(t)
        r = 2 * a * (1 - c)
        return _pair(r * c + ox, r * s + oy)

    def dpos(t):
        # d/dt [2a(1-cos)cos, 2a(1-cos)sin] = 2a(sin 2t - sin t, cos t - cos 2t)
        return _pair(2 * a * (np.sin(2 * t) - np.sin(t)),
                     2 * a * (np.cos(t) - np.cos(2 * t)))

    def ddpos(t):
        return _pair(2 * a * (2 * np.cos(2 * t) - np.cos(t)),
                     2 * a * (2 * np.sin(2 * t) - np.sin(t)))

    return SmoothCurveDomain(pos, dpos, ddpos, n_samples=n_samples, name="cardioid")


class AxisAlignedPolygon(Domain):
    """Simple rectilinear polygon given by CCW vertices; edges are axis-aligned.

    Curvature is zero on edges; probes whose nearest point falls within
    1e-9 of a vertex are flagged ``near_corner`` (curvature undefined there,
    reported as NaN).
    """

    def __init__(self, vertices: Sequence[Sequence[float]]):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 4:
            raise ValueError("need at least 4 vertices as an (m, 2) array")
        w = np.roll(v, -1, axis=0)
        ax = np.isclose(v[:, 0], w[:, 0])
        ay = np.isclose(v[:, 1], w[:, 1])
        if not np.all(ax | ay):
            raise ValueError("all edges must be axis-aligned")
        area2 = float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))
        if area2 <= 0:
            raise ValueError("vertices must be in counterclockwise order")
        self.vertices = v
        self._edges = np.stack([v, w], axis=1)  # (m, 2 endpoints, 2)
        t = w - v
        tlen = np.hypot(t[:, 0], t[:, 1])
        if np.any(tlen == 0):
            raise ValueError("degenerate zero-length edge")
        t = t / tlen[:, None]
        self._normals = np.stack([t[:, 1], -t[:, 0]], axis=1)  # outward for CCW
        dx = v[:, 0][:, None] - v[:, 0][None, :]
        dy = v[:, 1][:, None] - v[:, 1][None, :]
        self._diam = float(np.sqrt(dx * dx + dy * dy).max())
        self._tol = 1e-12 * max(1.0, self._diam)

    @classmethod
    def square(cls, side: float = 1.0, corner=(0.0, 0.0)) -> "AxisAlignedPolygon":
        x0, y0 = corner
        return cls([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])

    @property
    def diameter(self) -> float:
        return self._diam

    @property
    def disk_radius(self) -> float:
        return math.nan

    def _edge_projections(self, pts: np.ndarray):
        """Distance from each of the (m, 2) points to each edge, the nearest
        point of that edge and its edge parameter t, each indexed (m, E)."""
        a = self._edges[:, 0]
        ab = self._edges[:, 1] - a
        rel = pts[:, None, :] - a
        t = np.clip(np.sum(rel * ab, axis=2) / np.sum(ab * ab, axis=1), 0.0, 1.0)
        proj = a + t[..., None] * ab
        d = np.hypot(proj[..., 0] - pts[:, None, 0], proj[..., 1] - pts[:, None, 1])
        return d, proj, t

    def _signed_distances(self, pts: np.ndarray) -> np.ndarray:
        # strict interior: points (numerically) on an edge count as outside
        d = self._edge_projections(pts)[0].min(axis=1)
        inside = _odd_crossings(pts, self._edges) & (d > self._tol)
        return np.where(inside, d, -d)

    def signed_distance(self, x) -> float:
        return float(self._signed_distances(_as_point(x)[None])[0])

    def contains(self, x, margin: float = 0.0) -> bool:
        return self.signed_distance(x) > max(margin, self._tol)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return self._signed_distances(pts) > self._tol

    def probe(self, x) -> BoundaryProbe:
        d, proj, t = (a[0] for a in self._edge_projections(_as_point(x)[None]))
        k = int(np.argmin(d))
        edge_len = float(np.linalg.norm(self._edges[k, 1] - self._edges[k, 0]))
        near_corner = min(t[k], 1.0 - t[k]) * edge_len < _VERTEX_TOL
        second = np.partition(d, 1)[1]
        ambiguous = (second - d[k]) < 1e-9 * max(1.0, self._diam) and not near_corner
        kappa = math.nan if near_corner else 0.0
        return BoundaryProbe(float(d[k]), proj[k], self._normals[k].copy(), kappa,
                             ambiguous=bool(ambiguous), near_corner=bool(near_corner))


@dataclass(frozen=True)
class Dislocation:
    """A screw dislocation: a position and a Burgers modulus in {-1, +1}."""

    position: np.ndarray
    burgers: int

    def __post_init__(self):
        object.__setattr__(self, "position", _as_point(self.position))
        if self.burgers not in (-1, 1):
            raise ValueError("Burgers modulus must be -1 or +1")


@dataclass(frozen=True)
class Configuration:
    """Ordered collection of dislocations; the state vector of the dynamics."""

    dislocations: tuple[Dislocation, ...]

    def __post_init__(self):
        if len(self.dislocations) < 1:
            raise ValueError("configuration needs at least one dislocation")
        pos = self.positions
        # exact equality, as np.array_equal: 0.0 equals -0.0, NaN equals nothing
        if np.triu((pos[:, None] == pos).all(axis=2), 1).any():
            raise ValueError("dislocation positions must be pairwise distinct")

    @classmethod
    def from_arrays(cls, positions, burgers) -> "Configuration":
        positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        burgers = np.asarray(burgers, dtype=int).reshape(-1)
        if len(positions) != len(burgers):
            raise ValueError("positions and burgers length mismatch")
        return cls(tuple(Dislocation(p, int(b)) for p, b in zip(positions, burgers)))

    @property
    def n(self) -> int:
        return len(self.dislocations)

    @property
    def positions(self) -> np.ndarray:
        return np.array([d.position for d in self.dislocations])

    @property
    def burgers(self) -> np.ndarray:
        return np.array([d.burgers for d in self.dislocations])

    def validate_in(self, domain: Domain) -> None:
        for d in self.dislocations:
            if not domain.contains(d.position):
                raise ValueError(f"dislocation at {d.position} lies outside the domain")


def _separation(positions: np.ndarray, domain: Domain, first: int = 1) -> float:
    """Least of the boundary distances of ``positions`` and of the mutual
    distances ``|positions[i] - positions[j]|`` over i < j with j >= first.

    ``first=1`` takes every pair; ``first=2`` leaves out the pair (0, 1).
    With no positions, or only one on the whole plane, it is +inf.
    """
    best = math.inf
    if domain.has_boundary:
        for p in positions:
            best = min(best, domain.probe(p).distance)
    # rows i, columns j >= first; the pairs are the cells with i < j
    w = positions[:, None] - positions[first:]
    pairs = np.arange(len(positions))[:, None] < np.arange(first, len(positions))
    return min(best, math.sqrt(np.min(w[..., 0] ** 2 + w[..., 1] ** 2,
                                      where=pairs, initial=math.inf)))


def min_separation(config: Configuration, domain: Domain) -> float:
    """The distance d_n of the configuration to the blow-up set."""
    return _separation(config.positions, domain)


def in_class_D(config: Configuration, domain: Domain,
               delta: float, gamma: float) -> bool:
    """Membership in the near-boundary class: the first dislocation within
    ``delta`` of the boundary, all others mutually (and from the boundary)
    separated by more than ``gamma``."""
    if not (0 < delta < gamma):
        raise ParameterOrder("need 0 < delta < gamma")
    if not domain.has_boundary:
        return False
    pos = config.positions
    if domain.probe(pos[0]).distance >= delta:
        return False
    return config.n == 1 or _separation(pos[1:], domain) > gamma


def in_class_C(config: Configuration, domain: Domain,
               zeta: float, eta: float) -> bool:
    """Membership in the close-pair class: the first two dislocations within
    ``zeta`` of each other, everything else (mutually, from the pair, and
    from the boundary) separated by more than ``eta``."""
    if not (0 < zeta < eta):
        raise ParameterOrder("need 0 < zeta < eta")
    if config.n < 2:
        raise ValueError("class C needs at least two dislocations")
    pos = config.positions
    return bool(np.linalg.norm(pos[0] - pos[1]) < zeta
                and _separation(pos, domain, first=2) > eta)
