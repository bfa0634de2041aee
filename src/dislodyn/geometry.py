"""Domain descriptions and geometric queries.

Domains are immutable after construction and all queries are pure, so they
can be shared freely between concurrent workers.  Every domain answers

* ``signed_distance(x)``  -- positive inside, negative outside,
* ``probe(x)``            -- distance, nearest boundary point, outward
  normal and signed curvature there,
* ``contains(x)``         -- strict interior test,

plus the scalar descriptors ``diameter`` and ``disk_radius`` (the radius of
the uniform interior/exterior tangent disks; infinite for flat boundaries,
undefined for polygons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

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
    "boundary_probe",
    "min_separation",
    "in_class_D",
    "in_class_C",
    "cardioid_domain",
]

_VERTEX_TOL = 1e-9


def _as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {p.shape}")
    return p


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

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized strict-interior test; subclasses override when cheap."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.array([self.contains(p) for p in pts], dtype=bool)

    def probe(self, x) -> BoundaryProbe:
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Domain):
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be strictly positive")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def disk_radius(self) -> float:
        return self.radius

    def signed_distance(self, x) -> float:
        u = _as_point(x) - self.center
        return self.radius - math.hypot(u[0], u[1])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2) - self.center
        return np.hypot(pts[:, 0], pts[:, 1]) < self.radius

    def probe(self, x) -> BoundaryProbe:
        u = _as_point(x) - self.center
        r = math.hypot(u[0], u[1])
        if r == 0.0:
            # every boundary point is nearest; return an arbitrary one
            s = np.array(self.center) + (self.radius, 0.0)
            return BoundaryProbe(self.radius, s, np.array([1.0, 0.0]),
                                 1.0 / self.radius, ambiguous=True)
        nu = u / r
        s = np.array(self.center) + self.radius * nu
        return BoundaryProbe(abs(self.radius - r), s, nu, 1.0 / self.radius)


@dataclass(frozen=True)
class ExteriorDisk(Domain):
    """Complement of a closed disk; the domain is unbounded."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    bounded = False

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be strictly positive")

    @property
    def diameter(self) -> float:
        return math.inf

    @property
    def disk_radius(self) -> float:
        return self.radius

    def signed_distance(self, x) -> float:
        u = _as_point(x) - self.center
        return math.hypot(u[0], u[1]) - self.radius

    def probe(self, x) -> BoundaryProbe:
        u = _as_point(x) - self.center
        r = math.hypot(u[0], u[1])
        if r == 0.0:
            s = np.array(self.center) + (self.radius, 0.0)
            return BoundaryProbe(self.radius, s, np.array([-1.0, 0.0]),
                                 -1.0 / self.radius, ambiguous=True)
        nu = u / r
        s = np.array(self.center) + self.radius * nu
        # outward normal of the domain points into the removed disk
        return BoundaryProbe(abs(r - self.radius), s, -nu, -1.0 / self.radius)


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

    The curve must be traversed counterclockwise on [0, 2*pi).  Nearest-point
    queries use a dense sample (``n_samples`` nodes) followed by local
    refinement of theta; containment uses the winding polyline.
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
        pts = np.asarray(position(self._theta), dtype=float)
        if pts.shape != (n_samples, 2):
            pts = pts.T
        self._pts = pts
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                       - np.roll(pts[:, 0], -1) * pts[:, 1])
        if area2 <= 0:
            raise ValueError("curve must be simple, closed and counterclockwise")
        d = derivative(self._theta)
        dd = second_derivative(self._theta)
        d = np.asarray(d, float).reshape(n_samples, 2)
        dd = np.asarray(dd, float).reshape(n_samples, 2)
        speed = np.hypot(d[:, 0], d[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed**3
        kappa = kappa[np.isfinite(kappa)]
        kmax = float(np.max(np.abs(kappa))) if kappa.size else 0.0
        self._rho = float(rho) if rho is not None else (
            1.0 / kmax if kmax > 0 else math.inf)
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

    def curve_frame(self, theta):
        """Point, unit tangent, outward normal, curvature and speed at theta."""
        th = np.atleast_1d(np.asarray(theta, float))
        p = np.asarray(self.position(th), float).reshape(-1, 2)
        d = np.asarray(self.derivative(th), float).reshape(-1, 2)
        dd = np.asarray(self.second_derivative(th), float).reshape(-1, 2)
        speed = np.hypot(d[:, 0], d[:, 1])
        tangent = d / speed[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
        kappa = (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed**3
        if np.isscalar(theta) or np.asarray(theta).ndim == 0:
            return p[0], tangent[0], normal[0], float(kappa[0]), float(speed[0])
        return p, tangent, normal, kappa, speed

    def contains(self, x, margin: float = 0.0) -> bool:
        p = _as_point(x)
        # even-odd ray casting on the dense polyline
        vx = self._pts[:, 0]
        vy = self._pts[:, 1]
        wx = np.roll(vx, -1)
        wy = np.roll(vy, -1)
        cond = (vy > p[1]) != (wy > p[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = vx + (p[1] - vy) * (wx - vx) / (wy - vy)
        inside = bool(np.sum(cond & (xs > p[0])) % 2)
        if margin > 0.0 and inside:
            return self.probe(p).distance > margin
        return inside

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        vx = self._pts[:, 0]
        vy = self._pts[:, 1]
        wx = np.roll(vx, -1)
        wy = np.roll(vy, -1)
        out = np.empty(len(pts), dtype=bool)
        for s in range(0, len(pts), 512):
            chunk = pts[s:s + 512]
            py = chunk[:, 1][:, None]
            px = chunk[:, 0][:, None]
            cond = (vy[None, :] > py) != (wy[None, :] > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = vx[None, :] + (py - vy[None, :]) \
                    * (wx - vx)[None, :] / (wy - vy)[None, :]
            out[s:s + 512] = (np.sum(cond & (xs > px), axis=1) % 2).astype(bool)
        return out

    def signed_distance(self, x) -> float:
        d = self.probe(x).distance
        return d if self.contains(x) else -d

    def nearest_parameter(self, x) -> float:
        """Parameter of the boundary point nearest to x."""
        p = _as_point(x)
        d2 = np.sum((self._pts - p) ** 2, axis=1)
        k = int(np.argmin(d2))
        n = len(self._theta)
        step = 2.0 * np.pi / n
        lo = self._theta[k] - step
        hi = self._theta[k] + step

        def f(th):
            q = np.asarray(self.position(np.atleast_1d(th)), float).reshape(-1, 2)[0]
            return (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2

        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14 * max(1.0, self._diam)})
        return float(res.x) % (2.0 * np.pi)

    def probe(self, x) -> BoundaryProbe:
        p = _as_point(x)
        d2 = np.sum((self._pts - p) ** 2, axis=1)
        k = int(np.argmin(d2))
        theta = self.nearest_parameter(p)
        q, _, normal, kappa, _ = self.curve_frame(theta)
        dist = float(np.linalg.norm(q - p))
        # ambiguity: another local minimum matching the global one
        ambiguous = False
        if dist >= self._rho * (1.0 - 1e-9):
            best = d2[k]
            away = np.abs((np.arange(len(d2)) - k + len(d2) // 2) % len(d2)
                          - len(d2) // 2) > 4
            if np.any(d2[away] - best < 1e-9 * max(1.0, self._diam) ** 2):
                ambiguous = True
        return BoundaryProbe(dist, q, normal, float(kappa), ambiguous=ambiguous)

    @classmethod
    def circle(cls, radius: float = 1.0, center=(0.0, 0.0),
               n_samples: int = 1024) -> "SmoothCurveDomain":
        cx, cy = center

        def pos(t):
            return np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], axis=-1)

        def dpos(t):
            return np.stack([-radius * np.sin(t), radius * np.cos(t)], axis=-1)

        def ddpos(t):
            return np.stack([-radius * np.cos(t), -radius * np.sin(t)], axis=-1)

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
            return np.stack([sx(t), sy(t)], axis=-1)

        def dpos(t):
            t = wrap(t)
            return np.stack([sx(t, 1), sy(t, 1)], axis=-1)

        def ddpos(t):
            t = wrap(t)
            return np.stack([sx(t, 2), sy(t, 2)], axis=-1)

        return cls(pos, dpos, ddpos, rho=rho, n_samples=max(1024, 2 * len(rows)),
                   name="table")


# default cardioid scale: full height 2 * 2a * max((1-cos t) sin t) equals one
_CARDIOID_A = 1.0 / (4.0 * 1.2990381056766580)


def cardioid_domain(a: float = _CARDIOID_A, offset: tuple[float, float] | None = None,
                    n_samples: int = 2048) -> SmoothCurveDomain:
    """Builtin cardioid r(theta) = 2a(1 - cos theta), shifted into the unit square.

    The default ``a`` makes the bounding box fit the unit square; ``offset``
    defaults to centering that box at (0.5, 0.5).  The curve has a single
    cusp at theta = 0; probes and quadrature avoid the cusp node itself.
    """
    if offset is None:
        # bounding box in x is [-4a, a/2]; centre it at 0.5
        offset = (0.5 + 1.75 * a, 0.5)
    ox, oy = offset

    def pos(t):
        c = np.cos(t)
        return np.stack([2 * a * (1 - c) * np.cos(t) + ox,
                         2 * a * (1 - c) * np.sin(t) + oy], axis=-1)

    def dpos(t):
        # d/dt [2a(1-cos)cos, 2a(1-cos)sin] = 2a(sin 2t - sin t, cos t - cos 2t)
        return np.stack([2 * a * (np.sin(2 * t) - np.sin(t)),
                         2 * a * (np.cos(t) - np.cos(2 * t))], axis=-1)

    def ddpos(t):
        return np.stack([2 * a * (2 * np.cos(2 * t) - np.cos(t)),
                         2 * a * (2 * np.sin(2 * t) - np.sin(t))], axis=-1)

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
        self._tangents = t
        self._normals = np.stack([t[:, 1], -t[:, 0]], axis=1)  # outward for CCW
        dx = v[:, 0][:, None] - v[:, 0][None, :]
        dy = v[:, 1][:, None] - v[:, 1][None, :]
        self._diam = float(np.sqrt(dx * dx + dy * dy).max())

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

    def contains(self, x, margin: float = 0.0) -> bool:
        p = _as_point(x)
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cond = (v[:, 1] > p[1]) != (w[:, 1] > p[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = v[:, 0] + (p[1] - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
        if not bool(np.sum(cond & (xs > p[0])) % 2):
            return False
        # strict interior: points (numerically) on an edge do not count
        tol = 1e-12 * max(1.0, self._diam)
        return self._distance(p)[0] > max(margin, tol)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        py = pts[:, 1][:, None]
        px = pts[:, 0][:, None]
        cond = (v[:, 1][None, :] > py) != (w[:, 1][None, :] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = v[:, 0][None, :] + (py - v[:, 1][None, :]) \
                * (w[:, 0] - v[:, 0])[None, :] / (w[:, 1] - v[:, 1])[None, :]
        inside = (np.sum(cond & (xs > px), axis=1) % 2).astype(bool)
        dmin = np.full(len(pts), math.inf)
        for a, b in zip(v, w):
            ab = b - a
            t = np.clip(((pts - a) @ ab) / float(ab @ ab), 0.0, 1.0)
            proj = a + t[:, None] * ab
            dmin = np.minimum(dmin, np.hypot(proj[:, 0] - pts[:, 0],
                                             proj[:, 1] - pts[:, 1]))
        return inside & (dmin > 1e-12 * max(1.0, self._diam))

    def _distance(self, p: np.ndarray):
        a = self._edges[:, 0]
        b = self._edges[:, 1]
        ab = b - a
        denom = np.sum(ab * ab, axis=1)
        t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])
        k = int(np.argmin(d))
        return float(d[k]), k, proj[k], t[k]

    def signed_distance(self, x) -> float:
        p = _as_point(x)
        d, _, _, _ = self._distance(p)
        return d if self.contains(p) else -d

    def probe(self, x) -> BoundaryProbe:
        p = _as_point(x)
        d, k, s, t = self._distance(p)
        edge_len = float(np.linalg.norm(self._edges[k, 1] - self._edges[k, 0]))
        near_corner = min(t, 1.0 - t) * edge_len < _VERTEX_TOL
        all_d = self._all_edge_distances(p)
        second = np.partition(all_d, 1)[1] if len(all_d) > 1 else math.inf
        ambiguous = (second - d) < 1e-9 * max(1.0, self._diam) and not near_corner
        kappa = math.nan if near_corner else 0.0
        return BoundaryProbe(d, s, self._normals[k].copy(), kappa,
                             ambiguous=bool(ambiguous), near_corner=bool(near_corner))

    def _all_edge_distances(self, p: np.ndarray) -> np.ndarray:
        a = self._edges[:, 0]
        b = self._edges[:, 1]
        ab = b - a
        denom = np.sum(ab * ab, axis=1)
        t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        return np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])


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
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if np.array_equal(pos[i], pos[j]):
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


def boundary_probe(x, domain: Domain) -> BoundaryProbe:
    """Distance to the boundary, nearest point, outward normal and curvature."""
    return domain.probe(x)


def _dn(positions: np.ndarray, domain: Domain) -> float:
    """Minimal separation: boundary distances and mutual distances combined.

    For a single point this is just the boundary distance; on the whole
    plane the boundary term is +inf.
    """
    n = len(positions)
    best = math.inf
    if domain.has_boundary:
        for p in positions:
            best = min(best, domain.probe(p).distance)
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(positions[i] - positions[j])))
    return best


def min_separation(config: Configuration, domain: Domain) -> float:
    """The distance d_n of the configuration to the blow-up set."""
    return _dn(config.positions, domain)


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
    if config.n == 1:
        return True
    return _dn(pos[1:], domain) > gamma


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
    if np.linalg.norm(pos[0] - pos[1]) >= zeta:
        return False
    rest = pos[2:]
    if len(rest) and _dn(rest, domain) <= eta:
        return False
    for p in pos[:2]:
        if domain.has_boundary and domain.probe(p).distance <= eta:
            return False
        for q in rest:
            if np.linalg.norm(p - q) <= eta:
                return False
    return True
