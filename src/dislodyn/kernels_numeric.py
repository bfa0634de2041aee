"""Numeric interaction kernels for domains without closed forms.

Two backends solve the Laplace boundary-value problem that defines the
regular part k(., y):

* ``integral`` -- Nystrom discretization of the double-layer potential on a
  smooth parametric curve (trapezoid rule in the parameter, curvature
  diagonal limit) or on a polygon (per-edge panels clustered toward the
  corners, where the self-interaction of a straight edge vanishes exactly).
  The dense system matrix is LU-factorized once per domain; each source y
  only costs a back-substitution.
* ``grid`` -- 5-point finite differences on a uniform grid over the
  bounding box with Dirichlet data transplanted from the nearest boundary
  point; the sparse matrix is factorized once, evaluation interpolates
  bilinearly.

``h`` is k(x, x) and ``grad h = 2 grad_x k(x, y)|_{y=x}`` is obtained by
central finite differences of k in its first argument with the second
frozen, which keeps the gradient backend-agnostic.  Solutions are cached
per source point (rounded to 1e-12).  Below roughly one mesh width from the
boundary the quadrature cannot resolve the boundary data; the public
``solve_k`` refuses such targets, while the evaluator used by the dynamics
falls back to best-effort values (with the nearest-density subtraction that
keeps near-boundary evaluation usable).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (PointOutside, SolverDivergence, TargetTooCloseToBoundary)
from .geometry import (AxisAlignedPolygon, Disk, Domain, SmoothCurveDomain)
from .kernels_analytic import KernelEvaluator

__all__ = [
    "NumericKernelConfig",
    "NystromKernels",
    "GridKernels",
    "numeric_kernels",
    "solve_k",
    "h_numeric",
    "grad_h_numeric",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NumericKernelConfig:
    backend: str = "auto"              # auto | integral | grid
    boundary_nodes: int = 512          # N_b, even and >= 64
    grid_spacing: float | None = None  # default diameter / 256
    solve_tol: float = 1e-10
    gradient_step: float | None = None  # default 1e-5 * diameter
    cache_size: int = 256

    def __post_init__(self):
        if self.backend not in ("auto", "integral", "grid"):
            raise ValueError("backend must be auto, integral or grid")
        if self.boundary_nodes < 64 or self.boundary_nodes % 2:
            raise ValueError("boundary_nodes must be even and >= 64")
        if self.grid_spacing is not None and self.grid_spacing <= 0:
            raise ValueError("grid_spacing must be positive")


class _SolutionCache:
    """Tiny LRU keyed by the source point rounded to 1e-12."""

    def __init__(self, size: int):
        self.size = size
        self._data: OrderedDict[tuple, object] = OrderedDict()

    @staticmethod
    def key(y: np.ndarray) -> tuple:
        return (round(float(y[0]), 12), round(float(y[1]), 12))

    def get(self, y):
        k = self.key(y)
        if k in self._data:
            self._data.move_to_end(k)
            return self._data[k]
        return None

    def put(self, y, value):
        k = self.key(y)
        self._data[k] = value
        self._data.move_to_end(k)
        while len(self._data) > self.size:
            self._data.popitem(last=False)


class _NumericBase(KernelEvaluator):
    backend = "numeric"
    resolution = 0.0

    def k(self, x, y) -> float:
        x = np.asarray(x, float).reshape(2)
        y = np.asarray(y, float).reshape(2)
        return float(self._evaluate(self._density(y), x[None, :])[0])

    def grad_x_k(self, x, y) -> np.ndarray:
        x = np.asarray(x, float).reshape(2)
        dens = self._density(np.asarray(y, float).reshape(2))
        s = self.fd_step
        pts = np.array([[x[0] + s, x[1]], [x[0] - s, x[1]],
                        [x[0], x[1] + s], [x[0], x[1] - s]])
        v = self._evaluate(dens, pts)
        return np.array([(v[0] - v[1]) / (2 * s), (v[2] - v[3]) / (2 * s)])

    def h(self, x) -> float:
        x = np.asarray(x, float).reshape(2)
        return self.k(x, x)

    def grad_h(self, x) -> np.ndarray:
        # h'(x) = 2 grad_x k(x, y)|_{y=x} by symmetry of k
        x = np.asarray(x, float).reshape(2)
        return 2.0 * self.grad_x_k(x, x)

    # the batched methods loop over the scalar ones: each source is its own
    # density solve, so there is no pair arithmetic worth broadcasting
    def grad_h_and_G(self, positions) -> tuple[np.ndarray, np.ndarray]:
        n = len(positions)
        grad_h = np.empty((n, 2))
        grad_G = np.zeros((n, n, 2))
        for i in range(n):
            grad_h[i] = self.grad_h(positions[i])
            for j in range(n):
                if j != i:
                    grad_G[i, j] = self.grad_x_G(positions[i], positions[j])
        return grad_h, grad_G

    def h_and_G(self, positions) -> tuple[np.ndarray, np.ndarray]:
        n = len(positions)
        h = np.array([self.h(p) for p in positions], dtype=float)
        G = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                G[i, j] = G[j, i] = self.G(positions[i], positions[j])
        return h, G

    # hooks provided by the concrete backends
    def _density(self, y: np.ndarray):
        raise NotImplementedError

    def _evaluate(self, density, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _polygon_panels(poly: AxisAlignedPolygon, n_nodes: int):
    """Cosine-clustered panel midpoints on every edge, corners excluded."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    lengths = np.hypot(*(w - v).T)
    perimeter = float(lengths.sum())
    counts = np.maximum(8, np.round(n_nodes * lengths / perimeter).astype(int))
    pts, normals, weights = [], [], []
    for a, b, L, m, nu in zip(v, w, lengths, counts, poly._normals):
        j = np.arange(m)
        s = 0.5 * (1.0 - np.cos(math.pi * (j + 0.5) / m))      # in (0, 1)
        w_s = 0.5 * (math.pi / m) * np.sin(math.pi * (j + 0.5) / m)
        pts.append(a[None, :] + s[:, None] * (b - a)[None, :])
        normals.append(np.tile(nu, (m, 1)))
        weights.append(L * w_s)
    return (np.concatenate(pts), np.concatenate(normals),
            np.concatenate(weights))


class NystromKernels(_NumericBase):
    """Double-layer potential backend for smooth curves, disks and polygons."""

    backend = "integral"

    def __init__(self, domain: Domain, cfg: NumericKernelConfig = NumericKernelConfig()):
        self.domain = domain
        self.cfg = cfg
        n = cfg.boundary_nodes
        if isinstance(domain, Disk):
            theta = _TWO_PI * (np.arange(n) + 0.5) / n
            c = np.asarray(domain.center, float)
            nu = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            self.nodes = c[None, :] + domain.radius * nu
            self.normals = nu
            self.weights = np.full(n, _TWO_PI * domain.radius / n)
            kappa = np.full(n, 1.0 / domain.radius)
        elif isinstance(domain, SmoothCurveDomain):
            theta = _TWO_PI * (np.arange(n) + 0.5) / n
            p, _, nu, kappa, speed = domain.curve_frame(theta)
            self.nodes = p
            self.normals = nu
            self.weights = _TWO_PI * speed / n
        elif isinstance(domain, AxisAlignedPolygon):
            self.nodes, self.normals, self.weights = _polygon_panels(domain, n)
            kappa = np.zeros(len(self.nodes))
        else:
            raise ValueError(f"integral backend cannot handle {type(domain).__name__}")

        dx = self.nodes[:, 0][:, None] - self.nodes[:, 0][None, :]
        dy = self.nodes[:, 1][:, None] - self.nodes[:, 1][None, :]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2, 1.0)
        kern = (dx * self.normals[:, 0][None, :] + dy * self.normals[:, 1][None, :])
        kern = kern / (_TWO_PI * r2) * self.weights[None, :]
        if isinstance(domain, AxisAlignedPolygon):
            np.fill_diagonal(kern, 0.0)
        else:
            np.fill_diagonal(kern, -kappa * self.weights / (2.0 * _TWO_PI))
        m = kern - 0.5 * np.eye(len(self.nodes))
        self._matrix = m
        self._lu = sla.lu_factor(m)
        self._cache = _SolutionCache(cfg.cache_size)
        self.resolution = _TWO_PI * domain.diameter / n
        self.min_eval_distance = self.resolution
        self.fd_step = cfg.gradient_step if cfg.gradient_step is not None \
            else 1e-5 * domain.diameter

    def _density(self, y: np.ndarray) -> np.ndarray:
        mu = self._cache.get(y)
        if mu is not None:
            return mu
        g = np.log(np.hypot(self.nodes[:, 0] - y[0],
                            self.nodes[:, 1] - y[1])) / _TWO_PI
        mu = sla.lu_solve(self._lu, g)
        resid = float(np.max(np.abs(self._matrix @ mu - g)))
        if not resid <= max(self.cfg.solve_tol, 1e-12) * (1.0 + float(np.max(np.abs(g)))):
            raise SolverDivergence(f"boundary-integral solve residual {resid:g}")
        self._cache.put(y, mu)
        return mu

    def _evaluate(self, mu: np.ndarray, points: np.ndarray) -> np.ndarray:
        out = np.empty(len(points))
        for idx, x in enumerate(points):
            dx = x[0] - self.nodes[:, 0]
            dy = x[1] - self.nodes[:, 1]
            r2 = dx * dx + dy * dy
            jstar = int(np.argmin(r2))
            kern = (dx * self.normals[:, 0] + dy * self.normals[:, 1]) / (_TWO_PI * r2)
            # subtract the nearest density value: sum_j w_j K = -1 exactly,
            # which tames the nearly singular quadrature close to the boundary
            out[idx] = float(kern @ (self.weights * (mu - mu[jstar]))) - mu[jstar]
        return out


class GridKernels(_NumericBase):
    """5-point finite-difference backend on the bounding box of the domain."""

    backend = "grid"

    def __init__(self, domain: Domain, cfg: NumericKernelConfig = NumericKernelConfig()):
        if not domain.bounded:
            raise ValueError("grid backend needs a bounded domain")
        self.domain = domain
        self.cfg = cfg
        diam = domain.diameter
        h = cfg.grid_spacing if cfg.grid_spacing is not None else diam / 256.0

        if isinstance(domain, AxisAlignedPolygon):
            v = domain.vertices
            x0, x1 = float(v[:, 0].min()), float(v[:, 0].max())
            y0, y1 = float(v[:, 1].min()), float(v[:, 1].max())
        elif isinstance(domain, Disk):
            cx, cy = domain.center
            x0, x1 = cx - domain.radius, cx + domain.radius
            y0, y1 = cy - domain.radius, cy + domain.radius
        elif isinstance(domain, SmoothCurveDomain):
            pts = domain._pts
            x0, x1 = float(pts[:, 0].min()), float(pts[:, 0].max())
            y0, y1 = float(pts[:, 1].min()), float(pts[:, 1].max())
        else:
            raise ValueError(f"grid backend cannot handle {type(domain).__name__}")

        nx = max(8, int(round((x1 - x0) / h))) + 1
        ny = max(8, int(round((y1 - y0) / h))) + 1
        self.xs = np.linspace(x0, x1, nx)
        self.ys = np.linspace(y0, y1, ny)
        self.hx = self.xs[1] - self.xs[0]
        self.hy = self.ys[1] - self.ys[0]
        self.h_grid = max(self.hx, self.hy)

        mesh = np.stack(np.meshgrid(self.xs, self.ys, indexing="ij"), axis=-1)
        inside = domain.contains_many(mesh.reshape(-1, 2)).reshape(nx, ny)
        self.inside = inside
        idx = -np.ones((nx, ny), dtype=int)
        ii, jj = np.nonzero(inside)
        idx[ii, jj] = np.arange(len(ii))
        n_unknown = len(ii)

        # nearest boundary points for every non-interior node (Dirichlet data)
        self.proj = np.zeros((nx, ny, 2))
        for i, j in zip(*np.nonzero(~inside)):
            self.proj[i, j] = domain.probe((self.xs[i], self.ys[j])).point

        rows, cols, vals = [], [], []
        b_rows, b_nodes = [], []
        inv_hx2 = 1.0 / self.hx**2
        inv_hy2 = 1.0 / self.hy**2
        for r, (i, j) in enumerate(zip(ii, jj)):
            rows.append(r)
            cols.append(r)
            vals.append(2.0 * inv_hx2 + 2.0 * inv_hy2)
            for (di, dj, coef) in ((1, 0, inv_hx2), (-1, 0, inv_hx2),
                                   (0, 1, inv_hy2), (0, -1, inv_hy2)):
                a, b = i + di, j + dj
                if 0 <= a < nx and 0 <= b < ny and inside[a, b]:
                    rows.append(r)
                    cols.append(idx[a, b])
                    vals.append(-coef)
                else:
                    a = min(max(a, 0), nx - 1)
                    b = min(max(b, 0), ny - 1)
                    b_rows.append(r)
                    b_nodes.append((a, b, coef))
        self._matrix = sp.csc_matrix((vals, (rows, cols)),
                                     shape=(n_unknown, n_unknown))
        self._lu = spla.splu(self._matrix)
        self._b_rows = np.asarray(b_rows, dtype=int)
        self._b_points = np.array([self.proj[a, b] for a, b, _ in b_nodes])
        self._b_coefs = np.array([c for _, _, c in b_nodes])
        self._interior_index = idx
        self._ii, self._jj = ii, jj
        # full-grid solutions are large; keep the cache shallow
        self._cache = _SolutionCache(min(cfg.cache_size, 32))
        self.resolution = self.h_grid
        self.min_eval_distance = 2.0 * self.h_grid
        self.fd_step = cfg.gradient_step if cfg.gradient_step is not None \
            else 1e-5 * diam

    def _density(self, y: np.ndarray) -> np.ndarray:
        """Full grid of k(., y) values (interior solve + transplanted data)."""
        grid = self._cache.get(y)
        if grid is not None:
            return grid
        # Dirichlet values at the projections of all non-interior nodes
        gb = np.log(np.hypot(self._b_points[:, 0] - y[0],
                             self._b_points[:, 1] - y[1])) / _TWO_PI
        rhs = np.zeros(self._matrix.shape[0])
        np.add.at(rhs, self._b_rows, self._b_coefs * gb)
        u = self._lu.solve(rhs)
        resid = float(np.max(np.abs(self._matrix @ u - rhs)))
        scale = 1.0 + float(np.max(np.abs(rhs)))
        if not resid <= max(self.cfg.solve_tol, 1e-9) * scale:
            raise SolverDivergence(f"grid solve residual {resid:g}")
        grid = np.empty(self.inside.shape)
        out = ~self.inside
        grid[out] = np.log(np.hypot(self.proj[out][:, 0] - y[0],
                                    self.proj[out][:, 1] - y[1])) / _TWO_PI
        grid[self._ii, self._jj] = u
        self._cache.put(y, grid)
        return grid

    def _evaluate(self, grid: np.ndarray, points: np.ndarray) -> np.ndarray:
        out = np.empty(len(points))
        nx, ny = grid.shape
        for idx_p, p in enumerate(points):
            fx = (p[0] - self.xs[0]) / self.hx
            fy = (p[1] - self.ys[0]) / self.hy
            i = int(np.clip(math.floor(fx), 0, nx - 2))
            j = int(np.clip(math.floor(fy), 0, ny - 2))
            tx = fx - i
            ty = fy - j
            out[idx_p] = ((1 - tx) * (1 - ty) * grid[i, j]
                          + tx * (1 - ty) * grid[i + 1, j]
                          + (1 - tx) * ty * grid[i, j + 1]
                          + tx * ty * grid[i + 1, j + 1])
        return out


def numeric_kernels(domain: Domain,
                    cfg: NumericKernelConfig = NumericKernelConfig()):
    """Pick a numeric backend for the domain (or honor an explicit choice)."""
    if cfg.backend == "integral":
        return NystromKernels(domain, cfg)
    if cfg.backend == "grid":
        return GridKernels(domain, cfg)
    if isinstance(domain, (Disk, SmoothCurveDomain)):
        return NystromKernels(domain, cfg)
    if isinstance(domain, AxisAlignedPolygon):
        return GridKernels(domain, cfg)
    raise ValueError(f"no numeric backend for {type(domain).__name__}")


@functools.lru_cache(maxsize=8)
def _shared_evaluator(domain: Domain, cfg: NumericKernelConfig):
    # each evaluator holds a dense matrix, its factors and a solution cache
    # (about 5 MB at 512 nodes), so only the most recent few are kept
    return numeric_kernels(domain, cfg)


def solve_k(domain: Domain, y, targets,
            cfg: NumericKernelConfig = NumericKernelConfig()) -> np.ndarray:
    """Values of the regular part k(target, y) for each target point.

    Refuses a source or target outside the domain (``PointOutside``) before
    building the evaluator, and enforces the backend's boundary margin on
    every target (``TargetTooCloseToBoundary``).
    """
    y = np.asarray(y, float).reshape(2)
    targets = np.asarray(targets, float).reshape(-1, 2)
    # containment first: a refused call builds no evaluator
    if not domain.contains(y):
        raise PointOutside(f"source {y} is not inside the domain")
    for p in targets:
        if not domain.contains(p):
            raise PointOutside(f"target {p} is not inside the domain")
    ev = _shared_evaluator(domain, cfg)
    margin = ev.min_eval_distance
    for p in targets:
        if domain.probe(p).distance < margin:
            raise TargetTooCloseToBoundary(
                f"target {p} is within the resolution margin {margin:g}")
    dens = ev._density(y)
    return ev._evaluate(dens, targets)


def h_numeric(domain: Domain, x,
              cfg: NumericKernelConfig = NumericKernelConfig()) -> float:
    """Self-interaction potential h(x) = k(x, x) through the numeric path."""
    x = np.asarray(x, float).reshape(2)
    return float(solve_k(domain, x, x[None, :], cfg)[0])


def grad_h_numeric(domain: Domain, x,
                   cfg: NumericKernelConfig = NumericKernelConfig()) -> np.ndarray:
    """Gradient of h by central differences of k with the source frozen."""
    x = np.asarray(x, float).reshape(2)
    if not domain.contains(x):
        raise PointOutside(f"{x} is not inside the domain")
    ev = _shared_evaluator(domain, cfg)
    if domain.probe(x).distance < ev.min_eval_distance:
        raise TargetTooCloseToBoundary(
            f"{x} is within the resolution margin {ev.min_eval_distance:g}")
    return ev.grad_h(x)
