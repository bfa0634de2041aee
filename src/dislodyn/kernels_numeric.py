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

``h`` is k(x, x) and ``grad h = 2 grad_x k(x, y)|_{y=x}``, where each
backend differentiates its own solution exactly: the double layer in closed
form, the grid's bilinear interpolant cell by cell.  A backend evaluates one
source's solution at an array of targets, so the batched methods cost one
solve per source.  Solutions are cached per source point (rounded to
1e-12).  Below roughly one mesh width from the boundary the quadrature
cannot resolve the boundary data; the public ``solve_k`` refuses such
targets, while the evaluator used by the dynamics falls back to best-effort
values (with the nearest-density subtraction that keeps near-boundary
evaluation usable).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (PointOutside, SolverDivergence, TargetTooCloseToBoundary)
from .geometry import (AxisAlignedPolygon, Disk, Domain, SmoothCurveDomain)
from .kernels_analytic import KernelEvaluator, _as_real, _vec

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

    def __post_init__(self):
        if self.backend not in ("auto", "integral", "grid"):
            raise ValueError("backend must be auto, integral or grid")
        if self.boundary_nodes < 64 or self.boundary_nodes % 2:
            raise ValueError("boundary_nodes must be even and >= 64")
        if self.grid_spacing is not None and self.grid_spacing <= 0:
            raise ValueError("grid_spacing must be positive")


class _NumericBase(KernelEvaluator):
    backend = "numeric"
    resolution = 0.0
    _cache_size = 256  # source solutions kept per evaluator

    # a non-finite point is refused here as on the batched path
    def k(self, x, y) -> float:
        x, y = _as_real(self._finite([_vec(x), _vec(y)]))
        return float(self._evaluate(self._density(y), x[None, :])[0])

    def grad_x_k(self, x, y) -> np.ndarray:
        x, y = _as_real(self._finite([_vec(x), _vec(y)]))
        return self._gradient(self._density(y), x[None, :])[0]

    def h(self, x) -> float:
        return self.k(x, x)

    def grad_h(self, x) -> np.ndarray:
        # h'(x) = 2 grad_x k(x, y)|_{y=x} by symmetry of k
        return 2.0 * self.grad_x_k(x, x)

    def _per_source(self, hook, z: np.ndarray) -> np.ndarray:
        """hook(solution for z_j, all n points) in column j: one density
        solve per source and no side check, as on the scalar path."""
        pts = _as_real(z)
        return np.stack([hook(self._density(y), pts) for y in pts], axis=1)

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        out = self._per_source(self._evaluate, z)
        # numeric k is symmetric only up to discretisation: mirror the upper
        # triangle so that G is exactly symmetric
        lower = np.tril_indices(len(z), -1)
        out[lower] = out.T[lower]
        return out

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        return self._per_source(self._gradient, z).view(complex)[..., 0]

    def _density(self, y: np.ndarray):
        """The solution for source y, kept in an LRU cache keyed by y
        rounded to 1e-12."""
        key = (round(float(y[0]), 12), round(float(y[1]), 12))
        sol = self._cache.pop(key, None)
        if sol is None:
            sol = self._solve(y)
            if len(self._cache) >= self._cache_size:
                del self._cache[next(iter(self._cache))]
        self._cache[key] = sol  # the dict's last entry is the most recent
        return sol

    # hooks provided by the concrete backends; points is an (m, 2) array
    def _solve(self, y: np.ndarray):
        raise NotImplementedError

    def _evaluate(self, density, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradient(self, density, points: np.ndarray) -> np.ndarray:
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
        self._cache = {}
        self.resolution = _TWO_PI * domain.diameter / n
        self.min_eval_distance = self.resolution

    def _solve(self, y: np.ndarray) -> np.ndarray:
        g = np.log(np.hypot(self.nodes[:, 0] - y[0],
                            self.nodes[:, 1] - y[1])) / _TWO_PI
        mu = sla.lu_solve(self._lu, g)
        resid = float(np.max(np.abs(self._matrix @ mu - g)))
        if not resid <= max(self.cfg.solve_tol, 1e-12) * (1.0 + float(np.max(np.abs(g)))):
            raise SolverDivergence(f"boundary-integral solve residual {resid:g}")
        return mu

    def _near(self, mu: np.ndarray, points: np.ndarray):
        """x - y_j and |x - y_j|^2 per target and node, mu at the nearest
        node (mu*), and w_j (mu_j - mu*)."""
        dx = points[:, :1] - self.nodes[:, 0]
        dy = points[:, 1:] - self.nodes[:, 1]
        r2 = dx * dx + dy * dy
        star = mu[np.argmin(r2, axis=1)]
        return dx, dy, r2, star, self.weights * (mu - star[:, None])

    def _evaluate(self, mu: np.ndarray, points: np.ndarray) -> np.ndarray:
        dx, dy, r2, star, wmu = self._near(mu, points)
        kern = (dx * self.normals[:, 0] + dy * self.normals[:, 1]) / (_TWO_PI * r2)
        # subtract the nearest density value: sum_j w_j K = -1 exactly,
        # which tames the nearly singular quadrature close to the boundary
        return np.einsum("ij,ij->i", kern, wmu) - star

    def _gradient(self, mu: np.ndarray, points: np.ndarray) -> np.ndarray:
        # mu* is constant between nodes, so only the kernel is differentiated:
        # grad_x K(x, y) = (nu |r|^2 - 2 (r.nu) r) / (2 pi |r|^4), r = x - y
        dx, dy, r2, _, wmu = self._near(mu, points)
        nx, ny = self.normals[:, 0], self.normals[:, 1]
        c = 2.0 * (dx * nx + dy * ny)
        coef = wmu / (_TWO_PI * r2 * r2)
        return np.stack([np.einsum("ij,ij->i", nx * r2 - c * dx, coef),
                         np.einsum("ij,ij->i", ny * r2 - c * dy, coef)], axis=1)


class GridKernels(_NumericBase):
    """5-point finite-difference backend on the bounding box of the domain."""

    backend = "grid"
    _cache_size = 32  # full-grid solutions are large; keep the cache shallow

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
        self._cache = {}
        self.resolution = self.h_grid
        self.min_eval_distance = 2.0 * self.h_grid

    def _solve(self, y: np.ndarray) -> np.ndarray:
        """Full grid of k(., y) values (interior solve + transplanted data)."""
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
        return grid

    def _cell(self, points: np.ndarray):
        """Lower-left node (i, j) of each point's cell and the point's
        position (tx, ty) in it; points past the grid use the edge cell."""
        fx = (points[:, 0] - self.xs[0]) / self.hx
        fy = (points[:, 1] - self.ys[0]) / self.hy
        i = np.clip(np.floor(fx).astype(int), 0, len(self.xs) - 2)
        j = np.clip(np.floor(fy).astype(int), 0, len(self.ys) - 2)
        return i, j, fx - i, fy - j

    def _evaluate(self, grid: np.ndarray, points: np.ndarray) -> np.ndarray:
        i, j, tx, ty = self._cell(points)
        return ((1 - tx) * (1 - ty) * grid[i, j]
                + tx * (1 - ty) * grid[i + 1, j]
                + (1 - tx) * ty * grid[i, j + 1]
                + tx * ty * grid[i + 1, j + 1])

    def _gradient(self, grid: np.ndarray, points: np.ndarray) -> np.ndarray:
        # exact derivative of the bilinear interpolant inside each cell
        i, j, tx, ty = self._cell(points)
        g00, g10 = grid[i, j], grid[i + 1, j]
        g01, g11 = grid[i, j + 1], grid[i + 1, j + 1]
        return np.stack([((1 - ty) * (g10 - g00) + ty * (g11 - g01)) / self.hx,
                         ((1 - tx) * (g01 - g00) + tx * (g11 - g10)) / self.hy],
                        axis=1)


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
    """Gradient of h, 2 grad_x k(x, y) at y = x with the source frozen.

    Refuses x as ``h_numeric`` does, whose solve the gradient then reuses.
    """
    x = np.asarray(x, float).reshape(2)
    h_numeric(domain, x, cfg)
    return _shared_evaluator(domain, cfg).grad_h(x)
