"""Numeric interaction kernels for domains without closed forms.

Two backends solve the Laplace boundary-value problem that defines the
regular part k(., y):

* ``integral`` -- Nystrom discretization of the double-layer potential on a
  smooth parametric curve (trapezoid rule in the parameter, curvature
  diagonal limit) or on a polygon (per-edge panels clustered toward the
  corners, where the self-interaction of a straight edge vanishes exactly).
  The dense system matrix M is LU-factorized once per domain (row k of
  L U is row perm[k] of M) and only the factors are kept.  They are
  checked there, once: finite, and E = ||M[perm] - L U||_inf <= 1e-10.
  The sources of a call share one back-substitution, one column each, and
  each column is checked against its own boundary data through the same
  factors, max|L U mu - g[perm]| + E max|mu| <= 1e-10 (1 + max|g|), whose
  left side bounds max|M mu - g|.
* ``grid`` -- 5-point finite differences on a uniform grid over the
  bounding box with Dirichlet data transplanted from the nearest boundary
  point; the sparse matrix is symmetric and is factorized once under a
  symmetric fill-reducing ordering (minimum degree on A^T + A), evaluation
  interpolates bilinearly between the four corners of the target's cell.
  A source only costs its boundary data: each interior node keeps one short
  adjoint row, solved on first use and cached per node (LRU, never more
  memory than 32 full-grid solutions), whose dot product with the data is
  the node value.  These rows are the module's only cache.

Both backends supply the two targets x sources forms that
``KernelEvaluator`` builds every other method from in one batched pass: the
densities (Nystrom) or boundary data (grid) of all sources at once,
evaluated at all targets at once.  Each backend differentiates its own
solution exactly: the double layer in closed form, the grid's bilinear
interpolant cell by cell.  Every call computes its sources' data afresh: the
dynamics never meets the same source twice.  The scalar methods refuse a
point outside the domain; the batched path does no side check.  Below
roughly one mesh width from the boundary (``min_eval_distance``) the
quadrature cannot resolve the boundary data and the values are best-effort
(with the nearest-density subtraction that keeps near-boundary evaluation
usable); ``kernel-probe`` refuses such targets.
``experiments.build_kernels`` picks the backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtrmm, dtrmv
from scipy.linalg.lapack import dgetrs

from .errors import PointOutside, SolverDivergence
from .geometry import (AxisAlignedPolygon, Disk, Domain, SmoothCurveDomain)
from .kernels_analytic import KernelEvaluator, _as_real, _point

__all__ = [
    "NumericKernelConfig",
    "NystromKernels",
    "GridKernels",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NumericKernelConfig:
    boundary_nodes: int = 512          # N_b, even and >= 64
    grid_spacing: float | None = None  # default diameter / 256

    def __post_init__(self):
        if self.boundary_nodes < 64 or self.boundary_nodes % 2:
            raise ValueError("boundary_nodes must be even and >= 64")
        if self.grid_spacing is not None and not 0 < self.grid_spacing < math.inf:
            raise ValueError(
                f"grid_spacing must be finite and positive, got {self.grid_spacing!r}")


class _NumericBase(KernelEvaluator):
    backend = "numeric"

    def _one(self, x) -> np.ndarray:
        """A scalar method's point, refused unless in the domain: the
        backends would extrapolate past the boundary without a word."""
        z = super()._one(x)
        if not self.domain.contains(_as_real(z)[0]):
            raise PointOutside(f"{_point(z[0])} is not inside the domain")
        return z

    def _k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._evaluate(self._solve(_as_real(y)), _as_real(x))

    def _grad_k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._gradient(self._solve(_as_real(y)), _as_real(x))

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        out = self._k_cross(z, z)
        # numeric k is symmetric only up to discretisation: mirror the upper
        # triangle so that G is exactly symmetric
        lower = np.tril_indices(len(z), -1)
        out[lower] = out.T[lower]
        return out

    # hooks provided by the concrete backends; sources is a (p, 2) array,
    # points an (m, 2) array, and _evaluate and _gradient return (m, p)
    # arrays, the gradient as complex gx + i gy
    def _solve(self, sources: np.ndarray):
        """The backend's data for all sources at once: their densities, or
        their boundary data."""
        raise NotImplementedError

    def _evaluate(self, data, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradient(self, data, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _log_distance(points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """log|p_i - y_j| / (2 pi), shape (len(points), len(sources))."""
    return np.log(np.hypot(points[:, :1] - sources[:, 0],
                           points[:, 1:] - sources[:, 1])) / _TWO_PI


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


def _checked_lu(m: np.ndarray):
    """The LU factors (lu, piv) of m, read-only; the row order perm, row k
    of L U being row perm[k] of m; and E = ||m[perm] - L U||_inf, measured
    from L U a block of columns at a time.  The factors never change, so
    they are checked here once, not on every solve: refused unless finite
    (any NaN or inf makes their sum non-finite) and unless E <= 1e-10."""
    lu, piv = sla.lu_factor(m)
    if not math.isfinite(lu.sum()):
        raise SolverDivergence("boundary-integral LU factors are not finite")
    perm = list(range(len(m)))
    for k, j in enumerate(piv.tolist()):
        perm[k], perm[j] = perm[j], perm[k]
    perm = np.array(perm)
    rows = np.zeros(len(m))
    for c in range(0, len(m), 128):
        u = np.triu(lu[:, c:c + 128], -c)  # columns c.. of U
        rows += np.abs(m[perm, c:c + 128]
                       - dtrmm(1.0, lu, u, lower=1, diag=1)).sum(axis=1)
    error = float(rows.max())
    if not error <= 1e-10:
        raise SolverDivergence(
            f"boundary-integral LU factor check failed: "
            f"||M[perm] - L U||_inf = {error:g} exceeds 1e-10")
    lu.setflags(write=False)
    piv.setflags(write=False)
    return (lu, piv), perm, error


class NystromKernels(_NumericBase):
    """Double-layer potential backend for smooth curves, disks and polygons.

    The system matrix M is LU-factorized once; row k of L U is row perm[k]
    of M, and M itself is not kept.  As
    M mu - g = P [(L U mu - g[perm]) + (M[perm] - L U) mu], each density
    column j is checked by

        max|L U mu_j - g_j[perm]| + E max|mu_j| <= 1e-10 (1 + max|g_j|),

    whose left side bounds max|M mu_j - g_j|.  L U mu reads the factors that
    the back-substitution has just read, and E = ||M[perm] - L U||_inf is
    measured once, when the evaluator is built.
    """

    backend = "integral"

    def __init__(self, domain: Domain, cfg: NumericKernelConfig = NumericKernelConfig()):
        self.domain = domain
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

        # the system matrix M, assembled in place; only its factors are kept
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        r2 = dx * dx + dy * dy
        np.fill_diagonal(r2, 1.0)
        r2 *= _TWO_PI
        m = dx * self.normals[:, 0] + dy * self.normals[:, 1]
        del dx, dy
        m /= r2
        del r2
        m *= self.weights
        if isinstance(domain, AxisAlignedPolygon):
            np.fill_diagonal(m, 0.0)
        else:
            np.fill_diagonal(m, -kappa * self.weights / (2.0 * _TWO_PI))
        m[np.diag_indices_from(m)] -= 0.5
        self._lu, self._perm, self._factor_error = _checked_lu(m)
        self.resolution = _TWO_PI * domain.diameter / n
        self.min_eval_distance = self.resolution

    def _solve(self, sources: np.ndarray) -> np.ndarray:
        """The densities of all p sources, shape (N, p), each column checked
        against its own boundary data."""
        g = _log_distance(self.nodes, sources)
        # LAPACK's getrs itself: lu_solve's argument handling added half
        # again to a one-column solve
        mu, _ = dgetrs(*self._lu, g)
        resid = self._residual_bound(mu, g)
        ok = resid <= 1e-10 * (1.0 + np.max(np.abs(g), axis=0))
        if not ok.all():
            j = np.argmin(ok)
            raise SolverDivergence(
                f"boundary-integral solve residual {resid[j]:g} "
                f"for source {_point(sources[j])}")
        return mu

    def _residual_bound(self, mu: np.ndarray, g: np.ndarray) -> np.ndarray:
        """max|L U mu_j - g_j[perm]| + E max|mu_j| per column j, at least
        max|M mu_j - g_j|, read from the factors alone."""
        lu = self._lu[0]
        # two triangular matrix-vector products per column, upper then
        # unit lower
        lu_mu = np.column_stack(
            [dtrmv(lu, dtrmv(lu, col), lower=1, diag=1, overwrite_x=1)
             for col in mu.T])
        lu_mu -= g.take(self._perm, axis=0)
        return abs(lu_mu).max(axis=0) + self._factor_error * abs(mu).max(axis=0)

    def _near(self, points: np.ndarray):
        """x - y_j and |x - y_j|^2 per target and node, and each target's
        nearest node."""
        dx = points[:, :1] - self.nodes[:, 0]
        dy = points[:, 1:] - self.nodes[:, 1]
        r2 = dx * dx + dy * dy
        return dx, dy, r2, np.argmin(r2, axis=1)

    @staticmethod
    def _against_nearest(kw: np.ndarray, mu: np.ndarray,
                         nearest: np.ndarray) -> np.ndarray:
        """sum_j kw_ij (mu_j - mu*_i) for every source, shape (m, p), with
        mu*_i the density at target i's nearest node.  That node's own term
        is zero: it is dropped, not left to cancel."""
        kw[np.arange(len(kw)), nearest] = 0.0
        return kw @ mu - kw.sum(axis=1)[:, None] * mu[nearest]

    def _evaluate(self, mu: np.ndarray, points: np.ndarray) -> np.ndarray:
        dx, dy, r2, nearest = self._near(points)
        kw = (dx * self.normals[:, 0] + dy * self.normals[:, 1]) \
            * (self.weights / (_TWO_PI * r2))
        # subtract the nearest density value: sum_j w_j K = -1 exactly,
        # which tames the nearly singular quadrature close to the boundary
        return self._against_nearest(kw, mu, nearest) - mu[nearest]

    def _gradient(self, mu: np.ndarray, points: np.ndarray) -> np.ndarray:
        # mu* is constant between nodes, so only the kernel is differentiated:
        # grad_x K(x, y) = (nu |r|^2 - 2 (r.nu) r) / (2 pi |r|^4), r = x - y
        dx, dy, r2, nearest = self._near(points)
        nx, ny = self.normals[:, 0], self.normals[:, 1]
        c = 2.0 * (dx * nx + dy * ny)
        kw = ((nx * r2 - c * dx) + 1j * (ny * r2 - c * dy)) \
            * (self.weights / (_TWO_PI * r2 * r2))
        return self._against_nearest(kw, mu, nearest)


class GridKernels(_NumericBase):
    """5-point finite-difference backend on the bounding box of the domain.

    With A the interior matrix, the boundary data of source y enter the
    right-hand side as S g(y), g(y) = log|p_c - y| / (2 pi) at the boundary
    point p_c of each coupling c.  The value at interior node r is then
    u_r = (A^-T e_r)^T S g(y) = row_r . g(y), with row_r = (A^-T e_r)
    restricted to the coupled rows and scaled by their coefficients.  A
    source only costs g(y); each node's row is solved once, on first use,
    and kept in an LRU cache keyed by the node index.

    The operator is assembled from the neighbours +x, -x, +y, -y of all
    interior nodes at once, couplings in (node, direction) order.  Set-up
    time goes to the factorization and to one boundary probe per outside
    node (about 55% and 30% of a default-spacing unit-square build).
    """

    backend = "grid"
    # node offsets of the corners 00, 10, 01, 11 of a cell
    _CORNER_DI = np.array([0, 1, 0, 1])[:, None]
    _CORNER_DJ = np.array([0, 0, 1, 1])[:, None]

    def __init__(self, domain: Domain, cfg: NumericKernelConfig = NumericKernelConfig()):
        self.domain = domain
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
        h = cfg.grid_spacing if cfg.grid_spacing is not None \
            else domain.diameter / 256.0

        nx = max(8, int(round((x1 - x0) / h))) + 1
        ny = max(8, int(round((y1 - y0) / h))) + 1
        self.xs = np.linspace(x0, x1, nx)
        self.ys = np.linspace(y0, y1, ny)
        self.hx = self.xs[1] - self.xs[0]
        self.hy = self.ys[1] - self.ys[0]
        self.h_grid = max(self.hx, self.hy)
        self._origin = np.array([x0, y0])
        self._steps = np.array([self.hx, self.hy])
        self._last_cell = np.array([nx - 2, ny - 2])

        mesh = np.stack(np.meshgrid(self.xs, self.ys, indexing="ij"), axis=-1)
        inside = domain.contains_many(mesh.reshape(-1, 2)).reshape(nx, ny)
        self.inside = inside
        idx = -np.ones((nx, ny), dtype=int)
        ii, jj = np.nonzero(inside)
        n = len(ii)
        idx[ii, jj] = np.arange(n)

        # nearest boundary points for every non-interior node (Dirichlet data)
        self.proj = np.zeros((nx, ny, 2))
        self.proj[~inside] = [domain.probe(p).point for p in mesh[~inside]]

        # the neighbours +x, -x, +y, -y of every interior node, shape (n, 4);
        # ``inner`` marks those on the grid and inside the domain
        a = ii[:, None] + np.array([1, -1, 0, 0])
        b = jj[:, None] + np.array([0, 0, 1, -1])
        inner = np.pad(inside, 1)[a + 1, b + 1]
        inv_hx2, inv_hy2 = 1.0 / self.hx**2, 1.0 / self.hy**2
        coef = np.array([inv_hx2, inv_hx2, inv_hy2, inv_hy2])
        r, d = np.nonzero(inner)
        vals = np.concatenate([np.full(n, 2.0 * inv_hx2 + 2.0 * inv_hy2), -coef[d]])
        rows = np.concatenate([np.arange(n), r])
        cols = np.concatenate([np.arange(n), idx[a[r, d], b[r, d]]])
        self._matrix = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        # the 5-point matrix is symmetric: a symmetric fill-reducing ordering
        # halves the factor's fill against the default COLAMD
        self._lu = spla.splu(self._matrix, permc_spec="MMD_AT_PLUS_A")
        # every other neighbour couples its row to the Dirichlet value at the
        # neighbour clipped to the grid, in (node, direction) order
        r, d = np.nonzero(~inner)
        self._b_rows = r
        self._b_points = self.proj[np.clip(a[r, d], 0, nx - 1),
                                   np.clip(b[r, d], 0, ny - 1)]
        self._b_coefs = coef[d]
        self._interior_index = idx
        self._rows = {}  # node index -> adjoint row; the last is the most recent
        # the rows never take more memory than 32 full-grid solutions
        self._rows_cap = 32 * nx * ny // len(self._b_rows)
        self.resolution = self.h_grid
        self.min_eval_distance = 2.0 * self.h_grid

    def _solve(self, sources: np.ndarray):
        """Source data: the sources, and the Dirichlet value g(y_j) at every
        coupling, shape (C, p)."""
        return sources, _log_distance(self._b_points, sources)

    def _node_rows(self, nodes: np.ndarray) -> np.ndarray:
        """The adjoint rows of the given interior nodes, one per line.  The
        missing ones are solved together, each checked for its residual."""
        rows = self._rows
        missing = sorted(set(nodes.tolist()).difference(rows))
        if missing:
            e = np.zeros((self._matrix.shape[0], len(missing)))
            e[missing, np.arange(len(missing))] = 1.0
            z = self._lu.solve(e, trans="T")
            resid = float(np.max(np.abs(self._matrix.T @ z - e)))
            if not resid <= 2e-9:
                raise SolverDivergence(f"grid adjoint row residual {resid:g}")
            new = (z[self._b_rows] * self._b_coefs[:, None]).T
            for r, row in zip(missing, new):
                rows[r] = row.copy()  # a row must not pin the whole block
        out = np.empty((len(nodes), len(self._b_rows)))
        for n, r in enumerate(nodes.tolist()):
            out[n] = rows[r] = rows.pop(r)
        while len(rows) > self._rows_cap:
            del rows[next(iter(rows))]
        return out

    def _corners(self, data, points: np.ndarray):
        """k(., y_j) at the corners 00, 10, 01, 11 of each point's cell,
        shape (4, m, p), and the point's position (tx, ty) in the cell,
        each shape (m, 1).  A corner outside the domain takes the
        transplanted Dirichlet value."""
        sources, gb = data
        i, j, tx, ty = self._cell(points)
        a = i + self._CORNER_DI
        b = j + self._CORNER_DJ
        node = self._interior_index[a, b]
        inner = node >= 0
        if inner.all():
            vals = self._node_rows(node.ravel()) @ gb
        else:
            vals = np.empty((node.size, len(sources)))
            flat = inner.ravel()
            vals[flat] = self._node_rows(node[inner]) @ gb
            vals[~flat] = _log_distance(self.proj[a[~inner], b[~inner]], sources)
        return vals.reshape(4, len(points), -1), tx, ty

    def _cell(self, points: np.ndarray):
        """Lower-left node (i, j) of each point's cell, shape (m,), and the
        point's position (tx, ty) in it, shape (m, 1); points past the grid
        use the edge cell."""
        f = (points - self._origin) / self._steps
        ij = np.minimum(np.maximum(np.floor(f).astype(int), 0), self._last_cell)
        t = f - ij
        return ij[:, 0], ij[:, 1], t[:, 0:1], t[:, 1:2]

    def _evaluate(self, data, points: np.ndarray) -> np.ndarray:
        (g00, g10, g01, g11), tx, ty = self._corners(data, points)
        lo = g00 + tx * (g10 - g00)
        return lo + ty * (g01 + tx * (g11 - g01) - lo)

    def _gradient(self, data, points: np.ndarray) -> np.ndarray:
        # exact derivative of the bilinear interpolant inside each cell
        (g00, g10, g01, g11), tx, ty = self._corners(data, points)
        dx0 = g10 - g00
        twist = g11 - g01 - dx0
        return ((dx0 + ty * twist) / self.hx
                + 1j * ((g01 - g00 + tx * twist) / self.hy))
