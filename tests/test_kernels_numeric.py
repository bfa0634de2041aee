import csv
import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrs
from scipy.optimize import brentq
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu, spsolve

from dislodyn import kernels_numeric
from dislodyn.cli import main
from dislodyn.errors import PointOutside, SolverDivergence
from dislodyn.geometry import (_CARDIOID_A, AxisAlignedPolygon, Disk,
                               ExteriorDisk, HalfPlane, cardioid_domain)
from dislodyn.kernels_analytic import (DiskKernels, ExteriorDiskKernels,
                                       HalfPlaneKernels, PlaneKernels)
from dislodyn.kernels_numeric import (GridKernels, NumericKernelConfig,
                                      NystromKernels)

TWO_PI = 2.0 * math.pi


def cardioid_conformal_h(w, a=_CARDIOID_A, offset=None):
    """Independent oracle: the builtin cardioid is the image of the unit
    disk under f(z) = -a (z-1)^2 + offset, and the regular part transforms
    as h(w) = h_disk(z) + log|f'(z)| / (2 pi), h_disk the unit disk's h."""
    if offset is None:
        offset = (0.5 + 1.75 * a, 0.5)
    W = complex(w[0] - offset[0], w[1] - offset[1])
    s = np.sqrt(-W / a)
    for z in (1 + s, 1 - s):
        if abs(z) < 1.0 - 1e-12:
            return math.log((1 - abs(z) ** 2) * 2 * a * abs(z - 1)) / TWO_PI
    raise ValueError("point is not inside the cardioid")


@pytest.fixture(scope="module")
def disk_128(disk):
    return NystromKernels(disk, NumericKernelConfig(boundary_nodes=128))


def probe_disk_128(tmp_path, points, source):
    """kernel-probe rows of a 128-node Nystrom unit disk, the command that
    enforces the resolution margin (2 pi diam / 128 = 0.098)."""
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "disk"},
        "kernel": {"backend": "integral", "boundary_nodes": 128},
        "probe": {"points": points, "source": source}}))
    out = tmp_path / "po"
    assert main(["kernel-probe", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "kernel_probe.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolveK:
    """Values of k(target, y) from the numeric evaluators."""

    def test_disk_against_analytic(self, disk_128):
        # k((0.5,0), (0.2,0)) = log(0.9) / (2 pi) on the unit disk
        assert disk_128.k((0.5, 0.0), (0.2, 0.0)) == pytest.approx(
            math.log(0.9) / TWO_PI, abs=1e-3)

    def test_center_source_vanishes(self, disk_128):
        vals = [disk_128.k(x, (0.0, 0.0)) for x in ((0.5, 0.0), (0.1, 0.3))]
        assert np.max(np.abs(vals)) < 1e-10

    def test_square_diagonal_h_cross_backend(self, square_grid, square_integral):
        y = (0.5, 0.5)
        assert abs(square_grid.k(y, y) - square_integral.k(y, y)) < 2e-3

    def test_margin_enforced(self, tmp_path):
        (row,) = probe_disk_128(tmp_path, [[0.999, 0.0]], [0.0, 0.0])
        assert row["refused"] == "TargetTooCloseToBoundary"
        assert row["k"] == ""

    def test_outside_rejected(self, disk_integral):
        with pytest.raises(PointOutside):
            disk_integral.k((0.2, 0.0), (1.5, 0.0))


# closed-form evaluators for the non-finite test, each with a point inside
CLOSED_FORMS = {
    "disk": (lambda: DiskKernels(Disk()), (0.2, 0.1)),
    "exterior_disk": (lambda: ExteriorDiskKernels(ExteriorDisk()), (2.0, 0.5)),
    "half_plane": (lambda: HalfPlaneKernels(HalfPlane.upper()), (0.3, 0.5)),
    "plane": (lambda: PlaneKernels(), (0.3, 0.5)),
}


@pytest.mark.parametrize("name", ["disk_integral", "square_grid", *CLOSED_FORMS])
def test_non_finite_points_refused(name, request):
    if name in CLOSED_FORMS:
        make, inside = CLOSED_FORMS[name]
        ev = make()
    else:
        ev = request.getfixturevalue(name)
        inside = ev.nodes.mean(axis=0) if name == "disk_integral" else (0.5, 0.5)
    for bad in (math.nan, math.inf):
        for call in (ev.k, ev.grad_x_k, ev.G, ev.grad_x_G, ev.grad_y_G):
            for x, y in (((bad, 0.5), inside), (inside, (0.25, bad))):
                with pytest.raises(PointOutside, match="not a finite point"):
                    call(x, y)
        for call in (ev.h, ev.grad_h):
            with pytest.raises(PointOutside, match="not a finite point"):
                call((bad, 0.5))


@pytest.mark.parametrize("name", ["disk_integral", "square_grid"])
def test_numeric_scalar_methods_refuse_outside_points(name, request):
    ev = request.getfixturevalue(name)
    inside, outside = ((0.2, 0.1), (1.5, 0.0)) if name == "disk_integral" \
        else ((0.5, 0.5), (5.0, 0.5))
    for call in (ev.k, ev.grad_x_k, ev.G, ev.grad_x_G):
        for x, y in ((outside, inside), (inside, outside)):
            with pytest.raises(PointOutside, match="not inside the domain"):
                call(x, y)
    for call in (ev.h, ev.grad_h):
        with pytest.raises(PointOutside, match="not inside the domain"):
            call(outside)


def full_grid(ev, y):
    """k(., y) at every node of the grid from one direct sparse solve with
    the transplanted boundary data: the reference for the adjoint rows."""
    y = np.asarray(y, float)
    gb = np.log(np.hypot(*(ev._b_points - y).T)) / TWO_PI
    rhs = np.zeros(ev._matrix.shape[0])
    np.add.at(rhs, ev._b_rows, ev._b_coefs * gb)
    grid = np.log(np.hypot(ev.proj[..., 0] - y[0], ev.proj[..., 1] - y[1])) / TWO_PI
    grid[ev.inside] = spsolve(ev._matrix, rhs)
    return grid


def bilinear(ev, grid, x):
    """Value and gradient at x of the bilinear interpolant of node values."""
    fx, fy = (x[0] - ev.xs[0]) / ev.hx, (x[1] - ev.ys[0]) / ev.hy
    i, j = int(fx), int(fy)
    tx, ty = fx - i, fy - j
    g00, g10, g01, g11 = grid[i, j], grid[i + 1, j], grid[i, j + 1], grid[i + 1, j + 1]
    value = ((1 - tx) * (1 - ty) * g00 + tx * (1 - ty) * g10
             + (1 - tx) * ty * g01 + tx * ty * g11)
    grad = np.array([((1 - ty) * (g10 - g00) + ty * (g11 - g01)) / ev.hx,
                     ((1 - tx) * (g01 - g00) + tx * (g11 - g10)) / ev.hy])
    return value, grad, (i, j)


class CountingLU:
    """Forwards to a factor and counts the right-hand sides it solves."""

    def __init__(self, lu):
        self.lu, self.columns = lu, 0

    def solve(self, rhs, trans="N"):
        self.columns += rhs.shape[1] if rhs.ndim == 2 else 1
        return self.lu.solve(rhs, trans=trans)


class GarbageLU:
    def solve(self, rhs, trans="N"):
        return np.ones_like(rhs)


def loop_assembly(ev):
    """The 5-point matrix and the boundary couplings (rows, points,
    coefficients) assembled node by node, neighbours in the order +x, -x,
    +y, -y, kept as the reference for the array assembly.  The node sets
    and the Dirichlet points are rebuilt from the domain."""
    nx, ny = len(ev.xs), len(ev.ys)
    inside = np.array([[ev.domain.contains((x, y)) for y in ev.ys] for x in ev.xs])
    idx = -np.ones((nx, ny), dtype=int)
    idx[inside] = np.arange(inside.sum())
    proj = np.zeros((nx, ny, 2))
    for i, j in zip(*np.nonzero(~inside)):
        proj[i, j] = ev.domain.probe((ev.xs[i], ev.ys[j])).point
    rows, cols, vals = [], [], []
    b_rows, b_points, b_coefs = [], [], []
    inv_hx2, inv_hy2 = 1.0 / ev.hx**2, 1.0 / ev.hy**2
    for r, (i, j) in enumerate(zip(*np.nonzero(inside))):
        rows.append(r)
        cols.append(r)
        vals.append(2.0 * inv_hx2 + 2.0 * inv_hy2)
        for di, dj, coef in ((1, 0, inv_hx2), (-1, 0, inv_hx2),
                             (0, 1, inv_hy2), (0, -1, inv_hy2)):
            a, b = i + di, j + dj
            if 0 <= a < nx and 0 <= b < ny and inside[a, b]:
                rows.append(r)
                cols.append(idx[a, b])
                vals.append(-coef)
            else:
                b_rows.append(r)
                b_points.append(proj[min(max(a, 0), nx - 1), min(max(b, 0), ny - 1)])
                b_coefs.append(coef)
    n = int(inside.sum())
    matrix = csc_matrix((vals, (rows, cols)), shape=(n, n))
    return (inside, idx, proj, matrix, np.asarray(b_rows, dtype=int),
            np.array(b_points), np.array(b_coefs))


ASSEMBLY_GRIDS = {
    "square": (AxisAlignedPolygon.square(), 1 / 16),
    "rectangle": (AxisAlignedPolygon([(0, 0), (1, 0), (1, 0.8), (0, 0.8)]), 0.07),
    "L": (AxisAlignedPolygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1),
                              (0, 1)]), 1 / 32),
    "disk": (Disk(), 1 / 32),
    "cardioid": (cardioid_domain(), 1 / 64),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_GRIDS))
def test_grid_assembly_matches_node_loop(name):
    domain, spacing = ASSEMBLY_GRIDS[name]
    ev = GridKernels(domain, NumericKernelConfig(grid_spacing=spacing))
    if name == "rectangle":
        assert ev.hx != ev.hy
    inside, idx, proj, matrix, b_rows, b_points, b_coefs = loop_assembly(ev)
    for got, want in ((ev.inside, inside), (ev._interior_index, idx),
                      (ev.proj, proj), (ev._matrix.indptr, matrix.indptr),
                      (ev._matrix.indices, matrix.indices),
                      (ev._matrix.data, matrix.data), (ev._b_rows, b_rows),
                      (ev._b_points, b_points), (ev._b_coefs, b_coefs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ev._rows_cap == 32 * len(ev.xs) * len(ev.ys) // len(b_rows)


class TestGridRows:
    @pytest.mark.parametrize("domain, spacing", [
        (AxisAlignedPolygon.square(), 1 / 64), (Disk(), 1 / 32)])
    def test_rows_match_direct_solve(self, domain, spacing, rng):
        ev = GridKernels(domain, NumericKernelConfig(grid_spacing=spacing))
        lo, hi = np.array([ev.xs[0], ev.ys[0]]), np.array([ev.xs[-1], ev.ys[-1]])
        outside_corner = 0
        checked = 0
        while checked < 30:
            x, y = rng.uniform(lo, hi, (2, 2))
            if checked % 2:  # every other target within 1.5 cells of the boundary
                x = domain.probe(x).point + rng.uniform(-1.5, 1.5, 2) * ev.h_grid
            if not (domain.contains(x) and domain.contains(y)):
                continue
            value, grad, (i, j) = bilinear(ev, full_grid(ev, y), x)
            assert abs(ev.k(x, y) - value) <= 1e-12
            assert np.max(np.abs(ev.grad_x_k(x, y) - grad)) <= 1e-12
            outside_corner += not ev.inside[i:i + 2, j:j + 2].all()
            checked += 1
        assert outside_corner >= 5

    def test_cardioid_dirichlet_points_on_the_curve(self, cardioid):
        # every outside node takes its boundary value at its nearest point
        ev = GridKernels(cardioid, NumericKernelConfig(grid_spacing=1 / 64))
        a, c = _CARDIOID_A, cardioid.position(np.zeros(1))[0]
        nodes = np.stack(np.meshgrid(ev.xs, ev.ys, indexing="ij"), axis=-1)
        for p, q in zip(nodes[~ev.inside], ev.proj[~ev.inside]):
            # the polar form r = 2a (1 - cos theta) about the cusp, times r
            u = q - c
            r = math.hypot(u[0], u[1])
            assert abs(r * r - 2 * a * (r - u[0])) <= 1e-15
            d = cardioid.derivative(np.array([math.atan2(u[1], u[0])]))[0]
            assert abs((q - p) @ d) <= 1e-12

    def test_one_target_solves_at_most_four_rows(self, square, rng):
        ev = GridKernels(square, NumericKernelConfig(grid_spacing=1 / 16))
        ev._lu = CountingLU(ev._lu)
        x = (0.43, 0.57)
        for y in rng.uniform(0.1, 0.9, (10, 2)):
            ev.k(x, y)
        assert 0 < ev._lu.columns <= 4

    def test_row_cache_drops_least_recent(self, square):
        ev = GridKernels(square, NumericKernelConfig(grid_spacing=1 / 16))
        cap = 32 * len(ev.xs) * len(ev.ys) // len(ev._b_rows)
        assert ev._rows_cap == cap
        y = (0.3, 0.6)
        nodes = np.stack(np.meshgrid(ev.xs, ev.ys, indexing="ij"), axis=-1)
        targets = nodes[ev.inside] + 0.25 * ev.hx
        assert len(targets) > cap
        for p in targets:
            ev.k(p, y)
        assert len(ev._rows) == cap
        first, last = ev._interior_index[1, 1], ev._interior_index[-2, -2]
        assert first not in ev._rows and last in ev._rows

    def test_factor_uses_symmetric_ordering(self, square):
        ev = GridKernels(square, NumericKernelConfig(grid_spacing=1 / 64))
        assert abs(ev._matrix - ev._matrix.T).max() == 0.0
        mmd = splu(ev._matrix, permc_spec="MMD_AT_PLUS_A")
        assert np.array_equal(ev._lu.perm_c, mmd.perm_c)
        assert ev._lu.nnz == mmd.nnz < splu(ev._matrix).nnz

    def test_corrupted_factor_diverges(self, square):
        ev = GridKernels(square, NumericKernelConfig(grid_spacing=1 / 16))
        ev._lu = GarbageLU()
        with pytest.raises(SolverDivergence, match="residual"):
            ev.k((0.4, 0.5), (0.6, 0.5))


# n = 3 starts for the batched-against-scalar check; the square's third point
# lies within one cell of the edge, so its cell has outside corners
BATCH_STARTS = {
    "square_grid": [(0.3, 0.4), (0.62, 0.55), (0.003, 0.52)],
    "cardioid_integral": [(0.45, 0.5), (0.3, 0.6), (0.36, 0.4)],
}


@pytest.mark.parametrize("name", sorted(BATCH_STARTS))
def test_batched_matches_scalar_pair_by_pair(name, request):
    """One batched call over all sources against one scalar call per pair."""
    ev = request.getfixturevalue(name)
    z = np.array(BATCH_STARTS[name])
    grad_h, grad_G = ev.grad_h_and_G(z)
    h, G = ev.h_and_G(z)
    for i, x in enumerate(z):
        assert abs(h[i] - ev.h(x)) <= 1e-12
        assert np.max(np.abs(grad_h[i] - ev.grad_h(x))) <= 1e-12
        for j, y in enumerate(z):
            if i == j:
                continue
            w = x - y
            # G mirrors its upper triangle: G[i, j] holds k(z_min, z_max)
            k = ev.k(x, y) if i < j else ev.k(y, x)
            assert abs(G[i, j] - (k - math.log(np.hypot(*w)) / TWO_PI)) <= 1e-12
            grad = ev.grad_x_k(x, y) - w / (TWO_PI * (w @ w))
            assert np.max(np.abs(grad_G[i, j] - grad)) <= 1e-12


class TestNystromSolve:
    # on the 128-node unit disk, the source (0, 0) has boundary data g = 0,
    # so its column's residual bound is 1e-10; the source near the boundary
    # has max|g| = 0.59 and a bound of 1.59e-10
    STARTS = [(0.999, 0.0), (0.0, 0.0)]

    @staticmethod
    def corrupt(monkeypatch, column, amount):
        """Solve through LAPACK, then add to one column the density whose
        residual is `amount` at the first node."""
        def corrupted(lu, piv, b):
            x, info = dgetrs(lu, piv, b)
            e = np.zeros((len(b), 1))
            e[0] = amount
            x[:, column] += dgetrs(lu, piv, e)[0][:, 0]
            return x, info

        monkeypatch.setattr(kernels_numeric, "dgetrs", corrupted)

    def test_corrupted_column_diverges(self, disk_128, monkeypatch):
        self.corrupt(monkeypatch, 1, 1e-3)
        with pytest.raises(SolverDivergence, match="residual 0.001"):
            disk_128.h_and_G(self.STARTS)

    def test_each_column_checked_against_its_own_data(self, disk_128, monkeypatch):
        # 1.3e-10 is within the near-boundary column's own bound, not
        # within the centre column's: a pooled max|g| would let both pass
        self.corrupt(monkeypatch, 0, 1.3e-10)
        disk_128.h_and_G(self.STARTS)
        self.corrupt(monkeypatch, 1, 1.3e-10)
        with pytest.raises(SolverDivergence, match="residual"):
            disk_128.h_and_G(self.STARTS)

    def test_factors_checked_at_construction(self, disk, monkeypatch):
        def nan_factor(m):
            return np.full_like(m, math.nan), np.arange(len(m), dtype=np.int32)

        monkeypatch.setattr(kernels_numeric.sla, "lu_factor", nan_factor)
        with pytest.raises(SolverDivergence, match="not finite"):
            NystromKernels(disk, NumericKernelConfig(boundary_nodes=64))


def nystrom_matrix(ev, kappa):
    """The Nystrom system matrix from its definition, one row at a time:
    w_j (x_i - x_j).nu_j / (2 pi |x_i - x_j|^2) off the diagonal and
    -kappa_i w_i / (4 pi) - 1/2 on it."""
    x, nu, w = ev.nodes, ev.normals, ev.weights
    m = np.empty((len(x), len(x)))
    for i in range(len(x)):
        r = x[i] - x
        r2 = np.einsum("ij,ij->i", r, r)
        r2[i] = 1.0
        m[i] = w * np.einsum("ij,ij->i", r, nu) / (TWO_PI * r2)
        m[i, i] = -kappa[i] * w[i] / (2.0 * TWO_PI) - 0.5
    return m


def residual_check_data(ev, kappa, count, seed):
    """For `count` random interior sources: the boundary data g, the
    densities, the check's value per source and the residual
    max|M mu - g| per source, in extended precision against the matrix
    assembled from its definition."""
    rng = np.random.default_rng(seed)
    sources = []
    while len(sources) < count:
        q = rng.uniform(ev.nodes.min(axis=0), ev.nodes.max(axis=0))
        if ev.domain.contains(q):
            sources.append(q)
    sources = np.array(sources)
    g = np.log(np.hypot(ev.nodes[:, :1] - sources[:, 0],
                        ev.nodes[:, 1:] - sources[:, 1])) / TWO_PI
    mu = ev._solve(sources)
    m = nystrom_matrix(ev, kappa).astype(np.longdouble)
    true = np.max(np.abs(m @ mu.astype(np.longdouble) - g), axis=0)
    return g, mu, ev._residual_bound(mu, g), true.astype(float)


def assert_columns_checked_alone(ev, mu, g, bound):
    """The check of one or two columns, as a one- or two-source call makes
    it, gives those columns' values in the 50-column check."""
    for p in (1, 2):
        np.testing.assert_array_equal(
            ev._residual_bound(mu[:, :p], g[:, :p]), bound[:p])


NYSTROM_CHECKS = {
    "disk_128": (lambda ev: np.ones(128), 1),
    "square_integral": (lambda ev: np.zeros(len(ev.nodes)), 2),
    "cardioid_integral": (lambda ev: ev.domain.curve_frame(
        TWO_PI * (np.arange(512) + 0.5) / 512)[3], 3),
    "cardioid_1024": (lambda ev: ev.domain.curve_frame(
        TWO_PI * (np.arange(1024) + 0.5) / 1024)[3], 4),
}


class TestNystromFactorCheck:
    """Each density is checked through the LU factors, which are measured
    against M once, when the evaluator is built."""

    @pytest.fixture(scope="class")
    def cardioid_1024(self, cardioid):
        return NystromKernels(cardioid, NumericKernelConfig(boundary_nodes=1024))

    @pytest.mark.parametrize("name", sorted(NYSTROM_CHECKS))
    def test_check_bounds_the_residual(self, name, request):
        ev = request.getfixturevalue(name)
        kappa, seed = NYSTROM_CHECKS[name]
        g, mu, bound, true = residual_check_data(ev, kappa(ev), 50, seed)
        scale = 1.0 + np.max(np.abs(g), axis=0)
        # the residual is at rounding level: the check bounds it up to two
        # ulps of the data, and stays below 1e-2 of the threshold 1e-10 scale
        assert np.all(bound + 2.0 * np.finfo(float).eps * scale >= true)
        assert np.all(bound <= 1e-12 * scale)
        assert_columns_checked_alone(ev, mu, g, bound)

    @staticmethod
    def perturbed_factor(monkeypatch, amount):
        lu_factor = sla.lu_factor

        def perturbed(m):
            lu, piv = lu_factor(m)
            lu[0, 5] += amount
            return lu, piv

        monkeypatch.setattr(kernels_numeric.sla, "lu_factor", perturbed)

    def test_inexact_factor_refused(self, disk, monkeypatch):
        self.perturbed_factor(monkeypatch, 1e-8)
        with pytest.raises(SolverDivergence, match="factor check"):
            NystromKernels(disk, NumericKernelConfig(boundary_nodes=128))

    def test_factor_error_carried_into_the_check(self, disk, monkeypatch):
        # a factor 1e-11 off M passes at construction; the densities then
        # solve L U mu = g[perm] and miss M mu = g by about 1e-11 |mu|,
        # which only the E max|mu| term of the check accounts for
        self.perturbed_factor(monkeypatch, 1e-11)
        ev = NystromKernels(disk, NumericKernelConfig(boundary_nodes=128))
        assert ev._factor_error == pytest.approx(1e-11, rel=1e-3)
        g, mu, bound, true = residual_check_data(ev, np.ones(128), 50, 5)
        assert true.max() > 1e3 * np.finfo(float).eps
        assert np.all(bound >= true)
        assert np.all(bound - ev._factor_error * np.max(np.abs(mu), axis=0) < true)
        assert_columns_checked_alone(ev, mu, g, bound)

    def test_factors_read_only_and_matrix_not_kept(self, disk_128):
        lu, piv = disk_128._lu
        assert not lu.flags.writeable and not piv.flags.writeable
        with pytest.raises(ValueError):
            lu[0, 0] = 0.0
        assert not hasattr(disk_128, "_matrix")

    def test_divergence_names_the_source(self, disk_128, monkeypatch):
        TestNystromSolve.corrupt(monkeypatch, 1, 1e-3)
        with pytest.raises(SolverDivergence,
                           match=r"residual 0\.001 for source \(0\.0, 0\.0\)"):
            disk_128.h_and_G(TestNystromSolve.STARTS)


class TestHNumeric:
    def test_disk_matches_analytic(self, disk_128):
        assert disk_128.h((0.5, 0.0)) == pytest.approx(
            math.log(0.75) / TWO_PI, abs=1e-3)

    def test_square_center_gradient_vanishes(self, square, square_grid):
        g = square_grid.grad_h((0.5, 0.5))
        assert np.max(np.abs(g)) < 1e-3

    def test_cardioid_equilibrium(self, cardioid, cardioid_integral):
        # bisection on the symmetry axis brackets the unstable equilibrium
        a = _CARDIOID_A
        off = 0.5 + 1.75 * a
        gx = lambda x: cardioid_integral.grad_h((x, 0.5))[0]
        assert gx(off - 3.2 * a) > 0 and gx(off - 0.8 * a) < 0
        xeq = brentq(gx, off - 3.2 * a, off - 0.8 * a, xtol=1e-12)
        assert np.linalg.norm(cardioid_integral.grad_h((xeq, 0.5))) < 1e-3
        # conformal-map oracle pins the true equilibrium
        assert abs(xeq - (off - 16 * a / 9)) < 5e-3

    def test_grad_h_numeric_margin(self, tmp_path):
        (row,) = probe_disk_128(tmp_path, [[0.999, 0.0]], [0.0, 0.0])
        assert row["refused"] == "TargetTooCloseToBoundary"
        assert row["grad_h_x"] == row["grad_h_y"] == ""


class TestAccuracy:
    def test_disk_twenty_probes(self, disk, disk_integral, rng):
        ana = DiskKernels(disk)
        for _ in range(20):
            r = math.sqrt(rng.uniform(0.0, 0.81))
            ang = rng.uniform(0, TWO_PI)
            p = (r * math.cos(ang), r * math.sin(ang))
            assert abs(disk_integral.h(p) - ana.h(p)) < 1e-3

    def test_square_backend_agreement(self, square_grid, square_integral, rng):
        worst = 0.0
        for _ in range(20):
            p = rng.uniform(0.12, 0.88, 2)
            worst = max(worst, abs(square_grid.h(p) - square_integral.h(p)))
        assert worst < 2e-3

    def test_numeric_green_symmetry(self, disk_integral, rng):
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.uniform(-0.6, 0.6, 2)
            if np.linalg.norm(x - y) < 0.05:
                continue
            assert abs(disk_integral.G(x, y) - disk_integral.G(y, x)) < 1e-6

    def test_cardioid_against_conformal_oracle(self, cardioid_integral):
        pts = [(0.45, 0.50), (0.26, 0.50), (0.45, 0.69), (0.36, 0.21),
               (0.30, 0.62)]
        for p in pts:
            assert abs(cardioid_integral.h(p)
                       - cardioid_conformal_h(p)) < 1.5e-3


class TestConvergence:
    def test_grid_first_order_on_disk(self, disk):
        ana = DiskKernels(disk)
        pts = [(0.5, 0.0), (0.3, 0.4), (-0.2, 0.1), (0.0, 0.0), (0.4, -0.3)]

        def err(h):
            g = GridKernels(disk, NumericKernelConfig(grid_spacing=h))
            return max(abs(g.h(p) - ana.h(p)) for p in pts)

        e1, e2 = err(2 / 64), err(2 / 128)
        assert e1 / e2 >= 2.0

    def test_integral_fast_on_smooth_curve(self, disk):
        # the smooth-curve Nystrom solve should gain at least 4x per doubling;
        # run it coarse enough to stay above the rounding floor
        from dislodyn.geometry import SmoothCurveDomain
        ellipse = SmoothCurveDomain(
            lambda t: np.stack([1.0 * np.cos(t), 0.6 * np.sin(t)], axis=-1),
            lambda t: np.stack([-1.0 * np.sin(t), 0.6 * np.cos(t)], axis=-1),
            lambda t: np.stack([-1.0 * np.cos(t), -0.6 * np.sin(t)], axis=-1))
        pts = [(0.2, 0.1), (-0.4, 0.2), (0.0, 0.0)]

        def err(n):
            coarse = NystromKernels(ellipse, NumericKernelConfig(boundary_nodes=n))
            fine = NystromKernels(ellipse, NumericKernelConfig(boundary_nodes=1024))
            return max(abs(coarse.h(p) - fine.h(p)) for p in pts)

        e1, e2 = err(64), err(128)
        assert e1 / max(e2, 1e-15) >= 4.0

    def test_maximum_principle(self, disk_integral, disk):
        # interior values of k(., y) stay within the boundary-data range
        y = np.array([0.35, -0.2])
        g = np.log(np.hypot(disk_integral.nodes[:, 0] - y[0],
                            disk_integral.nodes[:, 1] - y[1])) / TWO_PI
        lo, hi = g.min() - 1e-8, g.max() + 1e-8
        rngl = np.random.default_rng(3)
        for _ in range(50):
            p = rngl.uniform(-0.7, 0.7, 2)
            if not disk.contains(p, margin=0.1):
                continue
            v = disk_integral.k(p, y)
            assert lo <= v <= hi

    def test_maximum_principle_grid(self, square):
        # the 5-point scheme is an M-matrix: discrete extrema sit on the
        # transplanted boundary data
        ev = GridKernels(square, NumericKernelConfig(grid_spacing=1 / 32))
        y = np.array([0.3, 0.6])
        nodes = np.stack(np.meshgrid(ev.xs, ev.ys, indexing="ij"), axis=-1)
        interior_vals = np.array([ev.k(p, y) for p in nodes[ev.inside]])
        proj = ev.proj[~ev.inside]
        boundary_vals = np.log(np.hypot(*(proj - y).T)) / TWO_PI
        assert interior_vals.max() <= boundary_vals.max() + 1e-10
        assert interior_vals.min() >= boundary_vals.min() - 1e-10


class TestLiouville:
    def test_cardioid_residual(self, cardioid, cardioid_integral):
        # -lap h = (2/pi) exp(-4 pi h) within 5e-2 at deep interior probes
        step = 1e-3
        deep = [p for p in [(0.40, 0.45), (0.42, 0.55), (0.38, 0.5)]
                if cardioid.probe(p).distance > 0.2 * cardioid.diameter]
        assert deep, "need at least one probe deeper than 0.2 diam"
        h = cardioid_integral.h
        for p in deep:
            p = np.asarray(p)
            lap = (h(p + [step, 0]) + h(p - [step, 0]) + h(p + [0, step])
                   + h(p - [0, step]) - 4 * h(p)) / step**2
            resid = -lap - (2 / math.pi) * math.exp(-4 * math.pi * h(p))
            assert abs(resid) < 5e-2


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NumericKernelConfig(boundary_nodes=63)
        with pytest.raises(ValueError):
            NumericKernelConfig(boundary_nodes=65)
        with pytest.raises(ValueError):
            NumericKernelConfig(grid_spacing=-0.1)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0])
    def test_grid_spacing_finite_and_positive(self, spacing):
        # NaN would fail in int(); +inf would build the 8-cell minimum grid
        with pytest.raises(ValueError, match="grid_spacing"):
            NumericKernelConfig(grid_spacing=spacing)


class TestNumericGreenGradients:
    def test_disk_grad_x_G_matches_analytic(self, disk, disk_integral, rng):
        ana = DiskKernels(disk)
        checked = 0
        while checked < 20:
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.uniform(-0.6, 0.6, 2)
            if np.linalg.norm(x - y) < 0.1:
                continue
            got = disk_integral.grad_x_G(x, y)
            assert np.max(np.abs(got - ana.grad_x_G(x, y))) < 1e-6
            checked += 1


def central_grad_k(ev, x, y, step):
    """Central difference of numeric k in x, the source y frozen."""
    e = np.eye(2) * step
    return np.array([(ev.k(x + e[c], y) - ev.k(x - e[c], y)) / (2 * step)
                     for c in range(2)])


class TestExactGradients:
    @pytest.mark.parametrize("name", ["disk_integral", "cardioid_integral"])
    def test_nystrom_matches_central_difference(self, name, request, rng):
        ev = request.getfixturevalue(name)
        dom = ev.domain
        step = 1e-5 * dom.diameter
        lo, hi = np.min(ev.nodes, axis=0), np.max(ev.nodes, axis=0)
        checked = 0
        while checked < 20:
            x, y = rng.uniform(lo, hi, (2, 2))
            if not (dom.contains(x, margin=0.05) and dom.contains(y, margin=0.05)):
                continue
            want = central_grad_k(ev, x, y, step)
            got = ev.grad_x_k(x, y)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
            checked += 1

    def test_grid_matches_central_difference_inside_cells(self, square_grid, rng):
        ev = square_grid
        step = 1e-3 * ev.hx
        for _ in range(20):
            # a point at least a fifth of a cell from every cell edge
            i, j = rng.integers(10, len(ev.xs) - 10, 2)
            tx, ty = rng.uniform(0.2, 0.8, 2)
            x = np.array([ev.xs[i] + tx * ev.hx, ev.ys[j] + ty * ev.hy])
            y = rng.uniform(0.1, 0.9, 2)
            want = central_grad_k(ev, x, y, step)
            got = ev.grad_x_k(x, y)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
