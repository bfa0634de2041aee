import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from dislodyn.errors import PointOutside, TargetTooCloseToBoundary
from dislodyn.geometry import _CARDIOID_A, AxisAlignedPolygon, Disk
from dislodyn.kernels_analytic import DiskKernels
from dislodyn.kernels_numeric import (GridKernels, NumericKernelConfig,
                                      NystromKernels, _shared_evaluator,
                                      grad_h_numeric, h_numeric, solve_k)

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


class TestSolveK:
    def test_disk_against_analytic(self, disk):
        # k((0.5,0), (0.2,0)) = log(0.9) / (2 pi) on the unit disk
        vals = solve_k(disk, (0.2, 0.0), [(0.5, 0.0)],
                       NumericKernelConfig(boundary_nodes=128))
        assert vals[0] == pytest.approx(math.log(0.9) / TWO_PI, abs=1e-3)

    def test_center_source_vanishes(self, disk):
        vals = solve_k(disk, (0.0, 0.0), [(0.5, 0.0), (0.1, 0.3)],
                       NumericKernelConfig(boundary_nodes=128))
        assert np.max(np.abs(vals)) < 1e-10

    def test_square_diagonal_h_cross_backend(self, square):
        y = (0.5, 0.5)
        a = solve_k(square, y, [y], NumericKernelConfig(backend="grid"))
        b = solve_k(square, y, [y],
                    NumericKernelConfig(backend="integral", boundary_nodes=512))
        assert abs(a[0] - b[0]) < 2e-3

    def test_margin_enforced(self, disk):
        cfg = NumericKernelConfig(boundary_nodes=128)
        with pytest.raises(TargetTooCloseToBoundary):
            solve_k(disk, (0.0, 0.0), [(0.999, 0.0)], cfg)

    def test_outside_rejected(self, disk):
        with pytest.raises(PointOutside):
            solve_k(disk, (1.5, 0.0), [(0.2, 0.0)])

    def test_refusal_builds_no_evaluator(self):
        domain = Disk(radius=1.01)
        misses = _shared_evaluator.cache_info().misses
        calls = (lambda: solve_k(domain, (1.5, 0.0), [(0.2, 0.0)]),
                 lambda: solve_k(domain, (0.2, 0.0), [(0.1, 0.0), (0.0, 1.2)]),
                 lambda: h_numeric(domain, (1.5, 0.0)),
                 lambda: grad_h_numeric(domain, (0.0, -1.5)))
        for call in calls:
            with pytest.raises(PointOutside):
                call()
        assert _shared_evaluator.cache_info().misses == misses

    def test_shared_evaluators_bounded(self):
        # fresh domains must not pin an evaluator each
        cfg = NumericKernelConfig(backend="integral", boundary_nodes=64)
        refs = []
        for _ in range(20):
            sq = AxisAlignedPolygon.square()
            solve_k(sq, (0.5, 0.5), [(0.4, 0.5)], cfg)
            refs.append(weakref.ref(_shared_evaluator(sq, cfg)))
        del sq
        gc.collect()
        alive = sum(r() is not None for r in refs)
        assert alive <= _shared_evaluator.cache_info().maxsize


class TestHNumeric:
    def test_disk_matches_analytic(self, disk):
        cfg = NumericKernelConfig(boundary_nodes=128)
        assert h_numeric(disk, (0.5, 0.0), cfg) == pytest.approx(
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

    def test_grad_h_numeric_margin(self, disk):
        cfg = NumericKernelConfig(boundary_nodes=128)
        with pytest.raises(TargetTooCloseToBoundary):
            grad_h_numeric(disk, (0.999, 0.0), cfg)


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
        mu = disk_integral._density(y)
        del mu
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

    def test_maximum_principle_grid(self, square_grid):
        # the 5-point scheme is an M-matrix: discrete extrema sit on the
        # transplanted boundary data
        y = np.array([0.3, 0.6])
        grid = square_grid._density(y)
        boundary_vals = grid[~square_grid.inside]
        interior_vals = grid[square_grid.inside]
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
            NumericKernelConfig(backend="fem")
        with pytest.raises(ValueError):
            NumericKernelConfig(grid_spacing=-0.1)

    def test_density_cache_hit(self, disk_integral):
        y = np.array([0.11, 0.22])
        a = disk_integral._density(y)
        b = disk_integral._density(y + 1e-15)  # rounds to the same key
        assert a is b


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
