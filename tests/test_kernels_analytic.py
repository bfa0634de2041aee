import math

import numpy as np
import pytest

from dislodyn.errors import CoincidentPoints, PointInsideDisk, PointOutside
from dislodyn.geometry import Disk, ExteriorDisk, HalfPlane, Plane
from dislodyn.kernels_analytic import (DiskKernels, ExteriorDiskKernels,
                                       HalfPlaneKernels, PlaneKernels,
                                       analytic_kernels)

TWO_PI = 2.0 * math.pi
UNIT_DISK = DiskKernels(Disk())
EXTERIOR = ExteriorDiskKernels(ExteriorDisk())
UPPER = HalfPlaneKernels(HalfPlane.upper())
PLANE = PlaneKernels()


def fd_grad(f, x, step=1e-6):
    x = np.asarray(x, float)
    return np.array([
        (f(x + [step, 0]) - f(x - [step, 0])) / (2 * step),
        (f(x + [0, step]) - f(x - [0, step])) / (2 * step),
    ])


def reference_disk(rho, center=(0.0, 0.0), side=1.0):
    """k, grad_x k, h and grad h of a disk (side 1) or its exterior (side
    -1) in real-vector form, k = log(Q / rho^2) / (4 pi), written apart
    from the library's complex bodies as an independent check."""
    c = np.asarray(center, float)

    def Q(u, v):
        r2 = rho * rho
        return r2 * r2 - 2.0 * r2 * (u @ v) + (u @ u) * (v @ v)

    def k(x, y):
        u, v = x - c, y - c
        return math.log(Q(u, v) / rho**2) / (2.0 * TWO_PI)

    def grad_x_k(x, y):
        u, v = x - c, y - c
        return (u * (v @ v) - rho**2 * v) / (TWO_PI * Q(u, v))

    def h(x):
        u = x - c
        return math.log(side * (rho**2 - u @ u) / rho) / TWO_PI

    def grad_h(x):
        u = x - c
        return -u / (math.pi * (rho**2 - u @ u))

    return k, grad_x_k, h, grad_h


def reference_half_plane(normal, offset):
    """The same four functions of the half plane {x . nu < offset} through
    the mirror point, in real-vector form."""
    nu = np.asarray(normal, float)

    def depth(x):
        return offset - x @ nu

    def k(x, y):
        w = x + 2.0 * depth(x) * nu - y
        return math.log(math.hypot(w[0], w[1])) / TWO_PI

    def grad_x_k(x, y):
        w = x + 2.0 * depth(x) * nu - y
        # chain rule through the reflection x -> x - 2 ((x . nu) - offset) nu
        return (w - 2.0 * (w @ nu) * nu) / (TWO_PI * (w @ w))

    def h(x):
        return math.log(2.0 * depth(x)) / TWO_PI

    def grad_h(x):
        return -nu / (TWO_PI * depth(x))

    return k, grad_x_k, h, grad_h


REFERENCE_CASES = {
    "unit_disk": (Disk(), reference_disk(1.0), (-1.0, 1.0)),
    "offcenter_disk": (Disk(center=(0.4, -0.7), radius=1.6),
                       reference_disk(1.6, (0.4, -0.7)), (-1.4, 2.2)),
    "exterior_disk": (ExteriorDisk(), reference_disk(1.0, side=-1.0), (-3.0, 3.0)),
    "offcenter_exterior_disk": (
        ExteriorDisk(center=(-0.5, 0.3), radius=0.7),
        reference_disk(0.7, (-0.5, 0.3), side=-1.0), (-3.0, 3.0)),
    "upper_half_plane": (HalfPlane.upper(), reference_half_plane((0.0, -1.0), 0.0),
                         (-2.0, 2.0)),
    "rotated_half_plane": (HalfPlane(normal=(0.6, 0.8), offset=0.2),
                           reference_half_plane((0.6, 0.8), 0.2), (-2.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_scalar_methods_match_reference(case, rng):
    domain, (k, grad_x_k, h, grad_h), (lo, hi) = REFERENCE_CASES[case]
    ev = analytic_kernels(domain)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    checked = 0
    while checked < 200:
        x, y = rng.uniform(lo, hi, (2, 2))
        if min(domain.signed_distance(x), domain.signed_distance(y)) < 0.05:
            continue
        assert close(ev.k(x, y), k(x, y))
        assert close(ev.grad_x_k(x, y), grad_x_k(x, y))
        assert close(ev.h(x), h(x))
        assert close(ev.grad_h(x), grad_h(x))
        checked += 1


class TestGreenDisk:
    def test_center_source(self):
        # with y at the origin the regular part cancels
        assert UNIT_DISK.G((0.5, 0.0), (0.0, 0.0)) == pytest.approx(
            -math.log(0.5) / TWO_PI, abs=1e-14)

    def test_symmetry(self):
        a = UNIT_DISK.G((0.3, 0.2), (-0.4, 0.1))
        b = UNIT_DISK.G((-0.4, 0.1), (0.3, 0.2))
        assert abs(a - b) < 1e-13

    def test_dirichlet_decay(self):
        y = (0.2, 0.1)
        for d1 in (1e-3, 1e-5, 1e-7):
            x = (1.0 - d1, 0.0)
            assert abs(UNIT_DISK.G(x, y)) < max(1e-6, 10 * d1)

    def test_symmetry_sweep(self, rng):
        ev = DiskKernels(Disk())
        for _ in range(1000):
            x, y = rng.uniform(-0.7, 0.7, (2, 2))
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert abs(ev.G(x, y) - ev.G(y, x)) < 1e-12

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPoints):
            UNIT_DISK.G((0.1, 0.1), (0.1, 0.1))

    def test_outside_raises(self):
        with pytest.raises(PointOutside):
            UNIT_DISK.G((1.5, 0.0), (0.1, 0.1))

    def test_errors_name_the_point(self):
        with pytest.raises(PointOutside, match=r"\(1\.5, -0\.25\)"):
            UNIT_DISK.grad_h(np.array([1.5, -0.25]))
        with pytest.raises(PointInsideDisk, match=r"\(0\.5, 0\.0\)"):
            EXTERIOR.h(np.array([0.5, 0.0]))
        with pytest.raises(PointOutside, match=r"\(0\.0, -1\.0\)"):
            UPPER.h((0.0, -1.0))


class TestExteriorDisk:
    def test_h_value(self):
        # |x| = 1.1: h = log(0.21) / (2 pi)
        h = EXTERIOR.h((1.1, 0.0))
        assert h == pytest.approx(math.log(0.21) / TWO_PI, abs=1e-12)

    def test_h_two_forms_agree(self, rng):
        ev = ExteriorDiskKernels(ExteriorDisk())
        for _ in range(100):
            r = rng.uniform(1.05, 4.0)
            ang = rng.uniform(0, TWO_PI)
            x = r * np.array([math.cos(ang), math.sin(ang)])
            d1 = r - 1.0
            alt = math.log(2 * d1 + d1 * d1) / TWO_PI
            assert ev.h(x) == pytest.approx(alt, abs=1e-12)

    def test_h_matches_halfplane_limit(self):
        # large rho at fixed depth approaches the flat-boundary value
        d = 0.3
        for rho in (10.0, 100.0, 1000.0):
            ev = ExteriorDiskKernels(ExteriorDisk(radius=rho))
            flat = math.log(2 * d) / TWO_PI
            assert abs(ev.h((rho + d, 0.0)) - flat) < 2.0 / rho

    def test_positivity(self, rng):
        ev = ExteriorDiskKernels(ExteriorDisk())
        for _ in range(300):
            x = rng.uniform(-4, 4, 2)
            y = rng.uniform(-4, 4, 2)
            if np.hypot(*x) < 1.1 or np.hypot(*y) < 1.1:
                continue
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert ev.G(x, y) >= -1e-13

    def test_inside_raises(self):
        with pytest.raises(PointInsideDisk):
            EXTERIOR.G((0.5, 0.0), (2.0, 0.0))


class TestHalfPlane:
    def test_h_at_half(self):
        h = UPPER.h((0.0, 0.5))
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_single_dislocation_force(self):
        # -grad h / 2 at height 0.1
        gh = UPPER.grad_h((0.0, 0.1))
        force = -0.5 * gh
        assert force == pytest.approx([0.0, -1.0 / (4 * math.pi * 0.1)],
                                      abs=1e-12)

    def test_green_value(self):
        G = UPPER.G((0.0, 1.0), (0.0, 2.0))
        assert G == pytest.approx(math.log(3.0) / TWO_PI, abs=1e-14)

    def test_symmetry_sweep(self, rng):
        ev = HalfPlaneKernels(HalfPlane.upper())
        for _ in range(1000):
            x = rng.uniform([-2, 0.05], [2, 3], 2)
            y = rng.uniform([-2, 0.05], [2, 3], 2)
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert abs(ev.G(x, y) - ev.G(y, x)) < 1e-12

    def test_grad_k_vs_fd(self):
        ev = HalfPlaneKernels(HalfPlane.upper())
        y = np.array([0.4, 0.8])
        x = np.array([-0.2, 0.5])
        num = fd_grad(lambda p: ev.k(p, y), x)
        assert ev.grad_x_k(x, y) == pytest.approx(num, rel=1e-6)


class TestPlane:
    def test_pair_energy_values(self):
        x, y = (1.0, 0.0), (0.0, 0.0)
        G, k, h = PLANE.G(x, y), PLANE.k(x, y), PLANE.h(x)
        assert k == 0.0 and h == 0.0
        assert G == pytest.approx(0.0, abs=1e-15)  # log 1
        G2 = PLANE.G((0.5, 0.0), (0.0, 0.0))
        # opposite moduli: E_2 = -b1 b2 log r / (2 pi) = log(0.5)/(2 pi)
        assert -(-1) * G2 == pytest.approx(math.log(2) / TWO_PI, abs=1e-14)

    def test_h_zero_everywhere(self, rng):
        ev = PlaneKernels()
        for _ in range(10):
            assert ev.h(rng.uniform(-5, 5, 2)) == 0.0


class TestHDisk:
    def test_center(self):
        assert UNIT_DISK.h((0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
        assert UNIT_DISK.grad_h((0.0, 0.0)) == pytest.approx([0.0, 0.0])

    def test_value_at_half_radius(self):
        # h = log(1 - 0.25) / (2 pi); equals the boundary-distance identity
        assert UNIT_DISK.h((0.5, 0.0)) == pytest.approx(
            math.log(0.75) / TWO_PI, abs=1e-14)

    def test_identity_with_boundary_distance(self, rng):
        # h(x) = log|2 d - d^2 / rho| / (2 pi) exactly
        for rho in (1.0, 2.5):
            ev = DiskKernels(Disk(radius=rho))
            for _ in range(200):
                x = rng.uniform(-rho, rho, 2) * 0.98
                if np.hypot(*x) >= rho:
                    continue
                d = rho - np.hypot(*x)
                expected = math.log(abs(2 * d - d * d / rho)) / TWO_PI
                assert ev.h(x) == pytest.approx(expected, abs=1e-12)

    def test_grad_vs_fd(self):
        x = np.array([0.3, 0.4])
        num = fd_grad(lambda p: UNIT_DISK.h(p), x)
        assert UNIT_DISK.grad_h(x) == pytest.approx(num, rel=1e-6)

    def test_velocity_is_motion_law(self):
        # -grad h / 2 = z / (2 pi (1 - |z|^2))
        z = np.array([0.5, 0.0])
        v = -0.5 * UNIT_DISK.grad_h(z)
        assert v == pytest.approx(z / (TWO_PI * (1 - 0.25)), abs=1e-14)


class TestEllipticStructure:
    def test_harmonicity_of_k(self, disk_kernels, rng):
        # 5-point Laplacian of k(., y) at interior points
        step = 1e-3
        y = np.array([0.25, -0.15])
        for _ in range(20):
            x = rng.uniform(-0.6, 0.6, 2)
            if np.linalg.norm(x - y) < 0.05:
                continue
            k = disk_kernels.k
            lap = (k(x + [step, 0], y) + k(x - [step, 0], y)
                   + k(x + [0, step], y) + k(x - [0, step], y)
                   - 4 * k(x, y)) / step**2
            assert abs(lap) < 1e-4

    def test_liouville_pde_disk(self, disk_kernels, rng):
        # -lap h = (2/pi) exp(-4 pi h), finite differences
        step = 1e-3
        for _ in range(20):
            x = rng.uniform(-0.75, 0.75, 2)
            if 1.0 - np.hypot(*x) < 0.2:
                continue
            h = disk_kernels.h
            lap = (h(x + [step, 0]) + h(x - [step, 0]) + h(x + [0, step])
                   + h(x - [0, step]) - 4 * h(x)) / step**2
            resid = -lap - (2 / math.pi) * math.exp(-4 * math.pi * h(x))
            assert abs(resid) < 1e-3

    @pytest.mark.parametrize("domain,box", [
        (Disk(), (-0.7, 0.7)),
        (ExteriorDisk(), (1.2, 3.0)),
    ])
    def test_grad_G_vs_fd(self, domain, box, rng):
        ev = analytic_kernels(domain)
        lo, hi = box
        done = 0
        while done < 25:
            x = rng.uniform(lo, hi, 2) * rng.choice([-1, 1], 2)
            y = rng.uniform(lo, hi, 2) * rng.choice([-1, 1], 2)
            if not (domain.contains(x) and domain.contains(y)):
                continue
            if np.linalg.norm(x - y) < 0.1:
                continue
            num = fd_grad(lambda p: ev.G(p, y), x)
            assert ev.grad_x_G(x, y) == pytest.approx(num, rel=1e-5)
            done += 1

    def test_factory_rejects_polygon(self, square):
        with pytest.raises(ValueError):
            analytic_kernels(square)


class TestGeneralPlacements:
    def test_offcenter_disk_consistency(self, rng):
        dom = Disk(center=(0.4, -0.7), radius=1.6)
        ev = DiskKernels(dom)
        c = np.array([0.4, -0.7])
        ref = DiskKernels(Disk(radius=1.6))
        for _ in range(30):
            x = c + rng.uniform(-1.0, 1.0, 2)
            y = c + rng.uniform(-1.0, 1.0, 2)
            if not (dom.contains(x) and dom.contains(y)):
                continue
            if np.linalg.norm(x - y) < 0.05:
                continue
            assert ev.G(x, y) == pytest.approx(ref.G(x - c, y - c), abs=1e-13)
            assert ev.h(x) == pytest.approx(ref.h(x - c), abs=1e-13)
            assert ev.grad_h(x) == pytest.approx(ref.grad_h(x - c), abs=1e-13)

    def test_rotated_halfplane(self, rng):
        # domain { x . nu < offset } with a slanted normal
        nu = np.array([3.0, 4.0]) / 5.0
        dom = HalfPlane(normal=tuple(nu), offset=0.2)
        ev = HalfPlaneKernels(dom)
        for _ in range(20):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            if not (dom.contains(x) and dom.contains(y)):
                continue
            if np.linalg.norm(x - y) < 0.05:
                continue
            depth = 0.2 - float(x @ nu)
            assert ev.h(x) == pytest.approx(math.log(2 * depth) / TWO_PI,
                                            abs=1e-13)
            num = fd_grad(lambda p: ev.k(p, y), x)
            assert ev.grad_x_k(x, y) == pytest.approx(num, rel=1e-5)
            assert abs(ev.G(x, y) - ev.G(y, x)) < 1e-12

    def test_disk_pair_energy_closed_form_sweep(self, disk_kernels, rng):
        # explicit opposite-pair energy of the unit disk:
        # log|z1-z2|/(2 pi) + log(1-|z1|^2)/(4 pi) + log(1-|z2|^2)/(4 pi)
        #   - log(1 - 2 z1.z2 + |z1|^2 |z2|^2)/(4 pi)
        from dislodyn.geometry import Configuration
        from dislodyn.mechanics import energy
        for _ in range(50):
            z1 = rng.uniform(-0.65, 0.65, 2)
            z2 = rng.uniform(-0.65, 0.65, 2)
            if np.linalg.norm(z1 - z2) < 0.1:
                continue
            expected = (math.log(np.linalg.norm(z1 - z2)) / TWO_PI
                        + math.log(1 - z1 @ z1) / (2 * TWO_PI)
                        + math.log(1 - z2 @ z2) / (2 * TWO_PI)
                        - math.log(1 - 2 * z1 @ z2
                                   + (z1 @ z1) * (z2 @ z2)) / (2 * TWO_PI))
            got = energy(Configuration.from_arrays([z1, z2], [1, -1]),
                         disk_kernels)
            assert got == pytest.approx(expected, abs=1e-13)
