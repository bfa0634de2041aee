"""The kernel interface and its closed forms for the disk, its exterior, the
half plane and the whole plane.

Every domain's Green's function splits as

    G(x, y) = -log|x - y| / (2*pi) + k(x, y),    h(x) = k(x, x),

so a backend supplies only the regular part k, its x-gradient, the
self-interaction potential h and its gradient; ``KernelEvaluator`` builds G
and grad_x G from them once for every backend.  Gradients are
hand-differentiated closed forms; the finite-difference consistency checks
live in the test suite.

For a disk of radius rho centred at the origin the symmetric form

    k(x, y) = log(Q / rho^2) / (4*pi),   Q = rho^4 - 2 rho^2 x.y + |x|^2 |y|^2

is used; it is smooth through x = 0 (no explicit reflection point), and
one body serves the interior and the exterior, which differ only in the
side test and the sign of rho^2 - |x|^2 in h.  On the whole plane k and h
vanish by convention, so the pair energy reduces to the bare logarithm.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPoints, PointInsideDisk, PointOutside
from .geometry import Disk, Domain, ExteriorDisk, HalfPlane, Plane

__all__ = [
    "KernelEvaluator",
    "DiskKernels",
    "ExteriorDiskKernels",
    "HalfPlaneKernels",
    "PlaneKernels",
    "analytic_kernels",
]

COINCIDENCE_TOL = 1e-14
_TWO_PI = 2.0 * math.pi


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(2)


def _point(p) -> str:
    # cheap to format: the dynamics raises and discards these on every
    # trial stage that leaves the domain
    return f"({float(p[0])!r}, {float(p[1])!r})"


class KernelEvaluator:
    """Uniform kernel interface consumed by mechanics and dynamics.

    Backends implement ``k``, ``grad_x_k``, ``h`` and ``grad_h``; G and its
    gradients follow from them.  ``min_eval_distance`` is the boundary
    margin below which evaluations are only best-effort (zero for analytic
    backends).
    """

    backend = "analytic"
    min_eval_distance = 0.0

    domain: Domain

    def G(self, x, y) -> float:
        p, v = _vec(x), _vec(y)
        self._check_distinct(p, v)
        return -math.log(math.hypot(p[0] - v[0], p[1] - v[1])) / _TWO_PI \
            + self.k(p, v)

    def grad_x_G(self, x, y) -> np.ndarray:
        p, v = _vec(x), _vec(y)
        self._check_distinct(p, v)
        w = p - v
        return -w / (_TWO_PI * float(w @ w)) + self.grad_x_k(p, v)

    def grad_y_G(self, x, y) -> np.ndarray:
        # G is symmetric, so the y-gradient is the x-gradient with arguments swapped
        return self.grad_x_G(y, x)

    def k(self, x, y) -> float:
        raise NotImplementedError

    def grad_x_k(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def h(self, x) -> float:
        raise NotImplementedError

    def grad_h(self, x) -> np.ndarray:
        raise NotImplementedError

    def _check_distinct(self, x, y):
        if math.hypot(x[0] - y[0], x[1] - y[1]) < COINCIDENCE_TOL:
            raise CoincidentPoints(f"points {_point(x)} and {_point(y)} coincide")


class DiskKernels(KernelEvaluator):
    """Interior of a disk of radius rho (method of images)."""

    # sign of rho^2 - |x - center|^2 on the domain's side, and the error
    # raised for a point on the other side
    _side = 1.0
    _off_side = PointOutside

    def __init__(self, domain: Disk | ExteriorDisk):
        self.domain = domain
        self.rho = float(domain.radius)
        self.center = np.asarray(domain.center, dtype=float)

    def _local(self, x) -> np.ndarray:
        p = _vec(x)
        u = p - self.center
        if self._side * (self.rho - math.hypot(u[0], u[1])) <= 0.0:
            side = "inside" if self._side > 0 else "outside"
            raise self._off_side(f"{_point(p)} is not {side} the disk")
        return u

    def _Q(self, u, v) -> float:
        r2 = self.rho * self.rho
        return r2 * r2 - 2.0 * r2 * float(u @ v) + float(u @ u) * float(v @ v)

    def k(self, x, y) -> float:
        u, v = self._local(x), self._local(y)
        return math.log(self._Q(u, v) / self.rho**2) / (2.0 * _TWO_PI)

    def grad_x_k(self, x, y) -> np.ndarray:
        u, v = self._local(x), self._local(y)
        return (u * float(v @ v) - self.rho**2 * v) / (_TWO_PI * self._Q(u, v))

    def h(self, x) -> float:
        u = self._local(x)
        return math.log(self._side * (self.rho**2 - float(u @ u)) / self.rho) / _TWO_PI

    def grad_h(self, x) -> np.ndarray:
        u = self._local(x)
        return -u / (math.pi * (self.rho**2 - float(u @ u)))


class ExteriorDiskKernels(DiskKernels):
    """Exterior of a disk of radius rho: the disk's k, seen from outside."""

    _side = -1.0
    _off_side = PointInsideDisk


class HalfPlaneKernels(KernelEvaluator):
    """Half plane via the image point across the flat boundary."""

    def __init__(self, domain: HalfPlane):
        self.domain = domain
        self.nu = np.asarray(domain.normal, dtype=float)
        self.offset = float(domain.offset)

    def _depth(self, x) -> float:
        p = _vec(x)
        d = self.offset - float(p @ self.nu)
        if d <= 0:
            raise PointOutside(f"{_point(p)} is not inside the half plane")
        return d

    def _mirror(self, x) -> np.ndarray:
        p = _vec(x)
        return p + 2.0 * (self.offset - float(p @ self.nu)) * self.nu

    def k(self, x, y) -> float:
        self._depth(x)
        self._depth(y)
        xb = self._mirror(x)
        v = _vec(y)
        return math.log(math.hypot(xb[0] - v[0], xb[1] - v[1])) / _TWO_PI

    def grad_x_k(self, x, y) -> np.ndarray:
        self._depth(x)
        self._depth(y)
        xb = self._mirror(x)
        w = xb - _vec(y)
        # chain rule through the reflection x -> x - 2((x.nu)-off)nu
        refl = w - 2.0 * float(w @ self.nu) * self.nu
        return refl / (_TWO_PI * float(w @ w))

    def h(self, x) -> float:
        return math.log(2.0 * self._depth(x)) / _TWO_PI

    def grad_h(self, x) -> np.ndarray:
        return -self.nu / (_TWO_PI * self._depth(x))


class PlaneKernels(KernelEvaluator):
    """Whole plane: k and h vanish; only the bare logarithm interacts."""

    def __init__(self, domain: Plane | None = None):
        self.domain = domain if domain is not None else Plane()

    def k(self, x, y) -> float:
        return 0.0

    def grad_x_k(self, x, y) -> np.ndarray:
        return np.zeros(2)

    def h(self, x) -> float:
        return 0.0

    def grad_h(self, x) -> np.ndarray:
        return np.zeros(2)


def analytic_kernels(domain: Domain) -> KernelEvaluator:
    """Closed-form evaluator for a domain that has one."""
    if isinstance(domain, Disk):
        return DiskKernels(domain)
    if isinstance(domain, ExteriorDisk):
        return ExteriorDiskKernels(domain)
    if isinstance(domain, HalfPlane):
        return HalfPlaneKernels(domain)
    if isinstance(domain, Plane):
        return PlaneKernels(domain)
    raise ValueError(f"no closed-form kernels for {type(domain).__name__}")
