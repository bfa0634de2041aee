"""The kernel interface and its closed forms for the disk, its exterior, the
half plane and the whole plane.

Every domain's Green's function splits as

    G(x, y) = -log|x - y| / (2*pi) + k(x, y),    h(x) = k(x, x),

so a backend supplies only the regular part k and its x-gradient, once, for
m targets against p sources given in complex notation z = x + iy, with a
gradient (gx, gy) written gx + i gy.  ``KernelEvaluator`` builds everything
else from these two forms: the scalar methods, h, grad h = 2 grad_x k(x, x)
(k is symmetric), G and grad_x G, and their batched versions over all n
points (``grad_h_and_G``, and ``h_and_G`` for the energy), which the dynamics
uses.  The bare gradient -(x - y)/(2 pi |x - y|^2) is -1/(2 pi conj(x - y)).
Gradients are hand-differentiated closed forms; the finite-difference
consistency checks and a real-vector reference live in the test suite.

For a disk of radius rho centred at the origin the symmetric form

    k(x, y) = log(Q / rho^2) / (4*pi),   Q = rho^4 - 2 rho^2 x.y + |x|^2 |y|^2

is used; it is smooth through x = 0 (no explicit reflection point), and Q
equals |rho^2 - conj(x) y|^2 in complex notation.  One body serves the
interior and the exterior, which differ only in the side test.  On the
whole plane k vanishes by convention, so the pair energy reduces to the
bare logarithm.
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
    """A point as a length-2 array; a non-finite point is refused before any
    arithmetic on it, as on the batched path."""
    p = np.asarray(x, dtype=float).reshape(2)
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise PointOutside(_not_finite(p))
    return p


def _not_finite(p) -> str:
    return f"{_point(p)} is not a finite point"


def _point(p) -> str:
    # cheap to format: the dynamics raises and discards these on every
    # trial stage that leaves the domain
    if isinstance(p, complex):
        p = (p.real, p.imag)
    return f"({float(p[0])!r}, {float(p[1])!r})"


def _as_real(g: np.ndarray) -> np.ndarray:
    """Complex gradients gx + i gy as real arrays with a trailing axis (gx, gy)."""
    return g.view(float).reshape(*g.shape, 2)


class KernelEvaluator:
    """Uniform kernel interface consumed by mechanics and dynamics.

    A backend implements its regular part for m targets x against p
    sources y, both complex arrays: ``_k_cross(x, y)[i, j] = k(x_i, y_j)``
    and ``_grad_k_cross(x, y)[i, j] = grad_x k(x_i, y_j)``, shape (m, p).
    The closed forms check once per point that it is on the domain's side
    (once in all when ``y is x``); the numeric backends do no side check
    there.  Everything else is built here from these two forms.
    ``resolution`` is the backend's mesh width and ``min_eval_distance`` the
    boundary margin below which evaluations are only best-effort (both zero
    for analytic backends).
    """

    backend = "analytic"
    resolution = 0.0
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
        return float(self._k_cross(self._one(x), self._one(y))[0, 0])

    def grad_x_k(self, x, y) -> np.ndarray:
        return _as_real(self._grad_k_cross(self._one(x), self._one(y)))[0, 0]

    def h(self, x) -> float:
        return self.k(x, x)

    def grad_h(self, x) -> np.ndarray:
        # k is symmetric, so grad h(x) = 2 grad_x k(x, y) at y = x
        return 2.0 * self.grad_x_k(x, x)

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        return self._k_cross(z, z)

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        return self._grad_k_cross(z, z)

    def _k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad_k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _one(self, x) -> np.ndarray:
        """A scalar method's point as a one-element complex array."""
        return self._finite(np.reshape(np.asarray(x, dtype=float), (1, 2)))

    def grad_h_and_G(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """grad h at each of n points, shape (n, 2), and grad_x G(z_i, z_j)
        for every pair, shape (n, n, 2) with a zero diagonal."""
        z = self._finite(positions)
        reg = self._grad_k_pairs(z)
        grad_G = reg - 1.0 / (_TWO_PI * self._separations(z).conj())
        grad_G.flat[::len(z) + 1] = 0.0
        # k is symmetric, so grad h(x) = 2 grad_x k(x, y) at y = x
        return _as_real(2.0 * reg.diagonal()), _as_real(grad_G)

    def h_and_G(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """h at each of n points, shape (n,), and G(z_i, z_j) for every
        pair, shape (n, n), symmetric with a zero diagonal."""
        z = self._finite(positions)
        reg = self._k_pairs(z)
        G = reg - np.log(np.abs(self._separations(z))) / _TWO_PI
        G.flat[::len(z) + 1] = 0.0
        return reg.diagonal().copy(), G

    def _check_distinct(self, x, y):
        if math.hypot(x[0] - y[0], x[1] - y[1]) < COINCIDENCE_TOL:
            raise CoincidentPoints(f"points {_point(x)} and {_point(y)} coincide")

    @staticmethod
    def _finite(positions) -> np.ndarray:
        """(n, 2) positions as n complex numbers x + iy; a non-finite point is
        refused before any arithmetic on it."""
        z = np.ascontiguousarray(positions, dtype=float).view(complex)[:, 0]
        finite = np.isfinite(z)
        if not finite.all():
            raise PointOutside(_not_finite(z[np.argmin(finite)]))
        return z

    @staticmethod
    def _separations(z: np.ndarray) -> np.ndarray:
        """z_i - z_j for every pair, with 1 on the diagonal; refuses
        coincident points."""
        n = len(z)
        w = z[:, None] - z
        w.flat[::n + 1] = 1.0
        if n > 1:
            dist = np.abs(w)
            if dist.min() < COINCIDENCE_TOL:
                i, j = np.unravel_index(np.argmin(dist), dist.shape)
                raise CoincidentPoints(
                    f"points {_point(z[i])} and {_point(z[j])} coincide")
        return w


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
        self._c = complex(self.center[0], self.center[1])

    def _local(self, z: np.ndarray) -> np.ndarray:
        """z relative to the centre; refuses a point on the other side."""
        u = z - self._c
        margin = self._side * (self.rho - np.abs(u))
        if not margin.min() > 0.0:
            side = "inside" if self._side > 0 else "outside"
            p = z[np.argmin(margin)]
            raise self._off_side(f"{_point(p)} is not {side} the disk")
        return u

    def _k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = self._local(x)
        v = u if y is x else self._local(y)
        # sqrt(Q) = |rho^2 - conj(u) v|, so k = log(sqrt(Q) / rho) / (2 pi)
        return np.log(np.abs(self.rho**2 - u.conj()[:, None] * v) / self.rho) \
            / _TWO_PI

    def _grad_k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # (u|v|^2 - rho^2 v) / (2 pi Q) = -v / (2 pi (rho^2 - conj(u) v))
        u = self._local(x)
        v = u if y is x else self._local(y)
        return v / (_TWO_PI * (u.conj()[:, None] * v - self.rho**2))


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
        self._nu = complex(self.nu[0], self.nu[1])

    def _mirror(self, z: np.ndarray) -> np.ndarray:
        """The image of each point across the boundary; refuses a point that
        is not inside."""
        depth = self.offset - (z * self._nu.conjugate()).real
        if not depth.min() > 0.0:
            i = np.argmin(depth)
            raise PointOutside(f"{_point(z[i])} is not inside the half plane")
        return z + 2.0 * depth * self._nu

    def _image_separations(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """mirror(x_i) - y_j for every target and source."""
        xb = self._mirror(x)
        if y is not x:
            self._mirror(y)  # the sources' side check
        return xb[:, None] - y

    def _k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.log(np.abs(self._image_separations(x, y))) / _TWO_PI

    def _grad_k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # chain rule through the reflection: the reflection w - 2 (w.nu) nu of
        # w is -nu^2 conj(w), so reflection / (2 pi |w|^2) = -nu^2 / (2 pi w)
        return -self._nu**2 / (_TWO_PI * self._image_separations(x, y))


class PlaneKernels(KernelEvaluator):
    """Whole plane: k and h vanish; only the bare logarithm interacts."""

    def __init__(self, domain: Plane | None = None):
        self.domain = domain if domain is not None else Plane()

    def _k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros((len(x), len(y)))

    def _grad_k_cross(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros((len(x), len(y)), dtype=complex)


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
    raise ValueError(f"analytic backend cannot handle {type(domain).__name__}")
