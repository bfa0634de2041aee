"""The kernel interface and its closed forms for the disk, its exterior, the
half plane and the whole plane.

Every domain's Green's function splits as

    G(x, y) = -log|x - y| / (2*pi) + k(x, y),    h(x) = k(x, x),

so a backend supplies only the regular part k, its x-gradient, the
self-interaction potential h and its gradient; ``KernelEvaluator`` builds G
and grad_x G from them once for every backend.  Gradients are
hand-differentiated closed forms; the finite-difference consistency checks
live in the test suite.

The dynamics needs grad h at every dislocation and grad_x G between every
pair on each right-hand side, so ``KernelEvaluator`` also evaluates them for
all n points at once (``grad_h_and_G``, and ``h_and_G`` for the energy).
The closed-form backends supply their regular part over all pairs in
complex notation, z = x + iy with a gradient (gx, gy) written gx + i gy,
where the bare gradient -(x - y)/(2 pi |x - y|^2) is -1/(2 pi conj(x - y)).
The numeric backends supply the same two methods with one density solve
per source, evaluated at all n targets.

For a disk of radius rho centred at the origin the symmetric form

    k(x, y) = log(Q / rho^2) / (4*pi),   Q = rho^4 - 2 rho^2 x.y + |x|^2 |y|^2

is used; it is smooth through x = 0 (no explicit reflection point), and Q
equals |rho^2 - conj(x) y|^2 in complex notation.  One body serves the
interior and the exterior, which differ only in the side test and the sign
of rho^2 - |x|^2 in h.  On the whole plane k and h vanish by convention,
so the pair energy reduces to the bare logarithm.
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

    Backends implement ``k``, ``grad_x_k``, ``h`` and ``grad_h``; G and its
    gradients follow from them.  ``resolution`` is the backend's mesh width
    and ``min_eval_distance`` the boundary margin below which evaluations
    are only best-effort (both zero for analytic backends).

    For the batched methods a backend also implements its regular part over
    all pairs of n points given in complex form: ``_k_pairs(z)[i, j] =
    k(z_i, z_j)`` and ``_grad_k_pairs(z)[i, j] = grad_x k(z_i, z_j)``.  The
    closed forms check once that every point is on the domain's side; the
    numeric backends do no side check, as on their scalar path.
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
        raise NotImplementedError

    def grad_x_k(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def h(self, x) -> float:
        raise NotImplementedError

    def grad_h(self, x) -> np.ndarray:
        raise NotImplementedError

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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

    def _refuse(self, p):
        side = "inside" if self._side > 0 else "outside"
        raise self._off_side(f"{_point(p)} is not {side} the disk")

    def _local(self, x) -> np.ndarray:
        p = _vec(x)
        u = p - self.center
        if self._side * (self.rho - math.hypot(u[0], u[1])) <= 0.0:
            self._refuse(p)
        return u

    def _local_pairs(self, z: np.ndarray) -> np.ndarray:
        u = z - self._c
        margin = self._side * (self.rho - np.abs(u))
        if not margin.min() > 0.0:
            self._refuse(z[np.argmin(margin)])
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

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        u = self._local_pairs(z)
        # sqrt(Q) = |rho^2 - conj(u) v|, so k = log(sqrt(Q) / rho) / (2 pi)
        return np.log(np.abs(self.rho**2 - u.conj()[:, None] * u) / self.rho) \
            / _TWO_PI

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        # (u|v|^2 - rho^2 v) / (2 pi Q) = -v / (2 pi (rho^2 - conj(u) v))
        u = self._local_pairs(z)
        return u / (_TWO_PI * (u.conj()[:, None] * u - self.rho**2))


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

    def _mirror_pairs(self, z: np.ndarray) -> np.ndarray:
        """mirror(z_i) - z_j for every pair."""
        depth = self.offset - (z * self._nu.conjugate()).real
        if not depth.min() > 0.0:
            i = np.argmin(depth)
            raise PointOutside(f"{_point(z[i])} is not inside the half plane")
        return (z + 2.0 * depth * self._nu)[:, None] - z

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        return np.log(np.abs(self._mirror_pairs(z))) / _TWO_PI

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        # the reflection w - 2 (w.nu) nu of w is -nu^2 conj(w), so the scalar
        # form's reflection / (2 pi |w|^2) is -nu^2 / (2 pi w)
        return -self._nu**2 / (_TWO_PI * self._mirror_pairs(z))


class PlaneKernels(KernelEvaluator):
    """Whole plane: k and h vanish; only the bare logarithm interacts."""

    def __init__(self, domain: Plane | None = None):
        self.domain = domain if domain is not None else Plane()

    # the points are still parsed, so that a non-finite one is refused
    def k(self, x, y) -> float:
        _vec(x), _vec(y)
        return 0.0

    def grad_x_k(self, x, y) -> np.ndarray:
        _vec(x), _vec(y)
        return np.zeros(2)

    def h(self, x) -> float:
        _vec(x)
        return 0.0

    def grad_h(self, x) -> np.ndarray:
        _vec(x)
        return np.zeros(2)

    def _k_pairs(self, z: np.ndarray) -> np.ndarray:
        return np.zeros((len(z), len(z)))

    def _grad_k_pairs(self, z: np.ndarray) -> np.ndarray:
        return np.zeros((len(z), len(z)), dtype=complex)


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
