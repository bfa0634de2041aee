"""Reference computations made apart from the library.

Nothing here imports ``dislodyn``: the disk dynamics come from the method
of images and scipy's DOP853, the cardioid's self-interaction potential
from its conformal map onto the unit disk, and the square's regular part
from a Fourier sine series.  The checks compare the library's outputs
against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


# --- unit disk: method of images -------------------------------------------

def disk_energy(z, b, rho=1.0):
    """Renormalised energy of dislocations z (n, 2) with moduli b in B_rho(0).

    G(x, y) = (log(|y| |x - y*| / rho) - log|x - y|) / 2 pi with the image
    point y* = rho^2 y / |y|^2, and h(x) = log((rho^2 - |x|^2) / rho) / 2 pi.
    """
    z = np.asarray(z, float)
    b = np.asarray(b, float)
    zz = np.sum(z * z, axis=1)
    e = 0.5 * np.sum(np.log((rho * rho - zz) / rho)) / TWO_PI
    n = len(z)
    for i in range(n):
        for j in range(i + 1, n):
            star = rho * rho * z[j] / zz[j]
            g = (math.log(math.sqrt(zz[j]) * np.linalg.norm(z[i] - star) / rho)
                 - math.log(np.linalg.norm(z[i] - z[j]))) / TWO_PI
            e += b[i] * b[j] * g
    return float(e)


def disk_forces(z, b, rho=1.0):
    """Peach-Koehler forces (n, 2): f_i = -grad h(z_i)/2 - sum_j b_i b_j grad_x G."""
    z = np.asarray(z, float)
    b = np.asarray(b, float)
    zz = np.sum(z * z, axis=1)
    f = z / (TWO_PI * (rho * rho - zz))[:, None]          # -grad h / 2
    star = rho * rho * z / zz[:, None]                     # image of each z_j
    d = z[:, None, :] - z[None, :, :]                      # x - y
    e = z[:, None, :] - star[None, :, :]                   # x - y*
    d2 = np.sum(d * d, axis=2)
    e2 = np.sum(e * e, axis=2)
    np.fill_diagonal(d2, 1.0)
    grad_g = -(d / d2[:, :, None] - e / e2[:, :, None]) / TWO_PI
    bb = b[:, None] * b[None, :]
    np.fill_diagonal(bb, 0.0)
    return f - np.sum(bb[:, :, None] * grad_g, axis=1)


def disk_collision(z0, b, eps, t_max=10.0, rho=1.0, rtol=1e-10, atol=1e-12):
    """First collision of the disk gradient flow, integrated with DOP853.

    Returns (kind, indices, corrected_time) where kind is "boundary" (index
    of the dislocation) or "pair" ((i, j)), stopping at distance eps and
    adding back 2 pi eps^2 or pi eps^2 / 2; ("horizon", (), t_max) if none.
    """
    z0 = np.asarray(z0, float)
    b = np.asarray(b, float)
    n = len(z0)
    iu, ju = np.triu_indices(n, 1)

    def rhs(t, y):
        return disk_forces(y.reshape(n, 2), b, rho).ravel()

    def boundary(t, y):
        z = y.reshape(n, 2)
        return float(np.min(rho - np.hypot(z[:, 0], z[:, 1]))) - eps

    def pair(t, y):
        z = y.reshape(n, 2)
        return float(np.min(np.hypot(*(z[iu] - z[ju]).T))) - eps

    events = [boundary]
    if n > 1:
        events.append(pair)
    for ev in events:
        ev.terminal = True
        ev.direction = -1
    sol = solve_ivp(rhs, (0.0, t_max), z0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol, events=events)
    if sol.status != 1:
        return "horizon", (), t_max
    fired = [(te[0], k) for k, te in enumerate(sol.t_events) if len(te)]
    t_stop, k = min(fired)
    z = sol.y[:, -1].reshape(n, 2)
    if k == 0:
        i = int(np.argmin(rho - np.hypot(z[:, 0], z[:, 1])))
        return "boundary", (i,), float(t_stop) + TWO_PI * eps * eps
    m = int(np.argmin(np.hypot(*(z[iu] - z[ju]).T)))
    return "pair", (int(iu[m]), int(ju[m])), float(t_stop) + 0.5 * math.pi * eps * eps


# --- cardioid: conformal map of the unit disk -------------------------------

def cardioid_h(p, a):
    """h on the cardioid x = c - a (1 + w)^2, |w| < 1, c = (0.5 + 1.75a, 0.5).

    With w = sqrt(-(x - c) / a) - 1 (principal root) the map's derivative
    has modulus 2a |1 + w|, so h(x) = log(2a |1 + w| (1 - |w|^2)) / 2 pi.
    """
    c = complex(0.5 + 1.75 * a, 0.5)
    x = complex(p[0], p[1])
    w = np.sqrt(-(x - c) / a) - 1.0
    return math.log(2.0 * a * abs(1.0 + w) * (1.0 - abs(w) ** 2)) / TWO_PI


def cardioid_boundary(t, a):
    """Point, first and second derivative of the cardioid at parameter t:
    c + 2a (1 - cos t) (cos t, sin t), counterclockwise, cusp at t = 0."""
    c = np.array([0.5 + 1.75 * a, 0.5])
    t = np.asarray(t, float)
    r, dr, ddr = 2 * a * (1 - np.cos(t)), 2 * a * np.sin(t), 2 * a * np.cos(t)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    du = np.stack([-np.sin(t), np.cos(t)], axis=-1)
    p = c + r[..., None] * u
    d = dr[..., None] * u + r[..., None] * du
    dd = ddr[..., None] * u + 2 * dr[..., None] * du - r[..., None] * u
    return p, d, dd


def cardioid_nearest(p, a):
    """Nearest boundary point of the cardioid to p: (point, outward normal,
    osculating radius there), by a dense search refined with Newton steps."""
    p = np.asarray(p, float)
    t = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    q, _, _ = cardioid_boundary(t, a)
    s = float(t[np.argmin(np.sum((q - p) ** 2, axis=1))])
    for _ in range(20):
        q, d, dd = cardioid_boundary(s, a)
        g = float((q - p) @ d)                  # half the derivative of |q - p|^2
        gp = float(d @ d + (q - p) @ dd)
        if gp <= 0:
            break
        s -= g / gp
    q, d, dd = cardioid_boundary(s, a)
    speed = math.hypot(d[0], d[1])
    if speed == 0.0:                            # the cusp: no normal
        return q, np.full(2, np.nan), 0.0
    normal = np.array([d[1], -d[0]]) / speed
    curvature = abs(d[0] * dd[1] - d[1] * dd[0]) / speed ** 3
    radius = 1.0 / curvature if curvature > 0 else math.inf
    return q, normal, radius


def cardioid_grad_h(p, a, step=1e-6):
    """Gradient of cardioid_h by central differences of the closed form."""
    x, y = float(p[0]), float(p[1])
    return np.array([
        (cardioid_h((x + step, y), a) - cardioid_h((x - step, y), a)) / (2 * step),
        (cardioid_h((x, y + step), a) - cardioid_h((x, y - step), a)) / (2 * step),
    ])


# --- unit square: Fourier sine series ---------------------------------------

_M = np.arange(1, 81)                       # series terms
_S, _W = np.polynomial.legendre.leggauss(400)
_S = 0.5 * (_S + 1.0)                       # nodes on (0, 1)
_W = 0.5 * _W
_SIN = np.sin(np.pi * np.outer(_M, _S))     # (M, nodes)


def _decay(m, t):
    """sinh(m pi t) / sinh(m pi) without overflow, for t in [0, 1]."""
    q = np.pi * m
    return (np.exp(-q * (1.0 - t)) - np.exp(-q * (1.0 + t))) / (1.0 - np.exp(-2.0 * q))


def _ddecay(m, t):
    """d/dt of _decay."""
    q = np.pi * m
    return q * (np.exp(-q * (1.0 - t)) + np.exp(-q * (1.0 + t))) / (1.0 - np.exp(-2.0 * q))


def _side_coefficients(y):
    """Sine coefficients of log|s - y| / 2 pi on the four sides of [0, 1]^2."""
    y0, y1 = float(y[0]), float(y[1])
    sides = {
        "bottom": np.log(np.hypot(_S - y0, y1)),
        "top": np.log(np.hypot(_S - y0, 1.0 - y1)),
        "left": np.log(np.hypot(y0, _S - y1)),
        "right": np.log(np.hypot(1.0 - y0, _S - y1)),
    }
    return {k: 2.0 * (_SIN @ (_W * g)) / TWO_PI for k, g in sides.items()}


def square_k(x, y):
    """Regular part k(x, y) on the unit square: the harmonic function with
    boundary values log|s - y| / 2 pi, summed side by side as sine series."""
    c = _side_coefficients(y)
    x0, x1 = float(x[0]), float(x[1])
    s0 = np.sin(np.pi * _M * x0)
    s1 = np.sin(np.pi * _M * x1)
    return float(c["bottom"] @ (s0 * _decay(_M, 1.0 - x1))
                 + c["top"] @ (s0 * _decay(_M, x1))
                 + c["left"] @ (s1 * _decay(_M, 1.0 - x0))
                 + c["right"] @ (s1 * _decay(_M, x0)))


def square_grad_x_k(x, y):
    c = _side_coefficients(y)
    x0, x1 = float(x[0]), float(x[1])
    q = np.pi * _M
    s0, c0 = np.sin(q * x0), q * np.cos(q * x0)
    s1, c1 = np.sin(q * x1), q * np.cos(q * x1)
    gx = (c["bottom"] @ (c0 * _decay(_M, 1.0 - x1))
          + c["top"] @ (c0 * _decay(_M, x1))
          - c["left"] @ (s1 * _ddecay(_M, 1.0 - x0))
          + c["right"] @ (s1 * _ddecay(_M, x0)))
    gy = (-c["bottom"] @ (s0 * _ddecay(_M, 1.0 - x1))
          + c["top"] @ (s0 * _ddecay(_M, x1))
          + c["left"] @ (c1 * _decay(_M, 1.0 - x0))
          + c["right"] @ (c1 * _decay(_M, x0)))
    return np.array([gx, gy])


def square_h(x):
    return square_k(x, x)


def square_grad_h(x):
    """grad h(x) = 2 grad_x k(x, y) at y = x, by the symmetry of k."""
    return 2.0 * square_grad_x_k(x, x)
