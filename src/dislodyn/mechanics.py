"""Renormalised energy, Peach-Koehler forces and mobility laws.

The energy of n dislocations is

    E_n = sum_{i<j} b_i b_j G(z_i, z_j) + (1/2) sum_i h(z_i),

where G is the domain Green's function and h the self-interaction
potential; on the whole plane h vanishes and G is the bare logarithm, so no
special casing is needed.  The force on dislocation i is the negative
gradient of E_n in z_i, assembled from the kernel gradients:

    f_i = -(1/2) grad h(z_i) - sum_{j != i} b_i b_j grad_x G(z_i, z_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Configuration
from .kernels_analytic import KernelEvaluator

__all__ = [
    "GlideSet",
    "energy",
    "forces",
    "forces_from_arrays",
    "energy_from_arrays",
    "mobility_identity",
    "mobility_glide",
]


@dataclass(frozen=True)
class GlideSet:
    """Finite symmetric spanning set of unit glide directions.

    The stored order is significant: argmax ties in the glide mobility are
    broken by the lowest index.
    """

    directions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != 2 or len(dirs) < 2:
            raise ValueError("need a list of at least two 2D directions")
        norms = np.hypot(dirs[:, 0], dirs[:, 1])
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("glide directions must be unit vectors")
        for g in dirs:
            if not np.any(np.all(np.isclose(dirs, -g, atol=1e-12), axis=1)):
                raise ValueError("glide set must be closed under negation")
        if np.linalg.matrix_rank(dirs, tol=1e-12) < 2:
            raise ValueError("glide set must span the plane")
        object.__setattr__(self, "directions",
                           tuple(tuple(map(float, g)) for g in dirs))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.directions, dtype=float)

    @classmethod
    def square_lattice(cls) -> "GlideSet":
        return cls(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


def energy_from_arrays(positions: np.ndarray, burgers: np.ndarray,
                       kernels: KernelEvaluator) -> float:
    """Renormalised energy from raw (n, 2) and (n,) arrays."""
    h, G = kernels.h_and_G(positions)
    b = np.asarray(burgers, dtype=float)
    # G is symmetric with a zero diagonal: b.G.b counts each pair twice
    return 0.5 * float(h.sum() + b @ G @ b)


def forces_from_arrays(positions: np.ndarray, burgers: np.ndarray,
                       kernels: KernelEvaluator) -> np.ndarray:
    """Peach-Koehler forces from raw arrays; returns an (n, 2) array."""
    grad_h, grad_G = kernels.grad_h_and_G(positions)
    b = np.asarray(burgers, dtype=float)
    # (b @ grad_G)[i] = sum_j b_j grad_x G(z_i, z_j); the diagonal is zero
    return -0.5 * grad_h - b[:, None] * (b @ grad_G)


def energy(config: Configuration, kernels: KernelEvaluator) -> float:
    """Renormalised energy of the configuration."""
    return energy_from_arrays(config.positions, config.burgers, kernels)


def forces(config: Configuration, kernels: KernelEvaluator) -> np.ndarray:
    """Peach-Koehler force on each dislocation, as an (n, 2) array."""
    out = forces_from_arrays(config.positions, config.burgers, kernels)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite force encountered")
    return out


def mobility_identity(f: np.ndarray) -> np.ndarray:
    """Identity mobility: velocity equals force."""
    return np.asarray(f, dtype=float)


def mobility_glide(f: np.ndarray, glide: GlideSet) -> np.ndarray:
    """Project each force onto its maximal-dissipation glide direction.

    v_i = (f_i . g*) g* with g* the first maximizer of f_i . g in the stored
    direction order; zero force gives zero velocity.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    dirs = glide.array
    dots = f @ dirs.T                      # (n, m)
    best = np.argmax(dots, axis=1)         # first max index breaks ties
    amounts = dots[np.arange(len(f)), best]
    v = amounts[:, None] * dirs[best]
    v[np.all(f == 0.0, axis=1)] = 0.0
    return v
