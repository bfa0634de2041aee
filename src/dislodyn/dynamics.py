"""Time integration of the dislocation gradient flow with event detection.

The 2n-dimensional system dz_i/dt = M[f_i(z)] is advanced with an adaptive
embedded Runge-Kutta 4(5) pair (scipy's Dormand-Prince implementation) in
the rescaled time s of a Sundman transformation: the state is y = (z, t) and

    dz/ds = g v,   dt/ds = g,   g = 1 / sqrt(1 + L^2 |v|^2),

with v = M[f(z)] the physical velocity of all 2n coordinates and L the
domain's diameter (1 when it is unbounded).  Velocities blow up like 1/d at
collisions, so g shrinks like d there and the rescaled flow has bounded
speed: the controller no longer spends most of its steps on the last
stretch before the event.  Where v vanishes, s = t.  The integrator never
touches the singular set: terminal events fire when a dislocation reaches
distance ``eps_stop`` from the boundary, when two dislocations approach to
within ``eps_stop``, or when t reaches the horizon.  The leading-order
residual of the squared-distance law is added back to convert the stop
time into a collision time:

    boundary:  d(d_1^2/2)/dt -> -1/(4 pi)   =>  T = T_eps + 2 pi eps^2
    pair:      d(|z1-z2|^2/2)/dt -> -1/pi   =>  T = T_eps + (pi/2) eps^2

Both corrections are exact for the leading-order dynamics; the remaining
error is o(eps^2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DislodynError, StartTooClose
from .geometry import Configuration, Domain, min_separation
from .kernels_analytic import KernelEvaluator
from .mechanics import forces_from_arrays, mobility_identity

__all__ = [
    "IntegrationParams",
    "BoundaryCollision",
    "PairCollision",
    "HorizonReached",
    "StepFailure",
    "Trajectory",
    "integrate",
    "corrected_collision_time",
]


@dataclass(frozen=True)
class IntegrationParams:
    t_max: float = 10.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    eps_stop: float | None = None  # default 1e-4 * diameter (1e-4 if unbounded)
    max_steps: int = 10_000_000

    def __post_init__(self):
        # every test is written so that NaN fails it: a NaN horizon or
        # tolerance hangs the solver, and a NaN eps_stop disables the events
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        finite = ["rel_tol", "abs_tol"]
        if self.eps_stop is not None:
            finite.append("eps_stop")
        for name in finite:
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (isinstance(self.max_steps, numbers.Integral) and self.max_steps >= 1):
            raise ValueError(
                f"max_steps must be an integer >= 1, got {self.max_steps!r}")

    def resolve_eps(self, domain: Domain,
                    kernels: KernelEvaluator) -> tuple[float, bool]:
        """The stop distance, and whether the backend's resolution margin
        raised it above the requested (or default) one."""
        eps = self.eps_stop
        if eps is None:
            eps = 1e-4 * domain.diameter if domain.bounded else 1e-4
        # numeric backends cannot be trusted below their resolution margin
        margin = kernels.min_eval_distance
        return max(eps, margin), margin > eps


@dataclass(frozen=True)
class BoundaryCollision:
    index: int
    stop_time: float
    corrected_time: float
    boundary_point: np.ndarray

    kind = "boundary"


@dataclass(frozen=True)
class PairCollision:
    i: int
    j: int
    stop_time: float
    corrected_time: float
    midpoint: np.ndarray

    kind = "pair"


@dataclass(frozen=True)
class HorizonReached:
    t_max: float

    kind = "horizon"


@dataclass(frozen=True)
class StepFailure:
    reason: str

    kind = "failure"


@dataclass
class Trajectory:
    times: np.ndarray          # (m,), strictly increasing
    states: np.ndarray         # (m, n, 2)
    burgers: np.ndarray        # (n,)
    termination: BoundaryCollision | PairCollision | HorizonReached | StepFailure
    stats: dict = field(default_factory=dict)
    eps_stop: float = 0.0
    interpolant: object = None  # dense output of (z, t) in s, one piece per step

    @property
    def samples(self):
        """(t, Configuration) pairs."""
        return [(float(t), Configuration.from_arrays(z, self.burgers))
                for t, z in zip(self.times, self.states)]

    def positions_at(self, t: float) -> np.ndarray:
        """Dense-output positions at a time in [times[0], times[-1]], shape
        (n, 2).

        The dense output is a polynomial in the rescaled time s on each
        stored step, t included as the last component; t(s) is monotone, so
        the s of ``t`` is found by root bracketing on the step that holds it.
        """
        if self.interpolant is None:
            raise ValueError("trajectory carries no dense output")
        times = self.times
        if not times[0] <= t <= times[-1]:
            raise ValueError(f"time {t!r} outside the trajectory's range "
                             f"[{float(times[0])!r}, {float(times[-1])!r}]")
        k = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        s_lo, s_hi = self.interpolant.ts[k], self.interpolant.ts[k + 1]

        def lag(s):
            return self.interpolant(s)[-1] - t

        # the ends reproduce the stored times only to rounding
        if lag(s_lo) >= 0.0:
            s = s_lo
        elif lag(s_hi) <= 0.0:
            s = s_hi
        else:
            tol = 4 * np.finfo(float).eps
            s = brentq(lag, s_lo, s_hi, xtol=tol, rtol=tol)
        return np.asarray(self.interpolant(s)[:-1]).reshape(-1, 2)


def corrected_collision_time(stop_time: float, kind: str, eps_stop: float) -> float:
    """Add the leading-order residual time of the stopped dynamics."""
    if kind == "boundary":
        return stop_time + 2.0 * math.pi * eps_stop**2
    if kind == "pair":
        return stop_time + 0.5 * math.pi * eps_stop**2
    raise ValueError(f"unknown collision kind {kind!r}")


def _run_stats(nfev: int, n_samples: int, eps: float, eps_raised: bool) -> dict:
    """Counts of one run; ``accepted_steps`` counts the (s-)steps the
    trajectory keeps."""
    stats = {
        "nfev": int(nfev),
        "n_samples": int(n_samples),
        "accepted_steps": int(n_samples - 1),
        # RK45 spends 6 evaluations per attempted step after the initial one
        "attempted_steps_estimate": max(0, (int(nfev) - 1) // 6),
    }
    stats["rejected_steps_estimate"] = max(
        0, stats["attempted_steps_estimate"] - stats["accepted_steps"])
    stats["eps_stop"] = float(eps)
    stats["eps_stop_raised"] = bool(eps_raised)
    return stats


def integrate(config: Configuration, domain: Domain, kernels: KernelEvaluator,
              mobility: Callable[[np.ndarray], np.ndarray] = mobility_identity,
              params: IntegrationParams = IntegrationParams()) -> Trajectory:
    """Advance the gradient flow until an event, the horizon, or failure.

    The run advances y = (z, t) in the rescaled time s (module docstring).
    Events are monitored for every dislocation against the boundary, for
    every pair and for t = t_max; the earliest terminal event ends the run.
    The returned trajectory carries the stored physical times, both the raw
    stop time and the corrected collision time, and a dense output in s.
    """
    config.validate_in(domain)
    burgers = config.burgers
    n = config.n
    eps, eps_raised = params.resolve_eps(domain, kernels)
    separation = min_separation(config, domain)
    if separation <= 2.0 * eps:
        raise StartTooClose("initial configuration too close to the event set "
                            f"(min separation {separation:.3g}, need > {2.0 * eps:g})")
    length_sq = domain.diameter**2 if domain.bounded else 1.0

    max_nfev = 7 * params.max_steps
    budget = {"nfev": 0}

    def rhs(s, y):
        budget["nfev"] += 1
        if budget["nfev"] > max_nfev:
            # budget spent: poisoned stages shrink the step until solve_ivp
            # gives up, and the trajectory keeps the steps it accepted
            return np.full(2 * n + 1, np.nan)
        z = y[:-1].reshape(n, 2)
        try:
            f = forces_from_arrays(z, burgers, kernels)
        except DislodynError:
            # trial stage left the admissible set; poison the step so the
            # controller retries with a smaller size
            return np.full(2 * n + 1, np.nan)
        v = np.asarray(mobility(f), dtype=float).ravel()
        g = 1.0 / math.sqrt(1.0 + length_sq * float(v @ v))
        return np.append(g * v, g)

    events = []
    event_meta = []
    if domain.has_boundary:
        for i in range(n):
            def bdry_event(s, y, i=i):
                return domain.signed_distance(y[2 * i:2 * i + 2]) - eps

            bdry_event.terminal = True
            bdry_event.direction = -1
            events.append(bdry_event)
            event_meta.append(("boundary", i))
    for i in range(n):
        for j in range(i + 1, n):
            def pair_event(s, y, i=i, j=j):
                return float(np.linalg.norm(y[2 * i:2 * i + 2]
                                            - y[2 * j:2 * j + 2])) - eps

            pair_event.terminal = True
            pair_event.direction = -1
            events.append(pair_event)
            event_meta.append(("pair", (i, j)))

    def horizon(s, y):
        return y[-1] - params.t_max

    horizon.terminal = True
    horizon.direction = 1
    events.append(horizon)
    event_meta.append(("horizon", None))

    y0 = np.append(config.positions.ravel(), 0.0)
    sol = solve_ivp(rhs, (0.0, math.inf), y0, method="RK45",
                    rtol=params.rel_tol, atol=params.abs_tol,
                    events=events, dense_output=True)

    times = sol.y[-1]
    states = sol.y[:-1].T.reshape(-1, n, 2)
    # the evaluations past the budget only wound the solver down
    stats = _run_stats(min(sol.nfev, max_nfev), len(times), eps, eps_raised)

    kind = which = None
    if sol.status == 1:
        # earliest terminal event; scipy stops at the first in s (so in t)
        # but we rank explicitly in case several fired within one step
        fired = [(te[0], idx) for idx, te in enumerate(sol.t_events) if len(te)]
        kind, which = event_meta[min(fired)[1]]
    if kind in ("boundary", "pair"):
        t_stop = float(times[-1])
        z_stop = states[-1]
        corrected = corrected_collision_time(t_stop, kind, eps)
        if kind == "boundary":
            probe = domain.probe(z_stop[which])
            term = BoundaryCollision(which, t_stop, corrected, probe.point)
        else:
            i, j = which
            term = PairCollision(i, j, t_stop, corrected,
                                 0.5 * (z_stop[i] + z_stop[j]))
    elif kind == "horizon":
        term = HorizonReached(params.t_max)
    else:
        term = StepFailure("step budget exceeded" if budget["nfev"] > max_nfev
                           else sol.message)

    # a run that kept only its start has no dense output
    return Trajectory(times, states, burgers, term, stats, eps,
                      sol.sol if len(times) > 1 else None)
