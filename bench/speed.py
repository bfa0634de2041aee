"""The machine's speed, sampled while the benchmark measures.

The vCPUs of a small shared VM run the same work at speeds that change by up
to a factor of two, within a second and in phases of seconds to minutes: a
fixed 8-run ensemble took 0.13-0.32 s of wall and of CPU time within one
minute, and a fixed 2 ms loop took 9-40 ms within one second.  No median
over a run removes a phase that spans the run, and a speed measured before
and after a round of several seconds misses the phases inside it.

``Sampler`` therefore runs a short fixed reference loop every ``INTERVAL_S``
of wall time from a SIGALRM handler while the measured code runs.  The loop
imports nothing from dislodyn and is made of the two kinds of work the
library's time goes to: scalar Python (the RK driver, force assembly, the
event functions) and, in compiled code, a dense solve with its kernel and
residual in the manner of the Nystrom evaluator.  ``reference_s()`` is the
measured wall time minus the loops' own time, rescaled to a machine on
which the loop takes its reference time: the time-weighted mean of
reference time / loop time is the machine's speed over the interval.  A
change to dislodyn moves the interval and not the loop, so it moves the
rescaled figure by the same share as the raw one.
"""

from __future__ import annotations

import math
import signal
import time

# round figures near the two parts' times on the 2-core box of README.md's
# reference figures; they fix only the scale of the rescaled times
PYTHON_REFERENCE_S = 0.00085
SOLVER_REFERENCE_S = 0.0009
PYTHON_ITERATIONS = 2250
INTERVAL_S = 0.1

_solver = None


def python_loop_s() -> float:
    """Seconds a fixed loop of scalar Python takes, now."""
    start = time.perf_counter()
    acc, x, y = 0.0, 0.3, 0.4
    for i in range(PYTHON_ITERATIONS):
        x, y = x * 1.0001 + 0.001, y * 0.9999 + 0.002
        r = math.hypot(x, y)
        x, y = x / r, y / r
        acc += r + len({"i": i, "r": r})
    if not math.isfinite(acc):
        raise RuntimeError("reference loop lost its value")
    return time.perf_counter() - start


def solver_loop_s() -> float:
    """Seconds a fixed boundary-integral-style solve takes, now: twice, a
    log kernel on 512 nodes of the unit circle, an LU back-substitution of
    order 512, the residual's matrix-vector product and a double-layer sum
    at one point."""
    global _solver
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    if _solver is None:
        rng = np.random.default_rng(0)
        matrix = rng.random((512, 512)) + 512.0 * np.eye(512)
        angle = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        _solver = lu_factor(matrix, overwrite_a=True), np.cos(angle), np.sin(angle)
    lu, xs, ys = _solver
    start = time.perf_counter()
    acc = 0.0
    for k in range(2):
        g = np.log(np.hypot(xs - 0.1 * k, ys - 0.2))
        mu = lu_solve(lu, g)
        acc += float(np.max(np.abs(lu[0] @ mu - g)))
        dx, dy = 0.3 - xs, 0.4 - ys
        r2 = dx * dx + dy * dy
        j = int(np.argmin(r2))
        acc += float(((dx * xs + dy * ys) / r2) @ (mu - mu[j]))
    if not math.isfinite(acc):
        raise RuntimeError("reference loop lost its value")
    return time.perf_counter() - start


class Sampler:
    """``with Sampler() as s: ...`` samples the machine's speed every
    INTERVAL_S during the block; afterwards ``s.work_s`` is the block's
    wall time outside the loops and ``s.reference_s()`` that time at the
    reference speed.  ``solver=False`` leaves out the loop's numpy part, for
    a block that itself imports numpy.  Not reentrant; main thread only."""

    def __init__(self, solver: bool = True):
        self.solver = solver

    def _sample(self, *_):
        start = time.perf_counter()
        spent = python_loop_s()
        reference = PYTHON_REFERENCE_S
        if self.solver:
            spent += solver_loop_s()
            reference += SOLVER_REFERENCE_S
        self.speeds.append(reference / spent)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.speeds, self.spent = [], 0.0
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = time.perf_counter() - self.start - self.spent
        self._sample()
        return False

    def reference_s(self) -> float:
        return self.work_s * sum(self.speeds) / len(self.speeds)
