"""The four benchmark workloads.

A workload has

* ``setup()``: builds the domain and the kernel evaluator through
  ``dislodyn.experiments``, which is what every CLI call pays before its
  first trajectory;
* ``inputs(state, seed, r)``: the benchmark's own draw of round r's inputs
  from the seed (untimed);
* ``run(state, inputs)``: one timed round, a fixed number of trajectories,
  returning one record per trajectory with the inputs and outputs that
  ``checks.py`` reads.

This module imports only numpy, scipy and dislodyn, so that the cold-start
probe (``setup_probe.py``) times the library's import and not the checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from dislodyn import dynamics, experiments
from dislodyn.dynamics import IntegrationParams

# scale of the builtin cardioid: its bounding box fits the unit square
CARDIOID_A = 1.0 / (3.0 * math.sqrt(3.0))


def round_rng(seed: int, r: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, r, *extra]))


def _termination(term) -> tuple[str, tuple, float | None]:
    if term.kind == "boundary":
        return "boundary", (int(term.index),), float(term.corrected_time)
    if term.kind == "pair":
        return "pair", (int(term.i), int(term.j)), float(term.corrected_time)
    return term.kind, (), None


def run_trajectory(domain, kernels, params, positions, burgers,
                   states: str = "none") -> dict:
    """Integrate one trajectory and return its record.

    The configuration goes through ``experiments.build_configuration``, as
    the CLI builds explicit starts.  ``states`` keeps none, the last two or
    all of the stored samples.  A trajectory that raises is recorded with
    kind ``error``, which fails its checks.
    """
    rec = {"start": np.asarray(positions, float),
           "burgers": np.asarray(burgers, int), "kind": "error",
           "indices": (), "time": None}
    try:
        config = experiments.build_configuration(
            {"dislocations": [{"position": [float(p[0]), float(p[1])],
                               "burgers": int(b)}
                              for p, b in zip(positions, burgers)]}, domain)
        traj = dynamics.integrate(config, domain, kernels, params=params)
    except Exception as exc:  # any raise is this trajectory's failure
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["kind"], rec["indices"], rec["time"] = _termination(traj.termination)
    if states == "all":
        rec["states"] = np.array(traj.states)
    elif states == "last2":
        rec["states"] = np.array(traj.states[-2:])
    rec["eps"] = float(traj.eps_stop)
    return rec


class DiskEnsemble:
    """The criterion-5 ensemble, 50 runs per round through ``run_ensemble``.

    Round 0 runs the first 50 runs of the ensemble whose master seed is the
    seed itself; later rounds take master seeds derived from (seed, round).
    A master seed whose ensemble would start a run within 2 eps_stop of the
    event set is passed over: ``integrate`` refuses such a start with a
    ValueError, which aborts the whole ``run_ensemble`` call.
    """

    name = "disk_ensemble"
    default_seed = 42
    runs = 50
    delta0 = 0.2
    gamma0 = 0.5
    eps = 2e-4          # library default eps_stop: 1e-4 * diameter
    config = {"domain": {"kind": "disk"},
              "sampling": {"class": "D", "n": 2, "delta0": delta0,
                           "gamma0": gamma0},
              "integration": {"t_max": 10.0},
              "kernel": {"backend": "auto"},
              "ensemble_size": runs}

    def setup(self):
        domain = experiments.build_domain(self.config["domain"])
        return domain, experiments.build_kernels(domain, self.config["kernel"])

    def _startable(self, domain, master: int) -> bool:
        """Whether every run of the master seed starts clear of the event set,
        sampled on the stream ``run_ensemble`` gives run i:
        SeedSequence([master, i])."""
        for i in range(self.runs):
            rng = np.random.default_rng(np.random.SeedSequence([master, i]))
            z = experiments.sample_class_D(rng, domain, 2, self.delta0,
                                           self.gamma0).positions
            clear = min(1.0 - math.hypot(*z[0]), 1.0 - math.hypot(*z[1]),
                        math.hypot(*(z[0] - z[1])))
            if clear <= 2.0 * self.eps:
                return False
        return True

    def inputs(self, state, seed: int, r: int) -> int:
        for attempt in range(100):
            if r == 0 and attempt == 0:
                master = seed
            else:
                master = int(np.random.SeedSequence([seed, r, attempt])
                             .generate_state(1)[0])
            if self._startable(state[0], master):
                return master
        raise RuntimeError("no startable master seed in 100 attempts")

    def run(self, state, master: int) -> list[dict]:
        summary = experiments.run_ensemble(dict(self.config, seed=master),
                                           workers=1)
        records = []
        for rec in summary.records:
            term = rec["termination"]
            indices = ((term["index"],) if term["kind"] == "boundary" else
                       (term["i"], term["j"]) if term["kind"] == "pair" else ())
            records.append({"start": np.array(rec["initial"]),
                            "burgers": np.array(rec["burgers"]),
                            "kind": term["kind"], "indices": indices,
                            "time": rec["corrected_time"], "eps": self.eps})
        return records


class DiskMany:
    """n=20 class-D configurations in the unit disk on analytic kernels.

    The library's sampler draws two configurations on fixed streams (base
    seed 2017, streams 0 and 1): the first ends in a pair collision, the
    second at the boundary.  A round runs both, each moved by one of the
    eight symmetries of the square lattice (quarter turns and reflections)
    and with all its Burgers moduli flipped or not, drawn from (seed, round).
    These are symmetries of the disk and of the flow, and they map the
    integrator's per-component error weights onto each other, so every
    round does the same work while the inputs change.
    """

    name = "disk_many"
    default_seed = 7
    base_seed = 2017
    configs = 2
    n = 20
    delta0 = 0.19
    gamma0 = 0.2
    params = IntegrationParams(t_max=10.0)

    def setup(self):
        domain = experiments.build_domain({"kind": "disk"})
        return domain, experiments.build_kernels(domain, {"backend": "auto"})

    def inputs(self, state, seed: int, r: int) -> list:
        rng = round_rng(seed, r)
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        moves = []
        for _ in range(self.configs):
            move = np.linalg.matrix_power(quarter, int(rng.integers(4)))
            if rng.integers(2):
                move = move @ np.diag([1.0, -1.0])
            moves.append((move, 1 if rng.integers(2) else -1))
        return moves

    def run(self, state, moves) -> list[dict]:
        domain, kernels = state
        records = []
        for k, (move, sign) in enumerate(moves):
            base = experiments.sample_class_D(
                np.random.default_rng(np.random.SeedSequence([self.base_seed, k])),
                domain, self.n, self.delta0, self.gamma0)
            records.append(run_trajectory(
                domain, kernels, self.params, base.positions @ move.T,
                sign * base.burgers, states="all"))
        return records


class CardioidNystrom:
    """Single-dislocation starts 0.1 from the cardioid's equilibrium.

    A round runs 10 starts equally spaced on the circle, turned by a random
    fraction of their spacing drawn from (seed, round), on one 512-node
    Nystrom evaluator built in the set-up.
    """

    name = "cardioid_nystrom"
    default_seed = 9
    starts = 10
    radius = 0.1
    nodes = 512
    params = IntegrationParams(t_max=60.0, rel_tol=1e-6, abs_tol=1e-9)

    def setup(self):
        a = CARDIOID_A
        domain = experiments.build_domain(
            {"kind": "parametric", "builtin": "cardioid", "a": a})
        kernels = experiments.build_kernels(
            domain, {"backend": "integral", "boundary_nodes": self.nodes})
        # the unstable equilibrium on the symmetry axis y = 0.5
        off = 0.5 + 1.75 * a
        xeq = brentq(lambda x: kernels.grad_h((x, 0.5))[0],
                     off - 3.2 * a, off - 0.8 * a, xtol=1e-12)
        return domain, kernels, np.array([xeq, 0.5])

    def inputs(self, state, seed: int, r: int) -> np.ndarray:
        eq = state[2]
        turn = round_rng(seed, r).uniform()
        ang = (np.arange(self.starts) + turn) * 2.0 * math.pi / self.starts
        return eq + self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def run(self, state, starts) -> list[dict]:
        domain, kernels, _ = state
        return [run_trajectory(domain, kernels, self.params, [p], [1],
                               states="last2") for p in starts]


def square_mirror(j: int, count: int = 80) -> int:
    """Index of the start angle j * 2 pi / count reflected in the diagonal x = y."""
    return (count // 4 - j) % count


def square_orbit(j: int, count: int = 80) -> list[int]:
    """Indices of the images of start angle j * 2 pi / count under the
    symmetries of the square (quarter turns and reflections)."""
    q = count // 4
    return sorted({(s * j + t * q) % count for s in (1, -1) for t in range(4)})


class SquareGrid:
    """Starts 0.1 from the centre of the unit square on the grid backend.

    Every round runs the same 8 of the 80 criterion-9 starts: for the angles
    k = 1, 4, 7 and 10 (of 0-10, the sector 0 to 45 degrees), one pair of
    images mirrored in the diagonal x = y, the (k mod m)-th of the orbit's
    m such pairs, so that three quadrant pairings occur; k = 10 gives the
    anti-diagonal pair.

    The inputs do not depend on the seed.  The reflection in x = y is the
    only symmetry of the unit square that maps the integrator's error
    weights onto each other, so images under the others cost different
    work: drawing them from the seed moved traj_per_s by 16% (spread
    between quartiles over 5 seeds).
    """

    name = "square_grid"
    default_seed = 11
    angles = (1, 4, 7, 10)
    spacing = 1.0 / 64.0
    radius = 0.1
    params = IntegrationParams(t_max=60.0, rel_tol=1e-5, abs_tol=1e-9)

    def setup(self):
        domain = experiments.build_domain(
            {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        kernels = experiments.build_kernels(
            domain, {"backend": "grid", "grid_spacing": self.spacing})
        return domain, kernels

    def inputs(self, state, seed: int, r: int) -> list[tuple[int, int]]:
        starts = []
        for k in self.angles:
            pairs = sorted({tuple(sorted((j, square_mirror(j))))
                            for j in square_orbit(k) if square_mirror(j) != j})
            starts += [(k, j) for j in pairs[k % len(pairs)]]
        return starts

    def run(self, state, starts) -> list[dict]:
        domain, kernels = state
        records = []
        for k, j in starts:
            ang = j * 2.0 * math.pi / 80
            start = 0.5 + self.radius * np.array([math.cos(ang), math.sin(ang)])
            rec = run_trajectory(domain, kernels, self.params, [start], [1],
                                 states="all")
            rec["orbit"], rec["angle_index"] = k, j
            records.append(rec)
        return records


WORKLOADS = {w.name: w for w in (DiskEnsemble(), DiskMany(), CardioidNystrom(),
                                 SquareGrid())}
