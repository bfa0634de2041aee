"""Run configuration, trajectory serialization and the ensemble runner.

Configs are JSON (documented in the README); parsing normalizes defaults so
that parse -> serialize -> parse is idempotent.  Ensembles derive one RNG
per run from the master seed through ``SeedSequence([master_seed,
run_index])`` (PCG64), so runs are independent of execution order and the
whole summary is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .errors import RejectionOverflow, StartTooClose
from .geometry import (AxisAlignedPolygon, Configuration, Disk, Domain,
                       ExteriorDisk, HalfPlane, Plane, SmoothCurveDomain,
                       cardioid_domain, in_class_D)
from .kernels_analytic import KernelEvaluator, analytic_kernels
from .kernels_numeric import NumericKernelConfig, numeric_kernels
from .dynamics import (BoundaryCollision, HorizonReached, IntegrationParams,
                       PairCollision, Trajectory, integrate)
from .mechanics import GlideSet, mobility_glide, mobility_identity

__all__ = [
    "normalize_config",
    "load_config",
    "dump_config",
    "build_domain",
    "build_kernels",
    "build_mobility",
    "build_params",
    "run_simulation",
    "run_ensemble",
    "sample_class_D",
    "EnsembleSummary",
    "write_trajectory_csv",
    "trajectory_sidecar",
    "RNG_DESCRIPTION",
]

RNG_DESCRIPTION = "PCG64 via numpy SeedSequence([master_seed, run_index])"

_DEFAULTS = {
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "dislocations": None,
    "sampling": None,
    "mobility": {"kind": "identity"},
    "integration": {"t_max": 10.0, "rel_tol": 1e-8, "abs_tol": 1e-10,
                    "eps_stop": None, "max_steps": 10_000_000},
    "kernel": {"backend": "auto", "boundary_nodes": 512, "grid_spacing": None,
               "solve_tol": 1e-10},
    "seed": 0,
    "ensemble_size": 500,
    "histogram_bin_width": 0.005,
}


def normalize_config(cfg: dict) -> dict:
    """Fill defaults and order keys; idempotent."""
    out = {}
    for key, default in _DEFAULTS.items():
        val = cfg.get(key, default)
        if isinstance(default, dict) and isinstance(val, dict):
            merged = dict(default)
            merged.update(val)
            val = merged
        out[key] = val
    for key in cfg:
        if key not in out:
            out[key] = cfg[key]
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return normalize_config(json.load(fh))


def dump_config(cfg: dict) -> str:
    return json.dumps(normalize_config(cfg), indent=2, sort_keys=True)


def build_domain(spec: dict) -> Domain:
    kind = spec.get("kind", "disk")
    if kind == "disk":
        return Disk(tuple(spec.get("center", (0.0, 0.0))), spec.get("radius", 1.0))
    if kind == "exterior_disk":
        return ExteriorDisk(tuple(spec.get("center", (0.0, 0.0))),
                            spec.get("radius", 1.0))
    if kind == "half_plane":
        return HalfPlane(tuple(spec.get("normal", (0.0, -1.0))),
                         spec.get("offset", 0.0))
    if kind == "plane":
        return Plane()
    if kind == "polygon":
        return AxisAlignedPolygon(spec["vertices"])
    if kind == "parametric":
        if "table" in spec:
            return SmoothCurveDomain.from_table(spec["table"],
                                                rho=spec.get("rho"))
        builtin = spec.get("builtin", "cardioid")
        if builtin != "cardioid":
            raise ValueError(f"unknown builtin curve {builtin!r}")
        kwargs = {}
        if "a" in spec:
            kwargs["a"] = spec["a"]
        if "offset" in spec:
            kwargs["offset"] = tuple(spec["offset"])
        return cardioid_domain(**kwargs)
    raise ValueError(f"unknown domain kind {kind!r}")


def build_kernels(domain: Domain, spec: dict) -> KernelEvaluator:
    backend = spec.get("backend", "auto")
    if backend == "analytic":
        return analytic_kernels(domain)
    if backend == "auto" and isinstance(domain, (Disk, ExteriorDisk,
                                                 HalfPlane, Plane)):
        return analytic_kernels(domain)
    ncfg = NumericKernelConfig(
        backend=backend if backend in ("integral", "grid") else "auto",
        boundary_nodes=spec.get("boundary_nodes", 512),
        grid_spacing=spec.get("grid_spacing"),
        solve_tol=spec.get("solve_tol", 1e-10),
    )
    return numeric_kernels(domain, ncfg)


def build_mobility(spec: dict):
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return mobility_identity
    if kind == "glide":
        glide = GlideSet(tuple(tuple(g) for g in spec["directions"]))
        return lambda f: mobility_glide(f, glide)
    raise ValueError(f"unknown mobility {kind!r}")


def build_params(spec: dict) -> IntegrationParams:
    return IntegrationParams(
        t_max=spec.get("t_max", 10.0),
        rel_tol=spec.get("rel_tol", 1e-8),
        abs_tol=spec.get("abs_tol", 1e-10),
        eps_stop=spec.get("eps_stop"),
        max_steps=spec.get("max_steps", 10_000_000),
    )


def build_configuration(cfg: dict, domain: Domain,
                        rng: np.random.Generator | None = None) -> Configuration:
    if cfg.get("dislocations"):
        positions = [d["position"] for d in cfg["dislocations"]]
        burgers = [d.get("burgers", 1) for d in cfg["dislocations"]]
        return Configuration.from_arrays(positions, burgers)
    if not cfg.get("sampling"):
        raise ValueError("config needs either dislocations or sampling")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.get("seed", 0), 0]))
    return _sample(cfg["sampling"], domain, rng)


def _sample(samp: dict, domain: Domain,
            rng: np.random.Generator) -> Configuration:
    """Draw the configuration a ``sampling`` spec describes."""
    return sample_class_D(rng, domain, samp.get("n", 2), samp["delta0"],
                          samp["gamma0"],
                          burgers_first=samp.get("burgers_first", 1),
                          burgers_rest=samp.get("burgers_rest", "random"))


def _uniform_in_disk(rng: np.random.Generator, disk: Disk) -> np.ndarray:
    while True:
        p = rng.uniform(-1.0, 1.0, size=2)
        if p[0] * p[0] + p[1] * p[1] < 1.0:
            return np.asarray(disk.center) + disk.radius * p


def sample_class_D(rng: np.random.Generator, domain: Domain, n: int,
                   delta0: float, gamma0: float, burgers_first: int = 1,
                   burgers_rest: str | int = "random",
                   max_tries: int = 200_000) -> Configuration:
    """Rejection-sample an initial condition from the near-boundary class.

    The first dislocation is uniform in the band d_1 < delta0, the rest are
    uniform subject to mutual / boundary separation > gamma0.
    """
    if not isinstance(domain, Disk):
        raise ValueError("sampling is implemented for disk domains")
    tries = 0
    accepts = 0

    def bump():
        nonlocal tries
        tries += 1
        if tries > max_tries or (tries >= 10_000
                                 and accepts < 1e-4 * tries):
            raise RejectionOverflow(
                f"sampling acceptance below 1e-4 ({accepts}/{tries})")

    def propose_first():
        nonlocal accepts
        while True:
            bump()
            p = _uniform_in_disk(rng, domain)
            if domain.probe(p).distance < delta0:
                accepts += 1
                return p

    def propose_rest():
        nonlocal accepts
        out = []
        while len(out) < n - 1:
            bump()
            p = _uniform_in_disk(rng, domain)
            if domain.probe(p).distance <= gamma0:
                continue
            if any(np.linalg.norm(p - q) <= gamma0 for q in out):
                continue
            accepts += 1
            out.append(p)
        return out

    z1 = propose_first()
    rest = propose_rest()
    burgers = [burgers_first]
    for _ in range(n - 1):
        if burgers_rest == "random":
            burgers.append(int(rng.choice((-1, 1))))
        else:
            burgers.append(int(burgers_rest))
    config = Configuration.from_arrays([z1] + rest, burgers)
    assert in_class_D(config, domain, delta0, gamma0)
    return config


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    n = traj.states.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"x{i}", f"y{i}", f"b{i}"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t, z in zip(traj.times, traj.states):
            row = [repr(float(t))]
            for i in range(n):
                row += [repr(float(z[i, 0])), repr(float(z[i, 1])),
                        str(int(traj.burgers[i]))]
            w.writerow(row)


def _termination_dict(term) -> dict:
    if isinstance(term, BoundaryCollision):
        return {"kind": "boundary", "index": term.index,
                "stop_time": term.stop_time,
                "corrected_time": term.corrected_time,
                "boundary_point": [float(v) for v in term.boundary_point]}
    if isinstance(term, PairCollision):
        return {"kind": "pair", "i": term.i, "j": term.j,
                "stop_time": term.stop_time,
                "corrected_time": term.corrected_time,
                "midpoint": [float(v) for v in term.midpoint]}
    if isinstance(term, HorizonReached):
        return {"kind": "horizon", "t_max": term.t_max}
    return {"kind": "failure", "reason": term.reason}


def trajectory_sidecar(traj: Trajectory, params: IntegrationParams,
                       seed=None, extra: dict | None = None) -> dict:
    term = _termination_dict(traj.termination)
    side = {
        "termination": term,
        "raw_time": term.get("stop_time"),
        "corrected_time": term.get("corrected_time"),
        "event_indices": [term[k] for k in ("index", "i", "j") if k in term],
        "params": {"t_max": params.t_max, "rel_tol": params.rel_tol,
                   "abs_tol": params.abs_tol, "eps_stop": traj.eps_stop,
                   "max_steps": params.max_steps},
        "seed": seed,
        "rng": RNG_DESCRIPTION,
        "stats": traj.stats,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        side.update(extra)
    return side


def run_simulation(cfg: dict, out_dir: str | None = None):
    """Run one trajectory from a config dict; optionally write outputs.

    When the config carries a ``bounds`` scenario, the report and its
    comparison against the trajectory are embedded into the sidecar.
    Returns (trajectory, sidecar dict).
    """
    cfg = normalize_config(cfg)
    domain = build_domain(cfg["domain"])
    kernels = build_kernels(domain, cfg["kernel"])
    mobility = build_mobility(cfg["mobility"])
    params = build_params(cfg["integration"])
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
    config = build_configuration(cfg, domain, rng)
    report = None
    if cfg.get("bounds"):
        report = bounds_mod.scenario_report(cfg["bounds"], n=config.n,
                                            diam=domain.diameter)
    traj = integrate(config, domain, kernels, mobility, params)
    side = trajectory_sidecar(traj, params, seed=cfg["seed"])
    if report is not None:
        side["bound_report"] = report.to_dict()
        try:
            side["bound_check"] = bounds_mod.verify_against_trajectory(
                report, traj).to_dict()
        except Exception as exc:
            side["bound_check"] = {"error": type(exc).__name__,
                                   "message": str(exc)}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
        with open(os.path.join(out_dir, "trajectory.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(side, fh, indent=2, sort_keys=True)
    return traj, side


@dataclass
class EnsembleSummary:
    records: list[dict]
    bin_width: float
    bin_counts: list[int] = field(default_factory=list)
    bin_left: float = 0.0

    def __post_init__(self):
        times = self.boundary_times
        if times and not self.bin_counts:
            lo = 0.0
            hi = max(times)
            nbins = max(1, int(math.ceil((hi - lo) / self.bin_width + 1e-12)))
            counts = [0] * nbins
            for t in times:
                k = min(int((t - lo) / self.bin_width), nbins - 1)
                counts[k] += 1
            self.bin_counts = counts
            self.bin_left = lo

    @property
    def boundary_times(self) -> list[float]:
        return [r["corrected_time"] for r in self.records
                if r["termination"]["kind"] == "boundary"]

    @property
    def non_boundary_count(self) -> int:
        return sum(1 for r in self.records
                   if r["termination"]["kind"] != "boundary")

    @property
    def max_boundary_time(self) -> float | None:
        times = self.boundary_times
        return max(times) if times else None

    def to_dict(self, delta0: float | None = None) -> dict:
        out = {
            "n_runs": len(self.records),
            "non_boundary_count": self.non_boundary_count,
            "max_boundary_time": self.max_boundary_time,
            "bin_width": self.bin_width,
            "bin_left": self.bin_left,
            "bin_counts": self.bin_counts,
            "rng": RNG_DESCRIPTION,
        }
        if delta0 is not None:
            out["leading_order_bound"] = 2.0 * math.pi * delta0**2
        return out


def _ensemble_worker(args):
    cfg, run_index = args
    domain = build_domain(cfg["domain"])
    kernels = build_kernels(domain, cfg["kernel"])
    mobility = build_mobility(cfg["mobility"])
    params = build_params(cfg["integration"])
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg["seed"], run_index]))
    # every run samples, even when the config also lists dislocations
    config = _sample(cfg["sampling"], domain, rng)
    try:
        traj = integrate(config, domain, kernels, mobility, params)
    except StartTooClose as exc:
        # the sampler may place a run within 2 eps_stop of the boundary;
        # that run fails and the ensemble goes on
        term, n_samples = {"kind": "failure", "reason": f"refused start: {exc}"}, 0
    else:
        term, n_samples = _termination_dict(traj.termination), traj.stats["n_samples"]
    return {
        "run": run_index,
        "seed_entropy": [cfg["seed"], run_index],
        "termination": term,
        "corrected_time": term.get("corrected_time"),
        "raw_time": term.get("stop_time"),
        "burgers": [int(b) for b in config.burgers],
        "initial": [[float(v) for v in p] for p in config.positions],
        "n_samples": n_samples,
    }


def run_ensemble(cfg: dict, out_dir: str | None = None,
                 workers: int = 1) -> EnsembleSummary:
    """Run the seeded Monte Carlo ensemble described by the config."""
    cfg = normalize_config(cfg)
    if not cfg.get("sampling"):
        raise ValueError("ensemble needs a sampling spec")
    n_runs = int(cfg["ensemble_size"])
    jobs = [(cfg, i) for i in range(n_runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_ensemble_worker, jobs, chunksize=8))
    else:
        records = [_ensemble_worker(j) for j in jobs]
    records.sort(key=lambda r: r["run"])
    summary = EnsembleSummary(records, cfg["histogram_bin_width"])

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "runs.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["run", "kind", "raw_time", "corrected_time",
                        "b2", "x1", "y1", "x2", "y2", "n_samples"])
            for r in records:
                init = r["initial"]
                w.writerow([
                    r["run"], r["termination"]["kind"],
                    "" if r["raw_time"] is None else repr(float(r["raw_time"])),
                    "" if r["corrected_time"] is None
                    else repr(float(r["corrected_time"])),
                    r["burgers"][1] if len(r["burgers"]) > 1 else "",
                    repr(init[0][0]), repr(init[0][1]),
                    repr(init[1][0]) if len(init) > 1 else "",
                    repr(init[1][1]) if len(init) > 1 else "",
                    r["n_samples"],
                ])
        with open(os.path.join(out_dir, "histogram.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_left", "bin_right", "count"])
            for k, c in enumerate(summary.bin_counts):
                w.writerow([repr(summary.bin_left + k * summary.bin_width),
                            repr(summary.bin_left + (k + 1) * summary.bin_width),
                            c])
        samp = cfg["sampling"]
        with open(os.path.join(out_dir, "summary.json"), "w",
                  encoding="utf-8") as fh:
            payload = summary.to_dict(delta0=samp.get("delta0"))
            payload["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            json.dump(payload, fh, indent=2, sort_keys=True)
    return summary
