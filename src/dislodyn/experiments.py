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
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from .errors import RejectionOverflow, StartTooClose
from .geometry import (AxisAlignedPolygon, Configuration, Disk, Domain,
                       ExteriorDisk, HalfPlane, Plane, SmoothCurveDomain,
                       cardioid_domain, in_class_D)
from .kernels_analytic import KernelEvaluator, analytic_kernels
from .kernels_numeric import GridKernels, NumericKernelConfig, NystromKernels
from .dynamics import IntegrationParams, Trajectory, integrate
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
    "write_json",
    "RNG_DESCRIPTION",
]

RNG_DESCRIPTION = "PCG64 via numpy SeedSequence([master_seed, run_index])"

_DEFAULTS = {
    "domain": {"kind": "disk"},
    "dislocations": None,
    "sampling": None,
    "mobility": {"kind": "identity"},
    "integration": asdict(IntegrationParams()),
    "kernel": {"backend": "auto", **asdict(NumericKernelConfig())},
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


def write_json(out_dir: str, name: str, payload: dict) -> None:
    """Write payload as sorted, indented JSON to out_dir/name."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


_DOMAINS = {"disk": Disk, "exterior_disk": ExteriorDisk,
            "half_plane": HalfPlane, "plane": Plane}


def build_domain(spec: dict) -> Domain:
    kind = spec.get("kind", "disk")
    # JSON lists become the tuples the domains hold
    spec = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    if kind in _DOMAINS:
        return _from_spec(_DOMAINS[kind], spec)
    if kind == "polygon":
        return AxisAlignedPolygon(spec["vertices"])
    if kind == "parametric":
        if "table" in spec:
            return SmoothCurveDomain.from_table(spec["table"],
                                                rho=spec.get("rho"))
        builtin = spec.get("builtin", "cardioid")
        if builtin != "cardioid":
            raise ValueError(f"unknown builtin curve {builtin!r}")
        return cardioid_domain(**{k: spec[k] for k in ("a", "offset")
                                  if k in spec})
    raise ValueError(f"unknown domain kind {kind!r}")


def _from_spec(cls, spec: dict):
    """The dataclass cls from the spec's keys that name its fields; other
    keys are ignored and missing ones take the dataclass defaults."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in spec.items() if k in names})


_BACKENDS = ("auto", "analytic", "integral", "grid")


def build_kernels(domain: Domain, spec: dict) -> KernelEvaluator:
    """The evaluator the kernel spec names; ``auto`` takes the closed form
    where there is one, the Nystrom solver on a smooth curve and the grid
    otherwise."""
    backend = spec.get("backend", "auto")
    if backend not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}; expected one "
                         f"of {', '.join(_BACKENDS)}")
    if backend == "auto":
        backend = ("analytic" if isinstance(domain, (Disk, ExteriorDisk,
                                                     HalfPlane, Plane))
                   else "integral" if isinstance(domain, SmoothCurveDomain)
                   else "grid")
    if backend == "analytic":
        return analytic_kernels(domain)
    numeric = NystromKernels if backend == "integral" else GridKernels
    return numeric(domain, _from_spec(NumericKernelConfig, spec))


def build_mobility(spec: dict):
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return mobility_identity
    if kind == "glide":
        glide = GlideSet(tuple(tuple(g) for g in spec["directions"]))
        return lambda f: mobility_glide(f, glide)
    raise ValueError(f"unknown mobility {kind!r}")


def build_params(spec: dict) -> IntegrationParams:
    return _from_spec(IntegrationParams, spec)


def _run_rng(seed, run_index: int) -> np.random.Generator:
    """The generator of run ``run_index``; see ``RNG_DESCRIPTION``."""
    return np.random.default_rng(np.random.SeedSequence([seed, run_index]))


def build_configuration(cfg: dict, domain: Domain,
                        rng: np.random.Generator | None = None) -> Configuration:
    if cfg.get("dislocations"):
        positions = [d["position"] for d in cfg["dislocations"]]
        burgers = [d.get("burgers", 1) for d in cfg["dislocations"]]
        return Configuration.from_arrays(positions, burgers)
    if not cfg.get("sampling"):
        raise ValueError("config needs either dislocations or sampling")
    if rng is None:
        rng = _run_rng(cfg.get("seed", 0), 0)
    return _sample(cfg["sampling"], domain, rng)


def _sample(samp: dict, domain: Domain,
            rng: np.random.Generator) -> Configuration:
    """Draw the configuration a ``sampling`` spec describes."""
    if samp.get("class", "D") != "D":
        raise ValueError(f"sampling.class must be 'D', got {samp['class']!r}")
    return sample_class_D(rng, domain, samp.get("n", 2), samp["delta0"],
                          samp["gamma0"],
                          **{k: samp[k] for k in ("burgers_first", "burgers_rest")
                             if k in samp})


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
    if n < 1:
        raise ValueError(f"sampling n must be >= 1, got {n!r}")
    points = []
    tries = 0
    while len(points) < n:
        tries += 1
        if tries > max_tries or (tries >= 10_000
                                 and len(points) < 1e-4 * tries):
            raise RejectionOverflow(
                f"sampling acceptance below 1e-4 ({len(points)}/{tries})")
        p = _uniform_in_disk(rng, domain)
        d = domain.probe(p).distance
        if (d < delta0) if not points else (
                d > gamma0 and all(np.linalg.norm(p - q) > gamma0
                                   for q in points[1:])):
            points.append(p)
    burgers = [burgers_first] + [
        int(rng.choice((-1, 1))) if burgers_rest == "random" else int(burgers_rest)
        for _ in range(n - 1)]
    config = Configuration.from_arrays(points, burgers)
    assert in_class_D(config, domain, delta0, gamma0)
    return config


def _dislocation_columns(n: int) -> list[str]:
    return [f"{c}{i}" for i in range(1, n + 1) for c in "xyb"]


def _dislocation_cells(positions, burgers) -> list[str]:
    """The x1, y1, b1, ..., xn, yn, bn cells of one configuration."""
    return [v for (x, y), b in zip(positions, burgers)
            for v in (repr(float(x)), repr(float(y)), str(int(b)))]


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + _dislocation_columns(traj.states.shape[1]))
        for t, z in zip(traj.times, traj.states):
            w.writerow([repr(float(t))] + _dislocation_cells(z, traj.burgers))


def _termination_dict(term) -> dict:
    out = {"kind": term.kind}
    for f in fields(term):
        value = getattr(term, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def trajectory_sidecar(traj: Trajectory, params: IntegrationParams,
                       seed=None, extra: dict | None = None) -> dict:
    term = _termination_dict(traj.termination)
    side = {
        "termination": term,
        "raw_time": term.get("stop_time"),
        "corrected_time": term.get("corrected_time"),
        "event_indices": [term[k] for k in ("index", "i", "j") if k in term],
        # strict JSON: a non-finite value such as t_max = inf is written "inf"
        "params": bounds_mod._json_floats({**asdict(params),
                                           "eps_stop": traj.eps_stop}),
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
    config = build_configuration(cfg, domain, _run_rng(cfg["seed"], 0))
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
        write_json(out_dir, "trajectory.json", side)
        write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
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
            nbins = max(1, int(math.ceil(max(times) / self.bin_width + 1e-12)))
            counts = [0] * nbins
            for t in times:
                counts[min(int(t / self.bin_width), nbins - 1)] += 1
            self.bin_counts = counts

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
    # every run samples, even when the config also lists dislocations
    config = _sample(cfg["sampling"], domain, _run_rng(cfg["seed"], run_index))
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
    # refused before the first run, not after the last
    n_runs, width = cfg["ensemble_size"], cfg["histogram_bin_width"]
    if not (isinstance(n_runs, numbers.Integral) and n_runs >= 1):
        raise ValueError(f"ensemble_size must be an integer >= 1, got {n_runs!r}")
    if not 0 < width < math.inf:
        raise ValueError(
            f"histogram_bin_width must be finite and positive, got {width!r}")
    jobs = [(cfg, i) for i in range(n_runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_ensemble_worker, jobs, chunksize=8))
    else:
        records = [_ensemble_worker(j) for j in jobs]
    records.sort(key=lambda r: r["run"])
    summary = EnsembleSummary(records, width)

    if out_dir is not None:
        payload = summary.to_dict(delta0=cfg["sampling"].get("delta0"))
        payload["created"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        write_json(out_dir, "summary.json", payload)
        with open(os.path.join(out_dir, "runs.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            n = len(records[0]["initial"]) if records else 0
            w.writerow(["run", "kind", "raw_time", "corrected_time"]
                       + _dislocation_columns(n) + ["n_samples"])
            for r in records:
                w.writerow([
                    r["run"], r["termination"]["kind"],
                    "" if r["raw_time"] is None else repr(float(r["raw_time"])),
                    "" if r["corrected_time"] is None
                    else repr(float(r["corrected_time"])),
                    *_dislocation_cells(r["initial"], r["burgers"]),
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
    return summary
