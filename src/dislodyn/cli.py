"""Command-line interface: simulate | ensemble | kernel-probe | bounds | oracle.

All subcommands read a JSON config (see README for the schema), write
plot-ready CSV/JSON into --out, and print a JSON summary to stdout.  Errors
exit nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import oracles as oracles_mod
from .errors import PointOutside, TargetTooCloseToBoundary
from .experiments import (build_domain, build_kernels, load_config,
                          run_ensemble, run_simulation, write_json)

__all__ = ["main"]


def _fail(exc: BaseException) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(sorted(payload))
        w.writerow([payload[k] for k in sorted(payload)])
        print(buf.getvalue(), end="")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = args.out or "out"
    traj, side = run_simulation(cfg, out_dir=out)
    if side["termination"]["kind"] == "failure":
        # collisions and horizons are clean terminations; a dead solver is not
        print(json.dumps({"error": "StepFailure",
                          "message": side["termination"]["reason"],
                          "out": out}), file=sys.stderr)
        return 2
    _emit({"termination": side["termination"]["kind"],
           "raw_time": side["raw_time"],
           "corrected_time": side["corrected_time"],
           "samples": len(traj.times),
           "out": out}, args.format)
    return 0


def cmd_ensemble(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = args.out or "out"
    summary = run_ensemble(cfg, out_dir=out, workers=args.workers)
    payload = summary.to_dict(delta0=cfg["sampling"].get("delta0"))
    payload["out"] = out
    _emit(payload, args.format)
    return 0


def cmd_kernel_probe(args) -> int:
    cfg = load_config(args.config)
    domain = build_domain(cfg["domain"])
    kernels = build_kernels(domain, cfg["kernel"])
    probe = cfg.get("probe", {})
    pts = np.asarray(probe.get("points", []), dtype=float).reshape(-1, 2)
    source = probe.get("source")
    if source is not None:
        source = np.asarray(source, float)
    # checked once: an outside source refuses every row
    source_inside = source is None or domain.contains(source)
    resolution, margin = kernels.resolution, kernels.min_eval_distance
    rows = []
    for p in pts:
        row = {"x": float(p[0]), "y": float(p[1]), "backend": kernels.backend,
               "resolution": resolution}
        try:
            if not source_inside:
                raise PointOutside(f"source {source} outside the domain")
            if not domain.contains(p):
                raise PointOutside(f"{p} outside the domain")
            if margin > 0.0 and domain.probe(p).distance < margin:
                raise TargetTooCloseToBoundary(
                    f"{p} within the resolution margin {margin:g}")
            row["h"] = kernels.h(p)
            g = kernels.grad_h(p)
            row["grad_h_x"], row["grad_h_y"] = float(g[0]), float(g[1])
            row["k"] = kernels.k(p, source) if source is not None else row["h"]
            row["refused"] = ""
        except Exception as exc:  # per-point refusals recorded, not fatal
            row.setdefault("h", "")
            row.setdefault("k", "")
            row.setdefault("grad_h_x", "")
            row.setdefault("grad_h_y", "")
            row["refused"] = type(exc).__name__
        rows.append(row)
    header = ["x", "y", "k", "h", "grad_h_x", "grad_h_y", "backend",
              "resolution", "refused"]
    out = args.out
    if out:
        os.makedirs(out, exist_ok=True)
        dest = open(os.path.join(out, "kernel_probe.csv"), "w", newline="",
                    encoding="utf-8")
    else:
        dest = sys.stdout
    w = csv.writer(dest)
    w.writerow(header)
    for row in rows:
        w.writerow([row[k] for k in header])
    if out:
        dest.close()
        print(json.dumps({"points": len(rows), "out": out}))
    return 0


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    report = bounds_mod.scenario_report(cfg.get("bounds", {}), n=None,
                                        diam=math.inf)
    payload = report.to_dict()
    if args.out:
        write_json(args.out, "bounds.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.get("oracle", {})
    case = spec.get("case")
    if case == "halfplane_single":
        result = oracles_mod.halfplane_single(spec["delta"])
    elif case == "disk_single":
        result = oracles_mod.disk_single(spec["delta"])
    elif case == "disk_symmetric_pair":
        result = oracles_mod.disk_symmetric_pair(spec["r0"])
    elif case == "plane_pair":
        result = oracles_mod.plane_pair(spec["z0"], spec.get("b1b2", -1))
    else:
        raise ValueError(f"unknown oracle case {case!r}")
    payload = {
        "case": result.case,
        "classification": result.classification,
        "collision_time": result.collision_time,
        "parameters": {k: v for k, v in result.detail.items()
                       if isinstance(v, (int, float, list, str))},
    }
    if spec.get("compare"):
        traj, side = run_simulation(cfg, out_dir=None)
        simulated = side["corrected_time"]
        payload["simulated_time"] = simulated
        if result.collision_time and simulated is not None:
            payload["relative_error"] = abs(simulated - result.collision_time) \
                / result.collision_time
        payload["simulated_termination"] = side["termination"]["kind"]
    if args.out:
        write_json(args.out, "oracle.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dislodyn",
        description="Gradient-flow dynamics of 2D screw dislocations")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn in (("simulate", cmd_simulate), ("ensemble", cmd_ensemble),
                     ("kernel-probe", cmd_kernel_probe),
                     ("bounds", cmd_bounds), ("oracle", cmd_oracle)):
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=fn)
    # each flag only where its command reads it
    for name in ("simulate", "ensemble"):
        commands[name].add_argument("--seed", type=int, default=None,
                                    help="override the master seed")
        commands[name].add_argument("--format", choices=("csv", "json"),
                                    default="json")
    commands["ensemble"].add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured failure for scripting
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
