"""Benchmark of dislodyn, one workload per call.

    python3 bench/run.py --workload disk_ensemble --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the library is imported from ``src/`` next to this
directory.  ``--trace 0`` runs timed rounds for about ``--seconds`` and
reports the end-to-end metrics, timed at a reference machine speed
(``speed.py``); ``--trace 1`` runs one round untraced and
the same round traced and reports the per-layer metrics.  Either way every
trajectory is checked (``checks.py``) and the checks are tested on
perturbed outputs.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  README.md has the
details.
"""

import os
import sys

# one BLAS thread and one worker: steadier figures on a small shared box
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("disk_ensemble", "disk_many", "cardioid_nystrom", "square_grid")
SETUP_PROBES = 5
TRACE_ROUNDS = 2

END_TO_END_UNITS = {"traj_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "experiments.inputs_s": "s", "experiments.build_s": "s",
    "dynamics.integrate_s": "s", "dynamics.self_s": "s",
    "dynamics.rhs_evals": "count", "dynamics.accepted_steps": "count",
    "dynamics.step_acceptance": "ratio", "dynamics.poisoned_stages": "count",
    "mechanics.forces_calls": "count", "mechanics.forces_s": "s",
    "mechanics.forces_us_per_call": "us",
    "kernels.build_s": "s", "kernels.calls": "count", "kernels.s": "s",
    "kernels.sources": "count", "kernels.distinct_sources": "count",
    "geometry.signed_distance_calls": "count", "geometry.signed_distance_s": "s",
    "geometry.probe_calls": "count", "geometry.probe_s": "s",
    "trace.overhead": "ratio",
}


def load_library():
    """Import the workloads against ``src/dislodyn`` of this checkout only."""
    package = os.path.join(SRC, "dislodyn", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"bench: no library at {package}; run from a full checkout")
    sys.path[:0] = [SRC, BENCH]
    import dislodyn
    import workloads

    if os.path.dirname(os.path.abspath(dislodyn.__file__)) != os.path.dirname(package):
        sys.exit(f"bench: imported dislodyn from {dislodyn.__file__}, not {SRC}")
    return workloads


def cold_setup_s(name: str) -> float:
    """Median cold start over SETUP_PROBES fresh interpreters, each at the
    reference speed (``speed.py``)."""
    probe = os.path.join(BENCH, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, name], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def timed_rounds(w, state, seed: int, seconds: float):
    """Whole rounds while the next one is expected to end within ``seconds``
    of the run (at least one), each timed under a speed sampler.  Returns
    [(round, records, wall seconds, seconds at the reference speed)]."""
    import speed

    rounds = []
    begin = time.perf_counter()
    while True:
        r = len(rounds)
        inputs = w.inputs(state, seed, r)
        with speed.Sampler() as sampler:
            records = w.run(state, inputs)
        rounds.append((r, records, sampler.work_s, sampler.reference_s()))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def check_rounds(checks, w, rounds, seed: int) -> tuple[int, dict]:
    """Prepare references, run the checks and their self-test (untimed)."""
    _, prepare = checks.CHECKS[w.name]
    records = []
    for r, recs, state in rounds:
        prepare(recs, state, seed, r)
        records += recs
    failed, summary = checks.run_checks(w.name, records)
    return failed, {"checks": summary,
                    "self_test": checks.self_test(w.name, records),
                    "errors": [rec["error"] for rec in records if "error" in rec][:5],
                    "attempted": len(records)}


def run_timed(w, seed: int, seconds: float):
    state = w.setup()
    setup_s = cold_setup_s(w.name)
    rounds = timed_rounds(w, state, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # median over rounds, which all hold the same number of trajectories,
    # of each round's rate at the reference speed (speed.py)
    traj_per_s = statistics.median(len(recs) / ref for _, recs, _, ref in rounds)
    metrics = {"traj_per_s": traj_per_s, "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb}
    detail = {"rounds": len(rounds), "round_s": [dt for _, _, dt, _ in rounds],
              "round_reference_s": [ref for _, _, _, ref in rounds],
              "wall_traj_per_s": statistics.median(
                  len(recs) / dt for _, recs, dt, _ in rounds)}
    return metrics, [(r, recs, state) for r, recs, _, _ in rounds], detail


def run_traced(w, seed: int, path: str):
    """The first TRACE_ROUNDS rounds untraced, then the same rounds traced
    on a fresh set-up, which the trace covers too."""
    from tracing import Tracer

    state = w.setup()
    inputs = [w.inputs(state, seed, r) for r in range(TRACE_ROUNDS)]
    start = time.perf_counter()
    plain = [w.run(state, inp) for inp in inputs]
    plain_s = time.perf_counter() - start
    with Tracer() as tracer:
        traced_state = w.setup()
        start = time.perf_counter()
        traced = [w.run(traced_state, inp) for inp in inputs]
        traced_s = time.perf_counter() - start
    tracer.save(path)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = traced_s / plain_s
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.start),
              "trace_file": os.path.relpath(path, ROOT)}
    rounds = [(r, recs, state) for r, recs in enumerate(plain)]
    rounds += [(r, recs, traced_state) for r, recs in enumerate(traced)]
    return metrics, rounds, detail


def run_one(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    workloads = load_library()
    import checks

    w = workloads.WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, rounds, detail = run_traced(w, seed, os.path.join(OUT, f"trace-{name}.npz"))
        units = PER_LAYER_UNITS
    else:
        metrics, rounds, detail = run_timed(w, seed, seconds)
        units = END_TO_END_UNITS
    failed, report = check_rounds(checks, w, rounds, seed)
    correct = "ACCEPTED" not in report["self_test"].values()
    result = {"correct": correct, "attempted": report["attempted"], "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, **detail,
                   **report, "result": result}, fh, indent=1, default=str)
    print(f"{name} seed {seed}: {detail}")
    for check, s in report["checks"].items():
        print(f"  {check}: {s['applied']} applied, {s['failed']} failed, worst {s['worst']}")
    print(f"  self-test: {report['self_test']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own, see README.md)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    # each workload in its own fresh interpreter, one after another
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
