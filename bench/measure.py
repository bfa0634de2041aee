"""Re-measure the errors the checks' tolerances rest on.

    python3 bench/measure.py [disk|cardioid|square|all]

Prints, for the current library: the DOP853 agreement of the disk runs, the
cardioid's Nystrom field error against the conformal map (also at 1024 and
2048 nodes), the square grid's field error against the sine series at two
spacings, and the spread of collision times between symmetric square
starts.  README.md records the figures; the tolerances in checks.py keep a
margin above them.  Takes about two minutes for "all".
"""

import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from dislodyn import experiments  # noqa: E402


def disk():
    many = W.WORKLOADS["disk_many"]
    state = many.setup()
    worst = 0.0
    for rec in many.run(state, many.inputs(state, many.default_seed, 0)):
        kind, idx, t = ref.disk_collision(rec["start"], rec["burgers"], rec["eps"])
        worst = max(worst, abs(rec["time"] - t) / t)
        print(f"disk_many: {rec['kind']} {rec['indices']} T={rec['time']:.9f}; "
              f"DOP853 {kind} {idx} T={t:.9f}")
    ens = W.WORKLOADS["disk_ensemble"]
    state = ens.setup()
    for rec in ens.run(state, ens.inputs(state, ens.default_seed, 0))[:20]:
        t = ref.disk_collision(rec["start"], rec["burgers"], rec["eps"])[2]
        worst = max(worst, abs(rec["time"] - t) / t)
    print(f"disk: worst relative time difference to DOP853 {worst:.2e}")


def cardioid():
    a = W.CARDIOID_A
    domain = experiments.build_domain({"kind": "parametric", "builtin": "cardioid", "a": a})
    w = W.WORKLOADS["cardioid_nystrom"]
    _, kernels, eq = w.setup()
    err_h = err_g = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi, 160, endpoint=False):
        p = eq + w.radius * np.array([math.cos(t), math.sin(t)])
        err_h = max(err_h, abs(kernels.h(p) - ref.cardioid_h(p, a)))
        err_g = max(err_g, float(np.max(np.abs(kernels.grad_h(p) - ref.cardioid_grad_h(p, a)))))
    print(f"cardioid ring (512 nodes): worst |h error| {err_h:.2e}, worst grad h error {err_g:.2e}")
    for nodes in (512, 1024, 2048):
        ev = experiments.build_kernels(domain, {"backend": "integral", "boundary_nodes": nodes})
        errs = [abs(ev.h(p) - ref.cardioid_h(p, a)) for p in ((0.2, 0.4), (0.5, 0.5), (0.7, 0.55))]
        print(f"cardioid {nodes} nodes: h error at (0.2,0.4) {errs[0]:.1e}, "
              f"(0.5,0.5) {errs[1]:.1e}, (0.7,0.55) {errs[2]:.1e}")


def square():
    w = W.WORKLOADS["square_grid"]
    state = w.setup()
    domain, kernels = state
    ring = [0.5 + w.radius * np.array([math.cos(t), math.sin(t)])
            for t in np.arange(80) * 2.0 * math.pi / 80]
    for sp in (1 / 64, 1 / 128):
        ev = experiments.build_kernels(domain, {"backend": "grid", "grid_spacing": sp})
        centre = abs(ev.h((0.5, 0.5)) - ref.square_h((0.5, 0.5)))
        eh = max(abs(ev.h(p) - ref.square_h(p)) for p in ring)
        eg = max(float(np.max(np.abs(ev.grad_h(p) - ref.square_grad_h(p)))) for p in ring)
        print(f"square spacing 1/{round(1 / sp)}: h error at centre {centre:.1e}; "
              f"on the ring worst h error / spacing^2 {eh / sp**2:.3f}, "
              f"worst grad h error / spacing {eg / sp:.3f}")
    times = {}
    for j in range(80):
        rec = W.run_trajectory(domain, kernels, w.params, [ring[j]], [1])
        times[j] = rec["time"]
    mirror = max(abs(times[j] - times[W.square_mirror(j)]) / times[j] for j in range(80))
    orbit = max((max(times[j] for j in W.square_orbit(k))
                 - min(times[j] for j in W.square_orbit(k))) / times[k] for k in range(11))
    used = max(abs(times[a] - times[b]) / times[a]
               for (_, a), (_, b) in zip(*[iter(w.inputs(state, 0, 0))] * 2))
    print(f"square times: worst relative spread between mirror images in x = y {mirror:.2e} "
          f"(pairs the workload runs {used:.2e}), within whole symmetry orbits {orbit:.2e}")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    for name, fn in (("disk", disk), ("cardioid", cardioid), ("square", square)):
        if what in (name, "all"):
            fn()
