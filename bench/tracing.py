"""Per-layer tracing of dislodyn from outside the library.

Inside ``with Tracer() as tracer:`` the public calls into each layer are
wrapped: module functions of ``experiments`` and ``dynamics`` are replaced
by wrappers, and the kernel evaluators' and domains' methods by wrapping
class attributes.  Every call that enters a layer from outside it records
a span (name, start, end, parent span).  Calls a layer makes into itself
record nothing, so each span is one crossing of a layer boundary.  The
originals are restored when the block exits.

Spans are kept in flat in-memory arrays and written by ``save`` when the
run ends; ``metrics`` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from dislodyn import (dynamics, experiments, geometry, kernels_analytic,
                      kernels_numeric)
from dislodyn.errors import DislodynError

LAYERS = ("experiments", "dynamics", "mechanics", "kernels", "geometry")

EVALUATORS = (kernels_analytic.DiskKernels, kernels_analytic.ExteriorDiskKernels,
              kernels_analytic.HalfPlaneKernels, kernels_analytic.PlaneKernels,
              kernels_numeric.NystromKernels, kernels_numeric.GridKernels)
# position of the source point (the point whose solution the evaluator
# needs) among each method's arguments, self included
KERNEL_SOURCE_ARG = {"G": 2, "grad_x_G": 2, "grad_y_G": 1, "k": 2,
                     "grad_x_k": 2, "h": 1, "grad_h": 1}
DOMAINS = (geometry.Disk, geometry.ExteriorDisk, geometry.HalfPlane,
           geometry.Plane, geometry.SmoothCurveDomain,
           geometry.AxisAlignedPolygon)


def source_key(y) -> tuple:
    """The key the numeric evaluators' solution cache files a source under."""
    return (round(float(y[0]), 12), round(float(y[1]), 12))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth = dict.fromkeys(LAYERS, 0)
        self._restore: list = []
        self.rhs_evals = 0
        self.accepted_steps = 0
        self.attempted_steps = 0
        self.poisoned_stages = 0
        self.sources = 0
        self.distinct_sources: set = set()

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, layer, name, fn, before=None, after=None, on_error=None):
        key = f"{layer}.{name}"
        if key not in self._codes:
            self._codes[key] = len(self.names)
            self.names.append(key)
        code = self._codes[key]
        depth, stack = self._depth, self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            depth[layer] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except DislodynError:
                if on_error is not None:
                    on_error()
                raise
            finally:
                ends[sid] = clock()
                depth[layer] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr, layer, name, **hooks):
        had = attr in vars(owner)
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original if had else None))
        setattr(owner, attr, self._wrap(layer, name, original, **hooks))

    def _count_trajectory(self, traj):
        stats = traj.stats
        self.rhs_evals += stats["nfev"]
        self.accepted_steps += stats.get("accepted_steps", 0)
        self.attempted_steps += stats.get("attempted_steps_estimate", 0)

    def _poisoned(self):
        self.poisoned_stages += 1

    def _source_counter(self, index):
        def count(args):
            self.sources += 1
            self.distinct_sources.add(source_key(args[index]))
        return count

    def __enter__(self):
        for fn in ("sample_class_D", "build_configuration", "build_domain",
                   "build_kernels"):
            self._patch(experiments, fn, "experiments", fn)
        # integrate as the bench and run_ensemble call it
        traced_integrate = self._wrap("dynamics", "integrate", dynamics.integrate,
                                      after=self._count_trajectory)
        for module in (dynamics, experiments):
            self._restore.append((module, "integrate", module.integrate))
            module.integrate = traced_integrate
        # forces as dynamics calls them
        self._patch(dynamics, "forces_from_arrays", "mechanics", "forces",
                    on_error=self._poisoned)
        for cls in EVALUATORS:
            self._patch(cls, "__init__", "kernels", "build")
            for method, index in KERNEL_SOURCE_ARG.items():
                self._patch(cls, method, "kernels", method,
                            before=self._source_counter(index))
        for cls in DOMAINS:
            for method in ("signed_distance", "probe"):
                self._patch(cls, method, "geometry", method)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        return False

    # --- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.uint16),
                "parent": np.frombuffer(self.parent, np.int64),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def metrics(self) -> dict:
        """Per-layer totals over every span recorded."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        names = a["names"][a["name"]] if len(dur) else np.array([], str)
        layer = np.array([n.split(".")[0] for n in a["names"]])[a["name"]] \
            if len(dur) else np.array([], str)

        def total(mask):
            return float(dur[mask].sum())

        integrate = names == "dynamics.integrate"
        in_integrate = np.isin(a["parent"], np.flatnonzero(integrate))
        forces = names == "mechanics.forces"
        kernel_build = names == "kernels.build"
        kernel_call = (layer == "kernels") & ~kernel_build
        forces_calls = int(forces.sum())
        return {
            "experiments.inputs_s": total(np.isin(names, [
                "experiments.sample_class_D", "experiments.build_configuration"])),
            "experiments.build_s": total(np.isin(names, [
                "experiments.build_domain", "experiments.build_kernels"])),
            "dynamics.integrate_s": total(integrate),
            "dynamics.self_s": total(integrate) - total(in_integrate),
            "dynamics.rhs_evals": self.rhs_evals,
            "dynamics.accepted_steps": self.accepted_steps,
            "dynamics.step_acceptance": self.accepted_steps / max(1, self.attempted_steps),
            "dynamics.poisoned_stages": self.poisoned_stages,
            "mechanics.forces_calls": forces_calls,
            "mechanics.forces_s": total(forces),
            "mechanics.forces_us_per_call": 1e6 * total(forces) / max(1, forces_calls),
            "kernels.build_s": total(kernel_build),
            "kernels.calls": int(kernel_call.sum()),
            "kernels.s": total(kernel_call),
            "kernels.sources": self.sources,
            "kernels.distinct_sources": len(self.distinct_sources),
            "geometry.signed_distance_calls": int((names == "geometry.signed_distance").sum()),
            "geometry.signed_distance_s": total(names == "geometry.signed_distance"),
            "geometry.probe_calls": int((names == "geometry.probe").sum()),
            "geometry.probe_s": total(names == "geometry.probe"),
        }
