"""Checks of the workloads' outputs.

``prepare`` adds to each trajectory record the reference values its checks
compare against, computed apart from the library (``reference.py``) or,
for the criterion-5 estimate, by ``dislodyn.bounds``, which is not timed.
On the numeric workloads it also evaluates the library's h and grad h at
each start, which the field checks compare.
A check then reads one record and returns (value, ok): the measured error
or deviation (None for yes/no checks) and whether it is within tolerance.

Every check carries perturbations of a correct output that it must reject;
``self_test`` applies them to records that passed.  No check compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref
from workloads import CARDIOID_A, SquareGrid

from dislodyn.bounds import boundary_scenario, default_sigma

# tolerances; README.md gives the measured errors they rest on
TIME_RTOL = 1e-5            # DOP853 reference against library corrected time
ENERGY_RTOL = 1e-9          # allowed rise of the energy between stored samples
BOUND_SLACK = 1e-6          # as dislodyn.bounds.verify_against_trajectory
CARDIOID_H_TOL = 1e-3
CARDIOID_GRAD_TOL = 1e-2
APPROACH_DEG = 5.0
FUNNEL_EPS = 8.0            # cusp funnel: osculating radius <= 8 eps_stop
DIAGONAL_TOL = 1e-6
MIRROR_RTOL = 8e-4
SQUARE_H_COEF = 0.2         # tolerance 0.2 * spacing^2 on h
SQUARE_GRAD_COEF = 0.2      # tolerance 0.2 * spacing on grad h
REFERENCE_RUNS = 2          # disk_ensemble runs per round checked with DOP853


@dataclass
class Check:
    name: str
    test: Callable[[dict], tuple]
    perturbations: list = field(default_factory=list)
    applies: Callable[[dict], bool] = lambda rec: True
    # records the self-test may perturb, among those the check passes
    perturbable: Callable[[dict], bool] = lambda rec: True


def _scaled_time(rec):
    rec["time"] = rec["time"] * (1.0 + 1e-3)


def _wrong_kind(rec):
    if rec["kind"] == "boundary":
        rec["kind"], rec["indices"] = "pair", (0, 1)
    else:
        rec["kind"], rec["indices"] = "boundary", (rec["indices"][0],)


def _no_collision(rec):
    rec["kind"], rec["indices"], rec["time"] = "horizon", (), None


def _flipped_grad(rec):
    rec["grad_h"] = -rec["grad_h"]


def _collided(rec):
    return None, rec["kind"] in ("boundary", "pair")


def _at_boundary(rec):
    return None, rec["kind"] == "boundary"


ENDS_IN_COLLISION = Check("ends_in_collision", _collided, [_no_collision])
ENDS_AT_BOUNDARY = Check("ends_at_boundary", _at_boundary, [_wrong_kind])


def _against_reference(rec):
    kind, indices, t_ref = rec["ref"]
    if rec["time"] is None or t_ref is None:
        return None, False
    err = abs(rec["time"] - t_ref) / t_ref
    same = rec["kind"] == kind and tuple(rec["indices"]) == tuple(indices)
    return err, same and err <= TIME_RTOL


DOP853 = Check("dop853_reference", _against_reference,
               [_scaled_time, _wrong_kind], lambda rec: "ref" in rec)


# --- disk_ensemble ----------------------------------------------------------

def _class_d(rec):
    z = rec["start"]
    # n = 2: the first within delta0 of the boundary, the second (the rest
    # of the configuration) farther than gamma0 from it
    return None, (len(z) == 2 and 1.0 - math.hypot(*z[0]) < 0.2
                  and 1.0 - math.hypot(*z[1]) > 0.5)


def _outside_band(rec):
    z = rec["start"].copy()
    z[0] *= (1.0 - 1.5 * 0.2) / math.hypot(*z[0])
    rec["start"] = z


def _within_estimate(rec):
    ok = (rec["kind"] == "boundary" and tuple(rec["indices"]) == (0,)
          and rec["time"] <= rec["bound"] * (1.0 + BOUND_SLACK))
    return (rec["time"] / rec["bound"] if rec["time"] else None), ok


DISK_ENSEMBLE = [
    ENDS_IN_COLLISION,
    Check("class_D", _class_d, [_outside_band]),
    Check("boundary_estimate", _within_estimate, [_wrong_kind],
          lambda rec: rec.get("bound") is not None),
    DOP853,
]


def prepare_disk_ensemble(records, state, seed, r):
    for rec in records:
        z = rec["start"]
        delta, gamma = 1.0 - math.hypot(*z[0]), 1.0 - math.hypot(*z[1])
        rec["bound"] = None
        if 0.0 < delta < gamma:
            report = boundary_scenario(2, 1.0, default_sigma(delta, 1.0),
                                       delta, gamma)
            if report.verdict != "not-applicable":
                rec["bound"] = report.t_collision_bound
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 853]))
    for i in rng.choice(len(records), REFERENCE_RUNS, replace=False):
        rec = records[i]
        rec["ref"] = ref.disk_collision(rec["start"], rec["burgers"], rec["eps"])


# --- disk_many --------------------------------------------------------------

def _energy_decreases(rec):
    e = np.array([ref.disk_energy(z, rec["burgers"]) for z in rec["states"]])
    rise = float(np.max(np.diff(e)))
    return rise, rise <= ENERGY_RTOL * (1.0 + abs(e[0]))


def _reversed_states(rec):
    rec["states"] = rec["states"][::-1].copy()


DISK_MANY = [
    ENDS_IN_COLLISION,
    DOP853,
    Check("energy_decreases", _energy_decreases, [_reversed_states],
          lambda rec: len(rec.get("states", ())) >= 2),
]


def prepare_disk_many(records, state, seed, r):
    for rec in records:
        if "eps" in rec:    # not for a trajectory that raised
            rec["ref"] = ref.disk_collision(rec["start"], rec["burgers"],
                                            rec["eps"])


# --- cardioid_nystrom -------------------------------------------------------

def _cardioid_field(rec):
    err_h = abs(rec["h"] - rec["h_ref"])
    err_g = float(np.max(np.abs(rec["grad_h"] - rec["grad_ref"])))
    return max(err_h, err_g), err_h <= CARDIOID_H_TOL and err_g <= CARDIOID_GRAD_TOL


def _approach_angle(rec):
    zp, zf = rec["states"][-2][0], rec["states"][-1][0]
    v = (zf - zp) / np.linalg.norm(zf - zp)
    deg = math.degrees(math.acos(float(np.clip(v @ rec["normal"], -1.0, 1.0))))
    return deg, deg < APPROACH_DEG


def _off_funnel(rec):
    return (rec["kind"] == "boundary" and "states" in rec
            and rec["osculating_radius"] > FUNNEL_EPS * rec["eps"])


def _turned_last_step(rec):
    s = rec["states"].copy()
    c, d = math.cos(math.radians(10.0)), math.sin(math.radians(10.0))
    step = s[-1][0] - s[-2][0]
    s[-1][0] = s[-2][0] + np.array([c * step[0] - d * step[1],
                                    d * step[0] + c * step[1]])
    rec["states"] = s


CARDIOID = [
    ENDS_AT_BOUNDARY,
    Check("field_vs_conformal_map", _cardioid_field, [_flipped_grad]),
    Check("approach_angle", _approach_angle, [_turned_last_step], _off_funnel),
]


def _library_fields(kernels, records):
    """The evaluator's h and grad h at each start, the outputs checked."""
    for rec in records:
        rec["h"] = float(kernels.h(rec["start"][0]))
        rec["grad_h"] = np.array(kernels.grad_h(rec["start"][0]), float)


def prepare_cardioid(records, state, seed, r):
    _library_fields(state[1], records)
    for rec in records:
        p = rec["start"][0]
        rec["h_ref"] = ref.cardioid_h(p, CARDIOID_A)
        rec["grad_ref"] = ref.cardioid_grad_h(p, CARDIOID_A)
        if "states" in rec:
            _, rec["normal"], rec["osculating_radius"] = ref.cardioid_nearest(
                rec["states"][-1][0], CARDIOID_A)


# --- square_grid ------------------------------------------------------------

def _diagonal(rec):
    z = rec["states"][:, 0]
    if rec["angle_index"] in (10, 50):
        dev = float(np.max(np.abs(z[:, 0] - z[:, 1])))
    else:
        dev = float(np.max(np.abs(z[:, 0] + z[:, 1] - 1.0)))
    return dev, dev <= DIAGONAL_TOL


def _off_diagonal(rec):
    s = rec["states"].copy()
    s[len(s) // 2, 0, 0] += 1e-5
    rec["states"] = s


def _mirror_time(rec):
    if rec["time"] is None or rec["partner_time"] is None:
        return None, False
    err = abs(rec["time"] - rec["partner_time"]) / rec["partner_time"]
    return err, err <= MIRROR_RTOL


def _square_field(rec):
    sp = SquareGrid.spacing
    err_h = abs(rec["h"] - rec["h_ref"])
    err_g = float(np.max(np.abs(rec["grad_h"] - rec["grad_ref"])))
    return (err_h / sp**2, err_h <= SQUARE_H_COEF * sp**2
            and err_g <= SQUARE_GRAD_COEF * sp)


SQUARE = [
    ENDS_AT_BOUNDARY,
    Check("stays_on_diagonal", _diagonal, [_off_diagonal],
          lambda rec: rec["angle_index"] % 20 == 10 and "states" in rec),
    # scaling the later time of a pair by 1 + 1e-3 moves it past the tolerance
    Check("mirror_times_equal", _mirror_time, [_scaled_time],
          lambda rec: "partner_time" in rec,
          lambda rec: rec["time"] >= rec["partner_time"]),
    Check("field_vs_sine_series", _square_field, [_flipped_grad]),
]


def prepare_square(records, state, seed, r):
    _library_fields(state[1], records)
    by_pair = {}
    for rec in records:
        by_pair.setdefault(rec["orbit"], []).append(rec)
        p = rec["start"][0]
        rec["h_ref"] = ref.square_h(p)
        rec["grad_ref"] = ref.square_grad_h(p)
    for a, b in by_pair.values():
        a["partner_time"], b["partner_time"] = b["time"], a["time"]


CHECKS = {
    "disk_ensemble": (DISK_ENSEMBLE, prepare_disk_ensemble),
    "disk_many": (DISK_MANY, prepare_disk_many),
    "cardioid_nystrom": (CARDIOID, prepare_cardioid),
    "square_grid": (SQUARE, prepare_square),
}


def run_checks(workload: str, records: list[dict]) -> tuple[int, dict]:
    """Apply the workload's checks; returns (failed trajectories, per-check
    summary with applied and failed counts and the worst value seen)."""
    checks, _ = CHECKS[workload]
    summary = {c.name: {"applied": 0, "failed": 0, "worst": None} for c in checks}
    failed = 0
    for rec in records:
        bad = []
        for c in checks:
            if not c.applies(rec):
                continue
            value, ok = c.test(rec)
            s = summary[c.name]
            s["applied"] += 1
            if value is not None and (s["worst"] is None or value > s["worst"]):
                s["worst"] = value
            if not ok:
                s["failed"] += 1
                bad.append(c.name)
        rec["failed_checks"] = bad
        failed += bool(bad) or rec["kind"] == "error"
    return failed, summary


def self_test(workload: str, records: list[dict]) -> dict:
    """Perturb a passing record for every check and perturbation; the check
    must reject it.  Returns {check/perturbation: "rejected" | "ACCEPTED" |
    "untested"}, untested when no record the check applies to passed."""
    checks, _ = CHECKS[workload]
    out = {}
    for c in checks:
        for perturb in c.perturbations:
            key = f"{c.name}/{perturb.__name__.lstrip('_')}"
            out[key] = "untested"
            for rec in records:
                if not (c.applies(rec) and c.test(rec)[1] and c.perturbable(rec)):
                    continue
                bent = dict(rec)
                perturb(bent)
                out[key] = "ACCEPTED" if c.test(bent)[1] else "rejected"
                break
    return out
