"""Quantitative force and collision-time estimates, as evaluable functions.

Two scenario builders assemble full reports:

* ``boundary_scenario`` -- one dislocation within delta0 of the boundary,
  all others gamma0-separated: collision-time upper bound
  2 pi delta0^2 / (1 - c(delta0)), the safe window T(gamma), and the
  sufficiency inequality guaranteeing the boundary hit happens first.
* ``pair_scenario`` -- a close opposite pair, everything else
  eta0-separated: bound pi zeta0^2 / (2 (1 - c(zeta0))), the safe window
  T(eta) with its logarithmic term, and the corresponding sufficiency
  inequality.

Invalid parameter regimes are never clamped: reports carry
verdict = "not-applicable" plus the violated precondition names.  The
pair-collision time bound uses the denominator
(eta0^2 - 8 zeta0^2 - 4 (n-2) zeta0 eta0), the form matching the decay
rate the pair dynamics actually obeys; the looser variant
(eta0^2 - zeta0^2 - 2 (n-2) zeta0 eta0) is reported alongside as
``t_bound_alt``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (PreconditionViolated, ScenarioMismatch, UnboundedDomain)
from .geometry import Domain
from .dynamics import BoundaryCollision, PairCollision, Trajectory

__all__ = [
    "c_sigma",
    "grad_G_bounds",
    "grad_h_far_bound",
    "grad_h_near_bound",
    "fatal_force_bound",
    "boundary_scenario",
    "pair_scenario",
    "scenario_report",
    "BoundReport",
    "verify_against_trajectory",
    "default_sigma",
]


def c_sigma(sigma: float) -> float:
    """Near-boundary gradient constant; blows up as sigma -> 1."""
    if not 0.0 < sigma < 1.0:
        raise PreconditionViolated("sigma must lie in (0, 1)")
    return math.log(2.0) + (2.0 * sigma * sigma - 9.0 * sigma + 8.0) / (
        4.0 * (1.0 - sigma) * (2.0 - sigma) ** 2)


def default_sigma(delta0: float, rho: float) -> float:
    """Default sigma = max(delta0/rho, 0.5), clamped into (0, 1)."""
    s = 0.5 if not math.isfinite(rho) else max(delta0 / rho, 0.5)
    return min(s, 1.0 - 1e-9)


@dataclass(frozen=True)
class GradGBounds:
    """Right-hand sides of the two Green's-gradient estimates.

    ``bound_x`` controls |grad_x G(x, y)| and needs d_1(x) < rho and
    d_1(x) < |x - y|; ``bound_y`` controls |grad_y G(x, y)| and only needs
    x != y.  A NaN entry means that bound's precondition failed; the flags
    say which.
    """

    bound_x: float
    bound_y: float
    x_precondition_ok: bool
    y_precondition_ok: bool


def grad_G_bounds(x, y, domain: Domain) -> GradGBounds:
    x = np.asarray(x, float).reshape(2)
    y = np.asarray(y, float).reshape(2)
    rho = domain.disk_radius
    sep = float(np.linalg.norm(x - y))

    y_ok = sep > 0
    if y_ok:
        d1y = domain.probe(y).distance
        bound_y = 1.0 / (2.0 * math.pi * sep) + 1.0 / (2.0 * math.pi * d1y)
    else:
        bound_y = math.nan

    probe = domain.probe(x)
    d1x = probe.distance
    x_ok = d1x < rho and d1x < sep
    if x_ok and math.isfinite(rho):
        x_ext = probe.point + rho * probe.normal
        num = float((y - x_ext) @ (y - x_ext)) - rho * rho
        bound_x = 2.0 * num * (rho + d1x) / (
            math.pi * rho * rho * (sep - d1x) ** 2)
    elif x_ok:
        # flat-boundary limit rho -> inf of the exterior-disk comparison
        d1y = domain.probe(y).distance
        bound_x = 4.0 * d1y / (math.pi * (sep - d1x) ** 2)
    else:
        bound_x = math.nan
    return GradGBounds(bound_x, bound_y, x_ok, y_ok)


def grad_h_far_bound(x, domain: Domain) -> float:
    """Far-field bound 2 max(-log d_1, lambda) / (pi d_1); bounded domains only."""
    if not domain.bounded:
        raise UnboundedDomain("far-field h bound needs a finite diameter")
    d1 = domain.probe(np.asarray(x, float)).distance
    lam = abs(math.log(domain.diameter / 2.0))
    return 2.0 * max(-math.log(d1), lam) / (math.pi * d1)


def grad_h_near_bound(x, domain: Domain, sigma: float) -> tuple[np.ndarray, float]:
    """Normal-singularity prediction -nu/(2 pi d_1) and its error radius.

    Requires d_1(x) <= sigma * rho; the radius C_sigma/(pi rho) vanishes in
    the flat-boundary limit rho -> inf.
    """
    cs = c_sigma(sigma)
    rho = domain.disk_radius
    probe = domain.probe(np.asarray(x, float))
    if not probe.distance <= sigma * rho:
        raise PreconditionViolated(
            f"need d_1(x) <= sigma*rho, got {probe.distance:g} > {sigma * rho:g}")
    prediction = -probe.normal / (2.0 * math.pi * probe.distance)
    radius = 0.0 if math.isinf(rho) else cs / (math.pi * rho)
    return prediction, radius


def c_n_sigma_gamma(n: int, rho: float, sigma: float, gamma: float | None) -> float:
    """The fatal-force constant C_{n, sigma}(gamma)."""
    cs = c_sigma(sigma)
    if n == 1:
        return cs
    if gamma is None:
        raise PreconditionViolated("gamma is required for n >= 2")
    if not math.isfinite(rho):
        raise UnboundedDomain("fatal-force constant needs a finite rho for n >= 2")
    if not gamma > 2.0 * sigma * rho:
        raise PreconditionViolated(
            f"need gamma > 2*sigma*rho, got {gamma:g} <= {2.0 * sigma * rho:g}")
    return cs + 4.0 * (1.0 + sigma) * (n - 1) * gamma * (gamma + 2.0 * rho) / (
        gamma - 2.0 * sigma * rho) ** 2


def fatal_force_bound(n: int, rho: float, sigma: float,
                      gamma: float | None = None) -> float:
    """Uniform error radius of |f_1 - nu/(4 pi d_1)| over the near-boundary class.

    For n = 1 the interaction sum is empty and gamma is not needed.  The
    only hard requirement is gamma > 2 sigma rho, which keeps the error
    constant finite; no upper constraint on gamma is enforced.
    """
    if math.isinf(rho) and n == 1:
        return 0.0
    return c_n_sigma_gamma(n, rho, sigma, gamma) / (2.0 * math.pi * rho)


def _c_delta(n: int, rho: float, delta0: float, gamma0: float, sigma: float) -> float:
    """The boundary-scenario correction c(delta0).

    Written with 1/rho distributed through the interaction term so that it
    neither overflows for huge rho nor needs a separate flat-boundary
    branch: at rho = inf it reduces to 16 delta0 (n-1) gamma0 / (gamma0 -
    4 delta0)^2 exactly.
    """
    cs = c_sigma(sigma)
    g4 = gamma0 - 4.0 * delta0
    inv_rho = 0.0 if math.isinf(rho) else 1.0 / rho
    head = 2.0 * delta0 * inv_rho * cs
    if n == 1:
        return head
    inner = inv_rho + 4.0 * (1.0 + 2.0 * delta0 * inv_rho) / g4 \
        + 16.0 * delta0 * (1.0 + delta0 * inv_rho) / (g4 * g4)
    return head + 4.0 * delta0 * (n - 1) * (1.0 + delta0 * inv_rho) * inner


@dataclass
class BoundReport:
    """Evaluated constants, bounds and sufficiency verdict for one scenario."""

    scenario: str                        # "boundary" | "pair"
    inputs: dict
    constants: dict
    t_collision_bound: float | None
    safe_window: float | None            # T(gamma0/2) or T(eta0/2)
    sufficiency_lhs: float | None
    sufficiency_rhs: float | None
    verdict: str                         # "holds" | "fails" | "not-applicable"
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return _json_floats(asdict(self))


def _json_floats(v):
    """v with every non-finite float, at any depth, replaced by its repr."""
    if isinstance(v, dict):
        return {k: _json_floats(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_json_floats(x) for x in v]
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v


def boundary_scenario(n: int, rho: float, sigma: float, delta0: float,
                      gamma0: float) -> BoundReport:
    """Report for one dislocation hitting the boundary first."""
    if n < 1:
        raise ValueError("need n >= 1")
    violations = []
    separated = delta0 < gamma0 / 4.0
    if not separated:
        violations.append("delta0 >= gamma0/4")
    if not delta0 <= sigma * rho:
        violations.append("delta0 > sigma*rho")

    constants = {"C_sigma": c_sigma(sigma)}
    c = None
    if separated:
        c = _c_delta(n, rho, delta0, gamma0, sigma)
        constants["c_delta0"] = c
        if c >= 1.0:
            violations.append("c(delta0) >= 1")

    t_bound = None
    window = None
    lhs = rhs = None
    if delta0 < gamma0:
        # the escape-window formula is independent of the c regime
        window = boundary_safe_window(n, delta0, gamma0, gamma0 / 2.0)
    if not violations:
        t_bound = 2.0 * math.pi * delta0**2 / (1.0 - c)
        lhs = 2.0 * delta0**2 / (1.0 - c)
        rhs = gamma0 * (3.0 * gamma0 - 4.0 * delta0) / (8.0 * (2 * n - 1))
        verdict = "holds" if lhs < rhs else "fails"
    else:
        verdict = "not-applicable"

    return BoundReport(
        "boundary",
        {"n": n, "rho": rho, "sigma": sigma, "delta0": delta0, "gamma0": gamma0},
        constants, t_bound, window, lhs, rhs, verdict, violations)


def boundary_safe_window(n: int, delta0: float, gamma0: float,
                         gamma: float) -> float:
    """Earliest time any of the far dislocations can reach separation gamma."""
    if not 0.0 < gamma < gamma0:
        raise PreconditionViolated("need 0 < gamma < gamma0")
    return math.pi * ((gamma0 - delta0) ** 2 - (gamma - delta0) ** 2) / (4 * n - 2)


def pair_safe_window(n: int, diam: float, zeta0: float, eta0: float,
                     eta: float) -> float:
    """Earliest time the far ensemble can reach separation eta.

    Uses Lambda = 2(n - 3 + |log(diam/2)|) and chi = 2 + 3 zeta0; the
    Lambda -> 0 limit pi (eta0^3 - eta^3) / (3 chi) is applied when Lambda
    is negligible, and a negative Lambda is accepted while the log argument
    stays positive.
    """
    if not 0.0 < eta < eta0:
        raise PreconditionViolated("need 0 < eta < eta0")
    if not math.isfinite(diam):
        raise UnboundedDomain("safe window needs a finite diameter")
    lam = abs(math.log(diam / 2.0))
    big = 2.0 * (n - 3 + lam)
    chi = 2.0 + 3.0 * zeta0
    if big * eta0 + chi <= 0.0 or big * eta + chi <= 0.0:
        raise PreconditionViolated("closed form invalid: Lambda*eta + chi <= 0")
    if abs(big) * eta0 <= 1e-3 * chi:
        # the closed form cancels catastrophically as Lambda -> 0; evaluate
        # its defining integral T = int_eta^eta0 pi s^2/(Lambda s + chi) ds
        from scipy.integrate import quad
        val, _ = quad(lambda s: math.pi * s * s / (big * s + chi), eta, eta0,
                      limit=100)
        return val
    return (math.pi / big**2) * (
        chi * (eta - eta0) - 0.5 * big * (eta * eta - eta0 * eta0)
        + (chi * chi / big) * math.log((big * eta0 + chi) / (big * eta + chi)))


def pair_scenario(n: int, diam: float, eta0: float, zeta0: float) -> BoundReport:
    """Report for a close opposite pair colliding before any other event."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n >= 3 and not math.isfinite(diam):
        raise UnboundedDomain("Lambda terms need a finite diameter for n >= 3")
    violations = []
    if not eta0 < diam / 2.0:
        violations.append("eta0 >= diam/2")
    zeta_max = eta0 * (math.sqrt((n - 2) ** 2 + 2.0) - (n - 2)) / 4.0
    close = zeta0 < zeta_max
    if not close:
        violations.append("zeta0 >= eta0*(sqrt((n-2)^2+2)-(n-2))/4")

    c = 8.0 * zeta0**2 / eta0**2 + 4.0 * (n - 2) * zeta0 / eta0
    chi = 2.0 + 3.0 * zeta0
    constants = {"c_zeta0": c, "chi": chi, "zeta0_max": zeta_max}
    if math.isfinite(diam):
        lam = abs(math.log(diam / 2.0))
        constants["lambda_domain"] = lam
        constants["Lambda_domain"] = 2.0 * (n - 3 + lam)
    c_too_large = c >= 1.0
    if c_too_large:
        violations.append("c(zeta0) >= 1")

    t_bound = None
    window = None
    lhs = rhs = None
    verdict = "not-applicable"
    if close and not c_too_large:
        t_bound = math.pi * zeta0**2 / (2.0 * (1.0 - c))
        constants["t_bound_alt"] = (
            math.pi * zeta0**2 * eta0**2
            / (2.0 * (eta0**2 - zeta0**2 - 2.0 * (n - 2) * zeta0 * eta0)))
        if not violations:
            if n == 2 and not math.isfinite(diam):
                # no boundary and no third dislocation: nothing can interfere
                window = math.inf
            else:
                try:
                    window = pair_safe_window(n, diam, zeta0, eta0, eta0 / 2.0)
                except (PreconditionViolated, UnboundedDomain) as exc:
                    violations.append(f"safe window unavailable: {exc}")
                    window = None
            if window is not None:
                lhs = t_bound
                rhs = window
                verdict = "holds" if lhs < rhs else "fails"

    return BoundReport(
        "pair",
        {"n": n, "diam": diam, "eta0": eta0, "zeta0": zeta0},
        constants, t_bound, window, lhs, rhs, verdict, violations)


def scenario_report(spec: dict, n: int | None, diam: float) -> BoundReport:
    """Report for a config's ``bounds`` spec.

    ``n`` and ``diam`` stand in for the keys the spec leaves out; ``n=None``
    takes the least count the scenario allows (1 for boundary, 2 for pair).
    """
    scenario = spec.get("scenario", "boundary")
    if scenario == "boundary":
        rho = spec.get("rho", 1.0)
        sigma = spec.get("sigma")
        if sigma is None:
            sigma = default_sigma(spec["delta0"], rho)
        return boundary_scenario(spec.get("n", 1 if n is None else n), rho,
                                 sigma, spec["delta0"], spec["gamma0"])
    if scenario == "pair":
        return pair_scenario(spec.get("n", 2 if n is None else n),
                             spec.get("diam", diam), spec["eta0"], spec["zeta0"])
    raise ValueError(f"unknown bounds scenario {scenario!r}")


@dataclass(frozen=True)
class TrajectoryCheck:
    passed: bool
    termination_matches: bool
    time_within_bound: bool | None
    margin: float | None
    details: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def verify_against_trajectory(report: BoundReport, traj: Trajectory,
                              time_slack: float = 1e-6) -> TrajectoryCheck:
    """Compare a simulated trajectory against a scenario report.

    Checks that the termination kind matches the scenario (and involves the
    distinguished dislocations), and that the corrected collision time does
    not exceed the report's bound.  The integrator already terminates at the
    earliest event, so a matching termination implies nothing else happened
    first.  ``time_slack`` is the relative allowance for integrator error,
    needed where the exact dynamics saturates the bound (half plane).
    """
    if report.verdict == "not-applicable":
        raise ScenarioMismatch("report is not applicable: "
                               + ", ".join(report.violations))
    term = traj.termination
    if report.scenario == "boundary":
        matches = isinstance(term, BoundaryCollision) and term.index == 0
    elif report.scenario == "pair":
        matches = isinstance(term, PairCollision) and {term.i, term.j} == {0, 1}
    else:
        raise ScenarioMismatch(f"unknown scenario {report.scenario!r}")
    if not matches:
        return TrajectoryCheck(False, False, None, None,
                               f"termination {term.kind} does not match "
                               f"{report.scenario} scenario")
    t = term.corrected_time
    within = t <= report.t_collision_bound * (1.0 + time_slack)
    margin = report.t_collision_bound - t
    return TrajectoryCheck(bool(within), True, bool(within), float(margin))
