import csv
import json
import math
import os
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from dislodyn import experiments
from dislodyn.cli import main
from dislodyn.dynamics import IntegrationParams
from dislodyn.experiments import (build_domain, build_kernels, dump_config,
                                  normalize_config, run_ensemble,
                                  run_simulation)
from dislodyn.geometry import Disk, ExteriorDisk, HalfPlane
from dislodyn.kernels_analytic import (DiskKernels, ExteriorDiskKernels,
                                       HalfPlaneKernels, PlaneKernels)
from dislodyn.kernels_numeric import (GridKernels, NumericKernelConfig,
                                      NystromKernels)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HALFPLANE_SIM = {
    "domain": {"kind": "half_plane", "normal": [0, -1], "offset": 0},
    "dislocations": [{"position": [0.0, 0.1], "burgers": 1}],
    "seed": 7,
}


class TestSimulate:
    def test_halfplane_files_and_time(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", HALFPLANE_SIM)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfgp, "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] == "boundary"
        assert summary["corrected_time"] == pytest.approx(
            2 * math.pi * 0.01, rel=1e-3)
        with open(os.path.join(out, "trajectory.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "y1", "b1"]
        assert float(rows[1][2]) == 0.1
        with open(os.path.join(out, "trajectory.json")) as fh:
            side = json.load(fh)
        assert side["termination"]["kind"] == "boundary"
        assert side["params"]["eps_stop"] > 0
        assert side["stats"]["eps_stop"] == side["params"]["eps_stop"]
        assert side["stats"]["eps_stop_raised"] is False

    def test_disk_center_stays_put(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", {
            "domain": {"kind": "disk"},
            "dislocations": [{"position": [0.0, 0.0], "burgers": 1}],
            "integration": {"t_max": 10.0},
        })
        assert main(["simulate", "--config", cfgp,
                     "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] == "horizon"
        with open(tmp_path / "o" / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_square_diagonal_start_stays_on_diagonal(self, tmp_path):
        d = 0.1 * math.sqrt(0.5)
        cfg = {
            "domain": {"kind": "polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "dislocations": [{"position": [0.5 + d, 0.5 + d], "burgers": 1}],
            "kernel": {"grid_spacing": 1 / 64},
            "integration": {"t_max": 50.0, "rel_tol": 1e-6, "abs_tol": 1e-9},
        }
        traj, side = run_simulation(cfg)
        assert side["termination"]["kind"] == "boundary"
        dev = max(abs(z[0, 0] - z[0, 1]) for z in traj.states)
        assert dev < 1e-6

    def test_bound_check_embedded_in_sidecar(self, tmp_path):
        cfg = {
            "domain": {"kind": "half_plane", "normal": [0, -1], "offset": 0},
            "dislocations": [{"position": [0.0, 0.1], "burgers": 1}],
            "bounds": {"scenario": "boundary", "n": 1, "rho": float("inf"),
                       "sigma": 0.5, "delta0": 0.1, "gamma0": 0.5},
        }
        traj, side = run_simulation(cfg)
        assert side["bound_report"]["scenario"] == "boundary"
        assert side["bound_check"]["passed"] is True

    def test_unknown_bounds_scenario_rejected(self):
        cfg = dict(HALFPLANE_SIM, bounds={"scenario": "typo", "eta0": 0.5,
                                          "zeta0": 0.05})
        with pytest.raises(ValueError, match="unknown bounds scenario"):
            run_simulation(cfg)

    def test_error_exit_code(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "bad.json", {
            "domain": {"kind": "nope"},
            "dislocations": [{"position": [0, 0.1]}]})
        assert main(["simulate", "--config", cfgp]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    @pytest.mark.parametrize("domain, backend", [
        ({"kind": "disk"}, "grdi"),
        ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
         "Analytic")], ids=["grdi_on_disk", "Analytic_on_square"])
    def test_unknown_backend_refused(self, domain, backend, tmp_path, capsys):
        cfgp = write_config(tmp_path, "bad.json", {
            "domain": domain, "kernel": {"backend": backend},
            "dislocations": [{"position": [0.5, 0.1]}]})
        assert main(["simulate", "--config", cfgp,
                     "--out", str(tmp_path / "bo")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert repr(backend) in err["message"]
        for name in ("auto", "analytic", "integral", "grid"):
            assert name in err["message"]

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "fail.json", {
            "domain": {"kind": "disk"},
            "dislocations": [{"position": [0.8, 0.0], "burgers": 1}],
            "integration": {"max_steps": 2}})
        assert main(["simulate", "--config", cfgp,
                     "--out", str(tmp_path / "fo")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepFailure"

    def test_nan_horizon_refused(self, tmp_path, capsys):
        # json.load accepts the NaN literal that json.dumps writes here
        cfgp = write_config(tmp_path, "nan.json", {
            "domain": {"kind": "disk"},
            "dislocations": [{"position": [0.5, 0.0], "burgers": 1}],
            "integration": {"t_max": math.nan}})
        assert main(["simulate", "--config", cfgp,
                     "--out", str(tmp_path / "no")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "t_max" in err["message"]

    def test_sidecar_is_strict_json(self, tmp_path):
        cfgp = write_config(tmp_path, "inf.json",
                            dict(HALFPLANE_SIM, integration={"t_max": math.inf}))
        out = tmp_path / "io"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        side = json.loads((out / "trajectory.json").read_text(),
                          parse_constant=refuse)
        assert side["params"]["t_max"] == "inf"
        assert side["termination"]["kind"] == "boundary"

    def test_start_too_close_exit_code(self, tmp_path, capsys):
        # a start must lie more than 2 eps_stop = 4e-4 from the unit
        # disk's boundary; this one is 1e-4 from it
        cfgp = write_config(tmp_path, "close.json", {
            "domain": {"kind": "disk"},
            "dislocations": [{"position": [0.9999, 0.0], "burgers": 1}]})
        assert main(["simulate", "--config", cfgp,
                     "--out", str(tmp_path / "co")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StartTooClose"
        assert "min separation" in err["message"]


class TestEnsemble:
    CFG = {
        "domain": {"kind": "disk"},
        "sampling": {"class": "D", "n": 2, "delta0": 0.2, "gamma0": 0.5},
        "seed": 42,
        "ensemble_size": 24,
    }

    def test_reproducible_bitwise(self):
        s1 = run_ensemble(self.CFG)
        s2 = run_ensemble(self.CFG)
        assert json.dumps(s1.records, sort_keys=True) == \
            json.dumps(s2.records, sort_keys=True)

    def test_workers_do_not_change_results(self):
        s1 = run_ensemble(self.CFG)
        s2 = run_ensemble(self.CFG, workers=2)
        assert json.dumps(s1.records, sort_keys=True) == \
            json.dumps(s2.records, sort_keys=True)

    def test_histogram_counts_sum(self):
        s = run_ensemble(self.CFG)
        assert sum(s.bin_counts) == len(s.boundary_times)

    def test_files_written(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "ens.json", self.CFG)
        out = str(tmp_path / "eo")
        assert main(["ensemble", "--config", cfgp, "--out", out]) == 0
        for name in ("runs.csv", "histogram.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "runs.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 24

    def test_output_bytes_reproducible(self, tmp_path):
        # end-to-end determinism of the written files, timestamp excluded
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ensemble(self.CFG, out_dir=str(out))
            outs.append(out)
        for fname in ("runs.csv", "histogram.csv"):
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes()
        summaries = []
        for out in outs:
            payload = json.loads((out / "summary.json").read_text())
            payload.pop("created")
            summaries.append(json.dumps(payload, sort_keys=True))
        assert summaries[0] == summaries[1]

    def test_runs_csv_lists_every_start(self, tmp_path):
        cfg = dict(self.CFG, sampling=dict(self.CFG["sampling"], n=3),
                   ensemble_size=4)
        files = []
        for name in ("a", "b"):
            summary = run_ensemble(cfg, out_dir=str(tmp_path / name))
            files.append((tmp_path / name / "runs.csv").read_bytes())
        assert files[0] == files[1]
        rows = list(csv.reader(files[0].decode().splitlines()))
        assert rows[0] == ["run", "kind", "raw_time", "corrected_time",
                           "x1", "y1", "b1", "x2", "y2", "b2", "x3", "y3", "b3",
                           "n_samples"]
        assert len(rows) == 1 + 4
        for row, rec in zip(rows[1:], summary.records):
            starts = [float(v) for v in row[4:13]]
            assert starts[0::3] == [p[0] for p in rec["initial"]]
            assert starts[1::3] == [p[1] for p in rec["initial"]]
            assert starts[2::3] == rec["burgers"]

    def test_step_budget_failures_recorded(self):
        # runs that exhaust their step budget are recorded, not fatal
        s = run_ensemble(dict(self.CFG, ensemble_size=4,
                              integration={"max_steps": 5}))
        assert [r["termination"]["kind"] for r in s.records] == ["failure"] * 4
        # each run keeps the states it reached: at most one per step
        assert all(1 < r["n_samples"] <= 6 for r in s.records)

    def test_refused_start_recorded(self):
        # seed 2, run 117 of the criterion-5 config starts with
        # d_n = 3.19e-4 <= 2 eps_stop = 4e-4; that run fails, the rest go on
        s = run_ensemble(dict(self.CFG, seed=2, ensemble_size=118))
        refused = s.records[117]
        assert refused["termination"]["kind"] == "failure"
        assert refused["termination"]["reason"].startswith("refused start:")
        assert "min separation 0.000319" in refused["termination"]["reason"]
        assert refused["corrected_time"] is None and refused["n_samples"] == 0
        assert refused["initial"][0] == pytest.approx(
            [0.4163764315243559, -0.9088409363912862])
        kinds = [r["termination"]["kind"] for r in s.records[:117]]
        assert "failure" not in kinds and kinds.count("boundary") > 100

    def test_poisoned_stages_emit_no_warnings(self):
        # trial stages that leave the disk are refused before any arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = run_ensemble(dict(self.CFG, ensemble_size=40))
        assert len(s.boundary_times) > 30

    def test_listed_dislocations_do_not_replace_sampling(self):
        cfg = dict(self.CFG, ensemble_size=4)
        listed = dict(cfg, dislocations=[{"position": [0.0, 0.0]}])
        assert json.dumps(run_ensemble(cfg).records, sort_keys=True) == \
            json.dumps(run_ensemble(listed).records, sort_keys=True)

    @pytest.mark.parametrize("key,value", [
        ("histogram_bin_width", 0.0), ("histogram_bin_width", -0.005),
        ("histogram_bin_width", math.nan), ("histogram_bin_width", math.inf),
        ("ensemble_size", -3), ("ensemble_size", 0), ("ensemble_size", 2.5),
    ])
    def test_bad_input_refused_before_any_run(self, key, value, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "integrate", no_run)
        with pytest.raises(ValueError, match=key):
            run_ensemble(dict(self.CFG, **{key: value}))

    def test_unknown_sampling_class_refused(self):
        cfg = dict(self.CFG, sampling=dict(self.CFG["sampling"], **{"class": "C"}))
        with pytest.raises(ValueError, match="sampling.class"):
            run_ensemble(cfg)
        with pytest.raises(ValueError, match="sampling.class"):
            run_simulation(cfg)

    def test_first_starts_pinned(self):
        # the criterion-5 starts of runs 0-2 at seed 42: any change to the
        # sampler's random stream moves them
        s = run_ensemble(dict(self.CFG, ensemble_size=3))
        assert [r["initial"] for r in s.records] == [
            [[0.7171958398227649, 0.3947360581187278],
             [-0.3483492837236961, -0.25908058793026223]],
            [[0.537946132689141, 0.6560447003045604],
             [-0.06487231373723579, -0.30932613499192585]],
            [[-0.42098208459927156, 0.9039934272302548],
             [0.1833277748708113, -0.3383926390037224]],
        ]
        assert [r["burgers"] for r in s.records] == [[1, -1]] * 3

    def test_rejection_overflow(self):
        from dislodyn.errors import RejectionOverflow
        from dislodyn.experiments import sample_class_D
        from dislodyn.geometry import Disk
        rng = np.random.default_rng(0)
        # three mutually gamma0-separated points with gamma0 = 0.9 cannot
        # fit in the unit disk
        with pytest.raises(RejectionOverflow):
            sample_class_D(rng, Disk(), 4, 0.05, 0.9, max_tries=30_000)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sampling_needs_one_dislocation(self, n):
        from dislodyn.experiments import sample_class_D
        with pytest.raises(ValueError, match="sampling n must be >= 1"):
            sample_class_D(np.random.default_rng(0), Disk(), n, 0.2, 0.5)

    def test_forced_b2_comparison(self):
        plus = dict(self.CFG, sampling=dict(self.CFG["sampling"],
                                            burgers_rest=1))
        minus = dict(self.CFG, sampling=dict(self.CFG["sampling"],
                                             burgers_rest=-1))
        sp = run_ensemble(plus)
        sm = run_ensemble(minus)
        # a repelling companion pushes the first dislocation out faster
        assert np.mean(sp.boundary_times) < np.mean(sm.boundary_times)


class TestConfigRoundTrip:
    def test_idempotent(self):
        cfg = {"domain": {"kind": "disk"}, "seed": 3,
               "dislocations": [{"position": [0.1, 0.2], "burgers": -1}]}
        once = dump_config(cfg)
        twice = dump_config(json.loads(once))
        assert once == twice

    def test_normalize_fills_defaults(self):
        cfg = normalize_config({})
        assert cfg["integration"]["rel_tol"] == 1e-8
        assert cfg["kernel"]["boundary_nodes"] == 512

    @pytest.mark.parametrize("domain", [
        {"kind": "half_plane"},
        {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    ])
    def test_domain_keeps_only_given_keys(self, domain):
        assert normalize_config({"domain": domain})["domain"] == domain

    def test_domain_defaults_are_the_dataclass_defaults(self):
        assert build_domain(normalize_config({})["domain"]) == Disk()
        for kind, cls in (("disk", Disk), ("exterior_disk", ExteriorDisk),
                          ("half_plane", HalfPlane)):
            assert build_domain({"kind": kind}) == cls()
        # JSON lists arrive as the tuples the domains hold
        assert build_domain({"kind": "disk", "center": [1, 2]}).center == (1, 2)


SQUARE = {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}

# evaluator class per domain kind for the backends auto, analytic, integral
# and grid; None where the pair is unsupported
DISPATCH = {
    "disk": ({"kind": "disk"},
             (DiskKernels, DiskKernels, NystromKernels, GridKernels)),
    "exterior_disk": ({"kind": "exterior_disk"},
                      (ExteriorDiskKernels, ExteriorDiskKernels, None, None)),
    "half_plane": ({"kind": "half_plane"},
                   (HalfPlaneKernels, HalfPlaneKernels, None, None)),
    "plane": ({"kind": "plane"}, (PlaneKernels, PlaneKernels, None, None)),
    "cardioid": ({"kind": "parametric", "builtin": "cardioid"},
                 (NystromKernels, None, NystromKernels, GridKernels)),
    "square": (SQUARE, (GridKernels, None, NystromKernels, GridKernels)),
}


def test_build_kernels_dispatch():
    for kind, (spec, classes) in DISPATCH.items():
        domain = build_domain(spec)
        for backend, cls in zip(("auto", "analytic", "integral", "grid"),
                                classes):
            kernel = {"backend": backend, "boundary_nodes": 64,
                      "grid_spacing": 1 / 16}
            if cls is None:
                with pytest.raises(ValueError, match=f"{backend} backend "
                                   f"cannot handle {type(domain).__name__}"):
                    build_kernels(domain, kernel)
            else:
                assert type(build_kernels(domain, kernel)) is cls, (kind, backend)
    defaults = normalize_config({})
    assert defaults["kernel"] == {"backend": "auto",
                                  **asdict(NumericKernelConfig())}
    assert defaults["integration"] == asdict(IntegrationParams())


class TestBoundsCommand:
    def test_boundary_json(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "b.json", {
            "bounds": {"scenario": "boundary", "n": 1, "rho": 1.0,
                       "sigma": 0.1, "delta0": 0.1, "gamma0": 0.5}})
        assert main(["bounds", "--config", cfgp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"]["c_delta0"] == pytest.approx(
            0.24820161216615957, abs=1e-12)

    def test_invalid_regime_surfaces(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "b.json", {
            "bounds": {"scenario": "boundary", "n": 2, "rho": 1.0,
                       "sigma": 0.5, "delta0": 0.2, "gamma0": 0.5}})
        assert main(["bounds", "--config", cfgp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "not-applicable"
        assert "delta0 >= gamma0/4" in payload["violations"]


    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "b.json", {
            "bounds": {"scenario": "typo", "eta0": 0.5, "zeta0": 0.05}})
        assert main(["bounds", "--config", cfgp]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "unknown bounds scenario" in err["message"]


@pytest.mark.parametrize("argv", [["bounds", "--workers", "2"],
                                  ["bounds", "--format", "csv"],
                                  ["kernel-probe", "--seed", "1"],
                                  ["simulate", "--workers", "2"]])
def test_flags_a_command_ignores_are_refused(argv, tmp_path):
    cfgp = write_config(tmp_path, "c.json", {})
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfgp])
    assert exc.value.code == 2


class TestOracleCommand:
    def test_compare_halfplane(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "o.json", dict(
            HALFPLANE_SIM, oracle={"case": "halfplane_single", "delta": 0.1,
                                   "compare": True}))
        assert main(["oracle", "--config", cfgp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relative_error"] < 1e-3

    def test_equilibrium_classification(self, tmp_path, capsys):
        r = math.sqrt(math.sqrt(5) - 2)
        cfgp = write_config(tmp_path, "o.json", {
            "oracle": {"case": "disk_symmetric_pair", "r0": r}})
        assert main(["oracle", "--config", cfgp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "equilibrium"


class TestKernelProbe:
    def test_disk_probe_schema_and_refusals(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "p.json", {
            "domain": {"kind": "disk"},
            "kernel": {"backend": "integral", "boundary_nodes": 128},
            "probe": {"points": [[0.5, 0.0], [2.0, 0.0]]}})
        out = str(tmp_path / "po")
        assert main(["kernel-probe", "--config", cfgp, "--out", out]) == 0
        with open(os.path.join(out, "kernel_probe.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:6] == ["x", "y", "k", "h", "grad_h_x", "grad_h_y"]
        good = rows[1]
        assert float(good[3]) == pytest.approx(math.log(0.75) / (2 * math.pi),
                                               abs=1e-3)
        refused = rows[2]
        assert refused[-1] != ""  # refusal recorded, command still exits 0

    def test_outside_source_refuses_every_row(self, tmp_path):
        cfgp = write_config(tmp_path, "p.json", {
            "domain": {"kind": "polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "kernel": {"backend": "grid", "grid_spacing": 1 / 16},
            "probe": {"points": [[0.5, 0.5], [0.3, 0.6]], "source": [5.0, 0.5]}})
        out = str(tmp_path / "po")
        assert main(["kernel-probe", "--config", cfgp, "--out", out]) == 0
        with open(os.path.join(out, "kernel_probe.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["refused"] for r in rows] == ["PointOutside"] * 2
        assert all(r["k"] == r["h"] == "" for r in rows)

    @pytest.mark.parametrize("domain, kernel, inner, near", [
        # 128 Nystrom nodes on the unit disk: margin 2 pi diam / 128 = 0.098
        ({"kind": "disk"}, {"backend": "integral", "boundary_nodes": 128},
         [0.5, 0.0], [0.999, 0.0]),
        # grid spacing 1/16 on the unit square: margin 2h = 0.125
        (SQUARE, {"backend": "grid", "grid_spacing": 1 / 16},
         [0.5, 0.5], [0.5, 0.1])], ids=["nystrom_disk", "grid_square"])
    def test_margin_refused_on_numeric_backends(self, domain, kernel, inner,
                                                near, tmp_path):
        cfgp = write_config(tmp_path, "p.json", {
            "domain": domain, "kernel": kernel,
            "probe": {"points": [inner, near], "source": [0.3, 0.2]}})
        out = str(tmp_path / "po")
        assert main(["kernel-probe", "--config", cfgp, "--out", out]) == 0
        with open(os.path.join(out, "kernel_probe.csv")) as fh:
            good, refused = csv.DictReader(fh)
        assert good["refused"] == "" and good["k"] != ""
        assert refused["refused"] == "TargetTooCloseToBoundary"
        assert all(refused[c] == "" for c in ("k", "h", "grad_h_x", "grad_h_y"))
