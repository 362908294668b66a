import copy
import csv
import json
import math
import threading

import numpy as np
import pytest

from soppi import controller, harness
from soppi.cli import main as cli_main
from soppi.metrics import TrialRecord

MISSING = object()   # a config value that deletes its key


def tiny_config():
    """Small cart-pole battery that runs in well under a second."""
    return {
        "system": {"id": "cartpole", "params": {}},
        "cost": {
            "Q": [1.25, 1.0, 12.0, 0.25],
            "R": [1e-3],
            "Q_T": [12.5, 10.0, 120.0, 2.5],
            "x_target": [0.0, 0.0, 0.0, 0.0],
            "angle_dims": [2],
        },
        "controller": {"K": 8, "horizon": 5, "lambda": 1.0, "sigma": 2.0},
        "svgd": {"step_size": 0.05, "iterations": 1, "bandwidth": 1.0,
                 "alpha": 1.0},
        "experiment": {"algos": ["mppi", "soppi"], "n_trials": 3,
                       "base_seed": 0, "t_total": 0.2,
                       "x0": [0.0, 0.0, math.pi, 0.0]},
    }


def tiny_pendulum_config():
    """One short MPPI trial on the pendulum."""
    return {"system": {"id": "pendulum", "params": {}},
            "cost": {"Q": [1.0, 0.1], "R": [0.01], "Q_T": [10.0, 1.0],
                     "x_target": [math.pi, 0.0]},
            "controller": {"K": 8, "horizon": 5, "lambda": 1.0,
                           "sigma": 1.0},
            "experiment": {"algos": ["mppi"], "n_trials": 1,
                           "t_total": 0.1, "x0": [0.0, 0.0]}}


class TestParseConfig:
    def test_roundtrip_fields(self):
        cfg = harness.parse_config(tiny_config())
        assert cfg.controller.K == 8
        assert cfg.controller.lambda_ == 1.0
        assert cfg.controller.svgd.iterations == 1
        assert cfg.n_trials == 3
        assert cfg.n_steps == 10  # 0.2 s at dt = 0.02
        np.testing.assert_allclose(np.diag(cfg.cost_spec.Q),
                                   [1.25, 1.0, 12.0, 0.25])
        assert cfg.cost_spec.angle_dims == frozenset({2})

    @pytest.mark.parametrize("dt,t_total,n_steps", [
        (0.02, 0.2, 10), (0.02, 0.5, 25), (0.02, 2.0, 100),
        (0.02, 0.06, 3), (0.1, 0.3, 3), (0.02, 6.0, 300),
        (0.02, 20.0, 1000),
    ])
    def test_whole_step_durations_keep_their_step_count(self, dt, t_total,
                                                        n_steps):
        raw = tiny_config()
        raw["system"]["params"] = {"dt": dt}
        raw["experiment"]["t_total"] = t_total
        assert harness.parse_config(raw).n_steps == n_steps

    def test_default_config_parses(self):
        cfg = harness.parse_config(
            copy.deepcopy(harness.DEFAULT_CARTPOLE_CONFIG))
        assert cfg.controller.K == 500
        assert cfg.controller.horizon == 80

    @pytest.mark.parametrize("section,key", [
        (None, "extra"), ("system", "mass"), ("cost", "S"),
        ("controller", "gamma"), ("svgd", "kernel"),
        ("experiment", "plot"), ("svgd", "use_squared_norm"),
        ("svgd", "grad_clip"), ("controller", "terminal_init"),
    ])
    def test_unknown_keys_rejected(self, section, key):
        raw = tiny_config()
        target = raw if section is None else raw[section]
        target[key] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            harness.parse_config(raw)

    @pytest.mark.parametrize("rows", [1, 4, 6])
    def test_u_ref_needs_one_row_per_horizon_step(self, rows):
        raw = tiny_config()
        raw["cost"]["u_ref"] = [[0.5]] * rows
        with pytest.raises(ValueError, match="u_ref.*horizon = 5"):
            harness.parse_config(raw)
        raw["cost"]["u_ref"] = [[0.5]] * 5
        np.testing.assert_array_equal(
            harness.parse_config(raw).cost_spec.u_ref, np.full((5, 1), 0.5))

    def test_missing_section(self):
        raw = tiny_config()
        del raw["cost"]
        with pytest.raises(ValueError, match="missing"):
            harness.parse_config(raw)

    def test_x0_dimension_check(self):
        raw = tiny_config()
        raw["experiment"]["x0"] = [0.0, 0.0]
        with pytest.raises(ValueError, match="x0"):
            harness.parse_config(raw)

    def test_full_matrix_weights_accepted(self):
        raw = tiny_config()
        raw["cost"]["Q"] = np.eye(4).tolist()
        cfg = harness.parse_config(raw)
        np.testing.assert_array_equal(cfg.cost_spec.Q, np.eye(4))

    def test_bad_trial_count(self):
        raw = tiny_config()
        raw["experiment"]["n_trials"] = 0
        with pytest.raises(ValueError, match="n_trials"):
            harness.parse_config(raw)

    @pytest.mark.parametrize("base_seed,n_trials", [
        (2**63, 1), (2**63 - 1, 2), (2**63 - 3, 5), (-2**63 - 1, 1),
        (np.uint64(2**63), 1)])
    def test_trial_seed_outside_int64_rejected(self, base_seed, n_trials):
        # Trial i runs on base_seed + i, which is hashed as an int64.
        raw = tiny_config()
        raw["experiment"].update(base_seed=base_seed, n_trials=n_trials)
        with pytest.raises(ValueError, match="base_seed"):
            harness.parse_config(raw)

    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_controller_seed_outside_int64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            controller.ControllerConfig(seed=seed)

    @pytest.mark.parametrize("base_seed", [2**63 - 2, -2**63])
    def test_seeds_at_the_int64_edges_run(self, tmp_path, base_seed):
        raw = tiny_config()
        raw["controller"]["seed"] = base_seed
        raw["experiment"].update(base_seed=base_seed, n_trials=2,
                                 algos=["mppi"], t_total=0.04)
        cfg = harness.parse_config(raw)
        manifest = harness.run_experiment(cfg, tmp_path / "res")
        assert manifest.complete
        assert manifest.trial_seeds == [base_seed, base_seed + 1]


class TestRecordCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = TrialRecord(times=0.02 * np.arange(6),
                          states=rng.normal(size=(6, 4)),
                          controls=rng.normal(size=(5, 1)))
        path = tmp_path / "rec.csv"
        harness.write_record_csv(path, rec)
        back = harness.read_record_csv(path)
        np.testing.assert_array_equal(back.times, rec.times)
        np.testing.assert_array_equal(back.states, rec.states)
        np.testing.assert_array_equal(back.controls, rec.controls)

    def test_header_and_final_row(self, tmp_path):
        rec = TrialRecord(times=np.array([0.0, 0.1]),
                          states=np.zeros((2, 2)),
                          controls=np.zeros((1, 1)))
        path = tmp_path / "rec.csv"
        harness.write_record_csv(path, rec)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "state_0", "state_1", "u_0"]
        assert rows[-1][-1] == ""  # terminal state has no control

    def test_reads_a_file_with_step_times(self, tmp_path):
        # Older runs wrote each step's wall time in a trailing wall_ms
        # column; their records still read, so their results still
        # summarize.
        path = tmp_path / "rec.csv"
        path.write_text("t,state_0,u_0,wall_ms\n0,1.5,-2,10.5\n"
                        "0.5,0.25,3,9.75\n1,0.125,,\n")
        rec = harness.read_record_csv(path)
        np.testing.assert_array_equal(rec.times, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(rec.states, [[1.5], [0.25], [0.125]])
        np.testing.assert_array_equal(rec.controls, [[-2.0], [3.0]])

    def test_header_only_file_is_rejected_naming_it(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,state_0,u_0\n")
        with pytest.raises(ValueError, match=f"^{path}: controls must be"):
            harness.read_record_csv(path)

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_row_record_keeps_its_control_width(self, tmp_path, m):
        # A record of one state has no control row; its header alone says
        # how many controls there are.
        rec = TrialRecord(times=np.zeros(1), states=np.ones((1, 3)),
                          controls=np.zeros((0, m)))
        path = tmp_path / "rec.csv"
        harness.write_record_csv(path, rec)
        back = harness.read_record_csv(path)
        assert back.controls.shape == (0, m)
        np.testing.assert_array_equal(back.states, rec.states)

    @pytest.mark.parametrize("header", ["t,state_0", "t,u_0,state_0"],
                             ids=["no-control", "control-first"])
    def test_header_not_in_the_written_order_is_rejected_naming_it(
            self, tmp_path, header):
        # Columns are read by position: without a control column the reader
        # used to die with an IndexError, and with the control first it
        # read the control as the state.
        width = header.count(",") + 1
        path = tmp_path / "rec.csv"
        path.write_text(f"{header}\n" + f"{','.join(['0'] * width)}\n" * 2)
        with pytest.raises(ValueError, match=f"^{path}: header must begin"):
            harness.read_record_csv(path)

    def test_first_row_without_a_control_is_rejected(self, tmp_path):
        # Skipping the blank would accept this file, every control one step
        # late.
        path = tmp_path / "rec.csv"
        path.write_text("t,state_0,u_0\n0,1,\n0.5,1,3\n1,1,4\n")
        with pytest.raises(ValueError, match=f"^{path}:2: no control"):
            harness.read_record_csv(path)


class TestRunExperiment:
    def test_produces_all_artifacts(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        manifest = harness.run_experiment(cfg, tmp_path)
        assert manifest.complete
        assert manifest.trial_seeds == [0, 1, 2]
        for algo in ("mppi", "soppi"):
            for i in range(3):
                assert (tmp_path / f"{algo}_trial_{i}.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "pvalues.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_times_each_trial(self, tmp_path):
        manifest = harness.run_experiment(
            harness.parse_config(tiny_config()), tmp_path)
        assert list(manifest.trial_seconds) == list(manifest.record_files)
        assert all(s > 0 for s in manifest.trial_seconds.values())
        with open(tmp_path / "manifest.json") as fh:
            assert json.load(fh)["trial_seconds"] == manifest.trial_seconds

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path / "a")
        harness.run_experiment(harness.parse_config(tiny_config()),
                               tmp_path / "b")
        for name in ("mppi_trial_0.csv", "soppi_trial_2.csv", "summary.csv",
                     "pvalues.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_paired_seeds_share_raw_noise(self, tmp_path):
        # Trial i of every algorithm starts from seed base_seed + i, so the
        # first controller step sees identical perturbations pre-refinement.
        raw = tiny_config()
        raw["svgd"]["iterations"] = 0
        cfg = harness.parse_config(raw)
        harness.run_experiment(cfg, tmp_path)
        a = harness.read_record_csv(tmp_path / "mppi_trial_1.csv")
        b = harness.read_record_csv(tmp_path / "soppi_trial_1.csv")
        np.testing.assert_array_equal(a.states, b.states)

    def test_manifest_reloads_as_config(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path)
        again = harness.parse_config(
            harness.load_raw_config(tmp_path / "manifest.json"))
        assert again.controller.K == cfg.controller.K
        assert again.n_trials == cfg.n_trials

    def test_manifest_records_code_fingerprint(self, tmp_path):
        import hashlib
        from pathlib import Path

        import scipy
        import soppi
        harness.run_experiment(harness.parse_config(tiny_config()), tmp_path)
        with open(tmp_path / "manifest.json") as fh:
            fingerprint = json.load(fh)["fingerprint"]
        digest = hashlib.sha256()
        for path in sorted(Path(soppi.__file__).parent.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert fingerprint == {"src_sha256": digest.hexdigest(),
                               "numpy": np.__version__,
                               "scipy": scipy.__version__}

    def test_threaded_run_matches_serial(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path / "serial", workers=1)
        harness.run_experiment(harness.parse_config(tiny_config()),
                               tmp_path / "par", workers=3)
        a = harness.read_record_csv(tmp_path / "serial" / "soppi_trial_0.csv")
        b = harness.read_record_csv(tmp_path / "par" / "soppi_trial_0.csv")
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.controls, b.controls)


    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_trial_keeps_the_finished_ones(self, tmp_path,
                                                  monkeypatch, workers):
        # Trial 3 raises: trials 0-2 are already on disk and listed in an
        # incomplete manifest; nothing after the failure is listed.
        raw = tiny_config()
        raw["experiment"].update(algos=["mppi"], n_trials=5)
        real = harness._run_one_trial
        seen = []

        def run_one(config, algo, trial):
            if trial == 3:
                with open(tmp_path / "manifest.json") as fh:
                    seen.append(json.load(fh))
                raise RuntimeError("trial 3 failed")
            return real(config, algo, trial)

        monkeypatch.setattr(harness, "_run_one_trial", run_one)
        with pytest.raises(RuntimeError, match="trial 3 failed"):
            harness.run_experiment(harness.parse_config(raw), tmp_path,
                                   workers=workers)
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["complete"] is False
        assert manifest["finished"] is not None
        assert list(manifest["record_files"]) == [
            f"mppi_trial_{i}.csv" for i in range(3)]
        assert list(manifest["trial_seconds"]) == list(
            manifest["record_files"])
        for i in range(3):
            rec = harness.read_record_csv(tmp_path / f"mppi_trial_{i}.csv")
            assert rec.controls.shape == (10, 1)
        assert not (tmp_path / "mppi_trial_3.csv").exists()
        assert not (tmp_path / "mppi_trial_4.csv").exists()
        assert not (tmp_path / "summary.csv").exists()
        assert not (tmp_path / "manifest.json.tmp").exists()
        # Trial 3 starts after the manifest listing 0-2 is on disk, so a
        # killed process would leave that one behind.
        assert seen[0]["complete"] is False
        assert list(seen[0]["record_files"]) == [
            f"mppi_trial_{i}.csv" for i in range(3)]

    def test_trials_run_one_at_a_time_in_job_order(self, tmp_path,
                                                   monkeypatch):
        # workers=2 still runs each trial to its end, in the calling thread,
        # before the next one starts.
        real = harness._run_one_trial
        events = []

        def run_one(config, algo, trial):
            events.append(("enter", algo, trial, threading.get_ident()))
            rec = real(config, algo, trial)
            events.append(("exit", algo, trial, threading.get_ident()))
            return rec

        monkeypatch.setattr(harness, "_run_one_trial", run_one)
        harness.run_experiment(harness.parse_config(tiny_config()), tmp_path,
                               workers=2)
        me = threading.get_ident()
        assert events == [(edge, algo, i, me)
                          for algo in ("mppi", "soppi") for i in range(3)
                          for edge in ("enter", "exit")]

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5])
    def test_bad_worker_count_rejected_before_any_output(self, tmp_path,
                                                         workers):
        with pytest.raises(ValueError, match="workers"):
            harness.run_experiment(harness.parse_config(tiny_config()),
                                   tmp_path / "res", workers=workers)
        assert not (tmp_path / "res").exists()

    def test_failed_manifest_write_keeps_the_previous_one(self, tmp_path,
                                                          monkeypatch):
        # Every manifest write after the first dies part way: manifest.json
        # must still be the whole first one, listing trial 0.
        raw = tiny_config()
        raw["experiment"].update(algos=["mppi"], n_trials=2)
        real = json.dump
        calls = []

        def dump(obj, fh, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                fh.write('{"record_files": ')
                raise OSError("disk full")
            real(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump)
        with pytest.raises(OSError, match="disk full"):
            harness.run_experiment(harness.parse_config(raw), tmp_path)
        monkeypatch.undo()
        with open(tmp_path / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["complete"] is False
        assert list(manifest["record_files"]) == ["mppi_trial_0.csv"]


class TestSummaryFiles:
    def test_summary_layout(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo", "metric", "mean", "std", "median", "n",
                           "n_nonconverged"]
        algos = {r[0] for r in rows[1:]}
        metrics = {r[1] for r in rows[1:]}
        assert algos == {"mppi", "soppi"}
        assert {"mse_x", "mse_theta", "ts_theta_10pct"} <= metrics
        # 0.2 s episodes cannot settle; statistics stay well defined
        for r in rows[1:]:
            if r[1].startswith("mse"):
                assert float(r[2]) >= 0.0 and int(r[5]) == 3

    def test_pvalue_table(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path)
        with open(tmp_path / "pvalues.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algo_a", "algo_b", "metric", "t", "dof",
                           "p_value"]
        pairs = {(r[0], r[1]) for r in rows[1:]}
        assert ("mppi", "soppi") in pairs and ("soppi", "mppi") in pairs
        for r in rows[1:]:
            if r[5] != "":
                assert 0.0 <= float(r[5]) <= 1.0


class TestCli:
    def test_run_and_summarize_and_plotdata(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "results"
        rc = cli_main(["run", "--config", str(cfg_path), "--trials", "2",
                       "--out", str(out)])
        assert rc == 0
        assert "record files" in capsys.readouterr().out

        rc = cli_main(["summarize", "--in", str(out)])
        assert rc == 0
        assert "mse_theta" in capsys.readouterr().out

        plots = tmp_path / "plots"
        rc = cli_main(["plotdata", "--in", str(out), "--out", str(plots)])
        assert rc == 0
        assert (plots / "plot_mppi_state_2.csv").exists()
        assert (plots / "plot_soppi_u_0.csv").exists()

    def test_plotdata_and_summary_follow_trial_order(self, tmp_path):
        # With 11 trials a filename sort puts trial 10 before trial 2.
        raw = {
            "system": {"id": "double_integrator", "params": {"dt": 0.1}},
            "cost": {"Q": [1.0, 0.1], "R": [0.01], "Q_T": [10.0, 1.0],
                     "x_target": [0.0, 0.0]},
            "controller": {"K": 8, "horizon": 5, "lambda": 1.0,
                           "sigma": 1.0},
            "svgd": {"step_size": 0.05, "iterations": 1, "bandwidth": 1.0},
            "experiment": {"algos": ["mppi", "soppi"], "n_trials": 11,
                           "base_seed": 0, "t_total": 0.3,
                           "x0": [1.0, 0.0]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        written = (out / "summary.csv").read_bytes()
        assert cli_main(["summarize", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == written

        plots = tmp_path / "plots"
        assert cli_main(["plotdata", "--in", str(out),
                         "--out", str(plots)]) == 0
        for algo in ("mppi", "soppi"):
            trials = [harness.read_record_csv(out / f"{algo}_trial_{i}.csv")
                      for i in range(11)]
            for kind, series in (("state_0", lambda r: r.states[:, 0]),
                                 ("u_0", lambda r: r.controls[:, 0])):
                with open(plots / f"plot_{algo}_{kind}.csv",
                          newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0][1:] == [f"trial_{i}" for i in range(11)]
                columns = np.array(rows[1:], dtype=float).T[1:]
                for i, rec in enumerate(trials):
                    np.testing.assert_array_equal(columns[i], series(rec))

    def test_algo_and_seed_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfg_path), "--algo", "mppi",
                       "--trials", "1", "--seed", "7", "--out", str(out)])
        assert rc == 0
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["trial_seeds"] == [7]
        assert set(manifest["record_files"]) == {"mppi_trial_0.csv"}

    def test_bad_config_is_an_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        bad = tiny_config()
        bad["typo"] = True
        cfg_path.write_text(json.dumps(bad))
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("controller", "K", 2.5), ("controller", "K", True),
        ("controller", "horizon", 2.5), ("controller", "seed", 1.5),
        ("svgd", "iterations", 2.5), ("svgd", "bandwidth", True),
        ("experiment", "n_trials", 2.7), ("experiment", "base_seed", "0"),
        ("experiment", "base_seed", 2**63), ("controller", "seed", 2**63),
        ("controller", "seed", -2**63 - 1),
        ("experiment", "algos", ["cem"]),
        ("experiment", "algos", ["soppi", "soppi"]),
        ("controller", "sigma", 0), ("controller", "sigma", -1.0),
        ("controller", "sigma", math.nan), ("controller", "sigma", math.inf),
        ("controller", "sigma", True), ("controller", "sigma", [1.0, 2.0]),
        ("controller", "sigma", [[1.0]]),
        ("controller", "lambda", True), ("controller", "lambda", math.nan),
        ("controller", "lambda", math.inf),
        ("svgd", "step_size", True), ("svgd", "step_size", math.nan),
        ("svgd", "step_size", -math.inf),
        ("svgd", "alpha", False), ("svgd", "alpha", math.nan),
        ("svgd", "alpha", math.inf),
        ("svgd", "bandwidth", math.nan), ("svgd", "bandwidth", math.inf),
        ("experiment", "t_total", -5), ("experiment", "t_total", 0.0),
        ("experiment", "t_total", math.nan),
        ("experiment", "t_total", math.inf),
        ("experiment", "t_total", True),
        ("experiment", "t_total", 0.005), ("experiment", "t_total", 0.03),
        ("experiment", "x0", [0.0, 0.0, math.nan, 0.0]),
        ("experiment", "x0", [0.0, math.inf, 0.0, 0.0]),
        ("experiment", "algos", 5), ("experiment", "algos", "mppi"),
        ("system", "id", ["cartpole"]), ("system", "id", "acrobot"),
        ("system", "params", [1.0]), ("system", "params", 5),
        ("system", "params", {"foo": 1}),
        ("cost", "Q", {"a": 1.0}), ("cost", "R", {"a": 1.0}),
        ("cost", "Q_T", {"a": 1.0}), ("cost", "x_target", {"a": 1.0}),
        ("cost", "u_ref", {"a": 1.0}), ("experiment", "x0", {"a": 1.0}),
        ("cost", "angle_dims", 2), ("cost", "angle_dims", [7]),
        ("cost", "angle_dims", [-1]), ("cost", "angle_dims", [2.5]),
        ("cost", "angle_dims", [True]), ("cost", "angle_dims", "2"),
        ("cost", "u_ref", [[0.0]] * 4), ("cost", "u_ref", [[0.0]] * 6),
        ("experiment", "out_dir", 5), ("experiment", "out_dir", ""),
        ("experiment", "out_dir", ["res"]),
        ("system", "id", MISSING), ("cost", "Q", MISSING),
        ("cost", "R", MISSING), ("cost", "Q_T", MISSING),
        ("cost", "x_target", MISSING), ("experiment", "algos", MISSING),
        ("experiment", "x0", MISSING),
    ])
    def test_malformed_value_rejected_before_any_output(
            self, tmp_path, capsys, section, key, value):
        raw = tiny_config()
        if value is MISSING:
            del raw[section][key]
        else:
            raw[section][key] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cost,message", [
        ({"Q": [1.0, 1.0, 1.0], "Q_T": [1.0, 1.0, 1.0],
          "x_target": [0.0, 0.0, 0.0]}, "cost.Q must be"),
        ({"Q_T": [1.0, 1.0, 1.0]}, "cost.Q_T must be"),
        ({"R": [1.0, 1.0]}, "cost.R must be"),
        ({"x_target": [0.0, 0.0, 0.0]}, "x_target dimension does not match"),
        ({"u_ref": [[0.0, 0.0]] * 5}, "u_ref must be (horizon, control_dim)"),
    ], ids=["Q", "Q_T", "R", "x_target", "u_ref"])
    def test_cost_sized_for_another_system_rejected_before_any_output(
            self, tmp_path, capsys, cost, message):
        # Sizes that agree with each other but not with the pendulum used
        # to fail only in the first step, after the manifest was written.
        raw = tiny_pendulum_config()
        raw["cost"].update(cost)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", [None, "system", "cost",
                                         "controller", "svgd", "experiment"])
    def test_non_object_config_is_an_error_exit(self, tmp_path, capsys,
                                                section):
        if section is None:
            raw = [1, {}]
        else:
            raw = tiny_config()
            raw[section] = 5
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err
        if section is not None:
            assert repr(section) in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("n_trials", 0), ("base_seed", "0"), ("algos", ["cem"])])
    def test_flag_replaces_a_bad_config_value(self, tmp_path, key, value):
        # The config is checked once, with the flags applied, so a bad
        # value that a flag replaces is never seen.
        raw = tiny_config()
        raw["experiment"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "res"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--algo", "mppi", "--trials", "1",
                         "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] and manifest["trial_seeds"] == [3]
        assert manifest["config"]["experiment"][key] != value

    def test_seed_beyond_int64_is_an_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                       "--seed", "9223372036854775808"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "base_seed" in err
        assert not out.exists()

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        # Trials always run one at a time, so ``run`` has no --workers flag.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                      "--workers", "1"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_config_directory_is_an_error_exit(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = cli_main(["run", "--config", str(tmp_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert not out.exists()

    def test_out_naming_a_file_is_an_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        out.write_text("kept")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text() == "kept"

    def test_missing_results_dir(self, tmp_path, capsys):
        rc = cli_main(["summarize", "--in", str(tmp_path / "nope")])
        assert rc == 1

    def test_summarize_partial_battery_names_missing_algo(
            self, tmp_path, capsys, monkeypatch):
        # SOPPI trial 0 raises: the battery stops with only MPPI records.
        def fail(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setitem(controller._STEPPERS, "soppi", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        with pytest.raises(RuntimeError):
            cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert not manifest["complete"]
        assert set(manifest["record_files"].values()) == {"mppi"}
        capsys.readouterr()
        rc = cli_main(["summarize", "--in", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "soppi" in err

    @pytest.mark.parametrize("command", ["summarize", "plotdata"])
    @pytest.mark.parametrize("manifest", [{"config": tiny_config()},
                                          {"record_files": ["a.csv"]}, []])
    def test_manifest_without_record_files_is_an_error_exit(
            self, tmp_path, capsys, command, manifest):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = [command, "--in", str(tmp_path)]
        if command == "plotdata":
            argv += ["--out", str(tmp_path / "plots")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "manifest.json" in err and "record_files" in err
        assert not (tmp_path / "plots").exists()

    @pytest.mark.parametrize("command", ["summarize", "plotdata"])
    def test_empty_record_file_is_an_error_exit(self, tmp_path, capsys,
                                                command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        assert cli_main(["run", "--config", str(cfg_path), "--trials", "1",
                         "--out", str(out)]) == 0
        path = out / "soppi_trial_0.csv"
        path.write_text("")
        capsys.readouterr()
        argv = [command, "--in", str(out)]
        if command == "plotdata":
            argv += ["--out", str(tmp_path / "plots")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not (tmp_path / "plots").exists()

    def test_plotdata_of_a_one_row_record(self, tmp_path):
        # One state and no control: the controls are (0, m), not (0,).
        (tmp_path / "manifest.json").write_text(
            json.dumps({"record_files": {"mppi_trial_0.csv": "mppi"}}))
        (tmp_path / "mppi_trial_0.csv").write_bytes(
            b"t,state_0,state_1,u_0\r\n0,0,0,\r\n")
        plots = tmp_path / "plots"
        assert cli_main(["plotdata", "--in", str(tmp_path),
                         "--out", str(plots)]) == 0
        with open(plots / "plot_mppi_u_0.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["t", "trial_0"]]
        with open(plots / "plot_mppi_state_1.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["t", "trial_0"], ["0", "0"]]

    def test_summarize_of_a_one_row_record(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"config": tiny_pendulum_config(),
             "record_files": {"mppi_trial_0.csv": "mppi"}}))
        (tmp_path / "mppi_trial_0.csv").write_bytes(
            b"t,state_0,state_1,u_0\r\n0,0,0.5,\r\n")
        assert cli_main(["summarize", "--in", str(tmp_path)]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = {r["metric"]: r for r in csv.DictReader(fh)}
        assert float(rows["mse_state_0"]["mean"]) == pytest.approx(
            math.pi ** 2, rel=1e-12)
        assert float(rows["mse_state_1"]["mean"]) == 0.25
        assert rows["mse_state_0"]["n"] == "1"

    def test_summarize_manifest_without_config_is_an_error_exit(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        assert cli_main(["run", "--config", str(cfg_path), "--trials", "1",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["config"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli_main(["summarize", "--in", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "manifest.json" in err and "config" in err

    @pytest.mark.parametrize("command", ["summarize", "plotdata"])
    @pytest.mark.parametrize("fault", ["short", "long", "text", "blank"])
    def test_malformed_record_row_names_file_and_line(
            self, tmp_path, capsys, command, fault):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "res"
        assert cli_main(["run", "--config", str(cfg_path), "--trials", "1",
                         "--out", str(out)]) == 0
        path = out / "soppi_trial_0.csv"
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row = {"short": row[:-2], "long": row + ["1"],
               "text": row[:1] + ["x"] + row[2:],
               "blank": row[:-1] + [""]}[fault]   # no control, not last
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = [command, "--in", str(out)]
        if command == "plotdata":
            argv += ["--out", str(tmp_path / "plots")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path}:3:" in err


def test_plot_data_columns(tmp_path):
    rng = np.random.default_rng(1)
    recs = [TrialRecord(times=0.1 * np.arange(4),
                        states=rng.normal(size=(4, 2)),
                        controls=rng.normal(size=(3, 1))) for _ in range(2)]
    written = harness.emit_plot_data({"mppi": recs}, tmp_path)
    assert len(written) == 3  # two state signals plus one control
    with open(tmp_path / "plot_mppi_state_1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "trial_0", "trial_1"]
    assert len(rows) == 5
    np.testing.assert_allclose(float(rows[2][1]), recs[0].states[1, 1],
                               rtol=1e-15)
