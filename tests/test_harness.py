import copy
import csv
import json
import math

import numpy as np
import pytest

from soppi import harness
from soppi.cli import main as cli_main
from soppi.metrics import TrialRecord


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


class TestRecordCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = TrialRecord(times=0.02 * np.arange(6),
                          states=rng.normal(size=(6, 4)),
                          controls=rng.normal(size=(5, 1)),
                          step_wall_times=rng.uniform(1e-4, 1e-2, size=5))
        path = tmp_path / "rec.csv"
        harness.write_record_csv(path, rec)
        back = harness.read_record_csv(path)
        np.testing.assert_array_equal(back.times, rec.times)
        np.testing.assert_array_equal(back.states, rec.states)
        np.testing.assert_array_equal(back.controls, rec.controls)
        np.testing.assert_allclose(back.step_wall_times, rec.step_wall_times,
                                   rtol=1e-15)

    def test_header_and_final_row(self, tmp_path):
        rec = TrialRecord(times=np.array([0.0, 0.1]),
                          states=np.zeros((2, 2)),
                          controls=np.zeros((1, 1)),
                          step_wall_times=np.array([1e-3]))
        path = tmp_path / "rec.csv"
        harness.write_record_csv(path, rec)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "state_0", "state_1", "u_0", "wall_ms"]
        assert rows[-1][-2:] == ["", ""]  # terminal state has no control


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

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = harness.parse_config(tiny_config())
        harness.run_experiment(cfg, tmp_path / "a")
        harness.run_experiment(harness.parse_config(tiny_config()),
                               tmp_path / "b")
        for name in ("mppi_trial_0.csv", "soppi_trial_2.csv", "summary.csv"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            # wall-clock columns legitimately differ between runs
            a = [",".join(r.split(",")[:-1]) for r in a.splitlines()]
            b = [",".join(r.split(",")[:-1]) for r in b.splitlines()]
            if name == "summary.csv":
                a = [r for r in a if "wall" not in r]
                b = [r for r in b if "wall" not in r]
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
        again = harness.load_config(tmp_path / "manifest.json")
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
        assert {"mse_x", "mse_theta", "ts_theta_10pct",
                "mean_step_wall_ms"} <= metrics
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

    def test_missing_results_dir(self, tmp_path, capsys):
        rc = cli_main(["summarize", "--in", str(tmp_path / "nope")])
        assert rc == 1


def test_plot_data_columns(tmp_path):
    rng = np.random.default_rng(1)
    recs = [TrialRecord(times=0.1 * np.arange(4),
                        states=rng.normal(size=(4, 2)),
                        controls=rng.normal(size=(3, 1)),
                        step_wall_times=np.full(3, 1e-3)) for _ in range(2)]
    written = harness.emit_plot_data({"mppi": recs}, tmp_path)
    assert len(written) == 3  # two state signals plus one control
    with open(tmp_path / "plot_mppi_state_1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "trial_0", "trial_1"]
    assert len(rows) == 5
    np.testing.assert_allclose(float(rows[2][1]), recs[0].states[1, 1],
                               rtol=1e-15)
