import csv
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from misa import (
    ConfigError,
    DefinitenessError,
    DispersionChoice,
    DomainError,
    ExperimentConfig,
    ParseError,
    RunRecord,
    SimSpec,
    SubspaceAssignment,
    config_from_dict,
    correlation_summary,
    load_matrix,
    preset,
    run_experiment,
    save_matrix,
    summarize,
    write_results,
)
from misa import harness
from misa.cli import main as cli_main


class TestMatrixIO:
    def test_binary_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 13))
        A[0, 0] = -0.0
        A[1, 1] = 1e-300
        p = tmp_path / "a.misa"
        save_matrix(p, A)
        B = load_matrix(p)
        assert B.dtype == np.float64
        assert np.array_equal(A.view(np.uint64), B.view(np.uint64))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 5))
        p = tmp_path / "a.csv"
        save_matrix(p, A)
        np.testing.assert_array_equal(load_matrix(p), A)  # %.17g is lossless

    def test_csv_ragged_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="row"):
            load_matrix(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.misa"
        p.write_bytes(b"")
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.misa"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_matrix(p)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        p = tmp_path / "t.misa"
        save_matrix(p, rng.standard_normal((4, 4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_matrix(p)


# marks a key the test removes
DROP = object()


class TestConfig:
    def base(self):
        return {
            "experiment": "custom",
            "sim": {"subspace_dims": [[1], [1]], "dims_v": [2], "n_obs": 100,
                    "cond_target": 2.0},
        }

    def test_minimal_custom(self):
        cfg = config_from_dict(self.base())
        assert cfg.experiment == "custom"
        assert cfg.sim.n_obs == 100

    def test_unknown_top_key_named(self):
        d = self.base()
        d["solvr"] = "misa"
        with pytest.raises(ConfigError, match="solvr"):
            config_from_dict(d)

    def test_removed_precision_b_key_named(self):
        d = self.base()
        d["precision_b"] = 80
        with pytest.raises(ConfigError, match="precision_b"):
            config_from_dict(d)

    def test_unknown_sim_key_named(self):
        d = self.base()
        d["sim"]["n_observations"] = 5
        with pytest.raises(ConfigError, match="n_observations"):
            config_from_dict(d)

    def test_unknown_optim_key_named(self):
        d = self.base()
        d["optim"] = {"tol_funn": 1e-6}
        with pytest.raises(ConfigError, match="tol_funn"):
            config_from_dict(d)

    def test_snr_inf_string(self):
        d = self.base()
        d["sim"]["snr_db"] = "inf"
        cfg = config_from_dict(d)
        assert np.isinf(cfg.sim.snr_db)

    def test_bad_snr_string(self):
        d = self.base()
        d["sim"]["snr_db"] = "lots"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_custom_without_sim_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "custom"})

    def test_preset_override(self):
        cfg = config_from_dict({"experiment": "ica1", "replicates": 2})
        assert cfg.replicates == 2
        assert cfg.reduce == "pre"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("ica99")

    def test_bad_solver(self):
        d = self.base()
        d["solver"] = "em"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_bad_dispersion(self):
        d = self.base()
        d["dispersion"] = "affine"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    @pytest.mark.parametrize("kw", [{"threads": 0}, {"threads": -3}, {"T": -2},
                                    {"seed": -1}])
    def test_bad_threads_rounds_or_seed(self, kw):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "isa2", **kw})

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "subspace_dims", DROP), ("sim", "n_obs", "100"),
        ("sim", "cond_target", "3"), ("optim", "tol_fun", "x"),
        (None, "instances", "3"), (None, "T", None), (None, "threads", 1.5)],
        ids=lambda v: v if isinstance(v, str) else None)
    def test_missing_or_wrong_typed_key_named(self, section, key, value):
        d = self.base()
        tree = d if section is None else d.setdefault(section, {})
        if value is DROP:
            del tree[key]
        else:
            tree[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(d)

    def test_bad_optim_knob(self):
        # OptimOptions' own checks (test_optimizer.py) reach config files
        with pytest.raises(DomainError):
            config_from_dict({"experiment": "isa2", "optim": {"typical_x": -1.0}})

    def test_dispersion_only_with_plain_solver(self):
        # misa-gp would ignore the dispersion, so asking for one is an error
        d = self.base()
        d["dispersion"] = "invariant"
        assert config_from_dict(d).dispersion.value == "invariant"
        d["solver"] = "misa-gp"
        with pytest.raises(ConfigError, match="dispersion"):
            config_from_dict(d)
        d["dispersion"] = "controlled"
        assert config_from_dict(d).solver == "misa-gp"
        with pytest.raises(ConfigError, match="dispersion"):
            config_from_dict({"experiment": "isa1", "dispersion": "invariant"})


# every field of the six presets, spelled out: what each protocol sets, and
# what all of them share
SIM_SHARED = {"cond_target": 3.0, "snr_db": np.inf, "rho_max": 0.5,
              "family": "mvlaplace", "copula_draws": 50, "ar_rho": 0.85, "seed": 0}
CFG_SHARED = {"reduce": "none", "solver": "misa",
              "dispersion": DispersionChoice.SCALE_CONTROLLED, "T": 2, "instances": 1,
              "replicates": 10, "seed": 0, "out_dir": None, "threads": 1}
OPTIM_SHARED = {"typical_x": 0.1, "max_fun_evals": 50000, "max_iters": 10000,
                "lbfgs_memory": 10, "tol_fun": 1e-8, "tol_x": 1e-9}
PINNED = {
    "ica1": ({"subspace_dims": [[1]] * 10, "dims_v": [40], "n_obs": 5000},
             {"reduce": "pre", "instances": 10}),
    "iva1": ({"subspace_dims": [[1] * 5] * 8, "dims_v": [8] * 5, "n_obs": 20000}, {}),
    "iva2": ({"subspace_dims": [[1, 1]] * 12, "dims_v": [20, 20], "n_obs": 10000,
              "snr_db": 15.0, "rho_max": 0.7, "family": "copula"}, {"reduce": "pre"}),
    "isa1": ({"subspace_dims": [[4]] * 4, "dims_v": [16], "n_obs": 8000},
             {"solver": "misa-gp"}),
    "isa2": ({"subspace_dims": [[1], [2], [3], [4], [5]], "dims_v": [15], "n_obs": 8000},
             {"solver": "misa-gp"}),
    "isa3": ({"subspace_dims": [[2, 1], [2, 1], [1, 3]], "dims_v": [5, 5], "n_obs": 8000},
             {"solver": "misa-gp"}),
}


class TestPresets:
    def test_preset_names(self):
        assert sorted(harness._PRESETS) == sorted(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_preset_pinned(self, name):
        sim, settings = PINNED[name]
        cfg = preset(name)
        assert cfg.sim.subspace_dims.dtype.kind == "i"
        got_sim = {f.name: getattr(cfg.sim, f.name) for f in fields(SimSpec)}
        got_sim["subspace_dims"] = cfg.sim.subspace_dims.tolist()
        assert got_sim == {**SIM_SHARED, **sim}
        assert asdict(cfg.optim) == OPTIM_SHARED
        got = {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)
               if f.name not in ("sim", "optim")}
        assert got == {"experiment": name, **CFG_SHARED, **settings}

    def test_each_call_builds_new_objects(self):
        changed = preset("isa3")
        changed.sim.subspace_dims[0, 0] = 7
        changed.sim.dims_v.append(1)
        changed.optim.tol_fun = 1.0
        fresh = preset("isa3")
        assert fresh.sim.subspace_dims.tolist() == PINNED["isa3"][0]["subspace_dims"]
        assert fresh.sim.dims_v == [5, 5] and fresh.optim.tol_fun == 1e-8


def fake_record(i, r, misi):
    return RunRecord(instance=i, replicate=r, instance_seed=0, replicate_seed=0,
                     misi=misi, mmse=float("nan"), objective=0.0, iterations=1,
                     wall_time=0.0, status="Converged_fun")


class TestSummarize:
    def cfg(self, instances=3, replicates=3):
        d = {"experiment": "custom",
             "sim": {"subspace_dims": [[1], [1]], "dims_v": [2], "n_obs": 100,
                     "cond_target": 2.0},
             "instances": instances, "replicates": replicates}
        return config_from_dict(d)

    def test_hand_computed_grid(self):
        # per-instance minima: 0.02, 0.2, 0.04 -> median 0.04
        grid = [[0.5, 0.02, 0.9], [0.2, 0.3, 0.25], [0.04, 0.06, 0.05]]
        recs = [fake_record(i, r, grid[i][r]) for i in range(3) for r in range(3)]
        recs[1].status = recs[5].status = "MaxIter"
        recs[4].status = "LineSearchFail"
        s = summarize(self.cfg(), recs)
        assert s["best_misi_per_instance"] == pytest.approx([0.02, 0.2, 0.04])
        assert s["median_best_misi"] == pytest.approx(0.04)
        assert s["good"] is True
        assert s["excellent"] is False
        assert s["status_counts"] == {"Converged_fun": 6, "LineSearchFail": 1,
                                      "MaxIter": 2}
        assert list(s["status_counts"]) == sorted(s["status_counts"])

    def test_nan_replicates_skipped(self):
        recs = [fake_record(0, 0, float("nan")), fake_record(0, 1, 0.03),
                fake_record(1, 0, 0.01), fake_record(1, 1, 0.02),
                fake_record(2, 0, 0.05), fake_record(2, 1, float("nan"))]
        s = summarize(self.cfg(replicates=2), recs)
        assert s["best_misi_per_instance"] == pytest.approx([0.03, 0.01, 0.05])

    def test_all_nan_instance(self):
        recs = [fake_record(0, 0, float("nan"))]
        s = summarize(self.cfg(instances=1, replicates=1), recs)
        assert np.isnan(s["median_best_misi"])
        assert s["good"] is False


def smoke_config(out_dir=None, threads=1):
    return config_from_dict({
        "experiment": "custom",
        "sim": {"subspace_dims": [[1], [1], [1]], "dims_v": [3], "n_obs": 2000,
                "cond_target": 2.0},
        "optim": {"tol_fun": 1e-8},
        "instances": 2, "replicates": 2, "seed": 7,
        **({"out_dir": out_dir} if out_dir else {}),
        "threads": threads,
    })


class TestRunExperiment:
    def test_smoke_run_recovers(self):
        records, summary = run_experiment(smoke_config())
        assert len(records) == 4
        assert summary["median_best_misi"] < 0.1
        assert summary["good"] is True

    def test_byte_identical_rerun(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_experiment(smoke_config(str(d1)))
        run_experiment(smoke_config(str(d2)))
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_threaded_matches_serial(self, tmp_path):
        d1, d2 = tmp_path / "s", tmp_path / "t"
        run_experiment(smoke_config(str(d1), threads=1))
        run_experiment(smoke_config(str(d2), threads=2))
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()

    def test_bug_in_replicate_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr(harness, "solve_instance", broken)
        with pytest.raises(TypeError):
            run_experiment(smoke_config())

    def test_numerical_failure_recorded(self, monkeypatch):
        def singular(*args):
            raise DefinitenessError("dispersion is not positive definite")

        monkeypatch.setattr(harness, "solve_instance", singular)
        records, summary = run_experiment(smoke_config())
        assert [r.status for r in records] == ["error:DefinitenessError"] * 4
        assert np.isnan(summary["median_best_misi"])
        assert summary["status_counts"] == {"error:DefinitenessError": 4}

    def test_write_results_files(self, tmp_path):
        recs = [fake_record(0, 0, 0.01)]
        write_results(tmp_path, recs, {"good": True})
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        assert json.loads((tmp_path / "summary.json").read_text()) == {"good": True}
        header = (tmp_path / "records.csv").read_text().splitlines()[0]
        assert "wall_time" not in header


def correlation_summary_reference(Y_hat, Y_true, P):
    """Per-pair np.corrcoef double loop, the definition being vectorized."""
    K = P.n_subspaces
    R = np.zeros((K, K))
    off = P.col_offsets
    for i in range(K):
        for j in range(K):
            vals = []
            for m in range(len(P.col_dims)):
                ei = P.sources(i)
                ei = ei[(ei >= off[m]) & (ei < off[m + 1])]
                tj = P.sources(j)
                tj = tj[(tj >= off[m]) & (tj < off[m + 1])]
                if len(ei) == 0 or len(tj) == 0:
                    continue
                pair = [abs(np.corrcoef(Y_hat[a], Y_true[b])[0, 1])
                        for a in ei for b in tj]
                vals.append(float(np.mean(pair)))
            R[i, j] = float(np.mean(vals)) if vals else 0.0
    return R


class TestCorrelationSummary:
    def test_matches_pairwise_reference(self):
        # subspaces absent from one dataset and one holding two sources
        # per dataset exercise the present-in-both rule and the pair means
        P = SubspaceAssignment.from_dataset_dims(
            np.array([[1, 1], [1, 0], [0, 1], [2, 2]]))
        rng = np.random.default_rng(5)
        Y_true = rng.standard_normal((P.n_sources, 300))
        Y_hat = rng.standard_normal((P.n_sources, P.n_sources)) @ Y_true
        got = correlation_summary(Y_hat, Y_true, P)
        ref = correlation_summary_reference(Y_hat, Y_true, P)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)
        assert got[1, 2] == 0.0 and got[2, 1] == 0.0


def write_smoke_cfg(tmp_path, **extra):
    cfg = {
        "experiment": "custom",
        "sim": {"subspace_dims": [[1], [1], [1]], "dims_v": [3], "n_obs": 2000,
                "cond_target": 2.0},
        "optim": {"tol_fun": 1e-8},
        "instances": 1, "replicates": 2, "seed": 3,
    }
    cfg.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestCli:
    def test_generate_solve_score(self, tmp_path, capsys):
        cfg = write_smoke_cfg(tmp_path)
        inst = tmp_path / "inst"
        est = tmp_path / "est"
        rc = cli_main(["generate", "--config", str(cfg), "--out", str(inst)])
        assert rc == 0
        assert (inst / "manifest.json").exists()
        assert (inst / "X_0.misa").exists()
        rc = cli_main(["solve", "--config", str(cfg), "--data", str(inst),
                       "--out", str(est)])
        assert rc == 0
        solve = json.loads((est / "solve.json").read_text())
        assert solve["misi"] < 0.1
        capsys.readouterr()
        rc = cli_main(["score", "--data", str(inst), "--est", str(est)])
        assert rc == 0
        score = json.loads(capsys.readouterr().out)
        assert score["misi"] == solve["misi"]
        assert 0.0 <= score["mmse"] < 1.0  # 1-d subspaces: MMSE applies

    def test_records_replay_from_cli(self, tmp_path):
        # generate at a record's instance seed, then solve at its replicate
        # seed: the CLI reproduces the row exactly
        cfg = write_smoke_cfg(tmp_path, solver="misa-gp", reduce="pre", instances=2,
                              sim={"subspace_dims": [[2], [1], [1]], "dims_v": [6],
                                   "n_obs": 1000, "cond_target": 2.0, "rho_max": 0.6})
        run = tmp_path / "run"
        cli_main(["experiment", "--config", str(cfg), "--out", str(run)])
        with open(run / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            inst = tmp_path / f"inst{row['instance']}"
            est = tmp_path / f"est{row['instance']}-{row['replicate']}"
            cli_main(["generate", "--config", str(cfg), "--seed", row["instance_seed"],
                      "--out", str(inst)])
            cli_main(["solve", "--config", str(cfg), "--seed", row["replicate_seed"],
                      "--data", str(inst), "--out", str(est)])
            solve = json.loads((est / "solve.json").read_text())
            assert (solve["misi"], solve["objective"], solve["iterations"], solve["status"]) == (
                float(row["misi"]), float(row["objective"]), int(row["iterations"]),
                row["status"])

    def test_experiment_verb(self, tmp_path, capsys):
        cfg = write_smoke_cfg(tmp_path)
        out = tmp_path / "run"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["good"] is True

    def test_solve_rejects_non_finite_data(self, tmp_path):
        # a NaN in a saved instance is named on load, not met as a failed SVD
        cfg = write_smoke_cfg(tmp_path)
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(cfg), "--out", str(inst)])
        X = load_matrix(inst / "X_0.misa")
        X[1, 7] = np.nan
        save_matrix(inst / "X_0.misa", X)
        with pytest.raises(DomainError, match="dataset 0"):
            cli_main(["solve", "--config", str(cfg), "--data", str(inst),
                      "--out", str(tmp_path / "est")])

    def test_gradcheck_verb(self, capsys):
        rc = cli_main(["gradcheck", "--seed", "0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_experiment_threads_from_config_or_flag(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(cfg):
            seen.append(cfg.threads)
            return [], {"good": True}

        monkeypatch.setattr(harness, "run_experiment", fake_run)
        cfg = write_smoke_cfg(tmp_path, threads=2)
        assert cli_main(["experiment", "--config", str(cfg)]) == 0
        assert cli_main(["experiment", "--config", str(cfg), "--threads", "3"]) == 0
        assert seen == [2, 3]

    @pytest.mark.parametrize("flag", [["--threads", "0"], ["--seed", "-1"]])
    def test_experiment_flags_validated(self, tmp_path, monkeypatch, flag):
        monkeypatch.setattr(harness, "run_experiment",
                            lambda cfg: ([], {"good": True}))
        cfg = write_smoke_cfg(tmp_path)
        with pytest.raises(ConfigError):
            cli_main(["experiment", "--config", str(cfg), *flag])

    def test_solve_gpca_unequal_source_counts_rejected(self, tmp_path):
        # gpca keeps C_1 rows per dataset, so unequal C_m cannot be reduced
        cfg = write_smoke_cfg(tmp_path, reduce="gpca",
                              sim={"subspace_dims": [[1, 1], [1, 2]],
                                   "dims_v": [3, 3], "n_obs": 500,
                                   "cond_target": 2.0})
        inst = tmp_path / "inst"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(inst)]) == 0
        with pytest.raises(ConfigError, match="gpca"):
            cli_main(["solve", "--config", str(cfg), "--data", str(inst),
                      "--out", str(tmp_path / "est")])

    def test_missing_config_and_preset(self):
        with pytest.raises(SystemExit):
            cli_main(["experiment"])
