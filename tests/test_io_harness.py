import json

import numpy as np
import pytest

from misa import (
    ConfigError,
    DefinitenessError,
    ParseError,
    RunRecord,
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
    def test_generate_solve_score(self, tmp_path):
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
        rc = cli_main(["score", "--data", str(inst), "--est", str(est)])
        assert rc == 0

    def test_experiment_verb(self, tmp_path, capsys):
        cfg = write_smoke_cfg(tmp_path)
        out = tmp_path / "run"
        rc = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["good"] is True

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
