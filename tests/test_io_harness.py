import csv
import importlib
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

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
    ShapeError,
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
import misa
from misa import harness
from misa.cli import main as cli_main


def run_fresh(code, env=os.environ):
    """The last line code prints, read as JSON, when it runs in a fresh
    interpreter with the environment env that imports misa from this tree."""
    src = str(Path(misa.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**env, "PYTHONPATH": path})
    return json.loads(out.stdout.splitlines()[-1])


RUN_CLI = "from misa import cli\ncli.main(['gradcheck', '--seed', '-1'])\n"


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

    def test_csv_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError, match=re.escape(str(p))):
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

    @pytest.mark.parametrize("section, key, value, match", [
        pytest.param(None, "solvr", "misa", "solvr", id="top"),
        pytest.param(None, "precision_b", 80, "precision_b", id="removed-precision_b"),
        pytest.param("sim", "n_observations", 5, "n_observations", id="sim"),
        pytest.param("optim", "tol_funn", 1e-6, "tol_funn", id="optim"),
        # T alone picks the solver (0 is plain MISA), so solver is no key
        pytest.param(None, "solver", "misa", r"unknown config key\(s\): \['solver'\]",
                     id="solver"),
    ])
    def test_unknown_key_named(self, section, key, value, match):
        d = self.base()
        (d if section is None else d.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError, match=match):
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
        with pytest.raises(ConfigError, match=r"missing config key\(s\): \['sim'\]"):
            config_from_dict({"experiment": "custom"})

    def test_preset_override(self):
        cfg = config_from_dict({"experiment": "ica1", "replicates": 2})
        assert cfg.replicates == 2
        assert cfg.reduce == "pre"

    def test_preset_optim_overridden_key_by_key(self):
        # the other optim keys stay the preset's, not the library defaults
        cfg = config_from_dict({"experiment": "isa2", "optim": {"max_iters": 500}})
        assert asdict(cfg.optim) == {**asdict(preset("isa2").optim), "max_iters": 500}
        assert cfg.optim.tol_fun == 1e-8

    def test_preset_sim_overridden_key_by_key(self):
        # a preset's sim needs none of its required keys restated
        cfg = config_from_dict({"experiment": "iva1", "sim": {"rho_max": 0.1}})
        expected = {**asdict(preset("iva1").sim), "rho_max": 0.1}
        got = asdict(cfg.sim)
        assert got.pop("subspace_dims").tolist() == expected.pop("subspace_dims").tolist()
        assert got == expected

    def test_preset_section_keys_still_checked(self):
        with pytest.raises(ConfigError, match="n_observations"):
            config_from_dict({"experiment": "iva1", "sim": {"n_observations": 5}})
        with pytest.raises(ConfigError, match="max_iters"):
            config_from_dict({"experiment": "iva1", "optim": {"max_iters": 1.5}})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("ica99")

    @pytest.mark.parametrize("name", [["isa2"], {}, 5, None])
    def test_non_string_preset_name(self, name):
        # an unhashable name must not escape as a TypeError
        with pytest.raises(ConfigError, match="unknown experiment preset"):
            config_from_dict({"experiment": name})

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

    @pytest.mark.parametrize("experiment", ["custom", "isa2"])
    def test_sim_seed_rejected(self, experiment):
        # instance seeds derive from the top-level seed; SimSpec has no seed
        d = self.base() if experiment == "custom" else {"experiment": experiment, "sim": {}}
        d["sim"]["seed"] = 12345
        with pytest.raises(ConfigError, match=r"unknown sim key\(s\): \['seed'\]"):
            config_from_dict(d)

    def test_dispersion_with_any_rounds(self):
        # every solve of misa_gp_mdm descends with the configured dispersion
        for T in (0, 2):
            cfg = config_from_dict({**self.base(), "dispersion": "invariant", "T": T})
            assert (cfg.dispersion, cfg.T) == (DispersionChoice.SCALE_INVARIANT, T)
        cfg = config_from_dict({"experiment": "isa1", "dispersion": "invariant"})
        assert (cfg.dispersion, cfg.T) == (DispersionChoice.SCALE_INVARIANT, 2)

    @pytest.mark.parametrize("make", [lambda: preset("isa1"), lambda: preset("isa1").sim,
                                      lambda: preset("isa1").optim],
                             ids=["config", "sim", "optim"])
    def test_unknown_attribute_rejected(self, make):
        # a stale name cannot be set and quietly ignored
        with pytest.raises(AttributeError):
            make().solver = "misa"


# every field of the six presets, spelled out: what each protocol sets, and
# what all of them share
SIM_SHARED = {"cond_target": 3.0, "snr_db": np.inf, "rho_max": 0.5,
              "family": "mvlaplace", "copula_draws": 50, "ar_rho": 0.85}
CFG_SHARED = {"reduce": "none",
              "dispersion": DispersionChoice.SCALE_CONTROLLED, "T": 0, "instances": 1,
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
             {"T": 2}),
    "isa2": ({"subspace_dims": [[1], [2], [3], [4], [5]], "dims_v": [15], "n_obs": 8000},
             {"T": 2}),
    "isa3": ({"subspace_dims": [[2, 1], [2, 1], [1, 3]], "dims_v": [5, 5], "n_obs": 8000},
             {"T": 2}),
}


def config_fields(cfg):
    """(sim, optim, the other fields) of cfg as dicts, subspace_dims a list."""
    sim = {f.name: getattr(cfg.sim, f.name) for f in fields(SimSpec)}
    sim["subspace_dims"] = cfg.sim.subspace_dims.tolist()
    rest = {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)
            if f.name not in ("sim", "optim")}
    return sim, asdict(cfg.optim), rest


class TestPresets:
    def test_preset_names(self):
        assert sorted(harness._PRESETS) == sorted(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_preset_pinned(self, name):
        sim, settings = PINNED[name]
        cfg = preset(name)
        assert cfg.sim.subspace_dims.dtype.kind == "i"
        assert config_fields(cfg) == ({**SIM_SHARED, **sim}, OPTIM_SHARED,
                                      {"experiment": name, **CFG_SHARED, **settings})

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_preset_round_trips_as_config(self, name):
        # every dataclass field is a config key: a preset written out field
        # by field loads back as itself
        sim, optim, rest = config_fields(preset(name))
        if np.isinf(sim["snr_db"]):
            sim["snr_db"] = "inf"
        text = json.dumps({**rest, "dispersion": rest["dispersion"].value,
                           "sim": sim, "optim": optim})
        cfg = config_from_dict(json.loads(text))
        assert cfg.sim.subspace_dims.dtype.kind == "i"
        assert config_fields(cfg) == config_fields(preset(name))

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


def isa3_gp_config(out_dir=None, threads=1):
    # M = 2 misa-gp on isa3's subspace shape: every driver round runs
    # subspace_perm's exhaustive search
    return config_from_dict({
        "experiment": "isa3", "sim": {"n_obs": 1000},
        "instances": 1, "replicates": 2, "seed": 5,
        **({"out_dir": out_dir} if out_dir else {}),
        "threads": threads,
    })


RERUN_CONFIGS = pytest.mark.parametrize("make_config", [smoke_config, isa3_gp_config],
                                        ids=["smoke", "isa3-gp"])


class TestRunExperiment:
    def test_smoke_run_recovers(self):
        records, summary = run_experiment(smoke_config())
        assert len(records) == 4
        assert summary["median_best_misi"] < 0.1
        assert summary["good"] is True

    def test_one_instance_alive_at_a_time(self, monkeypatch):
        # the loop variables of a flat loop keep instance i alive while
        # instance i + 1 is built
        built = []
        build = harness.build_instance

        def tracking(*args):
            assert all(ref() is None for ref in built)
            data, truth, P = build(*args)
            built.append(weakref.ref(data))
            return data, truth, P

        monkeypatch.setattr(harness, "build_instance", tracking)
        records, _ = run_experiment(replace(smoke_config(), instances=3, replicates=1))
        assert len(built) == 3 and len(records) == 3

    @RERUN_CONFIGS
    def test_byte_identical_rerun(self, tmp_path, make_config):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_experiment(make_config(str(d1)))
        run_experiment(make_config(str(d2)))
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    @RERUN_CONFIGS
    def test_threaded_matches_serial(self, tmp_path, make_config):
        d1, d2 = tmp_path / "s", tmp_path / "t"
        run_experiment(make_config(str(d1), threads=1))
        run_experiment(make_config(str(d2), threads=2))
        assert (d1 / "records.csv").read_bytes() == (d2 / "records.csv").read_bytes()

    def test_solve_and_score_load_no_scipy(self, tmp_path):
        # in a fresh process: a solve, its scoring and the CLI verbs around it
        # load no scipy module at all (scipy.special alone is about 24 MB);
        # only the copula generator (iva2) needs scipy
        code = (
            "import json, sys\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from misa import KotzParams, SubspaceAssignment, cli, combinatorics, harness, metrics\n"
            "loaded = {}\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "for name, n_obs in (('iva1', 1000), ('isa2', 1000), ('isa3', 2000), ('ica1', 1000)):\n"
            "    cfg = harness.preset(name)\n"  # isa3: M = 2 misa-gp; ica1: reduce pre
            "    harness.run_experiment(replace(cfg, instances=1, replicates=1, threads=1,\n"
            "                                   sim=replace(cfg.sim, n_obs=n_obs)))\n"
            "    loaded[name] = scipy()\n"
            "metrics.mmse(np.random.default_rng(0).uniform(-1, 1, (6, 6)))\n"
            "P = SubspaceAssignment.from_dataset_dims(np.array([[2], [1], [3]]))\n"
            "combinatorics.match(P, P)\n"
            "KotzParams(1.3, 0.7, 1.5, 4)\n"
            "loaded['scoring'] = scipy()\n"
            f"root = {str(tmp_path)!r}\n"
            "cfg = root + '/cfg.json'\n"
            "open(cfg, 'w').write(json.dumps({'experiment': 'isa2', 'sim': {'n_obs': 1000}}))\n"
            "codes = [cli.main(['generate', '--config', cfg, '--out', root + '/inst']),\n"
            "         cli.main(['solve', '--config', cfg, '--data', root + '/inst',\n"
            "                   '--out', root + '/est']),\n"
            "         cli.main(['score', '--data', root + '/inst', '--est', root + '/est'])]\n"
            "loaded['cli'] = scipy()\n"
            "print(json.dumps([codes, loaded]))")
        codes, loaded = run_fresh(code)
        assert all(c in (0, 1) for c in codes)  # 1 is a MISI miss, not an error
        assert loaded == {k: [] for k in ("iva1", "isa2", "isa3", "ica1", "scoring", "cli")}

    def test_bug_in_replicate_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr(harness, "solve_instance", broken)
        with pytest.raises(TypeError):
            run_experiment(smoke_config())

    def test_bad_input_in_replicate_propagates(self, monkeypatch):
        # only numerical failures are recorded; a ShapeError is a bug or bad
        # input, so it surfaces
        def mismatched(*args):
            raise ShapeError("W and A disagree in shape")

        monkeypatch.setattr(harness, "score_estimate", mismatched)
        with pytest.raises(ShapeError):
            run_experiment(smoke_config())

    def test_invariant_dispersion_recovers(self):
        cfg = config_from_dict({
            "experiment": "custom",
            "sim": {"subspace_dims": [[1, 1]] * 3, "dims_v": [3, 3], "n_obs": 2000,
                    "cond_target": 2.0},
            "dispersion": "invariant", "optim": {"tol_fun": 1e-8},
            "replicates": 2, "seed": 1})
        assert run_experiment(cfg)[1]["good"] is True

    def test_reduce_none_rejects_more_channels_than_sources(self):
        # 2 sources in 3 channels: noiseless X has rank 2, so without
        # reduction the objective is unbounded below
        cfg = config_from_dict({
            "experiment": "custom",
            "sim": {"subspace_dims": [[1], [1]], "dims_v": [3], "n_obs": 500}})
        data, _, P = harness.build_instance(cfg.sim, 0)
        with pytest.raises(ConfigError, match=r"dataset 0 .*'pre'"):
            harness.reduce_instance(cfg, data, P)

    def test_reduce_none_accepts_square_blocks(self):
        # no reduction is the identity B, so W B is W bit for bit
        cfg = smoke_config()
        data, _, P = harness.build_instance(cfg.sim, 0)
        work, B = harness.reduce_instance(cfg, data, P)
        assert work is data
        assert all(np.array_equal(Bm, np.eye(V)) for Bm, V in zip(B.blocks, data.dims))
        sol, W_total = harness.solve_instance(cfg, work, P, B, 0)
        for Wm, Fm in zip(W_total.blocks, sol.W_final.blocks, strict=True):
            assert Wm.tobytes() == Fm.tobytes()

    def test_gpca_isa_converges(self):
        # an isa3-shaped run: on the whitened pooled projection's own rows,
        # every run ended in LineSearchFail at MISI 0.4-0.7
        cfg = config_from_dict({"experiment": "isa3", "reduce": "gpca",
                                "sim": {"n_obs": 4000}, "instances": 1,
                                "replicates": 2, "seed": 1})
        summary = run_experiment(cfg)[1]
        assert summary["status_counts"] == {"Converged_fun": 2}
        assert summary["median_best_misi"] < 0.1

    def test_numerical_failure_recorded(self, monkeypatch, tmp_path):
        def singular(*args):
            raise DefinitenessError("dispersion is not positive definite")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        monkeypatch.setattr(harness, "solve_instance", singular)
        records, summary = run_experiment(smoke_config(str(tmp_path)))
        assert [r.status for r in records] == ["error:DefinitenessError"] * 4
        assert np.isnan(summary["median_best_misi"])
        assert summary["status_counts"] == {"error:DefinitenessError": 4}
        # the undefined median is written as null, which strict parsers accept
        written = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert written["median_best_misi"] is None

    def test_write_results_files(self, tmp_path):
        recs = [fake_record(0, 0, 0.01)]
        write_results(tmp_path, recs, {"good": True})
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        assert json.loads((tmp_path / "summary.json").read_text()) == {"good": True}
        header = (tmp_path / "records.csv").read_text().splitlines()[0]
        assert "wall_time" not in header

    def test_summary_json_byte_form(self, tmp_path):
        summary = {"good": True, "median_best_misi": 0.0123,
                   "status_counts": {"MaxIter": 1, "Converged_fun": 3}}
        write_results(tmp_path, [fake_record(0, 0, 0.01)], summary)
        assert (tmp_path / "summary.json").read_text() == (
            json.dumps(summary, indent=2, sort_keys=True) + "\n")


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


class TestPackage:
    # the public names and their modules, as the package exported them
    # when it imported every module at once
    EXPORTS = {
        "errors": "ConfigError DefinitenessError DomainError MisaError ParseError RankError "
                  "ShapeError",
        "model": "PSI_GAUSS PSI_LAPLACE BlockTransform DispersionChoice KotzParams "
                 "MultiDataset SubspaceAssignment kotz_from_psi kotz_log_pdf",
        "objective": "ObjectiveContext ObjectiveReport evaluate relative_gradient",
        "optimizer": "OptimOptions Solution Status minimize random_row_orthonormal",
        "reduction": "ReductionResult gpca_init pre_gradient pre_value reduce_data",
        "combinatorics": "gp hungarian match misa_gp_mdm run_misa subspace_perm",
        "simgen": "GroundTruth SimSpec build_instance gen_mixing sample_copula_sources "
                  "sample_mvlaplace snr_scale toeplitz_corr",
        "metrics": "MISI_EXCELLENT MISI_GOOD interference_matrix misi "
                   "misi_from_interference mmse",
        "harness": "ExperimentConfig RunRecord config_from_dict correlation_summary "
                   "load_config preset run_experiment summarize write_results",
        "io": "load_matrix save_matrix",
    }

    def test_import_loads_no_numpy(self):
        # so that a caller can still set the BLAS thread count after it
        loaded = run_fresh("import json, sys\nimport misa\n"
                           "print(json.dumps(sorted(m for m in sys.modules\n"
                           "                        if m.split('.')[0] == 'numpy')))")
        assert loaded == []

    def test_names_resolve_to_their_modules(self):
        names = {n: m for m, ns in self.EXPORTS.items() for n in ns.split()}
        assert len(names) == 61
        assert sorted(misa.__all__) == sorted(names)
        for name, module in names.items():
            assert getattr(misa, name) is getattr(
                importlib.import_module(f"misa.{module}"), name), name
        assert set(misa.__all__) <= set(dir(misa))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            misa.no_such_name


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
        cfg = write_smoke_cfg(tmp_path, T=2, reduce="pre", instances=2,
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

    def test_solve_rejects_non_finite_data(self, tmp_path, capsys):
        # a NaN in a saved instance is named on load, not met as a failed SVD
        cfg = write_smoke_cfg(tmp_path)
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(cfg), "--out", str(inst)])
        X = load_matrix(inst / "X_0.misa")
        X[1, 7] = np.nan
        save_matrix(inst / "X_0.misa", X)
        capsys.readouterr()
        rc = cli_main(["solve", "--config", str(cfg), "--data", str(inst),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        assert re.match(r"misa: error: dataset 0 ", capsys.readouterr().err)

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
    def test_experiment_flags_validated(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.setattr(harness, "run_experiment",
                            lambda cfg: ([], {"good": True}))
        cfg = write_smoke_cfg(tmp_path)
        assert cli_main(["experiment", "--config", str(cfg), *flag]) == 2
        assert re.match(rf"misa: error: {flag[0][2:]} must be", capsys.readouterr().err)

    def test_solve_gpca_unequal_source_counts_rejected(self, tmp_path, capsys):
        # gpca keeps C_1 rows per dataset, so unequal C_m cannot be reduced
        cfg = write_smoke_cfg(tmp_path, reduce="gpca",
                              sim={"subspace_dims": [[1, 1], [1, 2]],
                                   "dims_v": [3, 3], "n_obs": 500,
                                   "cond_target": 2.0})
        inst = tmp_path / "inst"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(inst)]) == 0
        capsys.readouterr()
        rc = cli_main(["solve", "--config", str(cfg), "--data", str(inst),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        assert re.match(r"misa: error: gpca", capsys.readouterr().err)

    def test_unknown_preset_exits_2(self, capsys):
        assert cli_main(["experiment", "--experiment", "ica99"]) == 2
        assert capsys.readouterr().err == "misa: error: unknown experiment preset 'ica99'\n"

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    @pytest.mark.parametrize("name", [["isa2"], {}])
    def test_non_string_preset_name_exits_2(self, tmp_path, capsys, command, name):
        cfg = write_smoke_cfg(tmp_path, experiment=name)
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"misa: error: unknown experiment preset {name!r}\n"

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    def test_one_source_dataset_cond_target_exits_2(self, tmp_path, capsys, command):
        # the second dataset holds one source, so the default cond_target
        # 3.0 is out of reach; the config fails naming the field and dataset
        cfg = write_smoke_cfg(tmp_path, sim={"subspace_dims": [[1, 0], [1, 0], [1, 1]],
                                             "dims_v": [3, 2], "n_obs": 500})
        out = tmp_path / "o"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert re.match(r"misa: error: cond_target must be 1 for dataset 1\b",
                        capsys.readouterr().err)
        assert not out.exists()

    def test_one_subspace_config_exits_2(self, tmp_path, capsys):
        # MISI is undefined for K = 1, so the config fails before any solve
        # instead of recording every replicate as error:DomainError
        cfg = write_smoke_cfg(tmp_path, sim={"subspace_dims": [[3]], "dims_v": [3],
                                             "n_obs": 500})
        run = tmp_path / "run"
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(run)]) == 2
        assert capsys.readouterr().err == (
            "misa: error: sim.subspace_dims needs at least 2 subspaces (rows), got 1\n")
        assert not run.exists()

    def test_score_without_mixing_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        (inst / "A_0.misa").unlink()
        capsys.readouterr()
        assert cli_main(["score", "--data", str(inst)]) == 2
        assert re.match(r"misa: error: .*no mixing matrices", capsys.readouterr().err)

    def assert_names_file(self, capsys, argv, path):
        # bad input file: exit 2 and one error line that names the file
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"misa: error: {re.escape(str(path))}: [^\n]+\n", err)
        return err

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["W_0.misa", "A_0.misa", "Y.misa"], ids=["W", "A", "Y"])
    def test_score_non_finite_named(self, tmp_path, capsys, name, value):
        # a non-finite A_0.misa was scored as a MISI miss (exit 1), and a
        # non-finite W_0.misa or Y.misa failed in the metrics, naming no file
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        save_matrix(inst / "W_0.misa", np.linalg.inv(load_matrix(inst / "A_0.misa")))
        M = load_matrix(inst / name)
        M[1, 2] = value
        save_matrix(inst / name, M)
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], inst / name)
        assert err.endswith(": holds a NaN or infinite entry\n")

    @pytest.mark.parametrize("under_file", [True, False], ids=["under-file", "is-file"])
    @pytest.mark.parametrize("verb", ["generate", "solve", "experiment"])
    def test_uncreatable_out_named(self, tmp_path, capsys, monkeypatch, verb, under_file):
        # a file in the way ended in a traceback; solve and experiment met it
        # only after solving
        cfg = write_smoke_cfg(tmp_path)
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(cfg), "--out", str(inst)])
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if under_file else blocker

        def solve(*args):
            raise AssertionError("solved before the output directory was made")
        monkeypatch.setattr(harness, "solve_instance", solve)
        argv = {"generate": ["generate", "--config", str(cfg)],
                "solve": ["solve", "--config", str(cfg), "--data", str(inst)],
                "experiment": ["experiment", "--config", str(cfg)]}[verb]
        err = self.assert_names_file(capsys, [*argv, "--out", str(out)], out)
        assert ": cannot create output directory: " in err

    def test_config_not_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": ')
        self.assert_names_file(
            capsys, ["generate", "--config", str(cfg), "--out", str(tmp_path / "inst")], cfg)

    def test_solve_missing_instance_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        self.assert_names_file(
            capsys, ["solve", "--config", str(write_smoke_cfg(tmp_path)),
                     "--data", str(missing), "--out", str(tmp_path / "est")],
            missing / "manifest.json")

    def test_score_truncated_manifest_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        manifest = inst / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        self.assert_names_file(capsys, ["score", "--data", str(inst)], manifest)

    def test_score_missing_estimate_exits_2(self, tmp_path, capsys):
        inst, est = tmp_path / "inst", tmp_path / "est"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        est.mkdir()
        self.assert_names_file(capsys, ["score", "--data", str(inst), "--est", str(est)],
                               est / "W_0.misa")

    def test_manifest_missing_key_named(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        manifest = inst / "manifest.json"
        manifest.write_text(json.dumps({"n_datasets": 1}))
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], manifest)
        assert err.endswith(": missing key 'col_dims'\n")

    @pytest.mark.parametrize("col_dims", ["ab", 5, [5.9, 5], [], [3, 0], [True], None],
                             ids=["str", "int", "float", "empty", "zero", "bool", "null"])
    def test_manifest_bad_col_dims_named(self, tmp_path, capsys, col_dims):
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        manifest = inst / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "col_dims": col_dims}))
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], manifest)
        assert ": col_dims must be a non-empty list of positive integers, got " in err

    @pytest.mark.parametrize("n_datasets", ["2", 2.5, None])
    def test_manifest_n_datasets_not_read(self, tmp_path, capsys, n_datasets):
        # the dataset count is len(col_dims); n_datasets is written for
        # readers of the manifest, not read back
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        save_matrix(inst / "W_0.misa", np.linalg.inv(load_matrix(inst / "A_0.misa")))
        manifest = inst / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "n_datasets": n_datasets}))
        capsys.readouterr()
        assert cli_main(["score", "--data", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["misi"] < 1e-8

    @pytest.mark.parametrize("entry", [1.7, np.nan], ids=["fraction", "nan"])
    def test_assignment_not_0_1_named(self, tmp_path, capsys, entry):
        # a fractional entry was truncated to int and scored; NaN failed
        # with an error that did not name the file
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        save_matrix(inst / "W_0.misa", np.linalg.inv(load_matrix(inst / "A_0.misa")))
        P = load_matrix(inst / "P.misa")
        P[0, np.flatnonzero(P[0])[0]] = entry
        save_matrix(inst / "P.misa", P)
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], inst / "P.misa")
        assert err.endswith(": every entry must be 0 or 1\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda P: P[:, :2], "column count of P must equal"),
        (lambda P: P + np.eye(3)[[1, 2, 0]], "each source column must belong"),
        (np.zeros_like, "each source column must belong")],
        ids=["too-few-columns", "source-in-two", "all-zero"])
    def test_assignment_structure_named(self, tmp_path, capsys, edit, message):
        # these passed through as bare ShapeErrors that did not name the file
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        save_matrix(inst / "P.misa", edit(load_matrix(inst / "P.misa")))
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], inst / "P.misa")
        assert f"P.misa: {message}" in err

    @pytest.mark.parametrize("name, shape", [("W_0.misa", (3, 2)), ("A_0.misa", (3, 2)),
                                             ("Y.misa", (3, 100))], ids=["W", "A", "Y"])
    def test_score_wrong_shape_named(self, tmp_path, capsys, name, shape):
        # the smoke instance has V = C = 3 and N = 2000; each of these ended
        # in a numpy traceback
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        save_matrix(inst / "W_0.misa", np.linalg.inv(load_matrix(inst / "A_0.misa")))
        save_matrix(inst / name, np.ones(shape))
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], inst / name)
        expected = "3 x 2000" if name == "Y.misa" else "3 x 3"
        assert err.endswith(f": expected a {expected} matrix for this instance, "
                            f"got {shape[0]} x {shape[1]}\n")

    @pytest.mark.parametrize("verb", ["score", "solve"])
    @pytest.mark.parametrize("edit, message", [
        (lambda X: X[:, :-1], "has 499 observations, X_0.misa has 500"),
        (lambda X: X[:1], "has 1 rows, fewer than the 2 sources of dataset 1")],
        ids=["observations", "rows"])
    def test_data_file_fault_named(self, tmp_path, capsys, verb, edit, message):
        # the first went unnamed (MultiDataset's ShapeError), the second
        # was blamed on A_1.misa
        cfg = write_smoke_cfg(tmp_path, sim={"subspace_dims": [[1, 1], [1, 1]],
                                             "dims_v": [2, 2], "n_obs": 500,
                                             "cond_target": 2.0})
        inst = tmp_path / "inst"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(inst)]) == 0
        save_matrix(inst / "X_1.misa", edit(load_matrix(inst / "X_1.misa")))
        argv = {"score": ["score", "--data", str(inst)],
                "solve": ["solve", "--config", str(cfg), "--data", str(inst),
                          "--out", str(tmp_path / "est")]}[verb]
        err = self.assert_names_file(capsys, argv, inst / "X_1.misa")
        assert err.endswith(f"X_1.misa: {message}\n")

    def test_infinite_cond_target_rejected(self, tmp_path, capsys):
        # json reads Infinity as inf, which failed later in the SVD
        cfg = write_smoke_cfg(tmp_path, sim={"subspace_dims": [[1], [1], [1]], "dims_v": [3],
                                             "n_obs": 2000, "cond_target": float("inf")})
        capsys.readouterr()
        assert cli_main(["generate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 2
        assert capsys.readouterr().err == (
            "misa: error: cond_target must be finite and >= 1, got inf\n")

    @pytest.mark.parametrize("setup, env, threads", [
        (RUN_CLI, {}, 1), (RUN_CLI, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        ("import misa\nfrom misa import harness\n", {}, None)],
        ids=["default", "explicit", "library"])
    def test_cli_blas_threads(self, setup, env, threads):
        # the thread count of each OpenBLAS bundled with numpy, read after
        # setup in a fresh process
        probe = ("import ctypes, json\nimport numpy as np\nfrom pathlib import Path\n"
                 "libs = Path(np.__file__).parent.parent / 'numpy.libs'\ncounts = []\n"
                 "for lib in sorted(libs.glob('libscipy_openblas*.so*')):\n"
                 "    so = ctypes.CDLL(str(lib))\n"
                 "    for sym in ('scipy_openblas_get_num_threads64_',\n"
                 "                'scipy_openblas_get_num_threads', 'openblas_get_num_threads'):\n"
                 "        if hasattr(so, sym):\n"
                 "            counts.append(getattr(so, sym)())\n"
                 "            break\n"
                 "print(json.dumps(counts))")
        # OpenBLAS also reads these two, and tests/conftest.py sets OMP to 1
        unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in unset}
        counts = run_fresh(setup + probe, {**base, **env})
        if not counts:
            pytest.skip("no OpenBLAS bundled with numpy")
        cores = len(os.sched_getaffinity(0))
        if threads is not None:
            assert counts == [min(threads, cores)] * len(counts)
        elif cores > 1:  # importing misa left the count alone
            assert min(counts) > 1

    def test_gradcheck_negative_seed_exits_2(self, capsys):
        assert cli_main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "misa: error: seed must be >= 0, got -1\n"

    def test_manifest_not_object_named(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        cli_main(["generate", "--config", str(write_smoke_cfg(tmp_path)), "--out", str(inst)])
        manifest = inst / "manifest.json"
        manifest.write_text("[]")
        err = self.assert_names_file(capsys, ["score", "--data", str(inst)], manifest)
        assert err.endswith(": not a JSON object\n")

    def test_missing_config_and_preset(self):
        with pytest.raises(SystemExit):
            cli_main(["experiment"])

    @pytest.mark.parametrize("verb", ["generate", "solve", "experiment"])
    def test_config_and_preset_exclusive(self, capsys, verb):
        # neither silently wins: giving both is a usage error
        with pytest.raises(SystemExit) as exc:
            cli_main([verb, "--config", "c.json", "--experiment", "iva1"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("tree, phrase", [
    pytest.param({"sim": 3}, "sim must be an object", id="sim-not-object"),
    pytest.param([{"experiment": "isa1"}], "config must be an object", id="config-list"),
])
def test_harness_input_checks(tree, phrase):
    with pytest.raises(ConfigError, match=phrase):
        config_from_dict(tree)


@pytest.mark.parametrize("raw, phrase", [
    pytest.param(b"MISA\x01\x00", "truncated header at byte 6", id="magic-plus-2-bytes"),
])
def test_io_input_checks(tmp_path, raw, phrase):
    p = tmp_path / "m.misa"
    p.write_bytes(raw)
    with pytest.raises(ParseError, match=phrase):
        load_matrix(p)
