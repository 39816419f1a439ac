"""End-to-end subcommand tests driving main() with argv lists."""

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import time
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_runs import constructed_oracle_run
from test_codec import lines_that
from test_stack import assert_no_child_left

from ensdistill import core
from ensdistill import data as data_mod
from ensdistill import distill as distill_mod
from ensdistill import evaluate as eval_mod
from ensdistill.cli import build_config, build_parser, main
from ensdistill.findwl import SgdConfig
from ensdistill.nets import ConfigError, flops, params_from_dict


FAST_CONFIG = {
    "T": 3, "eta": 0.3, "seed": 4, "base_hidden": [6],
    "connection_kind": "residual_add",
    "findwl": {
        "barrier_gamma": 0.5, "max_search": 2,
        "sgd": {"lr": 0.05, "momentum": 0.9, "weight_decay": 0.0,
                "epochs": 8, "batch_size": 32},
    },
}


def _rows(path):
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def _write_config(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One tiny generated dataset with a trained teacher, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    teacher = root / "teacher.json"
    assert main(["gen-data", "--dataset", "ellipsoid", "--n", "60", "--d", "2",
                 "--seed", "3", "--out", str(data_dir)]) == 0
    assert main(["train-teacher", "--data", str(data_dir), "--spec", "8",
                 "--out", str(teacher), "--seed", "3", "--epochs", "15",
                 "--batch-size", "32"]) == 0
    return {"root": root, "data": data_dir, "teacher": teacher}


@pytest.fixture(scope="session")
def distilled(pipeline, tmp_path_factory):
    """A small distilled ensemble over the shared pipeline."""
    root = tmp_path_factory.mktemp("distilled")
    cfg = root / "config.json"
    _write_config(cfg, FAST_CONFIG)
    ens = root / "ensemble.json"
    hist = root / "history.csv"
    assert main(["distill", "--data", str(pipeline["data"]),
                 "--teacher", str(pipeline["teacher"]), "--config", str(cfg),
                 "--out", str(ens), "--history", str(hist)]) == 0
    return {"config": cfg, "ensemble": ens, "history": hist}


def test_gen_data_writes_dataset_and_split(tmp_path):
    out = tmp_path / "ds"
    rc = main(["gen-data", "--dataset", "cube", "--n", "100", "--d", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert _rows(out / "train.csv") == 80
    assert _rows(out / "test.csv") == 20
    # the two parts hold every generated row exactly once
    parts = [data_mod.load_dataset_csv(out / name) for name in ("train.csv", "test.csv")]
    split = sorted(row + [label] for part in parts
                   for row, label in zip(part.x.tolist(), part.labels.tolist()))
    ds = data_mod.gen_cube(1, 100, 5)
    assert split == sorted(row + [label]
                           for row, label in zip(ds.x.tolist(), ds.labels.tolist()))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["generator"] == "cube"
    assert meta["seed"] == 1


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_gen_data_rerun_is_byte_identical(tmp_path, monkeypatch):
    args = ["gen-data", "--dataset", "ellipsoid", "--n", "80", "--d", "3",
            "--seed", "5", "--out"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + [str(a)]) == 0
    # a day later: no file, sidecars included, may carry the time it was written
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now + 86400.0)
    assert main(args + [str(b)]) == 0
    monkeypatch.undo()
    assert sorted(_files(a)) == ["meta.json", "test.csv", "test.csv.npz", "train.csv",
                                 "train.csv.npz"]
    assert _files(a) == _files(b)


# sha256 of train.csv, test.csv and meta.json for each gen-data run
GEN_DATA_RUNS = {
    ("ellipsoid", "300", "6", "11"): (
        "26156b68bddfa81605ca781739078db115d04aa0807493031a7b414756e91870",
        "b6b46d33de5b6637e4151937b8b4cb66ab138e4b56b7b9f48af6f6d1597006c6",
        "a671001265c8cb852330ff5d44a2ea171aa221448ab059f19ce1723d4403af08"),
    ("cube", "240", "5", "4"): (
        "14b43daf5653433a2b6793ec7f0060c0eda14293f49564df69b4578befbea962",
        "21f7aa32165c29bed1bad83d6c9b7aab584b43a7e5996e319715078477931327",
        "13d88ed7bc27a610d861a136f6704e3bdb39334a90bddddb7c7db3ae2781c452"),
}


@pytest.mark.parametrize("run", sorted(GEN_DATA_RUNS), ids=lambda run: run[0])
def test_gen_data_bytes_are_pinned(run, tmp_path):
    dataset, n, d, seed = run
    assert main(["gen-data", "--dataset", dataset, "--n", n, "--d", d, "--seed", seed,
                 "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("train.csv", "test.csv", "meta.json"))
    assert digests == GEN_DATA_RUNS[run]


def test_gen_data_rejects_unknown_dataset(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--dataset", "foo", "--n", "10",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_train_teacher_outputs(pipeline):
    doc = json.loads(pipeline["teacher"].read_text())
    params = params_from_dict(doc)
    assert [layer.out_dim for layer in params.spec] == [8, 2]
    assert _rows(pipeline["data"] / "train_logits.csv") == 48


def test_train_teacher_releases_the_test_split_before_the_training_pass(
        tmp_path, capsys, monkeypatch):
    """The training-split logits pass sets train-teacher's memory peak and
    never reads the test split, so the test split's records are already
    released when it runs; the outputs are those of a run that is not
    watched."""
    generated = tmp_path / "generated"
    assert main(["gen-data", "--dataset", "cube", "--n", "200", "--d", "4", "--seed", "6",
                 "--out", str(generated)]) == 0
    capsys.readouterr()

    def train_teacher(name):
        data_dir = tmp_path / name
        shutil.copytree(generated, data_dir)
        assert main(["train-teacher", "--data", str(data_dir), "--spec", "8",
                     "--out", str(data_dir / "teacher.json"), "--seed", "2",
                     "--epochs", "3", "--batch-size", "32"]) == 0
        outputs = {path: (data_dir / path).read_bytes()
                   for path in ("teacher.json", "train_logits.csv", "train_logits.csv.npz")}
        return capsys.readouterr().out, outputs

    unwatched = train_teacher("unwatched")
    loaded, test_alive = {}, []
    load, logits = data_mod.load_dataset_csv, data_mod.teacher_logits

    def watched_load(path):
        ds = load(path)
        loaded[path.name] = weakref.ref(ds.x)
        return ds

    def watched_logits(params, x):
        if x is loaded["train.csv"]():
            gc.collect()
            test_alive.append(loaded["test.csv"]() is not None)
        return logits(params, x)

    monkeypatch.setattr(data_mod, "load_dataset_csv", watched_load)
    monkeypatch.setattr(data_mod, "teacher_logits", watched_logits)
    watched = train_teacher("watched")
    assert test_alive == [False]
    assert watched == unwatched


def test_only_gen_data_and_train_teacher_write_into_the_data_directory(tmp_path):
    data_dir, teacher = tmp_path / "data", tmp_path / "teacher.json"
    assert main(["gen-data", "--dataset", "ellipsoid", "--n", "60", "--d", "2", "--seed", "3",
                 "--out", str(data_dir)]) == 0
    generated = set(_files(data_dir))
    assert main(["train-teacher", "--data", str(data_dir), "--spec", "8", "--out", str(teacher),
                 "--seed", "3", "--epochs", "15", "--batch-size", "32"]) == 0
    before = _files(data_dir)
    assert set(before) - generated == {"train_logits.csv", "train_logits.csv.npz"}
    config = tmp_path / "config.json"
    _write_config(config, FAST_CONFIG)
    ens, hist = str(tmp_path / "ensemble.json"), str(tmp_path / "history.csv")
    evaluation = ["eval", "--ensemble", ens, "--data", str(data_dir), "--teacher", str(teacher)]
    for argv in (["distill", "--data", str(data_dir), "--teacher", str(teacher),
                  "--config", str(config), "--out", ens, "--history", hist],
                 evaluation + ["--mode", "anytime", "--out", str(tmp_path / "a.csv")],
                 evaluation + ["--mode", "early-exit", "--threshold", "0.9",
                               "--out", str(tmp_path / "e.csv")],
                 evaluation + ["--mode", "resched", "--out", str(tmp_path / "r.csv")],
                 ["verify", "--history", hist, "--ensemble", ens, "--data", str(data_dir),
                  "--g-inf", "50"]):
        assert main(argv) in ((0, 1, 4) if argv[0] == "verify" else (0,)), argv
        assert _files(data_dir) == before, argv[0]


@pytest.mark.parametrize("cell, named", [("feature", "non-finite feature"),
                                         ("label", "negative label")])
def test_train_teacher_refuses_a_bad_cell(cell, named, pipeline, tmp_path, capsys):
    data_dir = tmp_path / "data"
    shutil.copytree(pipeline["data"], data_dir)
    _set_cell(data_dir / "train.csv", 0 if cell == "feature" else -1,
              "nan" if cell == "feature" else "-1")
    assert main(["train-teacher", "--data", str(data_dir), "--spec", "8",
                 "--out", str(tmp_path / "t.json"), "--epochs", "1"]) == 3
    assert f"{data_dir / 'train.csv'} line 2: {named}" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_train_teacher_missing_data_dir_is_io_error(tmp_path, capsys):
    rc = main(["train-teacher", "--data", str(tmp_path / "nope"),
               "--spec", "8", "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train-teacher", "distill-out", "distill-history",
                                     "verify"])
def test_a_write_into_a_missing_directory_names_the_given_path(command, pipeline, distilled,
                                                                tmp_path, capsys, monkeypatch):
    """A file to be written into a missing directory is refused before any
    training, distilling or scoring, naming the path as given; no output is
    left, including one whose directory exists."""
    out, kept = tmp_path / "missing" / "out", tmp_path / "kept"
    ensemble, teacher = str(distilled["ensemble"]), str(pipeline["teacher"])
    distill = ["distill", "--teacher", teacher, "--config", str(distilled["config"])]
    argv = {"eval": ["eval", "--ensemble", ensemble, "--teacher", teacher, "--mode", "anytime",
                     "--out", out],
            "train-teacher": ["train-teacher", "--spec", "4", "--epochs", "1", "--out", out],
            "distill-out": distill + ["--out", out, "--history", kept],
            "distill-history": distill + ["--out", kept, "--history", out],
            "verify": ["verify", "--history", str(distilled["history"]), "--ensemble", ensemble,
                       "--g-inf", "50", "--out", out]}[command]
    worked = []

    def spied(name, work):
        def run(*args, **kwargs):
            worked.append(name)
            return work(*args, **kwargs)
        return run
    for module, name in ((data_mod, "train_teacher"), (distill_mod, "run"),
                         (eval_mod, "anytime_curve"), (eval_mod, "verify_bound")):
        monkeypatch.setattr(module, name, spied(name, getattr(module, name)))
    assert main([str(arg) for arg in argv] + ["--data", str(pipeline["data"])]) == 3
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp" not in err
    assert worked == []
    assert not out.exists() and not kept.exists()


def test_distill_defaults_when_config_omitted(pipeline, tmp_path, capsys):
    ens_path = tmp_path / "ens.json"
    rc = main(["distill", "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]),
               "--out", str(ens_path), "--history", str(tmp_path / "h.csv")])
    assert rc == 0
    assert "T=7, R=2" in capsys.readouterr().out
    ens = distill_mod.load_ensemble(ens_path)
    assert (ens.T, ens.R, ens.eta) == (7, 2, 1.0)


def test_distill_same_seed_byte_identical(pipeline, distilled, tmp_path):
    ens2 = tmp_path / "ens2.json"
    hist2 = tmp_path / "hist2.csv"
    rc = main(["distill", "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]),
               "--config", str(distilled["config"]),
               "--out", str(ens2), "--history", str(hist2)])
    assert rc == 0
    assert ens2.read_bytes() == distilled["ensemble"].read_bytes()
    assert hist2.read_bytes() == distilled["history"].read_bytes()


def test_distill_seed_flag_overrides_config(pipeline, distilled, tmp_path):
    ens2 = tmp_path / "ens2.json"
    rc = main(["distill", "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]),
               "--config", str(distilled["config"]), "--seed", "9",
               "--out", str(ens2), "--history", str(tmp_path / "h.csv")])
    assert rc == 0
    assert distill_mod.load_ensemble(ens2).seed == 9


def test_distill_unknown_config_keys_rejected_by_name(pipeline, tmp_path, capsys):
    for doc, bad in (({"Tt": 3}, "Tt"),
                     ({"findwl": {"barrier": 1.0}}, "barrier"),
                     ({"findwl": {"loss_mode": "squared_error"}}, "loss_mode"),
                     ({"findwl": {"temperature": 2.0}}, "temperature"),
                     ({"findwl": {"sgd": {"lr_drops": [0.3, 0.6, 0.9]}}}, "lr_drops"),
                     ({"findwl": {"sgd": {"lr_factor": 0.2}}}, "lr_factor"),
                     ({"eta_mode": "theorem", "g_inf": 2.0}, "eta_mode"),
                     ({"findwl": {"logit_bound_b": 30.0}}, "logit_bound_b")):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg, doc)
        rc = main(["distill", "--data", str(pipeline["data"]),
                   "--teacher", str(pipeline["teacher"]), "--config", str(cfg),
                   "--out", str(tmp_path / "e.json"),
                   "--history", str(tmp_path / "h.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and bad in err


def test_distill_refuses_the_config_before_reading_the_data(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, {"Tt": 3})
    rc = main(["distill", "--data", str(tmp_path / "missing"),
               "--teacher", str(pipeline["teacher"]), "--config", str(cfg),
               "--out", str(tmp_path / "e.json"), "--history", str(tmp_path / "h.csv")])
    assert rc == 2
    assert "unknown config key 'Tt'" in capsys.readouterr().err


def test_eval_anytime_single_member(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg, {**FAST_CONFIG, "T": 1})
    ens = tmp_path / "ens.json"
    assert main(["distill", "--data", str(pipeline["data"]),
                 "--teacher", str(pipeline["teacher"]), "--config", str(cfg),
                 "--out", str(ens), "--history", str(tmp_path / "h.csv")]) == 0
    out = tmp_path / "curve.csv"
    rc = main(["eval", "--ensemble", str(ens), "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "anytime",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prefix_k,cum_flops_fraction,accuracy"
    assert len(lines) == 2
    assert lines[1].startswith("1,")


def test_eval_anytime_full_ensemble(pipeline, distilled, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "anytime",
               "--out", str(out)])
    assert rc == 0
    ens = distill_mod.load_ensemble(distilled["ensemble"])
    assert _rows(out) == len(ens.members)


def test_eval_early_exit_requires_threshold(pipeline, distilled, tmp_path, capsys):
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "early-exit",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--threshold" in capsys.readouterr().err


def test_eval_early_exit_writes_summary(pipeline, distilled, tmp_path):
    out = tmp_path / "exit.csv"
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "early-exit",
               "--threshold", "0.6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "threshold,mean_members_evaluated,mean_flops_fraction,accuracy"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.6
    assert 1.0 <= float(fields[1]) <= 3.0


def test_eval_resched_baseline(pipeline, distilled, tmp_path):
    out = tmp_path / "resched.csv"
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "resched",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    ens = distill_mod.load_ensemble(distilled["ensemble"])
    assert _rows(out) == len(ens.members)


def test_eval_resched_trains_with_the_config_recipe(pipeline, distilled, tmp_path):
    out = tmp_path / "resched.csv"
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(pipeline["teacher"]), "--mode", "resched",
               "--seed", "2", "--config", str(distilled["config"]), "--out", str(out)])
    assert rc == 0
    # the baseline the library trains with the config's findwl.sgd recipe
    # (8 epochs at lr 0.05, no weight decay), not with the package default
    train = data_mod.load_dataset_csv(pipeline["data"] / "train.csv")
    test = data_mod.load_dataset_csv(pipeline["data"] / "test.csv")
    g = data_mod.load_logits_csv(pipeline["data"] / "train_logits.csv")
    recipe = build_config(FAST_CONFIG).findwl.sgd
    assert recipe.epochs == 8
    ens = distill_mod.load_ensemble(distilled["ensemble"])
    teacher = params_from_dict(json.loads(pipeline["teacher"].read_text(encoding="utf-8")))
    points = eval_mod.baseline_resched([eval_mod.standalone_spec(m) for m in ens.members],
                                       train.x, g, test.x, test.labels, flops(teacher),
                                       recipe, seed=2)
    want = tmp_path / "want.csv"
    eval_mod.write_curve_csv(want, points)
    assert out.read_bytes() == want.read_bytes()


# sha256 of the shared pipeline's teacher.json and train_logits.csv, and of
# its `eval --mode resched` curve under the distill config's recipe, seed 2
PIPELINE_RUN = (
    "cdafbae17ca60b3e252600471020eeed45b1bebee67ebbf724de9eab9c006fdb",
    "1e8bd978812d6c50e15175273c9e41dce27207ea41ee77267c5fe8f3aafd4a37",
    "bf33d1f80c49f8585a9f51e1233efab9ac1aed386f6ab3fece94db48f3d2db7f",
)


def test_pipeline_teacher_and_resched_bytes_are_pinned(pipeline, distilled, tmp_path):
    out = tmp_path / "resched.csv"
    assert main(["eval", "--ensemble", str(distilled["ensemble"]),
                 "--data", str(pipeline["data"]), "--teacher", str(pipeline["teacher"]),
                 "--mode", "resched", "--seed", "2", "--config", str(distilled["config"]),
                 "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (pipeline["teacher"], pipeline["data"] / "train_logits.csv", out))
    assert digests == PIPELINE_RUN


def test_eval_refuses_another_teacher(pipeline, distilled, tmp_path, capsys):
    doc = json.loads(pipeline["teacher"].read_text(encoding="utf-8"))
    doc["biases"][-1][0] += 1.0
    other = tmp_path / "other_teacher.json"
    other.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "curve.csv"
    rc = main(["eval", "--ensemble", str(distilled["ensemble"]),
               "--data", str(pipeline["data"]),
               "--teacher", str(other), "--mode", "anytime", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    recorded = distill_mod.load_ensemble(distilled["ensemble"]).teacher_hash
    assert recorded and recorded in err
    assert hashlib.sha256(other.read_bytes()).hexdigest()[:16] in err
    assert not out.exists()


def _oracle_dir(tmp_path, t_rounds, tamper=False):
    """Write a constructed run as the on-disk artifacts verify expects."""
    ens, hist, x, g = constructed_oracle_run(20, t_rounds)
    if tamper:
        hist.rounds[3].edge_gamma[0] += 0.25
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    ds = data_mod.LabeledDataset(x=x, labels=np.zeros(20, dtype=np.int64))
    data_mod.save_dataset_csv(data_dir / "train.csv", ds)
    data_mod.save_logits_csv(data_dir / "train_logits.csv", g)
    ens_path = tmp_path / "ensemble.json"
    hist_path = tmp_path / "history.csv"
    distill_mod.save_ensemble(ens_path, ens)
    distill_mod.write_history(hist_path, hist)
    return ens_path, hist_path, data_dir


def test_verify_passing_run_exits_zero(tmp_path, capsys):
    ens_path, hist_path, data_dir = _oracle_dir(tmp_path, 8)
    report = tmp_path / "report.json"
    rc = main(["verify", "--history", str(hist_path), "--ensemble", str(ens_path),
               "--data", str(data_dir), "--g-inf", "1.0", "--out", str(report)])
    assert rc == 0
    assert "verify: pass" in capsys.readouterr().out
    assert json.loads(report.read_text())["status"] == "pass"


def test_verify_tampered_history_exits_one(tmp_path, capsys):
    ens_path, hist_path, data_dir = _oracle_dir(tmp_path, 8, tamper=True)
    rc = main(["verify", "--history", str(hist_path), "--ensemble", str(ens_path),
               "--data", str(data_dir), "--g-inf", "1.0"])
    assert rc == 1
    assert "bound_violation" in capsys.readouterr().out


def test_verify_history_with_tampered_class_r_exits_one(tmp_path, capsys):
    ens_path, hist_path, data_dir = _oracle_dir(tmp_path, 8)
    _set_cell(hist_path, 5, "7")   # the first row's class_r, 1 in the run
    report = tmp_path / "report.json"
    rc = main(["verify", "--history", str(hist_path), "--ensemble", str(ens_path),
               "--data", str(data_dir), "--g-inf", "1.0", "--out", str(report)])
    assert rc == 1
    assert "bound_violation" in capsys.readouterr().out
    assert json.loads(report.read_text())["history_consistent"] is False


def test_verify_short_run_exits_premise_code(tmp_path, capsys):
    ens_path, hist_path, data_dir = _oracle_dir(tmp_path, 2)
    rc = main(["verify", "--history", str(hist_path), "--ensemble", str(ens_path),
               "--data", str(data_dir), "--g-inf", "1.0"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "premise_violated" in out
    # two rounds on 20 rows: too few rounds, and the run's eta, sqrt(ln 40 / 2),
    # times --g-inf 1 exceeds 1; the residuals (at most 1) stay within --g-inf
    assert "premise failed: rounds T=2 < ln(2N)=3.69\n" in out
    assert "premise failed: eta*G=1.3581 > 1\n" in out
    assert "premise failed: observed max|l|" not in out


def test_verify_missing_history_is_io_error(tmp_path):
    ens_path, _, data_dir = _oracle_dir(tmp_path, 8)
    rc = main(["verify", "--history", str(tmp_path / "nope.csv"),
               "--ensemble", str(ens_path), "--data", str(data_dir),
               "--g-inf", "1.0"])
    assert rc == 3


_EVAL = ["eval", "--ensemble", "e.json", "--data", "d", "--teacher", "t.json",
         "--mode", "early-exit", "--out", "x.csv"]
_TEACH = ["train-teacher", "--data", "d", "--spec", "4", "--out", "t.json"]
_VERIFY = ["verify", "--history", "h.csv", "--ensemble", "e.json", "--data", "d"]


@pytest.mark.parametrize("argv, named", [
    (["gen-data", "--dataset", "ellipsoid", "--n", "0"], "--n"),
    (["gen-data", "--dataset", "ellipsoid", "--n", "ten"], "--n"),
    (["gen-data", "--dataset", "ellipsoid", "--n", "10", "--d", "0"], "--d"),
    (_TEACH + ["--epochs", "0"], "--epochs"),
    (_TEACH + ["--batch-size", "-3"], "--batch-size"),
    (_EVAL + ["--threshold", "0"], "--threshold"),
    (_EVAL + ["--threshold", "1.5"], "--threshold"),
    (_EVAL + ["--threshold", "nan"], "--threshold"),
    (_VERIFY + ["--g-inf", "0"], "--g-inf"),
    # sizes only the generator or the split can judge
    (["gen-data", "--dataset", "ellipsoid", "--n", "1"], "n >= 2"),
    (["gen-data", "--dataset", "ellipsoid", "--n", "2"], "empty part"),
    (["gen-data", "--dataset", "cube", "--n", "100", "--d", "2"], "distinct corners"),
    # malformed or non-finite values, refused before any file is read
    (_TEACH + ["--spec", "8,x"], "--spec"),
    (_TEACH + ["--spec", "8,0"], "--spec"),
    (_TEACH + ["--lr", "-1"], "--lr"),
    (_TEACH + ["--lr", "nan"], "--lr"),
    (_TEACH + ["--momentum", "1.5"], "--momentum"),
    (_TEACH + ["--weight-decay", "inf"], "--weight-decay"),
    (_VERIFY + ["--g-inf", "inf"], "--g-inf"),
    # only resched trains, so only resched reads a recipe
    (_EVAL + ["--threshold", "0.5", "--config", "c.json"], "--config"),
    # only early-exit reads a threshold, and only resched a seed
    (_EVAL[:-4] + ["--mode", "anytime", "--out", "x.csv", "--threshold", "0.5"],
     "--threshold is not read by --mode anytime"),
    (_EVAL + ["--threshold", "0.5", "--seed", "3"], "--seed is not read by --mode early-exit"),
])
def test_bad_flag_values_exit_usage(argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "gen-data":
        argv = argv + ["--out", "out"]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert named in capsys.readouterr().err


# a number of each kind: integers, fractions, zero, negatives, +-inf and NaN,
# and an integer too large for a float
@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from([f.name for f in fields(SgdConfig)]),
       value=st.one_of(st.integers(), st.floats()))
@example(key="epochs", value=0)
@example(key="batch_size", value=2.0)
@example(key="lr", value=-1)
@example(key="lr", value=10 ** 400)
@example(key="momentum", value=float("-inf"))
@example(key="weight_decay", value=float("nan"))
def test_a_recipe_flag_and_its_config_key_accept_the_same_values(key, value):
    """train-teacher's flag for an `SgdConfig` field accepts a number's text
    exactly when a config's `findwl.sgd` section accepts the number."""
    argv = _TEACH + [f"--{key.replace('_', '-')}={value!r}"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            build_parser().parse_args(argv)
        flag_accepts = True
    except SystemExit as exc:
        assert exc.code == 2
        flag_accepts = False
    try:
        build_config({"findwl": {"sgd": {key: value}}})
        config_accepts = True
    except ConfigError:
        config_accepts = False
    assert flag_accepts == config_accepts


# a config whose one value has the wrong type or is not finite, and the key
# its error names; `lr_drops` and `lr_factor` are constants, not keys, so a
# config naming them is refused as naming an unknown key
_BAD_VALUE = {
    "config-T-string": ({"T": "7"}, "'T'"),
    "config-base-hidden-string": ({"base_hidden": "ab"}, "'base_hidden'"),
    "config-lr-drops-number": ({"findwl": {"sgd": {"lr_drops": 5}}}, "'lr_drops'"),
    "config-max-search-fraction": ({"findwl": {"max_search": 2.5}}, "'max_search'"),
    "config-lr-nan": ({"findwl": {"sgd": {"lr": float("nan")}}}, "'lr'"),
    "config-eta-nan": ({"eta": float("nan")}, "'eta'"),
    "config-edge-tol-nan": ({"edge_tol": float("nan")}, "'edge_tol'"),
    "config-eta-inf": ({"eta": float("inf")}, "'eta'"),
    "config-barrier-gamma-inf": ({"findwl": {"barrier_gamma": float("inf")}},
                                 "'barrier_gamma'"),
    "config-lr-factor-negative": ({"findwl": {"sgd": {"lr_factor": -1}}}, "'lr_factor'"),
    "config-lr-factor-above-one": ({"findwl": {"sgd": {"lr_factor": 5}}}, "'lr_factor'"),
    "config-R-one": ({"R": 1}, "'R' must be an integer >= 2, got 1"),
    "config-epochs-zero": ({"findwl": {"sgd": {"epochs": 0}}},
                           "'epochs' must be an integer >= 1, got 0"),
    # past float range: the step schedule would overflow converting it
    "config-epochs-past-float": ({"findwl": {"sgd": {"epochs": 10 ** 400}}},
                                 "'epochs' must be an integer >= 1, got 1000"),
    "config-base-hidden-empty-connected": (
        {"base_hidden": []},
        "'base_hidden' must be a non-empty list with connection_kind 'residual_add', got []"),
}


def _break_member(case, member):
    """Break one network document in place as `case` says; returns the text
    its refusal must name."""
    layers = len(member["spec"])
    if case == "ensemble-member-weight-missing":
        member["weights"].pop()
        return f"{layers - 1} weight arrays for {layers} layers"
    if case == "ensemble-member-weight-extra":
        member["weights"].append(member["weights"][-1])
        return f"{layers + 1} weight arrays for {layers} layers"
    if case == "ensemble-member-sigmoid":
        member["spec"][0]["activation"] = "sigmoid"
        return "layer 0: unknown activation 'sigmoid'"
    if case == "ensemble-member-spec-empty":
        member["spec"] = []
        return "empty layer spec"
    if case == "ensemble-member-target-layer":
        member["connection"] = {"kind": "residual_add", "source_round": 0, "source_layer": 0,
                                "target_layer": 7}
        return f"'target_layer' must be the output layer's index, {layers - 1}, got 7"
    # member 0 is of the same class, so its last hidden layer is `layers - 2`
    if case == "ensemble-member-target-hidden":
        member["connection"] = {"kind": "residual_add", "source_round": 0,
                                "source_layer": layers - 2, "target_layer": 0}
        return f"'target_layer' must be the output layer's index, {layers - 1}, got 0"
    if case == "ensemble-member-source-layer":
        member["connection"] = {"kind": "residual_add", "source_round": 0,
                                "source_layer": layers - 1, "target_layer": layers - 1}
        return (f"'source_layer' must be member 0's last hidden layer's index, {layers - 2}, "
                f"got {layers - 1}")
    if case == "ensemble-member-no-hidden":
        # one dense_concat layer over the features and member 0's hidden layer
        d, width = member["spec"][0]["in_dim"], member["spec"][0]["out_dim"]
        labels = member["spec"][-1]["out_dim"]
        member["spec"] = [{"in_dim": d + width, "out_dim": labels, "activation": "linear"}]
        member["weights"], member["biases"] = [[[0.5] * labels] * (d + width)], [[0.0] * labels]
        member["connection"] = {"kind": "dense_concat", "source_round": 0, "source_layer": 0,
                                "target_layer": 0}
        return "'spec' must be 2 layers or more with a 'dense_concat' connection, got 1"
    if case == "ensemble-member-weight-nan":
        member["weights"][0][0][0] = float("nan")
        return "layer 0 weights contains non-finite entries"
    member["connection"]["kind"] = "skip"
    return "unknown connection kind 'skip'"


def _set_cell(path, column, text):
    """Replace a cell of the first data row of a CSV file."""
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    row = lines[1].split(",")
    row[column] = text
    lines[1] = ",".join(row)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))


def _break_input(case, pipeline, distilled, tmp_path, monkeypatch):
    """Copies of the shared artifacts with one input broken as `case` says;
    returns the argv that reads it and the text its error must name."""
    data_dir = tmp_path / "data"
    shutil.copytree(pipeline["data"], data_dir)
    teacher, ensemble = tmp_path / "teacher.json", tmp_path / "ensemble.json"
    shutil.copy(pipeline["teacher"], teacher)
    shutil.copy(distilled["ensemble"], ensemble)
    config = tmp_path / "config.json"
    _write_config(config, FAST_CONFIG)
    if case == "empty-train-csv":
        named = data_dir / "train.csv"
        named.write_bytes(b"")
    elif case == "empty-logits-csv":
        named = data_dir / "train_logits.csv"
        named.write_bytes(b"")
    elif case == "blank-first-line":
        named = data_dir / "train.csv"
        named.write_bytes(b"\r\n" + named.read_bytes())
    elif case in ("nan-feature", "negative-label"):
        named = data_dir / "train.csv"
        _set_cell(named, 0 if case == "nan-feature" else -1,
                  "nan" if case == "nan-feature" else "-1")
    elif case == "inf-logit":
        named = data_dir / "train_logits.csv"
        _set_cell(named, 0, "inf")
    elif case == "ensemble-without-members":
        ensemble.write_text('{"meta": {}}\n', encoding="utf-8")
        named = "'members'"
    elif case == "ensemble-is-a-list":
        ensemble.write_text("[]\n", encoding="utf-8")
        named = "malformed ensemble document"
    elif case == "teacher-without-spec":
        doc = json.loads(teacher.read_text(encoding="utf-8"))
        del doc["spec"]
        teacher.write_text(json.dumps(doc), encoding="utf-8")
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["teacher_hash"] = hashlib.sha256(teacher.read_bytes()).hexdigest()[:16]
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = "'spec'"
    elif case == "teacher-connected":
        doc = json.loads(teacher.read_text(encoding="utf-8"))
        doc["connection"] = {"kind": "residual_add", "source_round": 0, "source_layer": 0,
                             "target_layer": 7}
        teacher.write_text(json.dumps(doc), encoding="utf-8")
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["teacher_hash"] = hashlib.sha256(teacher.read_bytes()).hexdigest()[:16]
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = "'kind' must be 'none' in a teacher, got 'residual_add'"
    elif case in _BAD_VALUE:
        doc, named = _BAD_VALUE[case]
        _write_config(config, doc)
    elif case == "config-list":
        config.write_text('["T"]\n', encoding="utf-8")
        named = "config must be a JSON object"
    elif case == "ensemble-tap-self":
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        last = len(ens_doc["members"]) - 1
        ens_doc["members"][last]["connection"] = {"kind": "residual_add", "source_round": last,
                                                  "source_layer": 0, "target_layer": 0}
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = f"member {last}: 'source_round' must be an earlier member's index"
    elif case.startswith("ensemble-member-"):
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        last = len(ens_doc["members"]) - 1
        named = f"member {last}: " + _break_member(case, ens_doc["members"][last])
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
    elif case == "ensemble-meta-eta-string":
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["eta"] = "0.3"
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = "'eta' must be a finite number > 0"
    elif case == "ensemble-meta-class-r-short":
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["member_class_r"] = []
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = (f"'member_class_r' must be a list of one integer >= 1 per member, "
                 f"{len(ens_doc['members'])} in all, got []")
    elif case == "resched-empty-ensemble":
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["members"], ens_doc["meta"]["member_class_r"] = [], []
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = "empty ensemble"
    elif case == "ensemble-not-json":
        named = ensemble
        named.write_text("nope", encoding="utf-8")
    elif case == "config-not-json":
        named = config
        named.write_text("nope", encoding="utf-8")
    elif case in ("teacher-not-json", "teacher-not-utf8"):
        named = teacher
        named.write_bytes(b"nope" if case == "teacher-not-json" else b"\xff{}")
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["teacher_hash"] = hashlib.sha256(teacher.read_bytes()).hexdigest()[:16]
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
    elif case == "distill-keeps-no-member":
        # every restart diverges, in the base class and in the tapped one
        _write_config(config, {**FAST_CONFIG, "R": 3, "findwl": {
            "max_search": 2, "sgd": {"epochs": 5, "lr": 1e9}}})
        named = "no member was kept (escalations=1, findwl.sgd.lr 1e+09)"
    elif case == "resched-diverges":
        _write_config(config, {**FAST_CONFIG, "findwl": {"sgd": {"lr": 1e200}}})
        named = "'lr'"
    elif case == "train-teacher-out-of-memory":
        # as a label of 10000000000 makes it; a real allocation that size
        # could page on a host that overcommits memory instead of failing
        def refused(spec, *args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array with shape "
                              "(8, 10000000001) and data type float64")
        monkeypatch.setattr(data_mod, "init_params", refused)
        named = "error: out of memory: Unable to allocate 596. GiB"
        return ["train-teacher", "--data", str(data_dir), "--spec", "8",
                "--out", str(tmp_path / "out.json")], named
    elif case == "train-teacher-diverges":
        named = "--lr"
        return ["train-teacher", "--data", str(data_dir), "--spec", "8", "--lr", "1e200",
                "--epochs", "2", "--out", str(tmp_path / "out.json")], named
    elif case == "train-teacher-epochs-past-float":
        return ["train-teacher", "--data", str(data_dir), "--spec", "8",
                "--epochs", "1" + "0" * 400, "--out", str(tmp_path / "out.json")], \
            "argument --epochs: expected an integer >= 1, got 1000"
    elif case.startswith("distill-teacher-"):
        # read as eval reads it, and against the data's widths, before the run
        doc = json.loads(teacher.read_text(encoding="utf-8"))
        first, last = doc["spec"][0], doc["spec"][-1]
        if case == "distill-teacher-garbage":
            doc, named = "garbage", teacher
        elif case == "distill-teacher-is-a-config":
            doc, named = FAST_CONFIG, "'spec'"
        elif case == "distill-teacher-connected":
            doc["connection"] = {"kind": "residual_add", "source_round": 0, "source_layer": 0,
                                 "target_layer": 7}
            named = "'kind' must be 'none' in a teacher, got 'residual_add'"
        elif case == "distill-teacher-inputs":
            first["in_dim"] += 1
            doc["weights"][0].append([0.0] * first["out_dim"])
        else:   # an output more than train_logits.csv has columns
            last["out_dim"] += 1
            for row in doc["weights"][-1]:
                row.append(0.0)
            doc["biases"][-1].append(0.0)
        if case.endswith(("-inputs", "-outputs")):
            named = (f"teacher {teacher} maps {first['in_dim']} inputs to {last['out_dim']} "
                     f"outputs, but {data_dir} holds 2 feature columns and 2 logit columns")
        teacher.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    elif case == "teacher-bias-inf":
        doc = json.loads(teacher.read_text(encoding="utf-8"))
        doc["biases"][0][0] = float("inf")
        teacher.write_text(json.dumps(doc), encoding="utf-8")
        ens_doc = json.loads(ensemble.read_text(encoding="utf-8"))
        ens_doc["meta"]["teacher_hash"] = hashlib.sha256(teacher.read_bytes()).hexdigest()[:16]
        ensemble.write_text(json.dumps(ens_doc), encoding="utf-8")
        named = "layer 0 biases contains non-finite entries"
    elif case == "verify-history-cell":
        named = data_dir / "history.csv"
        shutil.copy(distilled["history"], named)
        _set_cell(named, 5, "x")   # the class_r cell
        return ["verify", "--history", str(named), "--ensemble", str(ensemble),
                "--data", str(data_dir), "--g-inf", "1.0",
                "--out", str(tmp_path / "out.json")], f"{named}: "
    elif case in ("eval-test-features", "verify-train-features"):
        path = data_dir / ("test.csv" if case.startswith("eval-") else "train.csv")
        ds = data_mod.load_dataset_csv(path)
        data_mod.save_dataset_csv(path, data_mod.LabeledDataset(x=ds.x[:, 1:], labels=ds.labels))
        named = f"{path} has {ds.d - 1} feature columns, but member 0 expects input width {ds.d}"
        if case.startswith("verify-"):
            return ["verify", "--history", str(distilled["history"]), "--ensemble", str(ensemble),
                    "--data", str(data_dir), "--g-inf", "1.0",
                    "--out", str(tmp_path / "out.json")], named
        return ["eval", "--ensemble", str(ensemble), "--data", str(data_dir),
                "--teacher", str(teacher), "--mode", "anytime",
                "--out", str(tmp_path / "curve.csv")], named
    elif case.startswith("eval-test-labels-"):
        # a cube-like label on the fourth row of an ensemble with 2 outputs
        path = data_dir / "test.csv"
        ds = data_mod.load_dataset_csv(path)
        labels = ds.labels.copy()
        labels[3] = 3
        data_mod.save_dataset_csv(path, data_mod.LabeledDataset(x=ds.x, labels=labels))
        named = f"{path} line 5: label 3, but the ensemble has 2 outputs"
        mode = case.removeprefix("eval-test-labels-")
        flags = ["--threshold", "0.5"] if mode == "early-exit" else []
        return ["eval", "--ensemble", str(ensemble), "--data", str(data_dir),
                "--teacher", str(teacher), "--mode", mode, *flags,
                "--out", str(tmp_path / "curve.csv")], named
    elif case.endswith(("-logits-width", "-logits-rows")):
        path = data_dir / "train_logits.csv"
        g = data_mod.load_logits_csv(path)
        if case.endswith("-width"):
            data_mod.save_logits_csv(path, np.hstack([g, g]))
            named = f"member 0 has {g.shape[1]} outputs, but {path} has {2 * g.shape[1]} columns"
        else:
            data_mod.save_logits_csv(path, np.vstack([g, g]))
            named = f"data has {g.shape[0]} rows but teacher logits {2 * g.shape[0]}"
        if case.startswith("verify-"):
            return ["verify", "--history", str(distilled["history"]), "--ensemble", str(ensemble),
                    "--data", str(data_dir), "--g-inf", "1.0",
                    "--out", str(tmp_path / "out.json")], named
    if case.startswith(("ensemble-", "teacher-", "resched-")):
        mode = "resched" if case.startswith("resched-") else "anytime"
        recipe = ["--config", str(config)] if case == "resched-diverges" else []
        return ["eval", "--ensemble", str(ensemble), "--data", str(data_dir),
                "--teacher", str(teacher), "--mode", mode, *recipe,
                "--out", str(tmp_path / "curve.csv")], str(named)
    return ["distill", "--data", str(data_dir), "--teacher", str(teacher),
            "--config", str(config), "--out", str(tmp_path / "out.json"),
            "--history", str(tmp_path / "history.csv")], str(named)


@pytest.mark.parametrize("case, code", [
    ("empty-train-csv", 3), ("empty-logits-csv", 3), ("blank-first-line", 3),
    ("nan-feature", 3), ("negative-label", 3), ("inf-logit", 3),
    ("ensemble-without-members", 3), ("ensemble-is-a-list", 3), ("teacher-without-spec", 3),
    ("config-list", 2), ("resched-empty-ensemble", 3), ("ensemble-not-json", 3),
    ("config-not-json", 2), ("teacher-not-json", 3), ("teacher-not-utf8", 3),
    ("config-T-string", 2), ("config-base-hidden-string", 2), ("config-lr-drops-number", 2),
    ("config-max-search-fraction", 2), ("config-lr-nan", 2), ("config-eta-nan", 2),
    ("config-edge-tol-nan", 2), ("config-eta-inf", 2), ("config-barrier-gamma-inf", 2),
    ("config-lr-factor-negative", 2), ("config-lr-factor-above-one", 2),
    ("train-teacher-diverges", 2), ("resched-diverges", 2),
    ("train-teacher-out-of-memory", 3),
    ("ensemble-member-weight-missing", 2), ("ensemble-member-weight-extra", 2),
    ("ensemble-member-sigmoid", 2), ("ensemble-member-spec-empty", 2),
    ("ensemble-member-connection-unknown", 2),
    ("ensemble-member-target-layer", 2), ("ensemble-member-weight-nan", 2),
    ("ensemble-member-target-hidden", 2), ("ensemble-member-source-layer", 2),
    ("ensemble-member-no-hidden", 2), ("teacher-connected", 2),
    ("config-base-hidden-empty-connected", 2),
    ("teacher-bias-inf", 2), ("verify-logits-width", 2), ("verify-logits-rows", 3),
    ("resched-logits-width", 2), ("resched-logits-rows", 3),
    ("ensemble-meta-eta-string", 2), ("ensemble-meta-class-r-short", 2),
    ("verify-history-cell", 3), ("config-R-one", 2), ("ensemble-tap-self", 2),
    ("eval-test-features", 2), ("verify-train-features", 2),
    ("eval-test-labels-anytime", 2), ("eval-test-labels-early-exit", 2),
    ("eval-test-labels-resched", 2), ("config-epochs-zero", 2), ("distill-keeps-no-member", 2),
    ("config-epochs-past-float", 2), ("train-teacher-epochs-past-float", 2),
    ("distill-teacher-garbage", 3), ("distill-teacher-is-a-config", 3),
    ("distill-teacher-connected", 2), ("distill-teacher-inputs", 2),
    ("distill-teacher-outputs", 2),
])
def test_malformed_input_exits_with_its_code(case, code, pipeline, distilled, tmp_path, capsys,
                                            recwarn, monkeypatch):
    argv, named = _break_input(case, pipeline, distilled, tmp_path, monkeypatch)
    try:
        rc = main(argv)
    except SystemExit as exc:   # a flag's value, refused by argparse
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert named in err
    # a diverging recipe is named by its error line alone, without numpy's
    # overflow warnings (which pytest records rather than printing)
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not any((tmp_path / out).exists() for out in ("curve.csv", "out.json", "history.csv"))


def test_gen_data_exits_io_when_a_writer_child_dies(tmp_path, capsys, monkeypatch):
    """A child formatting rows of train.csv that is killed makes gen-data
    exit 3 naming the file and the rows.  Neither train.csv nor its sidecar
    nor the temporary file it was written to is left, and no child."""
    monkeypatch.setattr(core, "_FORK_MIN_CELLS", 1)
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    monkeypatch.setattr(core, "_lines", lines_that(lambda: os.kill(os.getpid(), signal.SIGKILL)))
    out = tmp_path / "ds"
    assert main(["gen-data", "--dataset", "cube", "--n", "100", "--d", "5", "--seed", "1",
                 "--out", str(out)]) == 3
    assert (f"error: the process formatting rows 40-79 of {out / 'train.csv'} "
            f"was killed by signal 9") in capsys.readouterr().err
    # meta.json is written whole before train.csv, and nothing else is left
    assert sorted(path.name for path in out.iterdir()) == ["meta.json"]
    assert_no_child_left()
