"""CLI plumbing: every subcommand end to end on a miniature experiment."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from kernelblend.cli import main
from kernelblend import checkpoint as CK
from kernelblend import cost as CO
from kernelblend import disturbance as DI
from kernelblend import experiment as EX
from kernelblend import pipeline as P
from kernelblend import training as TR
from kernelblend.config import parse_config

from test_config import base_config


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def config_path(workdir):
    raw = base_config()
    raw["output_dir"] = str(workdir / "runs" / "demo")
    path = workdir / "config.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def trained_ckpt(workdir, config_path, capsys):
    assert main(["train", "--config", str(config_path)]) == 0
    capsys.readouterr()
    return workdir / "runs" / "demo" / "checkpoint"


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, workdir, config_path, capsys):
        assert main(["train", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        metrics = workdir / "runs" / "demo" / "metrics.csv"
        assert metrics.exists()
        with open(metrics) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "step", "train_loss", "lm_loss", "synth_loss", "eval_acc_lm",
            "eval_acc_full", "epsilon", "skip_rate_at_default_threshold"}

    def test_metrics_csv_is_reproducible_bitwise(self, workdir, config_path, capsys):
        assert main(["train", "--config", str(config_path)]) == 0
        metrics = workdir / "runs" / "demo" / "metrics.csv"
        first = metrics.read_bytes()
        assert main(["train", "--config", str(config_path)]) == 0
        assert metrics.read_bytes() == first

    def test_missing_config_fails_cleanly(self, workdir, capsys):
        assert main(["train", "--config", "missing.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_exits_one_with_one_line(self, config_path, capsys, monkeypatch):
        def diverge(cfg, log=None):
            raise TR.TrainingDiverged("training went non-finite at step 3 (lr=0.05): loss")
        monkeypatch.setattr(EX, "run_train", diverge)
        assert main(["train", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: training went non-finite at step 3 (lr=0.05): loss\n")

    def test_bad_config_value_exits_one_with_one_line(self, workdir, capsys):
        raw = base_config()
        raw["seed"] = None
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config.seed: expected int, got null\n"

    def test_zero_clip_norm_exits_one_with_one_line(self, workdir, capsys):
        raw = base_config()
        raw["schedule"]["clip_norm"] = 0
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: schedule: clip_norm must be > 0, got 0.0\n"
        assert not (workdir / "runs").exists()

    def test_zero_lr_decay_interval_exits_one_with_one_line(self, workdir, capsys):
        raw = base_config()
        raw["schedule"]["learning_rate"]["decay_interval"] = 0
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: schedule: lr_decay_interval must be >= 1, got 0\n")
        assert not (workdir / "runs").exists()

    def test_finetune_without_joint_steps_exits_one_with_one_line(self, workdir, capsys):
        raw = base_config()
        raw["schedule"].update(total_steps=0, finetune_steps=5,
                               epsilon_hold_steps=0, epsilon_decay_steps=0)
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: schedule: fine-tuning needs joint training first (total_steps > 0)\n")
        assert not (workdir / "runs").exists()

    @pytest.mark.parametrize("section,key,value,message", [
        ("eval", "default_threshold", -0.5,
         "eval.default_threshold: expected a finite number >= 0, got -0.5"),
        ("dataset", "noise", float("nan"), "dataset: noise must be finite, got nan"),
        ("eval", "thresholds", [],
         "eval.thresholds: expected a non-empty list of thresholds, got []"),
    ], ids=["negative_threshold", "nan_noise", "empty_thresholds"])
    def test_bad_value_fails_before_training(self, workdir, capsys, section, key, value, message):
        raw = base_config()
        raw[section][key] = value
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "runs").exists()

    def test_unknown_flag_rejected(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config_path), "--fast"])
        assert exc.value.code == 2

    def test_image_size_mismatch_fails_before_writing(self, workdir, capsys):
        # the config is consistent for a 12x12 bank, but the images are 16x16
        raw = base_config()
        raw["dataset"]["image_size"] = 16
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: bank.input_shape is [1, 12, 12] but the synthetic dataset's images "
            "are [1, 16, 16]\n")
        assert not (workdir / "runs").exists()

    @pytest.mark.parametrize("dataset_classes", [8, 4])
    def test_class_count_mismatch_fails_before_writing(self, workdir, capsys, dataset_classes):
        # 8: a label beyond the 6-way head; 4: a 6-way head on 4-class data
        raw = base_config()
        raw["dataset"]["num_classes"] = dataset_classes
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: bank.num_classes is 6 but the synthetic dataset has {dataset_classes} classes\n")
        assert not (workdir / "runs").exists()


class TestPreviewMustMatchBank:
    """The lightweight model previews the bank's input downsampled; a config
    where it cannot is refused when read, before anything is priced or trained."""

    EDITS = {  # the 12x12 one-channel bank is previewed at 6x6 by a downsample of 2
        "input_shape": ({"input_shape": [1, 5, 5]}, "lightweight.input_shape [1, 5, 5] is not "
                        "the bank's [1, 12, 12] input downsampled by 2"),
        "downsample": ({"downsample": 5},
                       "lightweight.downsample 5 does not divide the bank's 12x12 input"),
        "channels": ({"input_shape": [3, 6, 6],
                      "layers": [{"in": 3, "out": 8, "k": 3, "stride": 2, "pad": 1}]},
                     "lightweight.input_shape [3, 6, 6] is not the bank's [1, 12, 12] "
                     "input downsampled by 2"),
    }

    @pytest.mark.parametrize("command", ["cost", "train"])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_fails_with_one_line_and_writes_nothing(self, workdir, capsys, command, edit):
        raw = base_config()
        changes, message = self.EDITS[edit]
        raw["lightweight"].update(changes)
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (workdir / "runs").exists()


class TestKeysNamedInOneLine:
    """A negative seed, which numpy's generators refuse, a bank.n_bases
    below 1 and a bank.shared that leaves no layer to blend are refused when
    read, by an error that names the key."""

    SEEDS = {
        "seed": ((), "seed", "config.seed must be >= 0, got -1"),
        "dataset_seed": (("dataset",), "seed", "dataset: seed must be >= 0, got -1"),
    }

    @staticmethod
    def _write(workdir, section, key, value):
        raw = base_config()
        target = raw
        for name in section:
            target = target[name]
        target[key] = value
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("command", ["cost", "train"])
    @pytest.mark.parametrize("edit", sorted(SEEDS))
    def test_negative_seed(self, workdir, capsys, command, edit):
        section, key, message = self.SEEDS[edit]
        path = self._write(workdir, section, key, -1)
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (workdir / "runs").exists()

    @pytest.mark.parametrize("edit", sorted(SEEDS))
    def test_negative_seed_in_a_manifest(self, workdir, trained_ckpt, capsys, edit):
        section, key, message = self.SEEDS[edit]
        path = trained_ckpt / CK.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        target = manifest["config"]
        for name in section:
            target = target[name]
        target[key] = -1
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr() == ("", f"error: manifest {message}\n")
        assert not (workdir / "runs" / "demo" / "eval.json").exists()

    @pytest.mark.parametrize("command", ["cost", "train"])
    @pytest.mark.parametrize("n_bases", [0, -1])
    def test_bank_n_bases_below_one(self, workdir, capsys, command, n_bases):
        path = self._write(workdir, ("bank",), "n_bases", n_bases)
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: bank.n_bases must be >= 1, got {n_bases}\n")
        assert not (workdir / "runs").exists()

    @pytest.mark.parametrize("command", ["cost", "train"])
    @pytest.mark.parametrize("mode", ["per_layer", "per_model", "one_hot"])
    def test_bank_with_nothing_to_blend(self, workdir, capsys, command, mode):
        raw = base_config()
        raw["synthesis"]["mode"] = mode
        raw["bank"]["shared"] = [[0, 1], [2, 2]]
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: bank.shared covers all 3 layers; a bank must blend at least one\n")
        assert not (workdir / "runs").exists()


class TestEval:
    def test_eval_writes_json(self, workdir, trained_ckpt, capsys):
        assert main(["eval", "--ckpt", str(trained_ckpt), "--threshold", "0.5"]) == 0
        data = json.loads((workdir / "runs" / "demo" / "eval.json").read_text())
        assert 0.0 <= data["accuracy"] <= 1.0
        assert data["threshold"] == 0.5

    def test_eval_uses_config_default_threshold(self, workdir, trained_ckpt, capsys):
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 0
        data = json.loads((workdir / "runs" / "demo" / "eval.json").read_text())
        assert data["threshold"] == 0.7

    def test_eval_matches_last_metrics_row(self, workdir, trained_ckpt, capsys):
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 0
        result = json.loads((workdir / "runs" / "demo" / "eval.json").read_text())
        with open(workdir / "runs" / "demo" / "metrics.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert (result["accuracy_lm"], result["accuracy_full"], result["skip_rate"]) == (
            float(last["eval_acc_lm"]), float(last["eval_acc_full"]),
            float(last["skip_rate_at_default_threshold"]))

    @pytest.mark.parametrize("value,message", [
        ("inf", "expected a finite number >= 0, got Infinity"),
        ("-0.5", "expected a finite number >= 0, got -0.5"),
        ("nan", "expected a finite number >= 0, got NaN"),
        ("abc", "expected float, got 'abc'"),
    ], ids=["inf-Infinity", "-0.5--0.5", "nan-NaN", "abc"])
    def test_bad_threshold_exits_one_with_one_line(self, workdir, trained_ckpt, capsys,
                                                   value, message):
        assert main(["eval", "--ckpt", str(trained_ckpt), "--threshold", value]) == 1
        assert capsys.readouterr().err == f"error: --threshold: {message}\n"
        assert not (workdir / "runs" / "demo" / "eval.json").exists()

    @pytest.mark.parametrize("name,corrupt", [
        (CK.BLOB_NAME, lambda raw: raw[:100] + bytes([raw[100] ^ 0x01]) + raw[101:]),
        (CK.MANIFEST_NAME, lambda raw: raw[:200]),
    ], ids=["flipped_blob_byte", "truncated_manifest"])
    def test_corrupt_checkpoint_exits_one_with_one_line(self, trained_ckpt, capsys, name, corrupt):
        path = trained_ckpt / name
        path.write_bytes(corrupt(path.read_bytes()))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err

    def test_malformed_manifest_exits_one_with_one_line(self, trained_ckpt, capsys):
        path = trained_ckpt / CK.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"]["bank"]["layers"][0]["k"] = "3"
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr().err == (
            'error: manifest bank.layers[0].k: expected int, got "3"\n')

    def test_overflowing_pad_exits_one_with_one_line(self, workdir, trained_ckpt, capsys):
        # an int key takes a float only below 2**53, where every whole float
        # is exact, so a pad of 1e308 is refused as read, naming its key
        path = trained_ckpt / CK.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"]["bank"]["layers"][1]["pad"] = 1e308
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr().err == (
            "error: manifest bank.layers[1].pad: expected int, got 1e+308\n")
        assert not (workdir / "runs" / "demo" / "eval.json").exists()

    def test_out_of_memory_exits_one_with_one_line(self, trained_ckpt, capsys, monkeypatch):
        message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"

        def allocate(*args):
            raise MemoryError(message)

        monkeypatch.setattr(EX, "evaluate", allocate)
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", ["per_layer", "per_model"])
    def test_finetuned_checkpoint_evaluates_as_trained(self, workdir, capsys, mode):
        # the last metrics row, eval and the in-process hardened accuracy
        # all describe the fine-tuned selection the checkpoint holds
        raw = base_config()
        raw["output_dir"] = str(workdir / "runs" / "ft")
        raw["synthesis"]["mode"] = mode
        # trained far enough that the soft blend and the selection differ
        raw["schedule"].update(total_steps=60, finetune_steps=10, optimizer="rmsprop")
        raw["schedule"]["learning_rate"]["base"] = 0.01
        path = workdir / "ft.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 0
        ckpt = workdir / "runs" / "ft" / "checkpoint"
        assert main(["eval", "--ckpt", str(ckpt)]) == 0
        with open(workdir / "runs" / "ft" / "metrics.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        result = json.loads((workdir / "runs" / "ft" / "eval.json").read_text())

        state, cfg = CK.load_checkpoint(ckpt)
        assert cfg.raw == raw
        _, evalset = EX.load_dataset(cfg)
        hard_cfg = dataclasses.replace(cfg.synth_cfg, mode="one_hot")
        hardened = P.infer_batch(state.lm, state.lm_params, state.bank, hard_cfg,
                                 evalset.images, 1.01).accuracy(evalset.labels)
        assert result["accuracy_full"] == hardened
        assert (int(last["step"]), float(last["eval_acc_full"])) == (70, hardened)
        assert state.synth_cfg == hard_cfg


class TestSweep:
    def test_sweep_rows_match_thresholds(self, workdir, trained_ckpt, capsys):
        assert main(["sweep", "--ckpt", str(trained_ckpt),
                     "--thresholds", "0,0.5,0.7,1.01"]) == 0
        with open(workdir / "runs" / "demo" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [float(r["threshold"]) for r in rows] == [0.0, 0.5, 0.7, 1.01]
        rates = [float(r["skip_rate"]) for r in rows]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_thresholds_default_to_config(self, workdir, trained_ckpt, capsys):
        assert main(["sweep", "--ckpt", str(trained_ckpt)]) == 0
        with open(workdir / "runs" / "demo" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["threshold"]) for r in rows] == base_config()["eval"]["thresholds"]

    def test_spend_contract_violation_exits_one(self, trained_ckpt, capsys, monkeypatch):
        def broken(*args):
            raise AssertionError("measured average 1.0 disagrees with closed form 2.0")
        monkeypatch.setattr(CO, "sweep", broken)
        assert main(["sweep", "--ckpt", str(trained_ckpt), "--thresholds", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error: measured average 1.0 disagrees with closed form 2.0\n")

    @pytest.mark.parametrize("value,shown", [("0,-1", "-1.0"), ("0.5,inf", "Infinity")])
    def test_bad_thresholds_exit_one_with_one_line(self, workdir, trained_ckpt, capsys,
                                                   value, shown):
        assert main(["sweep", "--ckpt", str(trained_ckpt), "--thresholds", value]) == 1
        assert capsys.readouterr().err == (
            f"error: --thresholds: expected a finite number >= 0, got {shown}\n")
        assert not (workdir / "runs" / "demo" / "sweep.csv").exists()

    def test_non_numeric_threshold_exits_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["sweep", "--ckpt", str(trained_ckpt), "--thresholds", "0,abc"]) == 1
        assert capsys.readouterr().err == "error: --thresholds: expected float, got 'abc'\n"
        assert not (workdir / "runs" / "demo" / "sweep.csv").exists()

    def test_no_thresholds_exits_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["sweep", "--ckpt", str(trained_ckpt), "--thresholds", ","]) == 1
        assert capsys.readouterr().err == (
            "error: --thresholds: expected a non-empty list of thresholds, got []\n")
        assert not (workdir / "runs" / "demo" / "sweep.csv").exists()

    def test_sweep_csv_reparses_as_floats(self, workdir, trained_ckpt, capsys):
        assert main(["sweep", "--ckpt", str(trained_ckpt), "--thresholds", "0.5"]) == 0
        with open(workdir / "runs" / "demo" / "sweep.csv") as fh:
            row = next(csv.DictReader(fh))
        for column in ("threshold", "skip_rate", "avg_madds", "accuracy"):
            float(row[column])


class TestDisturb:
    def test_single_kind(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "shuffled", "--seeds", "2"]) == 0
        with open(workdir / "runs" / "demo" / "disturbance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["kind_or_layer"] == "correct"
        assert float(rows[0]["delta_vs_correct"]) == 0.0
        assert rows[1]["kind_or_layer"] == "shuffled"
        for row in rows:
            for column in ("accuracy", "delta_vs_correct"):
                float(row[column])

    def test_layer_sweep_mode(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "shuffled", "--layer", "all", "--seeds", "2"]) == 0
        with open(workdir / "runs" / "demo" / "disturbance.csv") as fh:
            rows = list(csv.DictReader(fh))
        labels = [r["kind_or_layer"] for r in rows]
        assert labels == ["correct", "L0", "L1", "L2"]
        for row in rows:
            for column in ("accuracy", "delta_vs_correct"):
                float(row[column])
        # the correct row is the study's reference, and every layer's row,
        # and the one-layer form's, is the study's mean for that layer
        state, cfg = CK.load_checkpoint(trained_ckpt)
        _, evalset = EX.load_dataset(cfg)
        reference, means = DI.study(state.lm, state.lm_params, state.bank, state.synth_cfg,
                                    evalset, "shuffled", range(3), 2)
        assert [float(r["accuracy"]) for r in rows] == [reference] + means
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "shuffled", "--layer", "1", "--seeds", "2"]) == 0
        with open(workdir / "runs" / "demo" / "disturbance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert (rows[1]["kind_or_layer"], float(rows[1]["accuracy"])) == ("shuffled@L1", means[1])

    def test_seeds_default_to_config(self, workdir, capsys, record_calls):
        raw = base_config()
        raw["output_dir"] = str(workdir / "runs" / "seeds")
        raw["eval"]["disturbance_seeds"] = 3
        path = workdir / "seeds.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 0
        calls = record_calls(DI, "_disturbed_accuracy")
        ckpt = workdir / "runs" / "seeds" / "checkpoint"
        assert main(["disturb", "--ckpt", str(ckpt), "--kind", "shuffled"]) == 0
        assert [args[6].seed for args in calls if args[6].kind == "shuffled"] == [0, 1, 2]

    @pytest.mark.parametrize("flags,passes", [
        (["--kind", "mean", "--layer", "1", "--seeds", "2"], 2),
        (["--kind", "correct", "--layer", "all"], 1),
        (["--kind", "mean", "--layer", "all"], 3),
        (["--kind", "shuffled", "--layer", "all", "--seeds", "5"], 11),
    ], ids=["mean@L1", "correct@all", "mean@all", "shuffled@all"])
    def test_passes_per_command(self, workdir, trained_ckpt, capsys, record_calls,
                                flags, passes):
        # one stage one; one reference stage two, then one (per seed for
        # shuffled) at each layer the disturbance changes; the config's
        # layer 0 is shared
        stage_one, calls = record_calls(P, "lm_forward"), record_calls(P, "stage_two")
        assert main(["disturb", "--ckpt", str(trained_ckpt)] + flags) == 0
        assert len(stage_one) == 1 and len(calls) == passes

    @pytest.mark.parametrize("kind", DI.KINDS)
    def test_out_of_range_layer_exits_one_with_one_line(self, workdir, trained_ckpt, capsys,
                                                        record_calls, kind):
        calls = record_calls(P, "lm_forward")
        assert main(["disturb", "--ckpt", str(trained_ckpt), "--kind", kind, "--layer", "9"]) == 1
        assert capsys.readouterr().err == "error: layer 9 out of range [0, 3)\n"
        assert calls == []
        assert not (workdir / "runs" / "demo" / "disturbance.csv").exists()

    def test_zero_seeds_exit_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "uniform", "--seeds", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seeds" in err
        assert not (workdir / "runs" / "demo" / "disturbance.csv").exists()

    def test_non_integer_seeds_exit_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "uniform", "--seeds", "x"]) == 1
        assert capsys.readouterr().err == "error: --seeds: expected int, got 'x'\n"
        assert not (workdir / "runs" / "demo" / "disturbance.csv").exists()

    def test_non_integer_layer_exits_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "shuffled", "--layer", "x"]) == 1
        assert capsys.readouterr().err == "error: --layer: expected int, got 'x'\n"
        assert not (workdir / "runs" / "demo" / "disturbance.csv").exists()

    def test_invalid_kind_rejected(self, trained_ckpt):
        with pytest.raises(SystemExit) as exc:
            main(["disturb", "--ckpt", str(trained_ckpt), "--kind", "negate"])
        assert exc.value.code == 2


class TestCost:
    def test_cost_prints_itemized_json(self, workdir, config_path, capsys):
        assert main(["cost", "--config", str(config_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        for key in ("lm_madds", "stage2_madds", "synthesis_madds", "total_madds",
                    "params_total", "params_shared", "params_per_basis"):
            assert key in printed
        assert printed["total_madds"] == (
            printed["lm_madds"] + printed["synthesis_madds"] + printed["stage2_madds"])
        on_disk = json.loads((workdir / "runs" / "demo" / "cost.json").read_text())
        assert on_disk == printed

    def test_cost_with_sixteen_bases(self, workdir, capsys):
        raw = base_config()
        raw["output_dir"] = str(workdir / "runs" / "wide")
        raw["bank"]["n_bases"] = 16
        path = workdir / "wide.json"
        path.write_text(json.dumps(raw))
        assert main(["cost", "--config", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        # synthesis overhead scales with the basis count, stage 2 does not
        assert printed["synthesis_madds"] % 16 == 0
        assert printed["params_per_basis"] > 0

    def test_cost_needs_no_teacher_checkpoint(self, workdir, config_path, capsys):
        raw = base_config()
        raw["output_dir"] = str(workdir / "runs" / "distill")
        raw["loss"]["distill"] = {"teacher_checkpoint": str(workdir / "no-teacher")}
        path = workdir / "distill.json"
        path.write_text(json.dumps(raw))
        assert main(["cost", "--config", str(path)]) == 0
        assert main(["cost", "--config", str(config_path)]) == 0
        assert not (workdir / "no-teacher").exists()
        assert ((workdir / "runs" / "distill" / "cost.json").read_bytes()
                == (workdir / "runs" / "demo" / "cost.json").read_bytes())

    @pytest.mark.parametrize("command", ["cost", "train"])
    def test_unrepresentable_pad_exits_one_with_one_line(self, workdir, capsys, command):
        # an int key takes a float only below 2**53, where every whole float is
        # exact; 1e308 would price a 600-digit MAdds count
        raw = base_config()
        raw["bank"]["layers"][1]["pad"] = 1e308
        path = workdir / "huge.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bank.layers[1].pad: expected int, got 1e+308\n"
        assert captured.out == ""
        assert not (workdir / "runs").exists()


class TestTeacherMustFitBank:
    """A distillation teacher is a single-basis checkpoint whose bank takes
    the student bank's input and classes; any other is refused before the
    first step, by one line that names the key and both values."""

    TEACHERS = {  # the student is base_config(): 6 classes, 12x12 one-channel input
        "four_classes": (
            {"dataset": {"num_classes": 4}, "bank": {"num_classes": 4}},
            "the teacher's bank.num_classes is 4 but the student's is 6"),
        "sixteen_pixels": (
            {"dataset": {"image_size": 16}, "bank": {"input_shape": [1, 16, 16]},
             "lightweight": {"input_shape": [1, 8, 8]}},
            "the teacher's bank.input_shape is [1, 16, 16] but the student's is [1, 12, 12]"),
        "three_bases": ({"bank": {"n_bases": 3}},
                        "the teacher must be a single-basis model, got 3 bases"),
    }

    @pytest.mark.parametrize("teacher", sorted(TEACHERS))
    def test_train_fails_with_one_line_and_writes_nothing(self, workdir, capsys, teacher):
        edits, message = self.TEACHERS[teacher]
        raw = base_config()
        raw["bank"]["n_bases"] = 1
        for section, changes in edits.items():
            raw[section].update(changes)
        state, _ = EX.build_state(parse_config(raw))
        CK.save_checkpoint(state, workdir / "teacher", config=raw)

        raw = base_config()
        raw["loss"]["distill"] = {"teacher_checkpoint": str(workdir / "teacher")}
        path = workdir / "student.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: loss.distill.teacher_checkpoint: {message}\n")
        assert not (workdir / "runs").exists()

    def test_missing_teacher_fails_with_one_line_and_writes_nothing(self, workdir, capsys):
        raw = base_config()
        raw["loss"]["distill"] = {"teacher_checkpoint": str(workdir / "nowhere")}
        path = workdir / "student.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: loss.distill.teacher_checkpoint: no manifest.json under {workdir / 'nowhere'}\n")
        assert not (workdir / "runs").exists()


class TestExportCoeffs:
    def test_row_count_is_images_times_rows_times_bases(self, workdir, trained_ckpt, capsys):
        out = workdir / "coeffs.csv"
        assert main(["export-coeffs", "--ckpt", str(trained_ckpt), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 32 eval images x 2 non-shared layers x 3 bases
        assert len(rows) == 32 * 2 * 3

    def test_softmax_groups_sum_to_one(self, workdir, trained_ckpt, capsys):
        out = workdir / "coeffs.csv"
        assert main(["export-coeffs", "--ckpt", str(trained_ckpt), "--out", str(out)]) == 0
        sums = {}
        with open(out) as fh:
            for row in csv.DictReader(fh):
                key = (row["image_id"], row["layer"])
                sums[key] = sums.get(key, 0.0) + float(row["coefficient"])
        assert all(abs(s - 1.0) < 1e-9 for s in sums.values())


class TestNumericOverflow:
    """Finite but huge bank kernels overflow stage two to Inf: each command
    that evaluates the checkpoint fails with one line and writes nothing."""

    @pytest.fixture
    def overflow_ckpt(self, workdir, trained_ckpt):
        state, cfg = CK.load_checkpoint(trained_ckpt)
        for name, p in TR.named_parameters(state):
            if name in ("bank.L1.bases", "bank.L2.bases"):
                p.data[...] = 1e300
        CK.save_checkpoint(state, workdir / "overflow", cfg.raw)
        return workdir / "overflow"

    @pytest.mark.parametrize("argv,output", [
        (["eval"], "runs/demo/eval.json"),
        (["sweep"], "runs/demo/sweep.csv"),
        (["disturb", "--kind", "shuffled", "--seeds", "1"], "runs/demo/disturbance.csv"),
        (["export-coeffs", "--out", "coeffs.csv"], "coeffs.csv"),
    ], ids=["eval", "sweep", "disturb", "export-coeffs"])
    def test_exits_one_with_one_line(self, workdir, overflow_ckpt, capsys, argv, output):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be more stderr lines
            assert main([*argv, "--ckpt", str(overflow_ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workdir / output).exists()


class TestAtomicOutputs:
    @pytest.mark.parametrize("argv,output", [
        (["train", "--config", "config.json"], "runs/demo/metrics.csv"),
        (["eval", "--ckpt", "runs/demo/checkpoint"], "runs/demo/eval.json"),
        (["sweep", "--ckpt", "runs/demo/checkpoint"], "runs/demo/sweep.csv"),
        (["disturb", "--ckpt", "runs/demo/checkpoint", "--kind", "shuffled", "--seeds", "1"],
         "runs/demo/disturbance.csv"),
        (["cost", "--config", "config.json"], "runs/demo/cost.json"),
        (["export-coeffs", "--ckpt", "runs/demo/checkpoint", "--out", "out/coeffs.csv"],
         "out/coeffs.csv"),
    ], ids=["train", "eval", "sweep", "disturb", "cost", "export-coeffs"])
    def test_failed_write_leaves_previous_output(self, workdir, trained_ckpt, capsys,
                                                 monkeypatch, argv, output):
        sentinel = workdir / output
        sentinel.parent.mkdir(parents=True, exist_ok=True)
        sentinel.write_bytes(b"previous output\n")

        def killed(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(CK.os, "replace", killed)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sentinel.read_bytes() == b"previous output\n"
        assert not list(workdir.rglob("*.tmp"))


def _leaves(node, path=()):
    """The path of every leaf of a JSON tree: a scalar or an empty container."""
    children = list(node.items() if isinstance(node, dict) else
                    enumerate(node) if isinstance(node, list) else ())
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, (*path, key))


# Runs ``eval`` once per (value, leaf path) read from stdin, on the checkpoint
# in the working directory, and prints [value, path, exit code, stderr] for
# each. A value of null deletes the leaf. It caps its own address space at
# 1 GiB above what it holds once imported, so a value that sized a huge
# allocation would fail there with a MemoryError instead of filling the
# machine's memory.
MUTATION_RUNNER = """
import contextlib, io, json, resource, sys, warnings
from kernelblend.cli import main
with open("/proc/self/statm") as fh:
    held = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (held + (1 << 30), resource.getrlimit(resource.RLIMIT_AS)[1]))
values, paths = json.load(sys.stdin)
with open("checkpoint/manifest.json") as fh:
    manifest = json.load(fh)
outcomes = []
for value in values:
    for path in paths:
        edited = json.loads(json.dumps(manifest))
        node = edited
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with open("checkpoint/manifest.json", "w") as fh:
            json.dump(edited, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning would be more stderr lines
                code = main(["eval", "--ckpt", "checkpoint"])
        outcomes.append([value, path, code, err.getvalue()])
json.dump(outcomes, sys.stdout)
"""


class TestManifestMutations:
    """Each leaf of a small manifest, deleted or set to each of a few bad
    values in turn: ``eval`` either runs or fails with one line and no
    traceback. The tensor index is checked whole against the model, so its
    first and last entries stand for it."""

    BAD = [None, "x", -1, 0, 1e308, [], {}]  # None deletes the leaf

    def test_eval_runs_or_fails_with_one_line(self, workdir):
        raw = base_config()
        raw["output_dir"] = "out"
        state, _ = EX.build_state(parse_config(raw))
        CK.save_checkpoint(state, workdir / "checkpoint", raw)
        manifest = json.loads((workdir / "checkpoint" / CK.MANIFEST_NAME).read_text())
        last = len(manifest["tensors"]) - 1
        paths = [path for path in _leaves(manifest)
                 if path[0] != "tensors" or path[1] in (0, last)]
        child = subprocess.run(
            [sys.executable, "-c", MUTATION_RUNNER], cwd=workdir, capture_output=True,
            text=True, input=json.dumps([self.BAD, paths]),
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert child.returncode == 0, child.stderr
        outcomes = json.loads(child.stdout)
        assert len(outcomes) == len(self.BAD) * len(paths) > 400
        bad = [(value, path, code, err) for value, path, code, err in outcomes
               if code not in (0, 1) or err.count("\n") != code or "Traceback" in err]
        assert not bad
        assert {code for *_, code, _ in outcomes} == {0, 1}


class TestCheckpointConfigCoupling:
    def test_checkpoint_without_config_refused(self, trained_ckpt, capsys):
        # the config is the model's one description; without it there is no model
        path = trained_ckpt / CK.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"] = None
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr().err == "error: manifest config is NoneType, not an object\n"
