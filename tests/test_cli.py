"""CLI plumbing: every subcommand end to end on a miniature experiment."""

import csv
import dataclasses
import json

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
    ], ids=["negative_threshold", "nan_noise"])
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
        # the lightweight model matches the 16x16 images; the bank still expects 12x12
        raw = base_config()
        raw["dataset"]["image_size"] = 16
        raw["lightweight"]["input_shape"] = [1, 8, 8]
        path = workdir / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: input (4, 1, 16, 16) does not match spec input shape (1, 12, 12)\n")
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

    @pytest.mark.parametrize("value,shown", [("inf", "Infinity"), ("-0.5", "-0.5"), ("nan", "NaN")])
    def test_bad_threshold_exits_one_with_one_line(self, workdir, trained_ckpt, capsys,
                                                   value, shown):
        assert main(["eval", "--ckpt", str(trained_ckpt), "--threshold", value]) == 1
        assert capsys.readouterr().err == (
            f"error: --threshold: expected a finite number >= 0, got {shown}\n")
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
        manifest["structure"]["bank"]["spec"]["layers"][0]["k"] = "3"
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--ckpt", str(trained_ckpt)]) == 1
        assert capsys.readouterr().err == (
            'error: manifest structure.bank.spec.layers[0].k: expected int, got "3"\n')

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

        state, _ = CK.load_checkpoint(ckpt)
        cfg = parse_config(raw)
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
        # every layer's row, and the one-layer form's, is seed_average's mean
        state, raw = CK.load_checkpoint(trained_ckpt)
        _, evalset = EX.load_dataset(parse_config(raw))
        means = [mean for mean, _ in DI.seed_average(
            state.lm, state.lm_params, state.bank, state.synth_cfg, evalset,
            "shuffled", range(3), 2)]
        assert [float(r["accuracy"]) for r in rows[1:]] == means
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "shuffled", "--layer", "1", "--seeds", "2"]) == 0
        with open(workdir / "runs" / "demo" / "disturbance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert (rows[1]["kind_or_layer"], float(rows[1]["accuracy"])) == ("shuffled@L1", means[1])

    def test_seeds_default_to_config(self, workdir, capsys, monkeypatch):
        raw = base_config()
        raw["output_dir"] = str(workdir / "runs" / "seeds")
        raw["eval"]["disturbance_seeds"] = 3
        path = workdir / "seeds.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 0
        evaluate = DI.evaluate_disturbed
        seen = []

        def recording(*args, **kwargs):
            seen.append(args[5])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(DI, "evaluate_disturbed", recording)
        ckpt = workdir / "runs" / "seeds" / "checkpoint"
        assert main(["disturb", "--ckpt", str(ckpt), "--kind", "shuffled"]) == 0
        assert [d.seed for d in seen if d.kind == "shuffled"] == [0, 1, 2]

    def test_zero_seeds_exit_one_with_one_line(self, workdir, trained_ckpt, capsys):
        assert main(["disturb", "--ckpt", str(trained_ckpt),
                     "--kind", "uniform", "--seeds", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seeds" in err
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


class TestCheckpointConfigCoupling:
    def test_checkpoint_without_config_refused(self, workdir, trained_ckpt, capsys):
        state, _ = CK.load_checkpoint(trained_ckpt)
        bare = workdir / "bare"
        CK.save_checkpoint(state, bare)  # no config attached
        assert main(["eval", "--ckpt", str(bare)]) == 1
        assert "config" in capsys.readouterr().err
