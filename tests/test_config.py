"""Config schema: strict key checking, range validation, and parsing."""

import json
import re

import pytest

from kernelblend.config import ConfigError, load_config, parse_config


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "output_dir": "runs/test",
        "dataset": {
            "kind": "synthetic", "num_classes": 6, "image_size": 12,
            "noise": 0.1, "train_size": 64, "eval_size": 32, "seed": 1,
        },
        "lightweight": {
            "input_shape": [1, 6, 6],
            "layers": [{"in": 1, "out": 8, "k": 3, "stride": 2, "pad": 1}],
            "downsample": 2,
        },
        "bank": {
            "n_bases": 3,
            "input_shape": [1, 12, 12],
            "num_classes": 6,
            "shared": [[0, 0]],
            "layers": [
                {"in": 1, "out": 4, "k": 3, "stride": 2, "pad": 1},
                {"in": 4, "out": 4, "k": 3, "stride": 1, "pad": 1},
                {"in": 4, "out": 4, "k": 3, "stride": 2, "pad": 1},
            ],
        },
        "synthesis": {"activation": "softmax", "mode": "per_layer"},
        "schedule": {
            "total_steps": 20, "batch_size": 4,
            "epsilon_hold_steps": 2, "epsilon_decay_steps": 4,
            "learning_rate": {"base": 0.05, "decay_factor": 0.99, "decay_interval": 10},
            "bmd_rate": 0.125, "eval_interval": 10,
        },
        "loss": {"lm_weight": 1.0, "l2_weight": 1e-5},
        "eval": {"thresholds": [0.0, 0.5, 1.01], "default_threshold": 0.7},
    }
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_valid_config_parses(self):
        cfg = parse_config(base_config())
        assert cfg.schedule.seed == 7
        assert cfg.lm.n_bases == 3
        assert cfg.shared_layers == [0]
        assert cfg.lm.coeff_rows == 2
        assert cfg.schedule.lr_base == 0.05
        assert cfg.eval_thresholds == [0.0, 0.5, 1.01]

    def test_unknown_top_level_key_rejected(self):
        raw = base_config()
        raw["exprimental"] = True
        with pytest.raises(ConfigError, match="exprimental"):
            parse_config(raw)

    def test_unknown_nested_key_rejected(self):
        for section, key, value in [("schedule", "warmup", 10),
                                    ("synthesis", "stabilizer_order", "bmd_then_epsilon")]:
            raw = base_config()
            raw[section][key] = value
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(raw)

    def test_missing_section_rejected(self):
        raw = base_config()
        del raw["bank"]
        with pytest.raises(ConfigError, match="bank"):
            parse_config(raw)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(base_config(schema_version=2))

    def test_share_range_out_of_bounds(self):
        # the message states the rule that failed: [1, 0] has both ends inside
        for shared in ([0, 7], [1, 0], [-1, 0]):
            raw = base_config()
            raw["bank"]["shared"] = [shared]
            with pytest.raises(ConfigError) as exc:
                parse_config(raw)
            assert str(exc.value) == (
                f"bank.shared: expected ranges with 0 <= lo <= hi < 3, got {shared}")

    def test_bad_dataset_kind(self):
        raw = base_config()
        raw["dataset"] = {"kind": "imagenet", "path": "/data"}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(raw)

    def test_dataset_path_must_exist(self, tmp_path):
        raw = base_config()
        raw["dataset"] = {"kind": "mnist", "path": str(tmp_path / "missing")}
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(raw)
        (tmp_path / "present").mkdir()
        raw["dataset"] = {"kind": "mnist", "path": str(tmp_path / "present")}
        assert parse_config(raw).dataset["kind"] == "mnist"

    def test_per_model_mode_uses_single_row(self):
        raw = base_config()
        raw["synthesis"]["mode"] = "per_model"
        cfg = parse_config(raw)
        assert cfg.lm.coeff_rows == 1

    def test_layer_validation_propagates(self):
        raw = base_config()
        raw["bank"]["layers"][0]["k"] = 2
        with pytest.raises(ConfigError, match="odd"):
            parse_config(raw)

    def test_schedule_validation_propagates(self):
        raw = base_config()
        raw["schedule"]["epsilon_hold_steps"] = 50
        with pytest.raises(ConfigError, match="exceed"):
            parse_config(raw)

    @pytest.mark.parametrize("clip_norm", [0, 0.0, -0.05, float("nan")])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        raw = base_config()
        raw["schedule"]["clip_norm"] = clip_norm
        with pytest.raises(ConfigError, match=r"^schedule: clip_norm must be > 0"):
            parse_config(raw)

    @pytest.mark.parametrize("path,value,message", [
        (("learning_rate", "decay_interval"), 0, "lr_decay_interval must be >= 1, got 0"),
        (("learning_rate", "decay_interval"), -1, "lr_decay_interval must be >= 1, got -1"),
        (("learning_rate", "decay_factor"), -0.5, "lr_decay_factor must be > 0, got -0.5"),
        (("learning_rate", "decay_factor"), 0, "lr_decay_factor must be > 0, got 0.0"),
        (("learning_rate", "decay_factor"), float("nan"), "lr_decay_factor must be > 0, got nan"),
        (("learning_rate", "base"), 0, "lr_base must be > 0, got 0.0"),
        (("learning_rate", "base"), -0.05, "lr_base must be > 0, got -0.05"),
        (("learning_rate", "base"), float("nan"), "lr_base must be > 0, got nan"),
        (("crop_pad",), -2, "crop_pad must be >= 0, got -2"),
        (("epsilon_hold_steps",), -1, "epsilon_hold_steps must be >= 0, got -1"),
        (("epsilon_decay_steps",), -1, "epsilon_decay_steps must be >= 0, got -1"),
        (("eval_interval",), -5, "eval_interval must be >= 0, got -5"),
    ])
    def test_bad_schedule_value_rejected(self, path, value, message):
        raw = base_config()
        target = raw["schedule"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^schedule: {re.escape(message)}$"):
            parse_config(raw)

    @pytest.mark.parametrize("total_steps, finetune_steps, message", [
        (0, 5, "fine-tuning needs joint training first"),
        (20, -1, "total_steps and finetune_steps must be >= 0"),
    ])
    def test_bad_finetune_steps_rejected(self, total_steps, finetune_steps, message):
        raw = base_config()
        raw["schedule"].update(total_steps=total_steps, finetune_steps=finetune_steps,
                               epsilon_hold_steps=0, epsilon_decay_steps=0)
        with pytest.raises(ConfigError, match=f"^schedule: {message}"):
            parse_config(raw)

    def test_empty_thresholds_rejected(self):
        # sweep reads this list when no --thresholds is given
        raw = base_config()
        raw["eval"]["thresholds"] = []
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert str(exc.value) == "eval.thresholds: expected a non-empty list of thresholds, got []"

    def test_zero_disturbance_seeds_rejected(self):
        raw = base_config()
        raw["eval"]["disturbance_seeds"] = 0
        with pytest.raises(ConfigError, match="disturbance_seeds"):
            parse_config(raw)

    @pytest.mark.parametrize("path,value,named", [
        (("seed",), None, "config.seed"),
        (("schedule", "total_steps"), [1], "schedule.total_steps"),
        (("schedule", "learning_rate"), {"base": "x"}, "schedule.learning_rate.base"),
        (("synthesis", "bmd_renormalize"), "false", "synthesis.bmd_renormalize"),
        (("bank", "layers", 0, "in"), None, "bank.layers[0].in"),
        (("bank", "input_shape"), [1, None, 12], "bank.input_shape"),
        (("bank", "shared"), [[0, None]], "bank.shared"),
        (("eval", "thresholds"), [None], "eval.thresholds"),
        (("schedule", "total_steps"), 20.9, "schedule.total_steps"),
        (("schedule", "batch_size"), True, "schedule.batch_size"),
        (("schedule", "bmd_rate"), False, "schedule.bmd_rate"),
        (("eval", "thresholds"), {"0.5": 1}, "eval.thresholds"),
        (("bank", "input_shape"), "111", "bank.input_shape"),
        (("synthesis", "mode"), 1, "synthesis.mode"),
        (("output_dir",), ["runs"], "config.output_dir"),
        (("eval", "default_threshold"), -0.5, "eval.default_threshold"),
        (("eval", "default_threshold"), float("nan"), "eval.default_threshold"),
        (("eval", "thresholds"), [0.0, -0.1], "eval.thresholds"),
        (("eval", "thresholds"), [float("inf")], "eval.thresholds"),
        (("eval", "thresholds"), [], "eval.thresholds"),
        (("bank", "shared"), [[1, 0]], "bank.shared"),
    ])
    def test_bad_value_names_its_key(self, path, value, named):
        raw = base_config()
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^(bank: )?{re.escape(named)}: expected"):
            parse_config(raw)

    @pytest.mark.parametrize("path,value,message", [
        (("dataset", "noise"), float("nan"), "dataset: noise must be finite, got nan"),
        (("schedule", "learning_rate", "base"), float("inf"),
         "schedule: lr_base must be finite, got inf"),
        (("loss", "l2_weight"), float("inf"), "loss: l2_weight must be finite, got inf"),
        (("dataset", "train_size"), -3, "dataset: train_size must be >= 1, got -3"),
        (("dataset", "eval_size"), 0, "dataset: eval_size must be >= 1, got 0"),
    ], ids=["noise_nan", "lr_base_infinity", "l2_weight_infinity",
            "train_size_negative", "eval_size_zero"])
    def test_non_finite_float_names_its_key(self, tmp_path, path, value, message):
        # Python's json reads NaN and Infinity; the section's own range check
        # lets these through, so the reader refuses them. A value the range
        # check refuses is named the same way, before numpy sees it.
        raw = base_config()
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            load_config(config)

    @pytest.mark.parametrize("seed", [2.0**53 - 1, -(2.0**53 - 1), 2.0**53, -(2.0**53), 1e308])
    def test_int_key_takes_a_float_only_below_2_53(self, seed):
        # below 2**53 in magnitude every whole float is an exact integer; a
        # negative one is cast exactly, then refused by the seed's own range
        if 0 <= seed < 2**53:
            cfg = parse_config(base_config(seed=seed))
            assert type(cfg.schedule.seed) is int and cfg.schedule.seed == seed
        elif abs(seed) < 2**53:
            with pytest.raises(ConfigError) as exc:
                parse_config(base_config(seed=seed))
            assert str(exc.value) == f"config.seed must be >= 0, got {int(seed)}"
        else:
            with pytest.raises(ConfigError) as exc:
                parse_config(base_config(seed=seed))
            assert str(exc.value) == f"config.seed: expected int, got {json.dumps(seed)}"

    def test_optional_null_counts_as_absent(self):
        raw = base_config()
        raw["schedule"]["bmd_rate"] = None
        raw["schedule"]["clip_norm"] = None
        cfg = parse_config(raw)
        assert cfg.schedule.bmd_rate == 0.0 and cfg.schedule.clip_norm is None

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_config(path)
        assert cfg.lm.n_bases == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_distill_section(self):
        raw = base_config()
        raw["loss"]["distill"] = {"teacher_checkpoint": "runs/teacher/checkpoint",
                                  "policy": "bases_only", "soft_weight": 0.9}
        cfg = parse_config(raw)
        assert str(cfg.teacher_checkpoint) == "runs/teacher/checkpoint"
        assert cfg.distill.policy == "bases_only"
        assert cfg.distill.soft_weight == 0.9
        assert cfg.distill.teacher_spec is None  # build_state loads the teacher
        assert parse_config(base_config()).distill is None
