"""Checkpoint round trips, validation failures, and schedule continuation."""

import json

import numpy as np
import pytest

from kernelblend import checkpoint as CK
from kernelblend import cost as CO
from kernelblend import synthesis as S
from kernelblend import training as TR
from kernelblend import pipeline as P
from kernelblend.config import parse_config

from toys import run_training, toy_config_state, toy_dataset


def per_basis_index(index):
    """Schema 6's ``tensors`` entries for a schema 7 index: each (N, O, I, K,
    K) ``bank.L{k}.bases`` entry as N ``bank.L{k}.basis{n}.kernel`` entries,
    over the same bytes."""
    out = []
    for entry in index:
        if not entry["name"].endswith(".bases"):
            out.append(entry)
            continue
        n, size = entry["shape"][0], entry["nbytes"] // entry["shape"][0]
        out += [{"name": entry["name"].replace(".bases", f".basis{i}.kernel"), "shape": entry["shape"][1:],
                 "offset": entry["offset"] + i * size, "nbytes": size} for i in range(n)]
    return out


def small_sched(steps=6, **kw):
    base = dict(total_steps=steps, epsilon_hold_steps=2, epsilon_decay_steps=2,
                lr_base=0.05, batch_size=4, seed=0, bmd_rate=0.25)
    base.update(kw)
    return TR.TrainSchedule(**base)


@pytest.fixture
def trained(tmp_path):
    state, raw = toy_config_state(n_bases=3, seed=0)
    train, evalset = toy_dataset(train_size=64, eval_size=16)
    state, _ = run_training(state, train, small_sched(), TR.LossConfig())
    return state, train, evalset, raw


class TestRoundTrip:
    def test_bitwise_parameters(self, trained, tmp_path):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")
        for (name_a, a), (name_b, b) in zip(
                TR.named_parameters(state), TR.named_parameters(loaded)):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()
        assert loaded.step == state.step

    def test_eval_metrics_reproduced(self, trained, tmp_path):
        state, _, evalset, raw = trained

        def accuracy(st):
            hits = 0
            for i in range(len(evalset)):
                res = P.infer(st.lm, st.lm_params, st.bank, st.synth_cfg,
                              evalset.images[i:i + 1], threshold=0.5)
                hits += res.prediction == evalset.labels[i]
            return hits / len(evalset)

        before = accuracy(state)
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")
        assert accuracy(loaded) == before

    def test_optimizer_state_roundtrip(self, tmp_path):
        train, _ = toy_dataset(train_size=32, eval_size=8)
        for optimizer in ("rmsprop", "sgd"):
            state, raw = toy_config_state(n_bases=2, seed=1)
            state, _ = run_training(state, train, small_sched(steps=4, optimizer=optimizer),
                                    TR.LossConfig())
            CK.save_checkpoint(state, tmp_path / optimizer, raw)
            loaded, _ = CK.load_checkpoint(tmp_path / optimizer)
            # the blob is the parameter vector, then the accumulator when there is one
            blob = (tmp_path / optimizer / CK.BLOB_NAME).read_bytes()
            params = state.vector.data.astype("<f8").tobytes()
            if optimizer == "sgd":
                assert state.opt_state is None and loaded.opt_state is None
                assert blob == params
            else:
                assert loaded.opt_state.tobytes() == state.opt_state.tobytes()
                assert blob == params + state.opt_state.astype("<f8").tobytes()

    def test_loaded_mode_is_the_mode_the_run_had(self, tmp_path):
        # the synthesis mode follows from the config's schedule and the step:
        # the config's own mode until a selection step has run, then one_hot
        state, raw = toy_config_state(n_bases=2, seed=1)
        raw["schedule"]["finetune_steps"] = 2
        sched = small_sched(finetune_steps=2)
        train, _ = toy_dataset(train_size=32, eval_size=8)
        modes = []
        while state.step < 8:
            batch = TR.sample_batch(train, sched, state.step)
            state, _ = TR.train_step(state, batch, sched, TR.LossConfig())
            CK.save_checkpoint(state, tmp_path / "ckpt", raw)
            loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")
            assert loaded.synth_cfg == state.synth_cfg
            modes.append(loaded.synth_cfg.mode)
        assert modes == ["per_layer"] * 6 + ["one_hot"] * 2

    def test_resume_continues_schedule_not_restarts(self, trained, tmp_path):
        state, train, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")

        sched = small_sched(steps=8)
        assert TR.epsilon_at(loaded.step, sched) == TR.epsilon_at(state.step, sched)
        assert loaded.step == 6  # not 0

        # continuing produces the same batches the original run would see
        a = TR.sample_batch(train, sched, loaded.step)
        b = TR.sample_batch(train, sched, state.step)
        assert a[0].tobytes() == b[0].tobytes()

    def test_config_embedding(self, trained, tmp_path):
        # the embedded config is the model's one description: the load parses
        # it and builds the state from it
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", config=raw)
        manifest = json.loads((tmp_path / "ckpt" / CK.MANIFEST_NAME).read_text())
        assert manifest["config"] == raw and "structure" not in manifest
        assert manifest["schema_version"] == CK.SCHEMA_VERSION == 7
        loaded, stored = CK.load_checkpoint(tmp_path / "ckpt")
        assert stored.raw == raw
        assert (loaded.lm, loaded.bank.spec) == (stored.lm, stored.bank_spec) == (
            state.lm, state.bank.spec)

    def test_edited_config_is_the_model_that_loads(self, trained, tmp_path):
        # the config is the model's one description: a pad edited in it is the
        # pad that runs, and the loaded model is the one the config prices
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["bank"]["layers"][1]["pad"] == 1
        manifest["config"]["bank"]["layers"][1]["pad"] = 2
        manifest_path.write_text(json.dumps(manifest))
        loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")
        assert loaded.bank.spec.layers[1].padding == 2
        assert loaded.vector.data.tobytes() == state.vector.data.tobytes()
        cfg = parse_config(manifest["config"])
        priced = CO.full_cost(cfg.lm, S.build_bank(cfg.bank_spec, cfg.lm.n_bases,
                                                   cfg.shared_layers, cfg.schedule.seed))
        assert CO.full_cost(loaded.lm, loaded.bank) == priced
        assert priced != CO.full_cost(state.lm, state.bank)

    def test_manifest_with_config_hash_loads(self, trained, tmp_path):
        # a top-level key the loader does not read (an old config hash) is ignored
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", config=raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert "config_sha256" not in manifest
        manifest["config_sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        loaded, stored = CK.load_checkpoint(tmp_path / "ckpt")
        assert stored.raw == raw and loaded.step == state.step


class TestValidation:
    def test_edited_shape_rejected(self, trained, tmp_path):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"][0]["shape"] = [1, 1, 1, 1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError) as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        got, want = str(exc.value).split(", the config gives ")
        assert got.startswith("manifest tensor 0 is ") and "'shape': [1, 1, 1, 1]" in got
        assert f"'shape': {list(TR.named_parameters(state)[0][1].shape)}" in want

    @pytest.mark.parametrize("schema,old_keys", [
        # schema 3 kept the optimizer accumulators as JSON lists in the manifest
        (3, {"opt_state": {}, "opt_shapes": {}}),
        # schema 4 recorded the order of the uniform blend and dropout
        (4, {"structure": {"synthesis": {"stabilizer_order": "epsilon_then_bmd"}}}),
        # schema 5 described the model twice: a structure beside the config
        (5, {"structure": {"synthesis": {}}}),
        # schema 6 indexed each basis of a layer apart: bank.L{k}.basis{n}.kernel
        (6, {"tensors": per_basis_index}),
    ], ids=["3", "4", "5", "6"])
    def test_old_schema_refused(self, trained, tmp_path, schema, old_keys):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.update(schema_version=schema, **{
            key: value(manifest[key]) if callable(value) else value for key, value in old_keys.items()})
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError) as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert str(exc.value) == f"checkpoint schema {schema} != supported 7"

    def test_wrong_schema_version(self, trained, tmp_path):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError, match="schema"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_truncated_blob(self, trained, tmp_path):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        blob_path = tmp_path / "ckpt" / CK.BLOB_NAME
        blob_path.write_bytes(blob_path.read_bytes()[:-8])
        with pytest.raises(CK.CheckpointError, match="does not match the SHA-256"):
            CK.load_checkpoint(tmp_path / "ckpt")

    def test_blob_length_checked_against_the_index(self, trained, tmp_path):
        # a blob that matches its recorded hash but not the parameter count
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        blob_path = tmp_path / "ckpt" / CK.BLOB_NAME
        blob = blob_path.read_bytes() + bytes(8)
        blob_path.write_bytes(blob)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["blob_sha256"] = CK.hashlib.sha256(blob).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError, match=f"blob is {len(blob)} bytes"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,index", [
        (lambda entries: entries[0].update(name="lm.trunk.L9.kernel"), 0),
        (lambda entries: entries[3].update(offset=entries[3]["offset"] + 8), 3),
        (lambda entries: entries[-1].update(nbytes=8), -1),
        (lambda entries: entries.pop(), -1),
    ], ids=["renamed", "offset", "nbytes", "dropped"])
    def test_index_mismatch_names_first_entry(self, trained, tmp_path, edit, index):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        edit(manifest["tensors"])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError) as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        index %= len(TR.named_parameters(state))
        assert str(exc.value).startswith(f"manifest tensor {index} is ")
        assert "\n" not in str(exc.value)

    def test_edited_accumulator_rejected(self, tmp_path):
        state, raw = toy_config_state(n_bases=2, seed=1)
        train, _ = toy_dataset(train_size=32, eval_size=8)
        state, _ = run_training(state, train, small_sched(steps=4, optimizer="rmsprop"),
                                TR.LossConfig())
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        blob_path = tmp_path / "ckpt" / CK.BLOB_NAME
        blob = np.frombuffer(blob_path.read_bytes(), dtype="<f8").copy()
        assert len(blob) == 2 * state.vector.size
        blob[state.vector.size:] *= 1000.0  # the accumulator, after the parameters
        blob_path.write_bytes(blob.tobytes())
        with pytest.raises(CK.CheckpointError, match="SHA-256") as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert "\n" not in str(exc.value)

    def test_flipped_blob_byte_rejected(self, trained, tmp_path):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        blob_path = tmp_path / "ckpt" / CK.BLOB_NAME
        blob = bytearray(blob_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(CK.CheckpointError, match="SHA-256"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,named", [
        (lambda text: text[:200], "is not valid JSON"),
        (lambda text: "[1]", "holds a JSON list, not an object"),
    ], ids=["truncated", "not_an_object"])
    def test_unreadable_manifest_named(self, trained, tmp_path, edit, named):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest_path.write_text(edit(manifest_path.read_text()))
        with pytest.raises(CK.CheckpointError, match=f"{CK.MANIFEST_NAME} {named}") as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert "\n" not in str(exc.value)

    def test_save_interrupted_before_manifest_is_detected(self, trained, tmp_path, monkeypatch):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        _, tensor = TR.named_parameters(state)[0]
        tensor.apply_update(tensor.data + 1.0)
        real_replace = CK.os.replace

        def crash_on_manifest(src, dst):
            if str(dst).endswith(CK.MANIFEST_NAME):
                raise OSError("killed")
            real_replace(src, dst)

        monkeypatch.setattr(CK.os, "replace", crash_on_manifest)
        with pytest.raises(OSError, match="killed"):
            CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        with pytest.raises(CK.CheckpointError, match="SHA-256"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("key", ["config", "tensors", "step", "blob_sha256"])
    def test_missing_manifest_key_named(self, tmp_path, key):
        state, raw = toy_config_state(n_bases=2, seed=1)
        train, _ = toy_dataset(train_size=32, eval_size=8)
        state, _ = run_training(state, train, small_sched(steps=4, optimizer="rmsprop"),
                                TR.LossConfig())
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError, match=f"lacks key '{key}'"):
            CK.load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,named", [
        (lambda section: {**section, "temperature": 1.0}, "unknown key 'temperature'"),
        (lambda section: list(section), "not an object"),
        (lambda section: {**section, "stabilizer_order": "epsilon_then_bmd"},
         "unknown key 'stabilizer_order'"),
    ], ids=["unknown_key", "not_an_object", "stabilizer_order"])
    def test_bad_synthesis_section_named(self, trained, tmp_path, edit, named):
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["synthesis"] = edit(manifest["config"]["synthesis"])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError, match=named) as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["config"]["bank"]["layers"][0].update(k="3"),
         'bank.layers[0].k: expected int, got "3"'),
        (lambda m: m.update(config=[]), "config is list, not an object"),
        (lambda m: m["config"]["lightweight"].update(layers=5),
         "lightweight.layers: expected list, got 5"),
        (lambda m: m["config"]["bank"].update(n_bases="4"),
         'bank.n_bases: expected int, got "4"'),
        (lambda m: m["config"]["bank"].update(shared=3),
         "bank.shared: expected list, got 3"),
        (lambda m: m["config"]["bank"]["layers"][1].update(dilation=2),
         "bank.layers[1]: unknown key 'dilation'"),
        (lambda m: m.update(step="20"), 'step: expected int, got "20"'),
        # the embedded schedule runs 6 steps: a save comes at most at its end
        (lambda m: m.update(step=-1), "step: expected int in [0, 6], got -1"),
        (lambda m: m.update(step=7), "step: expected int in [0, 6], got 7"),
    ], ids=["layer_k_string", "structure_list", "layers_int", "n_bases_string",
            "share_mask_int", "unknown_layer_key", "step_string", "step_negative",
            "step_past_the_schedule"])
    def test_malformed_structure_names_its_key(self, trained, tmp_path, edit, message):
        # the manifest's config describes the model's structure (bank.shared
        # gives its share mask); it and the step are read under the config's rules
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CK.CheckpointError) as exc:
            CK.load_checkpoint(tmp_path / "ckpt")
        assert str(exc.value) == f"manifest {message}"

    def test_whole_number_float_loads_as_int(self, trained, tmp_path):
        # under the config's rules 2.0 is the whole number 2
        state, _, _, raw = trained
        CK.save_checkpoint(state, tmp_path / "ckpt", raw)
        manifest_path = tmp_path / "ckpt" / CK.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["lightweight"]["downsample"] == 2
        manifest["config"]["lightweight"]["downsample"] = 2.0
        manifest_path.write_text(json.dumps(manifest))
        loaded, _ = CK.load_checkpoint(tmp_path / "ckpt")
        assert type(loaded.lm.downsample) is int and loaded.lm == state.lm
        assert loaded.vector.data.tobytes() == state.vector.data.tobytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CK.CheckpointError, match="manifest"):
            CK.load_checkpoint(tmp_path / "nothing")


class TestWriters:
    def test_write_csv_writes_every_digit(self, tmp_path):
        # a numpy float and a Python float of the same value give the same text,
        # each in its shortest round-trip form
        CK.write_csv(tmp_path / "a.csv", ["x", "y"], [[np.float64(0.1) + np.float64(0.2), 1e-5]])
        CK.write_csv(tmp_path / "b.csv", ["x", "y"], [[0.1 + 0.2, np.float64(1e-5)]])
        expected = b"x,y\r\n0.30000000000000004,1e-05\r\n"
        assert (tmp_path / "a.csv").read_bytes() == expected
        assert (tmp_path / "b.csv").read_bytes() == expected

    def test_write_atomically_makes_the_directory(self, tmp_path):
        CK.write_atomically(tmp_path / "new" / "dir" / "out.bin", b"data")
        assert (tmp_path / "new" / "dir" / "out.bin").read_bytes() == b"data"
        assert [f.name for f in (tmp_path / "new" / "dir").iterdir()] == ["out.bin"]
