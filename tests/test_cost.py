"""Cost model: mixture arithmetic, itemized reports, counter agreement, sweeps."""

import json
from pathlib import Path

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import cost as C
from kernelblend import experiment as EX
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend.config import load_config, parse_config

from oracles import conv2d_reference, linear_reference, sweep_reference, synthesis_reference
from toys import toy_dataset, toy_state

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic-demo.json"
WIDE_CONFIG = DEMO_CONFIG.with_name("synthetic-wide.json")


class TestExpectedCost:
    def test_published_latency_mixture(self):
        assert C.expected_cost(0.393, 13.7, 62.9) == pytest.approx(43.6, abs=0.05)

    def test_published_madds_mixture_rounds_to_198(self):
        assert round(C.expected_cost(0.393, 56.5, 290.0)) == 198

    def test_endpoints(self):
        assert C.expected_cost(0.0, 10.0, 50.0) == 50.0
        assert C.expected_cost(1.0, 10.0, 50.0) == 10.0

    def test_monotone_in_skip_rate(self):
        costs = [C.expected_cost(p, 10.0, 50.0) for p in np.linspace(0, 1, 11)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            C.expected_cost(1.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            C.expected_cost(0.5, 3.0, 2.0)


class TestFullCost:
    def test_bare_stage_two_equals_backbone_count(self):
        state = toy_state(n_bases=1, seed=0, shared=())
        report = C.full_cost(state.lm, state.bank)
        assert report.stage2_madds == B.count_madds(state.bank.spec)
        assert report.total_madds == report.lm_madds + report.synthesis_madds + report.stage2_madds

    def test_doubling_bases_touches_only_synthesis_and_params(self):
        states = [toy_state(n_bases=n, seed=0) for n in (2, 4)]
        r2, r4 = (C.full_cost(s.lm, s.bank) for s in states)
        assert r2.stage2_madds == r4.stage2_madds
        assert r4.synthesis_madds == 2 * r2.synthesis_madds
        assert r4.params_total > r2.params_total

    def test_params_affine_in_bases(self):
        # a basis adds its kernels and the coefficient head's column and bias per row
        states = {n: toy_state(n_bases=n, seed=0) for n in (1, 3, 5)}
        reports = {n: C.full_cost(s.lm, s.bank) for n, s in states.items()}
        lm = states[1].lm
        per_basis = reports[1].params_per_basis + (lm.trunk.feature_channels + 1) * lm.coeff_rows
        assert reports[3].params_total - reports[1].params_total == 2 * per_basis
        assert reports[5].params_total - reports[1].params_total == 4 * per_basis

    @pytest.mark.parametrize("shared,total", [([], 1979), ([[0, 0]], 1846), ([[0, 1]], 1551)],
                             ids=["none_shared", "L0_shared", "L0_L1_shared"])
    def test_params_total_equals_packed_vector(self, shared, total):
        # the state's parameter vector holds every stored parameter exactly once
        raw = json.loads(DEMO_CONFIG.read_text())
        raw["bank"]["shared"] = shared
        state, _ = EX.build_state(parse_config(raw))
        assert C.full_cost(state.lm, state.bank).params_total == state.vector.size == total

    def test_wide_config_is_the_demo_with_a_wider_bank(self):
        demo, wide = (json.loads(path.read_text()) for path in (DEMO_CONFIG, WIDE_CONFIG))
        assert [(layer["in"], layer["out"]) for layer in wide["bank"]["layers"]] == [
            (1, 12), (12, 16), (16, 24)]
        assert wide["output_dir"] == "runs/synthetic-wide"
        demo["bank"]["layers"], demo["output_dir"] = wide["bank"]["layers"], wide["output_dir"]
        assert wide == demo

    @pytest.mark.parametrize("path,madds,lm_share", [
        (DEMO_CONFIG, (8496, 900, 4635, 14031), 0.6055),
        (WIDE_CONFIG, (8496, 21312, 97344, 127152), 0.0668),
    ], ids=["demo", "wide"])
    def test_config_prices(self, path, madds, lm_share):
        # the wide bank puts the lightweight model's share near the paper's
        # regime (56.5M of 290M); priced without training
        cfg = load_config(path)
        bank = S.build_bank(cfg.bank_spec, cfg.lm.n_bases, cfg.shared_layers, cfg.schedule.seed)
        report = C.full_cost(cfg.lm, bank)
        assert (report.lm_madds, report.synthesis_madds, report.stage2_madds,
                report.total_madds) == madds
        assert report.lm_madds / report.total_madds == pytest.approx(lm_share, abs=5e-4)

    def test_total_matches_instrumented_end_to_end_oracle(self):
        state = toy_state(n_bases=3, seed=1)
        lm, bank = state.lm, state.bank
        params = state.lm_params
        x = np.random.default_rng(0).random((1, 1, 12, 12))

        mults = 0
        # stage one: trunk at the downsampled input, then both heads
        xd = P.downsample_input(x, lm.downsample)
        out = xd
        for layer, lp in zip(lm.trunk.layers, params.trunk.layers):
            out, m = conv2d_reference(out, lp.kernel.data, layer.stride, layer.padding)
            mults += m
        feats = out.mean(axis=(2, 3))
        mults += linear_reference(feats, params.trunk.head_w.data)[1]
        mults += linear_reference(feats, params.coeff_w.data)[1]

        # synthesis: dense blend of every non-shared kernel
        rows = np.random.default_rng(1).random((bank.n_coefficient_rows, bank.n_bases))
        banks_np = [bank.kernels[k].data for k in bank.nonshared_indices()]
        blended, m = synthesis_reference(rows, banks_np)
        mults += m

        # stage two on the original input with the blended kernels
        out = x
        blended_iter = iter(blended)
        for k, (layer, shared) in enumerate(zip(bank.spec.layers, bank.share_mask)):
            kern = bank.kernels[k].data if shared else next(blended_iter)
            out, m = conv2d_reference(out, kern, layer.stride, layer.padding)
            mults += m
        feats = out.mean(axis=(2, 3))
        mults += linear_reference(feats, bank.head_w.data)[1]

        report = C.full_cost(lm, bank)
        assert report.total_madds == mults

    def test_grid_of_configurations_matches_counters(self):
        # one conv layer, swept over shape knobs: analytic == loop counter
        rng = np.random.default_rng(2)
        checked = 0
        for hw in (8, 12):
            for in_c, out_c in ((1, 3), (2, 4)):
                for stride in (1, 2):
                    for pad in (0, 1):
                        spec = B.BackboneSpec(
                            (in_c, hw, hw),
                            (B.LayerSpec(in_c, out_c, 3, stride=stride, padding=pad),),
                            2)
                        x = rng.random((1, in_c, hw, hw))
                        kern = rng.standard_normal((out_c, in_c, 3, 3))
                        _, mults = conv2d_reference(x, kern, stride, pad)
                        assert B.madds_per_layer(spec)[0] == mults
                        checked += 1
        assert checked == 16


class TestSweep:
    @pytest.fixture
    def model(self):
        state = toy_state(n_bases=2, seed=3)
        _, evalset = toy_dataset(train_size=8, eval_size=24)
        return state, evalset

    def test_endpoint_thresholds(self, model):
        state, evalset = model
        report = C.full_cost(state.lm, state.bank)
        points = C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                         evalset, [0.0, 1.01])
        all_skip, none_skip = points

        assert all_skip.skip_rate == 1.0
        assert all_skip.avg_madds == report.lm_madds
        assert none_skip.skip_rate == 0.0
        assert none_skip.avg_madds == report.total_madds

        # threshold 0 accuracy is the lightweight model alone
        from kernelblend import tensor as T
        initial, _ = P.lm_forward(state.lm, state.lm_params, T.Tensor(evalset.images))
        lm_acc = float(np.mean(np.argmax(initial.data, axis=1) == evalset.labels))
        assert all_skip.accuracy == lm_acc

    def test_skip_rate_monotone_and_closed_form(self, model):
        state, evalset = model
        thresholds = np.linspace(0, 1.01, 10)
        points = C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                         evalset, thresholds)
        rates = [p.skip_rate for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        report = C.full_cost(state.lm, state.bank)
        for p in points:
            closed = C.expected_cost(p.skip_rate, report.lm_madds, report.total_madds)
            assert p.avg_madds == pytest.approx(closed, rel=1e-9, abs=1e-9)
            assert report.lm_madds <= p.avg_madds <= report.total_madds

    def test_empty_dataset_rejected(self, model):
        state, _ = model
        from kernelblend.data import Dataset
        empty = Dataset(images=np.zeros((0, 1, 12, 12)), labels=np.zeros(0, dtype=np.int64),
                        num_classes=6)
        with pytest.raises(ValueError):
            C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg, empty, [0.5])

    def test_sweep_point_equals_per_result_accounting(self, model):
        # PipelineResult spend composes exactly like the cost report
        state, evalset = model
        report = C.full_cost(state.lm, state.bank)
        res = P.infer(state.lm, state.lm_params, state.bank, state.synth_cfg,
                      evalset.images[:1], 1.01)
        assert res.madds_spent == report.total_madds
        res = P.infer(state.lm, state.lm_params, state.bank, state.synth_cfg,
                      evalset.images[:1], 0.0)
        assert res.madds_spent == report.lm_madds


class TestSweepAgainstPerResultLoop:
    """``cost.sweep``'s vectorised cuts against the per-result loop they replaced."""

    @staticmethod
    def check(state, evalset, thresholds):
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        results = [P.infer(*model, evalset.images[i:i + 1], max(thresholds))
                   for i in range(len(evalset))]
        report = C.full_cost(state.lm, state.bank)
        expected = sweep_reference(results, evalset.labels, report.lm_madds, thresholds)
        points = C.sweep(*model, evalset, thresholds)
        got = [(p.threshold, p.skip_rate, p.avg_madds, p.accuracy) for p in points]
        assert got == expected
        assert all(type(v) is float for point in got for v in point)
        return results

    def test_demo_model(self):
        cfg = load_config(DEMO_CONFIG)
        state, _ = EX.build_state(cfg)
        _, evalset = EX.load_dataset(cfg)
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        confs = P.infer_batch(*model, evalset.images, 0.0).confidence
        # the config's thresholds, cuts through the spread of confidences,
        # and one image's exact confidence, at which that image stops
        exact = float(np.sort(confs)[len(confs) // 2])
        thresholds = [*cfg.eval_thresholds, *np.quantile(confs, [0.1, 0.5, 0.9]).tolist(), exact]
        results = self.check(state, evalset, thresholds)
        assert exact in {res.confidence for res in results}
        skip = C.sweep(*model, evalset, [exact])[0].skip_rate
        assert skip == np.count_nonzero(confs >= exact) / len(evalset)
        assert 0.0 < skip < 1.0

    def test_all_thresholds_zero_run_no_stage_two(self, monkeypatch):
        state = toy_state(n_bases=2, seed=3)
        _, evalset = toy_dataset(train_size=8, eval_size=24)
        results = self.check(state, evalset, [0.0, 0.0])
        assert all(res.terminated for res in results)

        def no_stage_two(*args, **kwargs):
            raise AssertionError("stage two ran at threshold 0")
        monkeypatch.setattr(P, "stage_two", no_stage_two)  # the plan and the ops both start here
        monkeypatch.setattr(S, "synthesize", no_stage_two)
        point, _ = C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                           evalset, [0.0, 0.0])
        assert point.skip_rate == 1.0

    @pytest.mark.parametrize("mode", ["one_hot", "per_model"])
    def test_modes(self, mode):
        state = toy_state(n_bases=3, seed=4, synth_cfg=S.SynthesisConfig(mode=mode))
        _, evalset = toy_dataset(train_size=8, eval_size=40)
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)
        confs = np.sort(P.infer_batch(*model, evalset.images, 0.0).confidence)
        thresholds = [0.0, float(confs[10]), float(confs[25] + confs[26]) / 2, 1.01, 0.5]
        self.check(state, evalset, thresholds)
