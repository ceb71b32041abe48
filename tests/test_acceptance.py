"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The training-based criteria share session-scoped
fixtures; everything is seeded, so reruns reproduce the same numbers.
"""

import time

import numpy as np
import pytest

from kernelblend import backbone as B
from kernelblend import checkpoint as CK
from kernelblend import cost as C
from kernelblend import disturbance as DI
from kernelblend import experiment as EX
from kernelblend import pipeline as P
from kernelblend import synthesis as S
from kernelblend import tensor as T
from kernelblend import training as TR
from kernelblend.config import parse_config

from oracles import activate, conv2d_reference, finite_difference, gradient_mismatch, sum_squares, take
from toys import run_training, toy_dataset, toy_state


def report(number: int, ok: bool, detail: str):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# the shared trained models (capacity-scaling grid, reused downstream)

SCALING_STEPS = 3000


def scaling_state(n_bases: int, seed: int) -> TR.TrainState:
    spec = B.BackboneSpec((1, 12, 12), (
        B.LayerSpec(1, 3, 3, stride=2, padding=1),
        B.LayerSpec(3, 3, 3, stride=1, padding=1),
        B.LayerSpec(3, 3, 3, stride=2, padding=1),
    ), 6)
    trunk = B.BackboneSpec((1, 6, 6), (
        B.LayerSpec(1, 8, 3, stride=2, padding=1),
        B.LayerSpec(8, 12, 3, stride=1, padding=1),
    ), 6)
    lm = P.LightweightModel(trunk=trunk, n_bases=n_bases, coeff_rows=3, downsample=2)
    return TR.init_state(lm, spec, [], S.SynthesisConfig(), seed=seed)


def scaling_schedule(n_bases: int, seed: int, steps: int = SCALING_STEPS) -> TR.TrainSchedule:
    return TR.TrainSchedule(
        total_steps=steps, epsilon_hold_steps=60, epsilon_decay_steps=240,
        lr_base=0.01, lr_decay_factor=0.99, lr_decay_interval=100,
        bmd_rate=(0.125 if n_bases > 1 else 0.0), batch_size=16, seed=seed,
        optimizer="rmsprop",
    )


@pytest.fixture(scope="session")
def scaling_data():
    return toy_dataset(num_classes=6, train_size=1024, eval_size=256, seed=1, noise=0.1)


@pytest.fixture(scope="session")
def scaling_runs(scaling_data):
    """Train the 3-seed x {1, 4} bases grid once; reused by several criteria."""
    train, evalset = scaling_data
    started = time.time()
    runs = {}
    for seed in (0, 1, 2):
        for n_bases in (1, 4):
            state = scaling_state(n_bases, seed)
            schedule = scaling_schedule(n_bases, seed)
            loss_cfg = TR.LossConfig(lm_weight=1.0, l2_weight=1e-5)
            while state.step < schedule.total_steps:
                batch = TR.sample_batch(train, schedule, state.step)
                state, _ = TR.train_step(state, batch, schedule, loss_cfg)
            runs[(n_bases, seed)] = state
    runs["elapsed"] = time.time() - started
    return runs


# ---------------------------------------------------------------------------
# 1-3: published-number reproductions


class TestPublishedNumbers:
    def test_criterion_1_latency_mixture(self):
        value = C.expected_cost(0.393, 13.7, 62.9)
        report(1, abs(value - 43.6) <= 0.05,
               f"expected_cost(0.393, 13.7, 62.9) = {value:.4f} (target 43.6 +- 0.05)")

    def test_criterion_2_average_madds_mixture(self):
        value = C.expected_cost(0.393, 56.5, 290.0)
        report(2, round(value) == 198,
               f"expected_cost(0.393, 56.5, 290) = {value:.4f}, rounds to {round(value)}")

    def test_criterion_3_loss_weight_and_blend_schedule(self):
        lam = TR.LossConfig().lm_weight
        sched = TR.TrainSchedule(total_steps=100, epsilon_hold_steps=20,
                                 epsilon_decay_steps=40, batch_size=1)
        eps_start = TR.epsilon_at(0, sched)
        eps_end = TR.epsilon_at(60, sched)
        ok = lam == 1.0 and eps_start == 1.0 and eps_end == 0.0
        report(3, ok, f"default head weight {lam}, blend {eps_start} at step 0, "
                      f"{eps_end} after decay")


# ---------------------------------------------------------------------------
# 4: conv-kernel linearity at scale


class TestKernelLinearity:
    def test_criterion_4_blend_equals_per_basis_mixture(self):
        spec = B.BackboneSpec((2, 5, 5), (
            B.LayerSpec(2, 3, 3, padding=1, activation="relu"),
            B.LayerSpec(3, 3, 3, padding=1, activation="none"),
        ), 3)
        rng = np.random.default_rng(2024)
        started = time.time()
        worst = 0.0
        for trial in range(1000):
            bank = S.build_bank(spec, 3, [0], seed=trial)
            x = T.Tensor(rng.standard_normal((1, 2, 5, 5)))
            w = rng.random(3)
            alpha = w / w.sum()
            blended = B.forward(S.synthesize(bank, T.Tensor(alpha[None, :])), spec, x).data
            mixture = sum(
                alpha[n] * B.forward(S.select_params(bank, [n]), spec, x).data
                for n in range(3)
            )
            scale = np.max(np.abs(mixture)) + 1e-30
            worst = max(worst, float(np.max(np.abs(blended - mixture)) / scale))
        elapsed = time.time() - started
        report(4, worst < 1e-10 and elapsed < 30,
               f"1000 instances, worst relative gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5: gradient suite


class TestGradientSuite:
    def test_criterion_5_all_operation_gradients(self):
        rng = np.random.default_rng(7)
        worst = {}

        # conv2d w.r.t. kernel
        w = 0.0
        for _ in range(100):
            xv = rng.standard_normal((1, 2, 4, 4))
            kv = rng.standard_normal((2, 2, 3, 3)) * 0.5
            k = T.Tensor(kv.copy(), requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = sum_squares(T.conv2d(T.Tensor(xv), k, stride=1, padding=1))
            g = T.backward(out)[k]

            def loss_k(v):
                t = T.conv2d(T.Tensor(xv), T.Tensor(v), stride=1, padding=1)
                return float(np.sum(t.data * t.data))

            w = max(w, gradient_mismatch(g, finite_difference(loss_k, kv.copy())))
        worst["conv"] = w

        # softmax
        w = 0.0
        for _ in range(100):
            xv = rng.standard_normal(6)
            x = T.Tensor(xv.copy(), requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = sum_squares(T.softmax(x, axis=0))
            g = T.backward(out)[x]

            def loss_s(v):
                e = np.exp(v - v.max())
                s = e / e.sum()
                return float(np.sum(s * s))

            w = max(w, gradient_mismatch(g, finite_difference(loss_s, xv.copy())))
        worst["softmax"] = w

        # cross entropy
        w = 0.0
        for trial in range(100):
            lv = rng.standard_normal((3, 5))
            y = np.array([trial % 5, (trial + 2) % 5, (trial + 4) % 5])
            logits = T.Tensor(lv.copy(), requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = T.cross_entropy(logits, y)
            g = T.backward(out)[logits]

            def loss_ce(v):
                s = v - v.max(axis=1, keepdims=True)
                lp = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
                return float(-np.mean(lp[np.arange(3), y]))

            w = max(w, gradient_mismatch(g, finite_difference(loss_ce, lv.copy())))
        worst["cross_entropy"] = w

        # synthesis w.r.t. coefficients and kernels
        spec = B.BackboneSpec((1, 4, 4), (B.LayerSpec(1, 2, 3, padding=1, activation="none"),), 2)
        wa = wk = 0.0
        for trial in range(100):
            bank = S.build_bank(spec, 3, [], seed=1000 + trial)
            xv = rng.standard_normal((1, 1, 4, 4))
            av = rng.random((1, 3)) + 0.1
            kv = bank.kernels[0].data.copy()

            alpha = T.Tensor(av.copy(), requires_grad=True)
            tape = T.GradTape()
            with T.recording(tape):
                out = sum_squares(B.forward(
                    S.synthesize(bank, alpha), spec, T.Tensor(xv)))
            grads = T.backward(out)

            def loss_alpha(v):
                t = B.forward(S.synthesize(bank, T.Tensor(v)), spec, T.Tensor(xv))
                return float(np.sum(t.data * t.data))

            wa = max(wa, gradient_mismatch(grads[alpha], finite_difference(loss_alpha, av.copy())))

            def loss_kernel(v):
                bank.kernels[0].apply_update(v)
                t = B.forward(S.synthesize(bank, T.Tensor(av)), spec, T.Tensor(xv))
                bank.kernels[0].apply_update(kv)
                return float(np.sum(t.data * t.data))

            wk = max(wk, gradient_mismatch(grads[bank.kernels[0]],
                                           finite_difference(loss_kernel, kv.copy())))
        worst["synthesis_alpha"] = wa
        worst["synthesis_kernel"] = wk

        # the lightweight coefficient path end to end
        w = 0.0
        state = toy_state(n_bases=2, seed=3)
        train, _ = toy_dataset(train_size=128, eval_size=8)
        for trial in range(100):
            x = train.images[trial % len(train):trial % len(train) + 1]
            y = train.labels[trial % len(train):trial % len(train) + 1]
            coeff_w = state.lm_params.coeff_w
            w0 = coeff_w.data.copy()

            tape = T.GradTape()
            with T.recording(tape):
                final, _, _ = TR.forward_training(state, x, 0.0, None)
                loss = T.cross_entropy(final, y)
            g = T.backward(loss)[coeff_w]

            def loss_lm(v):
                coeff_w.apply_update(v)
                final, _, _ = TR.forward_training(state, x, 0.0, None)
                out = T.cross_entropy(final, y).item()
                coeff_w.apply_update(w0)
                return out

            w = max(w, gradient_mismatch(g, finite_difference(loss_lm, w0.copy())))
        worst["lm_coefficient_path"] = w

        overall = max(worst.values())
        detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        report(5, overall < 1e-4, f"max relative gradient error: {detail}")


# ---------------------------------------------------------------------------
# 6-7: exact structural equalities


class TestExactEqualities:
    def test_criterion_6_selection_consistency(self):
        spec = B.BackboneSpec((1, 8, 8), (
            B.LayerSpec(1, 3, 3, padding=1),
            B.LayerSpec(3, 4, 3, stride=2, padding=1),
            B.LayerSpec(4, 4, 3, padding=1),
        ), 4)
        bank = S.build_bank(spec, 5, [0], seed=11)
        rng = np.random.default_rng(12)
        ok = True
        for _ in range(25):
            x = T.Tensor(rng.standard_normal((2, 1, 8, 8)))
            choices = rng.integers(0, 5, size=2)
            hard = np.zeros((2, 5))
            hard[np.arange(2), choices] = 1.0
            via = B.forward(S.synthesize(bank, T.Tensor(hard)), spec, x)
            direct = B.forward(S.select_params(bank, choices), spec, x)
            ok = ok and via.data.tobytes() == direct.data.tobytes()
        report(6, ok, "one-hot synthesis bitwise equals direct basis selection (25 draws)")

    def test_criterion_7_degeneracy(self):
        # single-basis forward == plain backbone, bitwise
        spec = B.BackboneSpec((1, 10, 10), (
            B.LayerSpec(1, 4, 3, stride=2, padding=1),
            B.LayerSpec(4, 4, 3, padding=1),
        ), 5)
        bank = S.build_bank(spec, 1, [], seed=13)
        params = S.select_params(bank, [0] * bank.n_coefficient_rows)
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.random((3, 1, 10, 10)))
        alpha = activate(T.Tensor(np.zeros((2, 1))), "softmax")
        bitwise = (B.forward(S.synthesize(bank, alpha), spec, x).data.tobytes()
                   == B.forward(params, spec, x).data.tobytes())

        # sweep endpoints match the component accuracies and costs
        state = toy_state(n_bases=2, seed=15)
        _, evalset = toy_dataset(train_size=8, eval_size=40)
        points = C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                         evalset, [0.0, 1.01])
        cost_report = C.full_cost(state.lm, state.bank)
        lm_acc = EX.lm_accuracy(state, evalset)
        full_acc = EX.full_accuracy(state, evalset)
        endpoints = (
            points[0].accuracy == lm_acc and points[0].avg_madds == cost_report.lm_madds
            and points[1].accuracy == full_acc and points[1].avg_madds == cost_report.total_madds
        )
        report(7, bitwise and endpoints,
               f"single-basis bitwise={bitwise}; sweep endpoints lm=({points[0].accuracy:.3f},"
               f"{points[0].avg_madds:.0f}) full=({points[1].accuracy:.3f},{points[1].avg_madds:.0f})")


# ---------------------------------------------------------------------------
# 8: analytic cost equals instrumented counter over a config grid


class TestCostCounterGrid:
    def _oracle_total(self, state, x):
        from oracles import linear_reference, synthesis_reference
        lm, bank, params = state.lm, state.bank, state.lm_params
        mults = 0
        out = P.downsample_input(x, lm.downsample)
        for layer, lp in zip(lm.trunk.layers, params.trunk.layers):
            out, m = conv2d_reference(out, lp.kernel.data, layer.stride, layer.padding)
            mults += m
        feats = out.mean(axis=(2, 3))
        mults += linear_reference(feats, params.trunk.head_w.data)[1]
        mults += linear_reference(feats, params.coeff_w.data)[1]

        rows = np.random.default_rng(1).random((bank.n_coefficient_rows, bank.n_bases))
        banks_np = [bank.kernels[k].data for k in bank.nonshared_indices()]
        blended, m = synthesis_reference(rows, banks_np)
        mults += m

        out = x
        blended_iter = iter(blended)
        for k, (layer, shared) in enumerate(zip(bank.spec.layers, bank.share_mask)):
            kern = bank.kernels[k].data if shared else next(blended_iter)
            out, m = conv2d_reference(out, kern, layer.stride, layer.padding)
            mults += m
        feats = out.mean(axis=(2, 3))
        mults += linear_reference(feats, bank.head_w.data)[1]
        return mults

    def test_criterion_8_grid_agreement(self):
        rng = np.random.default_rng(16)
        checked = 0
        agreed = True
        for n_bases in (1, 2, 4, 8):
            for shared in ((), (0,), (0, 1)):
                for size in (8, 12):
                    state = toy_state(n_bases=n_bases, seed=checked, channels=2,
                                      num_classes=4, shared=shared, image_size=size)
                    x = rng.random((1, 1, size, size))
                    analytic = C.full_cost(state.lm, state.bank).total_madds
                    counted = self._oracle_total(state, x)
                    agreed = agreed and analytic == counted
                    checked += 1
        report(8, agreed and checked >= 20,
               f"{checked} configurations, analytic == instrumented counter: {agreed}")


# ---------------------------------------------------------------------------
# 9: accuracy scales with the number of bases


class TestScalingWithBases:
    def test_criterion_9_more_bases_help(self, scaling_runs, scaling_data):
        _, evalset = scaling_data
        acc = {key: EX.full_accuracy(state, evalset)
               for key, state in scaling_runs.items() if key != "elapsed"}

        # matched stage-two cost by construction
        r1 = C.full_cost(scaling_runs[(1, 0)].lm, scaling_runs[(1, 0)].bank)
        r4 = C.full_cost(scaling_runs[(4, 0)].lm, scaling_runs[(4, 0)].bank)
        matched = r1.stage2_madds == r4.stage2_madds

        mean1 = np.mean([acc[(1, s)] for s in (0, 1, 2)])
        mean4 = np.mean([acc[(4, s)] for s in (0, 1, 2)])
        wins = sum(acc[(4, s)] > acc[(1, s)] for s in (0, 1, 2))
        elapsed = scaling_runs["elapsed"]

        ok = matched and (mean4 >= mean1 - 0.001) and wins >= 2 and elapsed < 1800
        per_seed = ", ".join(
            f"seed{s}: {acc[(1, s)]:.3f}->{acc[(4, s)]:.3f}" for s in (0, 1, 2))
        report(9, ok, f"mean {mean1:.3f}->{mean4:.3f}, wins {wins}/3, "
                      f"stage2 matched={matched}, {per_seed}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10: disturbance ordering on the trained model


class TestDisturbanceOrdering:
    def test_criterion_10_ordering(self, scaling_runs, scaling_data):
        _, evalset = scaling_data
        state = scaling_runs[(4, 0)]
        model = (state.lm, state.lm_params, state.bank, state.synth_cfg)

        reference = P.infer_batch(*model, evalset.images, P.NEVER_TERMINATE)
        correct = reference.accuracy(evalset.labels)
        top1 = DI.evaluate_disturbed(*model, evalset, DI.Disturbance("top1"))
        uniform = DI.evaluate_disturbed(*model, evalset, DI.Disturbance("uniform"))
        mean_acc = DI.evaluate_disturbed(*model, evalset, DI.Disturbance("mean"),
                                         DI.mean_coefficients(reference.coefficients))
        shuffled = float(np.mean([
            DI.evaluate_disturbed(*model, evalset, DI.Disturbance("shuffled", seed=s))
            for s in range(5)
        ]))

        margin = 0.005
        ok = (correct - shuffled >= 0.02
              and correct >= top1 - margin
              and top1 >= uniform - margin
              # full table structure: {uniform, mean} above shuffled, which is worst
              and min(uniform, mean_acc) >= shuffled - margin)
        report(10, ok, f"correct {correct:.3f} >= top1 {top1:.3f} >= uniform "
                       f"{uniform:.3f} (mean {mean_acc:.3f}); shuffled {shuffled:.3f} "
                       f"(drop {100 * (correct - shuffled):.1f} points)")

    def test_layer_trend_deeper_hurts_more(self, scaling_runs, scaling_data):
        # supplementary: shuffling near the head costs more than shuffling early
        _, evalset = scaling_data
        state = scaling_runs[(4, 0)]
        last = state.bank.spec.num_layers - 1
        per_seed = {
            layer: [DI.evaluate_disturbed(state.lm, state.lm_params, state.bank, state.synth_cfg,
                                          evalset, DI.Disturbance("shuffled", layer, seed))
                    for seed in range(5)]
            for layer in (0, last)}
        first_mean, first_std = np.mean(per_seed[0]), np.std(per_seed[0])
        last_mean, last_std = np.mean(per_seed[last]), np.std(per_seed[last])
        ok = last_mean <= first_mean + first_std + last_std
        print(f"[extra] layer trend: L0 {first_mean:.3f} "
              f"-> L{last} {last_mean:.3f} (PASS={ok})")
        assert ok


class TestSelectionFinetune:
    def test_finetune_beats_posthoc_hardening(self, scaling_runs, scaling_data):
        # supplementary: continuing to train the bases under one-hot selection
        # recovers accuracy that naive post-hoc hardening loses
        import copy
        train, evalset = scaling_data
        state = scaling_runs[(4, 0)]

        def hardened_accuracy(st):
            cfg = S.SynthesisConfig(activation=st.synth_cfg.activation, mode="one_hot")
            hits = 0
            for i in range(len(evalset)):
                res = P.infer(st.lm, st.lm_params, st.bank, cfg,
                              evalset.images[i:i + 1], 1.01)
                hits += res.prediction == evalset.labels[i]
            return hits / len(evalset)

        posthoc = hardened_accuracy(state)
        ft_state = copy.deepcopy(state)
        ft_schedule = TR.TrainSchedule(
            total_steps=state.step, finetune_steps=400, lr_base=0.01, lr_decay_factor=0.99,
            lr_decay_interval=100, batch_size=16, seed=101, optimizer="rmsprop")
        ft_state, _ = run_training(ft_state, train, ft_schedule,
                                   TR.LossConfig(lm_weight=1.0, l2_weight=1e-5))
        finetuned = hardened_accuracy(ft_state)
        ok = finetuned >= posthoc
        print(f"[extra] selection fine-tune: post-hoc {posthoc:.4f} -> "
              f"fine-tuned {finetuned:.4f} (PASS={ok})")
        assert ok


class TestCoefficientClustering:
    def test_paired_classes_share_specialists(self, scaling_runs, scaling_data):
        # supplementary: visually-identical classes draw on the same bases
        # while a distinct class does not
        _, evalset = scaling_data
        state = scaling_runs[(4, 0)]
        _, feats = P.lm_forward(state.lm, state.lm_params, T.Tensor(evalset.images))
        raw = T.linear(feats, state.lm_params.coeff_w, state.lm_params.coeff_b)
        means = {}
        for cls in (0, 1, 2):
            idx = np.flatnonzero(evalset.labels == cls)
            vecs = [
                S.coefficients_from_raw(
                    take(raw, int(i)), state.synth_cfg,
                    state.bank.n_coefficient_rows, state.bank.n_bases,
                ).data.ravel()
                for i in idx
            ]
            means[cls] = np.mean(vecs, axis=0)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        within_pair = cosine(means[0], means[1])
        across = cosine(means[0], means[2])
        ok = within_pair > across + 0.1
        print(f"[extra] coefficient clustering: within-pair cos {within_pair:.3f} "
              f"vs cross-group {across:.3f} (PASS={ok})")
        assert ok


# ---------------------------------------------------------------------------
# 11: early-termination sweep contract


class TestTerminationSweep:
    def test_criterion_11_monotone_and_closed_form(self, scaling_runs, scaling_data):
        _, evalset = scaling_data
        state = scaling_runs[(4, 0)]
        thresholds = list(np.linspace(0.0, 0.99, 9)) + [1.01]
        points = C.sweep(state.lm, state.lm_params, state.bank, state.synth_cfg,
                         evalset, thresholds)
        rates = [p.skip_rate for p in points]
        monotone = all(a >= b for a, b in zip(rates, rates[1:]))
        cost_report = C.full_cost(state.lm, state.bank)
        closed = all(
            abs(p.avg_madds - C.expected_cost(p.skip_rate, cost_report.lm_madds,
                                              cost_report.total_madds))
            <= 1e-9 * max(1.0, cost_report.total_madds)
            for p in points
        )
        report(11, monotone and closed,
               f"10-threshold sweep: skip rates {rates[0]:.2f}..{rates[-1]:.2f} "
               f"monotone={monotone}, closed-form match={closed}")


# ---------------------------------------------------------------------------
# 12: gradient routing contract


class TestGradientRouting:
    def test_criterion_12_routing(self):
        state = toy_state(n_bases=3, seed=17)
        train, _ = toy_dataset(train_size=16, eval_size=8)
        x, y = train.images[:2], train.labels[:2]

        tape = T.GradTape()
        with T.recording(tape):
            final, initial, _ = TR.forward_training(state, x, 0.0, None)
            lm_term = T.scale(T.cross_entropy(initial, y), 1.0)
        grads = T.backward(lm_term)
        bank_clean = all(kernel not in grads for kernel in state.bank.kernels)

        tape = T.GradTape()
        with T.recording(tape):
            final, initial, _ = TR.forward_training(state, x, 0.0, None)
            synth_term = T.cross_entropy(final, y)
        grads = T.backward(synth_term)
        gw = grads.get(state.lm_params.coeff_w)
        lm_reached = gw is not None and np.any(gw != 0)

        report(12, bank_clean and lm_reached,
               f"initial-term bank gradients absent={bank_clean}, "
               f"specialist-term reaches coefficient head={lm_reached}")


# ---------------------------------------------------------------------------
# 13: basis dropout contract and no expert degeneration


class TestBasisDropout:
    def test_criterion_13_bmd(self, scaling_data):
        train, evalset = scaling_data

        # per-step zero gradient for dropped bases
        state = toy_state(n_bases=4, seed=18)
        x, y = train.images[:2], train.labels[:2]
        drop = np.array([False, False, True, False])
        tape = T.GradTape()
        with T.recording(tape):
            final, initial, _ = TR.forward_training(state, x, 0.0, drop)
            loss = T.cross_entropy(final, y)
        grads = T.backward(loss)
        dropped_clean = all(  # the dropped basis's rows of each stack's gradient
            not grads[state.bank.kernels[k]][2].any()
            for k in state.bank.nonshared_indices())

        # 400 steps at drop rate 1/4: every basis keeps coefficient mass
        state = scaling_state(4, seed=19)
        schedule = TR.TrainSchedule(
            total_steps=400, epsilon_hold_steps=60, epsilon_decay_steps=240,
            lr_base=0.01, lr_decay_factor=0.99, lr_decay_interval=100,
            bmd_rate=0.25, batch_size=16, seed=19, optimizer="rmsprop")
        loss_cfg = TR.LossConfig(lm_weight=1.0, l2_weight=1e-5)
        while state.step < schedule.total_steps:
            batch = TR.sample_batch(train, schedule, state.step)
            state, _ = TR.train_step(state, batch, schedule, loss_cfg)
        table = DI.mean_coefficients(P.infer_batch(
            state.lm, state.lm_params, state.bank, state.synth_cfg, evalset.images,
            P.NEVER_TERMINATE).coefficients)
        mass = table.sum(axis=0)
        alive = bool(np.all(mass > 1e-6))
        report(13, dropped_clean and alive,
               f"dropped-basis gradients zero={dropped_clean}; "
               f"post-training per-basis mass min {mass.min():.4f} (all nonzero={alive})")


# ---------------------------------------------------------------------------
# 14: determinism and persistence


class TestDeterminismPersistence:
    def config(self, tmp_path, tag):
        from test_config import base_config
        raw = base_config()
        raw["schedule"]["total_steps"] = 60
        raw["schedule"]["eval_interval"] = 20
        raw["output_dir"] = str(tmp_path / tag)
        return raw

    def test_criterion_14_bitwise_metrics_and_checkpoint_roundtrip(self, tmp_path):
        first = EX.run_train(parse_config(self.config(tmp_path, "a")))
        second = EX.run_train(parse_config(self.config(tmp_path, "b")))
        with open(first["metrics_csv"], "rb") as fh:
            bytes_a = fh.read()
        with open(second["metrics_csv"], "rb") as fh:
            bytes_b = fh.read()
        identical = bytes_a == bytes_b

        state, cfg = CK.load_checkpoint(first["checkpoint"])
        _, evalset = EX.load_dataset(cfg)
        acc_loaded = EX.full_accuracy(state, evalset)
        identical_eval = acc_loaded == first["final_eval_acc_full"]

        report(14, identical and identical_eval,
               f"metrics CSV bitwise identical={identical}; "
               f"checkpoint eval reproduces exactly={identical_eval} ({acc_loaded:.3f})")
