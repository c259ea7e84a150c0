"""Embedding/extraction tests: noise model, encoder/decoder contracts,
training behavior, extraction determinism, and the file formats."""

import copy
import dataclasses
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.harness import ExperimentConfig, build_trigger_set
from randmark.stats import mean_distance, var_distance
from randmark.synth import gen_synthetic_images

from conftest import (
    MINI, decode_one_trigger, gradient_check, one_trigger, see_cpus, trigger_loss,
)


class TestMessageBits:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            wm.TriggerSet(np.zeros((1, 3)), [[0, 2, 1]], [0.1], 0)

    def test_pack_roundtrip_lsb_first(self, tmp_path):
        triggers = wm.TriggerSet(np.zeros((1, 1)), [[1, 0, 0, 1, 1, 0, 1, 0, 1]], [0.1], 0)
        path = tmp_path / "one.rmts"
        wm.save_trigger_set(triggers, path)
        packed = path.read_bytes()[26 + 8 + 8 :]  # after the header, pixel and sigma
        assert packed == bytes([0b01011001, 0b1])  # bit i sits at position i mod 8
        assert wm.load_trigger_set(path) == triggers

    def test_equality_by_value(self):
        def triggers(bits, master_seed=0):
            return wm.TriggerSet(np.full((1, 2), 0.5), [bits], [0.1], master_seed)

        assert triggers([1, 0]) == triggers(np.array([1, 0]))
        assert triggers([1, 0]) != triggers([0, 0])
        assert triggers([1, 0]) != triggers([1, 0], master_seed=1)


class TestSampleNoise:
    def test_vanishing_sigma_returns_trigger(self):
        triggers = one_trigger(8, 4, 1e-12, 0)
        draws = wm.sample_noise(triggers.images[0], triggers.sigmas[0], 5, 1)
        assert np.abs(draws - triggers.images).max() < 1e-10

    def test_law_of_large_numbers(self):
        image = np.array([0.2, 0.4, 0.6, 0.8])
        draws = wm.sample_noise(image, 0.1, 10_000, 2)
        mean_tol = 4 * 0.1 / math.sqrt(10_000)
        assert np.abs(draws.mean(axis=0) - image).max() < mean_tol
        stds = draws.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - 0.1) < 0.005)

    def test_deterministic_for_fixed_seed(self):
        triggers = one_trigger(8, 4, 0.1, 0)
        args = (triggers.images[0], triggers.sigmas[0], 7, 3)
        assert np.array_equal(wm.sample_noise(*args), wm.sample_noise(*args))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            one_trigger(8, 4, 0.0, 0)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            one_trigger(8, 4, sigma, 0)

    @pytest.mark.parametrize("pixel", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_pixels_must_be_finite_in_unit_range(self, pixel):
        images = np.full((1, 4), 0.5)
        images[0, 2] = pixel
        with pytest.raises(ValueError, match="pixel"):
            wm.TriggerSet(images, [[1, 0]], [0.1], 0)


class TestEncoder:
    def test_zero_final_layer_gives_constant_perturbation(self):
        s, n = 6, 3
        enc = ne.init_network([s + n, 5, s], ["tanh", "tanh"], 4)
        enc.layers[-1].weight[:] = 0.0
        enc.layers[-1].bias[:] = 0.0
        rng = np.random.default_rng(5)
        messages = [rng.integers(0, 2, n) for _ in range(2)]
        for message in messages:
            out = wm.encoder_perturbation(enc, rng.random((4, s)), message)
            assert np.array_equal(out, np.zeros((4, s)))
        # non-zero bias broadcasts as a constant in both image and message
        enc.layers[-1].bias[:] = np.array([0.5, -0.25, 0.0, 1.0, -1.0, 0.75])
        for message in messages:
            out = wm.encoder_perturbation(enc, rng.random((4, s)), message)
            assert np.allclose(out, np.tanh(enc.layers[-1].bias)[None, :])
            assert np.ptp(out, axis=0).max() == 0.0

    def test_message_bit_flip_changes_stego(self, mini_run):
        bundle = mini_run.bundle
        trigger = mini_run.triggers[:1]
        flipped = trigger.messages.copy()
        flipped[0, 0] ^= 1
        stegos = [
            wm.stego_batch(
                bundle.encoder_e, wm.TriggerSet(trigger.images, messages, trigger.sigmas, 0),
                1, 6, bundle.hyper.delta_scale,
            )
            for messages in (trigger.messages, flipped, trigger.messages)
        ]
        assert np.linalg.norm(stegos[0] - stegos[1]) > 0.0
        assert np.array_equal(stegos[0], stegos[2])  # rebuilt, the same bytes

    def test_output_shape_contract(self):
        s, n = 256, 32
        enc = ne.init_network([s + n, 64, s], ["tanh", "tanh"], 7)
        rng = np.random.default_rng(8)
        out = wm.encoder_perturbation(enc, rng.random((1, s)), rng.integers(0, 2, n))
        assert out.shape == (1, s)


class TestDecoder:
    def test_threshold_convention_ties_round_up(self):
        # zero weights, biases chosen so soft = (0.9, 0.1, 0.5)
        logit = lambda p: math.log(p / (1 - p))
        dec = ne.MlpNetwork(
            [ne.Layer(np.zeros((2, 3)), np.array([logit(0.9), logit(0.1), 0.0]), "sigmoid")]
        )
        soft, hard, _ = decode_one_trigger(dec, [0, 0, 0], 2)
        assert np.allclose(soft, [0.9, 0.1, 0.5])
        assert np.array_equal(hard, [[1, 0, 1]] * 2)

    def test_zero_decoder_gives_all_ones(self):
        dec = ne.MlpNetwork([ne.Layer(np.zeros((4, 3)), np.zeros(3), "sigmoid")])
        soft, hard, _ = decode_one_trigger(dec, [0, 0, 0], 2)
        assert np.all(soft == 0.5)
        assert np.array_equal(hard, np.ones((2, 3)))

    def test_trained_bundle_decodes_own_triggers(self, mini_run):
        bundle = mini_run.bundle
        for index in range(len(mini_run.triggers)):
            _, _, distances = wm.extract_messages(
                bundle.watermarked_f, bundle, mini_run.triggers, index, 64, 900 + index
            )
            assert (distances == 0).mean() >= 0.95


class TestComputeLoss:
    def test_global_minimum_is_exactly_zero(self):
        s, k, n = 5, 4, 3
        f = ne.init_network([s, k], ["identity"], 9)
        message = np.array([1, 0, 1])
        # saturated sigmoid outputs hit the bits exactly in float64
        bias = np.where(message == 1, 40.0, -40.0).astype(float)
        decoder = ne.MlpNetwork([ne.Layer(np.zeros((k, n)), bias, "sigmoid")])
        bundle = wm.ModelBundle(
            frozen_f=f.copy(),
            watermarked_f=f.copy(),
            encoder_e=ne.init_network([s + n, s], ["tanh"], 10),
            decoder_d=decoder,
            hyper=wm.HyperParams(lam=1.0, k_train=4, epochs=0),
        )
        triggers = wm.TriggerSet(np.random.default_rng(11).random((1, s)), [message], [0.05], 0)
        fidelity, message_term, _ = trigger_loss(bundle, triggers, 4, 12)
        assert fidelity == 0.0 and message_term == 0.0

    def test_message_term_linear_in_lambda(self):
        rng = np.random.default_rng(13)
        s, k, n = 6, 4, 3
        f = ne.init_network([s, 5, k], ["tanh", "identity"], rng)
        triggers = wm.TriggerSet(rng.random((1, s)), rng.integers(0, 2, (1, n)), [0.1], 0)

        def parts_for(lam):
            bundle = wm.ModelBundle.create(
                f, n, encoder_hidden=(7,), decoder_hidden=(5,),
                hyper=wm.HyperParams(lam=lam, k_train=4, epochs=0), seed=14,
            )
            for layer in bundle.watermarked_f.layers:
                layer.weight += 0.05
            return trigger_loss(bundle, triggers, 4, 15)[:2]

        single = parts_for(1.0)
        double = parts_for(2.0)
        assert double[1] == pytest.approx(2.0 * single[1], rel=1e-12)
        assert double[0] == pytest.approx(single[0], rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        s, k, n = 6, 4, 3
        f = ne.init_network([s, 5, k], ["tanh", "identity"], rng)
        bundle = wm.ModelBundle.create(
            f, n, encoder_hidden=(7,), decoder_hidden=(5,),
            hyper=wm.HyperParams(lam=1.3, k_train=4, epochs=0), seed=17,
        )
        for layer in bundle.watermarked_f.layers:
            layer.weight += 0.05 * rng.standard_normal(layer.weight.shape)
        triggers = wm.TriggerSet(rng.random((1, s)), rng.integers(0, 2, (1, n)), [0.08], 0)
        grads = trigger_loss(bundle, triggers, 4, 18)[2]
        worst = 0.0
        for name, net in (
            ("watermarked_f", bundle.watermarked_f),
            ("encoder_e", bundle.encoder_e),
            ("decoder_d", bundle.decoder_d),
        ):
            err = gradient_check(
                net,
                lambda _: sum(trigger_loss(bundle, triggers, 4, 18)[:2]),
                lambda _: grads[name],
            )
            worst = max(worst, err)
        assert worst < 1e-5


class TestEmbedWatermark:
    def test_lambda_zero_recovers_reference(self, mini_run):
        triggers = mini_run.triggers
        hyper = wm.HyperParams(lam=0.0, k_train=4, epochs=120, learning_rate=1e-3)
        bundle = wm.ModelBundle.create(
            mini_run.source_f, triggers.n, encoder_hidden=(64,), decoder_hidden=(32,),
            hyper=hyper, seed=15,
        )
        rng = np.random.default_rng(5)
        for layer in bundle.watermarked_f.layers:
            layer.weight += 0.08 * rng.standard_normal(layer.weight.shape)
        bundle, log = wm.embed_watermark(bundle, triggers)
        first, last = log.epochs[0], log.epochs[-1]
        assert last["fidelity"] < first["fidelity"]
        assert last["fidelity"] < 0.05 * first["fidelity"]
        assert last["message"] == 0.0

    def test_desk_example_targets(self, desk_run):
        final = desk_run.log.final()
        assert final["bit_accuracy"] >= 0.98
        # fidelity term small next to the embedding scale on the triggers
        out_ref, _ = ne.forward_batch(desk_run.bundle.frozen_f, desk_run.triggers.images)
        scale = float(np.sqrt((out_ref**2).sum(axis=1)).mean())
        assert final["fidelity"] <= 0.1 * scale

    def test_default_dims_traced_peak_is_bounded(self):
        # every epoch reuses buffers allocated before the first, so the peak
        # above the start stays under 30 MB (36.5 MB when each epoch allocated
        # its own arrays) and does not grow with the epoch count
        config = ExperimentConfig()
        triggers = build_trigger_set(
            gen_synthetic_images(config.trigger_count, config.s, 1), config.n,
            config.sigma_scale, 2,
        )
        dims = config.backbone_dims
        source = ne.init_network(dims, ["tanh"] * (len(dims) - 2) + ["identity"], 3)
        peaks = {}
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for epochs in (2, 4):
                bundle = wm.ModelBundle.create(
                    source, config.n, encoder_hidden=config.encoder_hidden,
                    decoder_hidden=config.decoder_hidden,
                    hyper=dataclasses.replace(config.hyper(), epochs=epochs), seed=4,
                )
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                wm.embed_watermark(bundle, triggers)
                peaks[epochs] = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peaks[2] <= 30e6, peaks
        assert peaks[4] <= peaks[2] + 16_384, peaks  # two more log records

    def test_frozen_reference_untouched(self, mini_run):
        triggers = mini_run.triggers
        bundle = wm.ModelBundle.create(
            mini_run.source_f, triggers.n, encoder_hidden=(48,), decoder_hidden=(24,),
            hyper=wm.HyperParams(lam=1.0, k_train=4, epochs=10), seed=21,
        )
        digest = bundle.frozen_f.parameters_digest()
        wm.embed_watermark(bundle, triggers)
        assert bundle.frozen_f.parameters_digest() == digest

    def test_divergence_aborts_with_rollback(self, mini_run):
        triggers = mini_run.triggers
        # one step of this size overflows the squared fidelity norm
        hyper = wm.HyperParams(lam=1.0, k_train=4, epochs=5, learning_rate=1e200)
        bundle = wm.ModelBundle.create(
            mini_run.source_f, triggers.n, encoder_hidden=(48,), decoder_hidden=(24,),
            hyper=hyper, seed=22,
        )
        trained = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
        before = [net.parameters_digest() for net in trained]
        with np.errstate(over="ignore"), pytest.raises(wm.TrainingDiverged, match="epoch 1"):
            wm.embed_watermark(bundle, triggers)
        # the first step diverged, so the rollback restores the starting
        # bytes into the live parameter vectors, which the layers still view
        assert [net.parameters_digest() for net in trained] == before
        for net in trained:
            assert all(
                np.shares_memory(a, net.params) for l in net.layers for a in (l.weight, l.bias)
            )
        # rolled-back parameters must be finite end to end
        out, _ = ne.forward_batch(bundle.watermarked_f, triggers.images)
        assert np.isfinite(out).all()

    def test_loss_independent_of_accumulation_order(self, mini_run):
        # one full-batch evaluation vs per-trigger accumulation
        bundle = mini_run.bundle
        triggers = mini_run.triggers
        images = triggers.images
        messages = triggers.messages.astype(np.float64)
        rng = np.random.default_rng(99)
        noise = rng.standard_normal((len(triggers), 4, triggers.s))
        noise *= triggers.sigmas[:, None, None]
        out_ref, _ = ne.forward_batch(bundle.frozen_f, images)
        nets = (bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
        fid_b, msg_b, _, _ = wm._EmbedStep(*nets, messages, 4)(
            out_ref, images, noise, bundle.hyper.lam, bundle.hyper.delta_scale
        )
        accumulated = 0.0
        for i in range(len(triggers)):
            fid_i, msg_i, _, _ = wm._EmbedStep(*nets, messages[i : i + 1], 4)(
                out_ref[i : i + 1], images[i : i + 1], noise[i : i + 1],
                bundle.hyper.lam, bundle.hyper.delta_scale,
            )
            accumulated += fid_i + msg_i
        assert abs(accumulated - (fid_b + msg_b)) < 1e-9

    def test_fidelity_monotone_in_lambda(self, mini_run):
        finals = []
        for lam in (0.1, 1.0, 10.0):
            hyper = wm.HyperParams(lam=lam, k_train=6, epochs=150, learning_rate=2e-3)
            bundle = wm.ModelBundle.create(
                mini_run.source_f, mini_run.triggers.n, encoder_hidden=(64,),
                decoder_hidden=(32,), hyper=hyper, seed=15,
            )
            _, log = wm.embed_watermark(bundle, mini_run.triggers)
            finals.append(log.final()["fidelity"])
        assert finals[0] <= finals[1] <= finals[2]


class TestExtractMessages:
    def test_watermarked_model_mean_distance_small(self, mini_run):
        bundle = mini_run.bundle
        distances = np.stack([
            wm.extract_messages(bundle.watermarked_f, bundle, mini_run.triggers, i, 64, 40 + i)[2]
            for i in range(len(mini_run.triggers))
        ])
        assert np.mean(mean_distance(distances)) <= 1.0

    def test_independent_model_near_chance(self, mini_run):
        bundle = mini_run.bundle
        from randmark.attacks import make_independent

        g = make_independent(
            [MINI["s"], 48, MINI["k"]], seed=77, pretrain_data_seed=78, epochs=30, n_images=120
        )
        distances = np.stack([
            wm.extract_messages(g, bundle, mini_run.triggers, i, 64, 40 + i)[2]
            for i in range(len(mini_run.triggers))
        ])
        n = mini_run.triggers.n
        pooled_mismatch = float(distances.mean(axis=1).mean() / n)
        # dominated by the random-message realization: SE ~ 0.5 / sqrt(N * n)
        realization_se = 0.5 / math.sqrt(len(distances) * n)
        assert abs((1.0 - pooled_mismatch) - 0.5) < 4 * realization_se + 0.02

    def test_separation_between_watermarked_and_random(self, mini_run):
        bundle = mini_run.bundle
        n = mini_run.triggers.n
        fresh = ne.init_network([MINI["s"], 48, MINI["k"]], ["tanh", "identity"], 999)
        rho_wm, rho_fresh = [], []
        for i in range(len(mini_run.triggers)):
            kwargs = dict(triggers=mini_run.triggers, index=i, k_draws=32, stream_seed=50 + i)
            rho_wm.append(wm.extract_messages(bundle.watermarked_f, bundle, **kwargs)[2].mean())
            rho_fresh.append(wm.extract_messages(fresh, bundle, **kwargs)[2].mean())
        assert np.mean(rho_wm) < n / 4
        assert np.mean(rho_fresh) > n / 4

    def test_single_draw_has_no_variance(self, mini_run):
        bundle = mini_run.bundle
        soft, hard, distances = wm.extract_messages(
            bundle.watermarked_f, bundle, mini_run.triggers, 0, 1, 60
        )
        assert soft.shape == hard.shape == (1, MINI["n"])
        assert distances.shape == (1,)
        assert var_distance(distances[None, :]) == [None]

    def test_deterministic_extraction(self, mini_run):
        bundle = mini_run.bundle
        t = mini_run.triggers
        a = wm.extract_messages(bundle.watermarked_f, bundle, t, 2, 16, 71)
        b = wm.extract_messages(bundle.watermarked_f, bundle, t, 2, 16, 71)
        for array_a, array_b in zip(a, b):
            assert np.array_equal(array_a, array_b)

    def test_distances_bounded_by_message_length(self, mini_run):
        bundle = mini_run.bundle
        rng = np.random.default_rng(73)
        fresh = ne.init_network([MINI["s"], 24, MINI["k"]], ["relu", "identity"], rng)
        triggers = mini_run.triggers
        for i in range(6):
            _, hard, distances = wm.extract_messages(fresh, bundle, triggers, i, 17, 80 + i)
            assert np.all(distances >= 0) and np.all(distances <= triggers.n)
            assert np.array_equal(distances, (hard != triggers.messages[i]).sum(axis=1))

    def test_architecture_mismatch_refused(self, mini_run):
        bundle = mini_run.bundle
        bad = ne.init_network([MINI["s"] + 1, 8, MINI["k"]], ["tanh", "identity"], 30)
        with pytest.raises(wm.VerificationRefused):
            wm.extract_messages(bad, bundle, mini_run.triggers, 0, 4, 90)
        bad_out = ne.init_network([MINI["s"], 8, MINI["k"] + 2], ["tanh", "identity"], 31)
        with pytest.raises(wm.VerificationRefused):
            wm.extract_messages(bad_out, bundle, mini_run.triggers, 0, 4, 91)


class TestStegoBatch:
    def _args(self, mini_run, **overrides):
        args = dict(
            encoder_e=mini_run.bundle.encoder_e.copy(),
            triggers=mini_run.triggers,
            k_draws=8,
            seed=120,
            delta_scale=mini_run.bundle.hyper.delta_scale,
        )
        args.update(overrides)
        return args

    def test_reused_while_inputs_unchanged(self, mini_run):
        args = self._args(mini_run)
        first = wm.stego_batch(**args)
        assert first.shape == (len(args["triggers"]) * 8, mini_run.triggers.s)
        assert not first.flags.writeable
        assert wm.stego_batch(**args) is first
        # equal content in new objects is the same batch
        assert wm.stego_batch(**{**args, "encoder_e": args["encoder_e"].copy()}) is first

    def test_fresh_after_in_place_encoder_edit(self, mini_run):
        args = self._args(mini_run)
        before = wm.stego_batch(**args)
        for layer in args["encoder_e"].layers:
            layer.weight *= 1.5  # same object, new weights
        after = wm.stego_batch(**args)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, wm._build_stego(**args))

    def test_fresh_after_in_place_trigger_edit(self, mini_run):
        triggers = copy.deepcopy(mini_run.triggers)
        args = self._args(mini_run, triggers=triggers)
        before = wm.stego_batch(**args)
        triggers.images[3] *= 0.5
        after = wm.stego_batch(**args)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, wm._build_stego(**args))

    @pytest.mark.parametrize("change", [
        lambda args: {"seed": 121},
        lambda args: {"k_draws": 4},
        lambda args: {"delta_scale": 0.25},
        lambda args: {"triggers": args["triggers"][:8]},
    ])
    def test_fresh_after_run_parameter_change(self, mini_run, change):
        args = self._args(mini_run)
        before = wm.stego_batch(**args)
        changed = {**args, **change(args)}
        after = wm.stego_batch(**changed)
        assert after is not before
        assert np.array_equal(after, wm._build_stego(**changed))


class TestSerialDecode:
    """decode_triggers runs one chain over the whole stego batch in the
    caller's thread."""

    @staticmethod
    def _decode(suspect, bundle, triggers, k_draws, seed=140):
        return wm.decode_triggers(suspect, bundle, triggers, k_draws, seed)

    def test_starts_no_thread_and_stays_in_callers_thread(self, mini_run, monkeypatch):
        see_cpus(monkeypatch, 4)  # free CPUs are no reason to split the decode
        callers, rows = set(), []

        def spy(net, inputs):
            callers.add(threading.get_ident())
            rows.append(inputs.shape[0])
            return ne.forward_batch(net, inputs)

        def no_thread(thread):
            raise AssertionError(f"decode_triggers started thread {thread.name}")

        monkeypatch.setattr(wm, "_stego_memo", None)  # so the batch is built here
        monkeypatch.setattr(wm, "forward_batch", spy)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        triggers = mini_run.triggers
        soft, hard, distances = self._decode(
            mini_run.bundle.watermarked_f, mini_run.bundle, triggers, 4, seed=143
        )
        assert callers == {threading.get_ident()}
        # the stego batch's per-trigger encoder passes, then one suspect and
        # one decoder pass over all N * K rows
        assert rows == [4] * len(triggers) + [4 * len(triggers)] * 2
        assert soft.shape == hard.shape == (len(triggers), 4, MINI["n"])
        assert np.array_equal(distances, (hard != triggers.messages[:, None, :]).sum(axis=2))

    def test_suspect_exception_reaches_caller(self, mini_run, monkeypatch):
        class SuspectFailed(Exception):
            pass

        suspect = mini_run.bundle.watermarked_f.copy()

        def failing_suspect(net, inputs):
            if net is suspect:
                raise SuspectFailed("suspect pass failed")
            return ne.forward_batch(net, inputs)

        monkeypatch.setattr(wm, "forward_batch", failing_suspect)
        with pytest.raises(SuspectFailed):
            self._decode(suspect, mini_run.bundle, mini_run.triggers, 4)

    def test_callers_errstate_holds(self, mini_run):
        # the error::RuntimeWarning filter turns an unsilenced overflow into
        # an exception; the caller's errstate silences it
        overflowing = ne.init_network([MINI["s"], 48, MINI["k"]], ["tanh", "identity"], 142)
        overflowing.layers[0].weight[:] = 1e308
        triggers = mini_run.triggers
        with pytest.raises(RuntimeWarning, match="overflow"):
            self._decode(overflowing, mini_run.bundle, triggers, 4)
        with np.errstate(all="ignore"):
            soft, _, _ = self._decode(overflowing, mini_run.bundle, triggers, 4)
        assert soft.shape == (len(triggers), 4, MINI["n"])

    def test_desk_distances_are_first_columns_of_k64(self, desk_run):
        # the draws of trigger i come from one stream, so the verify distances
        # at K = 16 are the first 16 columns of a K = 64 decode, to the byte
        config = desk_run.config
        assert config.k_verify == 16
        for name in ("watermarked", "prune40", "finetune3", "independent0"):
            wide = self._decode(
                desk_run.suspects[name], desk_run.bundle, desk_run.triggers, 64, config.seed + 6
            )[2]
            narrow = desk_run.distances[name]
            assert narrow.tobytes() == np.ascontiguousarray(wide[:, :16]).tobytes(), name

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_no_thread_outlives_a_verify(self):
        # a verify decodes in the caller's thread alone, and an IndependentPool
        # opened after it still finds the process single-threaded
        code = """
import multiprocessing, threading
from randmark import attacks as atk, nnengine as ne, watermark as wm
from randmark.harness import build_trigger_set, verify_suspect
from randmark.synth import gen_synthetic_images

triggers = build_trigger_set(gen_synthetic_images(8, 16, 1), 4, 0.1, 2)
source = ne.init_network([16, 12, 6], ["tanh", "identity"], 3)
bundle = wm.ModelBundle.create(source, 4, encoder_hidden=(8,), decoder_hidden=(8,), seed=4)
threads = set()
def spy(net, inputs):
    threads.add(threading.get_ident())
    return ne.forward_batch(net, inputs)
wm.forward_batch = spy
verify_suspect(source, bundle, triggers, 1, 4, 5, "source")
assert threads == {threading.get_ident()}, threads
assert atk._running_threads() == 1, atk._running_threads()
with atk.IndependentPool(2) as pool:
    getters = pool.submit([16, 12, 6], [6, 7], [8, 9], 1, 10)
    assert len(multiprocessing.active_children()) == 2
    assert len([get() for get in getters]) == 2
print("ok")
"""
        src = str(Path(wm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "RANDMARK_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestPersistence:
    def test_trigger_set_roundtrip(self, tmp_path, mini_run):
        path = tmp_path / "triggers.rmts"
        wm.save_trigger_set(mini_run.triggers, path)
        loaded = wm.load_trigger_set(path)
        assert loaded.n == mini_run.triggers.n
        assert loaded.s == mini_run.triggers.s
        assert loaded.master_seed == mini_run.triggers.master_seed
        assert np.array_equal(loaded.images, mini_run.triggers.images)
        assert np.array_equal(loaded.messages, mini_run.triggers.messages)
        assert np.array_equal(loaded.sigmas, mini_run.triggers.sigmas)
        assert loaded == mini_run.triggers

    def test_trigger_file_header(self, tmp_path, mini_run):
        path = tmp_path / "triggers.rmts"
        wm.save_trigger_set(mini_run.triggers, path)
        data = path.read_bytes()
        assert data[:4] == b"RMTS"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == len(mini_run.triggers)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        triggers = wm.TriggerSet(rng.random((2, 3)), rng.integers(0, 2, (2, 5)), [0.1, 0.2], 9)
        path = tmp_path / "small.rmts"
        wm.save_trigger_set(triggers, path)
        data = path.read_bytes()
        assert len(data) == 26 + 2 * (8 * 3 + 8 + 1)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                wm.load_trigger_set(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            wm.load_trigger_set(path)

    @pytest.mark.parametrize("field, value", [
        ("pixel", math.nan), ("pixel", math.inf), ("sigma", math.inf), ("sigma", math.nan),
    ])
    def test_non_finite_values_rejected_on_load(self, tmp_path, field, value):
        rng = np.random.default_rng(4)
        triggers = wm.TriggerSet(rng.random((1, 3)), rng.integers(0, 2, (1, 5)), [0.1], 9)
        path = tmp_path / "bad.rmts"
        wm.save_trigger_set(triggers, path)
        data = bytearray(path.read_bytes())
        offset = 26 + 8 if field == "pixel" else 26 + 8 * 3  # second pixel, or sigma
        data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=field):
            wm.load_trigger_set(path)

    def test_bundle_roundtrip(self, tmp_path, mini_run):
        directory = tmp_path / "bundle"
        mini_run.bundle.save(directory)
        loaded = wm.ModelBundle.load(directory)
        for name in ("frozen_f", "watermarked_f", "encoder_e", "decoder_d"):
            assert getattr(loaded, name).parameters_digest() == getattr(
                mini_run.bundle, name
            ).parameters_digest()
        assert loaded.hyper == mini_run.bundle.hyper

    def test_bundle_manifest_keys_cover_every_hyper_param(self):
        # each HyperParams field has exactly one manifest key, so save and load keep it
        names = [name for _, name in wm._BUNDLE_HYPER_KEYS]
        assert sorted(names) == sorted(field.name for field in dataclasses.fields(wm.HyperParams))
        assert len({key for key, _ in wm._BUNDLE_HYPER_KEYS}) == len(names)

    def test_bundle_roundtrip_keeps_weight_decay(self, tmp_path, mini_run):
        bundle = dataclasses.replace(
            mini_run.bundle, hyper=dataclasses.replace(mini_run.bundle.hyper, weight_decay=0.01)
        )
        bundle.save(tmp_path / "bundle")
        assert "weight_decay=0.01\n" in (tmp_path / "bundle" / "manifest.txt").read_text()
        assert wm.ModelBundle.load(tmp_path / "bundle").hyper == bundle.hyper
