"""Embedding/extraction tests: noise model, encoder/decoder contracts,
training behavior, extraction determinism, and the file formats."""

import math

import numpy as np
import pytest

from randmark import nnengine as ne
from randmark import watermark as wm
from randmark.stats import mean_distance, var_distance

from conftest import MINI


def _sample(s=8, n=4, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return wm.TriggerSample(rng.random(s), wm.BitMessage(rng.integers(0, 2, n)), sigma)


class TestBitMessage:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            wm.BitMessage(np.array([0, 2, 1]))

    def test_pack_roundtrip_lsb_first(self):
        m = wm.BitMessage(np.array([1, 0, 0, 1, 1, 0, 1, 0, 1]))
        packed = m.packed()
        assert packed[0] == 0b01011001  # bit i sits at position i mod 8
        assert wm.BitMessage.from_packed(packed, 9) == m

    def test_equality_by_value(self):
        assert wm.BitMessage(np.array([1, 0])) == wm.BitMessage(np.array([1, 0]))
        assert wm.BitMessage(np.array([1, 0])) != wm.BitMessage(np.array([0, 0]))


class TestSampleNoise:
    def test_vanishing_sigma_returns_trigger(self):
        sample = _sample(sigma=1e-12)
        draws = wm.sample_noise(sample, 5, 1)
        assert np.abs(draws - sample.image[None, :]).max() < 1e-10

    def test_law_of_large_numbers(self):
        sample = wm.TriggerSample(np.array([0.2, 0.4, 0.6, 0.8]), wm.BitMessage([1, 0]), 0.1)
        draws = wm.sample_noise(sample, 10_000, 2)
        mean_tol = 4 * 0.1 / math.sqrt(10_000)
        assert np.abs(draws.mean(axis=0) - sample.image).max() < mean_tol
        stds = draws.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - 0.1) < 0.005)

    def test_deterministic_for_fixed_seed(self):
        sample = _sample()
        assert np.array_equal(wm.sample_noise(sample, 7, 3), wm.sample_noise(sample, 7, 3))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            _sample(sigma=0.0)


class TestEncoder:
    def test_zero_final_layer_gives_constant_perturbation(self):
        s, n = 6, 3
        enc = ne.init_network([s + n, 5, s], ["tanh", "tanh"], 4)
        enc.layers[-1].weight[:] = 0.0
        enc.layers[-1].bias[:] = 0.0
        rng = np.random.default_rng(5)
        out = wm.encoder_perturbation(enc, rng.random((4, s)), rng.integers(0, 2, (4, n)))
        assert np.array_equal(out, np.zeros((4, s)))
        # non-zero bias broadcasts as a constant in both image and message
        enc.layers[-1].bias[:] = np.array([0.5, -0.25, 0.0, 1.0, -1.0, 0.75])
        out = wm.encoder_perturbation(enc, rng.random((4, s)), rng.integers(0, 2, (4, n)))
        assert np.allclose(out, np.tanh(enc.layers[-1].bias)[None, :])
        assert np.ptp(out, axis=0).max() == 0.0

    def test_message_bit_flip_changes_stego(self, mini_run):
        bundle = mini_run.bundle
        trigger = mini_run.triggers.samples[0]
        noisy = wm.sample_noise(trigger, 1, 6)[0]
        stego_a = wm.encode_trigger(
            bundle.encoder_e, noisy, trigger.message, bundle.hyper.delta_scale
        )
        flipped = trigger.message.bits.copy()
        flipped[0] ^= 1
        stego_b = wm.encode_trigger(
            bundle.encoder_e, noisy, wm.BitMessage(flipped), bundle.hyper.delta_scale
        )
        assert np.linalg.norm(stego_a - stego_b) > 0.0

    def test_output_shape_contract(self):
        s, n = 256, 32
        enc = ne.init_network([s + n, 64, s], ["tanh", "tanh"], 7)
        rng = np.random.default_rng(8)
        stego = wm.encode_trigger(enc, rng.random(s), wm.BitMessage(rng.integers(0, 2, n)))
        assert stego.shape == (s,)


class TestDecoder:
    def test_threshold_convention_ties_round_up(self):
        # zero weights, biases chosen so soft = (0.9, 0.1, 0.5)
        logit = lambda p: math.log(p / (1 - p))
        dec = ne.MlpNetwork(
            [ne.Layer(np.zeros((2, 3)), np.array([logit(0.9), logit(0.1), 0.0]), "sigmoid")]
        )
        soft, hard = wm.decode_message(dec, np.zeros(2))
        assert np.allclose(soft, [0.9, 0.1, 0.5])
        assert hard == wm.BitMessage([1, 0, 1])

    def test_zero_decoder_gives_all_ones(self):
        dec = ne.MlpNetwork([ne.Layer(np.zeros((4, 3)), np.zeros(3), "sigmoid")])
        soft, hard = wm.decode_message(dec, np.ones(4))
        assert np.all(soft == 0.5)
        assert hard == wm.BitMessage([1, 1, 1])

    def test_trained_bundle_decodes_own_triggers(self, mini_run):
        bundle = mini_run.bundle
        for index, trigger in enumerate(mini_run.triggers.samples):
            batch = wm.extract_messages(
                bundle.watermarked_f,
                bundle.encoder_e,
                bundle.decoder_d,
                trigger,
                64,
                900 + index,
                delta_scale=bundle.hyper.delta_scale,
            )
            assert (batch.distances == 0).mean() >= 0.95


class TestComputeLoss:
    def test_global_minimum_is_exactly_zero(self):
        s, k, n = 5, 4, 3
        f = ne.init_network([s, k], ["identity"], 9)
        message = wm.BitMessage([1, 0, 1])
        # saturated sigmoid outputs hit the bits exactly in float64
        bias = np.where(message.bits == 1, 40.0, -40.0).astype(float)
        decoder = ne.MlpNetwork([ne.Layer(np.zeros((k, n)), bias, "sigmoid")])
        bundle = wm.ModelBundle(
            frozen_f=f.copy(),
            watermarked_f=f.copy(),
            encoder_e=ne.init_network([s + n, s], ["tanh"], 10),
            decoder_d=decoder,
            hyper=wm.HyperParams(lam=1.0, k_train=4, epochs=0),
        )
        sample = wm.TriggerSample(np.random.default_rng(11).random(s), message, 0.05)
        parts = wm.compute_loss(bundle, sample, 4, 12)
        assert parts.total == 0.0 and parts.fidelity == 0.0 and parts.message == 0.0

    def test_message_term_linear_in_lambda(self):
        rng = np.random.default_rng(13)
        s, k, n = 6, 4, 3
        f = ne.init_network([s, 5, k], ["tanh", "identity"], rng)
        sample = wm.TriggerSample(rng.random(s), wm.BitMessage(rng.integers(0, 2, n)), 0.1)

        def parts_for(lam):
            bundle = wm.ModelBundle.create(
                f, n, encoder_hidden=(7,), decoder_hidden=(5,),
                hyper=wm.HyperParams(lam=lam, k_train=4, epochs=0), seed=14,
            )
            for layer in bundle.watermarked_f.layers:
                layer.weight += 0.05
            return wm.compute_loss(bundle, sample, 4, 15)

        single = parts_for(1.0)
        double = parts_for(2.0)
        assert double.message == pytest.approx(2.0 * single.message, rel=1e-12)
        assert double.fidelity == pytest.approx(single.fidelity, rel=1e-12)
        assert double.total == pytest.approx(double.fidelity + double.message, rel=1e-12)

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
        sample = wm.TriggerSample(rng.random(s), wm.BitMessage(rng.integers(0, 2, n)), 0.08)
        grads = wm.compute_loss_gradients(bundle, sample, 4, 18)
        worst = 0.0
        for name, net in (
            ("watermarked_f", bundle.watermarked_f),
            ("encoder_e", bundle.encoder_e),
            ("decoder_d", bundle.decoder_d),
        ):
            err = ne.gradient_check(
                net,
                lambda _: wm.compute_loss(bundle, sample, 4, 18).total,
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
        out_ref, _ = ne.forward_batch(desk_run.bundle.frozen_f, desk_run.triggers.images())
        scale = float(np.sqrt((out_ref**2).sum(axis=1)).mean())
        assert final["fidelity"] <= 0.1 * scale

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
        with np.errstate(over="ignore"), pytest.raises(wm.TrainingDiverged):
            wm.embed_watermark(bundle, triggers)
        # rolled-back parameters must be finite end to end
        out, _ = ne.forward_batch(bundle.watermarked_f, triggers.images())
        assert np.isfinite(out).all()

    def test_loss_independent_of_accumulation_order(self, mini_run):
        # one full-batch evaluation vs per-trigger accumulation
        bundle = mini_run.bundle
        triggers = mini_run.triggers
        images = triggers.images()
        messages = triggers.messages()
        rng = np.random.default_rng(99)
        noise = rng.standard_normal((len(triggers), 4, triggers.s))
        noise *= triggers.sigmas()[:, None, None]
        args = (bundle.frozen_f, bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d)
        fid_b, msg_b, _, _ = wm._loss_and_grads(
            *args, images, messages, noise, bundle.hyper.lam,
            bundle.hyper.delta_scale, want_grads=False,
        )
        accumulated = 0.0
        for i in range(len(triggers)):
            fid_i, msg_i, _, _ = wm._loss_and_grads(
                *args, images[i : i + 1], messages[i : i + 1], noise[i : i + 1],
                bundle.hyper.lam, bundle.hyper.delta_scale, want_grads=False,
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
        batches = [
            wm.extract_messages(
                bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d,
                t, 64, 40 + i, delta_scale=bundle.hyper.delta_scale,
            )
            for i, t in enumerate(mini_run.triggers.samples)
        ]
        assert np.mean([mean_distance(b) for b in batches]) <= 1.0

    def test_independent_model_near_chance(self, mini_run):
        bundle = mini_run.bundle
        from randmark.attacks import make_independent

        g = make_independent(
            [MINI["s"], 48, MINI["k"]], seed=77, pretrain_data_seed=78, epochs=30, n_images=120
        )
        batches = [
            wm.extract_messages(
                g, bundle.encoder_e, bundle.decoder_d, t, 64, 40 + i,
                delta_scale=bundle.hyper.delta_scale,
            )
            for i, t in enumerate(mini_run.triggers.samples)
        ]
        n = mini_run.triggers.n
        pooled_mismatch = float(np.mean([b.distances.mean() / n for b in batches]))
        # dominated by the random-message realization: SE ~ 0.5 / sqrt(N * n)
        realization_se = 0.5 / math.sqrt(len(batches) * n)
        assert abs((1.0 - pooled_mismatch) - 0.5) < 4 * realization_se + 0.02

    def test_separation_between_watermarked_and_random(self, mini_run):
        bundle = mini_run.bundle
        n = mini_run.triggers.n
        fresh = ne.init_network([MINI["s"], 48, MINI["k"]], ["tanh", "identity"], 999)
        rho_wm, rho_fresh = [], []
        for i, t in enumerate(mini_run.triggers.samples):
            kwargs = dict(k_draws=32, stream_seed=50 + i, delta_scale=bundle.hyper.delta_scale)
            rho_wm.append(
                mean_distance(wm.extract_messages(
                    bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d, t, **kwargs))
            )
            rho_fresh.append(
                mean_distance(wm.extract_messages(
                    fresh, bundle.encoder_e, bundle.decoder_d, t, **kwargs))
            )
        assert np.mean(rho_wm) < n / 4
        assert np.mean(rho_fresh) > n / 4

    def test_single_draw_has_no_variance(self, mini_run):
        bundle = mini_run.bundle
        batch = wm.extract_messages(
            bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d,
            mini_run.triggers.samples[0], 1, 60, delta_scale=bundle.hyper.delta_scale,
        )
        assert batch.distances.shape == (1,)
        assert var_distance(batch) is None

    def test_deterministic_extraction(self, mini_run):
        bundle = mini_run.bundle
        t = mini_run.triggers.samples[2]
        a = wm.extract_messages(
            bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d, t, 16, 71,
            delta_scale=bundle.hyper.delta_scale,
        )
        b = wm.extract_messages(
            bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d, t, 16, 71,
            delta_scale=bundle.hyper.delta_scale,
        )
        assert np.array_equal(a.soft_bits, b.soft_bits)
        assert np.array_equal(a.distances, b.distances)

    def test_distances_bounded_by_message_length(self, mini_run):
        bundle = mini_run.bundle
        rng = np.random.default_rng(73)
        fresh = ne.init_network([MINI["s"], 24, MINI["k"]], ["relu", "identity"], rng)
        for i, t in enumerate(mini_run.triggers.samples[:6]):
            batch = wm.extract_messages(
                fresh, bundle.encoder_e, bundle.decoder_d, t, 17, 80 + i,
                delta_scale=bundle.hyper.delta_scale,
            )
            assert np.all(batch.distances >= 0) and np.all(batch.distances <= t.message.bits.size)

    def test_architecture_mismatch_refused(self, mini_run):
        bundle = mini_run.bundle
        bad = ne.init_network([MINI["s"] + 1, 8, MINI["k"]], ["tanh", "identity"], 30)
        with pytest.raises(wm.VerificationRefused):
            wm.extract_messages(
                bad, bundle.encoder_e, bundle.decoder_d,
                mini_run.triggers.samples[0], 4, 90,
            )
        bad_out = ne.init_network([MINI["s"], 8, MINI["k"] + 2], ["tanh", "identity"], 31)
        with pytest.raises(wm.VerificationRefused):
            wm.extract_messages(
                bad_out, bundle.encoder_e, bundle.decoder_d,
                mini_run.triggers.samples[0], 4, 91,
            )


class TestStegoBatch:
    def _args(self, mini_run, **overrides):
        args = dict(
            encoder_e=mini_run.bundle.encoder_e.copy(),
            samples=list(mini_run.triggers.samples),
            k_draws=8,
            seed=120,
            delta_scale=mini_run.bundle.hyper.delta_scale,
        )
        args.update(overrides)
        return args

    def test_reused_while_inputs_unchanged(self, mini_run):
        args = self._args(mini_run)
        first = wm.stego_batch(**args)
        assert first.shape == (len(args["samples"]) * 8, mini_run.triggers.s)
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
        samples = [wm.TriggerSample(t.image.copy(), t.message, t.sigma)
                   for t in mini_run.triggers.samples]
        args = self._args(mini_run, samples=samples)
        before = wm.stego_batch(**args)
        samples[3].image *= 0.5
        after = wm.stego_batch(**args)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, wm._build_stego(**args))

    @pytest.mark.parametrize("change", [
        lambda args: {"seed": 121},
        lambda args: {"k_draws": 4},
        lambda args: {"delta_scale": 0.25},
        lambda args: {"samples": args["samples"][:8]},
    ])
    def test_fresh_after_run_parameter_change(self, mini_run, change):
        args = self._args(mini_run)
        before = wm.stego_batch(**args)
        changed = {**args, **change(args)}
        after = wm.stego_batch(**changed)
        assert after is not before
        assert np.array_equal(after, wm._build_stego(**changed))


class TestPersistence:
    def test_trigger_set_roundtrip(self, tmp_path, mini_run):
        path = tmp_path / "triggers.rmts"
        wm.save_trigger_set(mini_run.triggers, path)
        loaded = wm.load_trigger_set(path)
        assert loaded.n == mini_run.triggers.n
        assert loaded.s == mini_run.triggers.s
        assert loaded.master_seed == mini_run.triggers.master_seed
        for a, b in zip(loaded.samples, mini_run.triggers.samples):
            assert np.array_equal(a.image, b.image)
            assert a.message == b.message
            assert a.sigma == b.sigma

    def test_trigger_file_header(self, tmp_path, mini_run):
        path = tmp_path / "triggers.rmts"
        wm.save_trigger_set(mini_run.triggers, path)
        data = path.read_bytes()
        assert data[:4] == b"RMTS"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == len(mini_run.triggers)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [
            wm.TriggerSample(rng.random(3), wm.BitMessage.random(5, rng), 0.1 * (i + 1))
            for i in range(2)
        ]
        path = tmp_path / "small.rmts"
        wm.save_trigger_set(wm.TriggerSet(samples, n=5, s=3, master_seed=9), path)
        data = path.read_bytes()
        assert len(data) == 26 + 2 * (8 * 3 + 8 + 1)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                wm.load_trigger_set(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
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
