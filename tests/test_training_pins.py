"""Pins of the training routines' output bytes: SHA-256 digests of the
parameters that make_independent, finetune_attack, distill_attack and
embed_watermark return at micro sizes. Any change to the order of a rounding
step, to a random draw or to the BLAS kernel a product runs on shows here.
The sizes put a 44-row and a 1-row batch last in an epoch, since a one-row
product runs a different BLAS kernel than a many-row one."""

import hashlib

import pytest

from randmark import attacks as atk
from randmark import watermark as wm
from randmark.harness import build_trigger_set
from randmark.synth import gen_synthetic_images


def _digest(*nets) -> str:
    return hashlib.sha256(
        "".join(net.parameters_digest() for net in nets).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def backbone():
    return atk.make_independent(
        [16, 12, 8], seed=5, pretrain_data_seed=6, epochs=3, n_images=172
    )


class TestMakeIndependent:
    @pytest.mark.parametrize(
        "dims, n_images, expected",
        [
            # 172 images = 128 + 44 rows
            ([16, 12, 8], 172, "345b0f3593c8570de25488b271ea0db6f4f92dcd7ea5933344382d0ab4feb9a9"),
            # 129 images = 128 + 1 row
            ([16, 12, 8], 129, "319d0b621907550f49eb57b558e73e0e2b0e207dc4c92714ae2e7e9971c1bb29"),
            # two hidden layers
            (
                [16, 12, 10, 8], 172,
                "811ca93799d60af0f0055c67726da00b3ca29bf1312ae90e237814896ba249e2",
            ),
        ],
    )
    def test_parameters_digest(self, dims, n_images, expected):
        net = atk.make_independent(
            dims, seed=5, pretrain_data_seed=6, epochs=3, n_images=n_images
        )
        assert _digest(net) == expected


class TestAttacks:
    def test_finetune_digest(self, backbone):
        # 100 samples = 64 + 36 rows
        task = atk.make_blob_task(16, n_classes=3, n_samples=100, seed=7)
        net, accuracy = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=8)
        assert _digest(net) == (
            "b50f970a310dec6d47cc092c82fb7c3105566368acddffb5a02a63cb27ed35f3"
        )
        assert accuracy == 0.66

    def test_finetune_one_row_batch_digest(self, backbone):
        # 65 samples = 64 + 1 row
        task = atk.make_blob_task(16, n_classes=3, n_samples=65, seed=7)
        net, _ = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=8)
        assert _digest(net) == (
            "d7c132ad879f2e3e64e29ca068c76bff28a5d09b890fcf7157b62d4ab667b704"
        )

    def test_distill_digest(self, backbone):
        # 300 inputs = 256 + 44 rows
        student, loss = atk.distill_attack(
            backbone, (6,), data_seed=9, epochs=2, lr=1e-3, n_inputs=300, seed=10
        )
        assert _digest(student) == (
            "a6ea553b20b78ad91db44ae089dfb5a53a9e1d6da42562ab5c3e5e05a61b14c9"
        )
        assert loss == 0.7432690857520646


class TestEmbedWatermark:
    @pytest.mark.parametrize(
        "weight_decay, expected",
        [
            (0.0, ("164f2e6ecc773c1f2d12485db9dc3026ffeea2c7a5792fbd35906cffaeb6b4a5",
                   1.4529028661021686)),
            (0.01, ("1368177b55e113441269b8abdeef1adf1006056f19b64a261a06dc51b5b5ec29",
                    1.4529483770241474)),
        ],
    )
    def test_bundle_digest(self, backbone, weight_decay, expected):
        triggers = build_trigger_set(gen_synthetic_images(5, 16, 11), 6, 0.1, 12)
        hyper = wm.HyperParams(
            k_train=3, epochs=12, learning_rate=2e-3, weight_decay=weight_decay
        )
        bundle = wm.ModelBundle.create(
            backbone, 6, encoder_hidden=(10,), decoder_hidden=(7,), hyper=hyper, seed=13
        )
        bundle, log = wm.embed_watermark(bundle, triggers)
        assert _digest(bundle.frozen_f) == _digest(backbone)
        assert (
            _digest(bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d),
            log.final()["total"],
        ) == expected
