"""Pins of the training routines' output bytes: SHA-256 digests of the
parameters that make_independent, finetune_attack (without its head),
distill_attack and embed_watermark return at micro sizes, with the accuracy
and matching loss of the returned networks beside them. Any change to the order of a rounding
step, to a random draw or to the BLAS kernel a product runs on shows here.
The sizes put a 44-row and a 1-row batch last in an epoch, since a one-row
product runs a different BLAS kernel than a many-row one. Each value is
pinned per OpenBLAS core (SkylakeX, Haswell, Sandybridge, as
OPENBLAS_CORETYPE selects them), and a core without one fails."""

import hashlib

import pytest

from randmark import attacks as atk
from randmark import watermark as wm
from randmark.harness import build_trigger_set
from randmark.nnengine import MlpNetwork, forward_batch
from randmark.synth import gen_synthetic_images

from conftest import assert_pinned


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
            ([16, 12, 8], 172, {
                "SkylakeX": "345b0f3593c8570de25488b271ea0db6f4f92dcd7ea5933344382d0ab4feb9a9",
                "Haswell": "3873c234a11004c38988dc34c2129150925282028959a3e3272e65e63c056f74",
                "Sandybridge": "f7913ed74f87b267abf747f8d181adc9b6753b7d09900f5ea5e103f99b23d486",
            }),
            # 129 images = 128 + 1 row
            ([16, 12, 8], 129, {
                "SkylakeX": "319d0b621907550f49eb57b558e73e0e2b0e207dc4c92714ae2e7e9971c1bb29",
                "Haswell": "396e25ba6fc76c041733d5f22585d445992afd5e1a1db79e1e2fd5c61b0c25e5",
                "Sandybridge": "bafb4463849eabfa5aa7260d1a1a04698aa99c1eb1ab04127c83fadf6b5cee95",
            }),
            # two hidden layers
            ([16, 12, 10, 8], 172, {
                "SkylakeX": "811ca93799d60af0f0055c67726da00b3ca29bf1312ae90e237814896ba249e2",
                "Haswell": "4403ed9d9cc6329d08444c724eb796d76ad2809ef9ef80b73eba55cbbb1a99bc",
                "Sandybridge": "dbbd67b62a0119e930ca7831fe813b1aefe570bcc0a7ed9e8d3a388f0183c40e",
            }),
        ],
        # named by the SkylakeX digest, as when it was the only one pinned
        ids=lambda value: value["SkylakeX"] if isinstance(value, dict) else None,
    )
    def test_parameters_digest(self, dims, n_images, expected):
        net = atk.make_independent(
            dims, seed=5, pretrain_data_seed=6, epochs=3, n_images=n_images
        )
        assert_pinned(_digest(net), expected)


class TestAttacks:
    def test_finetune_digest(self, backbone):
        # 100 samples = 64 + 36 rows
        task = atk.make_blob_task(16, n_classes=3, n_samples=100, seed=7)
        net = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=8)
        logits, _ = forward_batch(net, task.inputs)
        accuracy = float((logits.argmax(axis=1) == task.labels).mean())
        assert_pinned((_digest(MlpNetwork(net.layers[:-1])), accuracy), {
            "SkylakeX": ("b50f970a310dec6d47cc092c82fb7c3105566368acddffb5a02a63cb27ed35f3", 0.66),
            "Haswell": ("058f620c24227d4b91356b28b949e45a0400037aa0e8a75970f4b73a7d38542f", 0.66),
            "Sandybridge": (
                "4210aba1d1ffb22a1890b8f313e4ebf76004db7f7029ff954470c862b8575cfd", 0.66
            ),
        })

    def test_finetune_one_row_batch_digest(self, backbone):
        # 65 samples = 64 + 1 row
        task = atk.make_blob_task(16, n_classes=3, n_samples=65, seed=7)
        net = atk.finetune_attack(backbone, task, epochs=2, lr=1e-3, seed=8)
        assert_pinned(_digest(MlpNetwork(net.layers[:-1])), {
            "SkylakeX": "d7c132ad879f2e3e64e29ca068c76bff28a5d09b890fcf7157b62d4ab667b704",
            "Haswell": "8dfc5863576930cb972e91d675593ad1d96c2e85d9f71155f22b115695c3cda3",
            "Sandybridge": "02762d4a7887f3afa586b21b15fa43ccf936a2d7cbbc54031f34f86943655b36",
        })

    def test_distill_digest(self, backbone):
        # 300 inputs = 256 + 44 rows
        student = atk.distill_attack(
            backbone, (6,), data_seed=9, epochs=2, lr=1e-3, n_inputs=300, seed=10
        )
        inputs = gen_synthetic_images(300, 16, 9)
        out, _ = forward_batch(student, inputs)
        loss = float(((out - forward_batch(backbone, inputs)[0]) ** 2).mean())
        assert_pinned((_digest(student), loss), {
            "SkylakeX": (
                "a6ea553b20b78ad91db44ae089dfb5a53a9e1d6da42562ab5c3e5e05a61b14c9",
                0.7432690857520646,
            ),
            "Haswell": (
                "7c55ab650a4bd56871489f1309c0c5113d8bf9cbd2df2ab322a7fa7d28305163",
                0.7432690857520646,
            ),
            "Sandybridge": (
                "81d3e6a82a5ebf0f3f2346d12043723bfc3e995b70d4035e1ad6458cecbea1f4",
                0.7432690857520646,
            ),
        })


class TestEmbedWatermark:
    def test_bundle_digest(self, backbone):
        triggers = build_trigger_set(gen_synthetic_images(5, 16, 11), 6, 0.1, 12)
        hyper = wm.HyperParams(lam=1.0, k_train=3, epochs=12, learning_rate=2e-3, delta_scale=0.5)
        bundle = wm.ModelBundle.create(
            backbone, 6, encoder_hidden=(10,), decoder_hidden=(7,), hyper=hyper, seed=13
        )
        bundle, log = wm.embed_watermark(bundle, triggers)
        assert _digest(bundle.frozen_f) == _digest(backbone)
        assert_pinned(
            (_digest(bundle.watermarked_f, bundle.encoder_e, bundle.decoder_d),
             log.final()["total"]),
            {
                "SkylakeX": (
                    "164f2e6ecc773c1f2d12485db9dc3026ffeea2c7a5792fbd35906cffaeb6b4a5",
                    1.4529028661021686,
                ),
                "Haswell": (
                    "65acdb9e8d4f1b057983f59d6833cd7a0851ddce790bfc8928dbda22fa909f9a",
                    1.4529028661021686,
                ),
                "Sandybridge": (
                    "7d8720d0171e799c87ccf48c214e0c0440301880c0dfa86b82d901ab1859508f",
                    1.4529028661021688,
                ),
            },
        )
