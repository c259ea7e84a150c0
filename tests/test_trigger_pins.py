"""Pins of the trigger path through the RMTS v1 file alone: its full bytes,
build_trigger_set's message draws, and a save/load property over any valid
content. Each test reads and writes the file by hand, so it holds whatever
in-memory form the trigger set takes."""

import hashlib
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randmark import watermark as wm
from randmark.harness import build_trigger_set
from randmark.synth import gen_synthetic_images


def _rmts(images, sigmas, bits, master_seed) -> bytes:
    """An RMTS v1 file written field by field: the header, then per trigger
    its pixels and sigma as little-endian float64 and its bits packed
    LSB-first into ceil(n/8) bytes."""
    count, s = images.shape
    n = bits.shape[1]
    data = b"RMTS" + struct.pack("<HIIIQ", 1, count, s, n, master_seed)
    for image, sigma, row in zip(images, sigmas, bits):
        data += struct.pack(f"<{s}d", *image) + struct.pack("<d", sigma)
        data += bytes(
            sum(int(bit) << j for j, bit in enumerate(row[i : i + 8]))
            for i in range(0, n, 8)
        )
    return data


def _parse(data: bytes):
    """(images, sigmas, bits, master_seed) of an RMTS v1 file, read by hand."""
    count, s, n, master_seed = struct.unpack_from("<IIIQ", data, 6)
    step = 8 * s + 8 + (n + 7) // 8
    images, sigmas, bits = [], [], []
    for i in range(count):
        offset = 26 + i * step
        images.append(struct.unpack_from(f"<{s}d", data, offset))
        sigmas.append(struct.unpack_from("<d", data, offset + 8 * s)[0])
        packed = data[offset + 8 * s + 8 : offset + step]
        bits.append([(packed[j // 8] >> (j % 8)) & 1 for j in range(n)])
    return np.array(images), np.array(sigmas), np.array(bits, dtype=np.int8), master_seed


def _resaved(tmp_path, data: bytes) -> bytes:
    path = tmp_path / "in.rmts"
    path.write_bytes(data)
    out = tmp_path / "out.rmts"
    wm.save_trigger_set(wm.load_trigger_set(path), out)
    return out.read_bytes()


HAND_IMAGES = np.array([[0.0, 0.25, 1.0], [0.5, 0.125, 0.75]])
HAND_SIGMAS = np.array([0.1, 0.03125])
HAND_BITS = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]], dtype=np.int8)


class TestRmtsBytes:
    def test_hand_built_file_bytes(self, tmp_path):
        data = _rmts(HAND_IMAGES, HAND_SIGMAS, HAND_BITS, 9)
        assert len(data) == 26 + 2 * (8 * 3 + 8 + 1)
        assert hashlib.sha256(data).hexdigest() == (
            "722db2460f9912ef2d047ca5357c73862d133b280b243f72da17e29200d31188"
        )
        assert _resaved(tmp_path, data) == data

    def test_built_set_file_bytes(self, tmp_path):
        path = tmp_path / "built.rmts"
        wm.save_trigger_set(build_trigger_set(HAND_IMAGES, 5, 0.1, 9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "52ae654f6179d245fe3d8a34b05c84485ca7b855fa6e1e6ee6ab34a62885dd12"
        )


class TestBuildTriggerSetDraws:
    def test_bits_are_per_row_draws(self, tmp_path):
        images = gen_synthetic_images(7, 16, 21)
        for n in (5, 32):
            path = tmp_path / f"n{n}.rmts"
            wm.save_trigger_set(build_trigger_set(images, n, 0.1, 22), path)
            got_images, sigmas, bits, master_seed = _parse(path.read_bytes())
            rng = np.random.default_rng(22)
            expected = np.stack(
                [rng.integers(0, 2, size=n, dtype=np.int8) for _ in range(len(images))]
            )
            assert np.array_equal(bits, expected)
            assert np.array_equal(got_images, images)
            assert sigmas.tolist() == [0.1 * float(image.std()) for image in images]
            assert master_seed == 22


@st.composite
def _trigger_file(draw):
    count = draw(st.integers(1, 6))
    s = draw(st.integers(1, 8))
    n = draw(st.integers(1, 20))
    pixel = st.floats(0.0, 1.0)
    images = np.array(draw(st.lists(
        st.lists(pixel, min_size=s, max_size=s), min_size=count, max_size=count
    )))
    sigma = st.floats(5e-324, 1e300)
    sigmas = np.array(draw(st.lists(sigma, min_size=count, max_size=count)))
    bits = np.array(draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=count, max_size=count
    )), dtype=np.int8)
    return _rmts(images, sigmas, bits, draw(st.integers(0, 2**64 - 1)))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=_trigger_file())
    def test_any_trigger_set_saves_and_loads_back_equal(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("rmts")
        path = tmp_path / "in.rmts"
        path.write_bytes(data)
        loaded = wm.load_trigger_set(path)
        images, sigmas, bits, master_seed = _parse(data)
        assert (len(loaded), loaded.s, loaded.n) == (*images.shape, bits.shape[1])
        assert loaded.master_seed == master_seed
        assert _resaved(tmp_path, data) == data
