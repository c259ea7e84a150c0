"""Seeded synthetic image generation: procedural sinusoidal textures.

Images are flat vectors of sqrt(s) x sqrt(s) grids, min-max normalized to
[0, 1] per image, so every image spans the full intensity range and no two
seeds collide in practice.
"""

from __future__ import annotations

import math

import numpy as np


def gen_synthetic_images(count: int, s: int, seed: int) -> np.ndarray:
    """(count, s) array of distinct textures with pixel values in [0, 1].

    s must be a perfect square; each image mixes four random oriented
    sinusoids with a little pixel noise, then rescales to full range.

    Draw order, which fixes every output byte for a seed: per image, one
    rng.random((4, 4)) -- row j holds sinusoid j's frequency, angle, phase
    and amplitude, mapped as low + (high - low) * U, as rng.uniform maps
    them -- then one rng.standard_normal((side, side)) of pixel noise. The
    sinusoids are added to a zero canvas in row order, then the noise;
    all of that and the min-max run over every image at once.
    """
    side = math.isqrt(s)
    if side * side != s:
        raise ValueError(f"s must be a perfect square, got {s}")
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    draws = np.empty((count, 4, 4))
    noise = np.empty((count, side, side))
    for i in range(count):
        draws[i] = rng.random((4, 4))
        noise[i] = rng.standard_normal((side, side))
    freq = 0.5 + (4.0 - 0.5) * draws[:, :, 0]
    theta = math.pi * draws[:, :, 1]  # low = 0.0 adds nothing
    phase = (2.0 * math.pi) * draws[:, :, 2]
    amp = 0.3 + (1.0 - 0.3) * draws[:, :, 3]
    # math.cos/math.sin per angle, as a scalar loop would take them
    cos_t = np.array([[math.cos(t) for t in row] for row in theta.tolist()])
    sin_t = np.array([[math.sin(t) for t in row] for row in theta.tolist()])
    grid = np.linspace(0.0, 1.0, side, endpoint=False)
    u = grid[:, None]  # varies along rows, as meshgrid(..., indexing="ij")
    v = grid[None, :]
    canvas = np.zeros((count, side, side))
    for j in range(4):
        wave = cos_t[:, j, None, None] * u + sin_t[:, j, None, None] * v
        wave *= (2.0 * math.pi * freq[:, j])[:, None, None]
        wave += phase[:, j, None, None]
        np.sin(wave, out=wave)
        wave *= amp[:, j, None, None]
        canvas += wave
    noise *= 0.15
    canvas += noise
    lo = canvas.min(axis=(1, 2), keepdims=True)
    hi = canvas.max(axis=(1, 2), keepdims=True)
    canvas -= lo
    canvas /= hi - lo
    return canvas.reshape(count, s)
