"""Synthetic test fields for sweeps, demos, and the test corpus."""

from __future__ import annotations

import numpy as np


def smooth(shape, seed: int = 0) -> np.ndarray:
    """Sum of four random low-frequency plane waves, each of amplitude in [0.3, 1)."""
    rng = np.random.default_rng(seed)
    extents = tuple(int(e) for e in shape)
    axes = np.meshgrid(*(np.linspace(0.0, 1.0, e, endpoint=False) for e in extents),
                       indexing="ij", sparse=True)
    field = np.zeros(extents)
    for _ in range(4):
        freqs = rng.integers(1, 4, size=len(extents))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        arg = sum(2.0 * np.pi * f * ax for f, ax in zip(freqs, axes))
        field += amp * np.cos(arg + phase)
    return field


def layered(shape, seed: int = 0) -> np.ndarray:
    """``1000 * layer_index`` along axis 0 plus one smooth field shared by all layers.

    High variability along axis 0 blocks any coarsening that crosses layers,
    which is what makes splitting that axis pay off.
    """
    extents = tuple(int(e) for e in shape)
    base = smooth(extents[1:], seed=seed) if len(extents) > 1 else np.zeros(())
    layers = 1000.0 * np.arange(extents[0], dtype=np.float64)
    return layers.reshape((-1,) + (1,) * (len(extents) - 1)) + base


def noise(shape, seed: int = 0) -> np.ndarray:
    """Uniform noise in [0, 1)."""
    rng = np.random.default_rng(seed)
    return rng.random(tuple(int(e) for e in shape))


GENERATORS = {"smooth": smooth, "layered": layered, "noise": noise}
