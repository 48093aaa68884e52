import struct

import numpy as np
import pytest

from amrc import (
    CompressionConfig,
    Criterion,
    ErrorSpec,
    GridShape,
    build_initial_mesh,
    complete_family_starts,
    compress,
    write_artifact,
)
from oracle import coarsen_marked


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_mesh(shape, rng, rounds=4, p=0.5):
    """A valid mesh obtained by random coarsening rounds from the initial mesh."""
    mesh = build_initial_mesh(shape)
    for _ in range(rounds):
        starts = complete_family_starts(mesh)
        if starts.size == 0:
            break
        chosen = starts[rng.random(starts.size) < p]
        if chosen.size == 0:
            continue
        mesh = coarsen_marked(mesh, chosen)
    return mesh


def huge_root_artifact(level):
    """A valid root-only f32 artifact over a ``2^level x 2^level`` grid.

    Made from a 1x1 artifact by rewriting its extents and initial level, so
    it is a few dozen bytes that declare ``4^level`` points.
    """
    var = compress(np.ones(1, dtype=np.float32), GridShape((1, 1)),
                   CompressionConfig(ErrorSpec(Criterion("abs", 0.0))))
    blob = bytearray(write_artifact([var]))
    blob[6:23] = struct.pack("<QQB", 1 << level, 1 << level, level)  # after magic, version, dim
    return bytes(blob)
