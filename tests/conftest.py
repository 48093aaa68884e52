import numpy as np
import pytest

from amrc import build_initial_mesh, complete_family_starts
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
