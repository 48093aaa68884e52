"""Level-pass engine against the Jacobi-sweep reference, field by field.

``coarsen_forest`` must reproduce :func:`oracle.reference_coarsen` exactly:
the same mesh, bit-identical values and trackers, and the same iteration
count. The sweep covers every 2D shape up to 9x9 and every 3D shape up to
5x5x5, plus a few long and degenerate shapes. Each shape gets several
configurations, rotated through bound kinds, dtypes, domains, modes and
iteration caps.
"""

import itertools

import numpy as np
import pytest

from amrc import Criterion, ErrorDomain, ErrorSpec, GridShape, coarsen_forest
from amrc.fields import smooth
from oracle import reference_coarsen

SHAPES = (list(itertools.product(range(1, 10), repeat=2))
          + list(itertools.product(range(1, 6), repeat=3))
          + [(77, 301), (1, 50), (50, 1), (1, 1, 33), (33, 1, 1), (17, 9, 23)])

# (bound kind, multiplier of the span or relative bound, dtype, variables, cap)
CONFIGS = [
    ("abs", 0.05, np.float64, 1, None),
    ("abs", 0.3, np.float32, 1, None),
    ("rel", 0.02, np.float64, 1, None),
    ("abs", 0.0, np.float64, 1, None),
    ("abs", 2.0, np.int16, 1, None),
    ("abs", 0.2, np.float64, 3, None),
    ("rel", 0.1, np.float32, 2, 1),
    ("abs", 1.0, np.float64, 1, 2),
    ("rel", 0.0, np.float64, 1, None),
]


def random_domains(rng, extents, kind, bound):
    doms = []
    for _ in range(int(rng.integers(0, 3))):
        box = []
        for e in extents:
            lo = int(rng.integers(-2, e + 1))
            box.append((lo, lo + int(rng.integers(1, e + 3))))
        doms.append(ErrorDomain(tuple(box), Criterion(kind, bound * rng.random())))
    return tuple(doms)


def make_case(extents, config, rng):
    kind, mult, dtype, n_vars, cap = config
    arrays = []
    for _ in range(n_vars):
        field = (smooth(extents, seed=int(rng.integers(1 << 30)))
                 + 0.05 * rng.normal(size=extents))
        if kind == "rel":
            field = np.abs(field) + 0.5
        if np.dtype(dtype).kind == "i":
            field = np.rint(field * 40)
        arrays.append(field.astype(dtype).reshape(-1))
    if kind == "abs":
        bound = mult * float(max(np.ptp(a.astype(np.float64)) for a in arrays))
    else:
        bound = mult
    spec = ErrorSpec(Criterion(kind, bound), random_domains(rng, extents, kind, bound))
    value_kind = {np.float64: "f64", np.float32: "f32", np.int16: "i16"}[dtype]
    return arrays, GridShape(extents), spec, value_kind, cap


def assert_same(got, want):
    assert got.mesh == want.mesh
    assert got.iterations == want.iterations
    assert len(got.values) == len(want.values) == len(got.trackers)
    for a, b in zip(got.values + got.trackers, want.values + want.trackers):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_matches_reference_sweep(index):
    rng = np.random.default_rng(index)
    for i, extents in enumerate(SHAPES):
        # shape i runs under config index + i, so every config meets every shape
        # class across the parametrization
        config = CONFIGS[(index + i) % len(CONFIGS)]
        arrays, shape, spec, kind, cap = make_case(extents, config, rng)
        got = coarsen_forest(arrays, shape, spec, kind, max_iterations=cap)
        want = reference_coarsen(arrays, shape, spec, kind, max_iterations=cap)
        assert_same(got, want)


@pytest.mark.parametrize("cap", [0, 1, 2, 3, None])
def test_iteration_cap_counts_accepting_levels(cap):
    field = smooth((37, 52), seed=3)
    shape = GridShape((37, 52))
    spec = ErrorSpec(Criterion("abs", 3.0))  # five accepting levels uncapped
    got = coarsen_forest([field], shape, spec, "f64", max_iterations=cap)
    assert_same(got, reference_coarsen([field], shape, spec, "f64", max_iterations=cap))
    assert got.iterations == (5 if cap is None else cap)
