"""Level passes against the reference implementations they replaced.

``coarsen_forest`` must reproduce :func:`oracle.reference_coarsen` exactly:
the same mesh, bit-identical values and trackers, and the same iteration
count. ``decompress`` and ``expand_to_uniform`` must reproduce
:func:`oracle.reference_expand` byte for byte. The sweeps cover every 2D
shape up to 9x9 and every 3D shape up to 5x5x5, plus a few long and
degenerate shapes. For coarsening, each shape gets several configurations,
rotated through bound kinds, dtypes, domains, modes and iteration caps (a
capped level pass is :func:`oracle.capped_coarsen`); for expansion, random
meshes carry payloads of every value kind.
"""

import itertools

import numpy as np
import pytest

from amrc import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    CompressedVariable,
    CompressionConfig,
    CompressStats,
    Criterion,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    coarsen_forest,
    compress_many,
    decompress,
    deserialize_refinement,
    expand_to_uniform,
    serialize_refinement,
)
from amrc.codec import VALUE_KIND_DTYPES
from amrc.fields import smooth
from conftest import random_mesh
from oracle import capped_coarsen, mesh_equal, reference_coarsen, reference_expand

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


def coarsen(arrays, shape, spec, value_kind, cap):
    """``coarsen_forest``, or under a cap the oracle's capped level pass."""
    if cap is None:
        return coarsen_forest(arrays, shape, spec, value_kind)
    return capped_coarsen(arrays, shape, spec, value_kind, cap)


def assert_same(got, want):
    assert mesh_equal(got.mesh, want.mesh)
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
        got = coarsen(arrays, shape, spec, kind, cap)
        want = reference_coarsen(arrays, shape, spec, kind, max_iterations=cap)
        assert_same(got, want)


@pytest.mark.parametrize("cap", [0, 1, 2, 3, None])
def test_iteration_cap_counts_accepting_levels(cap):
    field = smooth((37, 52), seed=3)
    shape = GridShape((37, 52))
    spec = ErrorSpec(Criterion("abs", 3.0))  # five accepting levels uncapped
    got = coarsen([field], shape, spec, "f64", cap)
    assert_same(got, reference_coarsen([field], shape, spec, "f64", max_iterations=cap))
    assert got.iterations == (5 if cap is None else cap)


def random_payload(rng, n, dtype):
    """``n`` values spread over ``dtype``'s range, led by a few edge values."""
    dt = np.dtype(dtype)
    if dt.kind == "f":
        fi = np.finfo(dt)
        edges = [-0.0, fi.max, -fi.max, fi.smallest_subnormal]
        vals = rng.normal(scale=1e3, size=n).astype(dt)
    else:
        ii = np.iinfo(dt)
        edges = [ii.min, ii.max, 0, -1]
        vals = rng.integers(ii.min, ii.max, size=n, endpoint=True).astype(dt)
    k = min(n, len(edges))
    vals[:k] = np.array(edges[:k], dtype=dt)
    return vals


@pytest.mark.parametrize("value_kind", sorted(VALUE_KIND_DTYPES))
def test_expansion_matches_reference(value_kind):
    rng = np.random.default_rng(sorted(VALUE_KIND_DTYPES).index(value_kind))
    dtype = VALUE_KIND_DTYPES[value_kind]
    for extents in SHAPES:
        shape = GridShape(extents)
        mesh = random_mesh(shape, rng, rounds=int(rng.integers(0, 6)))
        bits = serialize_refinement(mesh)
        assert mesh_equal(deserialize_refinement(bits, shape), mesh)
        data = ~mesh.dummy
        payload = random_payload(rng, int(data.sum()), dtype)
        leaf = np.zeros(mesh.n_leaves, dtype=dtype)
        leaf[data] = payload
        var = CompressedVariable(shape, value_kind, bits, payload, Criterion("abs", 0.0))
        got, want = decompress(var), reference_expand(mesh, leaf)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # dummy leaves hold 0.0 here and NaN below; neither may reach the grid
        want = reference_expand(mesh, leaf.astype(np.float64)).tobytes()
        assert expand_to_uniform(mesh, leaf).tobytes() == want
        vals = leaf.astype(np.float64)
        vals[~data] = np.nan
        assert expand_to_uniform(mesh, vals).tobytes() == want


# Level classes of the level kernel: even extents with three or more
# accepting levels, and extents that turn odd only at an upper level.
LEVEL_SHAPES = [(64, 64), (16, 16, 16), (40, 56), (12, 10, 9), (200, 200)]


@pytest.mark.parametrize("cap", [0, 1, None])
@pytest.mark.parametrize("extents", LEVEL_SHAPES)
def test_matches_reference_level_classes(extents, cap):
    rng = np.random.default_rng(sum(extents))
    iterations = []
    # a gentle ramp with small waves, so families up to half the grid can collapse
    ramp = 3.0 + 0.5 * sum(i / e for i, e in zip(np.indices(extents), extents))
    for kind, bound, dtype, n_vars in [("abs", 0.4, np.float32, 1), ("rel", 0.1, np.float64, 2)]:
        arrays = [(ramp + 0.05 * smooth(extents, seed=int(rng.integers(1 << 30))))
                  .astype(dtype).reshape(-1) for _ in range(n_vars)]
        spec = ErrorSpec(Criterion(kind, bound), random_domains(rng, extents, kind, bound))
        value_kind = "f32" if dtype == np.float32 else "f64"
        got = coarsen(arrays, GridShape(extents), spec, value_kind, cap)
        want = reference_coarsen(arrays, GridShape(extents), spec, value_kind,
                                 max_iterations=cap)
        assert_same(got, want)
        iterations.append(got.iterations)
    # uncapped, the pass reaches the upper (and there odd) levels
    assert iterations == [cap, cap] if cap is not None else max(iterations) >= 3


def assert_compress_matches_mesh_path(arrays, shape, spec, value_kind, mode):
    """``compress_many`` against ``coarsen_forest`` and the reference sweep.

    Compression emits its bit-field and payload straight from the level
    grids. Each variable must hold the serialized mesh of the mesh path, its
    data leaves' values in the storage dtype, and the mesh path's stats.
    """
    got = compress_many(arrays, shape, CompressionConfig(spec, mode=mode))
    dtype = np.dtype(VALUE_KIND_DTYPES[value_kind])
    want = []
    for group in ([[a] for a in arrays] if mode == ONE_FOR_ONE else [arrays]):
        res = coarsen_forest(group, shape, spec, value_kind)
        assert_same(res, reference_coarsen(group, shape, spec, value_kind))
        bits, data = serialize_refinement(res.mesh), ~res.mesh.dummy
        for values, trackers in zip(res.values, res.trackers):
            stats = CompressStats(res.iterations, res.mesh.n_leaves, float(trackers[data].max()))
            want.append((bits, values[data].astype(dtype), stats))
    assert len(got) == len(want)
    for var, (bits, payload, stats) in zip(got, want):
        assert var.mesh_bits == bits
        assert var.payload.dtype == dtype and var.payload.tobytes() == payload.tobytes()
        assert var.stats == stats


@pytest.mark.parametrize("mode", [ONE_FOR_ONE, ONE_FOR_ALL])
def test_compress_matches_mesh_path(mode):
    rng = np.random.default_rng(7)
    for i, extents in enumerate(SHAPES):
        # compress has no iteration cap: capped configs run to completion here
        arrays, shape, spec, kind, _ = make_case(extents, CONFIGS[i % len(CONFIGS)], rng)
        if kind == "i16" and i % 2:
            arrays, kind = [a.astype(np.int32) for a in arrays], "i32"
        assert_compress_matches_mesh_path(arrays, shape, spec, kind, mode)


@pytest.mark.parametrize("extents", [(1, 1), (1, 1, 1), (8, 8), (5, 7), (3, 4, 5), (1, 33)])
def test_compress_collapse_to_root_matches_mesh_path(extents):
    n = int(np.prod(extents))
    arrays = [np.full(n, 2.5, np.float32), np.linspace(0.0, 1.0, n, dtype=np.float32)]
    spec = ErrorSpec(Criterion("abs", 1.0))
    for mode in (ONE_FOR_ONE, ONE_FOR_ALL):
        assert_compress_matches_mesh_path(arrays, GridShape(extents), spec, "f32", mode)
    var = compress_many(arrays, GridShape(extents), CompressionConfig(spec))[1]
    assert var.mesh_bits == b"" and var.stats.leaf_count == 1
