"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

import numpy as np

from amrc import (
    CompressionConfig,
    Criterion,
    ErrorDomain,
    ErrorSpec,
    ForestMesh,
    GridShape,
    Packing,
    build_initial_mesh,
    coarsen_forest,
    compress,
    compress_many,
    decompress,
    deserialize_refinement,
    packed_bound,
    read_artifact,
    serialize_refinement,
    split_axis,
    write_artifact,
)
from amrc.fields import layered, noise, smooth
from amrc.morton import MAX_LEVEL, deinterleave, interleave
from oracle import capped_coarsen, dummy_flags, exact_leaf_deviations, mesh_equal
from test_container import random_variable, var_equal

ABS_MULTS = (0.0, 0.01, 0.1, 1.0, 10.0)
REL_BOUNDS = (0.005, 0.01, 0.025, 0.05)


def abs_config(bound):
    return CompressionConfig(ErrorSpec(Criterion("abs", bound)))


def corpus(n=200, seed=20250809):
    """Deterministic mix of smooth, layered, and noisy fields, 2D and 3D."""
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(n):
        gen = (smooth, layered, noise)[i % 3]
        if i % 2 == 0:
            extents = tuple(int(e) for e in rng.integers(3, 129, size=2))
        else:
            extents = tuple(int(e) for e in rng.integers(3, 33, size=3))
        fields.append(gen(extents, seed=i))
    return fields


def test_c01_bound_compliance_absolute():
    t0 = time.time()
    runs = violations = 0
    for field in corpus():
        shape = GridShape(field.shape)
        flat = field.reshape(-1)
        span = float(flat.max() - flat.min())
        for mult in ABS_MULTS:
            eps = mult * span
            out = decompress(compress(flat, shape, abs_config(eps)))
            runs += 1
            if float(np.abs(out - flat).max()) > eps:
                violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 120.0
    print(f"\n[acceptance] C1 absolute bound compliance: PASS "
          f"({runs} runs, {violations} violations, {elapsed:.1f}s)")


def test_c02_bound_compliance_relative():
    runs = violations = 0
    for field in corpus():
        flat = field.reshape(-1)
        flat = flat - flat.min() + 1.0  # all-positive corpus
        shape = GridShape(field.shape)
        for delta in REL_BOUNDS:
            cfg = CompressionConfig(ErrorSpec(Criterion("rel", delta)))
            out = decompress(compress(flat, shape, cfg))
            runs += 1
            if float((np.abs(out - flat) / np.abs(flat)).max()) > delta:
                violations += 1
    assert violations == 0
    print(f"\n[acceptance] C2 relative bound compliance: PASS "
          f"({runs} runs, {violations} violations)")


def test_c03_estimator_soundness_vs_oracle():
    shapes_2d = list(itertools.product(range(1, 17), range(1, 17)))
    shapes_3d = list(itertools.product(range(1, 9), range(1, 9), range(1, 9)))
    rng = np.random.default_rng(77)
    fields = leaves = 0
    for kind in ("abs", "rel"):
        for extents in shapes_2d + shapes_3d:
            field = rng.normal(size=extents)
            if kind == "rel":
                field = np.abs(field) + 0.5
            shape = GridShape(extents)
            span = float(field.max() - field.min())
            bound = 0.4 * span if kind == "abs" else 0.05
            spec = ErrorSpec(Criterion(kind, bound))
            # soundness at the fixpoint: tracker >= exact deviation everywhere
            res = coarsen_forest([field.reshape(-1)], shape, spec, "f64")
            exact = exact_leaf_deviations(res.mesh, res.values[0], field)
            assert np.all(res.trackers[0] >= exact)
            # exactness after the first iteration
            first = capped_coarsen([field.reshape(-1)], shape, spec, "f64", 1)
            exact1 = exact_leaf_deviations(first.mesh, first.values[0], field)
            assert np.array_equal(first.trackers[0], exact1)
            fields += 1
            leaves += res.mesh.n_leaves
    print(f"\n[acceptance] C3 estimator soundness vs oracle: PASS "
          f"({fields} fields over all grids <=16x16 and <=8x8x8, {leaves} leaves checked)")


def test_c04_monotonicity():
    checked = 0
    for field in corpus(30, seed=4):
        shape = GridShape(field.shape)
        flat = field.reshape(-1)
        span = float(flat.max() - flat.min())
        leaf_counts, byte_sizes = [], []
        for mult in sorted(ABS_MULTS):
            var = compress(flat, shape, abs_config(mult * span))
            leaf_counts.append(var.stats.leaf_count)
            byte_sizes.append(len(write_artifact([var])))
        assert leaf_counts == sorted(leaf_counts, reverse=True)
        assert byte_sizes == sorted(byte_sizes, reverse=True)
        checked += 1
    print(f"\n[acceptance] C4 monotone size vs bound: PASS ({checked} fields, "
          f"leaf counts and artifact bytes non-increasing)")


def test_c05_losslessness_at_zero_bound():
    rng = np.random.default_rng(55)
    extents = (21, 13)
    for dtype in (np.float32, np.float64, np.int16, np.int32):
        if np.dtype(dtype).kind == "f":
            data = rng.normal(size=extents).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=extents,
                                endpoint=True).astype(dtype)
        out = decompress(compress(data.reshape(-1), GridShape(extents), abs_config(0.0)))
        assert out.tobytes() == np.ascontiguousarray(data.reshape(-1)).tobytes()
    print("\n[acceptance] C5 zero-bound losslessness: PASS (f32/f64/i16/i32 bit-exact)")


def test_c06_mesh_fixtures():
    # ten-leaf fixture: root -> 4 children, child 0 refined, its last child refined
    shape = GridShape((8, 8))
    codes = np.array([0, 1, 2, 12, 13, 14, 15, 1, 2, 3], dtype=np.uint64)
    levels = np.array([2, 2, 2, 3, 3, 3, 3, 1, 1, 1], dtype=np.uint8)
    keys = codes << (2 * (3 - levels.astype(np.int64))).astype(np.uint64)
    order = np.argsort(keys)
    codes, levels = codes[order], levels[order]
    mesh = ForestMesh(shape, codes, levels, dummy_flags(codes, levels, shape))
    bits = serialize_refinement(mesh)
    # byte-padded levels: 1 | 1000 | 00010000  (LSB-first per byte)
    assert bits == bytes([0b1, 0b1, 0b1000])
    rebuilt = deserialize_refinement(bits, shape)
    assert mesh_equal(rebuilt, mesh) and rebuilt.n_leaves == 10

    init = build_initial_mesh(GridShape((6, 6)))
    assert init.initial_level == 3
    assert int((~init.dummy).sum()) == 36
    assert int(init.dummy.sum()) == 7
    print("\n[acceptance] C6 mesh fixtures: PASS (bit-field 1|1000|00010000; "
          "6x6 grid -> l0=3, 36 data + 7 dummy leaves)")


def test_c07_morton_bijection():
    checked = 0
    for dim in (2, 3):
        for level in range(0, 7):
            n = 1 << level
            grids = np.meshgrid(*([np.arange(n, dtype=np.uint64)] * dim), indexing="ij")
            coords = tuple(g.reshape(-1) for g in grids)
            codes = interleave(coords, dim)
            assert len(np.unique(codes)) == n ** dim
            back = deinterleave(codes, dim)
            for a in range(dim):
                assert np.array_equal(back[a], coords[a])
            checked += n ** dim
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        levels = range(7, MAX_LEVEL[dim] + 1)
        per_level = 1_000_000 // len(levels)
        for level in levels:
            coords = tuple(rng.integers(0, 1 << level, size=per_level).astype(np.uint64)
                           for _ in range(dim))
            back = deinterleave(interleave(coords, dim), dim)
            for a in range(dim):
                assert np.array_equal(back[a], coords[a])
            checked += per_level
    print(f"\n[acceptance] C7 Morton bijection: PASS "
          f"(exhaustive levels <=6 plus randomized, {checked} codes, 0 failures)")


def test_c08_packed_data_equivalence():
    rng = np.random.default_rng(88)
    scale, offset = 1.0 / 128.0, 250.0  # power-of-two scale: eps/scale is exact
    eps = 1.0
    extents = (32, 32)
    packed = np.clip(np.rint(smooth(extents, seed=8) * 800
                             + rng.normal(scale=20, size=extents)),
                     -30000, 30000).astype(np.int16)
    cfg = CompressionConfig(ErrorSpec(Criterion("abs", packed_bound(eps, scale))),
                            packing=Packing(scale, offset))
    var = compress(packed.reshape(-1), GridShape(extents), cfg)
    assert var.payload.dtype == np.dtype("<i2")
    out = decompress(var)
    unpacked = scale * out.astype(np.float64) + offset
    original = scale * packed.reshape(-1).astype(np.float64) + offset
    worst = float(np.abs(unpacked - original).max())
    assert worst <= eps
    assert len(var.payload) < packed.size  # rounding charge still allows coarsening
    print(f"\n[acceptance] C8 packed-data equivalence: PASS "
          f"(eps_packed = {packed_bound(eps, scale)}, unpacked deviation {worst:.4g} <= {eps})")


def test_c09_split_axis_advantage():
    extents = (8, 32, 32)
    field = layered(extents, seed=9)  # 1000*layer + smooth slice
    whole = compress(field.reshape(-1), GridShape(extents), abs_config(1.0))
    parts = compress_many(split_axis(field, 0), GridShape(extents[1:]), abs_config(1.0))
    split_payload = sum(len(v.payload) for v in parts)
    assert split_payload < len(whole.payload)
    print(f"\n[acceptance] C9 split-axis advantage: PASS "
          f"(split payload {split_payload} < 3D payload {len(whole.payload)})")


def test_c10_container_roundtrip():
    rng = np.random.default_rng(10)
    for trial in range(1000):
        mode = "one-for-one" if rng.random() < 0.5 else "one-for-all"
        packing = Packing(float(np.abs(rng.normal()) + 0.1), float(rng.normal())) \
            if rng.random() < 0.25 else None
        first = random_variable(rng, mode=mode, packing=packing)
        variables = [first]
        for _ in range(int(rng.integers(0, 3))):
            variables.append(random_variable(
                rng, mode=mode, packing=packing, value_kind=first.value_kind,
                shape=first.shape, criterion=first.criterion,
                mesh_bits=first.mesh_bits if mode == "one-for-all" else None))
        blob = write_artifact(variables)
        back, header = read_artifact(blob)
        assert all(var_equal(a, b) for a, b in zip(back, variables))
        assert write_artifact(back, post_pass=header.post_pass) == blob
    print("\n[acceptance] C10 container round-trip: PASS "
          "(1000 artifacts, read∘write and write∘read byte-exact)")


def test_c11_domain_fixture():
    field = smooth((32, 32), seed=11) * 10
    box = ((0, 12), (0, 12))
    spec = ErrorSpec(Criterion("abs", 6.0),
                     (ErrorDomain(box, Criterion("abs", 0.0)),))
    var = compress(field.reshape(-1), GridShape((32, 32)), CompressionConfig(spec))
    out = decompress(var).reshape(32, 32)
    assert np.array_equal(out[:12, :12], field[:12, :12])  # bit-exact inside the box
    assert np.abs(out - field).max() <= 6.0
    assert var.stats.leaf_count < field.size  # remainder still compressed
    print(f"\n[acceptance] C11 zero-bound domain fixture: PASS "
          f"(box bit-exact, {var.stats.leaf_count} leaves for {field.size} points)")
