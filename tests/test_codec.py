import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import amrc
from amrc import (
    ConfigError,
    CompressionConfig,
    CorruptArtifactError,
    Criterion,
    DataError,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    ONE_FOR_ALL,
    Packing,
    ShapeError,
    coarsen_forest,
    compress,
    compress_many,
    decompress,
    decompress_many,
    deserialize_refinement,
    packed_bound,
    read_artifact,
    split_axis,
    stack_axis,
    write_artifact,
)
from amrc import codec, mesh, morton
from amrc.cli import main
from amrc.fields import layered, noise, smooth
from conftest import huge_root_artifact
from oracle import exact_leaf_deviations, reference_expand, walk_levels


def abs_config(bound, **kw):
    return CompressionConfig(ErrorSpec(Criterion("abs", bound)), **kw)


def rel_config(bound, **kw):
    return CompressionConfig(ErrorSpec(Criterion("rel", bound)), **kw)


def mesh_of(var):
    return deserialize_refinement(var.mesh_bits, var.shape)


def refines(fine, coarse):
    """True if every leaf of ``fine`` is a descendant-or-equal of a leaf of ``coarse``."""
    pos = np.searchsorted(coarse.aligned_codes(), fine.aligned_codes(), side="right") - 1
    shift = (fine.dim * (fine.levels.astype(np.int64)
                         - coarse.levels[pos].astype(np.int64)))
    if (shift < 0).any():
        return False
    return bool(np.all((fine.codes >> shift.astype(np.uint64)) == coarse.codes[pos]))


class TestCompressBasics:
    def test_constant_field_collapses_to_root(self):
        for bound in (0.0, 1.0, 100.0):
            var = compress(np.full(64, 3.25), GridShape((8, 8)), abs_config(bound))
            assert len(var.payload) == 1 and var.payload[0] == 3.25
            assert var.mesh_bits == b""

    def test_quadrant_field_stops_at_level_one(self):
        # uniform quadrants with means 10 apart: quadrants collapse, root is rejected
        field = np.zeros((4, 4))
        field[:2, :2], field[:2, 2:], field[2:, :2], field[2:, 2:] = 0.0, 10.0, 20.0, 30.0
        var = compress(field.reshape(-1), GridShape((4, 4)), abs_config(1.0))
        mesh = mesh_of(var)
        assert mesh.n_leaves == 4
        assert np.all(mesh.levels == 1)
        assert sorted(var.payload.tolist()) == [0.0, 10.0, 20.0, 30.0]
        assert var.stats.iterations == 1

    def test_zero_bound_noise_keeps_everything(self, rng):
        field = rng.random(64)
        var = compress(field, GridShape((8, 8)), abs_config(0.0))
        assert len(var.payload) == 64
        assert np.array_equal(decompress(var), field)

    def test_non_finite_rejected(self):
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(DataError):
            compress(bad, GridShape((4, 4)), abs_config(1.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_rejected_wherever_it_sits(self, dtype, bad):
        """The level kernel finds a non-finite value in the extremes of its
        first height, where every input cell is a member of one family: at
        either end of the grid, beside the pad children of odd extents, in
        grids of one row, one column or one cell, in 3D, and in the second
        variable of a shared mesh. The bound accepts every finite family."""
        places = [((37, 53), [(0, 0), (36, 52), (36, 10), (10, 52), (35, 51)]),
                  ((1, 1), [(0, 0)]),
                  ((1, 9), [(0, 0), (0, 4), (0, 8)]),
                  ((9, 1), [(0, 0), (8, 0)]),
                  ((5, 7, 9), [(0, 0, 0), (4, 6, 8), (4, 0, 3), (2, 6, 0), (1, 3, 8)])]
        config = abs_config(1e9, mode=ONE_FOR_ALL)
        for extents, cells in places:
            good = smooth(extents).astype(dtype)
            shape = GridShape(extents)
            assert len(compress_many([good, good], shape, config)[0].payload) == 1
            for cell in cells:
                field = good.copy()
                field[cell] = bad
                for variables in ([field], [good, field]):
                    with pytest.raises(DataError, match="non-finite"):
                        compress_many(variables, shape, config)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ConfigError):
            compress(np.zeros(16, dtype=np.int64), GridShape((4, 4)), abs_config(1.0))

    @pytest.mark.parametrize("kind", ["f32", "i16", "i32", "f16"])
    def test_value_kind_must_match_dtype(self, kind):
        # float64 values near its maximum would overflow the kernel's sums,
        # which only f64 data may reach
        field = np.full(16, np.finfo(np.float64).max)
        with pytest.raises(ConfigError, match="value kind"):
            coarsen_forest([field], GridShape((4, 4)), ErrorSpec(Criterion("abs", 1.0)), kind)

    @pytest.mark.parametrize("call, match", [
        (lambda: abs_config(1.0, mode="one-for-some"), "unknown mode"),
        (lambda: abs_config(1.0, split_axis=-1), "non-negative axis"),
        (lambda: compress_many([], GridShape((4, 4)), abs_config(1.0)), "no variables"),
        (lambda: coarsen_forest([], GridShape((4, 4)), ErrorSpec(Criterion("abs", 1.0)), "f64"),
         "no variables"),
    ], ids=["unknown-mode", "negative-split-axis", "compress-none", "coarsen-none"])
    def test_config_errors(self, call, match):
        with pytest.raises(ConfigError, match=match):
            call()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="expected 16 values, got 15"):
            compress(np.zeros(15), GridShape((4, 4)), abs_config(1.0))


class TestExtremeMagnitudes:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_family_means_near_f64_max(self):
        # sums of these members overflow f64; the means must not, and scaling
        # by a power of two must commute with the whole coarsening
        top = np.finfo(np.float64).max
        field = np.where(np.indices((4, 4)).sum(axis=0) % 2 == 0, 0.8, 0.9).reshape(-1)
        shape = GridShape((4, 4))
        var = compress(field * top, shape, abs_config(1e308))
        assert var.stats.leaf_count == 1 and var.stats.iterations == 2
        assert np.abs(decompress(var) - field * top).max() <= 1e308
        scale = 2.0 ** -10
        big = coarsen_forest([field * top], shape, ErrorSpec(Criterion("abs", 1e308)), "f64")
        small = coarsen_forest([field * top * scale], shape,
                               ErrorSpec(Criterion("abs", 1e308 * scale)), "f64")
        assert np.array_equal(big.values[0] * scale, small.values[0])
        assert np.array_equal(big.trackers[0] * scale, small.trackers[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("config", [abs_config(1e308), rel_config(1.0)])
    def test_opposite_signs_near_f64_max(self, config):
        # the deviation of the mean from the negative member overflows to inf,
        # which must reject the family without a warning
        field = np.array([0.9, 0.9, 0.9, -0.9]) * np.finfo(np.float64).max
        var = compress(field, GridShape((2, 2)), config)
        assert var.stats.leaf_count == 4 and var.stats.iterations == 0
        assert np.array_equal(decompress(var), field)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_integer_extremes_collapse_under_rel_one(self, dtype):
        # the mean rounds to 0, which is exactly 1 relative to either extreme;
        # the magnitude of the integer minimum wraps in its own dtype, so the
        # relative check must not take it there
        info = np.iinfo(dtype)
        field = np.array([[info.min, info.max], [0, 0]], dtype=dtype)
        var = compress(field, GridShape((2, 2)), rel_config(1.0))
        assert var.stats.leaf_count == 1 and var.payload.tolist() == [0]


class TestBoundCompliance:
    @pytest.mark.parametrize("gen,extents", [
        (smooth, (33, 47)), (layered, (12, 20)), (noise, (16, 16)),
        (smooth, (9, 10, 11)), (noise, (8, 8, 8)),
    ])
    def test_absolute(self, gen, extents):
        field = gen(extents, seed=7)
        span = float(field.max() - field.min())
        shape = GridShape(extents)
        for mult in (0.0, 0.01, 0.1, 1.0, 10.0):
            eps = mult * span
            var = compress(field.reshape(-1), shape, abs_config(eps))
            out = decompress(var)
            assert np.abs(out - field.reshape(-1)).max() <= eps

    @pytest.mark.parametrize("extents", [(33, 47), (16, 16), (9, 10, 11)])
    def test_relative(self, extents):
        field = smooth(extents, seed=3)
        field = field - field.min() + 1.0
        shape = GridShape(extents)
        for delta in (0.005, 0.01, 0.025, 0.05, 1.0):
            var = compress(field.reshape(-1), shape, rel_config(delta))
            out = decompress(var)
            rel = np.abs(out - field.reshape(-1)) / np.abs(field.reshape(-1))
            assert rel.max() <= delta

    def test_relative_mode_actually_coarsens(self):
        # trackers are absolute quantities; they must never be compared
        # against the relative bound, or smooth data stops compressing
        field = smooth((64, 64), seed=3) * 100 + 1000.0
        var = compress(field.reshape(-1), GridShape((64, 64)), rel_config(0.05))
        assert len(var.payload) < field.size / 4
        assert var.stats.iterations >= 2

    def test_tracker_bounds_exact_deviation(self, rng):
        for extents in [(11, 13), (16, 16), (7, 6, 5)]:
            field = rng.normal(size=extents)
            span = float(field.max() - field.min())
            res = coarsen_forest([field.reshape(-1)], GridShape(extents),
                                 ErrorSpec(Criterion("abs", 0.3 * span)), "f64")
            exact = exact_leaf_deviations(res.mesh, res.values[0], field)
            assert np.all(res.trackers[0] >= exact)

    def test_zero_bound_only_merges_identical(self):
        field = np.array([[1.0, 1.0, 2.0, 2.0],
                          [1.0, 1.0, 2.0, 2.0],
                          [3.0, 3.0, 4.0, 5.0],
                          [3.0, 3.0, 6.0, 7.0]])
        var = compress(field.reshape(-1), GridShape((4, 4)), abs_config(0.0))
        mesh = mesh_of(var)
        levels, counts = np.unique(mesh.levels, return_counts=True)
        assert levels.tolist() == [1, 2] and counts.tolist() == [3, 4]
        assert np.array_equal(decompress(var), field.reshape(-1))


class TestMonotonicity:
    def test_leaf_count_non_increasing_in_bound(self, rng):
        for seed in range(5):
            field = smooth((31, 22), seed=seed) + 0.1 * noise((31, 22), seed=seed)
            shape = GridShape((31, 22))
            counts = []
            for eps in (0.0, 0.01, 0.05, 0.2, 1.0, 5.0):
                var = compress(field.reshape(-1), shape, abs_config(eps))
                counts.append(var.stats.leaf_count)
            assert counts == sorted(counts, reverse=True)


class TestMultivariate:
    shape = GridShape((16, 16))

    def test_identical_variables_share_solo_mesh(self, rng):
        field = smooth((16, 16), seed=5).reshape(-1)
        solo = compress(field, self.shape, abs_config(0.1))
        both = compress_many([field, field.copy()], self.shape,
                             abs_config(0.1, mode="one-for-all"))
        assert both[0].mesh_bits == solo.mesh_bits
        assert both[0].mesh_bits == both[1].mesh_bits
        assert np.array_equal(both[0].payload, both[1].payload)

    def test_constant_variable_never_blocks(self, rng):
        a = np.full(256, 2.0)
        b = noise((16, 16), seed=9).reshape(-1)
        solo_b = compress(b, self.shape, abs_config(0.05))
        pair = compress_many([a, b], self.shape, abs_config(0.05, mode="one-for-all"))
        assert pair[0].mesh_bits == solo_b.mesh_bits

    def test_disjoint_coarsenable_halves_block_each_other(self):
        # A is flat on the left half only, B on the right half only
        idx = np.arange(256, dtype=np.float64).reshape(16, 16)
        a = np.where(np.arange(16) < 8, 0.0, 1000.0 + idx)
        b = np.where(np.arange(16) >= 8, 0.0, 1000.0 + idx)
        solo_a = compress(a.reshape(-1), self.shape, abs_config(0.5))
        solo_b = compress(b.reshape(-1), self.shape, abs_config(0.5))
        assert solo_a.stats.leaf_count < 256
        pair = compress_many([a.reshape(-1), b.reshape(-1)], self.shape,
                             abs_config(0.5, mode="one-for-all"))
        assert pair[0].stats.leaf_count == 256  # nowhere do both accept

    def test_one_for_all_refines_each_solo_mesh(self, rng):
        vars_in = [smooth((16, 16), seed=s).reshape(-1) for s in range(3)]
        solos = [compress(v, self.shape, abs_config(0.2)) for v in vars_in]
        shared = compress_many(vars_in, self.shape, abs_config(0.2, mode="one-for-all"))
        shared_mesh = mesh_of(shared[0])
        for solo in solos:
            assert refines(shared_mesh, mesh_of(solo))

    def test_one_for_one_is_loop_of_solos(self):
        vars_in = [smooth((16, 16), seed=s).reshape(-1) for s in range(2)]
        many = compress_many(vars_in, self.shape, abs_config(0.2))
        solos = [compress(v, self.shape, abs_config(0.2)) for v in vars_in]
        for m, s in zip(many, solos):
            assert m.mesh_bits == s.mesh_bits
            assert np.array_equal(m.payload, s.payload)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ConfigError):
            compress_many([np.zeros(256, np.float32), np.zeros(256, np.float64)],
                          self.shape, abs_config(1.0))


class TestSplitAxis:
    def test_level_dimension_split(self):
        arr = np.zeros((1440, 721, 37), dtype=np.int8)
        slices = split_axis(arr, 2)
        assert len(slices) == 37
        assert all(s.shape == (1440, 721) for s in slices)

    def test_split_roundtrip_matches_unsplit(self, rng):
        arr = rng.normal(size=(4, 4, 2))
        whole = compress(arr.reshape(-1), GridShape((4, 4, 2)), abs_config(0.0))
        slices = split_axis(arr, 2)
        parts = compress_many(slices, GridShape((4, 4)), abs_config(0.0))
        restacked = stack_axis(
            [decompress(v).reshape(4, 4) for v in parts], 2)
        assert np.array_equal(restacked.reshape(-1), decompress(whole))
        assert np.array_equal(restacked, arr)

    def test_split_beats_3d_on_layered_field(self):
        field = layered((8, 16, 16), seed=2)
        whole = compress(field.reshape(-1), GridShape((8, 16, 16)), abs_config(1.0))
        parts = compress_many(split_axis(field, 0), GridShape((16, 16)), abs_config(1.0))
        assert sum(len(v.payload) for v in parts) < len(whole.payload)

    def test_axis_out_of_range(self):
        with pytest.raises(Exception):
            split_axis(np.zeros((2, 2, 2)), 3)
        with pytest.raises(Exception):
            split_axis(np.zeros((2, 2)), 0)


class TestPacked:
    def test_packed_bound(self):
        assert packed_bound(1.0, 0.01) == 100.0
        assert packed_bound(2.5, 2.5) == 1.0
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                packed_bound(1.0, scale)

    @pytest.mark.parametrize("scale,offset", [(np.inf, 0.0), (np.nan, 0.0), (0.0, 0.0),
                                              (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)])
    def test_packing_needs_finite_record(self, scale, offset):
        with pytest.raises(ConfigError):
            Packing(scale, offset)

    def test_integer_compression_respects_bound(self, rng):
        packed = rng.integers(-300, 300, size=(16, 16)).astype(np.int16)
        scale, offset = 1.0 / 128.0, 250.0
        eps = 0.5
        cfg = abs_config(packed_bound(eps, scale), packing=Packing(scale, offset))
        var = compress(packed.reshape(-1), GridShape((16, 16)), cfg)
        assert var.payload.dtype == np.dtype("<i2")
        out = decompress(var)
        assert out.dtype == np.dtype("<i2")
        unpacked = scale * out.astype(np.float64) + offset
        original = scale * packed.reshape(-1).astype(np.float64) + offset
        assert np.abs(unpacked - original).max() <= eps

    def test_i32_zero_bound_lossless(self, rng):
        data = rng.integers(-(2 ** 20), 2 ** 20, size=(8, 8)).astype(np.int32)
        var = compress(data.reshape(-1), GridShape((8, 8)), abs_config(0.0))
        assert np.array_equal(decompress(var), data.reshape(-1))

    def test_rounding_charged_before_check(self):
        # exact mean is 0.25 (deviation 0.75) but the stored value is the
        # rounded 0 (deviation 1.0); at eps=0.8 the merge must be refused,
        # which only happens if the check sees the rounded candidate
        data = np.array([[0, 1], [0, 0]], dtype=np.int16).reshape(-1)
        for eps in (0.74, 0.8, 0.99):
            var = compress(data, GridShape((2, 2)), abs_config(eps))
            out = decompress(var)
            assert np.abs(out.astype(np.int64) - data.astype(np.int64)).max() <= eps
            assert len(var.payload) == 4  # no merge below deviation 1.0
        var = compress(data, GridShape((2, 2)), abs_config(1.0))
        out = decompress(var)
        assert len(var.payload) == 1
        assert np.abs(out.astype(np.int64) - data.astype(np.int64)).max() <= 1


class TestValueKinds:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32])
    def test_zero_bound_roundtrip_bit_exact(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = rng.normal(size=165).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=165, endpoint=True).astype(dtype)
        var = compress(data, GridShape((15, 11)), abs_config(0.0))
        out = decompress(var)
        assert out.dtype == np.dtype(var.payload.dtype)
        assert np.array_equal(out, data)

    def test_f32_candidates_are_stored_values(self):
        # the value checked is the value stored: f32 rounding cannot break the bound
        data = np.array([1.0, 1.0 + 2 ** -20, 1.0, 1.0], dtype=np.float32)
        eps = 1e-6
        var = compress(data, GridShape((2, 2)), abs_config(eps))
        out = decompress(var)
        assert np.abs(out.astype(np.float64) - data.astype(np.float64)).max() <= eps

    @pytest.mark.parametrize("dtype,config", [
        (np.float32, abs_config(0.05)), (np.float64, rel_config(0.02)), (np.int16, abs_config(3.0)),
    ])
    def test_input_layout_does_not_change_the_artifact(self, dtype, config):
        # the finest level reads the caller's array as it is laid out
        extents = (9, 14)
        field = smooth(extents, seed=5) + 3.0
        field = (np.rint(field * 40) if np.dtype(dtype).kind == "i" else field).astype(dtype)
        shape = GridShape(extents)
        want = write_artifact([compress(field, shape, config)])
        wide = np.zeros((9, 28), dtype)
        wide[:, ::2] = field
        layouts = {
            "big-endian": field.astype(field.dtype.newbyteorder(">")),
            "fortran": np.asfortranarray(field),
            "strided": wide[:, ::2],
            "reversed": np.ascontiguousarray(field[::-1, ::-1])[::-1, ::-1],
        }
        for name, arr in layouts.items():
            assert np.array_equal(arr, field)
            assert write_artifact([compress(arr, shape, config)]) == want, name
        shared = compress_many([field, field], shape, CompressionConfig(config.spec, ONE_FOR_ALL))
        mixed = compress_many([field, layouts["big-endian"]], shape,
                              CompressionConfig(config.spec, ONE_FOR_ALL))
        assert write_artifact(mixed) == write_artifact(shared)


class TestDomains:
    def test_zero_bound_domain_is_bit_exact_inside(self, rng):
        field = smooth((16, 16), seed=11)
        spec = ErrorSpec(
            Criterion("abs", 5.0),
            (ErrorDomain(((0, 8), (0, 8)), Criterion("abs", 0.0)),),
        )
        var = compress(field.reshape(-1), GridShape((16, 16)), CompressionConfig(spec))
        out = decompress(var).reshape(16, 16)
        assert np.array_equal(out[:8, :8], field[:8, :8])
        assert var.stats.leaf_count < 256  # the rest still compressed
        assert np.abs(out - field).max() <= 5.0

    def test_domain_bound_respected_at_its_cells(self, rng):
        field = smooth((32, 32), seed=13) * 10
        box = ((4, 20), (8, 24))
        spec = ErrorSpec(
            Criterion("abs", 8.0),
            (ErrorDomain(box, Criterion("abs", 0.05)),),
        )
        var = compress(field.reshape(-1), GridShape((32, 32)), CompressionConfig(spec))
        out = decompress(var).reshape(32, 32)
        dev = np.abs(out - field)
        assert dev[box[0][0]:box[0][1], box[1][0]:box[1][1]].max() <= 0.05
        assert dev.max() <= 8.0


    @pytest.mark.parametrize("box", [((0, 4), (0, 4)), ((0, 4),) * 4])
    def test_box_of_wrong_dimension_rejected(self, box):
        # a 2-range box must not be read as a slab, nor a 4-range one fail on indexing
        spec = ErrorSpec(Criterion("abs", 1.0), (ErrorDomain(box, Criterion("abs", 0.0)),))
        field = smooth((8, 8, 8), seed=3).reshape(-1)
        with pytest.raises(ConfigError, match="3 ranges"):
            compress(field, GridShape((8, 8, 8)), CompressionConfig(spec))


class TestDecompress:
    def test_payload_mesh_mismatch_rejected(self):
        var = compress(np.zeros(16), GridShape((4, 4)), abs_config(0.0))
        with pytest.raises(CorruptArtifactError):
            decompress(dataclasses.replace(var, payload=var.payload[:-1]))

    def test_output_size_matches_grid(self, rng):
        for extents in [(5, 3), (6, 6), (3, 4, 5)]:
            field = rng.normal(size=extents).reshape(-1)
            var = compress(field, GridShape(extents), abs_config(0.5))
            assert decompress(var).shape == field.shape

    def test_decompress_many_walks_each_shared_bitfield_once(self, monkeypatch):
        # two one-for-all artifacts of different shapes, then a one-for-one one
        vs = (compress_many([layered((3, 16, 16), seed=s)[0].astype(np.float32)
                             for s in range(3)], GridShape((16, 16)),
                            abs_config(0.5, mode=ONE_FOR_ALL))
              + compress_many([smooth((12, 20), seed=s) for s in range(2)],
                              GridShape((12, 20)), abs_config(0.3, mode=ONE_FOR_ALL))
              + compress_many([(smooth((16, 16), seed=s) * 100).astype(np.int16)
                               for s in range(2)], GridShape((16, 16)), abs_config(30.0)))
        assert vs[0].mesh_bits == vs[2].mesh_bits and vs[5].mesh_bits != vs[6].mesh_bits
        want = [decompress(v) for v in vs]
        calls, walk = [], mesh._walk

        def counting(shape, leaves=None, bits=None):
            calls.append(bits)
            return walk(shape, leaves, bits)

        monkeypatch.setattr(amrc.codec, "_walk", counting)
        got = decompress_many(vs)
        assert calls == [vs[0].mesh_bits, vs[3].mesh_bits, vs[5].mesh_bits, vs[6].mesh_bits]
        assert [(g.dtype, g.tobytes()) for g in got] == [(w.dtype, w.tobytes()) for w in want]
        assert decompress_many([]) == []

    @pytest.mark.parametrize("level", [24, 31])  # 1 PiB; beyond the address width
    def test_unallocatable_grid_is_corrupt(self, level):
        (var,), _ = read_artifact(huge_root_artifact(level))
        with pytest.raises(CorruptArtifactError, match=f"{4 ** level} points"):
            decompress(var)


def _peak_cases():
    """A 3D f64 field under rel; 2D f32 fields under abs with a nested domain, one of
    1000 x 1000 and one ERA5-shaped, whose odd first axis leaves pads on the
    initial level and an odd row in the level-1 grid; and incompressible 2D f32
    noise, whose mesh is the initial one (ratio about 1)."""
    volume = smooth((64, 64, 64)) + 4.0
    plane = smooth((1000, 1000)).astype(np.float32)
    nested = ErrorSpec(Criterion("abs", 0.02),
                       (ErrorDomain(((300, 700), (300, 700)), Criterion("abs", 0.002)),))
    era5 = smooth((721, 1440)).astype(np.float32)
    era5_nested = ErrorSpec(Criterion("abs", 0.05),
                            (ErrorDomain(((181, 541), (361, 1081)), Criterion("abs", 0.005)),))
    rough = noise((1000, 1000)).astype(np.float32)
    return [(volume, rel_config(0.05)), (plane, CompressionConfig(nested)),
            (era5, CompressionConfig(era5_nested)), (rough, abs_config(1e-6))]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compress_peak_is_bounded_by_the_input():
    """Compressing and writing a field holds under a small multiple of its bytes.

    3D f64 under rel, below 1.45 times: the payload and the blob that
    ``write_artifact`` builds beside it set the peak at 1.39 times, now that
    a slab of the level kernel takes half as many families. Before that the
    kernel set it: at 1.85 times while one fused slab of heights 1 and 2
    covered this field. The walk keeps its cell indices in int32, which gave
    1.84 times. With intp indices it was 1.99 times; while every level's
    trackers, grids and gathers lived until the payload was written, and
    the writer copied the payload three times, it was 2.59.

    2D f32 under abs with a nested domain, below 0.9 times: the kernel sets
    0.85 times, now that the walk holds level 1 as families and the payload
    fill makes level 1's cells a piece of families at a time, which took the
    walk from 0.81 to 0.68 times and the fill from 0.86 to 0.75. Before
    that the fill set 0.86 times (bound 0.95), once the leaf flag grids went
    before it, the walk changed its keys in place and freed each depth's
    flags and cells before the next depth's keys were made. With twice the
    slab it was 1.18
    (bound 1.3), set by the kernel. While the two heights ran one after the
    other and the walk held an intp position per element, it was 1.56
    (bound 1.7); with float64 candidates, slab copies of the trackers and a
    bound grid of the whole level it was 2.26, and with parent-grid scratch
    2.63.

    The ERA5-shaped field, below 0.9 times, gives 0.84, set by the kernel
    (1.16 with twice the slab, bound 1.3; 1.56 before, bound 1.65). The
    noise field, below 2.1 times, gives 2.02 since the walk stops at level 1
    and the payload fill makes the initial level's cells a chunk at a time;
    while the walk held a cell index per initial-level leaf it was 3.22."""
    for (field, config), bound in zip(_peak_cases(), [1.45, 0.9, 0.9, 2.1], strict=True):
        peak = _traced_peak(
            lambda: write_artifact(compress_many([field], GridShape(field.shape), config)))
        assert peak < bound * field.nbytes, (
            f"{field.shape} peak {peak / field.nbytes:.2f} x the input bytes")


def test_decompress_peak_is_bounded_by_the_output():
    """Reading and decompressing an artifact holds under a small multiple of the output bytes.

    The decode walk keeps its cell indices in int32 and holds levels 1 and
    0 as families: one index per refined level-2 cell and one bit per
    level-1 cell. The fill lays every level in the output, makes the cells
    of levels 1 and 0 a piece of families at a time, collects the initial
    level's families in the output past level 1 while it writes level 1,
    and drops each level's entry once written. The peaks, all in the
    initial level's write, are 1.54 times the output for the 3D f64 field
    (bound 1.6), 1.22 for the 1000 x 1000 f32 one (bound 1.27), 1.23 for
    the ERA5-shaped one (bound 1.28) and 1.64 for the noise field (bound
    1.7), whose data keys and initial-level families are each a quarter of
    the output. While the walk held level 1's cells, level 2 had a grid of
    its own and the fill made the initial level's cells by key chunk, they
    were 1.56, 1.33, 1.32 and 1.77 times (bounds 1.65, 1.4, 1.4 and 1.85),
    the noise field's in the walk's level-1 step. That step held an intp
    position and an intp repeat count per level-1 element, 1.97 times
    (bound 2.05), before it took bool masks and made the new keys a chunk
    at a time. While the walk held an index per initial-level leaf and level
    1 had a grid of its own, they were 1.74, 1.66, 1.61 and 3.36 times;
    before that, with intp indices, the first two were 2.14 and 1.99."""
    for (field, config), bound in zip(_peak_cases(), [1.6, 1.27, 1.28, 1.7], strict=True):
        blob = write_artifact(compress_many([field], GridShape(field.shape), config))
        peak = _traced_peak(lambda: decompress_many(read_artifact(blob)[0]))
        assert peak < bound * field.nbytes, (
            f"{field.shape} peak {peak / field.nbytes:.2f} x the output bytes")


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_fill_chunks_leave_the_round_trip_unchanged(monkeypatch, chunk):
    """The payload and the output do not depend on how many keys a fill takes
    at once, also where a chunk cuts an initial-level family with pads."""
    cases = [((24, 20, 28), rel_config(0.5)), ((23, 20, 27), rel_config(0.3))]
    want = []
    for extents, config in cases:
        field = (smooth(extents) + 4.0).reshape(-1)
        var = compress(field, GridShape(extents), config)
        want.append((field, var, decompress(var)))
        # several chunks of keys, and data leaves on three levels; the odd
        # extents leave pad children in initial-level families
        levels = walk_levels(GridShape(extents), mesh._walk(GridShape(extents),
                                                            bits=var.mesh_bits)[2])
        assert len(var.payload) > 1000 and sum(len(c) > 0 for c in levels) == 3
        assert mesh._children(extents, levels[0])[1].any() == (extents[0] % 2 == 1)
    monkeypatch.setattr(mesh, "_CHUNK", chunk)
    for (extents, config), (field, var, out) in zip(cases, want):
        got = compress(field, GridShape(extents), config)
        assert got.mesh_bits == var.mesh_bits and got.payload.tobytes() == var.payload.tobytes()
        assert decompress(got).tobytes() == out.tobytes()
        assert decompress(var).tobytes() == out.tobytes()


def _family_cases():
    """Round trips through levels 1 and 0 held as families: odd extents whose
    families hold pads on level 1 and on the initial level, or on the initial
    level only (721 x 1440, 23 x 20 x 27); grids of a few cells, where the
    levels from 2 up do not all fit in the output past level 1 (1 x 5, 5 x
    1, 1 x 1 x 5) or just do (2 x 3), constant (every level used) and
    varying; incompressible noise, whose walk refines all level-1 cells but
    one; and a shared mesh of three variables."""
    era5 = smooth((721, 1440)).astype(np.float32)
    # the bit-exact last rows keep the families on the odd edges refined
    era5_nested = ErrorSpec(Criterion("abs", 0.05),
                            (ErrorDomain(((181, 541), (361, 1081)), Criterion("abs", 0.005)),
                             ErrorDomain(((713, 721), (0, 1440)), Criterion("abs", 0.0))))
    volume = smooth((23, 20, 27)) + 4.0
    cases = [([era5], GridShape(era5.shape), CompressionConfig(era5_nested)),
             ([volume], GridShape(volume.shape), rel_config(0.3))]
    for extents in ((1, 5), (5, 1), (1, 1, 5), (2, 3)):
        n = math.prod(extents)
        for field in (np.full(n, 2.5), np.arange(n, dtype=np.float64) % 3):
            cases.append(([field], GridShape(extents), abs_config(0.0)))
    rough = noise((31, 23))
    shared = [np.rint(v * 1000.0).astype(np.int16) for v in layered((3, 45, 50))]
    return cases + [([rough], GridShape(rough.shape), abs_config(1e-9)),
                    (shared, GridShape((45, 50)), abs_config(200.0, mode=ONE_FOR_ALL))]


def _round_trip(arrays, shape, config):
    variables = compress_many(arrays, shape, config)
    return variables, decompress_many(variables)


def test_family_round_trips_match_the_reference():
    """Decoding levels 1 and 0 from their families, with levels 2 and up in
    the output where there is room, gives what the per-cell reference
    expansion gives, byte for byte, and the bound holds."""
    for arrays, shape, config in _family_cases():
        variables, outs = _round_trip(arrays, shape, config)
        leaves = mesh_of(variables[0])
        l0 = shape.initial_level
        found = mesh._walk(shape, bits=variables[0].mesh_bits)[2]
        levels = walk_levels(shape, found)
        if shape.extents == (721, 1440):  # pads among the level-1 and initial-level children
            assert mesh._children((361, 720), found[1][0])[1].any()
            assert mesh._children(shape.extents, levels[0])[1].any()
        if shape.extents == (23, 20, 27):
            assert mesh._children(shape.extents, levels[0])[1].any()
        if shape.npoints < 8:  # only a 2 x 3 grid has room past level 1 for every level
            sizes = [math.prod(-(-e >> h) for e in shape.extents) for h in range(1, l0 + 1)]
            assert (sum(sizes) > shape.npoints) == (shape.extents != (2, 3))
        if shape.extents == (31, 23):
            assert len(levels[0]) == math.prod((e + 1) // 2 for e in shape.extents) - 1
        for var, arr, out in zip(variables, arrays, outs):
            vals = np.zeros(leaves.n_leaves, var.payload.dtype)
            vals[~leaves.dummy] = var.payload
            assert out.tobytes() == reference_expand(leaves, vals).tobytes()
            ref = arr.reshape(-1).astype(np.float64)
            scale = np.abs(ref) if config.spec.default.kind == "rel" else 1.0
            assert (np.abs(out.astype(np.float64) - ref) <= config.spec.default.bound * scale).all()


@pytest.mark.parametrize("chunk, families", [(1, 1), (7, 7), (1, 1 << 12), (1 << 16, 7)])
def test_family_pieces_leave_the_round_trip_unchanged(monkeypatch, chunk, families):
    """Neither the keys per chunk nor the families per piece of levels 1 and
    0 change the artifacts or the outputs, in the walk or the fills."""
    cases = _family_cases()[1:]  # the 721 x 1440 field takes too long a key at a time
    want = [_round_trip(*case) for case in cases]
    monkeypatch.setattr(mesh, "_CHUNK", chunk)
    monkeypatch.setattr(mesh, "_FAMILIES", families)
    for case, (variables, outs) in zip(cases, want):
        got, back = _round_trip(*case)
        assert write_artifact(got) == write_artifact(variables)
        assert [o.tobytes() for o in back] == [o.tobytes() for o in outs]
        assert [o.tobytes() for o in decompress_many(variables)] == [o.tobytes() for o in outs]


def _slab_cases():
    """Inputs for slab sizes: odd extents, domain boxes across slab edges, the
    per-member relative check, a band of noise rows, a level-1 grid of 91 x
    181 families, which the default slab cuts in two and ``1 << 15`` does
    not, and a shared mesh last."""
    plane = smooth((37, 53)).astype(np.float32)
    nested = ErrorSpec(Criterion("abs", 0.05),
                       (ErrorDomain(((3, 37), (10, 41)), Criterion("abs", 0.01)),
                        ErrorDomain(((5, 19), (20, 24)), Criterion("abs", 0.0))))
    volume = smooth((9, 13, 17))
    shared = [np.rint(v * 1000.0).astype(np.int16) for v in layered((3, 45, 50))]
    band = smooth((40, 61))
    band[12:32] = 100.0 * noise((20, 61))
    wide = smooth((181, 361)).astype(np.float32)
    return [([plane], GridShape(plane.shape), CompressionConfig(nested)),
            ([volume - volume.mean()], GridShape(volume.shape), rel_config(0.5)),
            ([band], GridShape(band.shape), abs_config(1.0)),
            ([wide], GridShape(wide.shape), abs_config(0.01)),
            (shared, GridShape((45, 50)), abs_config(200.0, mode=ONE_FOR_ALL))]


@pytest.mark.parametrize("slab", [1, 7, 500, codec._SLAB, 1 << 15])
def test_slabs_leave_the_artifacts_unchanged(monkeypatch, slab):
    """The bit-field, the payload and the stats do not depend on how many
    families a slab of the level kernel takes, nor on how many upper-level
    rows a slab of a fused pair of heights takes. ``1 << 15``, twice the
    default, was the default before the slabs were halved. At the default
    size one fused slab covers each of these levels whole, and height 1 of
    the 181 x 361 field takes two slabs; at 1 and 7 each fused slab is one
    row of its upper level, so on the 37 x 53 field, whose level-1 grid has
    19 rows, the last one ends on a single level-1 row, and on the field
    with a band of noise rows the fused slabs inside the band accept nothing
    at height 1, nor at height 3, while the others accept some."""
    calls = []
    per_member = codec._worst
    monkeypatch.setattr(codec, "_worst", lambda *args: calls.append(1) or per_member(*args))
    cases = _slab_cases()
    want = [compress_many(*case) for case in cases]
    # the zero-mean field takes the per-member relative check, and every
    # input coarsens past its finest level
    assert calls and all(v[0].stats.iterations >= 2 for v in want)
    assert (cases[0][1].extents[0] + 1) // 2 % 2 == 1
    assert codec._SLAB < math.prod((e + 1) // 2 for e in cases[3][1].extents) <= 1 << 15
    arrays, shape, config = cases[2]
    levels = [leaf for leaf, *_ in codec._level_pass(arrays, shape, config.spec, "f64")]
    for leaf in levels[1], levels[3]:  # heights 1 and 3, each the lower of a fused pair
        pairs = leaf[:len(leaf) // 2 * 2].reshape(-1, 2 * leaf.shape[1]).any(axis=1)
        assert pairs.any() and not pairs.all()  # upper-level rows that accept nothing below
    monkeypatch.setattr(codec, "_SLAB", slab)
    for case, before in zip(cases, want):
        for got, w in zip(compress_many(*case), before):
            assert got.mesh_bits == w.mesh_bits and got.payload.tobytes() == w.payload.tobytes()
            assert got.stats == w.stats


@pytest.mark.parametrize("slab", [1, codec._SLAB, 1 << 15])
def test_stats_are_those_of_the_leaves(monkeypatch, slab):
    """``CompressStats`` counts the accepting levels and the leaves, and takes
    the largest tracker of a final leaf, which the level pass folds a slab at
    a time; ``coarsen_forest`` reads the same trackers from whole grids."""
    monkeypatch.setattr(codec, "_SLAB", slab)
    for arrays, shape, config in _slab_cases():
        kind = codec.value_kind_of(arrays[0].dtype)
        res = coarsen_forest(arrays, shape, config.spec, kind)
        variables = compress_many(arrays, shape, config)
        assert len(variables) == len(res.trackers)
        for var, trackers in zip(variables, res.trackers):
            assert var.stats.iterations == res.iterations >= 2
            assert var.stats.leaf_count == res.mesh.n_leaves
            assert var.stats.max_tracker == trackers.max() > 0.0


def _random_spec(rng, extents, kind, default, tight):
    """Nested and overlapping random domain boxes, some reaching below 0 or past the extents."""
    boxes = []
    for _ in range(6):
        if boxes and rng.random() < 0.5:  # nested in an earlier box
            outer = boxes[rng.integers(len(boxes))]
            box = tuple((int(rng.integers(lo, hi)), hi) for lo, hi in outer)
            box = tuple((lo, int(rng.integers(lo + 1, hi + 1))) for lo, hi in box)
        else:
            box = tuple((int(rng.integers(-e // 4, e)), e + e // 4) for e in extents)
            box = tuple((lo, int(rng.integers(lo + 1, hi + 1))) for lo, hi in box)
        boxes.append(box)
    return ErrorSpec(Criterion(kind, default), tuple(
        ErrorDomain(box, Criterion(kind, float(rng.choice(tight)))) for box in boxes))


def _whole_level_bounds(spec, parents, size):
    """Each parent's bound on one level, from its cell box, apart from the codec."""
    origins = np.indices(parents) * size
    bounds = np.full(parents, spec.default.bound)
    for dom in spec.domains:
        meets = np.logical_and.reduce(
            [(o < hi) & (o + size > lo) for o, (lo, hi) in zip(origins, dom.box)])
        bounds[meets] = np.minimum(bounds[meets], dom.criterion.bound)
    return bounds


@pytest.mark.parametrize("slab", [1, 7, codec._SLAB, 1 << 15])
def test_slab_bounds_stack_to_the_level_bounds(rng, monkeypatch, slab):
    """With error domains the level kernel reads each slab's bounds on its own.
    Stacked, a level's slabs give its whole bound grid, and the artifacts do
    not depend on the slab size."""
    plane = smooth((37, 53)).astype(np.float32)
    volume = smooth((9, 13, 17)) + 4.0
    cases = [([plane], GridShape(plane.shape),
              CompressionConfig(_random_spec(rng, plane.shape, "abs", 0.05, [0.02, 0.005, 0.0]))),
             ([volume], GridShape(volume.shape),
              CompressionConfig(_random_spec(rng, volume.shape, "rel", 0.3, [0.1, 0.02, 0.0])))]
    for _, shape, config in cases:
        boxes = [(d.box, shape.extents) for d in config.spec.domains]
        assert any(lo < 0 for box, _ in boxes for lo, _ in box)
        assert any(hi > e for box, ext in boxes for (_, hi), e in zip(box, ext))
    want = [write_artifact(compress_many(*case)) for case in cases]
    slabs = []
    read = codec._LevelBounds.__getitem__
    monkeypatch.setattr(codec._LevelBounds, "__getitem__",
                        lambda self, rows: slabs.append((self, read(self, rows))) or slabs[-1][1])
    monkeypatch.setattr(codec, "_SLAB", slab)
    for case, before in zip(cases, want):
        slabs.clear()
        assert write_artifact(compress_many(*case)) == before
        levels = {}
        for level, bounds in slabs:
            levels.setdefault(level, []).append(bounds)
        assert len(levels) >= 2 and (slab > 7 or any(len(s) > 1 for s in levels.values()))
        for level, parts in levels.items():
            whole = _whole_level_bounds(case[2].spec, level.shape, level.size)
            assert whole.min() < whole.max()  # domains meet part of the level
            assert np.concatenate(parts).tobytes() == whole.tobytes(), level
def test_no_round_trip_calls_the_morton_coder(monkeypatch, tmp_path, capsys):
    """Compression, the container, decompression and ``amrc info`` compute no
    Morton code, so the coder's speed is off every timed path."""

    def refuse(*args):
        raise AssertionError("the Morton coder was called")

    coder = (morton.interleave, morton.deinterleave)
    held = [f"{name}.{attr}" for name, module in sys.modules.items()
            if name.startswith("amrc.") and name != "amrc.morton"
            for attr, value in vars(module).items() if any(value is f for f in coder)]
    assert not held, f"modules that bind the coder past a patch: {held}"
    monkeypatch.setattr(morton, "interleave", refuse)
    monkeypatch.setattr(morton, "deinterleave", refuse)
    # a 2D f32 field with nested domains, a zero-mean 3D f64 field under rel,
    # a field with a band of noise rows, one over two slabs and one-for-all slices
    for arrays, shape, config in _slab_cases():
        blob = write_artifact(compress_many(arrays, shape, config))
        outs = decompress_many(read_artifact(blob)[0])
        bound = config.spec.default.bound
        for a, out in zip(arrays, outs):
            dev = np.abs(out.reshape(a.shape).astype(np.float64) - a)
            scale = np.abs(a) if config.spec.default.kind == "rel" else 1.0
            assert (dev <= bound * scale).all()
    path = tmp_path / "shared.amrc"
    path.write_bytes(blob)
    assert main(["info", "--input", str(path)]) == 0
    assert "variable 2: levels:" in capsys.readouterr().out


PUBLIC_API = {
    "ABSOLUTE", "RELATIVE", "ONE_FOR_ONE", "ONE_FOR_ALL",
    "AmrcError", "ArtifactHeader", "CoarsenResult", "CompressStats", "CompressedVariable",
    "CompressionConfig", "ConfigError", "CorruptArtifactError", "Criterion", "DataError",
    "ErrorDomain", "ErrorSpec", "ForestMesh", "GridShape", "Packing", "ShapeError",
    "UnsupportedFeatureError",
    "build_initial_mesh", "coarsen_forest", "complete_family_starts", "compress",
    "compress_many", "decompress", "decompress_many", "deserialize_refinement",
    "expand_to_uniform", "map_data", "packed_bound", "read_artifact", "serialize_refinement",
    "split_axis", "stack_axis", "write_artifact",
}


def test_public_api_is_pinned():
    # adding or removing a public name must show up as an edit of this list
    assert set(amrc.__all__) == PUBLIC_API
    assert len(amrc.__all__) == len(PUBLIC_API)
    missing = [name for name in amrc.__all__ if not hasattr(amrc, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
