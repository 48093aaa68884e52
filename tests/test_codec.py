import numpy as np
import pytest

from amrc import (
    ConfigError,
    CompressionConfig,
    CorruptArtifactError,
    Criterion,
    DataError,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    Packing,
    coarsen_forest,
    compress,
    compress_many,
    decompress,
    deserialize_refinement,
    packed_bound,
    split_axis,
    stack_axis,
)
from amrc.fields import layered, noise, smooth
from oracle import exact_leaf_deviations


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

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ConfigError):
            compress(np.zeros(16, dtype=np.int64), GridShape((4, 4)), abs_config(1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(Exception):
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
        assert mesh.level_histogram() == {1: 3, 2: 4}
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
        with pytest.raises(ConfigError):
            packed_bound(1.0, 0.0)

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


class TestDecompress:
    def test_payload_mesh_mismatch_rejected(self):
        var = compress(np.zeros(16), GridShape((4, 4)), abs_config(0.0))
        var.payload = var.payload[:-1]
        with pytest.raises(CorruptArtifactError):
            decompress(var)

    def test_output_size_matches_grid(self, rng):
        for extents in [(5, 3), (6, 6), (3, 4, 5)]:
            field = rng.normal(size=extents).reshape(-1)
            var = compress(field, GridShape(extents), abs_config(0.5))
            assert decompress(var).shape == field.shape
