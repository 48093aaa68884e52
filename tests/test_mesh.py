import numpy as np
import pytest

from amrc import (
    CorruptArtifactError,
    ForestMesh,
    GridShape,
    ShapeError,
    build_initial_mesh,
    complete_family_starts,
    deserialize_refinement,
    expand_to_uniform,
    map_data,
    serialize_refinement,
)
from amrc.mesh import _dummy_flags
from conftest import random_mesh
from oracle import coarsen_marked, dfs_leaf_order, expected_initial_leaves, naive_encode


def make_mesh(shape, leaves):
    codes = np.array([c for c, _ in leaves], dtype=np.uint64)
    levels = np.array([l for _, l in leaves], dtype=np.uint8)
    keys = codes << (shape.dim * (shape.initial_level - levels.astype(np.int64))).astype(np.uint64)
    order = np.argsort(keys)
    codes, levels = codes[order], levels[order]
    return ForestMesh(shape, codes, levels, _dummy_flags(codes, levels, shape))


def fig9_mesh():
    # root -> 4 children; first child refined; its last child refined again
    leaves = [(0, 2), (1, 2), (2, 2), (12, 3), (13, 3), (14, 3), (15, 3),
              (1, 1), (2, 1), (3, 1)]
    return make_mesh(GridShape((8, 8)), leaves)


class TestGridShape:
    def test_basic(self):
        s = GridShape((6, 6))
        assert s.dim == 2 and s.npoints == 36 and s.initial_level == 3

    def test_initial_levels(self):
        assert GridShape((4, 4)).initial_level == 2
        assert GridShape((5, 3)).initial_level == 3
        assert GridShape((1, 1)).initial_level == 0
        assert GridShape((1440, 721, 37)).initial_level == 11

    def test_invalid(self):
        with pytest.raises(ShapeError):
            GridShape((0, 4))
        with pytest.raises(ShapeError):
            GridShape((4,))
        with pytest.raises(ShapeError):
            GridShape((4, 4, 4, 4))

    def test_extent_beyond_level_cap(self):
        # codes must fit one 64-bit word: level caps at 31 (2D) / 20 (3D)
        GridShape((2 ** 31, 2))
        with pytest.raises(ShapeError):
            GridShape((2 ** 31 + 1, 2))
        with pytest.raises(ShapeError):
            GridShape((2 ** 20 + 1, 2, 2))


class TestBuildInitialMesh:
    def test_6x6_figure(self):
        mesh = build_initial_mesh(GridShape((6, 6)))
        assert mesh.initial_level == 3
        assert int((~mesh.dummy).sum()) == 36
        assert int(mesh.dummy.sum()) == 7
        # all 7 dummies are size-2 blocks (level 2): four on top, three on the right
        assert np.all(mesh.levels[mesh.dummy] == 2)
        mesh.validate()

    def test_power_of_two_has_no_dummies(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        assert mesh.initial_level == 2
        assert mesh.n_leaves == 16
        assert not mesh.dummy.any()

    def test_5x3_area_sum(self):
        mesh = build_initial_mesh(GridShape((5, 3)))
        assert mesh.initial_level == 3
        assert int((~mesh.dummy).sum()) == 15
        assert np.all(mesh.levels[~mesh.dummy] == 3)
        dummy_area = sum(4 ** (3 - int(l)) for l in mesh.levels[mesh.dummy])
        assert dummy_area == 64 - 15
        mesh.validate()

    @pytest.mark.parametrize("extents", [(5, 3), (6, 6), (7, 5, 3), (1, 1), (2, 9), (3, 3, 3)])
    def test_matches_recursive_reference(self, extents):
        mesh = build_initial_mesh(GridShape(extents))
        expected = expected_initial_leaves(extents)
        got = list(zip(mesh.codes.tolist(), mesh.levels.tolist(), mesh.dummy.tolist()))
        assert got == expected

    def test_single_point(self):
        mesh = build_initial_mesh(GridShape((1, 1)))
        assert mesh.n_leaves == 1
        assert mesh.levels[0] == 0 and not mesh.dummy[0]


class TestMapData:
    def test_2x2_identity(self):
        # Z order equals row-major for a 2x2 grid
        out = map_data(GridShape((2, 2)), np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_4x4_cell_lands_at_interleave(self):
        shape = GridShape((4, 4))
        vals = np.arange(16.0)
        out = map_data(shape, vals)
        # value of cell (x=2, y=1): x is the fastest axis, so flat index 1*4+2
        assert out[naive_encode((2, 1), 2, 2)] == vals[1 * 4 + 2]
        for y in range(4):
            for x in range(4):
                assert out[naive_encode((x, y), 2, 2)] == vals[y * 4 + x]

    def test_1x1(self):
        out = map_data(GridShape((1, 1)), np.array([42.0]))
        assert np.array_equal(out, [42.0])

    def test_dummies_carry_nan(self):
        shape = GridShape((6, 6))
        mesh = build_initial_mesh(shape)
        out = map_data(shape, np.arange(36.0), mesh)
        assert np.isnan(out[mesh.dummy]).all()
        assert not np.isnan(out[~mesh.dummy]).any()

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            map_data(GridShape((4, 4)), np.zeros(15))


class TestCoarsenMarked:
    def test_full_collapse(self):
        shape = GridShape((2, 2))
        mesh = build_initial_mesh(shape)
        out = coarsen_marked(mesh, [0])
        assert out.n_leaves == 1 and out.levels[0] == 0

    def test_single_family_of_16(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        out = coarsen_marked(mesh, [0])
        assert out.n_leaves == 13
        assert out.level_histogram() == {1: 1, 2: 12}
        out.validate()

    def test_dummy_parent_rule(self):
        # refine a dummy region by hand, then coarsen it back
        shape = GridShape((6, 2))
        base = build_initial_mesh(shape)
        d = int(np.nonzero(base.dummy)[0][0])
        code, level = int(base.codes[d]), int(base.levels[d])
        kids = [(int(c), level + 1) for c in range(code * 4, code * 4 + 4)]
        leaves = [(int(c), int(l)) for i, (c, l) in enumerate(zip(base.codes, base.levels))
                  if i != d] + kids
        mesh = make_mesh(shape, leaves)
        mesh.validate()
        start = next(i for i in range(mesh.n_leaves)
                     if int(mesh.codes[i]) == kids[0][0] and int(mesh.levels[i]) == level + 1)
        out = coarsen_marked(mesh, [start])
        assert out == base

    def test_incomplete_family_rejected(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        with pytest.raises(ShapeError):
            coarsen_marked(mesh, [1])  # not a family start
        with pytest.raises(ShapeError):
            coarsen_marked(mesh, [14])  # runs off the end mid-family

    def test_partition_held_after_random_rounds(self, rng):
        for extents in [(6, 6), (5, 3), (7, 5, 3), (16, 16)]:
            mesh = random_mesh(GridShape(extents), rng, rounds=5)
            mesh.validate()


class TestRefinementBits:
    def test_fig9_bits(self):
        mesh = fig9_mesh()
        assert mesh.n_leaves == 10
        bits = serialize_refinement(mesh)
        # levels: "1" | "1000" | "0001000", LSB-first per byte-padded level
        assert bits == bytes([0x01, 0x01, 0x08])
        assert deserialize_refinement(bits, mesh.shape) == mesh

    def test_root_only_is_empty(self):
        shape = GridShape((4, 4))
        root = make_mesh(shape, [(0, 0)])
        assert serialize_refinement(root) == b""
        assert deserialize_refinement(b"", shape) == root

    def test_uniform_level2(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        # root refined, then all four level-1 children refined
        assert serialize_refinement(mesh) == bytes([0x01, 0x0F])

    def test_roundtrip_random_meshes(self, rng):
        shapes = [(6, 6), (5, 3), (16, 16), (9, 7), (4, 4, 4), (5, 3, 2), (8, 8, 8)]
        done = 0
        while done < 100:
            shape = GridShape(shapes[done % len(shapes)])
            mesh = random_mesh(shape, rng, rounds=int(rng.integers(0, 6)))
            blob = serialize_refinement(mesh)
            back = deserialize_refinement(blob, shape)
            assert back == mesh
            assert serialize_refinement(back) == blob
            done += 1

    def test_truncated_stream_rejected(self):
        # cut inside a multi-byte level so the cut cannot parse as a coarser mesh
        mesh = build_initial_mesh(GridShape((16, 16)))
        blob = serialize_refinement(mesh)
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(blob[:-1], mesh.shape)

    def test_overlong_stream_rejected(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        blob = serialize_refinement(mesh)
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(blob + b"\x00", mesh.shape)

    def test_refining_past_initial_level_rejected(self):
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(bytes([0x01, 0x0F]), GridShape((2, 2)))

    def test_non_canonical_stream_rejected(self):
        # the third level refines a level-1 leaf; the 10-leaf mesh it would
        # decode to encodes canonically as 01 03
        shape = GridShape((4, 4))
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(bytes([0x01, 0x01, 0x10]), shape)
        mesh = deserialize_refinement(bytes([0x01, 0x03]), shape)
        assert mesh.n_leaves == 10
        assert serialize_refinement(mesh) == bytes([0x01, 0x03])

    def test_nonzero_padding_rejected(self):
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(bytes([0x03]), GridShape((4, 4)))


class TestExpand:
    def test_root_fill(self):
        shape = GridShape((4, 4))
        root = make_mesh(shape, [(0, 0)])
        out = expand_to_uniform(root, np.array([3.5]))
        assert np.array_equal(out, np.full(16, 3.5))

    def test_uniform_roundtrip(self, rng):
        for extents in [(4, 4), (6, 6), (5, 3), (3, 4, 5)]:
            shape = GridShape(extents)
            mesh = build_initial_mesh(shape)
            vals = rng.normal(size=shape.npoints)
            assert np.array_equal(expand_to_uniform(mesh, map_data(shape, vals, mesh)), vals)

    def test_fanout_counts(self):
        mesh = fig9_mesh()
        vals = np.arange(float(mesh.n_leaves))
        out = expand_to_uniform(mesh, vals)
        # each level-l leaf covers 4^(3-l) cells of the 8x8 grid
        counts = {v: 4 ** (3 - int(l)) for v, l in zip(vals, mesh.levels)}
        got = dict(zip(*np.unique(out, return_counts=True)))
        assert {k: int(v) for k, v in got.items()} == counts

    def test_dummies_never_contribute(self, rng):
        shape = GridShape((5, 3))
        mesh = random_mesh(shape, rng, rounds=3)
        vals = np.full(mesh.n_leaves, np.nan)
        vals[~mesh.dummy] = rng.normal(size=int((~mesh.dummy).sum()))
        out = expand_to_uniform(mesh, vals)
        assert not np.isnan(out).any()

    def test_alignment_mismatch(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        with pytest.raises(ShapeError):
            expand_to_uniform(mesh, np.zeros(5))


class TestOrdering:
    def test_leaf_order_is_dfs_order(self, rng):
        for extents in [(6, 6), (5, 3), (4, 4, 4), (7, 5, 3)]:
            mesh = random_mesh(GridShape(extents), rng, rounds=4)
            assert list(zip(mesh.codes.tolist(), mesh.levels.tolist())) == dfs_leaf_order(mesh)

    def test_family_starts_are_disjoint_and_complete(self, rng):
        mesh = random_mesh(GridShape((16, 16)), rng, rounds=2)
        starts = complete_family_starts(mesh)
        assert np.all(np.diff(starts) >= 4)
        for s in starts:
            lv = mesh.levels[s]
            assert np.all(mesh.levels[s:s + 4] == lv)
            assert mesh.codes[s] % 4 == 0
            assert np.array_equal(mesh.codes[s:s + 4] - mesh.codes[s], np.arange(4))
