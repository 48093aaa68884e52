import math
import weakref

import numpy as np
import pytest

from amrc import (
    CompressionConfig,
    CorruptArtifactError,
    Criterion,
    ErrorSpec,
    ForestMesh,
    GridShape,
    ShapeError,
    build_initial_mesh,
    complete_family_starts,
    compress,
    decompress,
    deserialize_refinement,
    expand_to_uniform,
    map_data,
    serialize_refinement,
)
from amrc import codec, mesh, morton
from amrc.fields import noise, smooth
from amrc.mesh import _blocks, _children
from conftest import random_mesh
from oracle import (
    coarsen_marked,
    dfs_leaf_order,
    dummy_flags,
    expected_initial_leaves,
    mesh_equal,
    naive_encode,
    validate_mesh,
    walk_levels,
)


def make_mesh(shape, leaves):
    codes = np.array([c for c, _ in leaves], dtype=np.uint64)
    levels = np.array([l for _, l in leaves], dtype=np.uint8)
    keys = codes << (shape.dim * (shape.initial_level - levels.astype(np.int64))).astype(np.uint64)
    order = np.argsort(keys)
    codes, levels = codes[order], levels[order]
    return ForestMesh(shape, codes, levels, dummy_flags(codes, levels, shape))


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

    def test_extents_must_be_integers(self):
        extents = GridShape((np.int64(4), np.int32(3))).extents
        assert extents == (4, 3) and all(type(e) is int for e in extents)
        for bad in [(2.5, 3), (4.0, 3), (np.float64(4), 3), ("4", 3)]:
            with pytest.raises(ShapeError, match="must be an integer"):
                GridShape(bad)

    def test_extent_beyond_level_cap(self):
        # codes must fit one 64-bit word: level caps at 31 (2D) / 20 (3D)
        GridShape((2 ** 31, 2))
        with pytest.raises(ShapeError):
            GridShape((2 ** 31 + 1, 2))
        with pytest.raises(ShapeError):
            GridShape((2 ** 20 + 1, 2, 2))

    def test_3d_level_cap(self):
        assert GridShape((2 ** 20, 1, 1)).initial_level == mesh.MAX_LEVEL[3] == 20
        with pytest.raises(ShapeError, match="maximum is 20 in 3D"):
            GridShape((2 ** 20 + 1, 1, 1))
        # the coder reads the cap that the shape check enforces
        assert morton.MAX_LEVEL is mesh.MAX_LEVEL


class TestBuildInitialMesh:
    def test_6x6_figure(self):
        mesh = build_initial_mesh(GridShape((6, 6)))
        assert mesh.initial_level == 3
        assert int((~mesh.dummy).sum()) == 36
        assert int(mesh.dummy.sum()) == 7
        # all 7 dummies are size-2 blocks (level 2): four on top, three on the right
        assert np.all(mesh.levels[mesh.dummy] == 2)
        validate_mesh(mesh)

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
        validate_mesh(mesh)

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
        levels, counts = np.unique(out.levels, return_counts=True)
        assert levels.tolist() == [1, 2] and counts.tolist() == [1, 12]
        validate_mesh(out)

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
        validate_mesh(mesh)
        start = next(i for i in range(mesh.n_leaves)
                     if int(mesh.codes[i]) == kids[0][0] and int(mesh.levels[i]) == level + 1)
        out = coarsen_marked(mesh, [start])
        assert mesh_equal(out, base)

    def test_incomplete_family_rejected(self):
        mesh = build_initial_mesh(GridShape((4, 4)))
        with pytest.raises(ShapeError):
            coarsen_marked(mesh, [1])  # not a family start
        with pytest.raises(ShapeError):
            coarsen_marked(mesh, [14])  # runs off the end mid-family

    def test_partition_held_after_random_rounds(self, rng):
        for extents in [(6, 6), (5, 3), (7, 5, 3), (16, 16)]:
            mesh = random_mesh(GridShape(extents), rng, rounds=5)
            validate_mesh(mesh)


class TestRefinementBits:
    def test_fig9_bits(self):
        mesh = fig9_mesh()
        assert mesh.n_leaves == 10
        bits = serialize_refinement(mesh)
        # levels: "1" | "1000" | "0001000", LSB-first per byte-padded level
        assert bits == bytes([0x01, 0x01, 0x08])
        assert mesh_equal(deserialize_refinement(bits, mesh.shape), mesh)

    def test_root_only_is_empty(self):
        shape = GridShape((4, 4))
        root = make_mesh(shape, [(0, 0)])
        assert serialize_refinement(root) == b""
        assert mesh_equal(deserialize_refinement(b"", shape), root)

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
            assert mesh_equal(back, mesh)
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

    def test_refined_dummy_rejected(self):
        # on 4x2 the root's children 1 and 3 lie outside the grid; the
        # canonical stream 01 05 refines the other two, 01 0F all four
        shape = GridShape((4, 2))
        assert serialize_refinement(build_initial_mesh(shape)) == bytes([0x01, 0x05])
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(bytes([0x01, 0x0F]), shape)

    def test_nonzero_padding_rejected(self):
        with pytest.raises(CorruptArtifactError):
            deserialize_refinement(bytes([0x03]), GridShape((4, 4)))


def _walk_cases():
    """Level-pass leaf grids for the walk: odd-extent 2D and 3D meshes whose
    initial-level families hold pad children, an incompressible-noise mesh,
    whose walk refines every level-1 cell but one, and the single-cell grid."""
    cases = []
    for extents, spec, field in (
            ((37, 53), ErrorSpec(Criterion("abs", 0.05)), smooth((37, 53))),
            ((9, 13, 17), ErrorSpec(Criterion("rel", 0.5)), smooth((9, 13, 17)) + 4.0),
            ((31, 23), ErrorSpec(Criterion("abs", 1e-9)), noise((31, 23))),
            ((1, 1), ErrorSpec(Criterion("abs", 0.0)), np.ones((1, 1)))):
        shape = GridShape(extents)
        leaves = [leaf for leaf, *_ in codec._level_pass([field], shape, spec, "f64")]
        cases.append((shape, leaves))
    return cases


def _entry_bytes(shape, found):
    """The walk's entries as bytes: level 1's as it is held, and every level's cells."""
    families, refined = found[1] if shape.initial_level else (found[0], found[0])
    return [families.tobytes(), refined.tobytes()] + [
        c.tobytes() for c in walk_levels(shape, found)]


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_walk_chunks_leave_the_walk_unchanged(monkeypatch, chunk):
    """The walk makes each depth's keys a chunk at a time, and level 1's
    cells a piece of families at a time; neither size nor the direction
    changes the bits, the keys or the entries, and a corrupt bit-field fails
    at the same offset."""
    cases = _walk_cases()
    want = [mesh._walk(shape, leaves) for shape, leaves in cases]
    for (shape, _), (_, key, found) in zip(cases, want):
        initial = walk_levels(shape, found)[0]
        if shape.npoints > 1:
            assert (key[1:] != key[:-1]).any() and len(initial)
        if any(e % 2 for e in shape.extents):  # pads among the initial-level children
            assert _children(shape.extents, initial)[1].any()
    assert len(walk_levels(cases[2][0], want[2][2])[0]) >= 16 * 12 - 1 and len(want[3][1]) == 1

    def outcomes(shape, blobs):  # the error offset, or what the walk returns
        out = []
        for blob in blobs:
            try:
                bits, key, found = mesh._walk(shape, bits=blob)
            except CorruptArtifactError as err:
                out.append(err.offset)
            else:
                out.append((bits, key.tobytes(), _entry_bytes(shape, found)))
        return out

    corrupt = []
    for (shape, _), (bits, _, _) in zip(cases[:3], want):
        # truncated, over-long, and each clear bit of a middle and of the last
        # byte set: that refines a leaf into another mesh, or a dummy, a cell
        # of the initial level or a padding bit, which is corrupt
        blobs = [bits[:-1], bits + b"\x00"] + [
            bits[:i] + bytes([bits[i] | 1 << k]) + bits[i + 1:]
            for i in (len(bits) // 2, len(bits) - 1) for k in range(8) if not bits[i] >> k & 1]
        at = outcomes(shape, blobs)
        assert all(isinstance(o, int) for o in at[:2])
        assert any(isinstance(o, int) for o in at[2:])
        corrupt.append((shape, blobs, at))
    monkeypatch.setattr(mesh, "_CHUNK", chunk)
    monkeypatch.setattr(mesh, "_FAMILIES", chunk)
    for (shape, leaves), (bits, key, found) in zip(cases, want):
        for got in (mesh._walk(shape, leaves), mesh._walk(shape, bits=bits)):
            assert got[0] == bits and got[1].tobytes() == key.tobytes()
            assert _entry_bytes(shape, got[2]) == _entry_bytes(shape, found)
    for shape, blobs, at in corrupt:
        assert outcomes(shape, blobs) == at


@pytest.mark.parametrize("fill", ["leaves", "grids"])
def test_fills_drop_each_level_before_the_next(monkeypatch, fill):
    """Each level's walk entry is dead before the next level's first chunk is
    written: neither a fill's loop variables nor a slice of the entry keep
    it, on the way in (``_fill_leaves``) or out (``_fill_grids``)."""
    extents = (90, 141)
    field = smooth(extents)
    field[10:14] = 10.0 * noise((4, extents[1]))
    shape = GridShape(extents)
    levels = list(codec._level_pass([field], shape, ErrorSpec(Criterion("abs", 0.5)), "f64"))
    _, key, found = mesh._walk(shape, [leaf for leaf, *_ in levels])
    data = key[(key & 1) == 0]
    assert all(len(c) for c in walk_levels(shape, found)[:5])  # data leaves on levels 0 to 4
    refs = {h: weakref.ref(found[h]) for h in range(2, 5)}
    refs[1] = weakref.ref(found[1][0])  # level 1's families
    seen, slots = [], mesh._level_slots

    def spy(key, h, cells):
        for i, item in enumerate(slots(key, h, cells)):
            if not i:
                seen.append(h)
                assert [g for g, ref in refs.items() if g > h and ref() is not None] == []
            yield item

    monkeypatch.setattr(mesh, "_level_slots", spy)
    if fill == "leaves":
        mesh._fill_leaves([np.empty(len(data))], data, found, [[vals[0] for _, vals, *_ in levels]])
    else:
        mesh._fill_grids([np.empty(extents)], data, found, [np.arange(len(data), dtype=float)])
    assert seen == [4, 3, 2, 1, 0] and found == []


@pytest.mark.parametrize("extents, own", [((90, 141), 0), ((1, 5), 1), ((1, 1, 5), 1), ((2, 3), 0)])
def test_decoding_lays_its_levels_in_the_output(monkeypatch, extents, own):
    """Decoding holds no grid beyond the output: each level lies in it after
    the one below, and only the levels of a grid of a few cells that find
    no room left get arrays of their own; the initial level's families are
    collected in the output past level 1 while level 1 is written."""
    field = np.arange(math.prod(extents), dtype=np.float64) % 5
    var = codec.compress(field, GridShape(extents),
                         codec.CompressionConfig(ErrorSpec(Criterion("abs", 2.0))))
    want, out = codec.decompress(var), np.empty(extents)
    stacked, level1, seen = mesh._stacked, mesh._level1_slots, []

    def spy_stacked(grid, top):
        grids = stacked(grid, top)
        seen.append([np.shares_memory(g, out) for g in grids])
        return grids

    def spy_level1(key, cells, shape, spare=None):
        slots, initial = level1(key, cells, shape, spare)
        seen.append(len(initial) and np.shares_memory(initial, out))
        return slots, initial

    monkeypatch.setattr(mesh, "_stacked", spy_stacked)
    monkeypatch.setattr(mesh, "_level1_slots", spy_level1)
    _, key, found = mesh._walk(GridShape(extents), bits=var.mesh_bits)
    mesh._fill_grids([out], key[(key & 1) == 0], found, [var.payload])
    assert out.reshape(-1).tobytes() == want.tobytes()
    layout, initial = seen
    assert len(layout) == GridShape(extents).initial_level and layout.count(False) == own
    if extents == (90, 141):
        assert initial


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

    def test_validate_mesh_rejects_broken_meshes(self):
        mesh = build_initial_mesh(GridShape((6, 6)))
        validate_mesh(mesh)
        codes, levels, dummy = mesh.codes, mesh.levels, mesh.dummy
        broken = [
            (codes[1:], levels[1:], dummy[1:]),  # a hole
            (codes[::-1], levels[::-1], dummy[::-1]),  # out of curve order
            (np.append(codes, codes[:1]), np.append(levels, levels[:1]),
             np.append(dummy, dummy[:1])),  # the first leaf twice
            (codes, levels, ~dummy),  # wrong dummy flags
        ]
        for arrays in broken:
            with pytest.raises(ShapeError):
                validate_mesh(ForestMesh(mesh.shape, *(a.copy() for a in arrays)))


class TestLayout:
    """``_blocks`` (slices) and ``_children`` (flat cells) describe one layout."""

    @pytest.mark.parametrize("extents", [(1, 1), (1, 7), (6, 9), (7, 7), (1, 2, 3), (5, 6, 7),
                                         (3, 3, 3)])
    def test_blocks_match_children(self, extents):
        parents = tuple((e + 1) // 2 for e in extents)
        rows = np.arange(int(np.prod(parents)))
        flat, pad = _children(extents, rows)
        parent_rows = rows.reshape(parents)
        cells = np.arange(int(np.prod(extents))).reshape(extents)
        parent_hits = np.zeros(parents, dtype=int)
        child_hits = np.zeros(extents, dtype=int)
        for pslices, children in _blocks(extents):
            parent_hits[pslices] += 1
            at = parent_rows[pslices].reshape(-1)
            assert len(children) == 1 << len(extents)
            for k, sl in enumerate(children):
                assert np.array_equal(pad[at, k], np.full(len(at), sl is None))
                if sl is not None:
                    child_hits[sl] += 1
                    assert np.array_equal(cells[sl].reshape(-1), flat[at, k])
        assert (parent_hits == 1).all()
        assert (child_hits == 1).all()


class TestIndexWidth:
    """The walk's cell indices are int32 while the padded finest grid has fewer
    than 2^31 cells, and intp beyond."""

    @pytest.mark.parametrize("extents", [(37, 53), (3, 45), (9, 13, 17), (5, 6, 7)])
    def test_round_trip_keeps_int32(self, monkeypatch, extents):
        dtypes, calls = set(), []
        children, walk = mesh._children, mesh._walk

        def spy_children(grid, rows):
            flat, pad = children(grid, rows)
            calls.append(grid)
            dtypes.update((rows.dtype, flat.dtype))
            return flat, pad

        def spy_walk(shape, *args, **kwargs):
            bits, key, found = walk(shape, *args, **kwargs)
            dtypes.update(c.dtype for c in walk_levels(shape, found))
            dtypes.add(found[1][0].dtype)
            return bits, key, found

        monkeypatch.setattr(mesh, "_children", spy_children)
        monkeypatch.setattr(codec, "_walk", spy_walk)
        field = smooth(extents) + 4.0
        var = compress(field.reshape(-1), GridShape(extents),
                       CompressionConfig(ErrorSpec(Criterion("rel", 0.5))))
        decompress(var)
        assert var.stats.iterations >= 1 and calls
        assert dtypes == {np.dtype(np.int32)}

    @pytest.mark.parametrize("extents, dtype", [
        ((46339, 46339), np.int32), ((46340, 46340), np.int32),
        ((46341, 46340), np.intp),  # fewer than 2^31 cells, but not once padded
        ((46342, 46342), np.intp), ((1289, 1290, 1290), np.int32), ((1291, 1291, 1291), np.intp),
    ])
    def test_children_near_the_end_of_a_large_grid(self, extents, dtype):
        """``_children`` agrees with Python-int arithmetic on the last rows of a
        grid on each side of the rule, pads included; no grid is allocated."""
        # a root-only mesh: the decode walk allocates one cell
        found = mesh._walk(GridShape(extents), bits=b"")[2]
        assert found[1][0].dtype == np.dtype(dtype)
        assert {c.dtype for c in walk_levels(GridShape(extents), found)} == {np.dtype(dtype)}
        dim, cells = len(extents), math.prod(extents)
        parents = [(e + 1) // 2 for e in extents]
        n, last = math.prod(parents), parents[-1]
        rows = np.array([0, 1, n - last - 1, n - last, n - last + 1, n - 2, n - 1], dtype=dtype)
        flat, pad = _children(extents, rows)
        assert flat.dtype == np.dtype(dtype)
        for r, row in enumerate(rows.tolist()):
            coords = []
            for p in reversed(parents):
                row, c = divmod(row, p)
                coords.insert(0, c)
            for k in range(1 << dim):
                child = [2 * c + ((k >> (dim - 1 - j)) & 1) for j, c in enumerate(coords)]
                assert pad[r, k] == any(x >= e for x, e in zip(child, extents))
                if pad[r, k]:
                    assert 0 <= flat[r, k] < cells
                else:
                    want = 0
                    for x, e in zip(child, extents):
                        want = want * e + x
                    assert flat[r, k] == want
