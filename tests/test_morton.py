import numpy as np
import pytest

from amrc.morton import (
    MAX_LEVEL,
    MortonIndex,
    deinterleave,
    family_of,
    interleave,
    morton_decode,
    morton_encode,
    parent,
)
from oracle import naive_decode, naive_encode


def test_encode_examples():
    assert morton_encode((0, 0), 3, 2) == MortonIndex(0, 3)
    assert morton_encode((1, 1), 1, 2) == MortonIndex(3, 1)
    assert morton_encode((1, 0, 1), 1, 3) == MortonIndex(5, 1)


def test_decode_examples():
    assert morton_decode(MortonIndex(3, 1), 2) == (1, 1)
    assert morton_decode(MortonIndex(0, 5), 2) == (0, 0)
    assert morton_decode(MortonIndex(0, 5), 3) == (0, 0, 0)
    assert morton_decode(MortonIndex(5, 1), 3) == (1, 0, 1)


def test_encode_range_errors():
    with pytest.raises(ValueError):
        morton_encode((2, 0), 1, 2)  # coordinate >= 2^level
    with pytest.raises(ValueError):
        morton_encode((0, 0), 1, 4)
    with pytest.raises(ValueError):
        morton_encode((0, 0), MAX_LEVEL[2] + 1, 2)
    with pytest.raises(ValueError):
        morton_encode((0, 0, 0), MAX_LEVEL[3] + 1, 3)


def test_parent_examples():
    assert parent(MortonIndex(13, 2), 2) == MortonIndex(3, 1)
    assert parent(MortonIndex(0, 1), 2) == MortonIndex(0, 0)
    assert parent(MortonIndex(42, 2), 3) == MortonIndex(5, 1)
    with pytest.raises(ValueError):
        parent(MortonIndex(0, 0), 2)


def test_family_examples():
    fam = family_of(MortonIndex(6, 2), 2)
    assert [m.code for m in fam] == [4, 5, 6, 7]
    assert all(m.level == 2 for m in fam)
    assert [m.code for m in family_of(MortonIndex(0, 1), 2)] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        family_of(MortonIndex(9, 1), 3)  # level-1 3D codes are 0..7
    with pytest.raises(ValueError):
        family_of(MortonIndex(0, 0), 2)


def test_family_contiguity_and_parent(rng):
    for dim in (2, 3):
        for _ in range(200):
            level = int(rng.integers(1, MAX_LEVEL[dim] + 1))
            code = int(rng.integers(0, 1 << (dim * level)))
            fam = family_of(MortonIndex(code, level), dim)
            assert len(fam) == 1 << dim
            assert [m.code for m in fam] == list(range(fam[0].code, fam[0].code + (1 << dim)))
            assert len({parent(m, dim) for m in fam}) == 1
            assert fam[0].code == parent(fam[0], dim).code << dim


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("level", range(0, 7))
def test_bijection_exhaustive(dim, level):
    n = 1 << level
    grids = np.meshgrid(*([np.arange(n, dtype=np.uint64)] * dim), indexing="ij")
    coords = tuple(g.reshape(-1) for g in grids)
    codes = interleave(coords, dim)
    assert len(np.unique(codes)) == n ** dim
    assert int(codes.max(initial=0)) < 1 << (dim * level)
    back = deinterleave(codes, dim)
    for a in range(dim):
        assert np.array_equal(back[a], coords[a])


@pytest.mark.parametrize("dim", [2, 3])
def test_bijection_randomized_high_levels(dim, rng):
    # 10^6 samples spread over the upper levels
    per_level = 1_000_000 // (MAX_LEVEL[dim] - 7)
    for level in range(8, MAX_LEVEL[dim] + 1):
        coords = tuple(
            rng.integers(0, 1 << level, size=per_level).astype(np.uint64)
            for _ in range(dim)
        )
        codes = interleave(coords, dim)
        assert int(codes.max()) < 1 << (dim * level)
        back = deinterleave(codes, dim)
        for a in range(dim):
            assert np.array_equal(back[a], coords[a])


def test_matches_naive_bit_placement(rng):
    for dim in (2, 3):
        for _ in range(300):
            level = int(rng.integers(0, MAX_LEVEL[dim] + 1))
            coords = tuple(int(rng.integers(0, 1 << level)) for _ in range(dim))
            idx = morton_encode(coords, level, dim)
            assert idx.code == naive_encode(coords, level, dim)
            assert morton_decode(idx, dim) == naive_decode(idx.code, level, dim)


def test_equal_level_codes_sort_like_z_curve():
    # walking the level-2 2D curve visits cells in ascending code order
    expected = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (2, 1), (3, 1),
                (0, 2), (1, 2), (0, 3), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]
    assert [morton_decode(MortonIndex(c, 2), 2) for c in range(16)] == expected

