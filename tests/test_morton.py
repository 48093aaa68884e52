import numpy as np
import pytest

from amrc.morton import MAX_LEVEL, deinterleave, interleave
from oracle import naive_decode, naive_encode


def test_encode_examples():
    assert interleave((0, 0), 2) == 0
    assert interleave((1, 1), 2) == 3
    assert interleave((1, 0, 1), 3) == 5


def test_decode_examples():
    assert deinterleave(3, 2) == (1, 1)
    assert deinterleave(0, 2) == (0, 0)
    assert deinterleave(0, 3) == (0, 0, 0)
    assert deinterleave(5, 3) == (1, 0, 1)


def test_dim_outside_2_3_rejected():
    with pytest.raises(ValueError):
        interleave((0, 0, 0, 0), 4)
    with pytest.raises(ValueError):
        deinterleave(0, 4)


def test_parent_examples():
    # a parent's code is its child's code shifted down by dim bits
    for code, dim, parent in [(13, 2, 3), (1, 2, 0), (42, 3, 5)]:
        coords = deinterleave(code, dim)
        assert interleave(tuple(c >> 1 for c in coords), dim) == code >> dim == parent


def test_family_examples():
    # the children 2p + bits of parent p take the codes (code(p) << dim) + k;
    # cell (2, 1) at level 2 has code 6, in the family of parent (1, 0)
    assert interleave((2, 1), 2) == 6
    assert [interleave((2 + (k & 1), k >> 1), 2) for k in range(4)] == [4, 5, 6, 7]
    assert [interleave((k & 1, k >> 1), 2) for k in range(4)] == [0, 1, 2, 3]


def test_family_contiguity_and_parent(rng):
    for dim in (2, 3):
        for _ in range(200):
            level = int(rng.integers(1, MAX_LEVEL[dim] + 1))
            parent = tuple(int(rng.integers(0, 1 << (level - 1))) for _ in range(dim))
            base = interleave(parent, dim) << dim
            fam = [interleave(tuple(2 * p + ((k >> a) & 1) for a, p in enumerate(parent)), dim)
                   for k in range(1 << dim)]
            assert fam == list(range(base, base + (1 << dim)))
            assert {tuple(c >> 1 for c in deinterleave(m, dim)) for m in fam} == {parent}


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
            code = naive_encode(coords, level, dim)
            assert interleave(coords, dim) == code
            assert deinterleave(code, dim) == naive_decode(code, level, dim)


def test_equal_level_codes_sort_like_z_curve():
    # walking the level-2 2D curve visits cells in ascending code order
    expected = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (2, 1), (3, 1),
                (0, 2), (1, 2), (0, 3), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)]
    assert [deinterleave(c, 2) for c in range(16)] == expected

