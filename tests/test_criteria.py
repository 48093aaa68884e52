import itertools
import math

import numpy as np
import pytest

from amrc import ConfigError, Criterion, DataError, ErrorDomain, ErrorSpec, GridShape
from amrc.criteria import (
    batch_check_absolute,
    batch_check_relative,
    family_means,
    resolve_bounds_batch,
)
from amrc import codec
from amrc.codec import _row_sum
from amrc.fields import smooth
from oracle import (
    check_absolute,
    check_level,
    check_relative,
    families,
    reference_check,
    reference_worst,
    resolve_bound,
)


class TestCriterionTypes:
    def test_bounds_validated(self):
        Criterion("abs", 0.0)
        Criterion("rel", 1.0)
        with pytest.raises(ConfigError):
            Criterion("abs", -1.0)
        with pytest.raises(ConfigError):
            Criterion("rel", 1.5)
        with pytest.raises(ConfigError):
            Criterion("abs", float("nan"))
        with pytest.raises(ConfigError):
            Criterion("squared", 1.0)

    def test_mixed_kinds_rejected(self):
        dom = ErrorDomain(((0, 4), (0, 4)), Criterion("rel", 0.1))
        with pytest.raises(ConfigError):
            ErrorSpec(Criterion("abs", 1.0), (dom,))

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError):
            ErrorDomain(((4, 4), (0, 4)), Criterion("abs", 1.0))

    def test_box_bounds_must_be_integers(self):
        crit = Criterion("abs", 1.0)
        box = ErrorDomain(((np.int64(0), 3), (0, np.int32(3))), crit).box
        assert box == ((0, 3), (0, 3)) and all(type(b) is int for r in box for b in r)
        # truncating 0.9 and 2.9 would shrink the domain to ((0, 2), (0, 3))
        for bad in [((0.9, 2.9), (0, 3)), ((0, 3.0), (0, 3)), (("0", 3), (0, 3))]:
            with pytest.raises(ConfigError, match="must be integers"):
                ErrorDomain(bad, crit)


def family_mean(members):
    """Mean of one family given as a 4-slot row; NaN slots are dummies."""
    row = np.array([list(members) + [np.nan] * (4 - len(members))])
    means, all_dummy = family_means(row, np.isnan(row))
    return None if all_dummy[0] else float(means[0])


class TestInterpolateFamily:
    def test_mean(self):
        assert family_mean([1, 2, 3, 4]) == 2.5

    def test_ignores_missing_members(self):
        # two dummies dropped: mean of the two data values only
        assert family_mean([2.0, 4.0]) == 3.0

    def test_singleton(self):
        assert family_mean([7.0]) == 7.0

    def test_all_dummy_signals_no_value(self):
        assert family_mean([]) is None

    def test_identical_values_exact(self):
        v = 0.1 + 2e-17  # not representable "nicely"; mean must still be bit-equal
        assert family_mean([v, v, v]) == v


class TestCheckAbsolute:
    def test_accept_with_tracker(self):
        accept, tracker = check_absolute([1, 1, 1, 2], [0, 0, 0, 0], 1.25, 1.0)
        assert accept and tracker == 0.75

    def test_reject(self):
        accept, tracker = check_absolute([1, 1, 1, 2], [0, 0, 0, 0], 1.25, 0.5)
        assert not accept and tracker == 0.75

    def test_second_iteration_accumulates(self):
        accept, tracker = check_absolute([1.25, 3.0], [0.75, 0.0], 2.125, 2.0)
        assert accept and tracker == max(0.875 + 0.75, 0.875 + 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            check_absolute([1.0, float("inf")], [0, 0], 1.0, 1.0)


class TestCheckRelative:
    def test_identical_values(self):
        accept, tracker = check_relative([10.0] * 4, [0.0] * 4, 10.0, 0.0)
        assert accept and tracker == 0.0

    def test_first_iteration_is_exact_relative_error(self):
        accept, _ = check_relative([10.0, 12.0], [0.0, 0.0], 11.0, 0.05)
        assert not accept  # max(1/10, 1/12) = 0.1 > 0.05
        accept, _ = check_relative([10.0, 12.0], [0.0, 0.0], 11.0, 0.1)
        assert accept

    def test_estimator_denominator(self):
        # value 2.0 with tracker 0.5: denominator min(1.5, 2.0, 2.5) = 1.5
        contrib = (0.5 + abs(2.0 - 2.2)) / 1.5
        accept, tracker = check_relative([2.0], [0.5], 2.2, contrib + 1e-12)
        assert accept and tracker == pytest.approx(0.7)
        accept, _ = check_relative([2.0], [0.5], 2.2, contrib - 1e-3)
        assert not accept

    def test_zero_denominator_rejects_unless_exact(self):
        accept, _ = check_relative([0.0], [0.0], 1.0, 1.0)
        assert not accept
        accept, tracker = check_relative([0.0], [0.0], 0.0, 0.0)
        assert accept and tracker == 0.0


class TestFirstIterationExactness:
    def test_matches_direct_formulas(self, rng):
        # with zero trackers the checks reduce to the exact first-round formulas
        for _ in range(200):
            vals = rng.normal(size=4) * 10
            cand = float(np.mean(vals))
            _, tr = check_absolute(vals, [0.0] * 4, cand, math.inf)
            assert tr == max(abs(cand - v) for v in vals)
            accept, _ = check_relative(vals, [0.0] * 4, cand, 0.3)
            exact = max(abs(v - cand) / abs(v) for v in vals)
            assert accept == (exact <= 0.3)


class TestBatchMatchesScalar:
    def test_absolute(self, rng):
        for _ in range(50):
            vals = rng.normal(size=(8, 4)) * 5
            trs = np.abs(rng.normal(size=(8, 4)))
            dmask = rng.random((8, 4)) < 0.2
            dmask[:, 0] = False  # at least one member
            v = np.where(dmask, np.nan, vals)
            means, all_dummy = family_means(v, dmask)
            assert not all_dummy.any()
            bounds = np.abs(rng.normal(size=8)) * 3
            acc, ntr = batch_check_absolute(v, trs, dmask, means, bounds)
            for i in range(8):
                keep = ~dmask[i]
                a, t = check_absolute(vals[i][keep], trs[i][keep], means[i], bounds[i])
                assert a == acc[i] and t == ntr[i]

    def test_relative(self, rng):
        for _ in range(50):
            vals = np.abs(rng.normal(size=(8, 4))) + 0.5
            trs = np.abs(rng.normal(size=(8, 4))) * 0.1
            dmask = rng.random((8, 4)) < 0.2
            dmask[:, 0] = False
            v = np.where(dmask, np.nan, vals)
            means, _ = family_means(v, dmask)
            bounds = rng.random(8)
            acc, ntr = batch_check_relative(v, trs, dmask, means, bounds)
            for i in range(8):
                keep = ~dmask[i]
                a, t = check_relative(vals[i][keep], trs[i][keep], means[i], bounds[i])
                assert a == acc[i] and t == ntr[i]

    def test_family_means_exact_on_constant(self):
        v = np.array([[0.1, 0.1, 0.1, np.nan]])
        dmask = np.array([[False, False, False, True]])
        means, all_dummy = family_means(v, dmask)
        assert means[0] == 0.1 and not all_dummy[0]

    def test_all_dummy_family(self):
        v = np.full((1, 4), np.nan)
        dmask = np.ones((1, 4), dtype=bool)
        means, all_dummy = family_means(v, dmask)
        assert all_dummy[0] and np.isnan(means[0])
        acc, ntr = batch_check_absolute(v, np.zeros((1, 4)), dmask, means, np.zeros(1))
        assert acc[0] and ntr[0] == 0.0


class TestResolveBound:
    shape = GridShape((16, 16))

    def spec(self, *domains, default=2.0, kind="abs"):
        return ErrorSpec(Criterion(kind, default),
                         tuple(ErrorDomain(b, Criterion(kind, v)) for b, v in domains))

    def test_no_domains(self):
        got = resolve_bound(0, 2, self.spec(), self.shape)
        assert got == Criterion("abs", 2.0)

    def test_inside_domain_takes_min(self):
        spec = self.spec((((0, 8), (0, 8)), 0.5))
        got = resolve_bound(0, 2, spec, self.shape)  # box [0,4)x[0,4)
        assert got.bound == 0.5

    def test_straddling_nested_domains(self):
        spec = self.spec((((0, 8), (0, 8)), 1.0), (((2, 6), (2, 6)), 0.25))
        got = resolve_bound(0, 1, spec, self.shape)  # box [0,8)^2
        assert got.bound == 0.25

    def test_disjoint_domain_ignored(self):
        spec = self.spec((((8, 16), (8, 16)), 0.01))
        got = resolve_bound(0, 2, spec, self.shape)
        assert got.bound == 2.0

    def test_monotone_under_added_domains(self, rng):
        for _ in range(100):
            level = int(rng.integers(0, 5))
            code = int(rng.integers(0, 4 ** level))
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                lo = rng.integers(0, 15, size=2)
                hi = lo + rng.integers(1, 16, size=2)
                boxes.append(((int(lo[0]), int(hi[0])), (int(lo[1]), int(hi[1]))))
            bounds = rng.random(len(boxes)) * 3
            prev = math.inf
            for k in range(len(boxes) + 1):
                spec = self.spec(*zip(boxes[:k], bounds[:k]), default=2.0)
                got = resolve_bound(code, level, spec, self.shape).bound
                assert got <= prev
                prev = got

    def test_batch_matches_scalar(self, rng):
        spec = self.spec((((0, 8), (0, 8)), 1.0), (((2, 6), (2, 6)), 0.25),
                         (((10, 12), (0, 16)), 0.7))
        levels = rng.integers(0, 5, size=64)
        codes = np.array([rng.integers(0, 4 ** l) for l in levels], dtype=np.uint64)
        got = resolve_bounds_batch(codes, levels.astype(np.uint8), spec, self.shape)
        for c, l, b in zip(codes, levels, got):
            assert resolve_bound(int(c), int(l), spec, self.shape).bound == b


def adversarial_rows(width, rng):
    """Family rows that stress the order and the edge cases of the reductions.

    Cancellation, every or many sign patterns of zeros, subnormals, members
    near the float64 maximum, and random rows over many magnitudes; each
    fixed pattern appears under every rotation of its members.
    """
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    patterns = [
        [1e16, 1.0, -1e16, 1.0], [1.0, 1e16, 1.0, -1e16], [1e308, 1e308, -1e308, 1.0],
        [tiny, -tiny, 3 * tiny, 0.0], [tiny, tiny, tiny, 2 * tiny], [tiny, -0.0, tiny, tiny],
        [big, big, big, -big], [big, big, big, big], [-big, -big, -big, -big],
        [0.9 * big, 0.9 * big, 0.9 * big, -0.9 * big], [big, 0.5 * big, 0.25 * big, 1.0],
        [0.1, 0.1, 0.1, 0.1 + 2e-17], [7.0, 7.0, 7.0, 7.0],
    ]
    rows = [np.roll(np.resize(p, width), r) for p in patterns for r in range(width)]
    signs = rng.random((64, width)) < 0.5 if width == 8 else (
        (np.arange(16)[:, None] >> np.arange(4)) & 1).astype(bool)
    rows += list(np.where(signs, -0.0, 0.0))
    rows += list(rng.normal(size=(64, width)) * 10.0 ** rng.integers(-300, 300, size=(64, width)))
    return np.array(rows)


def shuffle_rows(rows, rng):
    """``rows`` with the members of each row in a random order."""
    return np.take_along_axis(rows, rng.random(rows.shape).argsort(axis=1), axis=1)


def one_low_rows(n, width, rng):
    """Positive rows of one member ``a`` and ``width - 1`` members ``b > a``:
    the largest relative term sits at the smallest member."""
    a = rng.random((n, 1)) + 0.5
    b = a * (1.0 + rng.random((n, 1)))
    return shuffle_rows(np.concatenate([a, np.repeat(b, width - 1, axis=1)], axis=1), rng)


def boundary_rows(width, rng):
    """Family rows at the edges of the relative check's one-sided tests.

    Rows of one sign, either sign, whose largest term sits at their smallest
    member (which the extremes accept at a bound equal to it) or at their
    largest member (``b < 3a``, which the extremes reject just below it);
    rows with zeros of both signs, with a zero member equal to the candidate
    (a 0/0 term), and of mixed signs.
    """
    n = 16
    a = rng.random((n, 1)) + 0.5
    b = a * (1.0 + 2.0 * rng.random((n, 1)))
    one_high = shuffle_rows(np.concatenate([b, np.repeat(a, width - 1, axis=1)], axis=1), rng)
    one_sign = np.concatenate([one_low_rows(n, width, rng), one_high])
    zeros = [[0.0, 1.0, -1.0, 0.0], [-0.0, 2.0, -2.0, 0.0], [0.0, 1.0, 1.0, 1.0],
             [-0.0, -3.0, -3.0, -3.0], [0.0, -0.0, 0.0, 5.0]]
    zeros = shuffle_rows(np.array([np.resize(z, width) for z in zeros * 4]), rng)
    return np.concatenate([one_sign, -one_sign, zeros, rng.normal(size=(n, width))])


def extreme_rows(width, value_kind, rng):
    """Family rows at the ends of the storage dtype's range.

    Random rows and constant rows of the dtype's minimum and maximum (the
    largest float of either sign), their halves, and 0 and ±1, and the rows
    of one minimum, one maximum and zeros, whose mean rounds to zero.
    """
    dtype = np.dtype(codec.VALUE_KIND_DTYPES[value_kind])
    if dtype.kind == "f":
        hi = float(np.finfo(dtype).max)
        lo = -hi
    else:
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    values = np.array([lo, hi, lo // 2, hi // 2, 0, 1, -1], dtype=np.float64)
    pair = np.resize([lo, hi] + [0] * (width - 2), width).astype(np.float64)
    return np.concatenate([rng.choice(values, size=(64, width)),
                           np.repeat(values[:, None], width, axis=1),
                           [np.roll(pair, r) for r in range(width)]])


def level_grid(rows, parents):
    """The level grid whose ``oracle.families`` rows are ``rows``; inverse of it on
    even extents."""
    dim = len(parents)
    split = rows.reshape(parents + (2,) * dim)
    order = [a for j in range(dim) for a in (j, dim + j)]
    return split.transpose(order).reshape([2 * p for p in parents])


class TestLevelKernelMatchesBatch:
    """The codec's level kernel reduces across copies of the child views of a
    level grid, a slab of parent rows at a time. With any slab size it must
    give the candidates, trackers and accept flags that ``family_means`` and
    ``batch_check_*`` give on ``families`` copies, bit for bit, or the
    artifacts change. An f32 variable's candidates come in float32 grids,
    which widen to the reference's float64 exactly."""

    @pytest.mark.parametrize("width", [4, 8])
    def test_row_sum_is_numpy_order(self, rng, width):
        rows = np.ascontiguousarray(np.concatenate(
            [adversarial_rows(width, rng),
             rng.normal(size=(5000, width)) * 10.0 ** rng.integers(-20, 20, size=(5000, width))]))
        with np.errstate(over="ignore", invalid="ignore"):
            want = rows.sum(axis=1)
            # numpy adds onto +0.0, which turns a sum of negative zeros positive
            got = 0.0 + _row_sum([rows[:, k] for k in range(width)],
                                 *(np.empty(len(rows)) for _ in range(3)))
        assert got.tobytes() == want.tobytes(), (
            f"numpy no longer sums a contiguous (n, {width}) row in the order "
            "codec._row_sum writes out; the kernel's means, and so the artifacts, "
            "would no longer match family_means")

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["abs", "rel"])
    @pytest.mark.parametrize("value_kind", ["f64", "f32", "i16", "i32"])
    def test_kernel_matches_batch_checks(self, rng, monkeypatch, dim, kind, value_kind):
        width = 1 << dim
        slabs = (codec._SLAB, 1)  # the whole level in one slab, and one parent row per slab
        cand_dtype = np.float32 if value_kind == "f32" else np.float64
        rows = np.concatenate([adversarial_rows(width, rng), boundary_rows(width, rng)])
        with np.errstate(over="ignore"):
            if value_kind == "f32":  # f32 data stays in the f32 range
                rows = np.nan_to_num(rows.astype(np.float32).astype(np.float64),
                                     posinf=float(np.finfo(np.float32).max),
                                     neginf=-float(np.finfo(np.float32).max))
            elif value_kind in ("i16", "i32"):  # integers within the dtype range
                info = np.iinfo(codec.VALUE_KIND_DTYPES[value_kind])
                rows = np.clip(np.rint(rows * 100.0), info.min, info.max)
        rows = np.concatenate([rows, extreme_rows(width, value_kind, rng)])
        side = 1
        while side ** dim < len(rows):
            side += 1
        fill = rng.normal(size=(side ** dim - len(rows), width))
        if value_kind in ("i16", "i32"):
            fill = np.rint(fill * 100.0)
        rows = np.concatenate([rows, fill])[rng.permutation(side ** dim)]
        grid = level_grid(rows, (side,) * dim)
        # trackers of a later level: some zero, the others up to the value's size
        prior = np.abs(grid) * rng.random(grid.shape) * (rng.random(grid.shape) < 0.7)
        for crop in itertools.product([0, 1], repeat=dim):  # 1: pad the last parent row
            vals = grid[tuple(slice(0, 2 * side - c) for c in crop)]
            dmask = families(np.zeros(vals.shape, dtype=bool), True)
            bounds = rng.random(dmask.shape[0]) * np.abs(families(vals, 0.0)).max(axis=1)
            bounds[::7] = 0.0
            if kind == "rel":
                bounds = rng.random(dmask.shape[0])
            later = prior[tuple(slice(0, n) for n in vals.shape)]
            feeds = [(vals, 0.0), (vals, later)]
            if value_kind != "f64":  # the initial level reads the values in their own dtype
                feeds.append((vals.astype(codec.VALUE_KIND_DTYPES[value_kind]), 0.0))
            if value_kind == "f32":  # and later levels read the float32 candidate grids
                feeds.append((vals.astype(np.float32), later))
            for level, trks in feeds:
                # the values as the kernel gets them: an integer grid holds no -0.0
                fvals = families(level.astype(np.float64), np.nan)
                ftrks = families(np.broadcast_to(trks, vals.shape), 0.0)
                cases = {"random": bounds}
                if kind == "rel":
                    # each family at its own estimate and one ulp either side
                    # (bounds are never negative): the reference accepts every
                    # family at it, none with a nonzero estimate below it
                    with np.errstate(all="ignore"):
                        _, cand, _ = reference_check(fvals, ftrks, dmask, bounds, kind, value_kind)
                    worst = reference_worst(fvals, ftrks, dmask, cand)
                    cases.update(below=np.where(worst > 0.0, np.nextafter(worst, -np.inf), 0.0),
                                 at=worst, above=np.nextafter(worst, np.inf))
                for case, b in cases.items():
                    with np.errstate(all="ignore"):
                        want = reference_check(fvals, ftrks, dmask, b, kind, value_kind)
                    if case in ("at", "above"):
                        assert want[0].all()
                    elif case == "below":
                        assert not (want[0] & (worst > 0.0)).any()
                    for slab in slabs:
                        monkeypatch.setattr(codec, "_SLAB", slab)
                        ok, cands, ntrs = check_level([level], [trks], b.reshape(
                            [(n + 1) // 2 for n in vals.shape]), kind, value_kind)
                        assert cands[0].dtype == cand_dtype and ntrs[0].dtype == np.float64
                        # float32 to float64 is exact, so the widened bytes must match
                        got = (ok.reshape(-1), cands[0].reshape(-1).astype(np.float64),
                               ntrs[0].reshape(-1))
                        for name, g, w in zip(("accept", "candidate", "tracker"), got, want):
                            assert g.tobytes() == w.tobytes(), (
                                f"{name} differs with crop {crop}, {case} bounds, "
                                f"{level.dtype} values, "
                                f"{'zero' if np.isscalar(trks) else 'nonzero'} trackers, "
                                f"slabs of {slab} families")
                    # CompressStats.max_tracker is taken over every accepted
                    # family: it is the final leaves' maximum only while a
                    # stored tracker is >= each of its present members'. A
                    # criterion's bound is finite; the "at" bound of a family
                    # whose estimate overflows is inf, and its tracker NaN.
                    accepted = got[0] & np.isfinite(b)
                    assert ((got[2][accepted, None] >= ftrks[accepted])
                            | dmask[accepted]).all(), (
                        f"an accepted tracker is below a member's with crop {crop}, "
                        f"{case} bounds, {level.dtype} values")

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extremes_accept_at_the_bound(self, rng, monkeypatch, dim, sign):
        """A family of one sign whose largest relative term sits at its smallest
        member is accepted from its extremes alone when the bound equals that
        term; the per-member pass sees none of them."""
        width, side = 1 << dim, 4
        grid = level_grid(sign * one_low_rows(side ** dim, width, rng), (side,) * dim)
        seen = []
        per_member = codec._worst
        monkeypatch.setattr(codec, "_worst",
                            lambda *args: seen.append(args[2].size) or per_member(*args))
        fvals = families(grid, np.nan)
        dmask = np.zeros(fvals.shape, dtype=bool)
        for trks, slab in itertools.product((0.0, np.full(grid.shape, 0.01)), (codec._SLAB, 1)):
            monkeypatch.setattr(codec, "_SLAB", slab)
            ftrks = families(np.broadcast_to(trks, grid.shape), 0.0)
            with np.errstate(all="ignore"):
                _, cand, _ = reference_check(fvals, ftrks, dmask, np.zeros(len(fvals)),
                                             "rel", "f64")
            worst = reference_worst(fvals, ftrks, dmask, cand)
            ok, _, _ = check_level([grid], [trks], worst.reshape((side,) * dim),
                                   "rel", "f64")
            assert ok.all() and seen == []


class TestIncompleteFamiliesFail:
    """A cell that is not a leaf carries a ``+inf`` tracker, and that alone
    makes its family fail the bound check: the level kernel has no other
    reject."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["abs", "rel"])
    @pytest.mark.parametrize("value_kind", ["f64", "f32"])
    def test_infinite_tracker_rejects_its_family(self, rng, monkeypatch, dim, kind, value_kind):
        parents = (4,) * dim
        # families of one sign each, within 1 % of it, so every family
        # passes either bound with finite trackers
        sign = np.kron(rng.choice([-1.0, 1.0], size=parents), np.ones((2,) * dim))
        grid = sign * (1.0 + 0.01 * rng.random(sign.shape))
        if value_kind == "f32":  # above the initial level, f32 values sit in float32 grids
            grid = grid.astype(np.float32)
        trks = np.full(grid.shape, 1e-4)
        for crop in (0, 1):  # 1: the last parent row along axis 0 holds pad members
            vals, t = grid[:len(grid) - crop], trks[:len(grid) - crop]
            bounds = np.full(tuple((n + 1) // 2 for n in vals.shape), 0.5)
            for slab in (codec._SLAB, 1):
                monkeypatch.setattr(codec, "_SLAB", slab)
                ok, cands, ntrs = check_level([vals], [t], bounds, kind, value_kind)
                assert ok.all() and cands[0].dtype == grid.dtype
                # one member of about half the families, at a random child, is not a leaf
                hit = rng.random(bounds.shape) < 0.5
                inf = t.copy()
                for p in zip(*np.nonzero(hit)):
                    cell = tuple(min(2 * i + int(rng.integers(2)), n - 1)
                                 for i, n in zip(p, vals.shape))
                    inf[cell] = np.inf
                got, gcands, gntrs = check_level([vals], [inf], bounds, kind, value_kind)
                assert (got == ~hit).all(), f"crop {crop}, slabs of {slab} families"
                # the other families are checked as before, bit for bit
                assert gcands[0][~hit].tobytes() == cands[0][~hit].tobytes()
                assert gntrs[0][~hit].tobytes() == ntrs[0][~hit].tobytes()

    @pytest.mark.parametrize("value_kind", ["f32", "f64"])
    def test_level_pass_marks_non_leaves_infinite(self, value_kind):
        # three variables on one mesh (one-for-all) under nested domains
        extents = (96, 120)
        dtype = codec.VALUE_KIND_DTYPES[value_kind]
        arrays = [smooth(extents, seed=s).astype(dtype).reshape(-1) for s in range(3)]
        spec = ErrorSpec(Criterion("abs", 0.5), (
            ErrorDomain(((24, 72), (30, 90)), Criterion("abs", 0.05)),
            ErrorDomain(((46, 50), (58, 62)), Criterion("abs", 0.0))))
        levels = list(codec._level_pass(arrays, GridShape(extents), spec, value_kind,
                                        whole_trackers=True))
        assert len(levels) > 3 and levels[0][0] is None
        partial_levels = 0
        for leaf, _, trks, _ in levels[1:]:
            assert len(trks) == len(arrays)
            for t in trks:
                assert np.isinf(t[~leaf]).all() and np.isfinite(t[leaf]).all()
            partial_levels += bool((~leaf).any())
        assert partial_levels > 1
        # without whole trackers the lower height of each fused pair, 1 and
        # 3 here, yields none; the upper one yields the same whole grids
        bare = list(codec._level_pass(arrays, GridShape(extents), spec, value_kind))
        assert len(bare) == len(levels)
        for h, (got, want) in enumerate(zip(bare[1:], levels[1:]), 1):
            leaf = want[0]
            assert got[0].tobytes() == leaf.tobytes() and got[3] == want[3]
            for g, w in zip(got[1], want[1]):
                assert g[leaf].tobytes() == w[leaf].tobytes()
            if h % 2:
                assert got[2] is None, f"level {h}"
            else:
                assert [g.tobytes() for g in got[2]] == [w.tobytes() for w in want[2]]
