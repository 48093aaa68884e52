import math

import numpy as np
import pytest

from amrc import ConfigError, Criterion, DataError, ErrorDomain, ErrorSpec, GridShape
from amrc.criteria import (
    batch_check_absolute,
    batch_check_relative,
    check_absolute,
    check_relative,
    family_means,
    resolve_bound,
    resolve_bounds_batch,
)
from amrc.morton import MortonIndex


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
        got = resolve_bound(MortonIndex(0, 2), self.spec(), self.shape)
        assert got == Criterion("abs", 2.0)

    def test_inside_domain_takes_min(self):
        spec = self.spec((((0, 8), (0, 8)), 0.5))
        got = resolve_bound(MortonIndex(0, 2), spec, self.shape)  # box [0,4)x[0,4)
        assert got.bound == 0.5

    def test_straddling_nested_domains(self):
        spec = self.spec((((0, 8), (0, 8)), 1.0), (((2, 6), (2, 6)), 0.25))
        got = resolve_bound(MortonIndex(0, 1), spec, self.shape)  # box [0,8)^2
        assert got.bound == 0.25

    def test_disjoint_domain_ignored(self):
        spec = self.spec((((8, 16), (8, 16)), 0.01))
        got = resolve_bound(MortonIndex(0, 2), spec, self.shape)
        assert got.bound == 2.0

    def test_monotone_under_added_domains(self, rng):
        for _ in range(100):
            level = int(rng.integers(0, 5))
            code = int(rng.integers(0, 4 ** level))
            element = MortonIndex(code, level)
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                lo = rng.integers(0, 15, size=2)
                hi = lo + rng.integers(1, 16, size=2)
                boxes.append(((int(lo[0]), int(hi[0])), (int(lo[1]), int(hi[1]))))
            bounds = rng.random(len(boxes)) * 3
            prev = math.inf
            for k in range(len(boxes) + 1):
                spec = self.spec(*zip(boxes[:k], bounds[:k]), default=2.0)
                got = resolve_bound(element, spec, self.shape).bound
                assert got <= prev
                prev = got

    def test_batch_matches_scalar(self, rng):
        spec = self.spec((((0, 8), (0, 8)), 1.0), (((2, 6), (2, 6)), 0.25),
                         (((10, 12), (0, 16)), 0.7))
        levels = rng.integers(0, 5, size=64)
        codes = np.array([rng.integers(0, 4 ** l) for l in levels], dtype=np.uint64)
        got = resolve_bounds_batch(codes, levels.astype(np.uint8), spec, self.shape)
        for c, l, b in zip(codes, levels, got):
            assert resolve_bound(MortonIndex(int(c), int(l)), spec, self.shape).bound == b
