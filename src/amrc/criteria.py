"""Error-bound bookkeeping for adaptive coarsening.

Each leaf carries an accumulated-inaccuracy tracker: an upper bound on the
absolute deviation of its value from every initial data point it covers.
Trackers start at zero on the uncoarsened mesh, so a single code path covers
both the first coarsening round (where the bound is exact) and later rounds
(where it is estimated from the previous round's values and trackers).

Absolute criterion: a family may collapse to the candidate value ``c`` iff

    max_i(|c - v_i| + t_i) <= bound

and that maximum becomes the parent's tracker.

Relative criterion: the point-wise relative error is estimated as

    max_i (t_i + |v_i - c|) / min(|v_i - t_i|, |v_i|, |v_i + t_i|)

which is valid as long as every bound is <= 1 (100%); the parent's stored
tracker is again the absolute form ``max_i(|c - v_i| + t_i)``. A zero
denominator with a nonzero numerator rejects the collapse.

Scalar functions define the contract; ``batch_*`` variants evaluate many
families at once and are what the codec uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import morton
from .errors import ConfigError, DataError
from .mesh import GridShape, leaf_box

ABSOLUTE = "abs"
RELATIVE = "rel"


@dataclass(frozen=True)
class Criterion:
    """Point-wise error criterion: absolute (data units) or relative (fraction)."""

    kind: str
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "bound", float(self.bound))
        if self.kind not in (ABSOLUTE, RELATIVE):
            raise ConfigError(f"criterion kind must be '{ABSOLUTE}' or '{RELATIVE}', got {self.kind!r}")
        if not math.isfinite(self.bound) or self.bound < 0:
            raise ConfigError(f"bound must be finite and >= 0, got {self.bound}")
        if self.kind == RELATIVE and self.bound > 1.0:
            raise ConfigError(f"relative bound is capped at 1.0 (100%), got {self.bound}")


@dataclass(frozen=True)
class ErrorDomain:
    """A criterion restricted to an index-space box (half-open per axis)."""

    box: tuple[tuple[int, int], ...]
    criterion: Criterion

    def __post_init__(self):
        box = tuple((int(lo), int(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if any(lo >= hi for lo, hi in box):
            raise ConfigError(f"empty domain box {box}")


@dataclass(frozen=True)
class ErrorSpec:
    """Default criterion plus region-wise (possibly nested) error domains."""

    default: Criterion
    domains: tuple[ErrorDomain, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        for dom in self.domains:
            if dom.criterion.kind != self.default.kind:
                raise ConfigError(
                    "mixing absolute and relative domains in one spec is not supported")

    @property
    def kind(self) -> str:
        return self.default.kind


def check_absolute(values, trackers, candidate: float, bound: float):
    """Absolute-criterion compliance check for one family.

    Returns ``(accept, new_tracker)`` where the tracker is the bound on the
    deviation of ``candidate`` from any initial data point under the family.
    """
    new = 0.0
    for v, t in zip(values, trackers):
        if not math.isfinite(v):
            raise DataError(f"non-finite value {v} in family")
        new = max(new, abs(candidate - v) + t)
    return new <= bound, new


def check_relative(values, trackers, candidate: float, bound: float):
    """Relative-criterion compliance check for one family.

    Returns ``(accept, new_tracker)``; the stored tracker is the absolute
    deviation bound, as with the absolute criterion.
    """
    worst = 0.0
    new = 0.0
    for v, t in zip(values, trackers):
        if not math.isfinite(v):
            raise DataError(f"non-finite value {v} in family")
        num = t + abs(v - candidate)
        den = min(abs(v - t), abs(v), abs(v + t))
        if den == 0.0:
            worst = max(worst, 0.0 if num == 0.0 else math.inf)
        else:
            worst = max(worst, num / den)
        new = max(new, abs(candidate - v) + t)
    return worst <= bound, new


def resolve_bound(element: morton.MortonIndex, spec: ErrorSpec, shape: GridShape) -> Criterion:
    """Most restrictive criterion applying to an element.

    The minimum of the default bound and the bounds of every domain whose box
    intersects the element's covered cell box.
    """
    box = leaf_box(element.code, element.level, shape)
    bound = spec.default.bound
    for dom in spec.domains:
        if all(lo < dhi and hi > dlo for (lo, hi), (dlo, dhi) in zip(box, dom.box)):
            bound = min(bound, dom.criterion.bound)
    return Criterion(spec.kind, bound)


# --- batched forms used by the compression driver ---------------------------
#
# ``vals``/``trackers`` are (n_families, 2^dim) float64 matrices gathered from
# the leaf arrays; ``dmask`` marks dummy members (their values are NaN and
# never enter any reduction). Finiteness of the data is validated once at
# ingestion, not here.


def family_means(vals: np.ndarray, dmask: np.ndarray):
    """Per-family mean over non-dummy members; all-dummy families yield NaN.

    Returns ``(means, all_dummy)``.
    """
    counts = (~dmask).sum(axis=1)
    all_dummy = counts == 0
    members = np.where(dmask, 0.0, vals)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = members.sum(axis=1)
    means = sums / np.maximum(counts, 1)
    big = ~np.isfinite(sums)
    if big.any():
        # Sums near the f64 maximum overflow; average those rows pre-scaled by
        # 2^-dim, which is exact, so every other row stays bit-identical.
        scale = 1.0 / vals.shape[1]
        means[big] = (members[big] * scale).sum(axis=1) / counts[big] / scale
    vmin = np.where(dmask, np.inf, vals).min(axis=1)
    vmax = np.where(dmask, -np.inf, vals).max(axis=1)
    means = np.where(vmin == vmax, vmax, means)
    return np.where(all_dummy, np.nan, means), all_dummy


def batch_check_absolute(vals, trackers, dmask, cand, bounds):
    """Vectorized :func:`check_absolute`; all-dummy families accept with tracker 0.

    A deviation that overflows to inf rejects its family.
    """
    with np.errstate(over="ignore"):
        dev = np.abs(cand[:, None] - vals) + trackers
    new = np.where(dmask, -np.inf, dev).max(axis=1)
    new = np.where(np.isneginf(new), 0.0, new)
    return new <= bounds, new


def batch_check_relative(vals, trackers, dmask, cand, bounds):
    """Vectorized :func:`check_relative`; all-dummy families accept with tracker 0.

    A deviation that overflows to inf rejects its family.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        absdev = np.abs(cand[:, None] - vals) + trackers
        den = np.minimum(
            np.abs(vals - trackers), np.minimum(np.abs(vals), np.abs(vals + trackers))
        )
        contrib = absdev / den
    contrib = np.where(den == 0.0, np.where(absdev == 0.0, 0.0, np.inf), contrib)
    worst = np.where(dmask, -np.inf, contrib).max(axis=1)
    worst = np.where(np.isneginf(worst), 0.0, worst)
    new = np.where(dmask, -np.inf, absdev).max(axis=1)
    new = np.where(np.isneginf(new), 0.0, new)
    return worst <= bounds, new


def resolve_bounds_batch(codes: np.ndarray, levels: np.ndarray,
                         spec: ErrorSpec, shape: GridShape) -> np.ndarray:
    """Vectorized :func:`resolve_bound` over parent elements; returns bounds only.

    The codec resolves bounds as box slices of its per-level parent grid
    instead; this Morton-code form serves callers that hold explicit codes.
    """
    bounds = np.full(len(codes), spec.default.bound)
    if not spec.domains:
        return bounds
    l0, dim = shape.initial_level, shape.dim
    coords = morton.deinterleave(codes.astype(np.uint64), dim)
    size = np.uint64(1) << (l0 - levels.astype(np.int64)).astype(np.uint64)
    # numpy axis k corresponds to Morton axis dim-1-k
    origins = [(coords[dim - 1 - k] * size).astype(np.int64) for k in range(dim)]
    sizes = size.astype(np.int64)
    for dom in spec.domains:
        inside = np.ones(len(codes), dtype=bool)
        for k, (dlo, dhi) in enumerate(dom.box):
            inside &= (origins[k] < dhi) & (origins[k] + sizes > dlo)
        bounds = np.where(inside, np.minimum(bounds, dom.criterion.bound), bounds)
    return bounds
