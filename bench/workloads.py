"""Benchmark workloads: inputs generated from ``amrc.fields`` plus a seed.

Each workload fixes one field from ``amrc.fields`` (generator seed 0, the
case measured in the roadmap) and a compression config. The benchmark seed
picks a cyclic shift of that field along its periodic axes. The generators
are sums of cosines with whole frequencies over ``[0, 1)``, so a shifted
field is the same field with other wave phases: every grid value and its
alignment with the tree change, while the spectrum, and with it the
compression ratio, stays put. Drawing fresh generator seeds instead moves
the ratio by 20-40 % from seed to seed, more than any bound a regression
gate can use.

Seed ``n`` has ``INPUTS_PER_SEED`` inputs. Input ``k`` takes point
``n * INPUTS_PER_SEED + k`` of the R_d low-discrepancy sequence as its
fractional shift, so input 0 of seed 0 is the unshifted field and nearby
seeds spread evenly over the shift space. Input 0 is the seed's own input,
and the timed loop cycles through all of them (see ``INPUTS_PER_SEED``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from amrc import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    CompressionConfig,
    Criterion,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    fields,
)


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # name in amrc.fields.GENERATORS
    extents: tuple[int, ...]
    smoke_extents: tuple[int, ...]
    dtype: str
    offset: float  # added to the generated field
    kind: str  # "abs" or "rel"
    bound: float
    # nested domains as (fractional box per axis, bound); fractions of the
    # extents, so the tiny smoke grids keep the same configuration
    domains: tuple[tuple[tuple[tuple[float, float], ...], float], ...] = ()
    split: int | None = None  # axis given to split_axis, if any
    mode: str = ONE_FOR_ONE
    shift_axes: tuple[int, ...] = ()  # axes along which the field is periodic


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plane2d-domains",
            generator="smooth",
            extents=(1000, 1000),
            smoke_extents=(40, 56),
            dtype="float32",
            offset=0.0,
            kind="abs",
            bound=0.02,
            domains=((((0.3, 0.7), (0.3, 0.7)), 0.002),
                     (((0.45, 0.55), (0.45, 0.55)), 0.0)),
            shift_axes=(0, 1),
        ),
        Workload(
            name="volume3d-rel",
            generator="smooth",
            extents=(100, 120, 128),
            smoke_extents=(12, 10, 9),
            dtype="float64",
            offset=4.0,
            kind="rel",
            bound=0.05,
            shift_axes=(0, 1, 2),
        ),
        Workload(
            name="slices-shared",
            generator="layered",
            extents=(32, 256, 256),
            smoke_extents=(4, 40, 56),
            dtype="float32",
            offset=0.0,
            kind="abs",
            bound=0.05,
            split=0,
            mode=ONE_FOR_ALL,
            shift_axes=(1, 2),  # axis 0 holds the layer steps, not a wave
        ),
    )
}


# The work of one input depends on its shift: coarsening takes 2 or 3
# iterations on volume3d-rel and 4 or 5 on plane2d-domains, and compress
# times differ by up to 12 % between shifts. Cycling a run through several
# inputs keeps that out of its run-to-run spread.
INPUTS_PER_SEED = 4


def _rd_shift(index: int, extents) -> tuple[int, ...]:
    """Integer shift from the ``index``-th point of the R_d sequence."""
    d = len(extents)
    g = 2.0
    for _ in range(64):  # fixed point of g = (1 + g) ** (1 / (d + 1))
        g = (1.0 + g) ** (1.0 / (d + 1))
    return tuple(int(((index * (1.0 / g) ** (k + 1)) % 1.0) * e)
                 for k, e in enumerate(extents))


@dataclass
class Instance:
    """One generated input, ready for the round trip."""

    field: np.ndarray  # the full grid in its storage dtype
    shape: GridShape  # grid shape handed to compress_many
    config: CompressionConfig
    point_bounds: np.ndarray  # float64 per point, same shape as ``field``
    shift: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.field.nbytes


def make_instance(w: Workload, seed: int, smoke: bool = False, k: int = 0) -> Instance:
    """Generate input ``k`` of ``seed`` for ``w``; the same seed and ``k``
    give the same input."""
    extents = w.smoke_extents if smoke else w.extents
    base = fields.GENERATORS[w.generator](extents, seed=0) + w.offset
    shift = _rd_shift(seed * INPUTS_PER_SEED + k, [extents[a] for a in w.shift_axes])
    field = np.roll(base, shift, axis=w.shift_axes).astype(w.dtype)

    boxes = []
    for frac_box, bound in w.domains:
        box = tuple((int(lo * e), max(int(hi * e), int(lo * e) + 1))
                    for (lo, hi), e in zip(frac_box, extents))
        boxes.append((box, bound))
    spec = ErrorSpec(Criterion(w.kind, w.bound),
                     tuple(ErrorDomain(box, Criterion(w.kind, b)) for box, b in boxes))
    config = CompressionConfig(spec, mode=w.mode, split_axis=w.split)

    grid = extents if w.split is None else tuple(
        e for a, e in enumerate(extents) if a != w.split)
    return Instance(field, GridShape(grid), config,
                    point_bounds(extents, w.bound, boxes), shift)


def point_bounds(extents, default: float, boxes) -> np.ndarray:
    """Each point's bound: the default, lowered by every domain box covering it.

    Computed here from the spec on purpose, independently of
    ``amrc.criteria.resolve_bound``, so the check does not trust the code
    under test.
    """
    bounds = np.full(extents, default, dtype=np.float64)
    for box, bound in boxes:
        region = tuple(slice(lo, hi) for lo, hi in box)
        bounds[region] = np.minimum(bounds[region], bound)
    return bounds
