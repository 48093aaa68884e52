"""Property tests of compression over drawn shapes, value kinds, bounds and domains.

Hypothesis draws the cases derandomized, so every run checks the same
examples. A case is a grid shape (degenerate ``1xN`` and ``1x1xN`` shapes,
even and odd extents), a storage kind, an absolute or relative bound with
random error domains, and one to three variables; several variables share
one mesh (``one-for-all``). Each case must keep the point-wise bound through
the round trip, give trackers that bound the exact leaf deviations of the
brute-force oracle, and write the artifact it reads back byte for byte.
Drawn 3D fields split into 2D slices along a drawn axis must do the same
once their slices are stacked back. Packed integer fields, with a drawn
``Packing(scale, offset)`` record and an absolute bound given in unpacked
units, must keep that bound once unpacked.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amrc import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    CompressionConfig,
    Criterion,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    Packing,
    coarsen_forest,
    compress_many,
    decompress,
    packed_bound,
    read_artifact,
    split_axis,
    stack_axis,
    write_artifact,
)
from amrc.fields import smooth
from oracle import exact_leaf_deviations, validate_mesh

DTYPES = {"f32": np.float32, "f64": np.float64, "i16": np.int16, "i32": np.int32}
# integer kinds hold the field scaled up, rounded and clipped to these limits
INT_SCALE = {"i16": (100, 30000), "i32": (10**6, 2 * 10**9)}


@st.composite
def extents_st(draw):
    form = draw(st.sampled_from(["2d", "3d", "1xN", "Nx1", "1x1xN", "1xNx1"]))
    n = draw(st.integers(1, 40))
    small = st.integers(1, 20)
    tiny = st.integers(1, 9)
    if form == "2d":
        return (draw(small), draw(small))
    if form == "3d":
        return (draw(tiny), draw(tiny), draw(tiny))
    return {"1xN": (1, n), "Nx1": (n, 1), "1x1xN": (1, 1, n), "1xNx1": (1, n, 1)}[form]


@st.composite
def fields(draw, extents, value_kind):
    """One field of a drawn texture and magnitude, stored as ``value_kind``."""
    texture = draw(st.sampled_from(["smooth", "noise", "steps", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if texture == "noise":
        field = rng.normal(size=extents)
    elif texture == "steps":  # piecewise constant on blocks of 2 or 4 cells
        block = int(rng.choice([2, 4]))
        coarse = rng.normal(size=tuple(-(-e // block) for e in extents))
        field = coarse[tuple(np.indices(extents) // block)]
    else:
        field = smooth(extents, seed=int(rng.integers(1 << 30)))
    if texture == "zeros":  # exact zeros stress the relative bound
        field = np.where(rng.random(extents) < 0.3, 0.0, field)
    field = field * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if value_kind in INT_SCALE:
        scale, limit = INT_SCALE[value_kind]
        field = np.clip(np.rint(field * scale), -limit, limit)
    return field.astype(DTYPES[value_kind])


def draw_bound(draw, kind, arrays):
    """An absolute bound as a fraction of the arrays' span, or a relative one."""
    span = max(float(np.ptp(a.astype(np.float64))) for a in arrays)
    frac = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    return frac * span if kind == "abs" else frac


@st.composite
def cases(draw):
    extents = draw(extents_st())
    value_kind = draw(st.sampled_from(sorted(DTYPES)))
    kind = draw(st.sampled_from(["abs", "rel"]))
    arrays = [draw(fields(extents, value_kind)) for _ in range(draw(st.integers(1, 3)))]
    bound = draw_bound(draw, kind, arrays)
    domains = []
    for _ in range(draw(st.integers(0, 2))):
        box = []
        for e in extents:
            lo = draw(st.integers(-2, e))
            box.append((lo, lo + draw(st.integers(1, e + 2))))
        domains.append(ErrorDomain(tuple(box), Criterion(kind, bound * draw(
            st.sampled_from([0.0, 0.25, 1.0])))))
    spec = ErrorSpec(Criterion(kind, bound), tuple(domains))
    return arrays, GridShape(extents), spec, value_kind


@st.composite
def split_cases(draw):
    """A 3D field, the axis to split it along, and the config of its slices."""
    extents = tuple(draw(st.integers(1, 9)) for _ in range(3))
    axis = draw(st.integers(0, 2))
    value_kind = draw(st.sampled_from(sorted(DTYPES)))
    kind = draw(st.sampled_from(["abs", "rel"]))
    field = draw(fields(extents, value_kind))
    spec = ErrorSpec(Criterion(kind, draw_bound(draw, kind, [field])))
    mode = draw(st.sampled_from([ONE_FOR_ONE, ONE_FOR_ALL]))
    return field, axis, CompressionConfig(spec, mode=mode, split_axis=axis)


@st.composite
def packed_cases(draw):
    """Integer fields, their packing record and an absolute bound in unpacked units."""
    extents = draw(extents_st())
    value_kind = draw(st.sampled_from(["i16", "i32"]))
    arrays = [draw(fields(extents, value_kind)) for _ in range(draw(st.integers(1, 2)))]
    packing = Packing(draw(st.floats(1e-4, 10.0)), draw(st.floats(-1e5, 1e5)))
    eps = draw_bound(draw, "abs", arrays) * packing.scale
    mode = ONE_FOR_ALL if len(arrays) > 1 else ONE_FOR_ONE
    spec = ErrorSpec(Criterion("abs", packed_bound(eps, packing.scale)))
    return arrays, GridShape(extents), eps, CompressionConfig(spec, mode=mode, packing=packing)


def point_bounds(shape: GridShape, spec: ErrorSpec) -> np.ndarray:
    """Each point's bound: the default, lowered by every domain box covering it."""
    bounds = np.full(shape.extents, spec.default.bound)
    for dom in spec.domains:
        box = tuple(slice(max(lo, 0), max(hi, 0)) for lo, hi in dom.box)
        bounds[box] = np.minimum(bounds[box], dom.criterion.bound)
    return bounds


PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(cases())
def test_round_trip_keeps_point_bound(case):
    arrays, shape, spec, value_kind = case
    mode = ONE_FOR_ALL if len(arrays) > 1 else ONE_FOR_ONE
    blob = write_artifact(compress_many(arrays, shape, CompressionConfig(spec, mode=mode)))
    variables, _ = read_artifact(blob)
    limit = point_bounds(shape, spec).reshape(-1)
    for arr, var in zip(arrays, variables):
        x = arr.reshape(-1).astype(np.float64)
        out = decompress(var)
        assert out.dtype == arr.dtype
        allowed = limit * np.abs(x) if spec.kind == "rel" else limit
        assert np.all(np.abs(out.astype(np.float64) - x) <= allowed)


@PROPERTY_SETTINGS
@given(cases())
def test_trackers_bound_exact_deviations(case):
    arrays, shape, spec, value_kind = case
    res = coarsen_forest(arrays, shape, spec, value_kind)
    validate_mesh(res.mesh)
    for arr, values, trackers in zip(arrays, res.values, res.trackers):
        exact = exact_leaf_deviations(
            res.mesh, values, arr.astype(np.float64).reshape(shape.extents))
        assert np.all(trackers >= exact)


@PROPERTY_SETTINGS
@given(cases())
def test_artifact_rewrites_byte_identical(case):
    arrays, shape, spec, _ = case
    mode = ONE_FOR_ALL if len(arrays) > 1 else ONE_FOR_ONE
    blob = write_artifact(compress_many(arrays, shape, CompressionConfig(spec, mode=mode)))
    variables, _ = read_artifact(blob)
    assert write_artifact(variables) == blob


@PROPERTY_SETTINGS
@given(split_cases())
def test_split_axis_round_trip(case):
    field, axis, config = case
    slices = split_axis(field, axis)
    shape = GridShape(slices[0].shape)
    blob = write_artifact(compress_many(slices, shape, config))
    variables, _ = read_artifact(blob)
    assert write_artifact(variables) == blob
    out = stack_axis([decompress(var).reshape(shape.extents) for var in variables], axis)
    assert out.dtype == field.dtype and out.shape == field.shape
    x = field.astype(np.float64)
    spec = config.spec
    allowed = spec.default.bound * np.abs(x) if spec.kind == "rel" else spec.default.bound
    assert np.all(np.abs(out.astype(np.float64) - x) <= allowed)


@PROPERTY_SETTINGS
@given(packed_cases())
def test_packed_round_trip_keeps_unpacked_bound(case):
    arrays, shape, eps, config = case
    blob = write_artifact(compress_many(arrays, shape, config))
    variables, _ = read_artifact(blob)
    assert write_artifact(variables) == blob
    for arr, var in zip(arrays, variables):
        assert var.packing == config.packing
        out = decompress(var)
        assert out.dtype == arr.dtype
        # the bound holds exactly in packed units, and so, up to the
        # rounding of the division and the unpacking, in unpacked ones
        err = np.abs(out.astype(np.int64) - arr.reshape(-1).astype(np.int64))
        assert np.all(err <= config.spec.default.bound)
        scale, offset = config.packing.scale, config.packing.offset
        got = scale * out.astype(np.float64) + offset
        want = scale * arr.reshape(-1).astype(np.float64) + offset
        slack = 4 * np.spacing(np.maximum(np.abs(got), np.abs(want))) + 4 * np.spacing(eps)
        assert np.all(np.abs(got - want) <= eps + slack)
