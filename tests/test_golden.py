"""Golden artifacts: the SHA-256 of the bytes written for a fixed corpus.

The digests pin the artifacts of the original Jacobi-sweep engine, so any
change to the coarsening, the quantization, the bit-fields or the container
that alters a single output byte fails here.
Each case builds its inputs deterministically from ``amrc.fields`` or a
seeded generator; a case that compresses several inputs hashes the
concatenation of its artifacts.
"""

import hashlib

import numpy as np
import pytest

from amrc import (
    CompressionConfig,
    Criterion,
    ErrorDomain,
    ErrorSpec,
    GridShape,
    Packing,
    compress_many,
    packed_bound,
    split_axis,
    write_artifact,
)
from amrc.fields import layered, noise, smooth


def frac_domains(extents, kind, domains):
    """Domain boxes given as fractions of the extents, as the benchmark builds them."""
    out = []
    for frac_box, bound in domains:
        box = tuple((int(lo * e), max(int(hi * e), int(lo * e) + 1))
                    for (lo, hi), e in zip(frac_box, extents))
        out.append(ErrorDomain(box, Criterion(kind, bound)))
    return tuple(out)


def plane2d_domains(extents):
    field = smooth(extents, seed=0).astype(np.float32)
    doms = frac_domains(extents, "abs", ((((0.3, 0.7), (0.3, 0.7)), 0.002),
                                         (((0.45, 0.55), (0.45, 0.55)), 0.0)))
    cfg = CompressionConfig(ErrorSpec(Criterion("abs", 0.02), doms))
    return [write_artifact(compress_many([field], GridShape(extents), cfg))]


def volume3d_rel(extents):
    field = smooth(extents, seed=0) + 4.0
    cfg = CompressionConfig(ErrorSpec(Criterion("rel", 0.05)))
    return [write_artifact(compress_many([field], GridShape(extents), cfg))]


def slices_shared(extents):
    field = layered(extents, seed=0).astype(np.float32)
    cfg = CompressionConfig(ErrorSpec(Criterion("abs", 0.05)), mode="one-for-all",
                            split_axis=0)
    return [write_artifact(compress_many(split_axis(field, 0), GridShape(extents[1:]), cfg))]


def corpus(seed, n):
    """Smooth, layered and noisy fields of random 2D and 3D shapes, plus the
    degenerate 1xN and 1x1xN shapes."""
    rng = np.random.default_rng(seed)
    fields = [smooth((1, 37), seed=seed), layered((1, 1, 19), seed=seed)]
    for i in range(n):
        gen = (smooth, layered, noise)[i % 3]
        if i % 2 == 0:
            extents = tuple(int(e) for e in rng.integers(1, 80, size=2))
        else:
            extents = tuple(int(e) for e in rng.integers(1, 20, size=3))
        fields.append(gen(extents, seed=i))
    return fields


def corpus_abs():
    blobs = []
    for field in corpus(101, 24):
        span = float(field.max() - field.min())
        for mult in (0.0, 0.01, 0.1, 1.0):
            for dtype in (np.float64, np.float32):
                cfg = CompressionConfig(ErrorSpec(Criterion("abs", mult * span)))
                blobs.append(write_artifact(compress_many(
                    [field.astype(dtype)], GridShape(field.shape), cfg)))
    return blobs


def corpus_rel():
    blobs = []
    for field in corpus(202, 24):
        positive = field - field.min() + 1.0
        for delta in (0.0, 0.01, 0.05):
            cfg = CompressionConfig(ErrorSpec(Criterion("rel", delta)))
            blobs.append(write_artifact(compress_many(
                [positive], GridShape(field.shape), cfg)))
    return blobs


def bit_exact_domain():
    field = smooth((32, 32), seed=11) * 10
    spec = ErrorSpec(Criterion("abs", 6.0),
                     (ErrorDomain(((0, 12), (0, 12)), Criterion("abs", 0.0)),
                      ErrorDomain(((-3, 40), (20, 27)), Criterion("abs", 1.5))))
    return [write_artifact(compress_many([field], GridShape((32, 32)),
                                         CompressionConfig(spec)))]


def packed_integers():
    rng = np.random.default_rng(88)
    scale, offset = 1.0 / 128.0, 250.0
    blobs = []
    for extents in ((32, 32), (9, 14, 11)):
        packed = np.clip(np.rint(smooth(extents, seed=8) * 800
                                 + rng.normal(scale=20, size=extents)),
                         -30000, 30000)
        for dtype in (np.int16, np.int32):
            cfg = CompressionConfig(
                ErrorSpec(Criterion("abs", packed_bound(1.0, scale))),
                packing=Packing(scale, offset))
            blobs.append(write_artifact(compress_many(
                [packed.astype(dtype)], GridShape(extents), cfg)))
    return blobs


def one_for_all():
    blobs = []
    for extents in ((33, 50), (7, 12, 10)):
        fields = [smooth(extents, seed=s) * (1 + s) for s in range(3)]
        for kind, bound in (("abs", 0.1), ("rel", 0.05)):
            arrays = fields if kind == "abs" else [np.abs(f) + 1.0 for f in fields]
            cfg = CompressionConfig(ErrorSpec(Criterion(kind, bound)), mode="one-for-all")
            blobs.append(write_artifact(compress_many(arrays, GridShape(extents), cfg)))
    return blobs


CASES = {
    "plane2d-domains-smoke": (
        lambda: plane2d_domains((40, 56)),
        "7b3b0763dd0001372b75ce188200eb85a92d97f85ec0056aad598feecf82da05"),
    "volume3d-rel-smoke": (
        lambda: volume3d_rel((12, 10, 9)),
        "3d627a056e977d34ea341a2eea735382ef6445a5e0393c51a7d845dde43028c3"),
    "slices-shared-smoke": (
        lambda: slices_shared((4, 40, 56)),
        "53ae7c7173f8da0b545726951ea79b1f691d249c2389d456c485b0a7b0a38ef9"),
    # the benchmark's seed-0 inputs at full size (its check.artifact_sha256)
    "plane2d-domains-seed0": (
        lambda: plane2d_domains((1000, 1000)),
        "775f4a10cb7af6737808527288ed2e8af985a8146ef5e63791614f0c55dabed6"),
    "volume3d-rel-seed0": (
        lambda: volume3d_rel((100, 120, 128)),
        "fab2edb87c541bf2242dae58bc520fd10f489e842b7fe3b00842c2b7f809222e"),
    "corpus-abs": (
        corpus_abs,
        "7b493205e21dbdb24e43d7cf2fff01db2e47a088fde6fa539df7ff8e229b3287"),
    "corpus-rel": (
        corpus_rel,
        "0d9073ba034d08a97363668e281bd0de56c4c62eda0b9b75e93b31d6c265d615"),
    "bit-exact-domain": (
        bit_exact_domain,
        "9599da9099701774dac28c6478452918f9cee7d78c3c98a8248b30af066bc691"),
    "packed-integers": (
        packed_integers,
        "427eb0884acb12883349aa60f26f3e048195cda2886457d2468beafcf588466f"),
    "one-for-all": (
        one_for_all,
        "9b3723fa824b722087a8e7b77660d104c4f3a7fec7dee49382666ce5fc7d98ca"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifact(name):
    build, want = CASES[name]
    digest = hashlib.sha256()
    for blob in build():
        digest.update(blob)
    assert digest.hexdigest() == want
