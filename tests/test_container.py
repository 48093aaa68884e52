import dataclasses
import json
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amrc
from amrc import (
    ONE_FOR_ALL,
    CompressedVariable,
    CompressionConfig,
    ConfigError,
    CorruptArtifactError,
    Criterion,
    ErrorSpec,
    GridShape,
    Packing,
    UnsupportedFeatureError,
    compress,
    compress_many,
    decompress,
    read_artifact,
    write_artifact,
)
from amrc.codec import VALUE_KIND_DTYPES
from amrc.container import MAGIC
from amrc.fields import noise, smooth
from amrc.mesh import serialize_refinement
from conftest import random_mesh


def var_equal(a, b):
    return (
        a.shape == b.shape
        and a.value_kind == b.value_kind
        and a.mesh_bits == b.mesh_bits
        and np.array_equal(a.payload, b.payload)
        and a.criterion == b.criterion
        and a.mode == b.mode
        and a.packing == b.packing
    )


def random_variable(rng, mode="one-for-one", value_kind=None, shape=None, packing=None,
                    criterion=None, mesh_bits=None):
    if shape is None:
        dim = int(rng.integers(2, 4))
        hi = 24 if dim == 2 else 9
        shape = GridShape(tuple(int(rng.integers(1, hi)) for _ in range(dim)))
    if value_kind is None:
        value_kind = ["f32", "f64", "i16", "i32"][int(rng.integers(0, 4))]
    if criterion is None:
        criterion = Criterion("abs", float(np.abs(rng.normal())))
    if mesh_bits is None:
        mesh_bits = serialize_refinement(random_mesh(shape, rng, rounds=int(rng.integers(0, 4))))
    dtype = np.dtype(VALUE_KIND_DTYPES[value_kind])
    n = int(rng.integers(0, 40))
    if dtype.kind == "f":
        payload = rng.normal(size=n).astype(dtype)
    else:
        payload = rng.integers(-100, 100, size=n).astype(dtype)
    return CompressedVariable(
        shape=shape, value_kind=value_kind, mesh_bits=mesh_bits, payload=payload,
        criterion=criterion, mode=mode, packing=packing)


class TestRoundTrip:
    def test_root_only_f32_layout(self):
        var = compress(np.full(1, 1.0, dtype=np.float32), GridShape((1, 1)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.1))))
        blob = write_artifact([var])
        # empty bit-field section, then payload count 1 and IEEE-754 of 1.0
        assert blob.endswith(
            struct.pack("<I", 0) + struct.pack("<I", 1) + bytes.fromhex("0000803f"))
        assert blob.startswith(MAGIC)
        back, header = read_artifact(blob)
        assert var_equal(back[0], var)
        assert header.n_variables == 1

    def test_random_artifacts(self, rng):
        for _ in range(200):
            mode = "one-for-one" if rng.random() < 0.5 else "one-for-all"
            packing = Packing(float(np.abs(rng.normal()) + 0.1), float(rng.normal())) \
                if rng.random() < 0.3 else None
            first = random_variable(rng, mode=mode, packing=packing)
            n_vars = int(rng.integers(1, 4))
            variables = [first]
            for _ in range(n_vars - 1):
                variables.append(random_variable(
                    rng, mode=mode, packing=packing, value_kind=first.value_kind,
                    shape=first.shape, criterion=first.criterion,
                    mesh_bits=first.mesh_bits if mode == "one-for-all" else None))
            blob = write_artifact(variables)
            back, header = read_artifact(blob)
            assert len(back) == len(variables)
            for a, b in zip(back, variables):
                assert var_equal(a, b)
            assert write_artifact(back, post_pass=header.post_pass) == blob

    def test_compressed_roundtrip_end_to_end(self, rng):
        field = rng.normal(size=(12, 9)).reshape(-1)
        var = compress(field, GridShape((12, 9)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.25))))
        back, _ = read_artifact(write_artifact([var]))
        assert np.array_equal(decompress(back[0]), decompress(var))

    def test_payloads_are_read_only_views(self):
        for blob in fuzz_corpus():  # f32 and i16 at odd offsets, f64 at 8k and 8k + 4
            variables, _ = read_artifact(blob)
            for var in variables:
                assert np.shares_memory(var.payload, np.frombuffer(blob, np.uint8))
                assert not var.payload.flags.writeable
            assert write_artifact(variables) == blob
            for var in variables:
                copy = dataclasses.replace(var, payload=var.payload.copy())
                assert decompress(var).tobytes() == decompress(copy).tobytes()

    def test_bytearray_input_is_snapshot(self):
        blob = bytearray(fuzz_corpus()[0])
        var = read_artifact(blob)[0][0]
        before = var.payload.copy()
        blob[-before.nbytes:] = bytes(before.nbytes)  # the payload is the last section
        assert np.array_equal(var.payload, before)


class TestValidation:
    def blob(self, rng=None):
        var = compress(np.arange(16.0), GridShape((4, 4)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.5))))
        return write_artifact([var])

    def test_wrong_magic(self):
        blob = b"NOPE" + self.blob()[4:]
        with pytest.raises(CorruptArtifactError):
            read_artifact(blob)

    def test_wrong_version(self):
        blob = bytearray(self.blob())
        blob[4] = 9
        with pytest.raises(CorruptArtifactError):
            read_artifact(bytes(blob))

    def test_truncations_all_rejected(self):
        blob = self.blob()
        for cut in range(len(blob)):
            with pytest.raises(CorruptArtifactError):
                read_artifact(blob[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CorruptArtifactError):
            read_artifact(self.blob() + b"\x00")

    def test_payload_count_overrun_names_payload(self):
        blob = bytearray(self.blob())
        # payload count field sits 4 bytes after the bit-field section ends
        count_at = len(blob) - 4 - 16 * 8
        blob[count_at:count_at + 4] = struct.pack("<I", 10 ** 6)
        with pytest.raises(CorruptArtifactError, match="payload"):
            read_artifact(bytes(blob))

    def test_unknown_post_pass(self):
        blob = self.blob()
        # post-pass byte sits 3 bytes before the end of the header
        header_len = 4 + 1 + 1 + 2 * 8 + 1 + 1 + 1 + 8 + 1 + 1 + 8 + 8 + 1 + 2
        blob = bytearray(blob)
        blob[header_len - 3] = 7
        with pytest.raises(UnsupportedFeatureError):
            read_artifact(bytes(blob))
        var = compress(np.arange(16.0), GridShape((4, 4)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.5))))
        with pytest.raises(UnsupportedFeatureError):
            write_artifact([var], post_pass=7)

    def test_nonzero_packing_bytes_with_flag_unset(self):
        blob = bytearray(self.blob())
        header_len = 4 + 1 + 1 + 2 * 8 + 1 + 1 + 1 + 8 + 1 + 1 + 8 + 8 + 1 + 2
        scale_at = header_len - 3 - 16
        blob[scale_at:scale_at + 8] = struct.pack("<d", 2.0)
        with pytest.raises(CorruptArtifactError):
            read_artifact(bytes(blob))

    def test_bad_initial_level(self):
        blob = bytearray(self.blob())
        level_at = 4 + 1 + 1 + 2 * 8
        blob[level_at] = 5
        with pytest.raises(CorruptArtifactError):
            read_artifact(bytes(blob))

    @pytest.mark.parametrize("field,value", [("scale", np.inf), ("offset", np.nan),
                                             ("offset", np.inf), ("offset", -np.inf)])
    def test_non_finite_packing_rejected(self, field, value):
        var = compress(np.arange(16, dtype=np.int16), GridShape((4, 4)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 1.0)),
                                         packing=Packing(0.5, 2.0)))
        blob = bytearray(write_artifact([var]))
        at = PACK_FLAG_AT + (1 if field == "scale" else 9)
        blob[at:at + 8] = struct.pack("<d", value)
        with pytest.raises(CorruptArtifactError) as exc:
            read_artifact(bytes(blob))
        assert exc.value.offset == PACK_FLAG_AT

    def test_inconsistent_variables_rejected(self, rng):
        a = random_variable(rng, value_kind="f32")
        b = random_variable(rng, value_kind="f64", shape=a.shape, criterion=a.criterion)
        with pytest.raises(ConfigError):
            write_artifact([a, b])

    def test_one_for_all_requires_shared_mesh(self, rng):
        a = random_variable(rng, mode="one-for-all")
        b = random_variable(rng, mode="one-for-all", value_kind=a.value_kind,
                            shape=a.shape, criterion=a.criterion)
        if a.mesh_bits == b.mesh_bits:
            b = dataclasses.replace(b, mesh_bits=a.mesh_bits + b"\x01")
        with pytest.raises(ConfigError):
            write_artifact([a, b])

    def test_empty_artifact_rejected(self):
        with pytest.raises(ConfigError):
            write_artifact([])

    def test_payload_of_another_kind_rejected(self):
        # stored as f32, 1e40 would turn into inf
        shape, crit = GridShape((1, 1)), Criterion("abs", 0.0)
        for kind, payload in [("f32", np.array([1e40])), ("i16", np.array([70000], np.int32)),
                              ("f64", np.array([1.5], np.float32))]:
            with pytest.raises(ConfigError, match=f"value kind '{kind}'"):
                CompressedVariable(shape, kind, b"", payload, crit)
        # nor can one be swapped into a built variable
        var = compress(np.float32([1.5]), shape, CompressionConfig(ErrorSpec(crit)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            var.payload = np.array([1e40])
        with pytest.raises(ConfigError, match="value kind 'f32'"):
            dataclasses.replace(var, payload=np.array([1e40]))
        want, value = write_artifact([var]), decompress(var)
        assert read_artifact(want)[0][0].payload.tolist() == value.tolist() == [1.5]
        # the other byte order and a strided view of the same kind are kept
        # as the format writes them, little-endian and contiguous
        for payload in (np.array([1.5], ">f4"), np.float32([1.5, 0.0])[::2]):
            other = dataclasses.replace(var, payload=payload)
            assert other.payload.dtype == np.dtype("<f4") and other.payload.flags.c_contiguous
            assert write_artifact([other]) == want
            assert decompress(other).tobytes() == value.tobytes()

    def test_records_are_frozen(self):
        var = compress(smooth((8, 8), seed=1).reshape(-1), GridShape((8, 8)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.1))))
        for record in (var, var.stats):
            for field in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, getattr(record, field.name))

    def test_variables_compare_by_identity(self):
        # the payload arrays cannot be compared to one bool nor hashed, so
        # variables compare and hash as objects
        field, shape = smooth((8, 8), seed=1).reshape(-1), GridShape((8, 8))
        config = CompressionConfig(ErrorSpec(Criterion("abs", 0.1)))
        a, b = compress(field, shape, config), compress(field, shape, config)
        assert a.payload.tobytes() == b.payload.tobytes() and a.mesh_bits == b.mesh_bits
        assert a != b
        assert a == a
        assert len({a, b}) == 2


# in a 2D header: magic, version, dim, two extents, then the fields after them
LEVEL_AT = 4 + 1 + 1 + 2 * 8
PACK_FLAG_AT = LEVEL_AT + 1 + 1 + 1 + 8 + 1


class TestCanonicalHeader:
    """A header that parses but differs from its own encoding is rejected at
    the first byte that differs."""

    def blob(self, packing=None):
        var = compress(np.arange(16, dtype=np.int16), GridShape((4, 4)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 1.0)), packing=packing))
        return write_artifact([var])

    def assert_rejected_at(self, blob, at):
        with pytest.raises(CorruptArtifactError) as exc:
            read_artifact(bytes(blob))
        assert exc.value.offset == at

    @pytest.mark.parametrize("packing", [None, Packing(0.5, 2.0)])
    def test_packing_flag_two(self, packing):
        blob = bytearray(self.blob(packing))
        blob[PACK_FLAG_AT] = 2
        self.assert_rejected_at(blob, PACK_FLAG_AT)

    @pytest.mark.parametrize("field", [0, 1])
    def test_negative_zero_packing_field_with_flag_unset(self, field):
        blob = bytearray(self.blob())
        at = PACK_FLAG_AT + 1 + 8 * field
        blob[at:at + 8] = struct.pack("<d", -0.0)
        # little-endian: only the last byte, the sign's, differs from +0.0
        self.assert_rejected_at(blob, at + 7)

    @pytest.mark.parametrize("step", [-1, 1])
    def test_initial_level_off_by_one(self, step):
        blob = bytearray(self.blob())
        assert blob[LEVEL_AT] == 2
        blob[LEVEL_AT] += step
        self.assert_rejected_at(blob, LEVEL_AT)

    def test_canonical_header_accepted(self):
        blob = self.blob(Packing(0.5, -0.0))
        back, header = read_artifact(blob)
        assert write_artifact(back) == blob
        assert str(header.packing.offset) == "-0.0"


class TestHeaderFieldErrors:
    """Each header field that cannot be decoded raises its own typed error."""

    def blob(self):
        var = compress(np.arange(16.0), GridShape((4, 4)),
                       CompressionConfig(ErrorSpec(Criterion("abs", 0.5))))
        return bytearray(write_artifact([var]))

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_dim_byte(self, dim):
        blob = self.blob()
        blob[5] = dim
        with pytest.raises(CorruptArtifactError, match="dim must be 2 or 3") as exc:
            read_artifact(bytes(blob))
        assert exc.value.offset == 5

    @pytest.mark.parametrize("extent", [0, 1 << 40])
    def test_invalid_extents(self, extent):
        blob = self.blob()
        blob[6:14] = struct.pack("<Q", extent)
        with pytest.raises(CorruptArtifactError, match="invalid extents") as exc:
            read_artifact(bytes(blob))
        assert exc.value.offset == 6

    @pytest.mark.parametrize("at, what", [(LEVEL_AT + 1, "value kind"), (LEVEL_AT + 2, "criterion"),
                                          (LEVEL_AT + 11, "mode")])
    def test_unknown_field_id(self, at, what):
        blob = self.blob()
        blob[at] = 9
        with pytest.raises(CorruptArtifactError, match=f"unknown {what} id 9"):
            read_artifact(bytes(blob))

    @pytest.mark.parametrize("bound", [-1.0, np.nan, np.inf])
    def test_invalid_criterion_bound(self, bound):
        blob = self.blob()
        blob[LEVEL_AT + 3:LEVEL_AT + 11] = struct.pack("<d", bound)
        with pytest.raises(CorruptArtifactError, match="bound must be finite"):
            read_artifact(bytes(blob))

    def test_zero_variables(self):
        blob = self.blob()
        count_at = PACK_FLAG_AT + 1 + 16 + 1
        assert blob[count_at:count_at + 2] == struct.pack("<H", 1)
        blob[count_at:count_at + 2] = struct.pack("<H", 0)
        with pytest.raises(CorruptArtifactError, match="zero variables") as exc:
            read_artifact(bytes(blob))
        assert exc.value.offset == count_at

    def test_too_many_variables_to_write(self):
        (var,), _ = read_artifact(bytes(self.blob()))
        with pytest.raises(ConfigError, match="too many variables"):
            write_artifact([var] * 0x10000)


# Runs in a child process that caps its own address space first, so a mutated
# extent that slips past the checks fails to allocate instead of filling the
# host's memory. Any exception other than AmrcError escapes as a traceback.
FUZZ_CHILD = """
import json, pickle, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
import numpy as np
from amrc import AmrcError, decompress, read_artifact

blobs, n_cases, seed = pickle.load(sys.stdin.buffer)
rng = np.random.default_rng(seed)
counts = {"decoded": 0, "rejected": 0}
for i in range(n_cases):
    blob = bytearray(blobs[i % len(blobs)])
    for _ in range(int(rng.integers(1, 4))):
        blob[int(rng.integers(len(blob)))] = int(rng.integers(256))
    try:
        for var in read_artifact(bytes(blob))[0]:
            decompress(var)
        counts["decoded"] += 1
    except AmrcError:
        counts["rejected"] += 1
print(json.dumps(counts))
"""


def fuzz_corpus():
    """Three small artifacts: 2D f32, 3D f64 ``one-for-all`` with 3 variables, 1x40 packed i16."""
    plane = compress(smooth((13, 17), seed=1).astype(np.float32).reshape(-1),
                     GridShape((13, 17)), CompressionConfig(ErrorSpec(Criterion("abs", 0.05))))
    volume = compress_many(
        [smooth((5, 6, 7), seed=s) + 0.1 * noise((5, 6, 7), seed=s) for s in range(3)],
        GridShape((5, 6, 7)),
        CompressionConfig(ErrorSpec(Criterion("rel", 0.1)), mode=ONE_FOR_ALL))
    line = compress(np.repeat(np.arange(-10, 10, dtype=np.int16), 2), GridShape((1, 40)),
                    CompressionConfig(ErrorSpec(Criterion("abs", 1.0)),
                                      packing=Packing(0.01, 5.0)))
    return [write_artifact([plane]), write_artifact(volume), write_artifact([line])]


def test_byte_mutations_raise_only_amrc_errors():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(amrc.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", FUZZ_CHILD], input=pickle.dumps((fuzz_corpus(), 3000, 20240607)),
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    counts = json.loads(proc.stdout)
    # both outcomes occur, so the mutations neither all miss nor all break the header
    assert counts["decoded"] > 0 and counts["rejected"] > 0, counts
