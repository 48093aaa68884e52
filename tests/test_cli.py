import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import amrc
from amrc import GridShape, build_initial_mesh, cli, codec, decompress, read_artifact
from amrc.cli import main, read_sidecar
from amrc.errors import DataError
from amrc.fields import layered, noise, smooth
from conftest import huge_root_artifact


def write_inputs(tmp_path, array, dims, value_kind, extra_meta=""):
    raw = tmp_path / "data.raw"
    meta = tmp_path / "data.meta"
    np.ascontiguousarray(array).tofile(raw)
    meta.write_text(
        f"# test sidecar\ndims={','.join(str(d) for d in dims)}\n"
        f"value_kind={value_kind}\norder=row-major-last-fastest\n" + extra_meta)
    return raw, meta


class TestSidecar:
    def test_parse(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("dims=4,4\nvalue_kind=f32\norder=row-major-last-fastest\n"
                     "scale_factor=0.5\noffset=2.0\n")
        meta = read_sidecar(p)
        assert meta.dims == (4, 4) and meta.value_kind == "f32"
        assert meta.scale_factor == 0.5 and meta.offset == 2.0

    def test_missing_value_note_rejected(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("dims=4,4\nvalue_kind=f32\norder=row-major-last-fastest\n"
                     "missing_value=-999\n")
        with pytest.raises(DataError):
            read_sidecar(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("dims=4,4\nvalue_kind=f32\norder=row-major-last-fastest\nfoo=1\n")
        with pytest.raises(DataError):
            read_sidecar(p)

    def test_wrong_order_rejected(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("dims=4,4\nvalue_kind=f32\norder=column-major\n")
        with pytest.raises(DataError):
            read_sidecar(p)


class TestCompressDecompress:
    def test_constant_field_huge_ratio(self, tmp_path, capsys):
        data = np.full((64, 64), 4.5, dtype=np.float32)
        raw, meta = write_inputs(tmp_path, data, (64, 64), "f32")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "0.1", "--output", str(out)]) == 0
        stats = capsys.readouterr().out
        ratio = float(stats.split("ratio=")[1].split()[0])
        assert ratio > 100
        assert "leaves=1" in stats

        back = tmp_path / "back.raw"
        assert main(["decompress", "--input", str(out), "--output", str(back)]) == 0
        assert np.array_equal(np.fromfile(back, dtype="<f4"), data.reshape(-1))

    def test_zero_bound_roundtrip_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(13, 9)).astype(np.float64)
        raw, meta = write_inputs(tmp_path, data, (13, 9), "f64")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "0", "--output", str(out)]) == 0
        # mesh overhead only: output payload at least the input payload
        stats = capsys.readouterr().out
        outb = int(stats.split("output_bytes=")[1].split()[0])
        assert outb >= data.nbytes
        back = tmp_path / "b.raw"
        assert main(["decompress", "--input", str(out), "--output", str(back)]) == 0
        assert back.read_bytes() == raw.read_bytes()

    def test_domain_corner_bit_exact(self, tmp_path, capsys):
        field = smooth((32, 32), seed=21).astype(np.float64) * 10
        raw, meta = write_inputs(tmp_path, field, (32, 32), "f64")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "5.0", "--domain", "0:8,0:8=0.0",
                     "--output", str(out)]) == 0
        back = tmp_path / "b.raw"
        assert main(["decompress", "--input", str(out), "--output", str(back)]) == 0
        got = np.fromfile(back, dtype="<f8").reshape(32, 32)
        assert np.array_equal(got[:8, :8], field[:8, :8])
        assert np.abs(got - field).max() <= 5.0

    def test_split_axis_roundtrip(self, tmp_path, capsys):
        field = layered((6, 16, 16), seed=3)
        raw, meta = write_inputs(tmp_path, field, (6, 16, 16), "f64")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "1.0", "--split-axis", "0",
                     "--mode", "one-for-all", "--output", str(out)]) == 0
        back = tmp_path / "b.raw"
        assert main(["decompress", "--input", str(out), "--output", str(back),
                     "--split-axis", "0"]) == 0
        got = np.fromfile(back, dtype="<f8").reshape(6, 16, 16)
        assert np.abs(got - field).max() <= 1.0

    @pytest.mark.parametrize("mode, bound", [("one-for-all", 2.2), ("one-for-one", 1.3)])
    def test_split_compress_peak_is_bounded_by_the_input(self, tmp_path, capsys, mode, bound):
        """Compressing the axis-0 slices holds under a small multiple of the input bytes.

        The slices are views of the input: one-for-all peaks at 1.98 times the
        input and one-for-one at 1.14 times. With a copy per slice they were
        3.33 and 2.14 times; one-for-all was 2.33 times while the level kernel
        held float64 candidates for f32 data and slab copies of the trackers."""
        field = layered((32, 256, 256)).astype(np.float32)
        raw, meta = write_inputs(tmp_path, field, field.shape, "f32")
        del field
        tracemalloc.start()
        try:
            assert main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "0.5",
                         "--mode", mode, "--split-axis", "0",
                         "--output", str(tmp_path / "a.amrc")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = raw.stat().st_size
        assert peak < bound * nbytes, f"peak {peak / nbytes:.2f} x the input bytes"

    def test_packed_sidecar(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        data = rng.integers(-200, 200, size=(16, 16)).astype(np.int16)
        raw, meta = write_inputs(tmp_path, data, (16, 16), "i16",
                                 extra_meta="scale_factor=0.0078125\noffset=100.0\n")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "0.5", "--output", str(out)]) == 0
        back = tmp_path / "b.raw"
        assert main(["decompress", "--input", str(out), "--output", str(back)]) == 0
        got = np.fromfile(back, dtype="<i2").astype(np.float64)
        unpacked = 0.0078125 * got + 100.0
        orig = 0.0078125 * data.reshape(-1).astype(np.float64) + 100.0
        assert np.abs(unpacked - orig).max() <= 0.5

    def test_packed_domain_bound_in_unpacked_units(self, tmp_path, capsys):
        scale, offset = 0.0078125, 100.0
        data = (smooth((32, 32), seed=4) * 200).astype(np.int16)
        raw, meta = write_inputs(tmp_path, data, (32, 32), "i16",
                                 extra_meta=f"scale_factor={scale}\noffset={offset}\n")
        out, back = tmp_path / "a.amrc", tmp_path / "b.raw"
        assert main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "0.5",
                     "--domain", "0:16,0:16=0.2", "--output", str(out)]) == 0
        assert main(["decompress", "--input", str(out), "--output", str(back)]) == 0
        got = scale * np.fromfile(back, dtype="<i2").reshape(32, 32) + offset
        err = np.abs(got - (scale * data.astype(np.float64) + offset))
        # a bound left in packed units would keep the domain lossless
        assert 0.0 < err[:16, :16].max() <= 0.2 and err.max() <= 0.5
        assert main(["info", "--input", str(out)]) == 0
        assert f"packing: scale={scale!r} offset={offset!r}\n" in capsys.readouterr().out

    def test_rel_with_packing_rejected(self, tmp_path, capsys):
        data = np.ones((4, 4), dtype=np.int16)
        raw, meta = write_inputs(tmp_path, data, (4, 4), "i16",
                                 extra_meta="scale_factor=0.5\n")
        rc = main(["compress", "--input", str(raw), "--meta", str(meta),
                   "--rel", "0.01", "--output", str(tmp_path / "a.amrc")])
        assert rc == 3

    @pytest.mark.parametrize("record", ["scale_factor=abc\n", "scale_factor=0.5\noffset=abc\n"])
    def test_non_numeric_packing_is_data_error(self, tmp_path, capsys, record):
        data = np.ones((4, 4), dtype=np.int16)
        raw, meta = write_inputs(tmp_path, data, (4, 4), "i16", extra_meta=record)
        rc = main(["compress", "--input", str(raw), "--meta", str(meta),
                   "--abs", "1", "--output", str(tmp_path / "a.amrc")])
        assert rc == 3
        assert "bad packing record" in capsys.readouterr().err

    @pytest.mark.parametrize("record", ["scale_factor=inf\n", "scale_factor=0.5\noffset=nan\n",
                                        "scale_factor=0.5\noffset=-inf\n"])
    def test_non_finite_packing_is_rejected(self, tmp_path, capsys, record):
        data = np.ones((4, 4), dtype=np.int16)
        raw, meta = write_inputs(tmp_path, data, (4, 4), "i16", extra_meta=record)
        out = tmp_path / "a.amrc"
        rc = main(["compress", "--input", str(raw), "--meta", str(meta),
                   "--abs", "1", "--output", str(out)])
        assert rc == 3 and not out.exists()
        assert "finite" in capsys.readouterr().err

    def test_size_mismatch_is_data_error(self, tmp_path, capsys, monkeypatch):
        # the file's size is checked before anything of it is read
        def no_read(*args, **kwargs):
            raise AssertionError("np.fromfile called on a file of the wrong size")

        for n in (10, 17):
            raw, meta = write_inputs(tmp_path, np.ones(n, dtype=np.float32), (4, 4), "f32")
            with monkeypatch.context() as m:
                m.setattr(np, "fromfile", no_read)
                rc = main(["compress", "--input", str(raw), "--meta", str(meta),
                           "--abs", "1", "--output", str(tmp_path / "a.amrc")])
            assert_one_error_line(rc, capsys.readouterr().err,
                                  f"holds {4 * n} bytes, sidecar dims need 64 (16 f32 values)")
            assert not (tmp_path / "a.amrc").exists()

    def test_invalid_domain_box_rejected(self, tmp_path, capsys):
        data = np.ones((4, 4), dtype=np.float32)
        raw, meta = write_inputs(tmp_path, data, (4, 4), "f32")
        rc = main(["compress", "--input", str(raw), "--meta", str(meta),
                   "--abs", "1", "--domain", "6:9,0:4=0.1",
                   "--output", str(tmp_path / "a.amrc")])
        assert rc == 3


SIDECAR = "dims=4,4\nvalue_kind=f32\norder=row-major-last-fastest\n"


def assert_one_error_line(rc, err, fragment):
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith("amrc: error: ")
    assert fragment in err and "Traceback" not in err


class TestErrorPaths:
    @pytest.mark.parametrize("sidecar, fragment", [
        ("dims 4,4\nvalue_kind=f32\norder=row-major-last-fastest\n", "expected key=value"),
        (SIDECAR + "dims=4,4\n", "duplicate sidecar key 'dims'"),
        ("dims=4,4\nvalue_kind=f32\n", "missing required key 'order'"),
        (SIDECAR.replace("f32", "f16"), "unknown value_kind 'f16'"),
        (SIDECAR.replace("4,4", "4,x"), "bad dims '4,x'"),
        (SIDECAR + "offset=1.0\n", "offset given without scale_factor"),
    ], ids=["no-equals", "duplicate", "missing-order", "value-kind", "dims", "offset-alone"])
    def test_bad_sidecar(self, tmp_path, capsys, sidecar, fragment):
        raw, meta = write_inputs(tmp_path, np.ones(16, np.float32), (4, 4), "f32")
        meta.write_text(sidecar)
        out = tmp_path / "a.amrc"
        rc = main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "1",
                   "--output", str(out)])
        assert_one_error_line(rc, capsys.readouterr().err, fragment)
        assert not out.exists()

    def test_sidecar_not_utf8(self, tmp_path):
        # through the module entry point, where an uncaught error prints a traceback
        raw, meta = write_inputs(tmp_path, np.ones(16, np.float32), (4, 4), "f32")
        meta.write_bytes(b"\xff\xfe" + SIDECAR.encode())
        out = tmp_path / "a.amrc"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(amrc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "amrc", "compress", "--input", str(raw), "--meta", str(meta),
             "--abs", "1", "--output", str(out)], capture_output=True, text=True, env=env)
        assert_one_error_line(result.returncode, result.stderr, f"{meta}: sidecar is not UTF-8")
        assert not out.exists()

    def test_non_finite_input(self, tmp_path):
        # through the module entry point; the level kernel finds the NaN, in
        # the last row of an odd extent
        data = smooth((9, 12)).astype(np.float32)
        data[8, 5] = np.nan
        raw, meta = write_inputs(tmp_path, data, data.shape, "f32")
        out = tmp_path / "a.amrc"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(amrc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "amrc", "compress", "--input", str(raw), "--meta", str(meta),
             "--abs", "1", "--output", str(out)], capture_output=True, text=True, env=env)
        assert_one_error_line(result.returncode, result.stderr, "non-finite values")
        assert not out.exists()

    @pytest.mark.parametrize("extra, fragment", [
        (["--domain", "0:4,0:4"], "is missing '=bound'"),
        (["--domain", "0:4,0:4=abc"], "bad domain '0:4,0:4=abc'"),
        (["--domain", "0:4,0:x=0.1"], "bad domain '0:4,0:x=0.1'"),
        (["--domain", "0:4=0.1"], "has 1 ranges for 3D data"),
        (["--domain", "0:2,0:4,0:4=0.1", "--split-axis", "0"],
         "error domains cannot be combined with --split-axis"),
    ], ids=["no-bound", "bad-bound", "bad-range", "range-count", "with-split-axis"])
    def test_bad_domain(self, tmp_path, capsys, extra, fragment):
        raw, meta = write_inputs(tmp_path, np.ones(32, np.float32), (2, 4, 4), "f32")
        out = tmp_path / "a.amrc"
        rc = main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "1",
                   "--output", str(out)] + extra)
        assert_one_error_line(rc, capsys.readouterr().err, fragment)
        assert not out.exists()

    @pytest.mark.parametrize("dims, axis", [((4, 4), "0"), ((2, 4, 4), "3"), ((2, 4, 4), "-1")],
                             ids=["2d-input", "axis-3", "axis-minus-1"])
    def test_bad_split_axis(self, tmp_path, capsys, dims, axis):
        raw, meta = write_inputs(tmp_path, np.ones(dims, np.float32), dims, "f32")
        out = tmp_path / "a.amrc"
        rc = main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "1",
                   "--split-axis", axis, "--output", str(out)])
        assert_one_error_line(rc, capsys.readouterr().err, "split_axis needs 3D data")
        assert not out.exists()


class TestInfoAndErrors:
    def test_info_root_only(self, tmp_path, capsys):
        data = np.full((8, 8), 2.0, dtype=np.float32)
        raw, meta = write_inputs(tmp_path, data, (8, 8), "f32")
        out = tmp_path / "a.amrc"
        main(["compress", "--input", str(raw), "--meta", str(meta),
              "--abs", "1", "--output", str(out)])
        capsys.readouterr()
        assert main(["info", "--input", str(out)]) == 0
        text = capsys.readouterr().out
        assert "levels: {0: 1}" in text
        assert "variables: 1" in text

    def test_info_multi_variable(self, tmp_path, capsys):
        field = layered((3, 8, 8), seed=1)
        raw, meta = write_inputs(tmp_path, field, (3, 8, 8), "f64")
        out = tmp_path / "a.amrc"
        main(["compress", "--input", str(raw), "--meta", str(meta),
              "--abs", "1", "--split-axis", "0", "--output", str(out)])
        capsys.readouterr()
        main(["info", "--input", str(out)])
        text = capsys.readouterr().out
        assert "variables: 3" in text
        assert text.count("variable ") == 3

    @pytest.mark.parametrize("dims", [(23, 36), (5, 6, 8)])
    def test_info_of_an_incompressible_odd_field_is_the_initial_mesh(self, tmp_path, capsys,
                                                                     dims):
        """Nothing coarsens, so the stored mesh is the initial one: every
        initial-level leaf is kept, and every pad child of an initial-level
        family is a dummy, which stores no value. One axis is odd: where
        two are, the corner family has one data child, which is its own mean
        and collapses under any bound."""
        field = noise(dims).astype(np.float32)
        raw, meta = write_inputs(tmp_path, field, dims, "f32")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta),
                     "--abs", "0", "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["info", "--input", str(out)]) == 0
        line = next(t for t in capsys.readouterr().out.splitlines() if "leaves=" in t)
        initial = build_initial_mesh(GridShape(dims))
        levels, counts = np.unique(initial.levels, return_counts=True)
        histogram = {int(a): int(b) for a, b in zip(levels, counts)}
        assert f"levels: {histogram}  leaves={initial.n_leaves} " in line
        assert f"payload_values={field.size} " in line
        assert initial.n_leaves - int(initial.dummy.sum()) == field.size

    def test_shared_mesh_decoded_once(self, tmp_path, capsys, monkeypatch):
        field = layered((3, 16, 16), seed=2).astype(np.float32)
        raw, meta = write_inputs(tmp_path, field, (3, 16, 16), "f32")
        src, back = tmp_path / "a.amrc", tmp_path / "b.raw"
        main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "0.5",
              "--split-axis", "0", "--mode", "one-for-all", "--output", str(src)])
        variables, _ = read_artifact(src.read_bytes())
        want = np.stack([decompress(v).reshape(v.shape.extents) for v in variables])
        calls, walk = [], codec._walk

        def counting(shape, leaves=None, bits=None):
            calls.append(bits)
            return walk(shape, leaves, bits)

        monkeypatch.setattr(cli, "_walk", counting)
        monkeypatch.setattr(codec, "_walk", counting)
        assert main(["decompress", "--input", str(src), "--output", str(back)]) == 0
        assert len(calls) == 1
        assert back.read_bytes() == want.tobytes()
        assert main(["info", "--input", str(src)]) == 0
        assert len(calls) == 2 and capsys.readouterr().out.count("variable ") == 3

    @pytest.mark.parametrize("mode", ["one-for-all", "one-for-one"])
    def test_summary_counts_each_stored_mesh_once(self, tmp_path, capsys, mode):
        field = layered((4, 32, 32)).astype(np.float32)
        raw, meta = write_inputs(tmp_path, field, (4, 32, 32), "f32")
        out = tmp_path / "a.amrc"
        assert main(["compress", "--input", str(raw), "--meta", str(meta), "--abs", "0.5",
                     "--split-axis", "0", "--mode", mode, "--output", str(out)]) == 0
        printed = int(capsys.readouterr().out.split("leaves=")[1].split()[0])
        assert main(["info", "--input", str(out)]) == 0
        stored = [int(line.split("leaves=")[1].split()[0])
                  for line in capsys.readouterr().out.splitlines() if "leaves=" in line]
        shared = mode == "one-for-all"
        assert printed == (stored[0] if shared else sum(stored))
        if shared:
            assert len(set(stored)) == 1 and printed < sum(stored)

    def test_truncated_artifact_exit_4(self, tmp_path, capsys):
        data = np.full((8, 8), 2.0, dtype=np.float32)
        raw, meta = write_inputs(tmp_path, data, (8, 8), "f32")
        out = tmp_path / "a.amrc"
        main(["compress", "--input", str(raw), "--meta", str(meta),
              "--abs", "1", "--output", str(out)])
        out.write_bytes(out.read_bytes()[:-3])
        rc = main(["decompress", "--input", str(out), "--output", str(tmp_path / "b")])
        assert rc == 4
        assert "offset" in capsys.readouterr().err

    def test_refined_dummy_exit_4(self, tmp_path, capsys):
        data = np.arange(8, dtype=np.float32).reshape(4, 2)
        raw, meta = write_inputs(tmp_path, data, (4, 2), "f32")
        src = tmp_path / "a.amrc"
        main(["compress", "--input", str(raw), "--meta", str(meta),
              "--abs", "0", "--output", str(src)])
        # on 4x2 the root's children 1 and 3 are dummies: 01 05 refines the
        # other two down to the data points, 01 0F refines the dummies too
        section = struct.pack("<I", 2) + bytes([0x01, 0x05])
        blob = src.read_bytes()
        assert blob.count(section) == 1
        src.write_bytes(blob.replace(section, struct.pack("<I", 2) + bytes([0x01, 0x0F])))
        rc = main(["decompress", "--input", str(src), "--output", str(tmp_path / "b")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "not canonical" in err and "Traceback" not in err

    def test_unallocatable_grid_exit_4(self, tmp_path, capsys):
        src = tmp_path / "a.amrc"
        src.write_bytes(huge_root_artifact(24))
        out = tmp_path / "b.raw"
        assert main(["decompress", "--input", str(src), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "cannot be allocated" in err and "Traceback" not in err
        assert not out.exists()

    def test_split_axis_checked_before_decoding(self, tmp_path, capsys, monkeypatch):
        field = layered((3, 8, 8), seed=1)
        raw, meta = write_inputs(tmp_path, field, (3, 8, 8), "f64")
        src = tmp_path / "a.amrc"
        main(["compress", "--input", str(raw), "--meta", str(meta),
              "--abs", "1", "--split-axis", "0", "--output", str(src)])
        decoded = []
        for module in (cli, codec):
            monkeypatch.setattr(module, "_walk", lambda *args, **kwargs: decoded.append(args))
        rc = main(["decompress", "--input", str(src), "--output", str(tmp_path / "b"),
                   "--split-axis", "3"])
        assert rc == 3 and decoded == []
        assert "--split-axis 3 out of range" in capsys.readouterr().err

    def test_usage_error_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--input", "x", "--meta", "y", "--output", "z"])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "amrc", "info", "--input", str(tmp_path / "missing")],
            capture_output=True, text=True)
        assert result.returncode == 3  # OSError on missing file


class TestSweep:
    def test_smooth_abs_sweep_monotone(self, capsys):
        assert main(["sweep", "--generator", "smooth", "--dims", "32,32",
                     "--errors", "0.01,0.05,0.2,1.0", "--criterion", "abs"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "error,bytes,ratio,max_observed_error"
        rows = [line.split(",") for line in lines[1:]]
        sizes = [int(r[1]) for r in rows]
        assert sizes == sorted(sizes, reverse=True)
        for r in rows:
            assert float(r[3]) <= float(r[0])

    def test_noise_tiny_eps_near_input_size(self, capsys):
        assert main(["sweep", "--generator", "noise", "--dims", "16,16",
                     "--errors", "1e-12", "--criterion", "abs"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        nbytes = int(lines[1].split(",")[1])
        assert nbytes >= 16 * 16 * 8  # payload at least the raw data

    def test_rel_sweep_bound_respected(self, capsys):
        assert main(["sweep", "--generator", "smooth", "--dims", "24,24",
                     "--errors", "0.005,0.025", "--criterion", "rel"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[3]) <= float(cols[0])

    @pytest.mark.parametrize("option, bad", [("--dims", "8,x"), ("--errors", "0.1,abc")])
    def test_non_numeric_list_is_usage_error(self, capsys, option, bad):
        args = {"--dims": "8,8", "--errors": "0.1"}
        args[option] = bad
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--generator", "smooth", "--criterion", "abs",
                  "--dims", args["--dims"], "--errors", args["--errors"]])
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_field_larger_than_memory_is_refused_before_generation(self, monkeypatch, capsys):
        # 2^40 float64 values are 8 TiB, more than any host this runs on
        def never(*args, **kwargs):
            raise AssertionError("the generator ran")

        monkeypatch.setitem(cli.GENERATORS, "noise", never)
        assert main(["sweep", "--generator", "noise", "--dims", "1048576,1048576",
                     "--errors", "0.1", "--criterion", "abs"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("amrc: error: ") and "physical memory" in captured.err

    def test_huge_dims_is_data_error(self):
        # the child caps its own address space, so the field fails to allocate
        # at once instead of filling the host's memory
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "from amrc.cli import main\n"
                 "sys.exit(main(['sweep', '--generator', 'noise', '--dims', '100000,100000',"
                 " '--errors', '0.1', '--criterion', 'abs']))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(amrc.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("amrc: error: ")
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_layered_split_smaller_than_3d(self, capsys):
        args = ["sweep", "--generator", "layered", "--dims", "8,16,16",
                "--errors", "1.0", "--criterion", "abs"]
        assert main(args) == 0
        whole = int(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert main(args + ["--split-axis", "0"]) == 0
        split = int(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert split < whole
