"""Command-line front end: compress/decompress raw arrays, inspect artifacts,
and run synthetic error-vs-size sweeps.

Raw inputs are flat binary files described by a text sidecar of ``key=value``
lines (``#`` starts a comment)::

    dims=64,64                     # numpy shape order, last axis fastest
    value_kind=f32                 # f32 | f64 | i16 | i32
    order=row-major-last-fastest   # the only accepted order
    scale_factor=0.01              # optional packing record
    offset=150.0                   # optional, defaults to 0 with scale_factor

Exit codes: 0 success, 2 usage error, 3 data error (an input too large for
memory included), 4 corrupt artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    VALUE_KIND_DTYPES,
    CompressionConfig,
    Packing,
    _slices,
    compress_many,
    decompress_many,
    packed_bound,
    stack_axis,
)
from .container import read_artifact, write_artifact
from .criteria import ABSOLUTE, RELATIVE, Criterion, ErrorDomain, ErrorSpec
from .errors import AmrcError, ConfigError, CorruptArtifactError, DataError, UnsupportedFeatureError
from .fields import GENERATORS
from .mesh import GridShape, _walk


@dataclass
class SidecarMeta:
    dims: tuple[int, ...]
    value_kind: str
    scale_factor: float | None = None
    offset: float = 0.0


_SIDECAR_KEYS = {"dims", "value_kind", "order", "scale_factor", "offset"}
_ORDER = "row-major-last-fastest"


def read_sidecar(path) -> SidecarMeta:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: sidecar is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in ("missing_value", "missing-value"):
            raise DataError(
                f"{path}:{lineno}: missing-value markers inside the domain are not supported")
        if key not in _SIDECAR_KEYS:
            raise DataError(f"{path}:{lineno}: unknown sidecar key {key!r}")
        if key in fields:
            raise DataError(f"{path}:{lineno}: duplicate sidecar key {key!r}")
        fields[key] = value
    for required in ("dims", "value_kind", "order"):
        if required not in fields:
            raise DataError(f"{path}: sidecar is missing required key {required!r}")
    if fields["order"] != _ORDER:
        raise DataError(f"{path}: order must be {_ORDER!r}, got {fields['order']!r}")
    if fields["value_kind"] not in VALUE_KIND_DTYPES:
        raise DataError(f"{path}: unknown value_kind {fields['value_kind']!r}")
    try:
        dims = tuple(int(d) for d in fields["dims"].split(","))
    except ValueError as exc:
        raise DataError(f"{path}: bad dims {fields['dims']!r}") from exc
    try:
        scale = float(fields["scale_factor"]) if "scale_factor" in fields else None
        offset = float(fields.get("offset", 0.0))
    except ValueError as exc:
        raise DataError(f"{path}: bad packing record: {exc}") from exc
    if scale is None and "offset" in fields:
        raise DataError(f"{path}: offset given without scale_factor")
    return SidecarMeta(dims, fields["value_kind"], scale, offset)


def _parse_domain(text: str, dim: int) -> tuple[tuple[tuple[int, int], ...], float]:
    """Parse ``x0:x1,y0:y1[,z0:z1]=bound`` (ranges follow the dims order)."""
    body, sep, bound_text = text.rpartition("=")
    if not sep:
        raise ConfigError(f"domain {text!r} is missing '=bound'")
    try:
        bound = float(bound_text)
        ranges = []
        for part in body.split(","):
            lo, _, hi = part.partition(":")
            ranges.append((int(lo), int(hi)))
    except ValueError as exc:
        raise ConfigError(f"bad domain {text!r}") from exc
    if len(ranges) != dim:
        raise ConfigError(f"domain {text!r} has {len(ranges)} ranges for {dim}D data")
    return tuple(ranges), bound


def _check_domain_in_grid(box, shape: GridShape) -> None:
    for (lo, hi), ext in zip(box, shape.extents):
        if hi <= 0 or lo >= ext:
            raise ConfigError(f"domain box {box} does not intersect the grid {shape.extents}")


def _compress(field: np.ndarray, config: CompressionConfig, axis: int | None):
    """Compress ``field`` as one variable, or as its 2D slices (views) along ``axis``."""
    arrays = [field] if axis is None else _slices(field, axis)
    return compress_many(arrays, GridShape(arrays[0].shape), config)


def cmd_compress(args) -> int:
    meta = read_sidecar(args.meta)
    shape = GridShape(meta.dims)
    dtype = np.dtype(VALUE_KIND_DTYPES[meta.value_kind])
    size, need = Path(args.input).stat().st_size, shape.npoints * dtype.itemsize
    if size != need:  # checked before anything of that size is allocated
        raise DataError(f"{args.input}: holds {size} bytes, sidecar dims need {need} "
                        f"({shape.npoints} {meta.value_kind} values)")
    raw = np.fromfile(args.input, dtype=dtype, count=shape.npoints)

    kind = ABSOLUTE if args.abs is not None else RELATIVE
    bound = args.abs if args.abs is not None else args.rel
    packing = None
    if meta.scale_factor is not None:
        if kind == RELATIVE:
            raise ConfigError("relative bounds on packed data are not supported; "
                              "use --abs with the unpacked-units bound")
        packing = Packing(meta.scale_factor, meta.offset)
        bound = packed_bound(bound, meta.scale_factor)

    domains = []
    for text in args.domain or []:
        box, dbound = _parse_domain(text, shape.dim)
        _check_domain_in_grid(box, shape)
        if packing is not None:
            dbound = packed_bound(dbound, meta.scale_factor)
        domains.append(ErrorDomain(box, Criterion(kind, dbound)))
    if domains and args.split_axis is not None:
        raise ConfigError("error domains cannot be combined with --split-axis")

    spec = ErrorSpec(Criterion(kind, bound), tuple(domains))
    config = CompressionConfig(spec, mode=args.mode, packing=packing)
    variables = _compress(raw.reshape(shape.extents), config, args.split_axis)
    blob = write_artifact(variables)
    Path(args.output).write_bytes(blob)
    leaves = sum(v.stats.leaf_count for i, v in enumerate(variables)
                 if i == 0 or v.mode == ONE_FOR_ONE)  # the variables that store a bit-field
    iterations = max(v.stats.iterations for v in variables)
    max_tracker = max(v.stats.max_tracker for v in variables)
    print(f"input_bytes={raw.nbytes} output_bytes={len(blob)} "
          f"ratio={raw.nbytes / len(blob):.4g} leaves={leaves} "
          f"iterations={iterations} max_tracker={max_tracker!r}")
    return 0


def _restore(variables, axis: int) -> np.ndarray:
    """Decode an artifact's variables; several are stacked along ``axis``."""
    arrays = [a.reshape(v.shape.extents) for v, a in zip(variables, decompress_many(variables))]
    return arrays[0] if len(arrays) == 1 else stack_axis(arrays, axis)


def cmd_decompress(args) -> int:
    variables, header = read_artifact(Path(args.input).read_bytes())
    if len(variables) > 1 and not 0 <= args.split_axis <= header.shape.dim:
        raise ConfigError(f"--split-axis {args.split_axis} out of range")
    np.ascontiguousarray(_restore(variables, args.split_axis)).tofile(args.output)
    return 0


def cmd_info(args) -> int:
    variables, header = read_artifact(Path(args.input).read_bytes())
    extents = "x".join(str(e) for e in header.shape.extents)
    print(f"artifact: {args.input}")
    print(f"dim: {header.shape.dim}  extents: {extents}  "
          f"initial_level: {header.shape.initial_level}")
    print(f"value_kind: {header.value_kind}  "
          f"criterion: {header.criterion.kind} {header.criterion.bound!r}  "
          f"mode: {header.mode}")
    if header.packing is None:
        print("packing: none")
    else:
        print(f"packing: scale={header.packing.scale!r} offset={header.packing.offset!r}")
    print(f"post_pass: {header.post_pass}")
    print(f"variables: {header.n_variables}")
    for i, v in enumerate(variables):
        if i == 0 or header.mode == ONE_FOR_ONE:  # the variables that store a bit-field
            _, key, _ = _walk(header.shape, bits=v.mesh_bits)
            levels, counts = np.unique(header.shape.initial_level - (key >> 1), return_counts=True)
            histogram = {int(a): int(b) for a, b in zip(levels, counts)}
        print(f"variable {i}: levels: {histogram}  leaves={len(key)} "
              f"payload_values={len(v.payload)} payload_bytes={v.payload.nbytes} "
              f"bitfield_bytes={len(v.mesh_bits)}")
    return 0


def cmd_sweep(args) -> int:
    n = GridShape(args.dims).npoints  # validate the dims before the field is generated
    if n * 8 > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise DataError(f"a float64 field of {n} points does not fit in physical memory")
    field = GENERATORS[args.generator](args.dims, seed=args.seed)
    flat = field.reshape(-1)
    kind = ABSOLUTE if args.criterion == "abs" else RELATIVE
    print("error,bytes,ratio,max_observed_error")
    for bound in args.errors:
        variables = _compress(field, CompressionConfig(ErrorSpec(Criterion(kind, bound))),
                              args.split_axis)
        recon = _restore(variables, args.split_axis).reshape(-1)
        blob = write_artifact(variables)
        dev = np.abs(recon - flat)
        if kind == ABSOLUTE:
            observed = float(dev.max())
        else:
            nonzero = flat != 0.0
            observed = float((dev[nonzero] / np.abs(flat[nonzero])).max())
        print(f"{bound!r},{len(blob)},{flat.nbytes / len(blob):.6g},{observed!r}")
    return 0


def _comma_list(convert):
    """argparse ``type=`` for a comma-separated list; bad text is a usage error."""
    def parse(text: str):
        try:
            return tuple(convert(item) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}") from None
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amrc",
        description="Error-bounded lossy compression of gridded data by adaptive "
                    "mesh coarsening.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw array described by a sidecar")
    p.add_argument("--input", required=True, help="raw binary input file")
    p.add_argument("--meta", required=True, help="sidecar metadata file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--abs", type=float, help="absolute point-wise error bound")
    group.add_argument("--rel", type=float, help="relative point-wise error bound (fraction <= 1)")
    p.add_argument("--domain", action="append", metavar="x0:x1,y0:y1[,z0:z1]=BOUND",
                   help="region-wise bound (ranges follow the dims order); repeatable")
    p.add_argument("--mode", choices=[ONE_FOR_ONE, ONE_FOR_ALL], default=ONE_FOR_ONE)
    p.add_argument("--split-axis", type=int, default=None,
                   help="split 3D data along this axis into independent 2D slices")
    p.add_argument("--output", required=True, help="artifact output file (.amrc)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct the raw array from an artifact")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--split-axis", type=int, default=0,
                   help="axis along which to re-stack a multi-variable artifact")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("info", help="print artifact header and mesh summary")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sweep", help="error-vs-size sweep on a synthetic field (CSV)")
    p.add_argument("--generator", choices=sorted(GENERATORS), required=True)
    p.add_argument("--dims", required=True, type=_comma_list(int),
                   help="comma-separated extents")
    p.add_argument("--errors", required=True, type=_comma_list(float),
                   help="comma-separated error bounds")
    p.add_argument("--criterion", choices=["abs", "rel"], required=True)
    p.add_argument("--split-axis", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AmrcError, OSError, MemoryError) as exc:
        print(f"amrc: error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, (CorruptArtifactError, UnsupportedFeatureError)) else 3
