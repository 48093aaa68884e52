"""Round trips, checks and metrics; imported by ``run.py`` once amrc is on the path."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

import amrc
from probes import Probes, Tracer, max_over_bound
from workloads import INPUTS_PER_SEED, WORKLOADS, make_instance

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
COLD_STARTS = 3
MIN_ROUND_TRIPS = 3

END_TO_END = {
    "setup_s": "s",
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "ratio": "x",
    "compress_peak_MB": "MB",
    "decompress_peak_MB": "MB",
}
# Printed with the end-to-end metrics but never gated: it is 0 on a correct
# program, and the result line carries it as failed / attempted.
REPORTED_ONLY = {"error_rate": "fraction"}

PER_LAYER = {
    "codec.compress_many_s": "s",
    "codec.decompress_s": "s",
    "codec.coarsen_forest_s": "s",
    "codec.coarsen_self_s": "s",
    "mesh.build_initial_mesh_s": "s",
    "mesh.map_data_s": "s",
    "morton.interleave_s": "s",
    "morton.cells_encoded": "count",
    "criteria.first_sweep_s": "s",
    "criteria.first_sweep_accept_ratio": "fraction",
    "criteria.first_sweep_families": "count",
    "criteria.resolve_bounds_s": "s",
    "mesh.serialize_refinement_s": "s",
    "container.write_artifact_s": "s",
    "container.read_artifact_s": "s",
    "container.header_bytes": "bytes",
    "container.bitfield_bytes": "bytes",
    "container.payload_bytes": "bytes",
    "mesh.deserialize_refinement_s": "s",
    "mesh.deserialize_calls": "count",
    "mesh.expand_to_uniform_s": "s",
    "codec.iterations": "count",
    "mesh.initial_leaves": "count",
    "mesh.final_leaves": "count",
    "codec.collapses": "count",
    "codec.max_tracker_over_bound": "fraction",
    "check.max_err_over_bound": "fraction",
    "trace.overhead_ratio": "ratio",
}


# --- the round trip, through the public API only -----------------------------


def compress_side(inst, tracer):
    axis = inst.config.split_axis
    with tracer.span("roundtrip.compress"):
        if axis is None:
            arrays = [inst.field]
        else:
            with tracer.span("codec.split_axis"):
                arrays = amrc.split_axis(inst.field, axis)
        with tracer.span("codec.compress_many"):
            variables = amrc.compress_many(arrays, inst.shape, inst.config)
        with tracer.span("container.write_artifact"):
            blob = amrc.write_artifact(variables)
    return arrays, variables, blob


def decompress_side(inst, blob, tracer):
    axis = inst.config.split_axis
    with tracer.span("roundtrip.decompress"):
        with tracer.span("container.read_artifact"):
            variables, header = amrc.read_artifact(blob)
        outs = []
        for var in variables:
            with tracer.span("codec.decompress"):
                outs.append(amrc.decompress(var))
        if axis is None:
            recon = outs[0].reshape(inst.field.shape)
        else:
            with tracer.span("codec.stack_axis"):
                recon = amrc.stack_axis(
                    [o.reshape(v.shape.extents) for o, v in zip(outs, variables)], axis)
    return variables, header, recon


class RoundTrip:
    """One timed round trip and its check."""

    def __init__(self, inst, tracer, ref_blob):
        t0 = time.perf_counter()
        self.arrays, self.cvars, self.blob = compress_side(inst, tracer)
        t1 = time.perf_counter()
        self.dvars, header, recon = decompress_side(inst, self.blob, tracer)
        t2 = time.perf_counter()
        self.compress_s, self.decompress_s = t1 - t0, t2 - t1

        self.problems = []
        if recon.shape != inst.field.shape:
            self.problems.append(f"output shape {recon.shape} != {inst.field.shape}")
            self.err_over_bound = float("inf")
            return
        x = inst.field.astype(np.float64)
        dev = np.abs(recon.astype(np.float64) - x)
        limit = inst.point_bounds
        if inst.config.spec.kind == "rel":
            limit = limit * np.abs(x)
        bad = int(np.count_nonzero(~(dev <= limit)))  # a NaN output counts as bad
        if bad:
            self.problems.append(f"{bad} points break their bound")
        self.err_over_bound = max_over_bound(dev, limit)
        if amrc.write_artifact(self.dvars, post_pass=header.post_pass) != self.blob:
            self.problems.append("write_artifact(read_artifact(b)) != b")
        if ref_blob is not None and self.blob != ref_blob:
            self.problems.append("artifact differs from this input's first artifact")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append("; ".join(problems))


def attempt(inst, tracer, tally, ref_blob):
    """One round trip; returns it, or None when it raised."""
    tracer.round_trip += 1
    try:
        rt = RoundTrip(inst, tracer, ref_blob)
    except Exception as exc:  # the run goes on and counts the failure
        tally.record([f"raised {type(exc).__name__}: {exc}"])
        return None
    tally.record(rt.problems)
    return rt


class Timing(NamedTuple):
    compress_s: float
    decompress_s: float
    err_over_bound: float


def timed_loop(insts, seconds, tracer, tally, refs, after=None):
    """Round trips through ``insts`` in turn until ``seconds`` have passed,
    and at least MIN_ROUND_TRIPS.

    ``refs`` holds each input's reference artifact; where it is None, the
    input's first round trip sets it. ``after`` sees each round trip that
    did not raise; only its timings are kept, since holding every round
    trip's buffers grows the heap by tens of MB per round trip and slows
    the later ones.
    """
    refs = list(refs)
    done = []
    deadline = time.perf_counter() + seconds
    tries = 0
    while tries < MIN_ROUND_TRIPS or time.perf_counter() < deadline:
        k = tries % len(insts)
        tries += 1
        rt = attempt(insts[k], tracer, tally, refs[k])
        if rt is not None:
            if refs[k] is None:
                refs[k] = rt.blob
            done.append(Timing(rt.compress_s, rt.decompress_s, rt.err_over_bound))
            if after is not None:
                after(rt)
    return done


# --- set-up time and memory ------------------------------------------------------


def cold_start(args, import_s: float) -> None:
    """Child side of ``measure_setup``: print the set-up time as JSON."""
    inst = make_instance(WORKLOADS[args.workload], args.seed, args.smoke)
    off = Tracer(False)
    t0 = time.perf_counter()
    _, _, blob = compress_side(inst, off)
    decompress_side(inst, blob, off)
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": import_s + (t1 - t0),
                      "sha256": hashlib.sha256(blob).hexdigest()}))


def measure_setup(args, count, sha256, tally):
    """Set-up times of ``count`` fresh interpreters, each checked for the same artifact."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--cold-start",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(count):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            tally.record(["cold start took over 150 s"])
            continue
        if proc.returncode != 0:
            tally.record([f"cold start exited {proc.returncode}: {proc.stderr[-300:]}"])
            continue
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.record([] if rec["sha256"] == sha256 else
                     ["cold-start artifact differs from the run's artifact"])
        times.append(rec["setup_s"])
    return times


def traced_peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()`` in MB; numpy reports its buffers too."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# --- the two kinds of run -------------------------------------------------------


def throughput(nbytes, times) -> tuple[float, dict]:
    """Median MB/s, and a record of the MB/s at the highest time percentile
    that still has ten samples beyond it."""
    mb = nbytes / 1e6
    ts = sorted(times)
    tail = {"samples": len(ts)}
    if len(ts) > 20:  # below that, ten samples beyond leave no tail past the median
        tail.update(percentile=round(100.0 * (len(ts) - 10) / len(ts), 1),
                    value=mb / ts[len(ts) - 11])
    return mb / statistics.median(ts), tail


def first_round_trip(inst, tally, record):
    """An untimed round trip; its artifact is the reference for this input."""
    warm = attempt(inst, Tracer(False), tally, None)
    if warm is not None:
        record["artifact_sha256"] = hashlib.sha256(warm.blob).hexdigest()
        record["artifact_bytes"] = len(warm.blob)
    return warm


def end_to_end(inst, args, tally, record) -> dict:
    warm = first_round_trip(inst, tally, record)
    if warm is None:
        return {}
    ref = warm.blob
    off = Tracer(False)

    metrics = {
        "ratio": inst.nbytes / len(ref),
        "compress_peak_MB": traced_peak_mb(lambda: compress_side(inst, off)),
        "decompress_peak_MB": traced_peak_mb(lambda: decompress_side(inst, ref, off)),
    }
    setups = measure_setup(args, 1 if args.smoke else COLD_STARTS,
                           record["artifact_sha256"], tally)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    insts = [inst] + [make_instance(WORKLOADS[args.workload], args.seed, args.smoke, k)
                      for k in range(1, INPUTS_PER_SEED)]
    record["timing_shifts"] = [list(i.shift) for i in insts]
    rts = timed_loop(insts, args.seconds, off, tally, [ref] + [None] * (len(insts) - 1))
    if rts:
        metrics["compress_MBps"], record["compress_MBps_tail"] = throughput(
            inst.nbytes, [rt.compress_s for rt in rts])
        metrics["decompress_MBps"], record["decompress_MBps_tail"] = throughput(
            inst.nbytes, [rt.decompress_s for rt in rts])
        record["max_err_over_bound"] = max(rt.err_over_bound for rt in rts)
        record["compress_s_samples"] = [rt.compress_s for rt in rts]
        record["decompress_s_samples"] = [rt.decompress_s for rt in rts]
    return metrics


def per_layer(inst, args, tally, record) -> dict:
    warm = first_round_trip(inst, tally, record)
    if warm is None:
        return {}
    ref = warm.blob
    off, on = Tracer(False), Tracer(True)
    probes = Probes(amrc, inst, on)
    shared = inst.config.mode == amrc.ONE_FOR_ALL

    def probe(rt):
        on.count("check.max_err_over_bound", rt.err_over_bound)
        stats = [getattr(v, "stats", None) for v in rt.cvars]
        if None not in stats:
            on.count("codec.iterations", max(s.iterations for s in stats))
            on.count("mesh.final_leaves", stats[0].leaf_count if shared
                     else sum(s.leaf_count for s in stats))
        # each section starts with a u32 length or count (see amrc.container)
        bits = sum(4 + len(v.mesh_bits) for v in (rt.dvars[:1] if shared else rt.dvars))
        payload = sum(4 + v.payload.nbytes for v in rt.dvars)
        on.count("container.bitfield_bytes", bits)
        on.count("container.payload_bytes", payload)
        on.count("container.header_bytes", len(rt.blob) - bits - payload)
        with on.span("probes"):
            probes.run(rt.arrays, rt.dvars)

    traced = []

    def traced_round_trip(_plain):
        # alternating plain and traced round trips share the same conditions
        rt = attempt(inst, on, tally, ref)
        if rt is not None:
            traced.append(rt.compress_s)
            probe(rt)

    plain = timed_loop([inst], args.seconds, off, tally, [ref], traced_round_trip)
    record["spans"] = on.spans
    record["counts"] = on.counts
    m = on.per_round_trip()
    metrics = {k: v for k, v in m.items() if k in PER_LAYER}
    if {"codec.coarsen_forest_s", "mesh.build_initial_mesh_s", "mesh.map_data_s"} <= m.keys():
        # an estimate: the probes time these layers apart from coarsen_forest
        metrics["codec.coarsen_self_s"] = (m["codec.coarsen_forest_s"]
                                          - m["mesh.build_initial_mesh_s"]
                                          - m["mesh.map_data_s"])
    if {"mesh.initial_leaves", "mesh.final_leaves"} <= m.keys():
        meshes = 1 if shared else len(warm.cvars)
        metrics["codec.collapses"] = ((m["mesh.initial_leaves"] * meshes
                                       - m["mesh.final_leaves"])
                                      / ((1 << inst.shape.dim) - 1))
    if plain and traced:
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced)
            / statistics.median(rt.compress_s for rt in plain))
    record["absent"] = {k: probes.absent.get(k, "not measured")
                        for k in PER_LAYER if k not in metrics}
    return metrics


# --- reporting ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, inst) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "amrc": amrc.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "shift": list(inst.shift),
        "smoke": args.smoke,
    }


def run(args) -> dict:
    """Measure, print every metric by name and unit, write the record, and
    return the result object for the last line."""
    inst = make_instance(WORKLOADS[args.workload], args.seed, args.smoke)
    tally = Tally()
    record = {"environment": environment(args, inst), "input_bytes": inst.nbytes}
    if args.trace:
        units, shown = PER_LAYER, PER_LAYER
        metrics = per_layer(inst, args, tally, record)
    else:
        units, shown = END_TO_END, {**END_TO_END, **REPORTED_ONLY}
        metrics = end_to_end(inst, args, tally, record)
        metrics["error_rate"] = tally.failed / max(tally.attempted, 1)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors)

    OUT.mkdir(exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    path.write_text(json.dumps(record, indent=1))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  shift {env['shift']}  "
          f"input {inst.nbytes / 1e6:.6g} MB")
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}")
    for name, unit in shown.items():
        value = metrics.get(name)
        text = "absent" if value is None else f"{value:.6g}"
        tail = record.get(f"{name}_tail", {})
        extra = (f"  (p{tail['percentile']}: {tail['value']:.4g}; {tail['samples']} samples)"
                 if "value" in tail else
                 f"  ({tail['samples']} samples)" if tail else "")
        print(f"  {name:36s} {text:>12s} {unit}{extra}")
    if "artifact_sha256" in record:
        print(f"  check.artifact_sha256 {record['artifact_sha256']}")
    for err in tally.errors:
        print(f"  failure: {err}")
    print(f"  record {path.relative_to(BENCH.parent)}")

    complete = args.trace or set(END_TO_END) <= metrics.keys()
    return {
        "correct": tally.failed == 0 and tally.attempted > 0 and bool(complete),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
