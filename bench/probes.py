"""Span tracer and per-layer probes, all from outside the library.

The traced run wraps each public call of the round trip in a span and then
re-runs single layers on the same input: mesh build, data mapping, the Morton
interleave, the first criteria sweep, coarsening, bit-field (de)serialization
and expansion. Spans sit in memory, carry their parent's id and the id of
the round trip that caused them, and are written out when the run ends.

Several probed functions (``build_initial_mesh``, ``map_data``,
``complete_family_starts``, the ``criteria.batch_*`` helpers) are slated for
removal. A probe whose function is gone, or fails, leaves its metrics absent
with the reason and the run carries on, so a later change to the library
never needs an edit here.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

_NULL = nullcontext()


class Tracer:
    """In-memory spans and counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.round_trip = 0
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        rec = {"trace": self.round_trip, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts.append({"trace": self.round_trip, "name": name,
                                "value": float(value)})

    def per_round_trip(self) -> dict[str, float]:
        """Median over round trips of each span's summed seconds and each count."""
        sums: dict[str, dict[int, float]] = {}
        for s in self.spans:
            per = sums.setdefault(s["name"] + "_s", {})
            per[s["trace"]] = per.get(s["trace"], 0.0) + s["end"] - s["start"]
        for c in self.counts:
            sums.setdefault(c["name"], {})[c["trace"]] = c["value"]
        return {name: statistics.median(per.values()) for name, per in sums.items()}


class Probes:
    """Per-layer probes on one input; ``absent`` maps metric to reason."""

    def __init__(self, amrc, inst, tracer: Tracer):
        self.amrc = amrc
        self.inst = inst
        self.tracer = tracer
        self.absent: dict[str, str] = {}
        grid = inst.shape.extents
        idx = np.indices(grid).reshape(len(grid), -1)
        # Morton axis 0 is the last numpy axis
        self.coords = tuple(idx[len(grid) - 1 - k].astype(np.uint64)
                            for k in range(len(grid)))

    def _try(self, metrics, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a removed or changed layer must not end the run
            for m in metrics:
                self.absent.setdefault(m, f"{type(exc).__name__}: {exc}")
            return None

    def run(self, arrays, blob_vars) -> None:
        """Probe both sides; ``arrays`` went into compress_many, ``blob_vars``
        came back from read_artifact."""
        mesh0 = self._try(["mesh.build_initial_mesh_s", "mesh.initial_leaves"],
                          self._build_initial_mesh)
        mapped = None
        if mesh0 is not None:
            mapped = self._try(["mesh.map_data_s"], self._map_data, mesh0, arrays)
        else:
            self.absent.setdefault("mesh.map_data_s", "needs build_initial_mesh")
        if mapped is not None:
            self._try(["criteria.first_sweep_s", "criteria.resolve_bounds_s",
                       "criteria.first_sweep_accept_ratio",
                       "criteria.first_sweep_families"],
                      self._first_sweep, mesh0, mapped)
        else:
            for m in ("criteria.first_sweep_s", "criteria.resolve_bounds_s",
                      "criteria.first_sweep_accept_ratio", "criteria.first_sweep_families"):
                self.absent.setdefault(m, "needs build_initial_mesh and map_data")
        self._try(["morton.interleave_s", "morton.cells_encoded"],
                  self._interleave, len(arrays))
        res = self._try(["codec.coarsen_forest_s", "codec.max_tracker_over_bound"],
                        self._coarsen, arrays)
        if res is not None:
            self._try(["mesh.serialize_refinement_s"], self._serialize, res)
            self._try(["codec.max_tracker_over_bound"], self._tracker_slack, res)
        else:
            self.absent.setdefault("mesh.serialize_refinement_s", "needs coarsen_forest")
        self._try(["mesh.deserialize_refinement_s", "mesh.deserialize_calls",
                   "mesh.expand_to_uniform_s"], self._expand, blob_vars)

    def _build_initial_mesh(self):
        with self.tracer.span("mesh.build_initial_mesh"):
            mesh0 = self.amrc.build_initial_mesh(self.inst.shape)
        self.tracer.count("mesh.initial_leaves", mesh0.n_leaves)
        return mesh0

    def _map_data(self, mesh0, arrays):
        out = []
        for arr in arrays:
            with self.tracer.span("mesh.map_data"):
                out.append(self.amrc.map_data(self.inst.shape, arr, mesh0))
        return out

    def _interleave(self, n_vars):
        # one pass per variable on each side: map_data and expand_to_uniform
        interleave = self.amrc.morton.interleave
        dim = len(self.coords)
        for _ in range(2 * n_vars):
            with self.tracer.span("morton.interleave"):
                interleave(self.coords, dim)
        self.tracer.count("morton.cells_encoded", 2 * n_vars * self.coords[0].size)

    def _first_sweep(self, mesh0, mapped):
        """family_means + batch check + resolve_bounds_batch over the complete
        finest-level families, as the first coarsening iteration runs them."""
        crit = self.amrc.criteria
        spec = self.inst.config.spec
        starts = self.amrc.complete_family_starts(mesh0)
        dim = mesh0.dim
        members = starts[:, None] + np.arange(1 << dim)
        dmask = mesh0.dummy[members]
        parents = mesh0.codes[starts] >> np.uint64(dim)
        levels = mesh0.levels[starts] - 1
        check = crit.batch_check_absolute if spec.kind == "abs" else crit.batch_check_relative
        zeros = np.zeros(dmask.shape)
        with self.tracer.span("criteria.first_sweep"):
            with self.tracer.span("criteria.resolve_bounds"):
                bounds = crit.resolve_bounds_batch(parents, levels, spec, self.inst.shape)
            ok = np.ones(starts.size, dtype=bool)
            for leaf_vals in mapped:
                vals = leaf_vals[members]
                means, _ = crit.family_means(vals, dmask)
                if self.inst.field.dtype == np.float32:
                    means = means.astype(np.float32).astype(np.float64)
                acc, _ = check(vals, zeros, dmask, means, bounds)
                ok &= acc
        self.tracer.count("criteria.first_sweep_families", starts.size)
        self.tracer.count("criteria.first_sweep_accept_ratio",
                          ok.sum() / starts.size if starts.size else 0.0)

    def _coarsen(self, arrays):
        kind = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}[arrays[0].dtype]
        with self.tracer.span("codec.coarsen_forest"):
            return self.amrc.coarsen_forest(arrays, self.inst.shape,
                                            self.inst.config.spec, kind)

    def _serialize(self, res):
        with self.tracer.span("mesh.serialize_refinement"):
            self.amrc.serialize_refinement(res.mesh)

    def _tracker_slack(self, res):
        """Largest point-wise tracker as a fraction of the point's bound.

        Under the relative criterion the bound is ``b * |x|`` with ``x`` the
        input, as in the check. A leaf's tracker covers its worst point, so
        there it can exceed 1 while every point keeps its bound.
        """
        inst = self.inst
        worst = 0.0
        for i, trk in enumerate(res.trackers):
            x, b = inst.field, inst.point_bounds
            if inst.config.split_axis is not None:
                x = np.take(x, i, axis=inst.config.split_axis)
                b = np.take(b, i, axis=inst.config.split_axis)
            limit = b.reshape(-1)
            if inst.config.spec.kind == "rel":
                limit = limit * np.abs(x.reshape(-1).astype(np.float64))
            worst = max(worst, max_over_bound(
                self.amrc.expand_to_uniform(res.mesh, trk), limit))
        self.tracer.count("codec.max_tracker_over_bound", worst)

    def _expand(self, blob_vars):
        for var in blob_vars:
            with self.tracer.span("mesh.deserialize_refinement"):
                mesh = self.amrc.deserialize_refinement(var.mesh_bits, var.shape)
            leaf = np.full(mesh.n_leaves, np.nan)
            leaf[~mesh.dummy] = var.payload.astype(np.float64)
            with self.tracer.span("mesh.expand_to_uniform"):
                self.amrc.expand_to_uniform(mesh, leaf)
        self.tracer.count("mesh.deserialize_calls", len(blob_vars))


def max_over_bound(dev: np.ndarray, bound: np.ndarray) -> float:
    """max(dev / bound), with 0/0 read as 0 and x/0 as inf; NaN reads as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = dev / bound
    q = np.where(bound == 0.0, np.where(dev == 0.0, 0.0, np.inf), q)
    q = np.where(np.isnan(q), np.inf, q)
    return float(q.max()) if q.size else 0.0
