#!/usr/bin/env python3
"""Round-trip benchmark for amrc.

Run from the repository root::

    python3 bench/run.py --workload plane2d-domains --seed 0 --seconds 48 --trace 0

A closed loop in one process and one thread: each round trip starts when
the previous one has been checked. A round trip is ``split_axis`` (when the
workload splits), ``compress_many`` and ``write_artifact``, then
``read_artifact``, ``decompress`` of every variable and ``stack_axis``.
Every round trip is checked against the point-wise bound, for
``write_artifact(read_artifact(b)) == b`` and for the same bytes as the
first artifact of the same input; a failure is counted and the run goes on.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans and probes (see ``probes.py``). The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it list every metric by name and unit; the full record
(environment, tail percentiles, artifact digest, spans) goes to
``bench/out/``. ``--smoke`` runs the same harness on tiny grids.

amrc is imported from ``src/`` beside this directory; without it the
benchmark exits with an error.
"""

import os

# pinned before numpy is imported, here and in the cold-start children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_amrc():
    """Put ``src`` first on the path and import amrc (and numpy) from it."""
    if not (SRC / "amrc" / "__init__.py").is_file():
        sys.exit(f"bench: amrc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import amrc  # noqa: F401


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Round-trip benchmark for amrc.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=48.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids, one cold start")
    p.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    t0 = time.perf_counter()
    import_amrc()
    import_s = time.perf_counter() - t0
    import harness

    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    if args.cold_start:
        harness.cold_start(args, import_s)
    else:
        print(json.dumps(harness.run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
