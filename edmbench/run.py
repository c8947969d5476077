"""Repository benchmark: run one workload for one seed, print every metric.

Usage (from the repository root)::

    python3 edmbench/run.py --workload hd-batch --seed 1 --seconds 10 --trace 0

Workloads (see ``edmbench/NOTES.md`` for why each exists):

* ``hd-batch``  — in-process, 34-d Gaussian mixture, ``learn_many`` batches;
* ``drift-seq`` — in-process, 2-d drifting RBF, one ``learn_one`` per point;
* ``serve-open`` — ingest and query processes, open loop on both sides.

``--seconds`` sets how much work a run does through a fixed function of
its value, never through the clock.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a separate run that
also makes untraced passes, for the tail percentiles and the overhead of
tracing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

# One BLAS thread: the benchmark owns at most two threads on a two-core box,
# and a multi-threaded oracle would compete with the process it measures.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

WORKLOADS = ("hd-batch", "drift-seq", "serve-open")

END_TO_END = (
    "setup_s",
    "ingest_pts_per_s",
    "update_p50_ms",
    "query_p50_ms",
    "freshness_p50_ms",
    "checkpoint_ms",
    "restore_ms",
    "purity",
    "state_bytes",
    "peak_rss_mb",
)

#: Per-layer metrics and their units; a workload that bypasses a layer
#: reports 0 for it.
PER_LAYER = {
    "distance.kernel_calls": "count",
    "distance.kernel_ms": "ms",
    "distance.kernel_pairs": "count",
    "cellstore.nearest_calls": "count",
    "cellstore.nearest_ms": "ms",
    "batch.ingest_calls": "count",
    "batch.ingest_ms": "ms",
    "edmstream.learn_one_ms": "ms",
    "filters.distance_ratio": "ratio",
    "dptree.clusters_ms": "ms",
    "adaptive_tau.optimize_ms": "ms",
    "evolution.observe_ms": "ms",
    "snapshot.publish_calls": "count",
    "snapshot.publish_ms": "ms",
    "snapshot.predict_ms": "ms",
    "persistence.save_ms": "ms",
    "persistence.load_ms": "ms",
    "persistence.bytes": "B",
    "ingest.scan_self_share": "ratio",
    "ingest.top_other_self_share": "ratio",
    "frontend.batches": "count",
    "frontend.mean_batch": "count",
    "frontend.delay_flush_share": "ratio",
    "worker.busy_s": "s",
    "worker.rehandshakes": "count",
    "worker.roundtrip_p50_ms": "ms",
    "publisher.busy_s": "s",
    "publisher.publishes": "count",
    "publisher.lag_p50_ms": "ms",
    "client.late_p50_ms": "ms",
    "client.late_p99_ms": "ms",
    "update_p99_ms": "ms",
    "query_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "state.active_cells": "count",
    "state.inactive_cells": "count",
}


def fingerprint() -> dict:
    """Cores, interpreter, numpy, BLAS build and thread settings."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except TypeError:  # numpy < 1.25 has no mode="dicts"
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    """Parse and check the command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def main(argv=None) -> int:
    """Run one workload and print the fingerprint and the result line."""
    args = parse_args(argv)
    import repro  # noqa: F401  -- fail before doing any work if the library is absent

    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    if args.workload == "serve-open":
        import serve

        measured, attempted, failed = serve.run(args.seed, args.seconds, bool(args.trace), workdir)
    else:
        import inproc

        measured, attempted, failed = inproc.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )

    if args.trace:
        names = {name: PER_LAYER[name] for name in PER_LAYER}
        values = {name: 0.0 for name in PER_LAYER}
    else:
        names = {name: measured[name][1] for name in END_TO_END}
        values = {}
    values.update({name: value for name, (value, _) in measured.items()})
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"metrics not declared: {sorted(unknown)}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in names.items()}
    correct = failed == 0 and all(
        v["value"] == v["value"] and abs(v["value"]) != float("inf") for v in metrics.values()
    )
    print(json.dumps({"fingerprint": fingerprint()}))
    result = {"correct": correct, "attempted": int(attempted), "failed": int(failed)}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
