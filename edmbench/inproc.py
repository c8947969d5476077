"""In-process closed-loop workloads: ``hd-batch`` and ``drift-seq``.

One caller drives one :class:`repro.EDMStream` in steps.  A step ingests a
fixed chunk of the stream (the *update*: the ingest calls plus the
snapshot publication that makes the points visible), then queries the
same chunk with ``predict_many``.  Every answer is checked by the
independent oracle in :mod:`oracle`; every checkpoint is restored and must
answer a fixed query set exactly as the live model does.

A run makes ``passes`` identical passes over one seeded stream, each with a
fresh model, so the same step does the same work in every pass.  A step's
time is its fastest pass: co-tenant load on a shared machine slows whole
seconds at a time, and the fastest of several passes spread across the run
is the figure that repeats.  Medians are then taken over steps.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

import gen
import oracle
from repro import EDMStream
from repro.core import persistence
from spans import Tracer

clock = time.perf_counter


@dataclass(frozen=True)
class Spec:
    """One in-process workload: its input, model and step shape."""

    name: str
    make: Callable[[int, int], Tuple[np.ndarray, np.ndarray]]
    config: dict
    step: int
    steps: int
    batched: bool
    checkpoint_every: int
    #: Passes per second of ``--seconds``: more for the noisier per-point path.
    passes_per_second: float = 0.6

    @property
    def points(self) -> int:
        """Points per pass."""
        return self.step * self.steps


#: Seeds of the fixed reference streams that purity and state size are
#: measured on; the same for every run, so those metrics repeat exactly.
REFERENCE_SEEDS = (9001, 9002)

SPECS = {
    "hd-batch": Spec(
        name="hd-batch",
        make=gen.gaussian_mixture,
        config={"radius": 9.0, "beta": 0.0021},
        step=256,
        steps=200,
        batched=True,
        checkpoint_every=32,
    ),
    "drift-seq": Spec(
        name="drift-seq",
        make=gen.drifting_rbf,
        config={"radius": 0.3, "beta": 0.0021},
        step=64,
        steps=470,
        batched=False,
        checkpoint_every=32,
        passes_per_second=0.9,
    ),
}

#: Save/restore rounds per checkpoint position.
CHECKPOINT_REPEATS = 2
#: Set-up episodes before each pass; one more, untimed, warms up first.
SETUP_PER_PASS = 5
INIT_POINTS = 512


def rss_mb() -> float:
    """Resident set size of this process, in MiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def passes_for(spec: Spec, seconds: int) -> int:
    """Number of passes a run makes: a fixed function of ``--seconds``."""
    return max(2, round(seconds * spec.passes_per_second))


def run_passes(spec, X, workdir, fixed, passes, tracer=None):
    """``passes`` passes, pass ``p`` pinned to the ``p``-th allowed core.

    Co-tenant load slows each core of a shared machine on its own, so
    spreading the passes over every core gives each step more chances to
    run at full speed.  Without a ``tracer`` each pass starts with
    ``SETUP_PER_PASS`` set-up episodes, so set-up is sampled across the
    whole run and episode ``i`` can keep its fastest pass like a step; with
    one, odd passes are traced.
    """
    cores = sorted(os.sched_getaffinity(0))
    results = []
    if tracer is None:
        setup_episode(spec, X)  # warm-up
    try:
        for p in range(passes):
            os.sched_setaffinity(0, {cores[p % len(cores)]})
            if tracer is None:
                setup = [setup_episode(spec, X) for _ in range(SETUP_PER_PASS)]
                results.append(run_pass(spec, X, workdir, fixed))
                results[-1].setup = setup
            elif p % 2 == 0:
                results.append(run_pass(spec, X, workdir, fixed))
            else:
                install_spans(tracer)
                with tracer:
                    results.append(run_pass(spec, X, workdir, fixed, tracer))
    finally:
        os.sched_setaffinity(0, cores)
    return results


class Stepper:
    """Drive one model through the steps of one pass."""

    def __init__(self, spec: Spec, model) -> None:
        self.spec = spec
        self.model = model

    def update(self, chunk: np.ndarray) -> None:
        """Ingest ``chunk`` and publish, so queries see its points."""
        if self.spec.batched:
            self.model.learn_many(chunk, batch_size=self.spec.step)
        else:
            learn_one = self.model.learn_one
            for row in chunk:
                learn_one(row)
            self.model.request_clustering()

    def query(self, chunk: np.ndarray) -> np.ndarray:
        """Cluster labels of ``chunk`` from the published snapshot."""
        return self.model.predict_many(chunk)


def setup_episode(spec: Spec, X: np.ndarray) -> float:
    """Seconds from a fresh model to its first answered query.

    The model must have built its DP-tree (initialisation needs 500 points),
    so an episode ingests the first 512 points in workload steps, then
    answers one query chunk.  Garbage left by earlier work is collected
    first, so a pending collection does not land in the episode.
    """
    gc.collect()
    began = clock()
    stepper = Stepper(spec, EDMStream(**spec.config))
    for start in range(0, INIT_POINTS, spec.step):
        stepper.update(X[start : start + spec.step])
    stepper.query(X[: spec.step])
    elapsed = clock() - began
    if not stepper.model.initialized:
        raise RuntimeError("model not initialised after the set-up points")
    return elapsed


class PassResult:
    """Timings, counts and failures of one pass."""

    def __init__(self, spec: Spec) -> None:
        n_ck = spec.steps // spec.checkpoint_every
        self.update = np.full(spec.steps, np.nan)
        self.query = np.full(spec.steps, np.nan)
        self.save = np.full(n_ck, np.nan)
        self.load = np.full(n_ck, np.nan)
        self.bytes = 0
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.labels = []
        self.final = {}
        self.setup = []


def checkpoint(model, path, fixed, repeats):
    """Save and restore ``model`` ``repeats`` times; the fastest of each.

    Returns ``(save_s, load_s, bytes, mismatches)``, where ``mismatches``
    counts the ``fixed`` queries the restored model answers differently
    from the live one.  Repeating identical work and keeping the fastest
    takes the co-tenant noise out of a single slow sample.
    """
    save = load = float("inf")
    for _ in range(repeats):
        gc.collect()  # no collection left pending from earlier work
        t0 = clock()
        persistence.save_model(model, path)
        t1 = clock()
        restored = persistence.load_model(path)
        t2 = clock()
        save, load = min(save, t1 - t0), min(load, t2 - t1)
    size = os.path.getsize(path)
    os.remove(path)
    mismatches = int(np.count_nonzero(restored.predict_many(fixed) != model.predict_many(fixed)))
    return save, load, size, mismatches


def run_pass(spec, X, workdir, fixed=None, tracer=None) -> PassResult:
    """One pass over ``X`` with a fresh model.

    With ``fixed`` queries the pass checkpoints every ``checkpoint_every``
    steps; ``tracer`` records a span around each step's update and query.
    """
    res = PassResult(spec)
    stepper = Stepper(spec, EDMStream(**spec.config))
    update, query = stepper.update, stepper.query
    if tracer is not None:
        update = tracer.span("step.update", update)
        query = tracer.span("step.query", query)
    path = os.path.join(workdir, f"{spec.name}-{os.getpid()}.json")
    k = 0
    try:
        for k in range(spec.steps):
            chunk = X[k * spec.step : (k + 1) * spec.step]
            t0 = clock()
            update(chunk)
            t1 = clock()
            labels = query(chunk)
            t2 = clock()
            res.update[k] = t1 - t0
            res.query[k] = t2 - t1
            res.attempted += 1 + len(chunk)
            res.failed += oracle.check_answers(stepper.model.snapshot(), chunk, labels)
            res.labels.append(labels)
            if fixed is not None and (k + 1) % spec.checkpoint_every == 0:
                j = (k + 1) // spec.checkpoint_every - 1
                res.save[j], res.load[j], size, mismatches = checkpoint(
                    stepper.model, path, fixed, CHECKPOINT_REPEATS
                )
                res.bytes = max(res.bytes, size)
                res.attempted += 1
                res.failed += int(mismatches > 0)
            res.rss_mb = max(res.rss_mb, rss_mb())
    except Exception:  # a crashed pass fails every operation it had left
        traceback.print_exc(file=sys.stderr)
        left = (spec.steps - k) * (1 + spec.step)
        res.attempted += left
        res.failed += left
    finally:
        if os.path.exists(path):
            os.remove(path)
    model = stepper.model
    res.final = {
        "candidates": model.filter_stats.candidates,
        "distance_computations": model.filter_stats.distance_computations,
        "active_cells": model.n_active_cells,
        "inactive_cells": model.n_inactive_cells,
        "state_bytes": model.memory_footprint()["total"],
        "outlier_label": model.outlier_label,
    }
    return res


def purity(labels: np.ndarray, truth: np.ndarray, outlier: int) -> float:
    """Share of clustered points whose cluster's majority class they share."""
    keep = labels != outlier
    if not keep.any():
        return 0.0
    pairs = np.stack([labels[keep], truth[keep]], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    majority = {}
    for (cluster, _), count in zip(uniq, counts):
        majority[cluster] = max(majority.get(cluster, 0), count)
    return sum(majority.values()) / int(keep.sum())


def reference_quality(spec, workdir):
    """Mean purity and state bytes over the fixed reference streams."""
    purities, sizes, failed, attempted = [], [], 0, 0
    for seed in REFERENCE_SEEDS:
        X, y = spec.make(seed, spec.points)
        res = run_pass(spec, X, workdir)
        labels = np.concatenate(res.labels)
        purities.append(purity(labels, y[: labels.shape[0]], res.final["outlier_label"]))
        sizes.append(res.final["state_bytes"])
        failed += res.failed
        attempted += res.attempted
    return float(np.mean(purities)), float(np.mean(sizes)), attempted, failed


def best_of(samples: np.ndarray) -> np.ndarray:
    """Per-position fastest pass of a ``(passes, positions)`` array."""
    return np.nanmin(samples, axis=0)


def run(name: str, seed: int, seconds: int, trace: bool, workdir: str):
    """Run one in-process workload; returns ``(metrics, attempted, failed)``."""
    spec = SPECS[name]
    X, _ = spec.make(seed, spec.points)
    fixed = X[:: max(1, spec.points // 512)][:512]
    passes = passes_for(spec, seconds)
    if trace:
        return run_traced(spec, X, fixed, passes, workdir, seed)

    results = run_passes(spec, X, workdir, fixed, passes)
    setup_s = float(np.median(best_of(np.array([r.setup for r in results]))))
    pur, state_bytes, ref_attempted, ref_failed = reference_quality(spec, workdir)
    update = best_of(np.stack([r.update for r in results]))
    query = best_of(np.stack([r.query for r in results]))
    fresh = best_of(np.stack([r.update + r.query for r in results]))
    save = best_of(np.stack([r.save for r in results]))
    load = best_of(np.stack([r.load for r in results]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ingest_pts_per_s": (spec.points / float(np.sum(update)), "1/s"),
        "update_p50_ms": (float(np.median(update)) * 1e3, "ms"),
        "query_p50_ms": (float(np.median(query)) * 1e3, "ms"),
        "freshness_p50_ms": (float(np.median(fresh)) * 1e3, "ms"),
        "checkpoint_ms": (float(np.median(save)) * 1e3, "ms"),
        "restore_ms": (float(np.median(load)) * 1e3, "ms"),
        "purity": (pur, "ratio"),
        "state_bytes": (state_bytes, "B"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MiB"),
    }
    attempted = sum(r.attempted for r in results) + ref_attempted
    failed = sum(r.failed for r in results) + ref_failed
    return metrics, attempted, failed


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where the engine looks them up."""
    import repro.core.batch as batch
    import repro.core.cellstore as cellstore
    from repro.api.snapshot import ClusterSnapshot, SnapshotPublisher
    from repro.core.adaptive_tau import TauOptimizer
    from repro.core.dptree import DPTree
    from repro.core.evolution import EvolutionTracker

    def pairs(queries, seeds):
        return float(np.shape(queries)[0] * np.shape(seeds)[0])

    for module in (cellstore, batch):
        tracer.patch(module, "pairwise_euclidean", "distance.kernel", pairs)
    tracer.patch(batch, "nearest_over_slots", "cellstore.nearest")
    for method in ("nearest_many", "nearest", "distances_to"):
        tracer.patch(cellstore.CellStore, method, "cellstore.nearest")
    tracer.patch(batch.BatchIngestor, "ingest", "batch.ingest")
    tracer.patch(EDMStream, "learn_one", "edmstream.learn_one")
    tracer.patch(DPTree, "clusters", "dptree.clusters")
    tracer.patch(TauOptimizer, "optimize", "adaptive_tau.optimize")
    tracer.patch(EvolutionTracker, "observe", "evolution.observe")
    tracer.patch(SnapshotPublisher, "publish", "snapshot.publish")
    tracer.patch(ClusterSnapshot, "predict_many", "snapshot.predict")
    tracer.patch(persistence, "save_model", "persistence.save")
    tracer.patch(persistence, "load_model", "persistence.load")


#: Spans whose self time is the assignment scan.
SCAN = ("cellstore.nearest", "distance.kernel")


def run_traced(spec, X, fixed, passes, workdir, seed):
    """Per-layer figures: untraced and traced passes, alternating.

    Untraced passes give the tail percentiles and the baseline for the
    tracing overhead; traced passes give the per-layer spans.
    """
    tracer = Tracer()
    results = run_passes(spec, X, workdir, fixed, passes, tracer)
    plain, traced = results[::2], results[1::2]
    tracer.dump(os.path.join(workdir, f"trace-{spec.name}-{seed}.npz"))

    n = len(traced)
    layers = tracer.summary()
    ingest = tracer.summary(root="step.update")
    total = ingest["step.update"]["ms"]
    self_ms = {name: row["self_ms"] for name, row in ingest.items() if row["calls"]}
    scan = sum(self_ms.pop(name, 0.0) for name in SCAN)
    candidates = sum(r.final["candidates"] for r in traced)
    computed = sum(r.final["distance_computations"] for r in traced)
    raw_update = np.concatenate([r.update for r in plain])
    raw_query = np.concatenate([r.query for r in plain])
    plain_s = float(np.sum(best_of(np.stack([r.update for r in plain]))))
    traced_s = float(np.sum(best_of(np.stack([r.update for r in traced]))))
    persisted = [r.bytes for r in traced]

    def per_pass(name, field):
        return layers.get(name, {}).get(field, 0) / n

    metrics = {
        "distance.kernel_calls": (per_pass("distance.kernel", "calls"), "count"),
        "distance.kernel_ms": (per_pass("distance.kernel", "ms"), "ms"),
        "distance.kernel_pairs": (tracer.units["distance.kernel"] / n, "count"),
        "cellstore.nearest_calls": (per_pass("cellstore.nearest", "calls"), "count"),
        "cellstore.nearest_ms": (per_pass("cellstore.nearest", "ms"), "ms"),
        "batch.ingest_calls": (per_pass("batch.ingest", "calls"), "count"),
        "batch.ingest_ms": (per_pass("batch.ingest", "ms"), "ms"),
        "edmstream.learn_one_ms": (per_pass("edmstream.learn_one", "ms"), "ms"),
        "filters.distance_ratio": (computed / candidates if candidates else 0.0, "ratio"),
        "dptree.clusters_ms": (per_pass("dptree.clusters", "ms"), "ms"),
        "adaptive_tau.optimize_ms": (per_pass("adaptive_tau.optimize", "ms"), "ms"),
        "evolution.observe_ms": (per_pass("evolution.observe", "ms"), "ms"),
        "snapshot.publish_calls": (per_pass("snapshot.publish", "calls"), "count"),
        "snapshot.publish_ms": (per_pass("snapshot.publish", "ms"), "ms"),
        "snapshot.predict_ms": (per_pass("snapshot.predict", "ms"), "ms"),
        "persistence.save_ms": (per_pass("persistence.save", "ms"), "ms"),
        "persistence.load_ms": (per_pass("persistence.load", "ms"), "ms"),
        "persistence.bytes": (float(max(persisted)) if persisted else 0.0, "B"),
        "ingest.scan_self_share": (scan / total, "ratio"),
        "ingest.top_other_self_share": (max(self_ms.values()) / total, "ratio"),
        "update_p99_ms": (float(np.percentile(raw_update, 99)) * 1e3, "ms"),
        "query_p99_ms": (float(np.percentile(raw_query, 99)) * 1e3, "ms"),
        "trace.overhead_pct": ((traced_s / plain_s - 1.0) * 100.0, "%"),
        "state.active_cells": (float(np.mean([r.final["active_cells"] for r in traced])), "count"),
        "state.inactive_cells": (
            float(np.mean([r.final["inactive_cells"] for r in traced])),
            "count",
        ),
    }
    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    return metrics, attempted, failed
