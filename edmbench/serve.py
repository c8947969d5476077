"""Multi-process open-loop workload: ``serve-open``.

One :class:`~repro.serving.ServingCluster` with one query worker.  Both
sides run open loop, on schedules that never wait for the system:

* **ingest** — the ingest process pulls a paced drifting-RBF stream at
  ``INGEST_RATE`` points per second in chunks of ``CHUNK`` and publishes a
  snapshot after every chunk, so snapshot version ``v`` holds exactly the
  first ``CHUNK * v`` points;
* **queries** — this process sends single-point ``predict`` calls through a
  :class:`~repro.serving.MicroBatchFrontend` at ``QUERY_RATE`` per second.
  Each request is timed from its *due* time, and the generator records how
  late it sent each one.

The paced stream is the benchmark's own code running inside the ingest
process: between two chunks it times how long the previous chunk's
``learn_many`` plus publication took, and every ``CHECKPOINT_EVERY`` chunks
it checkpoints the live model, restores it, and compares the two on a fixed
query set.  Those figures reach this process through shared arrays.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import time

import numpy as np

import gen
import inproc
from repro import EDMStream
from repro.serving import MicroBatchFrontend, ServingCluster, WorkerPoolBackend

INGEST_RATE = 8000.0
QUERY_RATE = 4000.0
CHUNK = 256
CHECKPOINT_EVERY = 16
CHECKPOINT_REPEATS = 3
MODEL = {"radius": 0.3, "beta": 0.0021}
MAX_BATCH = 256
MAX_DELAY_S = 0.002
#: The first episode's set-up time is a warm-up and is left out.
SETUP_WARMUP = 1
#: Longest wait for one request or for a fresh cluster to answer.
TIMEOUT_S = 30.0
#: Ingest stream replayed cyclically; long enough to never wrap in a run.
STREAM_POINTS = 2**19

REFERENCE = inproc.Spec(
    name="serve-open",
    make=gen.drifting_rbf,
    config=MODEL,
    step=CHUNK,
    steps=117,
    batched=True,
    checkpoint_every=CHECKPOINT_EVERY,
)

_CTX = mp.get_context("fork")
clock = time.monotonic


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class IngestSide:
    """Model and paced stream factories for one cluster, plus shared results.

    Both factories run inside the forked ingest process; the arrays below
    are shared memory written there and read here.
    """

    MAX_CHUNKS = 4096
    MAX_CHECKPOINTS = 128

    def __init__(self, stream: np.ndarray, fixed: np.ndarray, workdir: str, core: int) -> None:
        self.stream = stream
        self.core = core
        self.fixed = fixed
        self.path = os.path.join(workdir, "serve-open-%d.json")
        # [start time, pid, chunks done, checkpoints done, active, inactive]
        self.info = _CTX.RawArray("d", 6)
        self.update = _CTX.RawArray("d", self.MAX_CHUNKS)
        self.lag = _CTX.RawArray("d", self.MAX_CHUNKS)
        # per checkpoint: save s, load s, bytes, mismatching answers
        self.checkpoints = _CTX.RawArray("d", 4 * self.MAX_CHECKPOINTS)
        self._model = None

    def model_factory(self):
        """Build the model (called in the ingest process)."""
        self._model = EDMStream(**MODEL)
        return self._model

    def stream_factory(self):
        """Yield the stream paced at ``INGEST_RATE`` (runs in the ingest process).

        Pins the ingest process to ``core``, records per-chunk update time
        and publish lag, and checkpoints every ``CHECKPOINT_EVERY`` chunks.
        """
        info, stream = self.info, self.stream
        os.sched_setaffinity(0, {self.core})
        start = clock()
        info[0], info[1] = start, os.getpid()
        chunk = 0
        handed_over = 0.0
        while True:
            now = clock()
            if chunk:
                done = chunk - 1
                if done < self.MAX_CHUNKS:
                    self.update[done] = now - handed_over
                    self.lag[done] = now - (start + (chunk * CHUNK - 1) / INGEST_RATE)
                info[2] = chunk
                if chunk % CHECKPOINT_EVERY == 0:
                    self._checkpoint(chunk // CHECKPOINT_EVERY - 1)
            due = start + ((chunk + 1) * CHUNK - 1) / INGEST_RATE
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            base = (chunk * CHUNK) % stream.shape[0]
            rows = stream[base : base + CHUNK]
            for row in rows[:-1]:
                yield row
            handed_over = clock()
            yield rows[-1]
            chunk += 1

    def _checkpoint(self, index: int) -> None:
        if index >= self.MAX_CHECKPOINTS:
            return
        model = self._model
        save, load, size, mismatches = inproc.checkpoint(
            model, self.path % os.getpid(), self.fixed, CHECKPOINT_REPEATS
        )
        self.checkpoints[4 * index : 4 * index + 4] = [save, load, size, mismatches]
        self.info[3] = index + 1
        self.info[4], self.info[5] = model.n_active_cells, model.n_inactive_cells

    def chunks_done(self) -> int:
        """Chunks the ingest process has learned and published so far."""
        return int(self.info[2])


def start_cluster(side: IngestSide, probe: np.ndarray):
    """Spawn a cluster; return it and the seconds until it answered ``probe``.

    Answered means a worker returned a cluster label for a point of the
    stream, which needs a published snapshot of an initialised model.
    """
    began = clock()
    cluster = ServingCluster(side.model_factory, side.stream_factory, n_workers=1, chunk_size=CHUNK)
    try:
        while True:
            try:
                labels, _, _ = cluster.request(probe)
                if np.any(np.asarray(labels) != -1):
                    return cluster, clock() - began
            except RuntimeError:  # nothing published yet
                pass
            if clock() - began > TIMEOUT_S:
                raise TimeoutError("serving cluster never answered")
            time.sleep(0.002)
    except BaseException:
        cluster.shutdown()
        raise


class VersionedBackend:
    """Worker-pool backend that records each batch's round trip and version.

    This is the benchmark's span at the frontend/worker boundary; the
    snapshot version of each reply gives the freshness of its answers.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.replies = []  # (sent, replied, version, batch size)

    async def predict_many(self, points, stable):
        """Forward one batch to the wrapped backend and record the reply."""
        sent = clock()
        labels, meta = await self.inner.predict_many(points, stable)
        self.replies.append((sent, clock(), meta["version"], len(points)))
        return labels, meta


async def drive(frontend, queries: np.ndarray, rate: float):
    """Send ``queries`` open loop at ``rate``; per-request latency and lateness.

    A request that fails or times out keeps a NaN latency.
    """
    n = queries.shape[0]
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    loop = asyncio.get_running_loop()
    tasks = []

    async def one(i: int, due: float) -> None:
        await frontend.predict(queries[i])
        latency[i] = clock() - due

    start = clock()
    i = 0
    while i < n:
        now = clock()
        while i < n and start + i / rate <= now:
            due = start + i / rate
            late[i] = now - due
            tasks.append(loop.create_task(one(i, due)))
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, start + i / rate - clock()))
    done, pending = await asyncio.wait(tasks, timeout=TIMEOUT_S)
    for task in pending:
        task.cancel()
    for task in done:
        task.exception()  # a failed request keeps a NaN latency
    return latency, late


def episodes_for(seconds: int) -> int:
    """Number of cluster episodes a run makes: a fixed function of ``--seconds``."""
    return max(2, round(seconds * 0.5))


class Episode:
    """Everything one cluster's life produced.

    That is its set-up time, the ingest-side arrays, and the client-side
    record of its measured window.
    """

    def __init__(self, side, setup_s, window_s, points, latency, late, backend, frontend,
                 busy, rss, health) -> None:
        self.setup_s = setup_s
        self.window_s = window_s
        self.points = points
        self.latency = latency
        self.late = late
        self.frontend = frontend.counters
        self.busy = busy  # (ingest CPU s, worker CPU s) over the window
        self.rss = rss
        self.health = health
        self.chunks = min(side.chunks_done(), IngestSide.MAX_CHUNKS)
        self.update = np.frombuffer(side.update, dtype=np.float64)[: self.chunks].copy()
        self.lag = np.frombuffer(side.lag, dtype=np.float64)[: self.chunks].copy()
        n_ck = int(side.info[3])
        self.checkpoints = (
            np.frombuffer(side.checkpoints, dtype=np.float64)[: 4 * n_ck].reshape(n_ck, 4).copy()
        )
        self.cells = (side.info[4], side.info[5])
        sent, replied, version, size = np.asarray(backend.replies).T
        newest_due = side.info[0] + (CHUNK * version - 1) / INGEST_RATE
        self.freshness = np.repeat(replied - newest_due, size.astype(int))
        self.roundtrip = replied - sent
        self.versions_ok = bool(np.all(np.diff(version) >= 0))


def run_episode(stream, fixed, probe, n_queries, workdir, index) -> Episode:
    """Start a fresh cluster, drive one open-loop window, shut it down.

    The ingest process gets core ``index % cores`` to itself; this process
    and the query worker (which inherits its affinity) share the others.
    Alternating the ingest core between episodes lets the fastest-episode
    figures see every core.
    """
    cores = sorted(os.sched_getaffinity(0))
    ingest = cores[index % len(cores)]
    os.sched_setaffinity(0, set(cores) - {ingest} or {ingest})
    side = IngestSide(stream, fixed, workdir, ingest)
    try:
        cluster, setup_s = start_cluster(side, probe)
    except BaseException:
        os.sched_setaffinity(0, cores)
        raise
    try:
        pid = int(side.info[1])
        worker_pid = cluster.ping(0)["pid"]
        cpu0 = cpu_seconds(pid), cpu_seconds(worker_pid)
        chunk0, t0 = side.chunks_done(), clock()
        # Query i asks about the stream point due when it is sent.
        step = INGEST_RATE / QUERY_RATE
        index = (chunk0 * CHUNK + (np.arange(n_queries) * step).astype(int)) % STREAM_POINTS
        backend = VersionedBackend(WorkerPoolBackend(cluster.connections))
        frontend = MicroBatchFrontend(backend, max_batch=MAX_BATCH, max_delay=MAX_DELAY_S)
        latency, late = asyncio.run(drive(frontend, stream[index], QUERY_RATE))
        chunk1, t1 = side.chunks_done(), clock()
        busy = cpu_seconds(pid) - cpu0[0], cpu_seconds(worker_pid) - cpu0[1]
        rss = peak_rss_mb(pid)
        health = cluster.health_check()
    finally:
        cluster.shutdown()
        os.sched_setaffinity(0, cores)
    return Episode(side, setup_s, t1 - t0, (chunk1 - chunk0) * CHUNK, latency, late,
                   backend, frontend, busy, rss, health)


def run(seed: int, seconds: int, trace: bool, workdir: str):
    """Run ``serve-open``; returns ``(metrics, attempted, failed)``.

    The run is a series of episodes, each a fresh cluster on the same
    stream: ingestion is deterministic, so chunk ``c`` and checkpoint ``j``
    do the same work in every episode and their time is the fastest
    episode's (see :mod:`inproc`).  Query latency and freshness pool every
    request of every episode.
    """
    stream, _ = gen.drifting_rbf(seed, STREAM_POINTS)
    fixed = stream[:: STREAM_POINTS // 512][:512]
    probe = stream[:64]
    n_episodes = episodes_for(seconds)
    n_queries = int(QUERY_RATE * seconds / n_episodes)

    attempted = failed = 0
    if not trace:
        pur, state_bytes, attempted, failed = inproc.reference_quality(REFERENCE, workdir)
    episodes = [run_episode(stream, fixed, probe, n_queries, workdir, i) for i in range(n_episodes)]

    latency = np.concatenate([e.latency for e in episodes])
    done = latency[~np.isnan(latency)]
    attempted += latency.shape[0] + 2 * n_episodes  # requests, set-ups, version orders
    failed += latency.shape[0] - done.shape[0]
    failed += sum(not e.versions_ok for e in episodes)
    for e in episodes:
        attempted += e.checkpoints.shape[0]
        failed += int(np.count_nonzero(e.checkpoints[:, 3]))
    chunks = min(e.chunks for e in episodes)
    update = inproc.best_of(np.stack([e.update[:chunks] for e in episodes]))
    n_ck = min(e.checkpoints.shape[0] for e in episodes)
    ck = inproc.best_of(np.stack([e.checkpoints[:n_ck, :2] for e in episodes]))
    freshness = np.concatenate([e.freshness for e in episodes])

    if not trace:
        metrics = {
            "setup_s": (float(np.median([e.setup_s for e in episodes[SETUP_WARMUP:]])), "s"),
            "ingest_pts_per_s": (
                sum(e.points for e in episodes) / sum(e.window_s for e in episodes),
                "1/s",
            ),
            "update_p50_ms": (float(np.median(update)) * 1e3, "ms"),
            "query_p50_ms": (float(np.median(done)) * 1e3, "ms"),
            "freshness_p50_ms": (float(np.median(freshness)) * 1e3, "ms"),
            "checkpoint_ms": (float(np.median(ck[:, 0])) * 1e3, "ms"),
            "restore_ms": (float(np.median(ck[:, 1])) * 1e3, "ms"),
            "purity": (pur, "ratio"),
            "state_bytes": (state_bytes, "B"),
            "peak_rss_mb": (max(e.rss for e in episodes), "MiB"),
        }
        return metrics, attempted, failed

    def total(key):
        return float(sum(e.frontend[key] for e in episodes))

    every_ck = np.concatenate([e.checkpoints for e in episodes])
    publishes = sum((e.health["stats"] or {"publisher": {"publishes": 0}})["publisher"]["publishes"]
                    for e in episodes)
    raw_update = np.concatenate([e.update for e in episodes])
    metrics = {
        "frontend.batches": (total("batches"), "count"),
        "frontend.mean_batch": (total("queries") / max(1.0, total("batches")), "count"),
        "frontend.delay_flush_share": (total("delay_flushes") / max(1.0, total("batches")), "ratio"),
        "worker.busy_s": (sum(e.busy[1] for e in episodes), "s"),
        "worker.rehandshakes": (
            float(sum(e.health["workers"][0].get("rehandshakes", 0) for e in episodes)),
            "count",
        ),
        "worker.roundtrip_p50_ms": (
            float(np.median(np.concatenate([e.roundtrip for e in episodes]))) * 1e3,
            "ms",
        ),
        "publisher.busy_s": (sum(e.busy[0] for e in episodes), "s"),
        "publisher.publishes": (float(publishes), "count"),
        "publisher.lag_p50_ms": (
            float(np.median(np.concatenate([e.lag for e in episodes]))) * 1e3,
            "ms",
        ),
        "client.late_p50_ms": (float(np.median(np.concatenate([e.late for e in episodes]))) * 1e3, "ms"),
        "client.late_p99_ms": (
            float(np.percentile(np.concatenate([e.late for e in episodes]), 99)) * 1e3,
            "ms",
        ),
        "update_p99_ms": (float(np.percentile(raw_update, 99)) * 1e3, "ms"),
        "query_p99_ms": (float(np.percentile(done, 99)) * 1e3, "ms"),
        "persistence.save_ms": (float(every_ck[:, 0].sum()) * 1e3, "ms"),
        "persistence.load_ms": (float(every_ck[:, 1].sum()) * 1e3, "ms"),
        "persistence.bytes": (float(every_ck[:, 2].max()) if every_ck.size else 0.0, "B"),
        "state.active_cells": (float(np.mean([e.cells[0] for e in episodes])), "count"),
        "state.inactive_cells": (float(np.mean([e.cells[1] for e in episodes])), "count"),
    }
    return metrics, attempted, failed
