#!/usr/bin/env python3
"""Saving and restoring a running EDMStream model.

A stream clusterer deployed in production (the paper's news recommendation
use case runs for weeks) must survive restarts without replaying the whole
stream.  This demo:

1. clusters the first half of a two-cluster stream,
2. saves the model to an atomic ``.npz`` array checkpoint,
3. loads it back into a fresh process-like state, and
4. continues clustering the second half with the restored model,

verifying along the way that the restored model predicts identically and
keeps learning seamlessly.

Run with::

    python examples/model_persistence.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import EDMStream
from repro.core.persistence import load_model, save_model
from repro.harness import format_table
from repro.streams import stream_from_arrays


def make_stream(n=6000, seed=13):
    """Two Gaussian blobs, shuffled, as a 1,000 pt/s stream."""
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), 0.4, size=(n // 2, 2))
    b = rng.normal((7.0, 7.0), 0.4, size=(n // 2, 2))
    values = np.vstack([a, b])
    labels = np.asarray([0] * (n // 2) + [1] * (n // 2))
    order = rng.permutation(n)
    return stream_from_arrays(values[order], labels[order], rate=1000.0, name="two-blobs")


def main() -> None:
    stream = make_stream()
    half = len(stream) // 2

    model = EDMStream(radius=0.5, beta=0.0021, stream_rate=stream.rate)
    for point in stream.prefix(half):
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)

    snapshot_path = Path(tempfile.gettempdir()) / "edmstream_demo_checkpoint.npz"
    save_model(model, snapshot_path)
    print(f"saved model after {model.n_points} points to {snapshot_path} "
          f"({snapshot_path.stat().st_size} bytes)")

    restored = load_model(snapshot_path)
    queries = [(0.0, 0.0), (7.0, 7.0), (3.5, 3.5)]
    # Serve both models through their published ClusterSnapshots: one batch
    # query each, and the restored model must answer identically.
    original_labels = model.request_clustering().predict_many(queries)
    restored_labels = restored.request_clustering().predict_many(queries)
    print("\npredictions before vs after the restore (snapshot-served)")
    print(
        format_table(
            [
                {
                    "query": str(q),
                    "original": int(original_labels[i]),
                    "restored": int(restored_labels[i]),
                }
                for i, q in enumerate(queries)
            ]
        )
    )

    for point in stream[half:]:
        restored.learn_one(point.values, timestamp=point.timestamp, label=point.label)

    print("\nstate after continuing on the restored model")
    print(
        format_table(
            [
                {
                    "points": restored.n_points,
                    "clusters": restored.n_clusters,
                    "active cells": restored.n_active_cells,
                    "inactive cells": restored.n_inactive_cells,
                    "tau": round(restored.tau, 3) if restored.tau else None,
                }
            ]
        )
    )
    print("\nThe restored model carries on exactly where the original stopped —")
    print("no stream replay, no re-initialisation, same clustering.")


if __name__ == "__main__":
    main()
