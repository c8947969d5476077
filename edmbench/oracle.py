"""Independent query oracle: recompute ``predict_many`` answers in plain numpy.

The oracle shares no code with ``repro.distance.metrics.pairwise_euclidean``:
it expands ``|q - s|^2 = |q|^2 + |s|^2 - 2 q.s`` with one matrix product,
where the library subtracts first.  The two therefore differ in the last
bits, so the oracle forgives exactly two kinds of disagreement:

* **distance ties** — when several seeds are nearest within ``rtol``, any of
  their labels is accepted;
* **coverage knife-edges** — when the nearest distance is within ``rtol``
  of the coverage radius, both the cluster label and the outlier label are
  accepted.

Everything else must match the snapshot's public ``seeds``, ``labels``,
``coverage`` and ``outlier_label`` exactly.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance on squared distances (about 4500 float64 ulps).
RTOL = 1e-12


def check_answers(snapshot, queries: np.ndarray, answers: np.ndarray) -> int:
    """Number of answers the snapshot's own state cannot justify (0 = all ok)."""
    queries = np.asarray(queries, dtype=np.float64)
    answers = np.asarray(answers)
    outlier = snapshot.outlier_label
    seeds = snapshot.seeds
    if seeds is None or seeds.shape[0] == 0:
        return int(np.count_nonzero(answers != outlier))
    seeds = np.asarray(seeds, dtype=np.float64)
    qq = np.square(queries).sum(axis=1)
    ss = np.square(seeds).sum(axis=1)
    sq = np.maximum(qq[:, None] + ss[None, :] - 2.0 * (queries @ seeds.T), 0.0)
    # The expansion loses about eps * |x|^2 absolutely, so ties and edges
    # are judged in squared distance with a tolerance scaled to the
    # operands' magnitude.
    tol = RTOL * (qq.max() + ss.max())
    best = sq.min(axis=1)
    cov2 = np.square(
        np.broadcast_to(np.asarray(snapshot.coverage, dtype=np.float64), ss.shape)
    )
    labels = np.asarray(snapshot.labels)

    near = sq <= (best + tol)[:, None]
    nearest = sq.argmin(axis=1)
    expected = np.where(best <= cov2[nearest], labels[nearest], outlier)
    clear = (near.sum(axis=1) == 1) & (np.abs(best - cov2[nearest]) > tol)
    bad = int(np.count_nonzero(answers[clear] != expected[clear]))
    for row in np.flatnonzero(~clear):
        allowed = set()
        for j in np.flatnonzero(near[row]):
            if sq[row, j] <= cov2[j] + tol:
                allowed.add(int(labels[j]))
            if sq[row, j] >= cov2[j] - tol:
                allowed.add(outlier)
        bad += int(answers[row]) not in allowed
    return bad
