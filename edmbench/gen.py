"""Seeded input generators with fixed statistics.

The benchmark owns its generators so that changes to ``repro.streams`` can
never silently change a workload.  Both generators keep the *shape* of the
input fixed — cluster count, dimension, spread, noise rate, drift speed —
and let the seed move only values: centre positions, drift phases, and the
draws themselves.  That keeps the cell populations a run builds (and so the
work it does) the same across seeds.

* :func:`gaussian_mixture` — equal-weight isotropic Gaussian clusters in a
  box plus uniform noise (the ``hd-batch`` input).
* :func:`drifting_rbf` — Gaussian kernels sliding back and forth along
  separate lanes of a 2-d box, plus uniform noise (the ``drift-seq`` and
  ``serve-open`` input).  Kernels never share a lane, so no seed can make
  two of them overlap and merge.

Every generator returns ``(points, labels)``: a C-contiguous float64 matrix
and int64 ground-truth labels, ``-1`` for noise.  Arrival times are implicit:
point ``i`` arrives at ``i / rate`` stream seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1


@dataclass(frozen=True)
class MixtureShape:
    """Fixed statistics of a Gaussian-mixture stream."""

    n_clusters: int = 20
    dim: int = 34
    std: float = 1.0
    box: float = 650.0
    noise: float = 0.05


@dataclass(frozen=True)
class DriftShape:
    """Fixed statistics of a drifting-RBF stream (2-d, one lane per kernel)."""

    n_kernels: int = 5
    std: float = 0.35
    lane: float = 2.0
    length: float = 10.0
    speed: float = 0.04
    rate: float = 1000.0
    noise: float = 0.02


HD_SHAPE = MixtureShape()
DRIFT_SHAPE = DriftShape()


def gaussian_mixture(seed: int, n: int, shape: MixtureShape = HD_SHAPE):
    """``n`` points of an equal-weight Gaussian mixture with uniform noise.

    Centres are uniform in ``[0, box]^dim``; at ``dim = 34`` and ``box =
    650`` any two centres are hundreds of standard deviations apart, so the
    seed never changes how many clusters the stream holds.
    """
    rng = np.random.default_rng([seed, 1])
    centres = rng.uniform(0.0, shape.box, size=(shape.n_clusters, shape.dim))
    labels = rng.integers(0, shape.n_clusters, size=n)
    points = rng.standard_normal((n, shape.dim))
    points *= shape.std
    points += centres[labels]
    noise = rng.random(n) < shape.noise
    points[noise] = rng.uniform(0.0, shape.box, size=(int(noise.sum()), shape.dim))
    labels[noise] = NOISE
    return np.ascontiguousarray(points), labels.astype(np.int64)


def drifting_rbf(seed: int, n: int, shape: DriftShape = DRIFT_SHAPE):
    """``n`` points of a 2-d drifting-RBF stream.

    Kernel ``k`` lives in the horizontal lane ``[k * lane, (k + 1) * lane]``
    and its centre slides along ``x`` at a fixed ``speed`` (stream units per
    second), reflecting off both ends of the box.  The seed picks each
    kernel's starting position and direction.  Positions are evaluated in
    closed form over the whole stream at once.
    """
    params = np.random.default_rng([seed, 2])
    k = shape.n_kernels
    x0 = params.uniform(0.0, shape.length, size=k)
    direction = np.where(params.random(k) < 0.5, -1.0, 1.0)
    y = (np.arange(k) + 0.5) * shape.lane

    rng = np.random.default_rng([seed, 3])
    t = np.arange(n) / shape.rate
    labels = rng.integers(0, k, size=n)
    period = 2.0 * shape.length
    travel = np.mod(x0[labels] + direction[labels] * shape.speed * t, period)
    cx = np.where(travel <= shape.length, travel, period - travel)
    points = rng.standard_normal((n, 2)) * shape.std
    points[:, 0] += cx
    points[:, 1] += y[labels]
    noise = rng.random(n) < shape.noise
    points[noise, 0] = rng.uniform(0.0, shape.length, size=int(noise.sum()))
    points[noise, 1] = rng.uniform(0.0, k * shape.lane, size=int(noise.sum()))
    labels[noise] = NOISE
    return np.ascontiguousarray(points), labels.astype(np.int64)
