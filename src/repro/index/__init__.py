"""Nearest-seed index structures.

EDMStream's point-assignment step (Section 4.1, operation 1) needs, for every
arriving point, the nearest cluster-cell seed.  This package provides three
interchangeable indexes:

* :class:`BruteForceIndex` — works with any distance metric (including
  Jaccard over token sets); O(n) per query.
* :class:`GridIndex` — a uniform grid over numeric spaces that restricts the
  candidate set to nearby buckets; falls back to a full scan when the query
  ball is empty.
* :class:`KDTreeIndex` — a dynamic KD-tree with lazy deletion and periodic
  rebuilds; effective at low-to-moderate dimensionality.
"""

from repro.index.base import SeedIndex
from repro.index.brute import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTreeIndex

__all__ = ["SeedIndex", "BruteForceIndex", "GridIndex", "KDTreeIndex"]
