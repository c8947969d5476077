"""The outlier reservoir (Sections 4.1, 4.3 and 4.4).

Cluster-cells with low timely density are *inactive*: they are not part of
the DP-Tree and do not participate in clustering, but they are kept in the
reservoir because they may absorb new points and become active again.  An
inactive cell that has not absorbed a point for the safe-deletion interval
ΔT_del (Theorem 3) is *outdated* and can be deleted without affecting future
results.  Section 4.4 bounds the reservoir size by ``ΔT_del · v + 1/β``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.cell import ClusterCell
from repro.core.decay import DecayModel


class OutlierReservoir:
    """Container for inactive cluster-cells with outdated-cell recycling."""

    def __init__(
        self,
        decay: DecayModel,
        beta: float,
        stream_rate: float,
        delete_outdated: bool = True,
        deletion_interval: Optional[float] = None,
    ) -> None:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if stream_rate <= 0:
            raise ValueError(f"stream_rate must be positive, got {stream_rate}")
        if deletion_interval is not None and deletion_interval <= 0:
            raise ValueError(
                f"deletion_interval must be positive when given, got {deletion_interval}"
            )
        self._decay = decay
        self._beta = beta
        self._rate = stream_rate
        self._delete_outdated = delete_outdated
        self._deletion_interval = deletion_interval
        self._cells: Dict[int, ClusterCell] = {}
        self.total_deleted = 0

    # ------------------------------------------------------------------ #
    # thresholds derived from the decay model
    # ------------------------------------------------------------------ #
    @property
    def active_threshold(self) -> float:
        """Density above which a cell is active: ``β·v / (1 - a^λ)``."""
        return self._decay.active_threshold(self._beta, self._rate)

    @property
    def deletion_interval(self) -> float:
        """Safe deletion interval ΔT_del (Theorem 3), unless overridden."""
        if self._deletion_interval is not None:
            return self._deletion_interval
        return self._decay.safe_deletion_interval(self._beta, self._rate)

    @property
    def size_upper_bound(self) -> float:
        """Theoretical maximum number of inactive cells, ``ΔT_del·v + 1/β``."""
        return self.deletion_interval * self._rate + 1.0 / self._beta

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self._cells

    def __iter__(self) -> Iterator[ClusterCell]:
        return iter(self._cells.values())

    def cells(self) -> Iterable[ClusterCell]:
        """Iterate over the inactive cells."""
        return self._cells.values()

    def cell_ids(self) -> Iterable[int]:
        """Iterate over the inactive cell ids."""
        return self._cells.keys()

    def get(self, cell_id: int) -> ClusterCell:
        """Return an inactive cell by id; raises ``KeyError`` if absent."""
        return self._cells[cell_id]

    # ------------------------------------------------------------------ #
    # membership updates
    # ------------------------------------------------------------------ #
    def add(self, cell: ClusterCell) -> None:
        """Cache an inactive cell; raises ``KeyError`` if already present."""
        if cell.cell_id in self._cells:
            raise KeyError(f"cell {cell.cell_id} already in outlier reservoir")
        # Dependency information is meaningless outside the DP-Tree.
        cell.dependency = None
        cell.delta = float("inf")
        self._cells[cell.cell_id] = cell

    def restore(self, cells: Dict[int, ClusterCell], total_deleted: int = 0) -> None:
        """Refill an empty reservoir with ``{cell_id: cell}`` in iteration order."""
        if self._cells:
            raise ValueError("restore needs an empty outlier reservoir")
        self._cells = dict(cells)
        self.total_deleted = int(total_deleted)

    def pop(self, cell_id: int) -> ClusterCell:
        """Remove and return a cell (e.g. because it became active)."""
        if cell_id not in self._cells:
            raise KeyError(f"cell {cell_id} not in outlier reservoir")
        return self._cells.pop(cell_id)

    def is_active(self, cell: ClusterCell, now: float) -> bool:
        """Whether a cell's timely density reaches the active threshold."""
        return cell.density_at(now, self._decay) >= self.active_threshold

    def promotable(self, now: float) -> List[ClusterCell]:
        """Inactive cells whose density currently reaches the active threshold."""
        return [cell for cell in self._cells.values() if self.is_active(cell, now)]

    def prune_outdated(self, now: float) -> List[ClusterCell]:
        """Delete and return cells idle for longer than ΔT_del (Section 4.4)."""
        if not self._delete_outdated:
            return []
        horizon = self.deletion_interval
        removed = [
            cell for cell in self._cells.values() if cell.idle_time(now) > horizon
        ]
        for cell in removed:
            del self._cells[cell.cell_id]
        self.total_deleted += len(removed)
        return removed
