"""Structure-of-arrays backing store for cluster-cells.

:class:`CellArrays` is the canonical, array-native home of every
cluster-cell a model owns.  Each cell occupies one *slot*: a row shared by
a set of contiguous parallel numpy columns (seed matrix, densities,
timestamps, dependency ids and distances, absorption counters).  Slots are
recycled through a free-list, so steady-state ingestion — cells created,
deactivated, reactivated and deleted — performs no per-point allocation
beyond the occasional capacity doubling.

The design splits responsibilities three ways:

* **CellArrays (this module)** owns the storage: slot allocation, the
  column arrays, and the :class:`~repro.core.cell.ClusterCell` views that
  give each slot an object-shaped API.
* **CellStore** (:mod:`repro.core.cellstore`) is a *population view* over
  one ``CellArrays``: it maintains a dense array of slots (the active or
  the inactive population) and answers vectorised bulk queries against
  that subset.  Populations share the backbone, so moving a cell between
  them never copies cell state.
* **ClusterCell** (:mod:`repro.core.cell`) is a thin per-slot view whose
  attributes read and write the columns in place.

The storage-layout contract (column dtypes, invariants, free-list
semantics) is documented in ``docs/ARCHITECTURE.md``; the serving tier
builds on it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

__all__ = ["CellArrays", "FREE", "DETACHED", "MEMBER"]

#: Slot status codes (``CellArrays.status`` column).
FREE = 0
#: The slot belongs to a cell not (yet) tracked by any population view —
#: either a standalone cell in the detached arena or a model cell between
#: population moves.
DETACHED = 1
#: The slot belongs to a cell tracked by at least one population view.
MEMBER = 2

_INITIAL_CAPACITY = 64

#: Scalar columns grown in lock-step; name -> (dtype, fill value).
_SCALAR_COLUMNS = (
    ("density", np.float64, 0.0),
    ("created_at", np.float64, 0.0),
    ("last_update", np.float64, 0.0),
    ("last_absorb", np.float64, 0.0),
    ("delta", np.float64, np.inf),
    ("dep", np.int64, -1),
    ("points_absorbed", np.int64, 0),
    ("cell_ids", np.int64, -1),
    ("status", np.int8, FREE),
)


class CellArrays:
    """Canonical SoA storage for the cluster-cells of one model.

    Parameters
    ----------
    numeric:
        Whether seeds are numeric vectors.  Numeric arenas keep the seeds
        in a contiguous ``(capacity, dim)`` matrix (plus squared norms);
        non-numeric arenas (token sets under Jaccard) keep seed objects in
        a side list only.
    dtype:
        Seed-matrix dtype, ``float64`` (default, exact equivalence with the
        scalar paths) or ``float32`` (half the memory traffic and a faster
        distance kernel, at ~1e-7 relative distance error).  All scalar
        columns stay float64 regardless, so densities and timestamps never
        lose precision.
    capacity:
        Initial number of slots; grows by doubling.
    """

    def __init__(
        self,
        numeric: bool = True,
        dtype: Any = np.float64,
        capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        self.numeric = numeric
        self.seed_dtype = np.dtype(dtype)
        if self.seed_dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"seed dtype must be float32 or float64, got {dtype!r}")
        self.capacity = max(1, int(capacity))
        self.dim: Optional[int] = None
        #: Contiguous ``(capacity, dim)`` seed matrix (numeric arenas only);
        #: allocated lazily when the first seed fixes the dimension.
        self.seeds: Optional[np.ndarray] = None
        #: Squared seed norms, used by the norm-window pruned nearest query.
        self.seed_norm2 = np.zeros(self.capacity, dtype=np.float64)
        for name, col_dtype, fill in _SCALAR_COLUMNS:
            setattr(self, name, np.full(self.capacity, fill, dtype=col_dtype))
        #: LIFO free-list of recycled slots.
        self._free: List[int] = []
        #: High-water mark: slots >= ``_top`` have never been used.
        self._top = 0
        #: cell id -> slot for every live (non-FREE) slot.
        self._slot_of: Dict[int, int] = {}
        #: cell id -> view object, created lazily and kept stable.
        self._views: Dict[int, Any] = {}
        #: slot -> original seed object (tuple / token set), the exact value
        #: handed to :meth:`create`; the matrix row is its dtype-cast copy.
        self._seed_obj: Dict[int, Any] = {}
        #: slot -> ground-truth label histogram (allocated on first vote).
        self._label_votes: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of live (allocated) cells."""
        return len(self._slot_of)

    def __contains__(self, cell_id: int) -> bool:
        """Whether a cell id currently owns a slot."""
        return cell_id in self._slot_of

    def slot_of(self, cell_id: int) -> int:
        """Slot index of a cell id; raises ``KeyError`` if not allocated."""
        return self._slot_of[cell_id]

    def ids(self) -> Iterator[int]:
        """Iterate over the live cell ids (allocation order not guaranteed)."""
        return iter(self._slot_of)

    @property
    def n_free(self) -> int:
        """Number of slots currently parked on the free-list."""
        return len(self._free)

    @property
    def high_water(self) -> int:
        """Highest slot count ever allocated (capacity actually touched)."""
        return self._top

    def nbytes(self) -> int:
        """Total bytes held by the column arrays (the seed side list excluded)."""
        total = self.seed_norm2.nbytes
        if self.seeds is not None:
            total += self.seeds.nbytes
        for name, _, _ in _SCALAR_COLUMNS:
            total += getattr(self, name).nbytes
        return total

    # ------------------------------------------------------------------ #
    # slot allocation
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        if self.seeds is not None:
            seeds = np.zeros((new_capacity, self.seeds.shape[1]), dtype=self.seed_dtype)
            seeds[: self.capacity] = self.seeds
            self.seeds = seeds
        norm2 = np.zeros(new_capacity, dtype=np.float64)
        norm2[: self.capacity] = self.seed_norm2
        self.seed_norm2 = norm2
        for name, col_dtype, fill in _SCALAR_COLUMNS:
            grown = np.full(new_capacity, fill, dtype=col_dtype)
            grown[: self.capacity] = getattr(self, name)
            setattr(self, name, grown)
        self.capacity = new_capacity

    def _set_seed(self, slot: int, seed: Any) -> None:
        self._seed_obj[slot] = seed
        if not self.numeric:
            return
        row = np.asarray(seed, dtype=self.seed_dtype)
        if self.dim is None:
            self.dim = int(row.shape[0])
        elif row.shape[0] != self.dim:
            raise ValueError(
                f"seed dimension {row.shape[0]} does not match arena dimension {self.dim}"
            )
        if self.seeds is None or self.seeds.shape[1] != self.dim:
            self.seeds = np.zeros((self.capacity, self.dim), dtype=self.seed_dtype)
        self.seeds[slot] = row
        self.seed_norm2[slot] = float(np.einsum("i,i->", row, row, dtype=np.float64))

    def allocate(
        self,
        cell_id: int,
        seed: Any,
        density: float = 1.0,
        created_at: float = 0.0,
        last_update: float = 0.0,
        last_absorb: float = 0.0,
        dependency: Optional[int] = None,
        delta: float = np.inf,
        points_absorbed: int = 1,
    ) -> int:
        """Claim a slot for ``cell_id`` (recycling the free-list) and fill it."""
        if cell_id in self._slot_of:
            raise KeyError(f"cell {cell_id} already allocated")
        if self._free:
            slot = self._free.pop()
        else:
            if self._top >= self.capacity:
                self._grow()
            slot = self._top
            self._top += 1
        try:
            self._set_seed(slot, seed)
        except ValueError:
            self._free.append(slot)
            raise
        self._slot_of[cell_id] = slot
        self.density[slot] = density
        self.created_at[slot] = created_at
        self.last_update[slot] = last_update
        self.last_absorb[slot] = last_absorb
        self.delta[slot] = delta
        self.dep[slot] = -1 if dependency is None else dependency
        self.points_absorbed[slot] = points_absorbed
        self.cell_ids[slot] = cell_id
        self.status[slot] = DETACHED
        return slot

    def release(self, cell_id: int) -> None:
        """Return a cell's slot to the free-list and drop its side state.

        The caller is responsible for first removing the cell from every
        population view (and the DP-Tree / reservoir); releasing a slot
        still referenced by a view would let the slot be recycled under it.
        """
        slot = self._slot_of.pop(cell_id)
        self.status[slot] = FREE
        self.cell_ids[slot] = -1
        self.dep[slot] = -1
        self.delta[slot] = np.inf
        self._seed_obj.pop(slot, None)
        self._label_votes.pop(slot, None)
        view = self._views.pop(cell_id, None)
        if view is not None:
            view._arrays = None
            view._slot = -1
        self._free.append(slot)

    # ------------------------------------------------------------------ #
    # views and adoption
    # ------------------------------------------------------------------ #
    def create(self, seed: Any, **fields: Any) -> Any:
        """Allocate a slot and return its :class:`ClusterCell` view."""
        from repro.core.cell import ClusterCell

        return ClusterCell(seed=seed, _arena=self, **fields)

    def view(self, cell_id: int) -> Any:
        """The stable :class:`ClusterCell` view for a live cell id."""
        cell = self._views.get(cell_id)
        if cell is None:
            from repro.core.cell import ClusterCell

            cell = ClusterCell.__new__(ClusterCell)
            cell._arrays = self
            cell._slot = self._slot_of[cell_id]
            self._views[cell_id] = cell
        return cell

    def views(self, cell_ids: Iterable[int]) -> Dict[int, Any]:
        """``{cell_id: view}`` for many live cells at once (see :meth:`view`)."""
        from repro.core.cell import ClusterCell

        new, known, slot_of = ClusterCell.__new__, self._views, self._slot_of
        views = {}
        for cell_id in cell_ids:
            cell = known.get(cell_id)
            if cell is None:
                cell = new(ClusterCell)
                cell._arrays = self
                cell._slot = slot_of[cell_id]
                known[cell_id] = cell
            views[cell_id] = cell
        return views

    def register_view(self, cell_id: int, view: Any) -> None:
        """Record ``view`` as the canonical view object for ``cell_id``."""
        self._views[cell_id] = view

    def adopt(self, cell: Any) -> int:
        """Move a cell's state from another arena into this one.

        The cell's view object is repointed at the new slot (object identity
        is preserved — ``store.get(cell.cell_id) is cell`` keeps holding),
        and its slot in the source arena is released.  Returns the new slot.
        """
        source = cell._arrays
        if source is self:
            return cell._slot
        cell_id = cell.cell_id
        slot = self.allocate(
            cell_id,
            cell.seed,
            density=cell.density,
            created_at=cell.created_at,
            last_update=cell.last_update,
            last_absorb=cell.last_absorb,
            dependency=cell.dependency,
            delta=cell.delta,
            points_absorbed=cell.points_absorbed,
        )
        votes = source._label_votes.get(cell._slot)
        if votes:
            self._label_votes[slot] = votes
        if source is not None:
            source._views.pop(cell_id, None)
            source.release(cell_id)
        cell._arrays = self
        cell._slot = slot
        self._views[cell_id] = cell
        return slot

    def label_votes_of(self, slot: int) -> Dict[int, int]:
        """The (lazily created) label histogram of a slot."""
        votes = self._label_votes.get(slot)
        if votes is None:
            votes = {}
            self._label_votes[slot] = votes
        return votes

    def seed_of(self, slot: int) -> Any:
        """The original seed object stored at a slot."""
        return self._seed_obj[slot]

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def dump(self) -> Dict[str, np.ndarray]:
        """The arena's state as plain arrays (see :meth:`restore`).

        Every column is written verbatim up to the high-water mark, free
        slots included, together with the free-list and the capacity: slot
        numbers, store positions and the capacity-based memory accounting
        all carry over unchanged.  Seed objects are not pickled: a float64
        arena's seed tuples are its matrix rows; a float32 arena also writes
        the float64 seeds (``seed_obj``); a token-set arena writes its seeds
        as a flat token array with per-slot offsets.
        """
        top = self._top
        state: Dict[str, np.ndarray] = {
            "capacity": np.asarray(self.capacity, dtype=np.int64),
            "free": np.asarray(self._free, dtype=np.int64),
            "seed_norm2": self.seed_norm2[:top].copy(),
        }
        for name, _, _ in _SCALAR_COLUMNS:
            state[name] = getattr(self, name)[:top].copy()
        live = np.flatnonzero(self.status[:top] != FREE)
        if self.numeric:
            if self.seeds is not None:
                state["seeds"] = self.seeds[:top].copy()
                if self.seed_dtype != np.float64:
                    seed_obj = np.zeros((top, self.dim), dtype=np.float64)
                    for slot in live.tolist():
                        seed_obj[slot] = self._seed_obj[slot]
                    state["seed_obj"] = seed_obj
        else:
            state.update(_dump_token_seeds([self._seed_obj[s] for s in live.tolist()]))
        vote_rows = [
            (slot, label, count)
            for slot, votes in self._label_votes.items()
            for label, count in votes.items()
        ]
        votes = np.asarray(vote_rows, dtype=np.int64).reshape(-1, 3)
        state["vote_slot"], state["vote_label"], state["vote_count"] = votes.T
        return state

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        """Fill this (empty) arena from :meth:`dump` output, in bulk.

        The arena keeps its identity — population views and the bounded
        tier hold references to it — and only its columns and side tables
        are replaced.
        """
        if self._top:
            raise ValueError("restore needs an empty arena")
        capacity = int(state["capacity"])
        top = int(state["status"].shape[0])
        self.capacity = capacity
        self._top = top
        self.seed_norm2 = np.zeros(capacity, dtype=np.float64)
        self.seed_norm2[:top] = state["seed_norm2"]
        for name, col_dtype, fill in _SCALAR_COLUMNS:
            column = np.full(capacity, fill, dtype=col_dtype)
            column[:top] = state[name]
            setattr(self, name, column)
        self._free = state["free"].tolist()
        live = np.flatnonzero(self.status[:top] != FREE).tolist()
        self._slot_of = dict(zip(self.cell_ids[live].tolist(), live))
        if self.numeric:
            seeds = state.get("seeds")
            if seeds is not None:
                self.dim = int(seeds.shape[1])
                self.seeds = np.zeros((capacity, self.dim), dtype=self.seed_dtype)
                self.seeds[:top] = seeds
                rows = state.get("seed_obj", seeds)[live]
                self._seed_obj = dict(zip(live, map(tuple, rows.tolist())))
        else:
            self._seed_obj = dict(zip(live, _restore_token_seeds(state)))
        self._label_votes = {}
        for slot, label, count in zip(
            state["vote_slot"].tolist(),
            state["vote_label"].tolist(),
            state["vote_count"].tolist(),
        ):
            self._label_votes.setdefault(slot, {})[label] = count

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check slot-accounting invariants (tests only)."""
        free = set(self._free)
        assert len(free) == len(self._free), "free-list contains duplicates"
        for slot in free:
            assert self.status[slot] == FREE, f"free slot {slot} not marked FREE"
            assert slot < self._top, "free-list references never-allocated slot"
        for cell_id, slot in self._slot_of.items():
            assert slot not in free, f"live cell {cell_id} sits on a free slot"
            assert self.status[slot] != FREE, f"live cell {cell_id} on FREE slot"
            assert int(self.cell_ids[slot]) == cell_id
        assert self._top <= self.capacity
        assert len(self._slot_of) + len(free) == self._top


def _dump_token_seeds(seeds: List[Any]) -> Dict[str, np.ndarray]:
    """Token-set seeds as flat string arrays (no pickling needed to load).

    ``token_offsets[i]:token_offsets[i + 1]`` slices seed ``i``'s sorted
    tokens out of ``tokens``; ``seed_text[i]`` is its text, and
    ``seed_is_point[i]`` says whether it was a ``TokenSetPoint`` (plain
    frozensets restore as frozensets).
    """
    from repro.distance.text import TokenSetPoint

    tokens: List[str] = []
    offsets = [0]
    texts: List[str] = []
    is_point: List[bool] = []
    for seed in seeds:
        point = isinstance(seed, TokenSetPoint)
        if not point and not isinstance(seed, (frozenset, set)):
            raise TypeError(f"cannot checkpoint seed of type {type(seed).__name__}")
        tokens.extend(sorted(seed.tokens if point else seed))
        offsets.append(len(tokens))
        texts.append(seed.text if point and seed.text is not None else "")
        is_point.append(point)
    return {
        "tokens": np.asarray(tokens, dtype=str),
        "token_offsets": np.asarray(offsets, dtype=np.int64),
        "seed_text": np.asarray(texts, dtype=str),
        "seed_is_point": np.asarray(is_point, dtype=bool),
    }


def _restore_token_seeds(state: Dict[str, np.ndarray]) -> List[Any]:
    """Inverse of :func:`_dump_token_seeds`."""
    from repro.distance.text import TokenSetPoint

    tokens = state["tokens"].tolist()
    offsets = state["token_offsets"].tolist()
    seeds: List[Any] = []
    for i, (text, point) in enumerate(
        zip(state["seed_text"].tolist(), state["seed_is_point"].tolist())
    ):
        members = frozenset(tokens[offsets[i] : offsets[i + 1]])
        seeds.append(TokenSetPoint(tokens=members, text=text) if point else members)
    return seeds


#: Shared arena backing standalone :class:`ClusterCell` objects — cells
#: constructed directly (e.g. in tests) before a model adopts them
#: into its own arena.  Non-numeric so it accepts seeds of any type or
#: dimension.
_DETACHED_ARENA = CellArrays(numeric=False)


def detached_arena() -> CellArrays:
    """The process-wide arena for standalone cells."""
    return _DETACHED_ARENA
