"""The Dependency Tree (DP-Tree) over cluster-cells (Section 2.2).

Every active cluster-cell depends on exactly one other active cell — its
nearest higher-density cell — except for the absolute density peak, which is
the tree root.  A *strongly dependent* link has dependent distance δ ≤ τ;
the clusters are the Maximal Strongly Dependent SubTrees (MSDSubTrees,
Definition 2), i.e. the connected components obtained after cutting every
weak link.

This module stores only the tree structure (parent/children pointers keyed
by cell id); density maintenance lives in :class:`~repro.core.cell.ClusterCell`
and dependency *selection* lives in the EDMStream driver.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.core.cell import ClusterCell


class DPTree:
    """Dependency tree over active cluster-cells.

    The tree may transiently be a forest (several cells with no dependency)
    while densities shift; cluster extraction treats every dependency-less
    cell as a subtree root, so the structure is always well defined.
    """

    def __init__(self) -> None:
        self._cells: Dict[int, ClusterCell] = {}
        self._children: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self._cells

    def __iter__(self) -> Iterator[ClusterCell]:
        return iter(self._cells.values())

    def cells(self) -> Iterable[ClusterCell]:
        """Iterate over the active cells."""
        return self._cells.values()

    def cell_ids(self) -> Iterable[int]:
        """Iterate over the active cell ids."""
        return self._cells.keys()

    def get(self, cell_id: int) -> ClusterCell:
        """Return the cell with the given id; raises ``KeyError`` if absent."""
        return self._cells[cell_id]

    def children_of(self, cell_id: int) -> Set[int]:
        """Ids of the cells that currently depend on ``cell_id``."""
        return set(self._children.get(cell_id, ()))

    # ------------------------------------------------------------------ #
    # structural updates
    # ------------------------------------------------------------------ #
    def insert(self, cell: ClusterCell) -> None:
        """Add an active cell to the tree (initially with no dependency link)."""
        if cell.cell_id in self._cells:
            raise KeyError(f"cell {cell.cell_id} already in DP-Tree")
        self._cells[cell.cell_id] = cell
        self._children.setdefault(cell.cell_id, set())
        if cell.dependency is not None:
            if cell.dependency not in self._cells:
                # Dangling dependency (e.g. the parent was deactivated while
                # this cell sat in the reservoir): treat the cell as a root
                # until the driver recomputes its dependency.
                cell.dependency = None
                cell.delta = float("inf")
            else:
                self._children.setdefault(cell.dependency, set()).add(cell.cell_id)

    def restore(self, cells: Dict[int, ClusterCell]) -> None:
        """Refill an empty tree with ``{cell_id: cell}`` in iteration order.

        The dependency links are taken as they stand in the cells' ``dep``
        column (restored checkpoint state); only the reverse
        parent -> children sets are rebuilt from them.
        """
        if self._cells:
            raise ValueError("restore needs an empty DP-Tree")
        self._cells = dict(cells)
        self._children = {cell_id: set() for cell_id in self._cells}
        for cell_id, cell in self._cells.items():
            parent = cell.dependency
            if parent is not None and parent in self._children:
                self._children[parent].add(cell_id)

    def remove(self, cell_id: int) -> ClusterCell:
        """Remove a cell, detaching it from its parent and orphaning its children.

        Children keep their ``dependency`` field pointing at the removed cell
        only if the caller does not fix it; EDMStream always either removes
        whole subtrees (decay) or immediately recomputes the children's
        dependencies, so the tree never exposes dangling links to cluster
        extraction (``_roots`` treats unknown parents as missing).
        """
        if cell_id not in self._cells:
            raise KeyError(f"cell {cell_id} not in DP-Tree")
        cell = self._cells.pop(cell_id)
        if cell.dependency is not None:
            siblings = self._children.get(cell.dependency)
            if siblings is not None:
                siblings.discard(cell_id)
        for child_id in self._children.pop(cell_id, set()):
            child = self._cells.get(child_id)
            if child is not None and child.dependency == cell_id:
                child.dependency = None
                child.delta = float("inf")
        return cell

    def set_dependency(
        self, cell_id: int, dependency: Optional[int], delta: float
    ) -> None:
        """Point ``cell_id`` at a new dependency with dependent distance ``delta``."""
        cell = self._cells[cell_id]
        if dependency is not None:
            if dependency not in self._cells:
                raise KeyError(f"dependency {dependency} not in DP-Tree")
            if dependency == cell_id:
                raise ValueError(f"cell {cell_id} cannot depend on itself")
        if cell.dependency is not None:
            siblings = self._children.get(cell.dependency)
            if siblings is not None:
                siblings.discard(cell_id)
        cell.dependency = dependency
        cell.delta = delta if dependency is not None else float("inf")
        if dependency is not None:
            self._children.setdefault(dependency, set()).add(cell_id)

    def relink_parent(
        self, cell_id: int, old: Optional[int], new: Optional[int]
    ) -> None:
        """Fix the children sets after a bulk dependency write.

        The batch ingestor updates ``dependency``/``delta`` for many cells at
        once through whole-array writes on the cell arena; this repairs only
        the reverse (parent -> children) pointers for one moved link.
        """
        if old is not None:
            siblings = self._children.get(old)
            if siblings is not None:
                siblings.discard(cell_id)
        if new is not None:
            self._children.setdefault(new, set()).add(cell_id)

    def subtree_ids(self, cell_id: int) -> List[int]:
        """All cell ids in the subtree rooted at ``cell_id`` (inclusive)."""
        if cell_id not in self._cells:
            raise KeyError(f"cell {cell_id} not in DP-Tree")
        result = []
        stack = [cell_id]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self._children.get(current, ()))
        return result

    # ------------------------------------------------------------------ #
    # cluster extraction
    # ------------------------------------------------------------------ #
    def _roots(self) -> List[int]:
        """Cells with no (valid) dependency — the density peaks of their mountains."""
        return [
            cid
            for cid, cell in self._cells.items()
            if cell.dependency is None or cell.dependency not in self._cells
        ]

    def clusters(self, tau: float) -> Dict[int, List[int]]:
        """Extract the MSDSubTrees for threshold ``tau``.

        Returns a mapping from cluster-root cell id to the sorted list of
        member cell ids.  A cell starts its own cluster when it has no
        dependency or its dependent distance exceeds ``tau`` (weak link);
        otherwise it joins its dependency's cluster.  Member lists are sorted
        so the result is a pure function of the tree's edges — the traversal
        order of the children sets (which depends on hash-table history) can
        never leak into the output.
        """
        assignment: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        # Walk from every root downwards so parents are assigned before children.
        for root in self._roots():
            stack = [root]
            while stack:
                cid = stack.pop()
                cell = self._cells[cid]
                parent = cell.dependency
                if (
                    parent is None
                    or parent not in self._cells
                    or cell.delta > tau
                ):
                    cluster_root = cid
                else:
                    cluster_root = assignment[parent]
                assignment[cid] = cluster_root
                members.setdefault(cluster_root, []).append(cid)
                stack.extend(self._children.get(cid, ()))
        for member_ids in members.values():
            member_ids.sort()
        return members

    def cluster_assignment(self, tau: float) -> Dict[int, int]:
        """Mapping cell id -> cluster-root cell id for threshold ``tau``."""
        assignment: Dict[int, int] = {}
        for root, member_ids in self.clusters(tau).items():
            for cid in member_ids:
                assignment[cid] = root
        return assignment

    def num_clusters(self, tau: float) -> int:
        """Number of MSDSubTrees for threshold ``tau``."""
        return len(self.clusters(tau))

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Length of the longest dependency chain (0 for an empty tree)."""
        depths: Dict[int, int] = {}

        def _depth(cid: int) -> int:
            if cid in depths:
                return depths[cid]
            cell = self._cells[cid]
            parent = cell.dependency
            if parent is None or parent not in self._cells:
                depths[cid] = 1
            else:
                depths[cid] = 1 + _depth(parent)
            return depths[cid]

        best = 0
        for cid in self._cells:
            best = max(best, _depth(cid))
        return best

    def deltas(self) -> List[float]:
        """Dependent distances of all cells that have a dependency."""
        return [
            cell.delta
            for cell in self._cells.values()
            if cell.dependency is not None and cell.delta != float("inf")
        ]

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on violation.

        Used by tests and property-based checks:

        * parent/child pointers are mutually consistent,
        * no cell depends on itself,
        * the dependency relation is acyclic.
        """
        for cid, cell in self._cells.items():
            assert cell.dependency != cid, f"cell {cid} depends on itself"
            if cell.dependency is not None and cell.dependency in self._cells:
                assert cid in self._children.get(cell.dependency, set()), (
                    f"cell {cid} missing from children of {cell.dependency}"
                )
        for parent, kids in self._children.items():
            for kid in kids:
                assert kid in self._cells, f"child {kid} of {parent} not in tree"
                assert self._cells[kid].dependency == parent, (
                    f"child {kid} does not point back at {parent}"
                )
        # Acyclicity: follow parent pointers from every node.
        for cid in self._cells:
            seen = set()
            current: Optional[int] = cid
            while current is not None and current in self._cells:
                assert current not in seen, f"dependency cycle through cell {current}"
                seen.add(current)
                current = self._cells[current].dependency
