"""Spans around the library's layers, recorded from the benchmark's side.

:class:`Tracer` swaps a layer's public function for a timing wrapper at the
place the caller looks it up (a module attribute such as
``repro.core.batch.pairwise_euclidean``, or a class attribute such as
``CellStore.distances_to``) and puts the original back on exit.  Nothing
under ``src/`` changes.

Every call becomes a span ``(name, start, end, parent)`` kept in flat
in-memory arrays; :meth:`Tracer.summary` folds them into per-layer call
counts, inclusive time and *self* time (inclusive time minus the time of
the span's direct children), and :meth:`Tracer.dump` writes them out once
the run is over.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Record nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------------ #
    def span(self, name: str, fn, units=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``units(*args)`` optionally returns an amount of work per call
        (e.g. distance pairs), summed under ``name``.
        """
        ident = self._name_ids.setdefault(name, len(self._name_ids))
        if ident == len(self.names):
            self.names.append(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, totals = self.start, self.end, self.units

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            if units is not None:
                totals[name] += units(*args)
            stack.append(index)
            began = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = _clock()
                start[index] = began
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, units=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, units))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    def arrays(self):
        """Spans as numpy arrays ``(name_id, parent, start, end)``."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self, root: str = ""):
        """Per-name ``{"calls", "ms", "self_ms"}``.

        With ``root`` given, only spans inside a ``root`` span count, and
        the root itself is included (its self time is the work no wrapped
        layer accounts for).
        """
        name_id, parent, start, end = self.arrays()
        n = name_id.shape[0]
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        own = duration - children
        keep = np.ones(n, dtype=bool)
        if root:
            root_id = self._name_ids.get(root, -1)
            # Spans are appended in call order, so a parent always precedes
            # its children and one forward pass resolves ancestry.
            keep = name_id == root_id
            for i in np.flatnonzero(has_parent):
                keep[i] = keep[i] or keep[parent[i]]
        out = {}
        for ident, name in enumerate(self.names):
            mask = keep & (name_id == ident)
            out[name] = {
                "calls": int(mask.sum()),
                "ms": float(duration[mask].sum() * 1e3),
                "self_ms": float(own[mask].sum() * 1e3),
            }
        return out

    def dump(self, path) -> None:
        """Write the spans to ``path`` (numpy ``.npz``)."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start=start, end=end,
        )
