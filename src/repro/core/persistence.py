"""Saving and restoring EDMStream model state.

A long-running stream clusterer needs to survive process restarts without
replaying the whole stream.  This module checkpoints everything EDMStream
needs to continue exactly where it left off — the configuration, the cell
arena with its DP-Tree dependencies, both population views, the outlier
reservoir, the learned α, the current τ and, in capped mode, the sketch
tier — as a flat mapping of numpy arrays:

* :func:`model_to_arrays` / :func:`model_from_arrays` — in-memory round trip,
* :func:`save_model` / :func:`load_model` — one atomic ``.npz`` file.

The layout is written verbatim, not compacted: slot numbers, store
positions, free-list order and array capacities all carry over, because
capped-mode eviction breaks ties by store position and the cap accounting
counts capacities.  A restored model therefore continues exactly like one
that never stopped.  Nothing is pickled: token-set seeds are stored as flat
string arrays, and configuration plus scalar clocks travel as a small JSON
header stored as a ``uint8`` array.  Evolution history and performance
counters are intentionally *not* persisted (they describe the past run,
not the state needed to continue clustering).  The format is described in
``docs/ARCHITECTURE.md`` ("Checkpoint format").
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Mapping, Union

import numpy as np

from repro.core.cell import ensure_cell_id_floor
from repro.core.config import EDMStreamConfig
from repro.core.edmstream import EDMStream

#: Format version written into every checkpoint header, checked on load.
#: Version 1 was a per-cell JSON document; it is no longer readable.
FORMAT_VERSION = 2

__all__ = [
    "FORMAT_VERSION",
    "model_to_arrays",
    "model_from_arrays",
    "save_model",
    "load_model",
]


def _prefixed(prefix: str, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {f"{prefix}.{name}": value for name, value in arrays.items()}


def _section(prefix: str, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    start = len(prefix) + 1
    return {
        name[start:]: value for name, value in arrays.items() if name.startswith(prefix + ".")
    }


def _config_dict(config: EDMStreamConfig) -> Dict[str, Any]:
    params = dict(config.__dict__)
    if params["telemetry"] not in (None, False, True):
        # A live Telemetry instance is not state; the restored model gets
        # a fresh one.
        params["telemetry"] = True
    return params


def model_to_arrays(model: EDMStream) -> Dict[str, np.ndarray]:
    """Checkpoint an EDMStream model as a ``dict[str, np.ndarray]``.

    The model is only read, never changed: saving leaves the live model on
    exactly the course it would have taken without the checkpoint.  The
    arrays are copies, safe to keep while the model goes on learning.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "config": _config_dict(model.config),
        "state": {
            "tau": model._tau,
            "alpha": model.tau_optimizer.alpha,
            "now": model._now,
            "start_time": model._start_time,
            "n_points": model._n_points,
            "initialized": model._initialized,
            "last_maintenance": model._last_maintenance,
            "last_snapshot": model._last_snapshot,
            "last_tau_opt": model._last_tau_opt,
            "reservoir_deleted": model.reservoir.total_deleted,
        },
    }
    arrays = {"header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)}
    arrays.update(_prefixed("arena", model._cells.dump()))
    arrays.update(_prefixed("active", model._active.dump()))
    arrays.update(_prefixed("inactive", model._inactive.dump()))
    arrays["tree.order"] = np.fromiter(model.tree.cell_ids(), dtype=np.int64)
    arrays["reservoir.order"] = np.fromiter(model.reservoir.cell_ids(), dtype=np.int64)
    if model._bounded is not None:
        arrays.update(_prefixed("sketch", model._bounded.dump()))
    return arrays


def _read_header(arrays: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    raw = arrays.get("header")
    if raw is None:
        raise ValueError("not an EDMStream checkpoint: no header array")
    header = json.loads(np.asarray(raw, dtype=np.uint8).tobytes().decode("utf-8"))
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {version!r} (expected {FORMAT_VERSION})"
        )
    return header


def model_from_arrays(arrays: Mapping[str, np.ndarray]) -> EDMStream:
    """Rebuild an EDMStream model from :func:`model_to_arrays` output."""
    header = _read_header(arrays)
    model = EDMStream(EDMStreamConfig(**header["config"]))

    arena = model._cells
    arena.restore(_section("arena", arrays))
    model._active.restore(_section("active", arrays))
    model._inactive.restore(_section("inactive", arrays))
    model.tree.restore(arena.views(arrays["tree.order"].tolist()))
    state = header["state"]
    model.reservoir.restore(
        arena.views(arrays["reservoir.order"].tolist()),
        total_deleted=state["reservoir_deleted"],
    )
    if model._bounded is not None:
        model._bounded.restore(_section("sketch", arrays))

    model._tau = state["tau"]
    model.tau_optimizer.alpha = state["alpha"]
    model._now = float(state["now"])
    model._start_time = state["start_time"]
    model._n_points = int(state["n_points"])
    model._initialized = bool(state["initialized"])
    model._last_maintenance = float(state["last_maintenance"])
    model._last_snapshot = float(state["last_snapshot"])
    model._last_tau_opt = float(state["last_tau_opt"])
    if model._tau is not None:
        model.tau_history.append((model._now, model._tau))

    # Free and never-used slots hold cell id -1.
    ensure_cell_id_floor(int(arena.cell_ids.max(initial=0)))
    return model


def save_model(model: EDMStream, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a checkpoint to ``path`` atomically and return the path.

    The arrays go through an open handle to ``<path>.tmp``, which is
    flushed and fsynced before it is renamed onto ``path``: a crash or an
    error mid-write leaves the previous checkpoint in place, never a torn
    file.  Writing through a handle also keeps ``path`` exactly as given
    (``np.savez`` appends ``.npz`` to a bare file name).
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    arrays = model_to_arrays(model)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def load_model(path: Union[str, pathlib.Path]) -> EDMStream:
    """Load a checkpoint written by :func:`save_model`.

    Nothing is unpickled (``allow_pickle=False``): a file holding object
    arrays is rejected with ``ValueError``, as is a format-1 JSON file.
    """
    with pathlib.Path(path).open("rb") as handle:
        if handle.read(1) == b"{":
            raise ValueError(
                f"{path} is a format-1 JSON checkpoint; only format "
                f"{FORMAT_VERSION} array checkpoints can be loaded"
            )
        handle.seek(0)
        with np.load(handle, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    return model_from_arrays(arrays)
