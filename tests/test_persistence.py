"""Tests for EDMStream model persistence (array checkpoints)."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EDMStream
from repro.core.persistence import (
    FORMAT_VERSION,
    load_model,
    model_from_arrays,
    model_to_arrays,
    save_model,
)
from repro.distance.text import TokenSetPoint
from repro.obs import Telemetry
from repro.streams import stream_from_arrays
from repro.streams.news import NewsStreamGenerator


def trained_model(stream, **kwargs):
    """Feed a stream into a fresh EDMStream model."""
    params = dict(radius=0.5, beta=0.001, stream_rate=stream.rate, init_size=100)
    params.update(kwargs)
    model = EDMStream(**params)
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
    return model


def round_trip(model):
    return model_from_arrays(model_to_arrays(model))


class TestRoundTrip:
    def test_dict_round_trip_preserves_clustering(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)

        assert restored.n_points == model.n_points
        assert restored.n_active_cells == model.n_active_cells
        assert restored.n_inactive_cells == model.n_inactive_cells
        assert restored.tau == pytest.approx(model.tau)
        assert restored.alpha == pytest.approx(model.alpha)
        assert restored.n_clusters == model.n_clusters
        assert restored.clusters() == model.clusters()

    def test_round_trip_preserves_predictions(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)
        queries = [(0.0, 0.0), (6.0, 6.0), (3.0, 3.0), (100.0, 100.0)]
        for query in queries:
            assert restored.predict_one(query) == model.predict_one(query)

    def test_checkpoint_is_plain_arrays(self, two_blob_stream):
        arrays = model_to_arrays(trained_model(two_blob_stream))
        for name, value in arrays.items():
            assert isinstance(value, np.ndarray), name
            assert value.dtype != object, name

    def test_file_round_trip(self, two_blob_stream, tmp_path):
        model = trained_model(two_blob_stream)
        path = save_model(model, tmp_path / "snapshots" / "model.npz")
        assert path.exists()
        restored = load_model(path)
        assert restored.clusters() == model.clusters()

    def test_save_keeps_the_given_file_name(self, two_blob_stream, tmp_path):
        model = trained_model(two_blob_stream)
        path = save_model(model, tmp_path / "model.json")
        assert path == tmp_path / "model.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        assert load_model(path).clusters() == model.clusters()

    def test_restored_model_keeps_learning(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)
        rng = np.random.default_rng(0)
        t = restored.now
        for i in range(200):
            point = rng.normal((0.0, 0.0), 0.3, size=2)
            t += 1e-3
            restored.learn_one(tuple(point), timestamp=t)
        assert restored.n_points == model.n_points + 200
        assert restored.n_clusters >= 1

    def test_new_cells_do_not_collide_with_restored_ids(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        snapshot = model_to_arrays(model)
        restored = model_from_arrays(snapshot)
        existing_ids = {int(c) for c in snapshot["arena.cell_ids"] if c >= 0}
        assert existing_ids == {c.cell_id for c in model.tree.cells()} | {
            c.cell_id for c in model.reservoir.cells()
        }
        # Force a brand-new cell far away from everything else.
        new_cell_id = restored.learn_one((500.0, 500.0), timestamp=restored.now + 0.001)
        assert new_cell_id not in existing_ids

    def test_dependency_structure_preserved(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)
        for cell in model.tree.cells():
            restored_cell = restored.tree.get(cell.cell_id)
            assert restored_cell.dependency == cell.dependency
            assert restored_cell.delta == pytest.approx(cell.delta)
            assert restored.tree.children_of(cell.cell_id) == model.tree.children_of(
                cell.cell_id
            )
        restored.tree.validate()

    def test_layout_is_verbatim(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)
        stores = ((model._active, restored._active), (model._inactive, restored._inactive))
        for ours, theirs in stores:
            assert ours.ids() == theirs.ids()
            assert np.array_equal(ours.slots(), theirs.slots())
            theirs.validate()
        assert list(restored.tree.cell_ids()) == list(model.tree.cell_ids())
        assert [c.cell_id for c in restored.reservoir.cells()] == [
            c.cell_id for c in model.reservoir.cells()
        ]
        assert restored._cells.capacity == model._cells.capacity
        assert restored.memory_footprint() == model.memory_footprint()

    def test_saving_does_not_change_the_model(self, two_blob_stream, tmp_path):
        model = trained_model(two_blob_stream)
        before = model.memory_footprint()
        save_model(model, tmp_path / "model.npz")
        assert model.memory_footprint() == before


class TestSafety:
    def test_load_rejects_pickled_object_arrays(self, two_blob_stream, tmp_path):
        arrays = model_to_arrays(trained_model(two_blob_stream))
        arrays["arena.tokens"] = np.asarray([frozenset({"a"})], dtype=object)
        path = tmp_path / "evil.npz"
        with path.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError):
            load_model(path)

    def test_failed_save_keeps_previous_checkpoint(
        self, two_blob_stream, tmp_path, monkeypatch
    ):
        model = trained_model(two_blob_stream)
        path = save_model(model, tmp_path / "model.npz")
        previous = path.read_bytes()

        def torn_write(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_write)
        model.learn_one((0.0, 0.0), timestamp=model.now + 0.001)
        with pytest.raises(OSError):
            save_model(model, path)
        assert path.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        monkeypatch.undo()
        assert load_model(path).n_points == model.n_points - 1

    def test_version_1_json_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 1, "config": {}}))
        with pytest.raises(ValueError):
            load_model(path)


class TestUninitialisedAndEdgeCases:
    def test_empty_model_round_trip(self):
        model = EDMStream(radius=1.0)
        restored = round_trip(model)
        assert restored.n_points == 0
        assert restored.n_active_cells == 0
        assert not restored.initialized

    def test_uninitialised_model_round_trip(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=10_000)  # never initialises
        for point in two_blob_stream.prefix(50):
            model.learn_one(point.values, timestamp=point.timestamp)
        restored = round_trip(model)
        assert not restored.initialized
        assert restored.n_inactive_cells == model.n_inactive_cells

    def test_unsupported_version_rejected(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        payload = model_to_arrays(model)
        header = json.loads(payload["header"].tobytes())
        header["format_version"] = FORMAT_VERSION + 1
        payload["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with pytest.raises(ValueError):
            model_from_arrays(payload)

    def test_config_round_trip(self, two_blob_stream):
        model = trained_model(
            two_blob_stream, enable_triangle_filter=False, maintenance_interval=2.5
        )
        restored = round_trip(model)
        assert restored.config.enable_triangle_filter is False
        assert restored.config.maintenance_interval == 2.5

    def test_telemetry_instance_is_not_saved(self, two_blob_stream):
        model = trained_model(two_blob_stream, telemetry=Telemetry())
        restored = round_trip(model)
        assert restored.obs.enabled
        assert restored.obs is not model.obs

    def test_label_votes_round_trip(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = round_trip(model)
        for cell in model.tree.cells():
            assert restored.tree.get(cell.cell_id).label_votes == cell.label_votes

    def test_jaccard_seeds_round_trip(self):
        stream = NewsStreamGenerator(n_points=300, rate=100.0).generate()
        model = EDMStream(
            radius=0.4, metric="jaccard", init_size=100, beta=0.01, stream_rate=100.0
        )
        model.learn_many(stream)
        restored = round_trip(model)
        for cell in list(model.tree.cells()) + list(model.reservoir.cells()):
            seed = restored._cells.view(cell.cell_id).seed
            assert isinstance(seed, TokenSetPoint)
            assert seed.tokens == cell.seed.tokens
            assert seed.text == cell.seed.text


# ---------------------------------------------------------------------- #
# crash-exact continuation
# ---------------------------------------------------------------------- #
N_POINTS = 2000
BATCH = 256


def _noisy_blobs():
    """Three 2-d blobs under 30% uniform noise: a cold tail to evict."""
    rng = np.random.default_rng(3)
    centres = np.array([[2.0, 2.0], [7.0, 3.0], [4.0, 8.0]])
    labels = rng.integers(0, 3, N_POINTS)
    values = centres[labels] + rng.normal(0.0, 0.35, (N_POINTS, 2))
    noise = rng.random(N_POINTS) < 0.3
    values[noise] = rng.random((int(noise.sum()), 2)) * 10.0
    labels[noise] = -1
    return list(stream_from_arrays(values, labels, rate=1000.0))


NUMERIC = dict(radius=0.3, beta=0.0021, stream_rate=1000.0, init_size=200)
CASES = {
    "default": (NUMERIC, _noisy_blobs),
    "float32": ({**NUMERIC, "dtype": "float32"}, _noisy_blobs),
    "capped": ({**NUMERIC, "memory_cap_bytes": 60_000}, _noisy_blobs),
    "jaccard": (
        dict(radius=0.4, metric="jaccard", init_size=100, beta=0.01, stream_rate=100.0),
        lambda: list(NewsStreamGenerator(n_points=N_POINTS // 2, rate=100.0).generate()),
    ),
}


@functools.lru_cache(maxsize=None)
def _stream(case):
    return CASES[case][1]()


def _feed(model, points, batch_size):
    if batch_size is None:
        for point in points:
            model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
    else:
        model.learn_many(points, batch_size=batch_size)


@functools.lru_cache(maxsize=None)
def _uninterrupted(case, batch_size):
    model = EDMStream(**CASES[case][0])
    _feed(model, _stream(case), batch_size)
    return model


def _observable_state(model):
    """Per-population cell columns ordered by creation, τ, and the partition.

    Cell ids come from a process-global counter, so two runs hand out
    different ids in the same order: ids (and dependency ids) are replaced
    by their rank among the live cells.
    """
    populations = {"active": list(model.tree.cells()), "inactive": list(model.reservoir.cells())}
    live = sorted(c.cell_id for cells in populations.values() for c in cells)
    rank = {cell_id: i for i, cell_id in enumerate(live)}
    columns = {}
    for name, cells in populations.items():
        cells.sort(key=lambda c: (c.created_at, c.cell_id))
        columns[name] = [
            (
                rank[c.cell_id],
                c.seed.tokens if isinstance(c.seed, TokenSetPoint) else tuple(c.seed),
                c.density,
                c.created_at,
                c.last_update,
                c.last_absorb,
                c.delta,
                None if c.dependency is None else rank.get(c.dependency, "dangling"),
                c.points_absorbed,
                dict(c.label_votes),
            )
            for c in cells
        ]
    partition = {frozenset(rank[c] for c in members) for members in model.clusters().values()}
    return columns, model.tau, partition


def _check_continuation(case, batch_size, cut, tmp_path):
    points = _stream(case)
    model = EDMStream(**CASES[case][0])
    _feed(model, points[:cut], batch_size)
    path = save_model(model, tmp_path / f"{case}.npz")
    restored = load_model(path)
    _feed(restored, points[cut:], batch_size)
    assert _observable_state(restored) == _observable_state(_uninterrupted(case, batch_size))


@pytest.mark.parametrize("case", sorted(CASES))
class TestCrashExactContinuation:
    """Checkpoint → restore → continue equals the uninterrupted run.

    Batch-mode cuts fall on batch boundaries: a cut inside a batch
    re-chunks the rest of the stream, which by itself — with no restore —
    moves densities by about 1e-12 (closed-form vs per-point decay) and
    shifts capped-mode eviction timing.  That would be a batching effect,
    not a checkpoint defect, so it is kept out of this property.
    """

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_learn_one(self, case, data, tmp_path_factory):
        cut = data.draw(st.integers(1, len(_stream(case)) - 1), label="cut")
        _check_continuation(case, None, cut, tmp_path_factory.mktemp("ck"))

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_learn_many(self, case, data, tmp_path_factory):
        n_batches = (len(_stream(case)) - 1) // BATCH
        cut = BATCH * data.draw(st.integers(1, n_batches), label="batches")
        _check_continuation(case, BATCH, cut, tmp_path_factory.mktemp("ck"))
