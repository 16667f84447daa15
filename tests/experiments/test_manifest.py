"""Tests for repro.experiments.manifest — records, store, manifests."""

import json
from dataclasses import replace

import pytest

from repro.experiments.manifest import (
    ResultStore,
    TaskRecord,
    identity_view,
    json_safe,
    payload_sha256,
)
from repro.experiments.task import SCHEMA_VERSION, Task


def make_record(index: int = 0, seconds: float = 0.5) -> TaskRecord:
    task = Task.make("EX", index, {"n": 10 + index}, 3)
    return TaskRecord(
        scenario_id=task.scenario_id,
        index=task.index,
        point=task.point_dict,
        seed=task.seed,
        digest=task.digest,
        payload={"value": index * 2},
        counters={"sampler_draws": 4},
        timing={"seconds": seconds},
    )


class TestRecordRoundTrip:
    def test_json_round_trip(self):
        record = make_record()
        rebuilt = TaskRecord.from_json(record.to_json())
        assert rebuilt.to_json() == record.to_json()

    def test_schema_field_written(self):
        assert make_record().to_json()["schema"] == SCHEMA_VERSION

    def test_schema_mismatch_rejected(self):
        data = make_record().to_json()
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            TaskRecord.from_json(data)

    def test_zero_counters_are_not_stored(self):
        record = replace(make_record(), counters={"bfs": 0, "sampler_draws": 4, "cascade_trips": 0})
        assert record.counters == {"sampler_draws": 4}
        assert record.to_json()["counters"] == {"sampler_draws": 4}

    def test_stored_record_with_zero_counters_loads_without_them(self):
        # Records stored before zero counts were dropped carry every key.
        data = make_record().to_json()
        data["counters"] = {"bfs": 0, "multi_source": 0, "sampler_draws": 4}
        assert TaskRecord.from_json(data).counters == {"sampler_draws": 4}

    def test_identity_view_strips_timing_only(self):
        data = make_record(seconds=1.0).to_json()
        other = make_record(seconds=2.0).to_json()
        assert data != other
        assert identity_view(data) == identity_view(other)
        assert "timing" not in identity_view(data)


class TestJsonSafe:
    def test_non_finite_floats_become_strings(self):
        assert json_safe(float("nan")) == "NaN"
        assert json_safe(float("inf")) == "Infinity"
        assert json_safe(float("-inf")) == "-Infinity"

    def test_nested_structures(self):
        value = {"a": (1, 2), "b": [float("nan"), 3.5]}
        assert json_safe(value) == {"a": [1, 2], "b": ["NaN", 3.5]}

    def test_payload_hash_accepts_sanitized(self):
        payload = json_safe({"x": float("inf"), "y": 1})
        assert len(payload_sha256(payload)) == 64


class TestResultStore:
    def test_store_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record()
        path = store.store(record)
        assert path.name == f"{record.digest}.json"
        task = Task.make("EX", 0, {"n": 10}, 3)
        loaded = store.load(task)
        assert loaded is not None and loaded.cached
        assert loaded.payload == record.payload

    def test_miss_on_absent_record(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(Task.make("EX", 0, {"n": 999}, 3)) is None

    def test_miss_on_stale_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record()
        path = store.store(record)
        data = json.loads(path.read_text())
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        assert store.load(Task.make("EX", 0, {"n": 10}, 3)) is None

    def test_corrupt_record_quarantined_not_silently_missed(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record()
        path = store.store(record)
        path.write_text("{not json")
        assert store.load(Task.make("EX", 0, {"n": 10}, 3)) is None
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists() and not path.exists()
        assert store.corrupt_count == 1 and store.corrupt_quarantined == [corrupt]

    def test_truncated_record_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(make_record())
        path.write_bytes(path.read_bytes()[:20])
        assert store.load(Task.make("EX", 0, {"n": 10}, 3)) is None
        assert store.corrupt_count == 1

    def test_stale_schema_is_miss_not_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record()
        path = store.store(record)
        data = json.loads(path.read_text())
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        assert store.load(Task.make("EX", 0, {"n": 10}, 3)) is None
        assert store.corrupt_count == 0 and path.exists()  # versioning, not a fault

    def test_store_write_is_atomic_no_tmp_left(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store(make_record())
        leftovers = [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_store_clears_quarantine_marker(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record()
        marker = store.quarantine_task("EX", 0, {"n": 10}, record.digest, "RuntimeError: x")
        assert marker.exists()
        assert json.loads(marker.read_text())["error"] == "RuntimeError: x"
        store.store(record)
        assert not marker.exists()

    def test_manifest_has_no_timing_and_is_ordered(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [make_record(1, seconds=9.0), make_record(0, seconds=1.0)]
        path = store.write_manifest("EX", records, title="t", mode="smoke", base_seed=3)
        manifest = json.loads(path.read_text())
        assert "timing" not in json.dumps(manifest)
        assert [entry["index"] for entry in manifest["tasks"]] == [0, 1]
        assert manifest["num_tasks"] == 2
        for entry, record in zip(manifest["tasks"], sorted(records, key=lambda r: r.index)):
            assert entry["payload_sha256"] == payload_sha256(record.payload)

    def test_manifest_environment_fingerprint_is_non_identity(self, tmp_path):
        import platform

        store = ResultStore(tmp_path)
        path = store.write_manifest("EX", [make_record()], title="t", base_seed=3)
        manifest = json.loads(path.read_text())
        environment = manifest["environment"]
        assert environment["python"] == platform.python_version()
        assert "scipy" in environment
        # Non-identity: the fingerprint enters no digest or payload hash, so
        # a toolchain upgrade cannot invalidate cached records.
        record = make_record()
        assert "environment" not in record.to_json()
        assert "environment" not in json.dumps(manifest["tasks"])

    def test_quarantined_entries_flag_manifest_degraded(self, tmp_path):
        store = ResultStore(tmp_path)
        clean_path = store.write_manifest("EX", [make_record()], title="t", base_seed=3)
        clean = clean_path.read_bytes()
        assert b"degraded" not in clean  # quarantine-free manifests are unchanged
        entry = {"index": 1, "point": {"n": 11}, "digest": "ff" * 32, "error": "E: boom"}
        store.write_manifest("EX", [make_record()], title="t", base_seed=3, quarantined=[entry])
        manifest = json.loads(clean_path.read_text())
        assert manifest["degraded"] is True
        assert manifest["quarantined"] == [entry]
        # Writing quarantine-free again restores the clean bytes exactly.
        store.write_manifest("EX", [make_record()], title="t", base_seed=3)
        assert clean_path.read_bytes() == clean

    def test_environment_fingerprint_fields(self):
        from repro.experiments.manifest import environment_fingerprint

        fingerprint = environment_fingerprint()
        assert set(fingerprint) == {"python", "implementation", "scipy"}
        assert fingerprint["implementation"]
