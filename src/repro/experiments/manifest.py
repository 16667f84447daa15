"""Content-addressed result store and scenario manifests.

Every completed task is persisted as ``RESULTS/<scenario>/<digest>.json``,
where the digest is the SHA-256 content address computed by
:func:`repro.experiments.task.task_digest`.  Re-running a sweep loads the
stored records instead of recomputing points (``--force`` bypasses this).

Each record separates its **identity** fields (parameters, seed, payload,
kernel counters — everything that must be bit-identical between serial and
parallel runs) from its **timing** fields (wall-clock measurements that
legitimately vary run to run).  :func:`identity_view` strips the timing
fields, which is exactly the "byte-identical modulo timing" contract the
benchmark harness and the runner tests check.

All store writes are **crash-safe**: records and manifests are written to a
``.tmp`` sibling and :func:`os.replace`-d into place, so an interrupted run
can leave behind a stale temp file but never a torn record.  Files that are
unreadable or truncated anyway (a disk fault, a corrupted copy) are
quarantined by :meth:`ResultStore.load` to ``<digest>.json.corrupt`` — and
counted — instead of being silently treated as cache misses; the task is
then recomputed and re-persisted at its content address.

The per-scenario ``manifest.json`` lists every task of the sweep in index
order with its digest and a payload hash, and contains *no* timing fields at
all: two runs of the same sweep write byte-identical manifests regardless of
``--jobs``.  A sweep that had to quarantine tasks (retry budget exhausted)
writes a manifest explicitly flagged ``"degraded": true`` with a
``"quarantined"`` section; quarantine-free manifests carry neither key, so
their bytes are unchanged.  It also records an ``environment`` fingerprint (python/scipy
versions) for provenance — a **non-identity** field: it enters no digest or
payload hash, so cache addressing and result identity are unaffected by
toolchain upgrades (manifests from different environments legitimately differ
in that one field).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from .task import SCHEMA_VERSION, Task, canonical_json

#: Top-level record keys excluded from the identity comparison.
TIMING_FIELDS = ("timing",)


@dataclass
class TaskRecord:
    """The persisted result of one task.

    Attributes:
        scenario_id: Experiment identifier.
        index: Task position in the expanded sweep.
        point: The parameter point.
        seed: The derived per-task seed actually used.
        digest: Content address (also the file name).
        payload: The experiment measurement — deterministic given the seed.
        counters: The task's non-zero ``KERNEL_COUNTERS`` (deterministic).
            Zero counts are dropped, from fresh and stored records alike, so
            adding or deleting a counter changes only the records of the
            suites that increment it.
        timing: Wall-clock fields; excluded from identity.
        cached: True when the record was loaded from the store, not computed.
    """

    scenario_id: str
    index: int
    point: Dict[str, object]
    seed: int
    digest: str
    payload: Dict[str, object]
    counters: Dict[str, int] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    cached: bool = False

    def __post_init__(self) -> None:
        self.counters = {key: count for key, count in self.counters.items() if count}

    def to_json(self) -> Dict[str, object]:
        """JSON form written to the store (``cached`` is runtime-only state)."""
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario_id,
            "index": self.index,
            "point": self.point,
            "seed": self.seed,
            "digest": self.digest,
            "payload": self.payload,
            "counters": self.counters,
            "timing": self.timing,
        }

    @staticmethod
    def from_json(data: Dict[str, object]) -> "TaskRecord":
        """Rebuild a record from its stored JSON form."""
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"record schema {data.get('schema')!r} != engine schema {SCHEMA_VERSION}"
            )
        return TaskRecord(
            scenario_id=data["scenario"],
            index=data["index"],
            point=dict(data["point"]),
            seed=data["seed"],
            digest=data["digest"],
            payload=data["payload"],
            counters=data.get("counters", {}),
            timing=dict(data.get("timing", {})),
        )


def json_safe(value: object) -> object:
    """Recursively convert a payload to strict-JSON-safe form.

    Non-finite floats become the strings ``"NaN"`` / ``"Infinity"`` /
    ``"-Infinity"`` (strict JSON has no literal for them, and the content
    addresses hash canonical JSON with ``allow_nan=False``); tuples become
    lists; anything non-JSON falls back to ``str``.
    """
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def identity_view(record_json: Dict[str, object]) -> Dict[str, object]:
    """A record's JSON form with the timing fields removed."""
    return {k: v for k, v in record_json.items() if k not in TIMING_FIELDS}


def environment_fingerprint() -> Dict[str, object]:
    """Python/scipy versions of the executing environment.

    Recorded in manifests for provenance only — never hashed into task
    digests or payload hashes, so it cannot invalidate cached results.
    """
    import platform

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:  # pragma: no cover - exercised only without scipy
        scipy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scipy": scipy_version,
    }


def payload_sha256(payload: Dict[str, object]) -> str:
    """Canonical hash of a record payload (manifest integrity field)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp sibling + ``os.replace``).

    The temp name includes the pid so concurrent writers of the same path
    (two sweeps sharing a store) never clobber each other's staging file; the
    final ``os.replace`` is atomic on POSIX, so readers see either the old
    complete file or the new complete file, never a torn write.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class ResultStore:
    """Filesystem store rooted at a ``RESULTS/`` directory.

    ``corrupt_quarantined`` accumulates the ``.corrupt`` paths this instance
    quarantined (unreadable/truncated record files found by :meth:`load`);
    the runner reports the per-run delta.
    """

    def __init__(self, root: Path | str = "RESULTS") -> None:
        self.root = Path(root)
        self.corrupt_quarantined: List[Path] = []

    @property
    def corrupt_count(self) -> int:
        """Number of corrupt record files quarantined by this instance."""
        return len(self.corrupt_quarantined)

    def scenario_dir(self, scenario_id: str) -> Path:
        """Directory holding one scenario's records and manifest."""
        return self.root / scenario_id

    def record_path(self, scenario_id: str, digest: str) -> Path:
        """Path of one task's record file."""
        return self.scenario_dir(scenario_id) / f"{digest}.json"

    def quarantine_marker_path(self, scenario_id: str, digest: str) -> Path:
        """Path of one task's quarantine marker (retry budget exhausted)."""
        return self.scenario_dir(scenario_id) / f"{digest}.quarantined.json"

    def manifest_path(self, scenario_id: str) -> Path:
        """Path of one scenario's manifest file."""
        return self.scenario_dir(scenario_id) / "manifest.json"

    def load(self, task: Task) -> Optional[TaskRecord]:
        """Load the cached record for a task, or None on miss/schema mismatch.

        Unreadable or truncated files are quarantined to
        ``<digest>.json.corrupt`` (and counted in ``corrupt_quarantined``);
        files that parse as JSON but carry a stale schema remain plain cache
        misses — that is the versioning contract, not corruption.
        """
        path = self.record_path(task.scenario_id, task.digest)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return self._quarantine_corrupt(path)
        try:
            record = TaskRecord.from_json(data)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None  # valid JSON, stale schema/shape: a plain cache miss
        record.cached = True
        return record

    def _quarantine_corrupt(self, path: Path) -> None:
        """Move an unreadable record aside so it is recomputed, not reused."""
        corrupt = path.with_name(f"{path.name}.corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:  # pragma: no cover - racing cleanup; treat as a miss
            return None
        self.corrupt_quarantined.append(corrupt)
        return None

    def store(self, record: TaskRecord) -> Path:
        """Persist a record at its content address (atomic write).

        A successful store also clears any quarantine marker left by an
        earlier run that exhausted the task's retries.
        """
        path = self.record_path(record.scenario_id, record.digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n")
        marker = self.quarantine_marker_path(record.scenario_id, record.digest)
        marker.unlink(missing_ok=True)
        return path

    def quarantine_task(
        self,
        scenario_id: str,
        index: int,
        point: Mapping[str, object],
        digest: str,
        error: str,
    ) -> Path:
        """Write the quarantine marker for a task that exhausted its retries."""
        path = self.quarantine_marker_path(scenario_id, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        marker = {
            "schema": SCHEMA_VERSION,
            "scenario": scenario_id,
            "index": index,
            "point": dict(point),
            "digest": digest,
            "error": error,
        }
        _atomic_write_text(path, json.dumps(marker, indent=2, sort_keys=True) + "\n")
        return path

    def write_manifest(
        self,
        scenario_id: str,
        records: Sequence[TaskRecord],
        title: str = "",
        mode: str = "full",
        base_seed: int = 0,
        quarantined: Sequence[Mapping[str, object]] = (),
    ) -> Path:
        """Write the deterministic sweep manifest (no timing fields).

        Records are listed in task-index order, so the manifest bytes depend
        only on the sweep definition and the (deterministic) payloads — not
        on scheduling, job count, or cache state.

        ``quarantined`` entries (``index``/``point``/``digest``/``error`` of
        tasks that exhausted their retries) flag the manifest
        ``"degraded": true``; when empty, neither key is written and the
        manifest bytes match a clean run's exactly.
        """
        entries: List[Dict[str, object]] = [
            {
                "index": record.index,
                "point": record.point,
                "seed": record.seed,
                "digest": record.digest,
                "payload_sha256": payload_sha256(record.payload),
                "counters": record.counters,
            }
            for record in sorted(records, key=lambda r: r.index)
        ]
        manifest = {
            "schema": SCHEMA_VERSION,
            "scenario": scenario_id,
            "title": title,
            "mode": mode,
            "base_seed": base_seed,
            "environment": environment_fingerprint(),
            "num_tasks": len(entries),
            "tasks": entries,
        }
        if quarantined:
            manifest["degraded"] = True
            manifest["quarantined"] = sorted(
                (dict(entry) for entry in quarantined), key=lambda e: e["index"]
            )
        path = self.manifest_path(scenario_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path
