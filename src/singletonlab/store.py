"""Append-only run store: a config snapshot plus per-(model, strategy) JSONL
record files. Reports are derived purely from the store, so a finished run
can be re-analyzed without network or toolchain access.

A record is a line ending in a newline: its RunRecord as nested JSON
objects, one key per dataclass field. Bytes after the last newline of a
file are the remains of an interrupted append: readers ignore them, and
resuming a run cuts them off before appending again.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

from .exec_harness import OutcomeLabel
from .guidance import IterationRecord, RunRecord
from .pattern_checker import PredicateReport


class StoreError(Exception):
    pass


def record_to_dict(record: RunRecord) -> dict:
    return dataclasses.asdict(record)


def record_from_dict(data: dict) -> RunRecord:
    """The record one line holds. A field whose key an older line lacks
    takes its default, and a key that names no field is ignored."""
    record = _build(RunRecord, data)
    record.iterations = [_build(IterationRecord, it) for it in record.iterations]
    for it in record.iterations:
        report = it.predicate_report
        it.predicate_report = _build(
            PredicateReport, report, failed_checks=tuple(report["failed_checks"])
        )
    if record.functional_outcome is not None:
        record.functional_outcome = _build(OutcomeLabel, record.functional_outcome)
    return record


def _build(cls, data: dict, **values):
    """cls(**values), each other field taken from data under its name; a
    field that data lacks too takes its default."""
    for f in dataclasses.fields(cls):
        if f.name in data and f.name not in values:
            values[f.name] = data[f.name]
    return cls(**values)


def _drop_torn_tail(path: Path) -> None:
    """Truncate the file back to just after its last newline."""
    with path.open("r+b") as fh:
        size = fh.seek(0, 2)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def _safe_name(value: str) -> str:
    return re.sub(r"[^\w.-]+", "-", value)


class RunStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    def initialize(self, snapshot: dict, digest: str) -> bool:
        """Write the config snapshot, or verify it matches an existing one and
        cut any torn trailing line off the record files. True when the store
        already existed."""
        self.root.mkdir(parents=True, exist_ok=True)
        self.records_dir.mkdir(parents=True, exist_ok=True)
        payload = {"config_digest": digest, "config": snapshot}
        if self.config_path.exists():
            existing = self.load_snapshot()["config_digest"]
            if existing != digest:
                raise StoreError(
                    f"store {self.root} was created with a different config "
                    f"(digest {existing} != {digest})"
                )
            for path in self.records_dir.glob("*.jsonl"):
                _drop_torn_tail(path)
            return True
        # a kill mid-write leaves the temp file, never a torn config.json
        partial = self.config_path.with_name(self.config_path.name + ".tmp")
        partial.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(partial, self.config_path)
        return False

    def load_snapshot(self) -> dict:
        try:
            snapshot = json.loads(self.config_path.read_text("utf-8"))
        except OSError as exc:
            raise StoreError(f"cannot read {self.config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store config {self.config_path}: {exc}") from exc
        if not isinstance(snapshot, dict) or "config_digest" not in snapshot:
            raise StoreError(f"corrupt store config {self.config_path}: no object with config_digest")
        return snapshot

    def record_path(self, model_id: str, strategy_kind: str) -> Path:
        return self.records_dir / f"{_safe_name(model_id)}__{strategy_kind}.jsonl"

    def append(self, record: RunRecord) -> None:
        path = self.record_path(record.model_id, record.strategy_kind)
        line = json.dumps(record_to_dict(record), sort_keys=True)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def completed_task_ids(self, model_id: str, strategy_kind: str) -> set[str]:
        return {r.task_id for r in self.load_records(model_id, strategy_kind)}

    def load_records(self, model_id: str, strategy_kind: str) -> list[RunRecord]:
        path = self.record_path(model_id, strategy_kind)
        if not path.exists():
            return []
        return self._read_file(path)

    def load_all(self) -> dict[tuple[str, str], list[RunRecord]]:
        """All records grouped by (model_id, strategy_kind), file order kept."""
        grouped: dict[tuple[str, str], list[RunRecord]] = {}
        if not self.records_dir.is_dir():
            return grouped
        for path in sorted(self.records_dir.glob("*.jsonl")):
            for record in self._read_file(path):
                grouped.setdefault((record.model_id, record.strategy_kind), []).append(
                    record
                )
        return grouped

    def _read_file(self, path: Path) -> list[RunRecord]:
        records = []
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        for lineno, line in enumerate(text.split("\n")[:-1], start=1):
            if not line.strip():
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StoreError(f"corrupt record in {path} line {lineno}: {exc}") from exc
        return records
