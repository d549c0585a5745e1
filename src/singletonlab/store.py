"""Append-only run store: a config snapshot plus per-(model, strategy) JSONL
record files. Reports are derived purely from the store, so a finished run
can be re-analyzed without network or toolchain access.

A record is a line ending in a newline. Bytes after the last newline of a
file are the remains of an interrupted append: readers ignore them, and
resuming a run cuts them off before appending again.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .exec_harness import OutcomeLabel
from .guidance import IterationRecord, RunRecord
from .pattern_checker import PredicateReport


class StoreError(Exception):
    pass


def record_to_dict(record: RunRecord) -> dict:
    return {
        "model_id": record.model_id,
        "strategy_kind": record.strategy_kind,
        "task_id": record.task_id,
        "iterations": [
            {
                "index": it.index,
                "prompt_sent": it.prompt_sent,
                "raw_response": it.raw_response,
                "extracted_code": it.extracted_code,
                "predicate_report": _report_to_dict(it.predicate_report),
                "conforming": it.conforming,
            }
            for it in record.iterations
        ],
        "selected_candidate": record.selected_candidate,
        "selected_iteration": record.selected_iteration,
        "singleton_score": record.singleton_score,
        "functional_outcome": _outcome_to_dict(record.functional_outcome),
        "wall_time_ms": record.wall_time_ms,
        "config_digest": record.config_digest,
    }


def record_from_dict(data: dict) -> RunRecord:
    return RunRecord(
        model_id=data["model_id"],
        strategy_kind=data["strategy_kind"],
        task_id=data["task_id"],
        iterations=[
            IterationRecord(
                index=it["index"],
                prompt_sent=it["prompt_sent"],
                raw_response=it["raw_response"],
                extracted_code=it["extracted_code"],
                predicate_report=_report_from_dict(it["predicate_report"]),
                conforming=it["conforming"],
            )
            for it in data["iterations"]
        ],
        selected_candidate=data["selected_candidate"],
        selected_iteration=data["selected_iteration"],
        singleton_score=data["singleton_score"],
        functional_outcome=_outcome_from_dict(data["functional_outcome"]),
        wall_time_ms=data["wall_time_ms"],
        config_digest=data["config_digest"],
    )


def _report_to_dict(report: PredicateReport) -> dict:
    return {
        "private_constructor": report.private_constructor,
        "instance_field": report.instance_field,
        "global_access_point": report.global_access_point,
        "failed_checks": list(report.failed_checks),
    }


def _report_from_dict(data: dict) -> PredicateReport:
    return PredicateReport(
        private_constructor=data["private_constructor"],
        instance_field=data["instance_field"],
        global_access_point=data["global_access_point"],
        failed_checks=tuple(data["failed_checks"]),
    )


def _outcome_to_dict(outcome: OutcomeLabel | None) -> dict | None:
    if outcome is None:
        return None
    return {
        "kind": outcome.kind,
        "detail": outcome.detail,
        "compile_error_category": outcome.compile_error_category,
    }


def _outcome_from_dict(data: dict | None) -> OutcomeLabel | None:
    if data is None:
        return None
    return OutcomeLabel(
        kind=data["kind"],
        detail=data["detail"],
        compile_error_category=data.get("compile_error_category"),
    )


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
            existing = json.loads(self.config_path.read_text("utf-8"))
            if existing.get("config_digest") != digest:
                raise StoreError(
                    f"store {self.root} was created with a different config "
                    f"(digest {existing.get('config_digest')} != {digest})"
                )
            for path in self.records_dir.glob("*.jsonl"):
                _drop_torn_tail(path)
            return True
        self.config_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return False

    def load_snapshot(self) -> dict:
        try:
            return json.loads(self.config_path.read_text("utf-8"))
        except OSError as exc:
            raise StoreError(f"cannot read {self.config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store config {self.config_path}: {exc}") from exc

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
            except (json.JSONDecodeError, KeyError) as exc:
                raise StoreError(f"corrupt record in {path} line {lineno}: {exc}") from exc
        return records
