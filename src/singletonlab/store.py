"""Append-only run store: a config snapshot plus per-(model, strategy) JSONL
record files. Reports are derived purely from the store, so a finished run
can be re-analyzed without network or toolchain access.

A record is a line ending in a newline: its RunRecord as nested JSON
objects, one key per dataclass field. Bytes after the last newline of a
file are the remains of an interrupted append: readers ignore them, and
resuming a run cuts them off before appending again. Readers take a file
one line at a time, so what they hold grows with one arm, not the store.

A records file holds one arm: every record in it has the model_id and
strategy_kind that name the file, and a task id of its own. Readers refuse
any other record, so resuming and reporting count the same arms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import functools
import json
import os
from pathlib import Path
from typing import Iterator

from .dataset import _safe_name
from .exec_harness import OutcomeLabel
from .guidance import BASELINE, IterationRecord, RunRecord
from .pattern_checker import PredicateReport

# how far _drop_torn_tail reads back from the end of a file at a time
_TAIL_BLOCK = 1 << 16


class StoreError(Exception):
    pass


def record_to_dict(record: RunRecord) -> dict:
    return dataclasses.asdict(record)


def _fields_of(value) -> dict:
    """A dataclass instance as {field name: value}, for json.dumps to encode
    in turn; anything else json.dumps cannot encode is a TypeError."""
    cls = type(value)
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return {name: getattr(value, name) for name in _field_names(cls)}


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


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
    for name in _field_names(cls):
        if name in data and name not in values:
            values[name] = data[name]
    return cls(**values)


def _file_name(model_id: str, strategy_kind: str) -> str:
    """The name of the records file that holds an arm."""
    return f"{_safe_name(model_id)}__{strategy_kind}.jsonl"


def _read_records(path: Path) -> Iterator[RunRecord]:
    """The records of a file, one line at a time; none for a missing file.
    Each line is decoded as UTF-8 here, since json.loads on bytes would take
    leading NULs for UTF-16 or UTF-32, and only b"\\n" ends a line. A record
    of another arm than the file's, or of a task already read, is an error."""
    arm, task_ids = None, set()
    for lineno, line in _read_lines(path):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(f"cannot read {path} line {lineno}: {exc}") from exc
        if not text.strip():
            continue
        try:
            record = record_from_dict(json.loads(text))
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise StoreError(f"corrupt record in {path} line {lineno}: {exc}") from exc
        key = (record.model_id, record.strategy_kind)
        if key != arm:
            if arm is not None or _file_name(*key) != path.name:
                holder = f"the file of arm {arm}" if arm else f"a file not named {_file_name(*key)}"
                raise StoreError(f"misplaced record in {path} line {lineno}: arm {key} in {holder}")
            arm = key
        if record.task_id in task_ids:
            raise StoreError(f"repeated task {record.task_id!r} in {path} line {lineno}")
        task_ids.add(record.task_id)
        yield record


def _read_lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """(1-based number, bytes) of each line up to the file's last newline."""
    try:
        with path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    return  # a torn tail
                yield lineno, line
    except FileNotFoundError:
        return
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc


def _drop_torn_tail(path: Path) -> None:
    """Truncate the file back to just after its last newline, found by
    reading back from the end one block at a time."""
    with path.open("r+b") as fh:
        size = end = fh.seek(0, os.SEEK_END)
        while end > 0:
            start = max(0, end - _TAIL_BLOCK)
            fh.seek(start)
            newline = fh.read(end - start).rfind(b"\n")
            if newline >= 0:
                end = start + newline + 1
                break
            end = start
        if end != size:
            fh.truncate(end)


class RunStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    @contextlib.contextmanager
    def locked(self):
        """Hold the store for one run: an exclusive lock on its records
        directory, which a second run, in this process or another, fails to
        take. Readers take no lock."""
        with self._creating():
            self.records_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.records_dir, os.O_RDONLY)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StoreError(f"store {self.root} is in use by another run") from None
            yield
        finally:
            os.close(fd)

    def initialize(self, snapshot: dict, digest: str) -> None:
        """Write the config snapshot, or verify it matches an existing one and
        cut any torn trailing line off the record files."""
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
            return
        # a kill mid-write leaves the temp file, never a torn config.json
        partial = self.config_path.with_name(self.config_path.name + ".tmp")
        with self._creating():
            self.records_dir.mkdir(parents=True, exist_ok=True)
            partial.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            os.replace(partial, self.config_path)

    @contextlib.contextmanager
    def _creating(self):
        """An OSError while the store is made, as a StoreError that names it."""
        try:
            yield
        except OSError as exc:
            raise StoreError(f"cannot create store {self.root}: {exc}") from exc

    def load_snapshot(self) -> dict:
        try:
            snapshot = json.loads(self.config_path.read_text("utf-8"))
        except OSError as exc:
            raise StoreError(f"cannot read {self.config_path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"corrupt store config {self.config_path}: {exc}") from exc
        if not isinstance(snapshot, dict) or "config_digest" not in snapshot:
            raise StoreError(f"corrupt store config {self.config_path}: no object with config_digest")
        return snapshot

    def record_path(self, model_id: str, strategy_kind: str) -> Path:
        return self.records_dir / _file_name(model_id, strategy_kind)

    def scratch_root(self, run_id: str) -> Path:
        """The run's scratch directory: one subdirectory per cell below it."""
        return self.root / "scratch" / _safe_name(run_id)

    def scratch_dir(self, run_id: str, model_id: str, strategy_kind: str, task_id: str) -> Path:
        return self.scratch_root(run_id) / _safe_name(model_id) / strategy_kind / _safe_name(task_id)

    def append(self, record: RunRecord) -> None:
        # the bytes of json.dumps(record_to_dict(record), sort_keys=True), without
        # the deep copy dataclasses.asdict makes; one write, so the line goes out whole
        line = (json.dumps(record, sort_keys=True, default=_fields_of) + "\n").encode("utf-8")
        fd = os.open(
            self.record_path(record.model_id, record.strategy_kind),
            os.O_WRONLY | os.O_APPEND | os.O_CREAT,
            0o666,
        )
        try:
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)

    def completed_task_ids(self, model_id: str, strategy_kind: str) -> set[str]:
        return {r.task_id for r in _read_records(self.record_path(model_id, strategy_kind))}

    def load_records(self, model_id: str, strategy_kind: str) -> list[RunRecord]:
        return list(_read_records(self.record_path(model_id, strategy_kind)))

    def load_arm(self, path: Path) -> list[RunRecord]:
        """The records of one records file, in file order: one arm's."""
        return list(_read_records(path))

    def load_all(self) -> dict[tuple[str, str], list[RunRecord]]:
        """Every arm's records by (model_id, strategy_kind), file order kept."""
        arms = (self.load_arm(path) for path in sorted(self.records_dir.glob("*.jsonl")))
        return {(arm[0].model_id, arm[0].strategy_kind): arm for arm in arms if arm}

    def files_by_model(self) -> list[list[Path]]:
        """The records files, grouped by the model part of their names: the
        files that one model's arms are appended to (or those of models whose
        ids share that store name). Each group lists its baseline file first."""
        groups: dict[str, list[Path]] = {}
        if self.records_dir.is_dir():
            for path in sorted(self.records_dir.glob("*.jsonl")):
                model, _, kind = path.stem.rpartition("__")
                files = groups.setdefault(model, [])
                if kind == BASELINE:
                    files.insert(0, path)
                else:
                    files.append(path)
        return list(groups.values())
