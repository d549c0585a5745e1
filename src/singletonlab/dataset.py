"""Loading of HumanEval-X style task files (UTF-8 JSON lines, one task each)."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .source_model import parse_compilation_unit

DEFAULT_FIELD_MAP = {
    "task_id": "task_id",
    "description": "prompt",
    "declaration": "declaration",
    "test_code": "test",
}


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class Task:
    task_id: str
    description: str
    declaration: str
    expected_class_name: str
    test_code: str


@dataclass(frozen=True)
class TaskSet:
    tasks: tuple[Task, ...]
    source_digest: str
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def load_tasks(path: str | Path, field_map: dict[str, str] | None = None) -> TaskSet:
    """Read one Task per JSONL line; non-Java tasks are skipped with a warning."""
    mapping = dict(DEFAULT_FIELD_MAP)
    if field_map:
        mapping.update(field_map)
    path = Path(path)
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()

    tasks: list[Task] = []
    warnings: list[str] = []
    seen_ids: set[str] = set()
    # JSON allows U+0085, U+2028 and U+2029 raw inside strings, so only "\n"
    # ends a line (str.splitlines() would also break at those); a trailing
    # "\r" is JSON whitespace.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DatasetError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"{path}: line {lineno}: not a JSON object")
        values: dict[str, str] = {}
        for fieldname in DEFAULT_FIELD_MAP:
            key = mapping[fieldname]
            value = obj.get(key)
            if not isinstance(value, str) or not value:
                raise DatasetError(
                    f"{path}: line {lineno}: missing or empty field '{key}'"
                )
            values[fieldname] = value
        task_id = values["task_id"]
        lang = task_id.split("/", 1)[0] if "/" in task_id else ""
        if lang and lang.lower() != "java":
            warnings.append(f"line {lineno}: skipped non-Java task {task_id!r}")
            continue
        if task_id in seen_ids:
            raise DatasetError(f"{path}: line {lineno}: duplicate task_id {task_id!r}")
        seen_ids.add(task_id)
        classes = parse_compilation_unit(values["declaration"])
        expected = classes[0].class_name if classes else ""
        if not expected:
            warnings.append(f"line {lineno}: no class found in declaration of {task_id!r}")
        tasks.append(Task(expected_class_name=expected, **values))
    if clash := store_name_clash("task_id", [t.task_id for t in tasks]):  # names scratch directories
        raise DatasetError(f"{path}: {clash}")
    if not tasks:
        warnings.append(f"{path}: no tasks loaded")
    return TaskSet(tuple(tasks), digest, tuple(warnings))


def _safe_name(value: str) -> str:
    return re.sub(r"[^\w.-]+", "-", value)


def store_name_clash(label: str, values: list[str]) -> str | None:
    """The error for the first value whose name in a run store is "." or "..",
    or for the first two values that share a name; or None."""
    named: dict[str, str] = {}
    for value in values:
        name = _safe_name(value)
        if name in (".", ".."):
            return f"{label} {value!r} has the store name {name!r}, which names no directory of its own"
        other = named.setdefault(name, value)
        if other != value:
            return f"{label} values {other!r} and {value!r} share the store name {name!r}"
    return None
