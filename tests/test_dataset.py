from __future__ import annotations

import json

import pytest

from singletonlab.dataset import DatasetError, load_tasks
from singletonlab.source_model import parse_compilation_unit

from conftest import JDK_TASKS, MOCK_TASKS


def write_jsonl(tmp_path, rows):
    path = tmp_path / "tasks.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row if isinstance(row, str) else json.dumps(row))
            fh.write("\n")
    return path


def make_row(i: int, **overrides):
    row = {
        "task_id": f"Java/{i}",
        "prompt": f"Do thing {i}.\n\nclass Solution {{\n    public int f(int x) {{\n",
        "declaration": "class Solution {\n    public int f(int x) {\n",
        "test": "public class Main { public static void main(String[] a) {} }",
        "example_test": "",
    }
    row.update(overrides)
    return row


def test_load_fixture_dataset():
    taskset = load_tasks(MOCK_TASKS)
    assert len(taskset) == 5
    assert [t.task_id for t in taskset] == [f"Java/{i}" for i in range(5)]
    assert all(t.expected_class_name == "Solution" for t in taskset)
    assert len(taskset.source_digest) == 64


def test_description_carries_prompt_field_verbatim():
    taskset = load_tasks(MOCK_TASKS)
    raw = [json.loads(line) for line in MOCK_TASKS.read_text("utf-8").splitlines()]
    for task, row in zip(taskset, raw):
        assert task.description == row["prompt"]
        assert task.test_code == row["test"]


def test_expected_class_name_parses_back_from_declaration():
    for path in (MOCK_TASKS, JDK_TASKS):
        for task in load_tasks(path):
            classes = parse_compilation_unit(task.declaration)
            assert classes
            assert classes[0].class_name == task.expected_class_name


def test_determinism_same_bytes_same_taskset(tmp_path):
    path = write_jsonl(tmp_path, [make_row(0), make_row(1)])
    first = load_tasks(path)
    second = load_tasks(path)
    assert first == second
    assert first.source_digest == second.source_digest


def test_empty_file_warns(tmp_path):
    path = write_jsonl(tmp_path, [])
    taskset = load_tasks(path)
    assert len(taskset) == 0
    assert any("no tasks" in w for w in taskset.warnings)


def test_malformed_line_names_line_number(tmp_path):
    path = write_jsonl(tmp_path, [make_row(0), "{not json", make_row(2)])
    with pytest.raises(DatasetError, match="line 2"):
        load_tasks(path)


def test_non_object_line_rejected(tmp_path):
    path = write_jsonl(tmp_path, [make_row(0), '["array"]'])
    with pytest.raises(DatasetError, match="line 2: not a JSON object"):
        load_tasks(path)


def test_missing_field_names_line_and_key(tmp_path):
    row = make_row(0)
    del row["test"]
    path = write_jsonl(tmp_path, [row])
    with pytest.raises(DatasetError, match=r"line 1: missing or empty field 'test'"):
        load_tasks(path)


def test_empty_test_code_rejected(tmp_path):
    path = write_jsonl(tmp_path, [make_row(0, test="")])
    with pytest.raises(DatasetError, match="line 1"):
        load_tasks(path)


def test_unreadable_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_tasks(tmp_path / "absent.jsonl")


def test_non_java_tasks_skipped_with_warning(tmp_path):
    rows = [make_row(0), make_row(1, task_id="Python/1"), make_row(2, task_id="CPP/2")]
    path = write_jsonl(tmp_path, rows)
    taskset = load_tasks(path)
    assert [t.task_id for t in taskset] == ["Java/0"]
    assert len(taskset.warnings) == 2
    assert "Python/1" in taskset.warnings[0]


def test_duplicate_task_id_rejected(tmp_path):
    path = write_jsonl(tmp_path, [make_row(0), make_row(0)])
    with pytest.raises(DatasetError, match="duplicate task_id"):
        load_tasks(path)


def test_field_map_indirection(tmp_path):
    rows = [
        {
            "id": "Java/0",
            "text": "Describe.\n\nclass Solution {\n",
            "decl": "class Solution {\n",
            "checks": "public class Main {}",
        }
    ]
    path = write_jsonl(tmp_path, rows)
    taskset = load_tasks(
        path,
        field_map={
            "task_id": "id",
            "description": "text",
            "declaration": "decl",
            "test_code": "checks",
        },
    )
    assert len(taskset) == 1
    assert taskset.tasks[0].description.startswith("Describe.")


def test_blank_lines_are_tolerated(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(
        json.dumps(make_row(0)) + "\n\n" + json.dumps(make_row(1)) + "\n",
        encoding="utf-8",
    )
    assert len(load_tasks(path)) == 2
