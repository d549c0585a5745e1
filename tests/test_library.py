"""The package's documented surface: the README's Library section."""

from __future__ import annotations

import re
from pathlib import Path

import singletonlab
from singletonlab.dataset import load_tasks

from conftest import MOCK_TASKS

README = Path(__file__).resolve().parents[1] / "README.md"

SINGLETON = (
    "class Solution { private static Solution s = new Solution(); "
    "private Solution() {} public static Solution getInstance() { return s; } }"
)


def library_snippet() -> str:
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", README.read_text("utf-8"), re.S | re.M)
    assert match, "README has no Library snippet"
    return match.group(1)


def test_the_readme_library_snippet_runs_as_written(capsys):
    task = load_tasks(MOCK_TASKS).tasks[0]
    names = {"java_source": SINGLETON, "task": task}
    exec(compile(library_snippet(), "README.md", "exec"), names)
    assert capsys.readouterr().out == "True 100.0 ()\n"
    record = names["record"]
    assert (record.model_id, record.strategy_kind, record.task_id) == ("scripted", "binary_feedback", task.task_id)
    assert record.iterations[0].raw_response == "..."


def test_the_package_exports_the_library_names_and_their_types():
    assert sorted(singletonlab.__all__) == [
        "ClassModel",
        "ModelSpec",
        "PredicateReport",
        "RunRecord",
        "ScriptedModel",
        "Strategy",
        "Task",
        "evaluate_predicates",
        "parse_compilation_unit",
        "run_task",
        "select_primary_class",
        "singleton_score",
    ]
    assert all(hasattr(singletonlab, name) for name in singletonlab.__all__)
