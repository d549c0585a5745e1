"""Each distinct candidate text is parsed once per process.

`run_task` parses every iteration's candidate; the selected candidate's
evaluation (`mock_evaluate`, test adaptation, `classify_compile_error`)
parses it again by name and gets the memo's answer, and so does a later
arm whose first turn brings a byte-identical candidate. So the parser
itself runs once per distinct text, and never under evaluation.
"""

from __future__ import annotations

import functools
import json
import threading

import pytest

from singletonlab import guidance, runner, source_model
from singletonlab.config import load_config, parse_config
from singletonlab.dataset import load_tasks
from singletonlab.exec_harness import COMPILE_ERROR, PASS
from singletonlab.runner import run_experiment

from conftest import JDK_TASKS, MOCK_SCRIPT, MOCK_TASKS, find_jdk, requires_jdk

SINGLETON_SOLUTION = """\
class Solution {
    private static Solution instance;
    private Solution() {}
    public static Solution getInstance() {
        if (instance == null) { instance = new Solution(); }
        return instance;
    }
    public int add(int a, int b) { return a + b; }
}
"""


@pytest.fixture
def parses(monkeypatch) -> list[tuple[str, bool]]:
    """One entry per text the parser itself parsed, behind an empty memo of
    the same bound: the text, and whether the runner's evaluation
    (`mock_evaluate` or `evaluate_functionality`) asked for it."""
    calls: list[tuple[str, bool]] = []
    evaluating = threading.local()
    parse = source_model._parse.__wrapped__

    def counted(source_text):
        calls.append((source_text, getattr(evaluating, "active", False)))
        return parse(source_text)

    def traced(evaluate):
        def traced_evaluate(*args, **kwargs):
            evaluating.active = True
            try:
                return evaluate(*args, **kwargs)
            finally:
                evaluating.active = False

        return traced_evaluate

    bound = source_model._parse.cache_info().maxsize
    monkeypatch.setattr(source_model, "_parse", functools.lru_cache(maxsize=bound)(counted))
    for name in ("mock_evaluate", "evaluate_functionality"):
        monkeypatch.setattr(runner, name, traced(getattr(runner, name)))
    return calls


def candidate_texts(store) -> list[str]:
    """Every iteration's candidate, in every record of every arm."""
    return [
        iteration.extracted_code
        for records in store.load_all().values()
        for record in records
        for iteration in record.iterations
    ]


def test_a_mock_run_parses_each_distinct_candidate_once(tmp_path, parses):
    config = {
        "run_id": "parse-once",
        "dataset": {"path": str(MOCK_TASKS)},
        "output_dir": str(tmp_path / "store"),
        "models": [{"model_id": "scripted-model", "script_path": str(MOCK_SCRIPT)}],
        "strategies": list(guidance.STRATEGY_KINDS),
        "exec": {"mode": "mock"},
        "parallelism": {"tasks": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    loaded = load_config(path)  # verifies the few-shot exemplars
    load_tasks(MOCK_TASKS)  # the run's own load finds the declarations parsed
    parses.clear()
    store = run_experiment(loaded, log=lambda message: None)
    candidates = candidate_texts(store)
    assert len(candidates) > len(guidance.STRATEGY_KINDS) * 5  # feedback loops ran
    assert len(set(candidates)) < len(candidates)  # arms repeat candidates
    assert sorted(text for text, _ in parses) == sorted(set(candidates))
    assert not any(evaluating for _, evaluating in parses)


@requires_jdk
def test_a_jdk_run_with_test_adaptation_parses_each_distinct_candidate_once(tmp_path, parses):
    rows = [json.loads(line) for line in JDK_TASKS.read_text("utf-8").splitlines()][:2]
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    first, second = load_tasks(dataset)
    plain = first.declaration + rows[0]["canonical_solution"]
    broken = "class Solution { int f() { return 1 + ; } }"
    javac, java = find_jdk()
    config = parse_config({
        "run_id": "parse-once",
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "store"),
        "models": [{"model_id": "scripted", "script": {"tasks": {
            # conforms at the second iteration, and passes only with adapted tests
            first.task_id: [plain, SINGLETON_SOLUTION],
            # never conforms and never compiles
            second.task_id: [broken] * 3,
        }}}],
        "strategies": ["baseline", "predicate_feedback"],
        "iteration_cap": 3,
        "exec": {"mode": "jdk", "javac": javac, "java": java, "workers": 2, "test_adaptation": True},
        "parallelism": {"tasks": 2},
    })
    parses.clear()
    store = run_experiment(config, log=lambda message: None)
    outcomes = {
        (r.strategy_kind, r.task_id): r.functional_outcome.kind
        for records in store.load_all().values()
        for r in records
    }
    assert outcomes[("predicate_feedback", first.task_id)] == PASS
    assert outcomes[("predicate_feedback", second.task_id)] == COMPILE_ERROR
    assert len(candidate_texts(store)) == 1 + 1 + 2 + 3
    assert sorted(text for text, _ in parses) == sorted({plain, SINGLETON_SOLUTION, broken})
    assert not any(evaluating for _, evaluating in parses)
