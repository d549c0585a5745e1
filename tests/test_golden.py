"""Golden gate: a fixed scripted run must reproduce committed records and reports.

`fixtures/golden/config.json` drives two scripted models through all five
strategies over `tasks_mock.jsonl`. The first model's script for Java/3 runs
dry before the iteration cap, so its feedback cells are Aborted. The goldens
under `fixtures/golden/records/` and `fixtures/golden/report.*` were written
by `python tests/test_golden.py`; rerun it only for a change that is meant to
alter records or reports, and review the diff it leaves.

Records are compared line by line, so file order (dataset order) counts.
`wall_time_ms` is zeroed, and `config_digest` is checked against the store's
own digest and then blanked, because the digest hashes the absolute dataset
path of the checkout.

`fixtures/golden/branches/` is a records-only store built by
`branch_records()` to reach every report formatting branch: chi-square and
exact McNemar rows at every star level, each compile-error category,
Timeout/Aborted/missing outcomes, candidates with no class, a model id with
`/`, a model without a baseline and a model missing strategies. Its reports
must also come out the same when rendered from the JSON summary.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

from singletonlab.config import load_config
from singletonlab.exec_harness import (
    ABORTED,
    COMPILE_ERROR,
    MISSING_EXTERNAL_LIBRARY,
    NON_CODE_OUTPUT,
    OTHER_COMPILE_ERROR,
    PASS,
    TEST_FAIL,
    TIMEOUT,
    OutcomeLabel,
)
from singletonlab.guidance import STRATEGY_KINDS, IterationRecord, RunRecord
from singletonlab.pattern_checker import make_report, singleton_score
from singletonlab.reporting import FORMATS, build_summary, render
from singletonlab.runner import run_experiment
from singletonlab.store import RunStore

from conftest import GOLDEN


def run_golden(output_dir: Path, task_parallelism: int) -> RunStore:
    config = load_config(GOLDEN / "config.json")
    parallelism = dataclasses.replace(config.parallelism, tasks=task_parallelism)
    config = dataclasses.replace(config, output_dir=str(output_dir), parallelism=parallelism)
    return run_experiment(config, log=lambda message: None)


def normalized_records(store: RunStore) -> dict[str, str]:
    digest = store.load_snapshot()["config_digest"]
    files = {}
    for path in sorted(store.records_dir.glob("*.jsonl")):
        lines = []
        for line in path.read_text("utf-8").splitlines():
            data = json.loads(line)
            assert data["config_digest"] == digest
            data["config_digest"] = ""
            data["wall_time_ms"] = 0
            lines.append(json.dumps(data, sort_keys=True) + "\n")
        files[path.name] = "".join(lines)
    return files


def reports(summary: dict) -> dict[str, str]:
    return {f"report.{fmt}": render(summary, fmt) for fmt in FORMATS}


FAIL_OUTCOMES = (
    OutcomeLabel(TEST_FAIL, "assertion failed"),
    OutcomeLabel(COMPILE_ERROR, "package org.acme does not exist", MISSING_EXTERNAL_LIBRARY),
    OutcomeLabel(COMPILE_ERROR, "no code", NON_CODE_OUTPUT),
    OutcomeLabel(COMPILE_ERROR, "';' expected", OTHER_COMPILE_ERROR),
    OutcomeLabel(COMPILE_ERROR, "legacy record"),
    OutcomeLabel(TIMEOUT, "budget exceeded"),
)


def _branch_record(model_id: str, arm: int, task: int, outcome: OutcomeLabel | None) -> RunRecord:
    kind = STRATEGY_KINDS[arm]
    record = RunRecord(model_id, kind, f"T/{task:02d}", functional_outcome=outcome)
    if task % 9 == 4:  # no class in the reply: nothing selected
        return record
    report = make_report(
        (task + arm) % 2 == 0, (task + 2 * arm) % 3 != 0, (task * (arm + 1)) % 5 != 0
    )
    code = f"class Solution{task} {{}}"
    record.iterations = [
        IterationRecord(1, f"prompt {task}", f"```java\n{code}\n```", code, report, report.is_singleton())
    ]
    record.selected_candidate = code
    record.selected_iteration = 1
    record.singleton_score = singleton_score(report)
    return record


def branch_records() -> list[RunRecord]:
    """Records for `fixtures/golden/branches/`; see the module docstring."""
    records = []
    # "acme/chi-7b", 30 tasks: the baseline passes T/00-T/07, fails T/08-T/27
    # and aborts T/28-T/29. Each other arm loses its first b baseline passes
    # and wins its first c baseline failures; (b, c) picks the McNemar method
    # and star level.
    discordant = {0: (0, 0), 1: (5, 20), 2: (0, 11), 3: (1, 9), 4: (8, 17)}
    for arm in range(5):
        b, c = discordant[arm]
        for task in range(30):
            fail = FAIL_OUTCOMES[(task + arm) % len(FAIL_OUTCOMES)]
            if arm == 0 and task == 28:
                outcome = None
            elif task == 29 or (arm == 3 and task == 27):
                outcome = OutcomeLabel(ABORTED, "script exhausted")
            elif task < 8:
                outcome = OutcomeLabel(PASS) if task >= b else fail
            else:
                outcome = OutcomeLabel(PASS) if task - 8 < c else fail
            records.append(_branch_record("acme/chi-7b", arm, task, outcome))
    # No baseline arm, and only two strategies.
    for arm in (1, 4):
        for task in range(4):
            outcome = OutcomeLabel(PASS) if task == arm else FAIL_OUTCOMES[(task + arm) % 6]
            records.append(_branch_record("beta/no-baseline", arm, task, outcome))
    # A baseline and one strategy that does worse.
    for arm, passes in ((0, 2), (3, 1)):
        for task in range(4):
            outcome = OutcomeLabel(PASS) if task < passes else FAIL_OUTCOMES[5 - task]
            records.append(_branch_record("gamma-3", arm, task, outcome))
    return records


def read_golden(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text("utf-8") for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("task_parallelism", [1, 3])
def test_golden_records_and_reports(tmp_path, task_parallelism):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside each cell
    try:
        store = run_golden(tmp_path / "store", task_parallelism)
    finally:
        sys.setswitchinterval(interval)
    assert normalized_records(store) == read_golden(GOLDEN / "records")
    expected_reports = {
        name: text for name, text in read_golden(GOLDEN).items() if name.startswith("report.")
    }
    assert reports(build_summary(store)) == expected_reports


@pytest.mark.parametrize("name", ["branches"])
def test_golden_reports_from_records(name):
    directory = GOLDEN / name
    expected = {n: text for n, text in read_golden(directory).items() if n.startswith("report.")}
    summary = build_summary(RunStore(directory))
    assert reports(summary) == expected
    assert reports(json.loads(render(summary, "json"))) == expected


def test_golden_fixture_has_an_aborted_cell():
    lines = "".join(read_golden(GOLDEN / "records").values()).splitlines()
    outcomes = [(json.loads(line)["functional_outcome"] or {}).get("kind") for line in lines]
    assert "Aborted" in outcomes
    strategies = {json.loads(line)["strategy_kind"] for line in lines}
    assert len(strategies) == 5


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = run_golden(Path(tmp) / "store", 1)
        records_dir = GOLDEN / "records"
        records_dir.mkdir(exist_ok=True)
        for old in records_dir.glob("*.jsonl"):
            old.unlink()
        for name, text in normalized_records(store).items():
            (records_dir / name).write_text(text, encoding="utf-8", newline="")
        for name, text in reports(build_summary(store)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8", newline="")
    branches = RunStore(GOLDEN / "branches")
    branches.records_dir.mkdir(parents=True, exist_ok=True)
    for old in branches.records_dir.glob("*.jsonl"):
        old.unlink()
    for record in branch_records():
        branches.append(record)
    for name, text in reports(build_summary(branches)).items():
        (branches.root / name).write_text(text, encoding="utf-8", newline="")


if __name__ == "__main__":
    regenerate()
