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
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

from singletonlab.config import load_config
from singletonlab.reporting import FORMATS, build_summary, render
from singletonlab.runner import run_experiment
from singletonlab.store import RunStore

from conftest import GOLDEN


def run_golden(output_dir: Path, task_parallelism: int) -> RunStore:
    config = load_config(GOLDEN / "config.json")
    config = dataclasses.replace(
        config, output_dir=str(output_dir), task_parallelism=task_parallelism
    )
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


def reports(store: RunStore) -> dict[str, str]:
    summary = build_summary(store)
    return {f"report.{fmt}": render(summary, fmt) for fmt in FORMATS}


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
    assert reports(store) == expected_reports


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
        for name, text in reports(store).items():
            (GOLDEN / name).write_text(text, encoding="utf-8", newline="")


if __name__ == "__main__":
    regenerate()
