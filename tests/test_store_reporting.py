from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletonlab.cli import main
from singletonlab.config import config_digest, config_snapshot, load_config, parse_config
from singletonlab.exec_harness import OutcomeLabel
from singletonlab.guidance import STRATEGY_KINDS, IterationRecord, RunRecord
from singletonlab.pattern_checker import PredicateReport, make_report
from singletonlab.reporting import build_summary, render
from singletonlab.runner import run_experiment
from singletonlab.store import (
    _TAIL_BLOCK,
    RunStore,
    StoreError,
    record_from_dict,
    record_to_dict,
)

from conftest import GOLDEN, MOCK_TASKS


def sample_record(
    model_id="m1",
    strategy_kind="baseline",
    task_id="Java/0",
    outcome_kind="Pass",
    conforming=False,
    category=None,
) -> RunRecord:
    report = make_report(conforming, conforming, conforming)
    return RunRecord(
        model_id=model_id,
        strategy_kind=strategy_kind,
        task_id=task_id,
        iterations=[
            IterationRecord(1, "prompt", "raw", "code", report, report.is_singleton())
        ],
        selected_candidate="code",
        selected_iteration=1,
        singleton_score=100.0 if conforming else 0.0,
        functional_outcome=OutcomeLabel(outcome_kind, "detail", category),
        wall_time_ms=12,
        config_digest="digest",
    )


# --- stored formats: the bytes a store holds ----------------------------------------


def line_of(record: RunRecord) -> str:
    """A record as RunStore.append writes it, without the newline."""
    return json.dumps(record_to_dict(record), sort_keys=True)


def test_every_golden_record_line_roundtrips_byte_identically():
    paths = sorted(GOLDEN.glob("**/*.jsonl"))
    lines = [line for path in paths for line in path.read_text("utf-8").splitlines()]
    assert len(lines) == 216
    for line in lines:
        assert line_of(record_from_dict(json.loads(line))) == line


def test_an_older_line_without_compile_error_category_loads_with_none():
    data = record_to_dict(sample_record(outcome_kind="CompileError", category="non_code_output"))
    del data["functional_outcome"]["compile_error_category"]
    record = record_from_dict(json.loads(json.dumps(data)))
    assert record.functional_outcome == OutcomeLabel("CompileError", "detail", None)


def test_a_line_with_an_unknown_key_loads():
    data = record_to_dict(sample_record())
    data["added_later"] = {"x": 1}
    data["iterations"][0]["added_later"] = 2
    data["functional_outcome"]["added_later"] = 3
    assert record_from_dict(json.loads(json.dumps(data))) == sample_record()


@pytest.mark.parametrize(
    "line",
    [
        "[]",
        '"text"',
        '{"model_id": "m1", "strategy_kind": "baseline", "task_id": 7, "iterations": 5}',
        '{"model_id": "m1", "strategy_kind": "baseline", "task_id": "T", "iterations": [{}]}',
        '{"model_id": "m1", "strategy_kind": "baseline", "task_id": "T", "functional_outcome": "Pass"}',
    ],
)
def test_a_line_of_the_wrong_shape_names_file_and_line(tmp_path, line):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    path.write_text(line_of(sample_record()) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(StoreError, match="line 2"):
        store.load_records("m1", "baseline")


TEXT = st.text(max_size=12) | st.sampled_from(["café", "✓ \U0001f600", "a\r\nb\x00"])
RECORDS = st.builds(
    RunRecord,
    model_id=TEXT,
    strategy_kind=TEXT,
    task_id=TEXT,
    iterations=st.lists(
        st.builds(
            IterationRecord,
            index=st.integers(1, 10),
            prompt_sent=TEXT,
            raw_response=TEXT,
            extracted_code=TEXT,
            predicate_report=st.builds(
                PredicateReport,
                st.booleans(),
                st.booleans(),
                st.booleans(),
                st.lists(TEXT, max_size=3).map(tuple),
            ),
            conforming=st.booleans(),
        ),
        max_size=10,
    ),
    selected_candidate=TEXT,
    selected_iteration=st.integers(0, 10),
    singleton_score=st.floats(allow_nan=False, allow_infinity=False),
    functional_outcome=st.none() | st.builds(OutcomeLabel, TEXT, TEXT, st.none() | TEXT),
    wall_time_ms=st.integers(0, 10**9),
    config_digest=TEXT,
)


@settings(max_examples=150, deadline=None)
@given(record=RECORDS)
def test_generated_records_roundtrip_through_their_line(record):
    line = line_of(record)
    loaded = record_from_dict(json.loads(line))
    assert loaded == record
    assert line_of(loaded) == line


PINNED_CONFIG = {
    "run_id": "pinned",
    "dataset": {"path": "tasks.jsonl", "field_map": {"description": "text"}},
    "output_dir": "runs/pinned",
    "models": [
        {"model_id": "endpoint-m", "endpoint": "http://127.0.0.1:9/v1/chat/completions",
         "auth_ref": "PINNED_KEY", "temperature": 0.5, "max_tokens": 512, "timeout_s": 9, "seed": 3},
        {"model_id": "scripted-m", "script": {"tasks": {"Java/0": ["class A {}"]}, "default": ["café"]}},
    ],
    "strategies": ["baseline", {"kind": "instruct", "max_iterations": 4}, "binary_feedback",
                   "predicate_feedback", "fewshot_feedback"],
    "iteration_cap": 6,
    "exec": {"mode": "mock", "budget_s": 12, "javac": "javac-17", "java": "java",
             "test_adaptation": True, "workers": 3},
    "parallelism": {"tasks": 2, "per_endpoint": 5},
    "seed": 11,
    "retries": 2,
    "backoff_s": 0.25,
}
PINNED_DIGEST = "8fba5beb32c51c90"
PINNED_CONFIG_JSON = r"""{
  "config": {
    "backoff_s": 0.25,
    "dataset_path": "/pinned/tasks.jsonl",
    "exec": {
      "budget_s": 12,
      "java": "java",
      "javac": "javac-17",
      "mode": "mock",
      "test_adaptation": true,
      "workers": 3
    },
    "field_map": {
      "description": "text"
    },
    "iteration_cap": 6,
    "models": [
      {
        "auth_ref": "PINNED_KEY",
        "endpoint": "http://127.0.0.1:9/v1/chat/completions",
        "max_tokens": 512,
        "model_id": "endpoint-m",
        "script": null,
        "seed": 3,
        "temperature": 0.5,
        "timeout_s": 9
      },
      {
        "auth_ref": null,
        "endpoint": null,
        "max_tokens": 4096,
        "model_id": "scripted-m",
        "script": {
          "default": [
            "caf\u00e9"
          ],
          "tasks": {
            "Java/0": [
              "class A {}"
            ]
          }
        },
        "seed": 11,
        "temperature": 0.2,
        "timeout_s": 60
      }
    ],
    "output_dir": "/pinned/runs/pinned",
    "parallelism": {
      "per_endpoint": 5,
      "tasks": 2
    },
    "retries": 2,
    "run_id": "pinned",
    "seed": 11,
    "strategies": [
      {
        "exemplars": [],
        "kind": "baseline",
        "max_iterations": 1
      },
      {
        "exemplars": [],
        "kind": "instruct",
        "max_iterations": 4
      },
      {
        "exemplars": [],
        "kind": "binary_feedback",
        "max_iterations": 6
      },
      {
        "exemplars": [],
        "kind": "predicate_feedback",
        "max_iterations": 6
      },
      {
        "exemplars": [
          "public final class AppConfig {\n    private static final AppConfig INSTANCE = new AppConfig();\n\n    private AppConfig() {\n    }\n\n    public static AppConfig getInstance() {\n        return INSTANCE;\n    }\n}",
          "public class ConnectionPool {\n    private static ConnectionPool instance;\n\n    private ConnectionPool() {\n    }\n\n    public static synchronized ConnectionPool getInstance() {\n        if (instance == null) {\n            instance = new ConnectionPool();\n        }\n        return instance;\n    }\n}"
        ],
        "kind": "fewshot_feedback",
        "max_iterations": 6
      }
    ]
  },
  "config_digest": "8fba5beb32c51c90"
}
"""


def test_config_json_bytes_and_digest_are_pinned(tmp_path):
    """Every config section set; base_dir and exec.workers are fixed, so
    the bytes do not depend on the host."""
    snapshot = config_snapshot(parse_config(PINNED_CONFIG, base_dir=Path("/pinned")))
    assert config_digest(snapshot) == PINNED_DIGEST
    store = RunStore(tmp_path / "store")
    store.initialize(snapshot, config_digest(snapshot))
    assert store.config_path.read_text("utf-8") == PINNED_CONFIG_JSON


# --- store ------------------------------------------------------------------------


def test_store_append_and_load(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({"x": 1}, "d1")
    store.append(sample_record(task_id="Java/0"))
    store.append(sample_record(task_id="Java/1"))
    records = store.load_records("m1", "baseline")
    assert [r.task_id for r in records] == ["Java/0", "Java/1"]
    assert store.completed_task_ids("m1", "baseline") == {"Java/0", "Java/1"}


def test_store_rejects_mismatched_config(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({"x": 1}, "d1")
    with pytest.raises(StoreError, match="different config"):
        store.initialize({"x": 2}, "d2")
    store.initialize({"x": 1}, "d1")  # same digest is fine


def test_store_groups_by_model_and_strategy(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    store.append(sample_record(model_id="a", strategy_kind="baseline"))
    store.append(sample_record(model_id="a", strategy_kind="instruct"))
    store.append(sample_record(model_id="b", strategy_kind="baseline"))
    grouped = store.load_all()
    assert set(grouped) == {("a", "baseline"), ("a", "instruct"), ("b", "baseline")}


def test_store_corrupt_record_names_file_and_line(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    path.write_text('{"bad": true}\n', encoding="utf-8")
    with pytest.raises(StoreError, match="line 1"):
        store.load_records("m1", "baseline")


def test_store_ignores_and_truncates_torn_trailing_line(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    store.append(sample_record(task_id="Java/0"))
    path = store.record_path("m1", "baseline")
    intact = path.read_bytes()
    torn_line = json.dumps(record_to_dict(sample_record(task_id="Java/1")))
    path.write_bytes(intact + torn_line[:40].encode("utf-8"))
    assert [r.task_id for r in store.load_records("m1", "baseline")] == ["Java/0"]
    store.initialize({}, "d")  # resume: the torn bytes go
    assert path.read_bytes() == intact
    store.append(sample_record(task_id="Java/1"))
    assert store.completed_task_ids("m1", "baseline") == {"Java/0", "Java/1"}


def test_store_drops_a_torn_first_line(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    path.write_text('{"model_id": "m1", "strat', encoding="utf-8")
    assert store.load_records("m1", "baseline") == []
    store.initialize({}, "d")
    assert path.read_bytes() == b""


def test_run_resumes_after_torn_trailing_line(tmp_path):
    config = dataclasses.replace(
        load_config(GOLDEN / "config.json"), output_dir=str(tmp_path / "store")
    )
    store = run_experiment(config, log=lambda message: None)
    path = store.record_path("scripted-a", "instruct")
    before = store.load_records("scripted-a", "instruct")
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    run_experiment(config, log=lambda message: None)
    after = store.load_records("scripted-a", "instruct")
    assert [dataclasses.replace(r, wall_time_ms=0) for r in after] == [
        dataclasses.replace(r, wall_time_ms=0) for r in before
    ]


def test_append_writes_each_golden_record_as_its_asdict_line(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    expected: dict[str, str] = {}
    for path in sorted(GOLDEN.glob("**/*.jsonl")):
        for line in path.read_text("utf-8").splitlines():
            record = record_from_dict(json.loads(line))
            store.append(record)
            name = store.record_path(record.model_id, record.strategy_kind).name
            asdict_line = json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n"
            expected[name] = expected.get(name, "") + asdict_line
    assert {p.name: p.read_text("utf-8") for p in store.records_dir.glob("*.jsonl")} == expected


def test_append_refuses_a_value_that_is_neither_json_nor_a_dataclass(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    with pytest.raises(TypeError, match="object"):
        store.append(dataclasses.replace(sample_record(), selected_candidate=object()))
    assert not store.record_path("m1", "baseline").exists()


@pytest.mark.parametrize("intact_records", [0, 1])
def test_a_torn_tail_longer_than_a_block_is_cut(tmp_path, intact_records):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    intact = "".join(line_of(sample_record()) + "\n" for _ in range(intact_records)).encode()
    path.write_bytes(intact + b"x" * (3 * _TAIL_BLOCK + 7))
    assert len(store.load_records("m1", "baseline")) == intact_records
    store.initialize({}, "d")
    assert path.read_bytes() == intact


def test_invalid_utf8_in_a_middle_line_names_file_and_line(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    lines = [line_of(sample_record(task_id=f"Java/{i}")).encode() for i in range(3)]
    lines[1] = lines[1].replace(b'"raw"', b'"r\xffw"')
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(StoreError) as raised:
        store.load_records("m1", "baseline")
    assert f"{path} line 2" in str(raised.value)


def test_a_carriage_return_inside_a_line_does_not_split_it(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    first, second = sample_record(task_id="Java/0"), sample_record(task_id="Java/1")
    # a \r between tokens is JSON whitespace; read as a line break, it splits line 1
    path.write_bytes(("{\r" + line_of(first)[1:] + "\n" + line_of(second) + "\n").encode())
    assert store.load_records("m1", "baseline") == [first, second]
    assert store.completed_task_ids("m1", "baseline") == {"Java/0", "Java/1"}


def test_model_id_sanitized_for_filenames(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    record = sample_record(model_id="org/model:7b")
    store.append(record)
    assert store.load_records("org/model:7b", "baseline") == [record]
    assert "/" not in store.record_path("org/model:7b", "baseline").name.replace(
        store.records_dir.name, ""
    )


# --- summary + rendering -------------------------------------------------------------


def populated_store(tmp_path) -> RunStore:
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    # model m1: baseline 10/20 pass, strategy 15/20 pass with b=1, c=6
    for i in range(20):
        base_kind = "Pass" if i < 10 else "TestFail"
        store.append(
            sample_record(
                model_id="m1",
                strategy_kind="baseline",
                task_id=f"Java/{i}",
                outcome_kind=base_kind,
            )
        )
    # pairs: 9 both-pass, 1 baseline-only (task 9), 6 strategy-only (10..15)
    for i in range(20):
        if i < 9 or 10 <= i < 16:
            kind = "Pass"
        else:
            kind = "TestFail"
        store.append(
            sample_record(
                model_id="m1",
                strategy_kind="binary_feedback",
                task_id=f"Java/{i}",
                outcome_kind=kind,
                conforming=True,
            )
        )
    return store


def test_summary_delta_and_mcnemar(tmp_path):
    summary = build_summary(populated_store(tmp_path))
    assert summary["strategy_order"] == ["baseline", "binary_feedback"]
    model = summary["models"][0]
    assert model["baseline_pass_rate"] == 50.0
    cell = next(c for c in model["strategies"] if c["kind"] == "binary_feedback")
    assert cell["pass_rate"] == 75.0
    assert cell["delta_pp"] == 25.0
    result = cell["mcnemar"]
    assert (result["b"], result["c"]) == (1, 6)
    assert result["method"] == "exact_binomial"
    assert result["p_value"] == pytest.approx(0.125, abs=1e-12)
    assert result["stars"] == ""


def test_models_sorted_by_descending_baseline_rate(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    for model_id, passes in (("low", 1), ("high", 3), ("mid", 2)):
        for i in range(4):
            store.append(
                sample_record(
                    model_id=model_id,
                    task_id=f"Java/{i}",
                    outcome_kind="Pass" if i < passes else "TestFail",
                )
            )
    summary = build_summary(store)
    assert [m["model_id"] for m in summary["models"]] == ["high", "mid", "low"]


def test_tied_baselines_sort_by_model_id(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    for model_id in ("zeta", "alpha"):
        store.append(sample_record(model_id=model_id, outcome_kind="Pass"))
    summary = build_summary(store)
    assert [m["model_id"] for m in summary["models"]] == ["alpha", "zeta"]


def test_outcome_breakdown_counts_categories(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    specs = [
        ("Java/0", "Pass", None),
        ("Java/1", "TestFail", None),
        ("Java/2", "CompileError", "non_code_output"),
        ("Java/3", "CompileError", "missing_external_library"),
        ("Java/4", "Timeout", None),
        ("Java/5", "Aborted", None),
    ]
    for task_id, kind, category in specs:
        store.append(sample_record(task_id=task_id, outcome_kind=kind, category=category))
    summary = build_summary(store)
    outcome = summary["models"][0]["strategies"][0]["outcomes"]
    assert outcome["Pass"] == 1
    assert outcome["TestFail"] == 1
    assert outcome["CompileError"] == 2
    assert outcome["Timeout"] == 1
    assert outcome["Aborted"] == 1
    assert outcome["compile_error_categories"]["non_code_output"] == 1
    assert outcome["compile_error_categories"]["missing_external_library"] == 1


FULL, NONE, TWO_THIRDS = (True, True, True), (False, False, False), (True, False, True)


@pytest.mark.parametrize(
    "verdicts, expected, rounded",
    [
        ([FULL] * 3, 100.0, 100.0),
        ([FULL, NONE], 50.0, 50.0),
        # 163 perfect plus one at 66.67: frozen against direct arithmetic mean
        ([FULL] * 163 + [TWO_THIRDS], (163 * 100.0 + 200 / 3) / 164, 99.797),
    ],
    ids=["three-full", "full-and-none", "163-full-and-one-two-thirds"],
)
def test_avg_singleton_score_is_the_mean_over_selected_reports(tmp_path, verdicts, expected, rounded):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    for i, verdict in enumerate(verdicts):
        record = sample_record(task_id=f"Java/{i}")
        report = make_report(*verdict)
        record.iterations[0].predicate_report = report
        record.iterations[0].conforming = report.is_singleton()
        store.append(record)
    [cell] = build_summary(store)["models"][0]["strategies"]
    assert cell["avg_singleton_score"] == pytest.approx(expected, abs=1e-12)
    assert cell["avg_singleton_score"] == pytest.approx(rounded, abs=5e-4)


def test_identical_arms_have_zero_delta_no_stars(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    for kind in ("baseline", "instruct"):
        for i in range(6):
            store.append(
                sample_record(
                    strategy_kind=kind,
                    task_id=f"Java/{i}",
                    outcome_kind="Pass" if i % 2 else "TestFail",
                )
            )
    summary = build_summary(store)
    cell = next(
        c
        for c in summary["models"][0]["strategies"]
        if c["kind"] == "instruct"
    )
    assert cell["delta_pp"] == 0.0
    assert cell["mcnemar"]["stars"] == ""
    assert cell["mcnemar"]["p_value"] == 1.0


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        render(build_summary(populated_store(tmp_path)), "xml")


def test_a_record_moved_to_another_file_is_a_store_error_naming_file_and_line(tmp_path):
    store = populated_store(tmp_path)
    baseline = store.record_path("m1", "baseline")
    first, *rest = baseline.read_text("utf-8").splitlines(keepends=True)
    baseline.write_text("".join(rest), encoding="utf-8")
    feedback = store.record_path("m1", "binary_feedback")
    with feedback.open("a", encoding="utf-8") as fh:
        fh.write(first)
    with pytest.raises(StoreError, match="misplaced record") as raised:
        build_summary(store)
    assert f"{feedback} line 21" in str(raised.value)


# --- one arm per records file: resume and report read the same arms -----------------


def golden_config_file(tmp_path) -> Path:
    """The golden config as `run --config` reads it, its store in tmp_path."""
    raw = json.loads((GOLDEN / "config.json").read_text("utf-8"))
    raw["dataset"]["path"] = str(MOCK_TASKS)
    raw["output_dir"] = str(tmp_path / "store")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def store_bytes(store: RunStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in store.records_dir.glob("*.jsonl")}


def no_chat_requests(*args):
    raise AssertionError("a cell ran")


@pytest.fixture()
def moved_record(tmp_path, monkeypatch) -> tuple[Path, RunStore, str]:
    """A golden run whose baseline Java/0 record of scripted-a has taken the
    place of the Java/0 line in the model's binary_feedback file: the config,
    the store and where the record now is. Cells can no longer run."""
    config = golden_config_file(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    store = RunStore(tmp_path / "store")
    baseline = store.record_path("scripted-a", "baseline")
    feedback = store.record_path("scripted-a", "binary_feedback")
    moved, *kept = baseline.read_bytes().splitlines(keepends=True)
    baseline.write_bytes(b"".join(kept))
    feedback.write_bytes(moved + b"".join(feedback.read_bytes().splitlines(keepends=True)[1:]))
    monkeypatch.setattr("singletonlab.runner._run_one", no_chat_requests)
    return config, store, f"{feedback} line 1"


def test_resume_refuses_a_moved_record_before_any_chat_request(moved_record, capsys):
    config, store, where = moved_record
    before = store_bytes(store)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert where in capsys.readouterr().err
    assert store_bytes(store) == before


def test_report_refuses_a_moved_record(moved_record, capsys):
    _, store, where = moved_record
    capsys.readouterr()
    assert main(["report", str(store.root)]) == 2
    assert where in capsys.readouterr().err


def test_a_task_repeated_in_an_arm_is_refused_by_resume_and_report(tmp_path, monkeypatch, capsys):
    config = golden_config_file(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    store = RunStore(tmp_path / "store")
    path = store.record_path("scripted-a", "baseline")
    path.write_bytes(path.read_bytes() + path.read_bytes().splitlines(keepends=True)[0])
    monkeypatch.setattr("singletonlab.runner._run_one", no_chat_requests)
    capsys.readouterr()
    for argv in (["run", "--config", str(config)], ["report", str(store.root)]):
        assert main(argv) == 2
        assert f"repeated task 'Java/0' in {path} line 6" in capsys.readouterr().err


def test_two_arms_that_share_a_file_are_a_store_error(tmp_path):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("org-m", "baseline")
    path.write_text(
        line_of(sample_record(model_id="org-m")) + "\n" + line_of(sample_record(model_id="org/m")) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(StoreError, match="misplaced record") as raised:
        store.load_records("org-m", "baseline")
    assert f"{path} line 2" in str(raised.value)


def test_model_ids_that_extend_one_another_keep_their_own_arms(tmp_path, monkeypatch):
    """Store names a__kind, a__b__kind and a___kind: each file is read as its
    own model's arm and paired with that model's baseline."""
    passing, failing = "class A {}", "// MOCK-FAIL\nclass A {}"
    singleton = (
        "class A { private static A instance; private A() {} public static A getInstance() "
        "{ if (instance == null) { instance = new A(); } return instance; } }"
    )
    scripts = {
        "a": {"default": [passing, singleton]},
        "a__b": {"default": [failing, singleton]},
        "a_": {"tasks": {"Java/0": [failing, singleton], "Java/1": [failing, singleton]},
               "default": [passing, singleton]},
    }
    config = parse_config(
        {
            "run_id": "prefixes",
            "dataset": str(MOCK_TASKS),
            "output_dir": str(tmp_path / "store"),
            "models": [{"model_id": m, "script": script} for m, script in scripts.items()],
            "strategies": list(STRATEGY_KINDS),
            "exec": {"mode": "mock"},
        }
    )
    store = run_experiment(config, log=lambda message: None)
    summary = build_summary(store)
    baselines = {model["model_id"]: model["baseline_pass_rate"] for model in summary["models"]}
    assert baselines == {"a": 100.0, "a__b": 0.0, "a_": 60.0}
    for model in summary["models"]:
        assert [cell["kind"] for cell in model["strategies"]] == list(STRATEGY_KINDS)
        for cell in model["strategies"]:
            assert cell["n_tasks"] == 5
            if cell["kind"] != "baseline":
                assert cell["delta_pp"] == cell["pass_rate"] - baselines[model["model_id"]]
    monkeypatch.setattr("singletonlab.runner._run_one", no_chat_requests)
    logged: list[str] = []
    run_experiment(config, log=logged.append)
    assert logged == [
        f"{m}/{kind}: 5 record(s) already present, 0 to run" for m in scripts for kind in STRATEGY_KINDS
    ]


# --- memory: readers hold one arm at a time ------------------------------------------


@pytest.fixture(scope="module")
def padded_store(tmp_path_factory) -> RunStore:
    """2 models x every strategy x 40 tasks, each record carrying ~20 KB of text."""
    store = RunStore(tmp_path_factory.mktemp("padded") / "store")
    store.initialize({}, "d")
    for model_id in ("m0", "m1"):
        for kind in STRATEGY_KINDS:
            for i in range(40):
                record = sample_record(
                    model_id=model_id,
                    strategy_kind=kind,
                    task_id=f"Java/{i}",
                    outcome_kind="Pass" if i % 3 else "TestFail",
                )
                record.iterations[0].raw_response = f"{model_id} {kind} {i} " + "x" * 20_000
                store.append(record)
    return store


def traced_peak(call) -> tuple[int, int]:
    """(memory still held after call(), peak during it), in bytes above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return held - start, peak - start


def test_build_summary_holds_a_baseline_and_one_more_arm(padded_store):
    arm_bytes, _ = traced_peak(lambda: padded_store.load_records("m0", "baseline"))
    assert arm_bytes > 40 * 20_000
    _, peak = traced_peak(lambda: build_summary(padded_store))
    assert peak < 3 * arm_bytes


def test_completed_task_ids_holds_one_record_at_a_time(padded_store):
    arm_bytes, _ = traced_peak(lambda: padded_store.load_records("m0", "instruct"))
    _, peak = traced_peak(lambda: padded_store.completed_task_ids("m0", "instruct"))
    assert peak < arm_bytes / 4
