from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import tempfile
import threading
from pathlib import Path

import pytest

from singletonlab.cli import main
from singletonlab.config import ConfigError, ModelSpec, Parallelism, load_config, parse_config, script_responses
from singletonlab.runner import run_experiment
from singletonlab.store import RunStore

from conftest import CORPUS_DIR, GOLDEN, MOCK_SCRIPT, MOCK_TASKS, StubHandler

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, **overrides) -> str:
    config = {
        "run_id": "t1",
        "dataset": {"path": str(MOCK_TASKS)},
        "output_dir": str(tmp_path / "store"),
        "models": [
            {"model_id": "scripted-model", "script_path": str(MOCK_SCRIPT)}
        ],
        "strategies": ["baseline", "binary_feedback"],
        "exec": {"mode": "mock"},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


# --- config parsing -----------------------------------------------------------


def test_load_config_happy_path(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.run_id == "t1"
    assert [m.model_id for m in config.models] == ["scripted-model"]
    assert [s.kind for s in config.strategies] == ["baseline", "binary_feedback"]
    assert config.exec.mode == "mock"


def test_config_requires_models(tmp_path):
    with pytest.raises(ConfigError, match="models"):
        load_config(write_config(tmp_path, models=[]))


def test_config_rejects_unknown_strategy(tmp_path):
    with pytest.raises(ConfigError, match="strategy kind"):
        load_config(write_config(tmp_path, strategies=["zero_shot"]))


def test_config_rejects_bad_exec_mode(tmp_path):
    with pytest.raises(ConfigError, match="exec.mode"):
        load_config(write_config(tmp_path, exec={"mode": "imagination"}))


def test_config_model_needs_endpoint_or_script(tmp_path):
    with pytest.raises(ConfigError, match="endpoint or a script"):
        load_config(write_config(tmp_path, models=[{"model_id": "m"}]))


def test_the_readme_config_example_parses(tmp_path):
    section = README.read_text("utf-8").split("## Run configuration", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    (tmp_path / "script.json").write_text('["class A {}"]', encoding="utf-8")
    config = parse_config(example, base_dir=tmp_path)
    assert [m.model_id for m in config.models] == ["llama3.3-70b", "canned"]
    assert [m.seed for m in config.models] == [7, None]
    assert len(config.strategies) == 5 and config.exec.workers == 4
    assert config.output_dir == str(tmp_path / "runs" / "demo")


def test_fewshot_strategy_gets_default_exemplars(tmp_path):
    config = load_config(write_config(tmp_path, strategies=["fewshot_feedback"]))
    assert len(config.strategies[0].exemplars) == 2


def test_fewshot_strategy_with_explicit_exemplars(tmp_path):
    config = load_config(
        write_config(
            tmp_path,
            strategies=[
                {
                    "kind": "fewshot_feedback",
                    "exemplar_paths": [
                        str(CORPUS_DIR / "EagerSingleton.java"),
                        str(CORPUS_DIR / "LazySingleton.java"),
                    ],
                }
            ],
        )
    )
    assert "Registry" in config.strategies[0].exemplars[0]


def test_nonconforming_exemplar_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not a conforming Singleton"):
        load_config(
            write_config(
                tmp_path,
                strategies=[
                    {
                        "kind": "fewshot_feedback",
                        "exemplar_paths": [
                            str(CORPUS_DIR / "EnginePlain.java"),
                            str(CORPUS_DIR / "LazySingleton.java"),
                        ],
                    }
                ],
            )
        )


def test_script_responses_resolution():
    assert script_responses(["a", "b"], "Java/0") == ["a", "b"]
    assert script_responses({"tasks": {"Java/1": ["x"]}, "default": ["d"]}, "Java/1") == ["x"]
    assert script_responses({"tasks": {"Java/1": ["x"]}, "default": ["d"]}, "Java/9") == ["d"]
    assert script_responses({"Java/2": ["y"]}, "Java/2") == ["y"]
    with pytest.raises(ConfigError, match="no responses"):
        script_responses({"tasks": {}}, "Java/0")


# --- runner -----------------------------------------------------------------------


def test_rerun_is_idempotent(tmp_path):
    config = load_config(write_config(tmp_path))
    store = run_experiment(config, log=lambda m: None)
    before = {
        path.name: path.read_text("utf-8")
        for path in store.records_dir.glob("*.jsonl")
    }
    run_experiment(config, log=lambda m: None)
    after = {
        path.name: path.read_text("utf-8")
        for path in store.records_dir.glob("*.jsonl")
    }
    assert before == after  # no new records, byte-identical files


def test_a_run_on_a_store_another_run_holds_exits_2_and_appends_nothing(tmp_path, capsys, monkeypatch):
    config_path = write_config(tmp_path)
    config = load_config(config_path)
    store = RunStore(config.output_dir)
    held, release, interrupted = threading.Event(), threading.Event(), []
    append = RunStore.append

    def hold_after_the_first(self, record):
        append(self, record)
        if not held.is_set():
            held.set()
            release.wait(30)
            raise KeyboardInterrupt

    def holder_run():
        try:
            run_experiment(config, log=lambda m: None)
        except KeyboardInterrupt:
            interrupted.append(True)

    monkeypatch.setattr(RunStore, "append", hold_after_the_first)
    holder = threading.Thread(target=holder_run)
    holder.start()
    try:
        assert held.wait(30)
        before = {path.name: path.read_bytes() for path in store.records_dir.glob("*.jsonl")}
        assert main(["run", "--config", config_path]) == 2
        assert f"store {config.output_dir} is in use by another run" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in store.records_dir.glob("*.jsonl")} == before
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive() and interrupted
    assert sum(len(v) for v in store.load_all().values()) == 1
    monkeypatch.setattr(RunStore, "append", append)
    assert main(["run", "--config", config_path]) == 0  # the holder is gone: the run resumes
    grouped = store.load_all()
    assert [[r.task_id for r in grouped[key]] for key in sorted(grouped)] == [[f"Java/{i}" for i in range(5)]] * 2


def test_config_change_on_existing_store_is_rejected(tmp_path):
    config = load_config(write_config(tmp_path))
    run_experiment(config, log=lambda m: None)
    changed = load_config(write_config(tmp_path, iteration_cap=3))
    from singletonlab.store import StoreError

    with pytest.raises(StoreError, match="different config"):
        run_experiment(changed, log=lambda m: None)


def test_check_equals_stored_predicate_report(tmp_path):
    # the CLI checker and the run loop share one code path
    from singletonlab.guidance import assess_candidate
    from singletonlab.stats import selected_report

    config = load_config(write_config(tmp_path))
    store = run_experiment(config, log=lambda m: None)
    for records in store.load_all().values():
        for record in records:
            if not record.selected_candidate:
                continue
            fresh = assess_candidate(record.selected_candidate, "Solution")
            assert fresh == selected_report(record)


def test_unreachable_endpoint_records_aborted_without_stopping_others(tmp_path):
    config = load_config(
        write_config(
            tmp_path,
            models=[
                {"model_id": "dead", "endpoint": "http://127.0.0.1:9/v1", "timeout_s": 1},
                {"model_id": "scripted-model", "script_path": str(MOCK_SCRIPT)},
            ],
            strategies=["baseline"],
            retries=0,
            backoff_s=0.0,
        )
    )
    store = run_experiment(config, log=lambda m: None)
    grouped = store.load_all()
    dead_records = grouped[("dead", "baseline")]
    assert all(r.functional_outcome.kind == "Aborted" for r in dead_records)
    scripted_records = grouped[("scripted-model", "baseline")]
    assert len(scripted_records) == 5
    assert any(r.functional_outcome.kind == "Pass" for r in scripted_records)


def test_parallel_tasks_against_http_endpoint(tmp_path, stub_server):
    config = load_config(
        write_config(
            tmp_path,
            models=[{"model_id": "stub", "endpoint": stub_server}],
            strategies=["baseline"],
            parallelism={"tasks": 3, "per_endpoint": 2},
        )
    )
    store = run_experiment(config, log=lambda m: None)
    records = store.load_all()[("stub", "baseline")]
    assert {r.task_id for r in records} == {f"Java/{i}" for i in range(5)}
    assert all(r.functional_outcome is not None for r in records)


def test_a_reply_of_the_wrong_shape_aborts_its_cell_and_the_others_finish(tmp_path, stub_server):
    ok = {"choices": [{"message": {"role": "assistant", "content": "class A {}"}}]}
    StubHandler.document = lambda payload: (
        {"choices": None} if "(problem 2," in payload["messages"][1]["content"] else ok
    )
    config = load_config(
        write_config(
            tmp_path,
            models=[{"model_id": "stub", "endpoint": stub_server}],
            strategies=["baseline"],
            retries=1,
            backoff_s=0.0,
        )
    )
    store = run_experiment(config, log=lambda m: None)
    outcomes = {r.task_id: r.functional_outcome for r in store.load_records("stub", "baseline")}
    assert sorted(outcomes) == [f"Java/{i}" for i in range(5)]
    assert outcomes.pop("Java/2").kind == "Aborted"
    assert {outcome.kind for outcome in outcomes.values()} == {"Pass"}


def test_model_with_missing_credential_is_skipped(tmp_path, monkeypatch):
    monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
    config = load_config(
        write_config(
            tmp_path,
            models=[
                {"model_id": "scripted-model", "script_path": str(MOCK_SCRIPT)},
                {
                    "model_id": "remote",
                    "endpoint": "http://127.0.0.1:9/v1",
                    "auth_ref": "ABSENT_KEY_VAR",
                },
            ],
        )
    )
    logs: list[str] = []
    store = run_experiment(config, log=logs.append)
    grouped = store.load_all()
    assert all(model == "scripted-model" for model, _ in grouped)
    assert any("ABSENT_KEY_VAR" in line for line in logs)


# --- CLI ---------------------------------------------------------------------------


def test_cli_check_conforming_files_exit_zero(capsys):
    code = main(
        [
            "check",
            str(CORPUS_DIR / "EagerSingleton.java"),
            str(CORPUS_DIR / "LazySingleton.java"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "score 100.0" in out


def test_cli_check_nonconforming_exit_one(capsys):
    code = main(["check", str(CORPUS_DIR / "EnginePlain.java")])
    out = capsys.readouterr().out
    assert code == 1
    assert "score 0.0" in out
    assert "Private Constructor" in out


def test_cli_check_directory_mixed_exit_one(tmp_path, capsys):
    import shutil

    target = tmp_path / "mixed"
    target.mkdir()
    shutil.copy(CORPUS_DIR / "EagerSingleton.java", target / "Good.java")
    shutil.copy(CORPUS_DIR / "EnginePlain.java", target / "Bad.java")
    code = main(["check", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("score") == 2


def test_cli_check_json_output(capsys):
    code = main(["check", "--json", str(CORPUS_DIR / "EagerSingleton.java")])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["conforming"] is True
    assert rows[0]["singleton_score"] == 100.0


def test_cli_check_missing_path_exit_two(capsys):
    assert main(["check", "/nonexistent/path.java"]) == 2


def test_cli_check_directory_skips_java_paths_that_are_no_regular_file(tmp_path, capsys):
    target = tmp_path / "tree"
    (target / "Sub.java").mkdir(parents=True)
    shutil.copy(CORPUS_DIR / "EagerSingleton.java", target / "Good.java")
    shutil.copy(CORPUS_DIR / "LazySingleton.java", target / "Sub.java" / "Inner.java")
    (target / "Broken.java").symlink_to(tmp_path / "absent.java")
    code = main(["check", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        str(target / "Good.java"), str(target / "Sub.java" / "Inner.java")
    ]


def test_cli_check_unreadable_file_exit_two(tmp_path, capsys, monkeypatch):
    target = tmp_path / "tree"
    target.mkdir()
    shutil.copy(CORPUS_DIR / "EagerSingleton.java", target / "Good.java")
    shutil.copy(CORPUS_DIR / "EagerSingleton.java", target / "Locked.java")
    read_text = Path.read_text

    def locked(path, *args, **kwargs):  # file modes do not stop a root user
        if path.name == "Locked.java":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", locked)
    assert main(["check", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {target / 'Locked.java'}: Permission denied\n"


def test_cli_run_and_report(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", config_path]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "store"), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "scripted-model" in text
    assert "binary_feedback" in text


def test_cli_run_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        {"model_id": "m", "endpoint": "not a url"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "timeout_s": 0},
        {"model_id": "m", "script": "class A {}"},
        {"model_id": "m", "endpoint": "ftp://127.0.0.1/v1/chat"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:port/v1/chat"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "temperature": "nan"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "temperature": "-inf"},
        {"model_id": "m", "script": {"tasks": {"Java/0": "class A {}"}}},
        {"model_id": "m", "script": {"Java/0": ["class A {}"], "default": "class A {}"}},
        {"model_id": "m", "script": {"tasks": ["class A {}"]}},
        {"model_id": "m", "script": ["class A {}", 1]},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "max_tokens": True},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "timeout_s": 2.5},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "auth_ref": 5},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "seed": True},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "seed": 1.5},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "seed": "7"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "temperature": "0.5"},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "temperature": True},
        {"model_id": "m", "endpoint": "http://127.0.0.1:1/v1/chat", "timeout_s": 10**11},
    ],
    ids=[
        "endpoint", "timeout", "script-string", "endpoint-ftp", "endpoint-port", "temperature-nan",
        "temperature-infinity", "script-task-string", "script-default-string", "script-tasks-list",
        "script-number", "max-tokens-bool", "timeout-float", "auth-ref-number", "seed-bool",
        "seed-float", "seed-string", "temperature-string", "temperature-bool", "timeout-too-long",
    ],
)
def test_cli_run_rejects_bad_model_before_creating_store(tmp_path, capsys, model):
    config_path = write_config(tmp_path, models=[model])
    assert main(["run", "--config", config_path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "store" / "config.json").exists()


def test_cli_run_rejects_model_ids_that_share_a_records_file(tmp_path, capsys):
    # both would append to records/org-m__<strategy>.jsonl, and resume would skip one's cells
    models = [{"model_id": model_id, "script_path": str(MOCK_SCRIPT)} for model_id in ("org/m", "org-m")]
    assert main(["run", "--config", write_config(tmp_path, models=models)]) == 2
    assert "error: model_id values 'org/m' and 'org-m' share the store name 'org-m'" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"retries": -1},
        {"backoff_s": -1},
        {"backoff_s": float("nan")},
        {"parallelism": {"per_endpoint": 0}},
        {"parallelism": {"tasks": 0}},
        {"exec": {"mode": "mock", "workers": 0}},
        {"retries": float("inf")},
        {"exec": {"mode": "mock", "test_adaptation": "false"}},
        {"exec": {"mode": "mock", "javac": None}},
        {"exec": {"mode": "mock", "java": ""}},
        {"exec": {"mode": "mock", "budget_s": True}},
        {"exec": {"mode": "mock", "workers": 2.9}},
        {"iteration_cap": 1.5},
        {"retries": True},
        {"parallelism": {"tasks": "2"}},
        {"strategies": [{"kind": "instruct", "max_iterations": 2.0}]},
        {"seed": True},
        {"seed": 1.5},
        {"seed": "7"},
        {"backoff_s": "2"},
        {"backoff_s": True},
        {"exec": {"mode": "mock", "budget_s": 10**11}},
        {"backoff_s": 1e10},
    ],
    ids=[
        "retries", "backoff", "backoff-nan", "per-endpoint", "tasks", "workers", "retries-infinity",
        "adaptation-string", "javac-null", "java-empty", "budget-bool", "workers-float",
        "iteration-cap-float", "retries-bool", "tasks-string", "max-iterations-float",
        "seed-bool", "seed-float", "seed-string", "backoff-string", "backoff-bool", "budget-too-long",
        "backoff-too-long",
    ],
)
def test_cli_run_rejects_unusable_retry_and_limiter_values(tmp_path, capsys, override):
    config_path = write_config(tmp_path, **override)
    with pytest.raises(ConfigError):
        load_config(config_path)
    assert main(["run", "--config", config_path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "store" / "config.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        lambda: {"parallelism": Parallelism(tasks=0)}, lambda: {"retries": -1}, lambda: {"backoff_s": float("nan")},
        lambda: {"backoff_s": 10**400}, lambda: {"models": (ModelSpec("m", "http://h:1/v1", temperature=10**400),)},
    ],
    ids=["tasks", "retries", "backoff-nan", "backoff-too-large-for-a-float", "temperature-too-large-for-a-float"],
)
def test_a_config_changed_in_python_obeys_the_config_rules(change):
    config = load_config(GOLDEN / "config.json")
    with pytest.raises(ConfigError):
        dataclasses.replace(config, **change())


@pytest.mark.parametrize("field_map", [["a"], "x", {"task_id": 1}], ids=["list", "string", "number"])
def test_cli_run_rejects_a_field_map_that_is_not_an_object_of_strings(tmp_path, capsys, field_map):
    config_path = write_config(tmp_path, dataset={"path": str(MOCK_TASKS), "field_map": field_map})
    with pytest.raises(ConfigError, match="field_map"):
        load_config(config_path)
    assert main(["run", "--config", config_path]) == 2
    assert "field_map" in capsys.readouterr().err
    assert not (tmp_path / "store" / "config.json").exists()


@pytest.mark.parametrize(
    "override, where",
    [
        ({"temprature": 0.9}, "config: unknown key 'temprature'"),
        ({"iteration_caps": 2}, "config: unknown key 'iteration_caps'"),
        ({"dataset": {"path": str(MOCK_TASKS), "fieldmap": {}}}, "dataset: unknown key 'fieldmap'"),
        ({"dataset": {"path": str(MOCK_TASKS), "field_map": {"prompt": "question"}}},
         "dataset.field_map: unknown key 'prompt'"),
        ({"exec": {"mode": "mock", "budget": 5}}, "exec: unknown key 'budget'"),
        ({"parallelism": {"task": 2}}, "parallelism: unknown key 'task'"),
        ({"models": [{"model_id": "m", "script_path": str(MOCK_SCRIPT), "temprature": 0.9}]},
         "model 'm': unknown key 'temprature'"),
        ({"strategies": [{"kind": "instruct", "max_iteration": 2}]}, "strategy 'instruct': unknown key 'max_iteration'"),
    ],
    ids=["top-level", "iteration-caps", "dataset", "field-map", "exec", "parallelism", "model", "strategy"],
)
def test_cli_run_rejects_a_key_that_names_no_setting(tmp_path, capsys, override, where):
    config_path = write_config(tmp_path, **override)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(config_path)
    assert main(["run", "--config", config_path]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "store" / "config.json").exists()


def test_cli_run_rejects_missing_dataset(tmp_path, capsys):
    config_path = write_config(tmp_path, dataset={"path": str(tmp_path / "nope.jsonl")})
    assert main(["run", "--config", config_path]) == 2


def test_cli_report_missing_store_exit_two(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent")]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err


def test_cli_report_json_format(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", config_path])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "store"), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy_order"] == ["baseline", "binary_feedback"]


def test_cli_mock_run(tmp_path, capsys):
    code = main(
        [
            "mock-run",
            "--script",
            str(MOCK_SCRIPT),
            "--dataset",
            str(MOCK_TASKS),
            "--output",
            str(tmp_path / "mockstore"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Pass rate" in out
    store = RunStore(tmp_path / "mockstore")
    assert sum(len(v) for v in store.load_all().values()) == 15


def test_cli_mock_run_rejects_non_script_before_creating_store(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text("null", encoding="utf-8")
    output = tmp_path / "mockstore"
    code = main(
        ["mock-run", "--script", str(script), "--dataset", str(MOCK_TASKS), "--output", str(output)]
    )
    assert code == 2
    assert "must be a list or an object" in capsys.readouterr().err
    assert not (output / "config.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--strategies", "baseline,baseline"], "strategy kinds must be unique"),
        (["--strategies", ""], "strategies must be a non-empty list"),
    ],
    ids=["repeated-strategy", "no-strategy"],
)
def test_cli_mock_run_rejects_the_flags_run_rejects_in_a_config(tmp_path, capsys, monkeypatch, flags, message):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    argv = ["mock-run", "--script", str(MOCK_SCRIPT), "--dataset", str(MOCK_TASKS), *flags]
    assert main([*argv, "--output", str(tmp_path / "store")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "store" / "config.json").exists()
    assert main(argv) == 2  # and no temp store is made for flags that fail
    assert list(temp.iterdir()) == []


MOCK_RUN_CONFIG_JSON = r"""{
  "config": {
    "backoff_s": 1.0,
    "dataset_path": "tasks.jsonl",
    "exec": {
      "budget_s": 30,
      "java": "java",
      "javac": "javac",
      "mode": "mock",
      "test_adaptation": false,
      "workers": 2
    },
    "field_map": null,
    "iteration_cap": 10,
    "models": [
      {
        "auth_ref": null,
        "endpoint": null,
        "max_tokens": 4096,
        "model_id": "scripted",
        "script": [
          "class Solution { private static Solution s; private Solution() {} public static Solution getInstance() { return s; } }"
        ],
        "seed": null,
        "temperature": 0.2,
        "timeout_s": 60
      }
    ],
    "output_dir": "store",
    "parallelism": {
      "per_endpoint": 4,
      "tasks": 1
    },
    "retries": 3,
    "run_id": "mock",
    "seed": null,
    "strategies": [
      {
        "exemplars": [],
        "kind": "baseline",
        "max_iterations": 1
      },
      {
        "exemplars": [],
        "kind": "binary_feedback",
        "max_iterations": 10
      },
      {
        "exemplars": [],
        "kind": "predicate_feedback",
        "max_iterations": 10
      }
    ]
  },
  "config_digest": "2ad67b8a21010430"
}
"""


def test_cli_mock_run_default_flags_write_pinned_config_json(tmp_path, capsys, monkeypatch):
    # these bytes, digest included, are what mock-run wrote when it built its
    # config by hand: a mock store made then still resumes
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    script = json.loads(MOCK_RUN_CONFIG_JSON)["config"]["models"][0]["script"]
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    shutil.copy(MOCK_TASKS, tmp_path / "tasks.jsonl")
    argv = ["mock-run", "--script", "script.json", "--dataset", "tasks.jsonl", "--output", "store"]
    assert main(argv) == 0
    assert (tmp_path / "store" / "config.json").read_text("utf-8") == MOCK_RUN_CONFIG_JSON
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err.count("5 record(s) already present, 0 to run") == 3
    assert sum(len(v) for v in RunStore(tmp_path / "store").load_all().values()) == 15


def test_a_relative_script_path_is_read_next_to_the_config(tmp_path, monkeypatch):
    shutil.copy(MOCK_SCRIPT, tmp_path / "script.json")
    config_path = write_config(tmp_path, models=[{"model_id": "m", "script_path": "script.json"}])
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", config_path]) == 0
    assert load_config(config_path).models[0].script == json.loads(MOCK_SCRIPT.read_text("utf-8"))
    assert sum(len(v) for v in RunStore(tmp_path / "store").load_all().values()) == 10


def test_a_tool_path_with_a_slash_is_read_next_to_the_config(tmp_path):
    config_path = write_config(tmp_path, exec={"mode": "mock", "javac": "bin/javac", "java": "java"})
    settings = load_config(config_path).exec
    assert settings.javac == str(tmp_path / "bin" / "javac")
    assert settings.java == "java"  # a bare name stays a PATH lookup


def test_cli_run_rejects_task_ids_that_share_a_scratch_directory(tmp_path, capsys):
    # jdk cells of Java/0 and Java-0 would compile in one scratch directory at once
    rows = [json.loads(line) for line in MOCK_TASKS.read_text("utf-8").splitlines()[:2]]
    rows[1]["task_id"] = "Java-0"
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(["run", "--config", write_config(tmp_path, dataset={"path": str(dataset)})]) == 2
    err = capsys.readouterr().err
    assert f"error: {dataset}: task_id values 'Java/0' and 'Java-0' share the store name 'Java-0'" in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("task_id", [".", ".."])
def test_cli_run_rejects_a_task_id_that_names_no_scratch_directory_of_its_own(tmp_path, capsys, task_id):
    # a jdk cell of task "." would empty the arm's own scratch directory, and ".." its parent
    rows = [json.loads(line) for line in MOCK_TASKS.read_text("utf-8").splitlines()[:2]]
    rows[1]["task_id"] = task_id
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(["run", "--config", write_config(tmp_path, dataset={"path": str(dataset)})]) == 2
    err = capsys.readouterr().err
    assert f"error: {dataset}: task_id {task_id!r} has the store name {task_id!r}, which names no directory" in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("run_id", [".", ".."])
def test_cli_run_rejects_a_run_id_that_names_no_scratch_root_of_its_own(tmp_path, capsys, run_id):
    assert main(["run", "--config", write_config(tmp_path, run_id=run_id)]) == 2
    err = capsys.readouterr().err
    assert f"run_id {run_id!r} has the store name {run_id!r}, which names no directory" in err
    assert not (tmp_path / "store").exists()


def test_a_run_ids_scratch_root_stays_inside_the_store(tmp_path):
    store = RunStore(tmp_path / "store")
    for run_id, name in (("../..", "..-.."), ("/tmp/x", "-tmp-x"), ("bench-jdk-grid", "bench-jdk-grid")):
        assert store.scratch_root(run_id) == tmp_path / "store" / "scratch" / name


def _not_utf8(tmp_path, name):
    """A command that meets byte 0xff in one of its input files, and that file."""
    store = tmp_path / "store"
    bad = tmp_path / f"{name}.bad"
    if name == "config":
        bad.write_bytes(b'{"run_id": "\xff"}')
        return ["run", "--config", str(bad)], bad
    if name == "dataset":
        bad.write_bytes(MOCK_TASKS.read_bytes() + b'{"task_id": "\xff"}\n')
        return ["run", "--config", write_config(tmp_path, dataset={"path": str(bad)})], bad
    if name == "exemplar":
        bad.write_bytes(b"class A {} // \xff")
        strategy = {"kind": "fewshot_feedback", "exemplar_paths": [str(bad), str(bad)]}
        return ["run", "--config", write_config(tmp_path, strategies=[strategy])], bad
    if name == "script":
        bad.write_bytes(b'["\xff"]')
        return ["mock-run", "--script", str(bad), "--dataset", str(MOCK_TASKS), "--output", str(store)], bad
    assert main(["run", "--config", write_config(tmp_path)]) == 0
    if name == "records":
        bad = store / "records" / "scripted-model__baseline.jsonl"
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
    else:  # the store's config.json
        bad = store / "config.json"
        bad.write_bytes(bad.read_bytes().replace(b'"mock"', b'"mo\xffk"'))
    return ["report", str(store)], bad


@pytest.mark.parametrize("name", ["config", "dataset", "script", "records", "store-config", "exemplar"])
def test_input_that_is_not_utf8_exits_2_and_names_the_file(tmp_path, capsys, name):
    argv, path = _not_utf8(tmp_path, name)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert "codec can't decode byte 0xff" in captured.err
    assert captured.out == ""
    if argv[0] != "report":
        assert not (tmp_path / "store" / "config.json").exists()


def test_cli_mock_run_on_a_torn_store_config_exits_2_and_names_it(tmp_path, capsys):
    output = tmp_path / "mockstore"
    output.mkdir()
    (output / "config.json").write_text('{"config_digest": ', encoding="utf-8")
    code = main(
        ["mock-run", "--script", str(MOCK_SCRIPT), "--dataset", str(MOCK_TASKS), "--output", str(output)]
    )
    assert code == 2
    assert str(output / "config.json") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "mock-run"])
def test_a_store_that_cannot_be_created_exits_2_and_names_it(tmp_path, capsys, stub_server, command):
    (tmp_path / "file").write_text("", encoding="utf-8")
    output = tmp_path / "file" / "store"
    models = [{"model_id": "stub", "endpoint": stub_server}]
    argv = {
        "run": ["run", "--config", write_config(tmp_path, output_dir=str(output), models=models)],
        "mock-run": ["mock-run", "--script", str(MOCK_SCRIPT), "--dataset", str(MOCK_TASKS), "--output", str(output)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create store {output}: ")
    assert StubHandler.requests == []


@pytest.mark.parametrize("snapshot", ["[]", '"x"', "{}"], ids=["list", "string", "no-digest"])
@pytest.mark.parametrize("command", ["run", "mock-run", "report"])
def test_a_store_config_that_is_no_snapshot_exits_2_and_names_it(tmp_path, capsys, command, snapshot):
    output = tmp_path / "store"
    output.mkdir()
    (output / "config.json").write_text(snapshot, encoding="utf-8")
    argv = {
        "run": ["run", "--config", write_config(tmp_path)],
        "mock-run": ["mock-run", "--script", str(MOCK_SCRIPT), "--dataset", str(MOCK_TASKS), "--output", str(output)],
        "report": ["report", str(output)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(output / "config.json") in captured.err
    assert captured.out == ""
