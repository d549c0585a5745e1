from __future__ import annotations

import json
import os
import shlex
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fnmatch import fnmatch
from pathlib import Path

import pytest

from singletonlab import exec_harness
from singletonlab.config import parse_config
from singletonlab.dataset import load_tasks
from singletonlab.exec_harness import (
    COMPILE_ERROR,
    COMPILE_SERVER,
    MISSING_EXTERNAL_LIBRARY,
    NON_CODE_OUTPUT,
    OTHER_COMPILE_ERROR,
    PASS,
    TEST_FAIL,
    TIMEOUT,
    ExecPool,
    OutcomeLabel,
    ToolchainError,
    adapt_test_code,
    check_toolchain,
    classify_compile_error,
    evaluate_functionality,
    mock_evaluate,
)
from singletonlab.runner import run_experiment

from conftest import JDK_TASKS, find_jdk, requires_jdk

PLAIN_CANDIDATE = "class Solution { public int add(int a, int b) { return a + b; } }"
PROSE_CANDIDATE = "I cannot write this program, here is an explanation instead."


# --- classifier (no JDK needed) ----------------------------------------------


def test_prose_candidate_classified_non_code_output():
    diag = "Main.java:1: error: class, interface, or enum expected"
    assert classify_compile_error(diag, PROSE_CANDIDATE) == NON_CODE_OUTPUT


def test_missing_package_diagnostic():
    diag = "Main.java:1: error: package org.apache.commons does not exist"
    assert classify_compile_error(diag, PLAIN_CANDIDATE) == MISSING_EXTERNAL_LIBRARY


def test_cannot_access_diagnostic():
    diag = "Main.java:3: error: cannot access org.json.JSONObject"
    assert classify_compile_error(diag, PLAIN_CANDIDATE) == MISSING_EXTERNAL_LIBRARY


def test_missing_symbol_with_matching_import():
    candidate = "import org.apache.commons.lang3.StringUtils;\n" + PLAIN_CANDIDATE
    diag = (
        "Main.java:5: error: cannot find symbol\n"
        "        StringUtils.isEmpty(x);\n"
        "        ^\n"
        "  symbol:   class StringUtils\n"
    )
    assert classify_compile_error(diag, candidate) == MISSING_EXTERNAL_LIBRARY


def test_missing_symbol_without_import_is_other():
    diag = (
        "Main.java:5: error: cannot find symbol\n"
        "  symbol:   class StringUtils\n"
    )
    assert classify_compile_error(diag, PLAIN_CANDIDATE) == OTHER_COMPILE_ERROR


def test_syntax_error_is_other():
    diag = "Main.java:2: error: ';' expected"
    assert classify_compile_error(diag, PLAIN_CANDIDATE) == OTHER_COMPILE_ERROR


# --- test adaptation ----------------------------------------------------------


def test_adapt_rewrites_no_arg_instantiation():
    test_code = "Solution s = new Solution();\nSolution t = new Solution ( );"
    adapted = adapt_test_code(test_code, "Solution")
    assert adapted == "Solution s = Solution.getInstance();\nSolution t = Solution.getInstance();"


def test_adapt_leaves_arg_constructors_alone():
    test_code = "Solution s = new Solution(42);"
    assert adapt_test_code(test_code, "Solution") == test_code


def test_adapt_does_not_touch_other_classes():
    test_code = "Helper h = new Helper(); Solution s = new Solution();"
    adapted = adapt_test_code(test_code, "Solution")
    assert adapted == "Helper h = new Helper(); Solution s = Solution.getInstance();"


# --- mock backend ---------------------------------------------------------------


def test_mock_pass_by_default():
    assert mock_evaluate(PLAIN_CANDIDATE).kind == PASS


def test_mock_markers():
    assert mock_evaluate("// MOCK-FAIL\n" + PLAIN_CANDIDATE).kind == TEST_FAIL
    assert mock_evaluate("// MOCK-TIMEOUT\n" + PLAIN_CANDIDATE).kind == TIMEOUT


def test_mock_prose_is_compile_error_non_code():
    outcome = mock_evaluate(PROSE_CANDIDATE)
    assert outcome.kind == COMPILE_ERROR
    assert outcome.compile_error_category == NON_CODE_OUTPUT


# --- toolchain ---------------------------------------------------------------------


def test_missing_toolchain_fails_fast():
    with pytest.raises(ToolchainError):
        check_toolchain(javac="definitely-not-a-javac-binary")


# --- real JDK execution (skipped when no JDK on PATH) ---------------------------------


def jdk_tools() -> tuple[str, str]:
    tools = find_jdk()
    assert tools is not None
    return tools


def jdk_fixture_rows() -> list[dict]:
    return [json.loads(line) for line in JDK_TASKS.read_text("utf-8").splitlines()]


@requires_jdk
def test_toolchain_check_passes_with_real_jdk():
    javac, java = jdk_tools()
    check_toolchain(javac, java)


@requires_jdk
def test_canonical_solutions_pass(tmp_path, compile_server):
    javac, java = jdk_tools()
    taskset = load_tasks(JDK_TASKS)
    rows = {row["task_id"]: row for row in jdk_fixture_rows()}
    assert len(taskset) >= 10
    for task in taskset:
        candidate = task.declaration + rows[task.task_id]["canonical_solution"]
        outcome = evaluate_functionality(
            candidate,
            task,
            30,
            scratch_dir=tmp_path / task.task_id.replace("/", "_"),
            javac=javac,
            java=java,
            compiler=compile_server,
        )
        assert outcome.kind == PASS, (task.task_id, outcome.detail)


@requires_jdk
def test_mutated_solution_fails_tests(tmp_path, compile_server):
    javac, java = jdk_tools()
    taskset = load_tasks(JDK_TASKS)
    task = taskset.tasks[0]  # add(a, b)
    broken = task.declaration + "        return a - b;\n    }\n}\n"
    outcome = evaluate_functionality(
        broken, task, 30, scratch_dir=tmp_path, javac=javac, java=java,
        compiler=compile_server,
    )
    assert outcome.kind == TEST_FAIL


@requires_jdk
def test_prose_candidate_compile_error(tmp_path, compile_server):
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    outcome = evaluate_functionality(
        PROSE_CANDIDATE, task, 30, scratch_dir=tmp_path, javac=javac, java=java,
        compiler=compile_server,
    )
    assert outcome.kind == COMPILE_ERROR
    assert outcome.compile_error_category == NON_CODE_OUTPUT


@requires_jdk
def test_hallucinated_import_compile_error(tmp_path, compile_server):
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    candidate = (
        "import org.fictional.helpers.MathKit;\n\n"
        "class Solution {\n"
        "    public int add(int a, int b) {\n"
        "        return MathKit.sum(a, b);\n"
        "    }\n"
        "}\n"
    )
    outcome = evaluate_functionality(
        candidate, task, 30, scratch_dir=tmp_path, javac=javac, java=java,
        compiler=compile_server,
    )
    assert outcome.kind == COMPILE_ERROR
    assert outcome.compile_error_category == MISSING_EXTERNAL_LIBRARY


@requires_jdk
def test_infinite_loop_times_out_within_budget(tmp_path, compile_server):
    import time

    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    candidate = (
        "class Solution {\n"
        "    public int add(int a, int b) {\n"
        "        while (true) { }\n"
        "    }\n"
        "}\n"
    )
    budget = 5
    start = time.monotonic()
    outcome = evaluate_functionality(
        candidate, task, budget, scratch_dir=tmp_path, javac=javac, java=java,
        compiler=compile_server,
    )
    elapsed = time.monotonic() - start
    assert outcome.kind == TIMEOUT
    assert elapsed < budget + 5


@requires_jdk
def test_singleton_candidate_with_test_adaptation(tmp_path, compile_server):
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    singleton = (
        "class Solution {\n"
        "    private static Solution instance;\n"
        "    private Solution() {\n"
        "    }\n"
        "    public static Solution getInstance() {\n"
        "        if (instance == null) {\n"
        "            instance = new Solution();\n"
        "        }\n"
        "        return instance;\n"
        "    }\n"
        "    public int add(int a, int b) {\n"
        "        return a + b;\n"
        "    }\n"
        "}\n"
    )
    # without adaptation the test instantiates a private constructor
    plain = evaluate_functionality(
        singleton, task, 30, scratch_dir=tmp_path / "plain", javac=javac, java=java,
        compiler=compile_server,
    )
    assert plain.kind == COMPILE_ERROR
    # with adaptation the instantiation is rewritten to the accessor
    adapted = evaluate_functionality(
        singleton,
        task,
        30,
        scratch_dir=tmp_path / "adapted",
        javac=javac,
        java=java,
        adapt_tests=True,
        compiler=compile_server,
    )
    assert adapted.kind == PASS


@requires_jdk
def test_isolated_scratch_directories(tmp_path, compile_server):
    javac, java = jdk_tools()
    taskset = load_tasks(JDK_TASKS)
    rows = {row["task_id"]: row for row in jdk_fixture_rows()}
    first, second = taskset.tasks[0], taskset.tasks[1]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for task, scratch in ((first, dir_a), (second, dir_b)):
        candidate = task.declaration + rows[task.task_id]["canonical_solution"]
        evaluate_functionality(
            candidate, task, 30, scratch_dir=scratch, javac=javac, java=java,
            compiler=compile_server,
        )
    assert (dir_a / "Main.java").read_text("utf-8") != (dir_b / "Main.java").read_text("utf-8")


# --- compile server ------------------------------------------------------------------


def test_compile_server_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    package_dir = Path(exec_harness.__file__).parent
    assert COMPILE_SERVER.is_file()
    assert COMPILE_SERVER.parent == package_dir
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    patterns = tomllib.loads(pyproject.read_text("utf-8"))["tool"]["setuptools"]["package-data"]
    assert any(fnmatch(COMPILE_SERVER.name, p) for p in patterns["singletonlab"])


def candidate_variants(task, row: dict) -> dict[str, str]:
    """One task's differential cases, named by the outcome each must reach."""
    canonical = task.declaration + row["canonical_solution"]
    return {
        "canonical": canonical,
        "mutant": task.declaration + '        throw new IllegalStateException("mutant");\n    }\n}\n',
        "undefined-symbol": task.declaration + "        return undefinedHelper();\n    }\n}\n",
        "prose": PROSE_CANDIDATE,
        "hallucinated-import": "import org.fictional.helpers.MathKit;\n\n" + canonical,
    }


EXPECTED = {
    "canonical": (PASS, None),
    "mutant": (TEST_FAIL, None),
    "undefined-symbol": (COMPILE_ERROR, OTHER_COMPILE_ERROR),
    "prose": (COMPILE_ERROR, NON_CODE_OUTPUT),
    "hallucinated-import": (COMPILE_ERROR, MISSING_EXTERNAL_LIBRARY),
}


@requires_jdk
@pytest.mark.parametrize("task_id", [row["task_id"] for row in jdk_fixture_rows()])
def test_compile_server_matches_javac_processes(tmp_path, compile_server, task_id):
    javac, java = jdk_tools()
    task = next(t for t in load_tasks(JDK_TASKS) if t.task_id == task_id)
    row = next(r for r in jdk_fixture_rows() if r["task_id"] == task_id)
    variants = candidate_variants(task, row)

    def evaluate(name: str, compiler=None) -> OutcomeLabel:
        where = "cold" if compiler is None else "server"
        return evaluate_functionality(
            variants[name], task, 30, scratch_dir=tmp_path / where / name,
            javac=javac, java=java, compiler=compiler,
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        cold = dict(zip(variants, pool.map(evaluate, variants)))
        served = {name: evaluate(name, compile_server) for name in variants}
    for name, outcome in cold.items():
        assert (outcome.kind, outcome.compile_error_category) == EXPECTED[name], (name, outcome)
        assert served[name] == outcome, name


def record_servers(monkeypatch) -> list:
    started = []

    class Recorded(exec_harness.CompileServer):
        def __init__(self, java: str):
            super().__init__(java)
            started.append(self)

    monkeypatch.setattr(exec_harness, "CompileServer", Recorded)
    return started


def test_exec_pool_lends_each_server_to_one_compile_at_a_time(tmp_path, monkeypatch):
    workers, threads = 3, 8
    started = []
    overlaps = []

    class FakeServer:
        answered = True

        def __init__(self, java: str):
            self.busy = False
            self.closed = False
            started.append(self)

        def compile(self, directory: str, budget_s: float):
            if self.busy:
                overlaps.append(self)
            self.busy = True
            time.sleep(0.0005)
            self.busy = False
            return 0, ""

        def close(self) -> None:
            self.closed = True

    monkeypatch.setattr(exec_harness, "CompileServer", FakeServer)
    pool = ExecPool(workers, sys.executable)

    def compile_many(_: int) -> None:
        for _ in range(50):
            with pool.slot():
                assert pool.compile(tmp_path, 30) == (0, "")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            for future in [executor.submit(compile_many, i) for i in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert overlaps == []
    assert 1 <= len(started) <= workers
    assert all(server.closed for server in started)


def jdk_run_config(tmp_path) -> dict:
    rows = jdk_fixture_rows()[:2]
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    tasks = {t.task_id: t for t in load_tasks(dataset)}
    script = {
        r["task_id"]: ["```java\n" + tasks[r["task_id"]].declaration + r["canonical_solution"] + "```"]
        for r in rows
    }
    javac, java = jdk_tools()
    return {
        "run_id": "servers",
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "store"),
        "models": [{"model_id": "scripted", "script": {"tasks": script}}],
        "strategies": ["baseline"],
        "exec": {"mode": "jdk", "javac": javac, "java": java, "workers": 1},
        "parallelism": {"tasks": 2},
    }


@requires_jdk
def test_run_experiment_reaps_its_compile_servers(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)
    store = run_experiment(parse_config(jdk_run_config(tmp_path)), log=lambda message: None)
    records = store.load_records("scripted", "baseline")
    assert [r.functional_outcome.kind for r in records] == [PASS, PASS]
    assert len(started) == 1  # one exec slot: at most one compile at a time
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_run_experiment_reaps_its_compile_servers_when_it_raises(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)

    def on_record(record):
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        run_experiment(
            parse_config(jdk_run_config(tmp_path)), on_record=on_record, log=lambda message: None
        )
    assert started
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_overrun_compile_kills_its_server_and_the_next_compile_respawns(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    candidate = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    with ExecPool(1, javac) as pool:

        def evaluate(name: str, budget_s: float) -> OutcomeLabel:
            return evaluate_functionality(
                candidate, task, budget_s, scratch_dir=tmp_path / name,
                javac=javac, java=java, compiler=pool,
            )

        assert evaluate("warm", 30).kind == PASS
        assert evaluate("overrun", 0.001) == OutcomeLabel(TIMEOUT, "compilation exceeded 0.001s")
        assert started[0].proc.returncode is not None
        assert evaluate("respawned", 30).kind == PASS
        assert len(started) == 2
    assert started[1].proc.returncode is not None


@requires_jdk
def test_javac_without_sibling_java_falls_back_to_javac_processes(
    tmp_path, monkeypatch, compile_server
):
    javac, java = jdk_tools()
    wrapper = tmp_path / "bin" / "javac"
    wrapper.parent.mkdir()
    wrapper.write_text(f'#!/bin/sh\nexec {shlex.quote(os.path.realpath(javac))} "$@"\n')
    wrapper.chmod(0o755)
    task = load_tasks(JDK_TASKS).tasks[0]
    variants = candidate_variants(task, jdk_fixture_rows()[0])
    names = ("canonical", "undefined-symbol")

    def evaluate(where: str, compiler: ExecPool) -> list[OutcomeLabel]:
        return [
            evaluate_functionality(
                variants[name], task, 30, scratch_dir=tmp_path / where / name,
                javac=javac, java=java, compiler=compiler,
            )
            for name in names
        ]

    served = evaluate("server", compile_server)
    started = record_servers(monkeypatch)
    logs: list[str] = []
    with ExecPool(1, str(wrapper), logs.append) as pool:
        assert evaluate("fallback", pool) == served
    assert started == []
    assert len(logs) == 1 and "compile server unavailable" in logs[0]
