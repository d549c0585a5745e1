from __future__ import annotations

import json
import locale
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fnmatch import fnmatch
from pathlib import Path

import pytest

from singletonlab import exec_harness, runner
from singletonlab.cli import main
from singletonlab.config import parse_config
from singletonlab.dataset import Task, load_tasks
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
from singletonlab.store import RunStore

from conftest import JDK_TASKS, StubHandler, find_jdk, requires_jdk

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
        check_toolchain("definitely-not-a-javac-binary")


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
    check_toolchain(javac)
    check_toolchain(java)


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


def test_the_readme_quotes_the_server_jvm_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    quoted = re.search(r"`java\s+(-[^`]*?)\s+\[-XX:SharedArchiveFile=<archive>\]\s+CompileServer\.java`", readme)
    assert quoted is not None
    assert tuple(quoted.group(1).split()) == exec_harness._SERVER_FLAGS


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


def variant_cases() -> list[tuple[object, str, str]]:
    """(task, variant name, candidate) for every fixture task and variant."""
    rows = {row["task_id"]: row for row in jdk_fixture_rows()}
    return [
        (task, name, candidate)
        for task in load_tasks(JDK_TASKS)
        for name, candidate in candidate_variants(task, rows[task.task_id]).items()
    ]


@pytest.fixture(scope="module")
def javac_process_outcomes(tmp_path_factory) -> dict[tuple[str, str], OutcomeLabel]:
    """The reference: every variant compiled by a javac process."""
    if find_jdk() is None:
        pytest.skip("no JDK (javac/java) on PATH")
    javac, java = jdk_tools()
    root = tmp_path_factory.mktemp("javac-processes")

    def evaluate(case) -> OutcomeLabel:
        task, name, candidate = case
        return evaluate_functionality(
            candidate, task, 30, scratch_dir=root / task.task_id.replace("/", "_") / name,
            javac=javac, java=java,
        )

    cases = variant_cases()
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(evaluate, cases))
    return {(task.task_id, name): outcome for (task, name, _), outcome in zip(cases, outcomes)}


@requires_jdk
@pytest.mark.parametrize("task_id", [row["task_id"] for row in jdk_fixture_rows()])
def test_compile_server_matches_javac_processes(
    tmp_path, compile_server, javac_process_outcomes, task_id
):
    javac, java = jdk_tools()
    for task, name, candidate in variant_cases():
        if task.task_id != task_id:
            continue
        cold = javac_process_outcomes[(task_id, name)]
        assert (cold.kind, cold.compile_error_category) == EXPECTED[name], (name, cold)
        served = evaluate_functionality(
            candidate, task, 30, scratch_dir=tmp_path / name,
            javac=javac, java=java, compiler=compile_server,
        )
        assert served == cold, name


@requires_jdk
def test_one_shared_server_matches_javac_processes_under_concurrency(
    tmp_path, monkeypatch, javac_process_outcomes
):
    started = record_servers(monkeypatch)
    javac, java = jdk_tools()
    cases = variant_cases()
    assert len(cases) == 60
    with ExecPool(4, javac) as pool:

        def evaluate(case) -> OutcomeLabel:
            task, name, candidate = case
            with pool.slot():
                return evaluate_functionality(
                    candidate, task, 30, scratch_dir=tmp_path / task.task_id.replace("/", "_") / name,
                    javac=javac, java=java, compiler=pool,
                )

        with ThreadPoolExecutor(max_workers=4) as threads:
            served = list(threads.map(evaluate, cases, timeout=600))
    for (task, name, _), outcome in zip(cases, served):
        assert outcome == javac_process_outcomes[(task.task_id, name)], (task.task_id, name)
    assert len(started) == 1
    assert started[0].proc.returncode is not None
    assert archive_backed(started[0])
    # every candidate that compiled ran its test in that JVM: no java Main process
    compiled = sum(1 for _, name, _ in cases if EXPECTED[name][0] != COMPILE_ERROR)
    assert pool.run_summary() == f"exec: {compiled} test run(s) in the resident JVM, 0 as java Main processes"


def record_servers(monkeypatch) -> list:
    started = []

    class Recorded(exec_harness.CompileServer):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(exec_harness, "CompileServer", Recorded)
    return started


def record_javac_processes(monkeypatch) -> list[Path]:
    """The scratch directories compiled by javac processes from now on."""
    compiled: list[Path] = []
    process = exec_harness._process

    def recorded(argv, cwd, budget_s):
        if argv[1:] == ["-encoding", "UTF-8", "Main.java"]:
            compiled.append(cwd)
        return process(argv, cwd, budget_s)

    monkeypatch.setattr(exec_harness, "_process", recorded)
    return compiled


def as_outcome(reply: tuple[int, bytes, bytes]) -> OutcomeLabel:
    """A test run's (exit, stderr, stdout), read as evaluate_functionality reads it."""
    return exec_harness._test_outcome(*reply)


def java_main(java: str, scratch: Path) -> OutcomeLabel:
    """The outcome of a `java Main` process on the classes compiled in scratch."""
    return as_outcome(exec_harness._process([java, "Main"], scratch, 30))


# A stand-in for `java CompileServer.java` that speaks the same protocol on
# its stdin: it batches the requests of each 5 ms and answers every batch
# last-in first-out, with exit code and diagnostics derived from the
# request's directory.
FAKE_SERVER = """\
import os, socket, sys, threading, time
pending, lock = [], threading.Lock()
order = open(sys.argv[1], "a")
channel = socket.socket(fileno=0)

def answer():
    while True:
        time.sleep(0.005)
        with lock:
            batch = pending[:]
            del pending[:]
        for key, directory in reversed(batch):
            body = (directory + os.sep + "Main.java: " + directory).encode()
            code = int(directory.rsplit("-", 1)[1])
            channel.sendall(b"%s %d %d %d\\n" % (key.encode(), code, len(body), len(body)) + body)
            order.write(key + "\\n")
            order.flush()

threading.Thread(target=answer, daemon=True).start()
channel.sendall(b"ready\\n")
for line in channel.makefile("rb"):
    key, kind, directory = line.decode().rstrip("\\n").split(" ", 2)
    with lock:
        pending.append((key, directory))
"""


def fake_jdk(tmp_path) -> tuple[Path, Path]:
    """A javac whose sibling java runs FAKE_SERVER; returns (javac, answer log)."""
    bin_dir = tmp_path / "fake-jdk"
    bin_dir.mkdir()
    log = tmp_path / "answer-order.log"
    (bin_dir / "server.py").write_text(FAKE_SERVER, encoding="utf-8")
    for tool in ("javac", "java"):
        script = bin_dir / tool
        script.write_text(
            f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
            f"{shlex.quote(str(bin_dir / 'server.py'))} {shlex.quote(str(log))}\n"
        )
        script.chmod(0o755)
    return bin_dir / "javac", log


def test_exec_pool_multiplexes_one_server_across_slots(tmp_path, monkeypatch):
    workers, threads, per_thread = 3, 8, 25
    started = record_servers(monkeypatch)
    javac, log = fake_jdk(tmp_path)
    in_flight, peak = 0, 0
    count = threading.Lock()
    pool = ExecPool(workers, str(javac))

    def compile_many(caller: int) -> None:
        nonlocal in_flight, peak
        for i in range(per_thread):
            scratch = tmp_path / f"caller{caller}-{i}"
            with pool.slot():
                with count:
                    in_flight += 1
                    peak = max(peak, in_flight)
                result = pool.request("compile", scratch, 30)
                with count:
                    in_flight -= 1
            assert result == (i, f"Main.java: {scratch}".encode(), b"")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            for future in [executor.submit(compile_many, c) for c in range(threads)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    answered = [int(key) for key in log.read_text().split()]
    assert sorted(answered) == list(range(threads * per_thread))
    assert answered != sorted(answered)  # replies did come out of order
    assert peak == workers
    assert len(started) == 1
    assert started[0].proc.returncode is not None


def jdk_run_config(tmp_path, strategies=("baseline",), replies=1) -> dict:
    rows = jdk_fixture_rows()[:2]
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    tasks = {t.task_id: t for t in load_tasks(dataset)}
    script = {
        r["task_id"]: ["```java\n" + tasks[r["task_id"]].declaration + r["canonical_solution"] + "```"]
        * replies
        for r in rows
    }
    javac, java = find_jdk() or ("javac", "java")
    return {
        "run_id": "servers",
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "store"),
        "models": [{"model_id": "scripted", "script": {"tasks": script}}],
        "strategies": list(strategies),
        "exec": {"mode": "jdk", "javac": javac, "java": java, "workers": 2},
        "parallelism": {"tasks": 2},
    }


@requires_jdk
def test_run_experiment_reaps_its_compile_servers(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)
    store = run_experiment(parse_config(jdk_run_config(tmp_path)), log=lambda message: None)
    records = store.load_records("scripted", "baseline")
    assert [r.functional_outcome.kind for r in records] == [PASS, PASS]
    assert len(started) == 1  # two slots, two tasks in flight: one shared server
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_run_experiment_reaps_its_compile_servers_when_it_raises(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)

    append = RunStore.append

    def stop(self, record):
        append(self, record)
        raise RuntimeError("stop")

    monkeypatch.setattr(RunStore, "append", stop)
    with pytest.raises(RuntimeError, match="stop"):
        run_experiment(parse_config(jdk_run_config(tmp_path)), log=lambda message: None)
    assert started
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_resuming_a_finished_jdk_store_starts_no_process(tmp_path, monkeypatch):
    config = parse_config(jdk_run_config(tmp_path))
    finished = run_experiment(config, log=lambda message: None).load_all()
    launched = []

    def refuse(argv, *args, **kwargs):
        launched.append(argv)
        raise OSError("no process expected")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(exec_harness, "_Popen", refuse)
    assert run_experiment(config, log=lambda message: None).load_all() == finished
    assert launched == []


@requires_jdk
def test_relative_tool_paths_are_read_next_to_the_config(tmp_path, monkeypatch, capsys):
    config = jdk_run_config(tmp_path)
    (tmp_path / "bin").mkdir()
    for name, tool in zip(("javac", "java"), find_jdk()):
        (tmp_path / "bin" / name).symlink_to(tool)
    config["exec"].update(javac="bin/javac", java="bin/java")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["run", "--config", str(path)]) == 0
    records = RunStore(tmp_path / "store").load_records("scripted", "baseline")
    assert [r.functional_outcome.kind for r in records] == [PASS, PASS]
    # a symlinked java resolves to the server's own java: no "other java" processes
    err = capsys.readouterr().err.splitlines()
    assert "exec: 2 test run(s) in the resident JVM, 0 as java Main processes" in err


@pytest.mark.parametrize("store", ["new", "resumed"])
def test_pending_jdk_cells_without_javac_exit_2_before_any_cell(tmp_path, capsys, store):
    config = jdk_run_config(tmp_path)
    config["exec"]["javac"] = str(tmp_path / "no-such-javac")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    if store == "resumed":
        assert main(["run", "--config", str(path)]) == 2  # leaves a store with no records
    assert main(["run", "--config", str(path)]) == 2
    assert "no-such-javac" in capsys.readouterr().err
    assert list((tmp_path / "store" / "records").glob("*.jsonl")) == []


def shell_jdk(tmp_path, javac: str, java: str, java_dir: str = "fake-jdk") -> tuple[str, str]:
    """A javac and a java that run the given shell lines; java goes in
    java_dir, which is javac's own directory unless named otherwise."""
    tools = []
    for name, body, where in (("javac", javac, "fake-jdk"), ("java", java, java_dir)):
        tool = tmp_path / where / name
        tool.parent.mkdir(parents=True, exist_ok=True)
        tool.write_text(f"#!/bin/sh\n{body}\n")
        tool.chmod(0o755)
        tools.append(str(tool))
    return tools[0], tools[1]


class RecordedSubprocess:
    """`subprocess` as exec_harness sees it, keeping the argv of every process
    it starts (the compile server starts through the real Popen)."""

    def __init__(self):
        self.argv: list[list[str]] = []
        argvs = self.argv

        class Popen(subprocess.Popen):
            def __init__(self, argv, *args, **kwargs):
                argvs.append(list(argv))
                super().__init__(argv, *args, **kwargs)

        self.Popen = Popen

    def __getattr__(self, name):
        return getattr(subprocess, name)


@requires_jdk
def test_a_run_on_a_working_jdk_launches_no_version_probe(tmp_path, monkeypatch):
    recorded = RecordedSubprocess()
    monkeypatch.setattr(exec_harness, "subprocess", recorded)
    logs: list[str] = []
    store = run_experiment(parse_config(jdk_run_config(tmp_path)), log=logs.append)
    assert [r.functional_outcome.kind for r in store.load_records("scripted", "baseline")] == [PASS, PASS]
    assert recorded.argv == []  # no -version probe, and no javac process either
    versions = [line for line in logs if line.startswith("exec: resident JVM ")]
    assert len(versions) == 1
    assert re.fullmatch(r"exec: resident JVM \d+\S*", versions[0]), versions


@pytest.mark.parametrize("missing", ["javac", "java"])
def test_a_missing_tool_exits_2_before_any_chat_request(tmp_path, capsys, stub_server, missing):
    javac, java = shell_jdk(tmp_path, "exit 0", "exit 0")
    config = jdk_run_config(tmp_path)
    config["models"] = [{"model_id": "stub", "endpoint": stub_server}]
    config["exec"].update(javac=javac, java=java)
    config["exec"][missing] = str(tmp_path / f"no-such-{missing}")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert f"no-such-{missing}" in capsys.readouterr().err
    assert StubHandler.requests == []


def test_a_server_that_dies_before_ready_and_a_broken_javac_exit_2(tmp_path, capsys):
    """The server's java starts, so set-up probes nothing; its JVM is gone
    before "ready", so the first compile needs a javac process, and javac's
    probe fails: the run stops instead of storing CompileError records."""
    javac, java = shell_jdk(tmp_path, "exit 1", "exit 1")
    config = jdk_run_config(tmp_path)
    config["exec"].update(javac=javac, java=java)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "compile server unavailable" in err
    assert f"{javac!r} exited with 1" in err
    assert RunStore(tmp_path / "store").load_all() == {}


def test_a_server_that_ends_with_a_request_unread_sends_it_to_a_process_at_once(tmp_path):
    """A JVM that exits without reading the request sent to it resets the
    channel; the request goes to a javac process without waiting for the
    "ready" that never comes."""
    javac, java = shell_jdk(tmp_path, "exit 0", "sleep 1")
    (tmp_path / "Main.java").write_text("public class Main {}\n", encoding="utf-8")
    started = time.monotonic()
    with ExecPool(1, javac, java, log=lambda message: None) as pool:
        assert pool.request("compile", tmp_path, 10) == (0, b"", b"")
    assert time.monotonic() - started < 10


def test_a_jdk_run_whose_every_model_is_skipped_starts_no_jvm(tmp_path, monkeypatch):
    monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
    started = record_servers(monkeypatch)
    javac, java = shell_jdk(tmp_path, "exit 0", "exit 0")
    config = jdk_run_config(tmp_path)
    config["models"] = [{"model_id": "remote", "endpoint": "http://127.0.0.1:9/v1", "auth_ref": "ABSENT_KEY_VAR"}]
    config["exec"].update(javac=javac, java=java)
    logs: list[str] = []
    store = run_experiment(parse_config(config), log=logs.append)
    assert logs == ["model remote: credential env var 'ABSENT_KEY_VAR' is not set; skipped"]
    assert started == []
    assert store.load_all() == {}


def test_the_pool_probes_each_process_tool_once(tmp_path, monkeypatch):
    probed: list[str] = []
    monkeypatch.setattr(exec_harness, "check_toolchain", probed.append)
    task = Task("probe/0", "", "", "Solution", "public class Main {}")
    # the server's java launches and exits before "ready": probes wait for the first processes
    javac, java = shell_jdk(tmp_path / "late", "exit 0", "exit 0")
    with ExecPool(2, javac, java) as pool:
        pool.start()
        assert probed == []
        for i in range(3):
            outcome = evaluate_functionality(
                PLAIN_CANDIDATE, task, 10, scratch_dir=tmp_path / "late" / str(i), compiler=pool
            )
            assert outcome == OutcomeLabel(PASS)
    assert probed == [javac, java]
    # no java beside javac: the server cannot launch, so set-up probes both tools
    probed.clear()
    javac, java = shell_jdk(tmp_path / "early", "exit 0", "exit 0", java_dir="elsewhere")
    with ExecPool(2, javac, java) as pool:
        pool.start()
        assert probed == [javac, java]


def running(pid: int) -> bool:
    """Whether pid is alive; a zombie waiting for its reaper is not."""
    try:
        os.kill(pid, 0)
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


@pytest.mark.parametrize("tool, step", [("javac", "compilation"), ("java", "test run")])
def test_an_overrunning_process_leaves_no_process_behind(tmp_path, tool, step):
    """A javac or `java Main` past its budget is killed with its whole
    process group: as a process of its own (compiler=None) and as the
    pool's fallback (no java beside javac, so no JVM)."""
    children = tmp_path / "children.log"
    bodies = {"javac": "exit 0", "java": "exit 0"}
    bodies[tool] = f'[ "$1" = -version ] && exit 0\nsleep 8 &\necho $! >> {shlex.quote(str(children))}\nwait'
    javac, java = shell_jdk(tmp_path, bodies["javac"], bodies["java"], java_dir="elsewhere")
    task = Task("overrun/0", "", "", "Solution", "public class Main {}")
    started = time.monotonic()
    with ExecPool(1, javac, java, log=lambda message: None) as pool:
        outcomes = [
            evaluate_functionality(
                PLAIN_CANDIDATE, task, 1, scratch_dir=tmp_path / name, javac=javac, java=java,
                compiler=compiler,
            )
            for name, compiler in (("process", None), ("fallback", pool))
        ]
    elapsed = time.monotonic() - started
    pids = [int(pid) for pid in children.read_text().split()]
    # a SIGKILLed grandchild may still be on its way out: give it up to 2 s to end
    deadline = time.monotonic() + 2
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        assert outcomes == [OutcomeLabel(TIMEOUT, f"{step} exceeded 1s")] * 2
        assert elapsed < 6  # neither waited for the sleep to end
        assert len(pids) == 2 and not [pid for pid in pids if running(pid)]
    finally:
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


@requires_jdk
def test_no_jvm_outlives_a_set_up_that_raises(tmp_path, monkeypatch):
    """A run stopped at its first arm scan, as a set-up-only benchmark start
    stops it, has launched no JVM yet. A new store's JVM is launched before
    the first cell starts, and a run stopped there kills and reaps it."""
    started = record_servers(monkeypatch)
    at_scan, at_cell = [], []
    scan = RunStore.completed_task_ids

    def stop_at_scan(self, model_id, strategy_kind):
        at_scan.extend(started)
        raise KeyboardInterrupt

    def stop_at_cell(*args):
        at_cell.append(list(started))
        raise KeyboardInterrupt

    for where in ("scan", "cell"):
        (tmp_path / where).mkdir()
    monkeypatch.setattr(RunStore, "completed_task_ids", stop_at_scan)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(parse_config(jdk_run_config(tmp_path / "scan")), log=lambda message: None)
    assert at_scan == started == []  # the JVM launches after the arm scan
    monkeypatch.setattr(RunStore, "completed_task_ids", scan)
    monkeypatch.setattr(runner, "_run_one", stop_at_cell)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(parse_config(jdk_run_config(tmp_path / "cell")), log=lambda message: None)
    assert at_cell[0] == started and len(started) == 1  # launched before the first cell
    assert started[0].proc.returncode is not None


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
def test_the_server_start_up_does_not_count_against_the_first_budget(tmp_path):
    javac, java = jdk_tools()
    bin_dir = tmp_path / "slow-jdk"
    bin_dir.mkdir()
    # a JDK whose java takes a second longer to start than the whole budget
    for tool, real, pause in (("javac", javac, ""), ("java", java, "sleep 1\n")):
        (bin_dir / tool).write_text(f'#!/bin/sh\n{pause}exec {shlex.quote(os.path.realpath(real))} "$@"\n')
        (bin_dir / tool).chmod(0o755)
    task = load_tasks(JDK_TASKS).tasks[0]
    scratch = tmp_path / "cell"
    scratch.mkdir()
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    (scratch / "Main.java").write_text(canonical + "\n\n" + task.test_code, encoding="utf-8")
    logs: list[str] = []
    with ExecPool(1, str(bin_dir / "javac"), log=logs.append) as pool:
        assert pool.request("compile", scratch, 0.5) == (0, b"", b"")
        assert pool._server is not None and pool._server.started
        assert logs == [f"exec: resident JVM {pool.version}"]


@requires_jdk
def test_overrun_sends_the_other_compiles_in_flight_to_a_javac_process(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)
    javac_processes = record_javac_processes(monkeypatch)
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    # a few hundred extra methods keep this compile in flight for a while
    slow = canonical + "".join(
        f"class Pad{i} {{ int f(int x) {{ return x * {i} + {i}; }} }}\n" for i in range(400)
    )

    def evaluate(pool: ExecPool, candidate: str, name: str, budget_s: float) -> OutcomeLabel:
        return evaluate_functionality(
            candidate, task, budget_s, scratch_dir=tmp_path / name,
            javac=javac, java=java, compiler=pool,
        )

    with ExecPool(2, javac) as pool, ThreadPoolExecutor(max_workers=1) as other:
        assert evaluate(pool, canonical, "warm", 30).kind == PASS
        in_flight = other.submit(evaluate, pool, slow, "in-flight", 30)
        deadline = time.monotonic() + 30
        while not started[0]._waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert started[0]._waiting, "the slow compile never reached the server"
        overrun = evaluate(pool, canonical, "overrun", 0.001)
        assert overrun == OutcomeLabel(TIMEOUT, "compilation exceeded 0.001s")
        assert in_flight.result(timeout=120) == OutcomeLabel(PASS, "")
    assert javac_processes.count(tmp_path / "in-flight") == 1  # the compile in flight, not resent
    assert len(started) == 2  # the killed server and the fresh one the slow candidate's run started
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_each_distinct_candidate_is_evaluated_once_per_run(tmp_path, monkeypatch, compile_server):
    # instruct gets the same (non-conforming) reply every iteration, so both
    # arms select the same candidate for each task
    config = parse_config(jdk_run_config(tmp_path, ("baseline", "instruct"), replies=10))
    calls = []
    evaluate = runner.evaluate_functionality

    def counted(*args, **kwargs):
        calls.append(args[1].task_id)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(runner, "evaluate_functionality", counted)
    store = run_experiment(config, log=lambda message: None)
    assert sorted(calls) == sorted(t.task_id for t in load_tasks(config.dataset_path))
    settings = config.exec
    for strategy in ("baseline", "instruct"):
        for record in store.load_records("scripted", strategy):
            task = next(t for t in load_tasks(config.dataset_path) if t.task_id == record.task_id)
            direct = evaluate(
                record.selected_candidate, task, settings.budget_s,
                scratch_dir=tmp_path / "direct" / strategy / record.task_id.replace("/", "_"),
                javac=settings.javac, java=settings.java,
                adapt_tests=settings.test_adaptation, compiler=compile_server,
            )
            assert record.functional_outcome == direct


def test_exec_pool_once_shares_outcomes_but_never_timeouts():
    pool = ExecPool(1)
    calls = []

    def evaluate(outcome: OutcomeLabel):
        def run():
            calls.append(outcome)
            return outcome

        return run

    for kind in (PASS, TEST_FAIL, COMPILE_ERROR):
        first = pool.once(kind, evaluate(OutcomeLabel(kind, "first")))
        assert pool.once(kind, evaluate(OutcomeLabel(kind, "again"))) is first
    timeout = OutcomeLabel(TIMEOUT, "first")
    assert pool.once("slow", evaluate(timeout)) is timeout
    assert pool.once("slow", evaluate(OutcomeLabel(PASS, "again"))) == OutcomeLabel(PASS, "again")
    assert len(calls) == 5


@requires_jdk
def test_java_main_gets_an_empty_stdin(tmp_path):
    """A test that reads System.in sees end of input at once, even when the
    pipeline's own stdin is an open pipe that nobody writes to."""
    javac, java = jdk_tools()
    child = f"""
from pathlib import Path
from singletonlab.dataset import Task
from singletonlab.exec_harness import evaluate_functionality
test = (
    "public class Main {{\\n"
    "    public static void main(String[] args) throws Exception {{\\n"
    "        if (System.in.read() != -1) throw new AssertionError(\\"stdin\\");\\n"
    "    }}\\n"
    "}}\\n"
)
task = Task("stdin/0", "", "", "Solution", test)
outcome = evaluate_functionality(
    "class Solution {{}}", task, 15, scratch_dir=Path({str(tmp_path / "scratch")!r}),
    javac={javac!r}, java={java!r},
)
print(outcome.kind)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(exec_harness.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", child], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, env=env,
    )
    try:
        proc.wait(timeout=120)
        assert proc.stdout.read().split() == [PASS]
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


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
    with ExecPool(1, str(wrapper), log=logs.append) as pool:
        assert evaluate("fallback", pool) == served
    assert started == []
    assert len(logs) == 1 and "compile server unavailable" in logs[0]
    assert pool.run_summary() == (
        "exec: 0 test run(s) in the resident JVM, 1 as java Main processes (unavailable 1)"
    )


# --- test runs in the resident JVM against java Main processes ------------------------


def main_class(body: str) -> str:
    return "public class Main {\n    public static void main(String[] args) throws Exception {\n" + body + "    }\n}\n"


THROW = '        throw new AssertionError("checked");\n'
# name: (candidate, test code, where the run goes: the resident JVM or the
# reason it went to a java Main process, what the java Main outcome shows)
ADVERSARIAL = {
    "system-exit": (
        "class Solution {}",
        main_class('        System.out.println("bye");\n        System.exit(3);\n'),
        "exit",
        lambda outcome: outcome == OutcomeLabel(TEST_FAIL, "bye\n"),
    ),
    "leftover-thread": (
        "class Solution {}",
        main_class(
            "        new Thread(() -> {\n"
            "            try { Thread.sleep(1000); } catch (InterruptedException e) { }\n"
            '            System.out.println("late");\n'
            "        }).start();\n"
            '        System.err.println("early");\n' + THROW
        ),
        "leftover thread",
        lambda outcome: outcome.detail.startswith("early\n") and outcome.detail.endswith("late\n"),
    ),
    "leftover-daemon-thread": (
        "class Solution {}",
        main_class(
            "        Thread t = new Thread(() -> {\n"
            "            try { Thread.sleep(10000); } catch (InterruptedException e) { }\n"
            "        });\n"
            "        t.setDaemon(true);\n"
            "        t.start();\n"
        ),
        "leftover thread",
        lambda outcome: outcome == OutcomeLabel(PASS, ""),
    ),
    "set-out": (
        "class Solution {}",
        main_class(
            "        System.setOut(new java.io.PrintStream(new java.io.ByteArrayOutputStream()));\n"
            '        System.out.println("hidden");\n' + THROW
        ),
        "global state",
        lambda outcome: outcome.kind == TEST_FAIL and "hidden" not in outcome.detail,
    ),
    "locale": (
        "class Solution {}",
        main_class(
            "        java.util.Locale.setDefault(java.util.Locale.GERMANY);\n"
            '        System.out.println(String.format("%.2f", 1.5));\n' + THROW
        ),
        "global state",
        lambda outcome: outcome.detail.endswith("1,50\n"),
    ),
    "close-stdout": (
        "class Solution {}",
        main_class(
            "        try (java.io.PrintWriter w = new java.io.PrintWriter(System.out)) {\n"
            '            w.println("closed");\n'
            "        }\n"
            '        System.out.println("dropped");\n' + THROW
        ),
        "unsupported",
        lambda outcome: outcome.detail.endswith("closed\n") and "dropped" not in outcome.detail,
    ),
    "shutdown-hook": (
        "class Solution {}",
        main_class(
            '        Runtime.getRuntime().addShutdownHook(new Thread(() -> System.out.println("hook")));\n'
            + THROW
        ),
        "global state",
        lambda outcome: outcome.kind == TEST_FAIL and outcome.detail.endswith("hook\n"),
    ),
    "stdin": (
        "class Solution {}",
        main_class('        if (System.in.read() != -1) throw new AssertionError("stdin");\n'),
        "resident JVM",
        lambda outcome: outcome == OutcomeLabel(PASS, ""),
    ),
    "failing-static-initialiser": (
        "class Solution {\n    static int zero = 0;\n    static int x = 1 / zero;\n}\n",
        main_class("        System.out.println(Solution.x);\n"),
        "resident JVM",
        lambda outcome: outcome.detail.startswith(
            'Exception in thread "main" java.lang.ExceptionInInitializerError\n\tat Main.main('
        ),
    ),
    "failing-main-initialiser": (
        "class Solution {}",
        "public class Main {\n    static int[] none = new int[-1];\n"
        "    public static void main(String[] args) { }\n}\n",
        "resident JVM",
        lambda outcome: outcome.detail.startswith(
            'Exception in thread "main" java.lang.ExceptionInInitializerError\n'
            "Caused by: java.lang.NegativeArraySizeException"
        ),
    ),
    "cause-chain": (
        "class Solution {\n    static void fail() {\n        try {\n"
        '            throw new IllegalStateException("root");\n'
        "        } catch (IllegalStateException e) {\n"
        '            RuntimeException wrapped = new RuntimeException("middle", e);\n'
        '            wrapped.addSuppressed(new Error("suppressed"));\n'
        "            throw wrapped;\n        }\n    }\n}\n",
        main_class(
            "        try {\n            Solution.fail();\n        } catch (RuntimeException e) {\n"
            '            throw new AssertionError("outer", e);\n        }\n'
        ),
        "resident JVM",
        lambda outcome: all(
            line in outcome.detail
            for line in ("Caused by: java.lang.RuntimeException: middle", "\tSuppressed: java.lang.Error",
                         "Caused by: java.lang.IllegalStateException: root", "... 1 more")
        ),
    ),
    "mixed-output": (
        "class Solution {}",
        main_class(
            '        System.out.println("stdout caf\\u00e9 \\u2713");\n'
            '        System.err.print("stderr \\u00fcber\\r\\n");\n'
            '        System.out.print("no newline");\n' + THROW
        ),
        "resident JVM",
        lambda outcome: outcome.detail.startswith("stderr \u00fcber\nException in thread")
        and outcome.detail.endswith("stdout caf\u00e9 \u2713\nno newline"),
    ),
    "undecodable-output": (
        "class Solution {}",
        main_class("        System.out.write(0xff);\n        System.out.println();\n" + THROW),
        "resident JVM",
        lambda outcome: outcome.kind == TEST_FAIL
        and outcome.detail.endswith(b"\xff".decode(locale.getpreferredencoding(False), "replace") + "\n"),
    ),
    # each stream's line ends are translated apart: "\r" then "\n" is two of them
    "stderr-cr-then-stdout-lf": (
        "class Solution {}",
        main_class(
            '        System.out.print("\\nout");\n'
            "        throw new RuntimeException() {\n"
            "            @Override\n"
            "            public void printStackTrace(java.io.PrintStream s) {\n"
            '                s.print("failed\\r");\n'
            "            }\n"
            "        };\n"
        ),
        "resident JVM",
        lambda outcome: outcome == OutcomeLabel(TEST_FAIL, 'Exception in thread "main" failed\n\nout'),
    ),
    # bytes written straight to fd 1 reach no reply: the JVM's stdout goes nowhere
    "spoofed-reply": (
        "class Solution {}",
        main_class(
            "        java.io.OutputStream out = new java.io.FileOutputStream(java.io.FileDescriptor.out);\n"
            "        for (int k = 0; k < 10000; k++) {\n"
            '            out.write((k + " 1 5 5\\nboom!").getBytes("US-ASCII"));\n'
            "        }\n"
            "        out.flush();\n"
        ),
        "resident JVM",
        lambda outcome: outcome == OutcomeLabel(PASS, ""),
    ),
}


@pytest.fixture(scope="module")
def resident_pool():
    if find_jdk() is None:
        pytest.skip("no JDK (javac/java) on PATH")
    with ExecPool(2, jdk_tools()[0]) as pool:
        yield pool


def run_both(pool: ExecPool, candidate: str, test_code: str, scratch: Path) -> tuple[OutcomeLabel, OutcomeLabel, Counter]:
    """(the run in `pool`, a java Main process on the same classes, where
    the pool's runs went meanwhile)."""
    javac, java = jdk_tools()
    task = Task("adversarial/0", "", "", "Solution", test_code)
    before = Counter(pool._runs)
    served = evaluate_functionality(
        candidate, task, 30, scratch_dir=scratch, javac=javac, java=java, compiler=pool
    )
    went = Counter(pool._runs) - before
    assert served.kind != COMPILE_ERROR, served.detail
    if went["resident JVM"]:
        assert archive_backed(pool._server)
    return served, java_main(java, scratch), went


@requires_jdk
@pytest.mark.parametrize("name", list(ADVERSARIAL))
def test_adversarial_runs_match_java_main_processes(tmp_path, resident_pool, name):
    candidate, test_code, where, shows = ADVERSARIAL[name]
    served, process, went = run_both(resident_pool, candidate, test_code, tmp_path)
    assert shows(process), process  # the case does exercise what it names
    assert served == process
    assert went == Counter({where: 1})


@requires_jdk
def test_a_static_counter_starts_fresh_on_every_run(tmp_path, resident_pool):
    candidate = "class Solution {\n    static int runs = 0;\n}\n"
    test_code = main_class(
        "        Solution.runs++;\n"
        '        if (Solution.runs != 1) throw new AssertionError("runs " + Solution.runs);\n'
    )
    for attempt in ("first", "second"):
        served, process, went = run_both(resident_pool, candidate, test_code, tmp_path / attempt)
        assert served == process == OutcomeLabel(PASS, "")
        assert went == Counter({"resident JVM": 1})


@requires_jdk
def test_a_run_after_one_that_closed_stdout_keeps_its_output(tmp_path, resident_pool):
    closing, closing_test, *_ = ADVERSARIAL["close-stdout"]
    served, process, went = run_both(resident_pool, closing, closing_test, tmp_path / "closing")
    assert served == process and went == Counter({"unsupported": 1})
    later = main_class('        System.out.println("still here");\n' + THROW)
    served, process, went = run_both(resident_pool, "class Solution {}", later, tmp_path / "later")
    assert served == process and process.detail.endswith("still here\n")
    assert went == Counter({"resident JVM": 1})


@requires_jdk
def test_a_run_that_fills_the_heap_sends_every_request_in_flight_to_processes(tmp_path, monkeypatch):
    # a server heap too small for the greedy run, which a java Main heap holds
    monkeypatch.setattr(exec_harness, "_SERVER_FLAGS", (*exec_harness._SERVER_FLAGS, "-Xmx128m"))
    started = record_servers(monkeypatch)
    javac_processes = record_javac_processes(monkeypatch)
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    slow = canonical + "".join(
        f"class Pad{i} {{ int f(int x) {{ return x * {i} + {i}; }} }}\n" for i in range(400)
    )
    logs: list[str] = []
    with ExecPool(3, javac, log=logs.append) as pool, ThreadPoolExecutor(max_workers=2) as other:

        def compiled(name: str, body: str) -> Path:
            directory = tmp_path / name
            directory.mkdir()
            (directory / "Main.java").write_text("class Solution {}\n\n" + main_class(body), encoding="utf-8")
            assert pool.request("compile", directory, 30) == (0, b"", b"")
            return directory

        sleeping = compiled("sleeping", "        Thread.sleep(2000);\n")
        greedy = compiled("greedy", "        byte[] b = new byte[160 << 20];\n        System.out.println(b.length);\n")
        in_flight = [
            other.submit(
                evaluate_functionality, slow, task, 30, scratch_dir=tmp_path / "slow", javac=javac,
                java=java, compiler=pool,
            ),
            other.submit(lambda: as_outcome(pool.request("run", sleeping, 30))),
        ]
        deadline = time.monotonic() + 30
        while len(started[0]._waiting) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(started[0]._waiting) == 2, "the slow compile and the sleeping run never met in the server"
        served = as_outcome(pool.request("run", greedy, 30))
        assert [future.result(timeout=120) for future in in_flight] == [OutcomeLabel(PASS, "")] * 2
    process = java_main(java, greedy)
    assert process.kind == PASS  # the case does exercise what it names
    assert served == process
    assert started[0].proc.returncode == exec_harness._OUT_OF_MEMORY
    assert javac_processes == [tmp_path / "slow"]  # the compile in flight went to a javac process
    # the two runs in flight went to java Main processes; the slow candidate's run to a fresh server
    assert Counter(pool._runs) == Counter({"memory": 2, "resident JVM": 1})
    # the server was replaced, not given up, and its version is logged once per pool
    assert len(started) == 2 and logs == [f"exec: resident JVM {pool.version}"]


@requires_jdk
def test_relative_paths_of_a_run_land_in_the_scratch_root(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    javac, java = jdk_tools()
    test_code = main_class('        new java.io.File("stray.txt").createNewFile();\n')
    task = Task("relative/0", "", "", "Solution", test_code)
    with ExecPool(1, javac, scratch_root=tmp_path / "root") as pool:
        outcome = evaluate_functionality(
            "class Solution {}", task, 30, scratch_dir=tmp_path / "root" / "cell", javac=javac,
            java=java, compiler=pool,
        )
        assert outcome == OutcomeLabel(PASS, "")
        assert pool.run_summary() == "exec: 1 test run(s) in the resident JVM, 0 as java Main processes"
    assert (tmp_path / "root" / "stray.txt").exists()
    assert not (tmp_path / "stray.txt").exists()


@requires_jdk
def test_run_overrun_times_out_and_a_compile_in_flight_still_answers(tmp_path, monkeypatch):
    started = record_servers(monkeypatch)
    javac_processes = record_javac_processes(monkeypatch)
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    slow = canonical + "".join(
        f"class Pad{i} {{ int f(int x) {{ return x * {i} + {i}; }} }}\n" for i in range(400)
    )
    looping = "class Solution {\n    public int add(int a, int b) {\n        while (true) { }\n    }\n}\n"

    def evaluate(pool: ExecPool, candidate: str, name: str) -> OutcomeLabel:
        return evaluate_functionality(
            candidate, task, 30, scratch_dir=tmp_path / name, javac=javac, java=java, compiler=pool,
        )

    with ExecPool(2, javac) as pool, ThreadPoolExecutor(max_workers=1) as other:
        assert evaluate(pool, canonical, "warm").kind == PASS
        loop_dir = tmp_path / "loop"
        loop_dir.mkdir()
        (loop_dir / "Main.java").write_text(looping + "\n\n" + task.test_code, encoding="utf-8")
        assert pool.request("compile", loop_dir, 30) == (0, b"", b"")
        in_flight = other.submit(evaluate, pool, slow, "in-flight")
        deadline = time.monotonic() + 30
        while not started[0]._waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert started[0]._waiting, "the slow compile never reached the server"
        assert pool.request("run", loop_dir, 0.2) is None  # evaluate_functionality: Timeout
        assert in_flight.result(timeout=120) == OutcomeLabel(PASS, "")
    assert javac_processes.count(tmp_path / "in-flight") == 1  # the compile in flight, not resent
    assert len(started) == 2  # the killed server and the fresh one the slow candidate's run started
    assert all(server.proc.returncode is not None for server in started)


@requires_jdk
def test_a_wrapper_java_gets_java_main_processes(tmp_path):
    javac, java = jdk_tools()
    calls = tmp_path / "calls.log"
    wrapper = tmp_path / "bin" / "java"
    wrapper.parent.mkdir()
    wrapper.write_text(
        f'#!/bin/sh\necho "$@" >> {shlex.quote(str(calls))}\n'
        f'exec {shlex.quote(os.path.realpath(java))} "$@"\n'
    )
    wrapper.chmod(0o755)
    task = load_tasks(JDK_TASKS).tasks[0]
    variants = candidate_variants(task, jdk_fixture_rows()[0])
    with ExecPool(2, javac, str(wrapper)) as pool:
        outcomes = [
            evaluate_functionality(variants[name], task, 30, scratch_dir=tmp_path / name, compiler=pool)
            for name in ("canonical", "mutant")
        ]
    assert [o.kind for o in outcomes] == [PASS, TEST_FAIL]
    # probed once, before its first java Main process
    assert calls.read_text().splitlines() == ["-version", "Main", "Main"]
    assert pool._runs == Counter({"other java": 2})


@requires_jdk
def test_a_scratch_path_outside_printable_ascii_gets_processes(tmp_path, resident_pool):
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    before = Counter(resident_pool._runs)
    outcome = evaluate_functionality(
        canonical, task, 30, scratch_dir=tmp_path / "caf\u00e9", javac=javac, java=java,
        compiler=resident_pool,
    )
    assert outcome == OutcomeLabel(PASS, "")
    assert Counter(resident_pool._runs) - before == Counter({"path": 1})


@requires_jdk
def test_main_java_compiles_as_utf8_whatever_the_locale(tmp_path, monkeypatch):
    # the JVMs started below inherit a locale whose encoding is ASCII
    monkeypatch.setenv("LC_ALL", "C")
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    candidate = "// café\n" + canonical + '\nclass Accent { static final String TEXT = "é"; }\n'
    with ExecPool(1, javac, scratch_root=tmp_path) as pool:
        served = evaluate_functionality(
            candidate, task, 30, scratch_dir=tmp_path / "served", javac=javac, java=java, compiler=pool
        )
    processes = evaluate_functionality(candidate, task, 30, scratch_dir=tmp_path / "processes", javac=javac, java=java)
    assert served == OutcomeLabel(PASS, "")
    assert pool._runs == Counter({"resident JVM": 1})
    assert processes == OutcomeLabel(PASS, "")


@requires_jdk
def test_jdk_run_keeps_only_timeout_scratch_and_logs_where_runs_went(tmp_path):
    raw = jdk_run_config(tmp_path)
    raw["exec"]["budget_s"] = 2
    second = load_tasks(raw["dataset"]).tasks[1]
    looping = second.declaration + "        while (true) { }\n    }\n}\n"
    raw["models"][0]["script"]["tasks"][second.task_id] = ["```java\n" + looping + "```"]
    logs: list[str] = []
    store = run_experiment(parse_config(raw), log=logs.append)
    outcomes = {r.task_id: r.functional_outcome.kind for r in store.load_records("scripted", "baseline")}
    assert sorted(outcomes.values()) == [PASS, TIMEOUT]
    left = sorted(path.parent for path in (tmp_path / "store" / "scratch").rglob("Main.java"))
    assert left == [tmp_path / "store/scratch/servers/scripted/baseline/Java-1"]  # task Java/1
    assert "exec: 1 test run(s) in the resident JVM, 0 as java Main processes" in logs


# --- the server's class-data-sharing archive -------------------------------------------


def archive_backed(server) -> bool:
    """Whether a server was launched on the serial collector, mapping the archive."""
    args = server.proc.args
    return server.archive is not None and "-XX:+UseSerialGC" in args and (
        f"-XX:SharedArchiveFile={server.archive}" in args
    )


def cached_files(cache: Path) -> list[str]:
    folder = cache / "singletonlab"
    return sorted(path.name for path in folder.iterdir()) if folder.is_dir() else []


@requires_jdk
@pytest.mark.parametrize("variable", ["JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS"])
def test_jvm_logging_asked_for_in_java_tool_options_stays_off_the_reply_stream(tmp_path, monkeypatch, variable):
    """The JVM reads JAVA_TOOL_OPTIONS before its command line and
    _JAVA_OPTIONS after it; its log lines reach no reply either way."""
    monkeypatch.setenv(variable, "-Xlog:gc")
    started = record_servers(monkeypatch)
    javac, java = jdk_tools()
    archive = ExecPool(1, javac)._archive  # the session's, written before the first test
    task = load_tasks(JDK_TASKS).tasks[0]
    variants = candidate_variants(task, jdk_fixture_rows()[0])
    with ExecPool(1, javac, log=lambda message: None) as pool:
        outcomes = [
            evaluate_functionality(variants[name], task, 30, scratch_dir=tmp_path / str(i), compiler=pool)
            for i, name in enumerate(("canonical", "mutant", "canonical"))
        ]
    assert [outcome.kind for outcome in outcomes] == [PASS, TEST_FAIL, PASS]
    assert pool.run_summary() == "exec: 3 test run(s) in the resident JVM, 0 as java Main processes"
    assert archive.is_file()
    assert len(started) == 1 and archive_backed(started[0]) and started[0].archive == archive


@requires_jdk
def test_the_first_pool_writes_the_archive_and_the_next_server_maps_it(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    started = record_servers(monkeypatch)
    javac, java = jdk_tools()
    task = load_tasks(JDK_TASKS).tasks[0]
    canonical = candidate_variants(task, jdk_fixture_rows()[0])["canonical"]
    written = []
    for name in ("first", "second"):
        with ExecPool(1, javac, scratch_root=tmp_path / name) as pool:
            outcome = evaluate_functionality(
                canonical, task, 30, scratch_dir=tmp_path / name / "cell", compiler=pool
            )
        assert outcome == OutcomeLabel(PASS, "")
        files = cached_files(cache)
        assert len(files) == 1 and files[0].endswith(".jsa"), files
        written.append((cache / "singletonlab" / files[0]).stat().st_mtime_ns)
    assert written[0] == written[1]  # the second pool found it and wrote none
    archive = cache / "singletonlab" / files[0]
    assert [server.archive for server in started] == [None, archive]
    assert archive_backed(started[1])
    assert "-XX:+UseSerialGC" in started[0].proc.args


@requires_jdk
def test_no_archive_is_written_after_an_exception_or_by_a_pool_whose_jvm_never_answered(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    started = record_servers(monkeypatch)
    javac, java = jdk_tools()
    (tmp_path / "Main.java").write_text("public class Main {}\n", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt), ExecPool(1, javac, scratch_root=tmp_path) as pool:
        assert pool.request("compile", tmp_path, 30) == (0, b"", b"")
        raise KeyboardInterrupt
    assert pool.version and cached_files(cache) == []
    with ExecPool(1, javac, scratch_root=tmp_path) as pool:
        pool.start()  # launched, then closed before it said ready
    assert pool.version is None and cached_files(cache) == []
    assert len(started) == 2 and all(server.proc.returncode is not None for server in started)
    # a cache directory that cannot be made means no archive, and no error
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "Main.java"))
    with ExecPool(1, javac, scratch_root=tmp_path) as pool:
        assert pool.request("compile", tmp_path, 30) == (0, b"", b"")
    assert pool.version and (tmp_path / "Main.java").is_file()


@requires_jdk
def test_a_damaged_archive_is_deleted_and_its_requests_go_to_processes(
    tmp_path, monkeypatch, javac_process_outcomes
):
    javac, java = jdk_tools()
    valid = ExecPool(1, javac)._archive  # the session's, written before the first test
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    damaged = ExecPool(1, javac)._archive
    assert damaged == cache / "singletonlab" / valid.name
    damaged.parent.mkdir(parents=True)
    whole = valid.read_bytes()
    damaged.write_bytes(whole[: len(whole) // 2])
    started = record_servers(monkeypatch)
    task = load_tasks(JDK_TASKS).tasks[0]
    variants = candidate_variants(task, jdk_fixture_rows()[0])
    logs: list[str] = []
    with ExecPool(1, javac, log=logs.append, scratch_root=tmp_path / "root") as pool:
        outcomes = {
            name: evaluate_functionality(
                candidate, task, 30, scratch_dir=tmp_path / "root" / name, javac=javac, java=java, compiler=pool
            )
            for name, candidate in variants.items()
        }
        assert not damaged.exists()
    assert outcomes == {name: javac_process_outcomes[(task.task_id, name)] for name in variants}
    # the first compile crashed the JVM on the archive: not given up, the next server starts without it
    assert [server.archive for server in started] == [damaged, None]
    assert not started[0].started and started[0].proc.returncode != 0
    assert logs == [f"exec: resident JVM {pool.version}"]
    assert pool.run_summary() == "exec: 2 test run(s) in the resident JVM, 0 as java Main processes"
    # the run ended normally, so the close wrote a sound archive in its place
    assert cached_files(cache) == [valid.name]
    with ExecPool(1, javac, scratch_root=tmp_path / "root") as pool:
        outcome = evaluate_functionality(
            variants["canonical"], task, 30, scratch_dir=tmp_path / "again", compiler=pool
        )
    assert outcome == OutcomeLabel(PASS, "")
    assert archive_backed(started[2]) and started[2].started
