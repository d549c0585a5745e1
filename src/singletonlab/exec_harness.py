"""Functional evaluation of candidate Java code against a task's tests.

Candidate and test code are written to an isolated scratch directory as one
compilation unit, compiled with javac and run with java; the test process
exit code is the verdict. During a run the compile goes to a resident
CompileServer JVM (see ExecPool) rather than a fresh javac process. A
marker-driven mock backend stands in when no JDK is wanted (demos, offline
tests).
"""

from __future__ import annotations

import locale
import os
import re
import select
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .dataset import Task
from .pattern_checker import evaluate_predicates
from .source_model import parse_compilation_unit, select_primary_class

PASS = "Pass"
TEST_FAIL = "TestFail"
COMPILE_ERROR = "CompileError"
TIMEOUT = "Timeout"
ABORTED = "Aborted"

MISSING_EXTERNAL_LIBRARY = "missing_external_library"
NON_CODE_OUTPUT = "non_code_output"
OTHER_COMPILE_ERROR = "other_compile_error"

# Mock backend markers, matched anywhere in the candidate (comments included).
MOCK_FAIL_MARKER = "MOCK-FAIL"
MOCK_TIMEOUT_MARKER = "MOCK-TIMEOUT"

_DETAIL_LIMIT = 4000

COMPILE_SERVER = Path(__file__).with_name("CompileServer.java")
# Scratch paths sent to a compile server: one request line, read as UTF-8
# by the JVM; anything else compiles with a javac process.
_SERVABLE_PATH = re.compile(r"[ -~]+")
_Popen = subprocess.Popen

# Diagnostics that point at a library absent from the scratch classpath.
_MISSING_LIBRARY_PATTERNS = (
    re.compile(r"package\s+[A-Za-z_$][\w.$]*\s+does not exist"),
    re.compile(r"cannot access\s+[A-Za-z_$][\w.$]*"),
)
_MISSING_SYMBOL = re.compile(r"cannot find symbol[\s\S]{0,200}?symbol:\s*class\s+(\w+)")


class ToolchainError(Exception):
    pass


@dataclass(frozen=True)
class OutcomeLabel:
    kind: str
    detail: str = ""
    compile_error_category: str | None = None


def check_toolchain(javac: str = "javac", java: str = "java") -> None:
    """Verify both tools launch; called once at startup, not per task."""
    for tool in (javac, java):
        try:
            probe = subprocess.run(
                [tool, "-version"], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ToolchainError(f"cannot run {tool!r}: {exc}") from exc
        if probe.returncode != 0:
            raise ToolchainError(f"{tool!r} exited with {probe.returncode}")


def adapt_test_code(test_code: str, class_name: str) -> str:
    """Rewrite no-arg instantiations of the task class to accessor calls."""
    pattern = re.compile(rf"new\s+{re.escape(class_name)}\s*\(\s*\)")
    return pattern.sub(f"{class_name}.getInstance()", test_code)


def evaluate_functionality(
    candidate: str,
    task: Task,
    budget_s: int = 30,
    *,
    scratch_dir: str | Path,
    javac: str = "javac",
    java: str = "java",
    adapt_tests: bool = False,
    compiler: ExecPool | None = None,
) -> OutcomeLabel:
    """Compile and run candidate + tests in scratch_dir. The compile goes to
    `compiler`'s resident servers when given, else to a javac process."""
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    test_code = task.test_code
    if adapt_tests and task.expected_class_name and _has_private_constructor(candidate, task):
        test_code = adapt_test_code(test_code, task.expected_class_name)

    # One compilation unit: the test declares the (public) entry class Main,
    # so the file must carry that name; candidate imports stay at the top.
    source = candidate.rstrip() + "\n\n" + test_code
    try:
        (scratch / "Main.java").write_text(source, encoding="utf-8")
    except OSError as exc:
        return OutcomeLabel(ABORTED, f"scratch dir write failed: {exc}")

    if compiler is None:
        compiled = _javac(javac, scratch, budget_s)
    else:
        compiled = compiler.compile(scratch, budget_s)
    if compiled is None:
        return OutcomeLabel(TIMEOUT, f"compilation exceeded {budget_s}s")
    returncode, stderr = compiled
    if returncode != 0:
        diagnostics = stderr[:_DETAIL_LIMIT]
        return OutcomeLabel(
            COMPILE_ERROR, diagnostics, classify_compile_error(diagnostics, candidate)
        )

    try:
        proc = subprocess.Popen(
            [java, "Main"],
            cwd=scratch,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
    except FileNotFoundError as exc:
        raise ToolchainError(f"cannot run {java!r}: {exc}") from exc
    try:
        stdout, stderr = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        _kill_process_group(proc)
        return OutcomeLabel(TIMEOUT, f"test run exceeded {budget_s}s")
    if proc.returncode == 0:
        return OutcomeLabel(PASS, "")
    return OutcomeLabel(TEST_FAIL, (stderr + stdout)[:_DETAIL_LIMIT])


def _javac(javac: str, scratch: Path, budget_s: float) -> tuple[int, str] | None:
    """A javac process on scratch/Main.java: (exit code, stderr), or None
    when it overran budget_s."""
    try:
        compiled = subprocess.run(
            [javac, "Main.java"],
            cwd=scratch,
            capture_output=True,
            text=True,
            timeout=budget_s,
        )
    except FileNotFoundError as exc:
        raise ToolchainError(f"cannot run {javac!r}: {exc}") from exc
    except subprocess.TimeoutExpired:
        return None
    return compiled.returncode, compiled.stderr


class CompileServer:
    """One resident JVM running CompileServer.java (protocol in that file).
    It serves one compile at a time; ExecPool lends it out."""

    def __init__(self, java: str):
        # The real Popen, not this module's `subprocess` name, which stands
        # for the per-cell javac/java launches (perfbench/tracer.py times
        # each of those until communicate()); the server lives for the run.
        self.proc = _Popen(
            [java, "-XX:TieredStopAtLevel=1", str(COMPILE_SERVER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )
        self.answered = False

    def compile(self, directory: str, budget_s: float) -> tuple[int, str] | None:
        """Like _javac for directory/Main.java, with the diagnostics' paths
        made relative as a javac run in `directory` prints them. Raises
        EOFError if the JVM has exited."""
        deadline = time.monotonic() + budget_s
        try:
            self.proc.stdin.write(directory.encode("utf-8") + b"\n")
        except BrokenPipeError as exc:
            raise EOFError(f"compile server exited with {self.proc.wait()}") from exc
        reply = b""
        while True:
            header, newline, body = reply.partition(b"\n")
            if newline and len(body) >= int(header.split()[1]):
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                return None
            chunk = self.proc.stdout.read(65536)
            if not chunk:
                raise EOFError(f"compile server exited with {self.proc.wait()}")
            reply += chunk
        self.answered = True
        diagnostics = body.decode(locale.getpreferredencoding(False), "replace")
        return int(header.split()[0]), diagnostics.replace(directory + os.sep, "")

    def close(self) -> None:
        """Kill the JVM and collect its exit status."""
        self.proc.kill()
        self.proc.communicate()


class ExecPool:
    """A run's toolchain slots and the compile servers behind them.

    slot() bounds concurrent evaluations to `workers`. compile() lends an
    idle server and starts one only when none is idle, so resident JVMs never
    outnumber the peak of concurrent compiles. A server that overruns the
    budget is killed and dropped. The servers run on the `java` beside the
    resolved `javac`; if one cannot start (no such `java`, a JDK older than
    11, no jdk.compiler module), the pool logs it once and compiles with
    javac processes from then on. A pool that is never asked to compile
    (mock mode) starts no JVM. close() kills and reaps every server, so no JVM outlives the run and
    their CPU time counts as the run's.
    """

    def __init__(self, workers: int, javac: str = "javac", log=None):
        self._slots = threading.Semaphore(max(1, workers))
        self._javac = javac
        found = shutil.which(javac)
        self._java = os.path.join(os.path.dirname(os.path.realpath(found)), "java") if found else None
        self._log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._idle: list[CompileServer] = []
        self._live: list[CompileServer] = []

    def __enter__(self) -> ExecPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def slot(self) -> threading.Semaphore:
        return self._slots

    def compile(self, scratch: Path, budget_s: float) -> tuple[int, str] | None:
        directory = os.path.abspath(scratch)
        server = self._take() if _SERVABLE_PATH.fullmatch(directory) else None
        if server is None:
            return _javac(self._javac, scratch, budget_s)
        try:
            result = server.compile(directory, budget_s)
        except EOFError as exc:
            self._drop(server)
            if not server.answered:
                self._give_up(str(exc))
            return _javac(self._javac, scratch, budget_s)
        if result is None:
            self._drop(server)
        else:
            with self._lock:
                self._idle.append(server)
        return result

    def close(self) -> None:
        with self._lock:
            self._java = None
            servers, self._live, self._idle = self._live, [], []
        for server in servers:
            server.close()

    def _take(self) -> CompileServer | None:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            java = self._java
        if java is None:
            return None
        try:
            server = CompileServer(java)
        except OSError as exc:
            self._give_up(f"cannot run {java!r}: {exc}")
            return None
        with self._lock:
            if self._java is not None:
                self._live.append(server)
                return server
        server.close()  # the pool closed or gave up meanwhile
        return None

    def _drop(self, server: CompileServer) -> None:
        with self._lock:
            if server in self._live:
                self._live.remove(server)
        server.close()

    def _give_up(self, reason: str) -> None:
        with self._lock:
            if self._java is None:
                return
            self._java = None
        self._log(f"exec: compile server unavailable ({reason}); compiling with javac processes")


def classify_compile_error(diagnostics: str, candidate: str) -> str:
    """Coarse bucket for a compile failure (heuristic, not ground truth)."""
    if not parse_compilation_unit(candidate):
        return NON_CODE_OUTPUT
    if any(p.search(diagnostics) for p in _MISSING_LIBRARY_PATTERNS):
        return MISSING_EXTERNAL_LIBRARY
    symbol = _MISSING_SYMBOL.search(diagnostics)
    if symbol and re.search(
        rf"import\s+[\w.$]*\.{re.escape(symbol.group(1))}\s*;", candidate
    ):
        return MISSING_EXTERNAL_LIBRARY
    return OTHER_COMPILE_ERROR


def mock_evaluate(candidate: str) -> OutcomeLabel:
    """Deterministic stand-in for the JDK: outcome is derived from markers.

    No extractable class means CompileError/non_code_output (same rule as
    the real classifier); otherwise MOCK-TIMEOUT / MOCK-FAIL markers select
    the outcome and anything else passes.
    """
    if not parse_compilation_unit(candidate):
        return OutcomeLabel(COMPILE_ERROR, "mock: no class extracted", NON_CODE_OUTPUT)
    if MOCK_TIMEOUT_MARKER in candidate:
        return OutcomeLabel(TIMEOUT, "mock: timeout marker")
    if MOCK_FAIL_MARKER in candidate:
        return OutcomeLabel(TEST_FAIL, "mock: fail marker")
    return OutcomeLabel(PASS, "mock")


def _has_private_constructor(candidate: str, task: Task) -> bool:
    classes = parse_compilation_unit(candidate)
    primary = select_primary_class(classes, task.expected_class_name or None)
    return primary is not None and evaluate_predicates(primary).private_constructor


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
