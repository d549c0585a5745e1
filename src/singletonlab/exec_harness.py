"""Functional evaluation of candidate Java code against a task's tests.

Candidate and test code are written to an isolated scratch directory as one
compilation unit, compiled with javac and run with java; the test run's exit
code is the verdict. During a run both steps go to a resident CompileServer
JVM (see ExecPool) rather than fresh javac and `java Main` processes; those
processes stay the reference and answer whatever the JVM cannot. A
marker-driven mock backend stands in when no JDK is wanted (demos, offline
tests).
"""

from __future__ import annotations

import itertools
import locale
import os
import re
import shutil
import signal
import subprocess
import threading
from collections import Counter
from concurrent import futures
from dataclasses import dataclass
from pathlib import Path

from .dataset import Task
from .pattern_checker import evaluate_predicates
from .source_model import ClassModel, parse_compilation_unit, select_primary_class

PASS = "Pass"
TEST_FAIL = "TestFail"
COMPILE_ERROR = "CompileError"
TIMEOUT = "Timeout"
ABORTED = "Aborted"
# Outcomes fixed by the candidate and the task alone; see ExecPool.once.
_REUSED = (PASS, TEST_FAIL, COMPILE_ERROR)

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
# The exit of a server reply that the server cannot vouch for; its body
# names the reason (see CompileServer.java).
_REFUSED = -1
# The server's JVM flags. An OutOfMemoryError anywhere ends the JVM with
# _OUT_OF_MEMORY before any thread can reply (the heap is shared by every
# compile and run in flight), and the VM's own message goes to stderr, not
# into the replies on stdout. A test's Runtime.halt(3) ends it the same way
# and is handled the same way.
_SERVER_FLAGS = (
    "-XX:TieredStopAtLevel=1", "-XX:+ExitOnOutOfMemoryError", "-XX:+DisplayVMOutputToStderr",
)
_OUT_OF_MEMORY = 3
# How long a request waits for a new server's "ready" line (its start-up
# compiles CompileServer.java) before the pool gives the server up. The
# request's own budget starts after it.
_START_S = 120
# Why a test run went to a `java Main` process instead of the server, in
# the order ExecPool.run_summary() lists them.
_FALLBACKS = (
    "exit", "leftover thread", "global state", "memory", "overrun", "other java", "path",
    "unavailable", "unsupported",
)
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
    classes: list[ClassModel] | None = None,
) -> OutcomeLabel:
    """Compile and run candidate + tests in scratch_dir. Both steps go to
    `compiler`'s resident server when given, else to javac and `java Main`
    processes. `classes` is the candidate's parse, when the caller has it."""
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    test_code = task.test_code
    if adapt_tests and task.expected_class_name and _has_private_constructor(candidate, task, classes):
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
            COMPILE_ERROR, diagnostics, classify_compile_error(diagnostics, candidate, classes)
        )
    if compiler is None:
        return _java_main(java, scratch, budget_s)
    return compiler.run(scratch, budget_s, java)


def _java_main(java: str, scratch: Path, budget_s: float) -> OutcomeLabel:
    """The test run as a `java Main` process in scratch: the reference that
    a run in the server must match."""
    try:
        proc = subprocess.Popen(
            [java, "Main"],
            cwd=scratch,
            stdin=subprocess.DEVNULL,  # the verdict must not hang on, or eat, our stdin
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    except FileNotFoundError as exc:
        raise ToolchainError(f"cannot run {java!r}: {exc}") from exc
    try:
        stdout, stderr = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        _kill_process_group(proc)
        return OutcomeLabel(TIMEOUT, f"test run exceeded {budget_s}s")
    return _test_outcome(proc.returncode, stderr, stdout)


def _test_outcome(returncode: int, stderr: bytes, stdout: bytes) -> OutcomeLabel:
    if returncode == 0:
        return OutcomeLabel(PASS, "")
    return OutcomeLabel(TEST_FAIL, (_text(stderr) + _text(stdout))[:_DETAIL_LIMIT])


def _text(output: bytes) -> str:
    """One stream's bytes read as Popen(text=True) reads a pipe, except that
    a byte the locale encoding cannot decode becomes U+FFFD."""
    text = output.decode(locale.getpreferredencoding(False), "replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    Any number of threads may send requests on it at once: requests are
    written under a lock and one reader thread hands each reply to the
    caller that waits on its id."""

    def __init__(self, java: str, cwd: str | Path | None = None):
        # The real Popen, not this module's `subprocess` name, which stands
        # for the per-cell javac/java launches (perfbench/tracer.py times
        # each of those until communicate()); the server lives for the run.
        self.proc = _Popen(
            [java, *_SERVER_FLAGS, os.path.abspath(COMPILE_SERVER)],
            cwd=cwd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self.started = False  # it has written its "ready" line
        self._up = threading.Event()  # set once it is ready, or has exited
        # Why this server is being retired (another request's overrun, a
        # refused reply, or "memory" once the JVM ended on an
        # OutOfMemoryError), set before the waiters are woken: the other
        # requests in flight go to processes under this reason.
        self.retired: str | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._waiting: dict[int, futures.Future] = {}
        self._lost: str | None = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def request(self, kind: str, directory: str, budget_s: float) -> tuple[int, bytes, bytes] | None:
        """The (exit, stderr, stdout) reply to a `compile` or `run` request
        on directory, or None when it overran budget_s. Raises EOFError if
        the JVM has exited."""
        reply: futures.Future = futures.Future()
        with self._lock:
            if self._lost is not None:
                raise EOFError(self._lost)
            key = next(self._ids)
            self._waiting[key] = reply
            try:
                self.proc.stdin.write(f"{key} {kind} {directory}\n".encode("utf-8"))
                self.proc.stdin.flush()
            except OSError as exc:
                del self._waiting[key]
                raise EOFError(f"compile server stopped reading: {exc}") from exc
        if not self._up.wait(_START_S):
            with self._lock:
                self._waiting.pop(key, None)
            raise EOFError(f"compile server not ready after {_START_S}s")
        try:
            return reply.result(budget_s)
        except futures.TimeoutError:
            with self._lock:
                self._waiting.pop(key, None)
            return None

    def close(self) -> None:
        """Kill the JVM and collect its exit status."""
        self.proc.kill()
        self._reader.join()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # a request line the dead JVM never read

    def _read(self) -> None:
        out = self.proc.stdout
        ready = out.readline() == b"ready\n"
        with self._lock:
            self.started = ready
        self._up.set()
        while ready:
            try:
                key, code, size, *split = map(int, out.readline().split())
            except ValueError:  # end of output, or a line that is no reply
                break
            body = out.read(size)
            if len(body) < size:
                break
            err = split[0] if split else size  # a run's body is its stderr, then its stdout
            with self._lock:
                waiter = self._waiting.pop(key, None)
                if code == _REFUSED and self.retired is None:
                    self.retired = body.decode("ascii", "replace")
            if waiter is not None:
                waiter.set_result((code, body[:err], body[err:]))
        self.proc.kill()  # no-op once it has exited; the waiters must not wait on it
        status = self.proc.wait()
        with self._lock:
            if status == _OUT_OF_MEMORY and self.retired is None:
                self.retired = "memory"
            self._lost = f"compile server exited with {status}"
            waiting, self._waiting = self._waiting, {}
        for waiter in waiting.values():
            waiter.set_exception(EOFError(self._lost))


class ExecPool:
    """A run's toolchain slots, its compile server and its outcome memo.

    slot() bounds concurrent evaluations to `workers`. compile() and run()
    send every compile and test run to one lazily started CompileServer, so
    a run keeps at most one JVM, however many slots are busy at once. Each
    request goes to that JVM at most once, and what it cannot answer goes
    to a javac or `java Main` process, the reference: a request whose reply
    is refused, and every request in flight on a JVM that exits, runs out
    of memory or is killed for another request's overrun. A refused reply
    and an overrun retire the JVM; the next request starts a fresh one. A
    run with a `java` other than the server's, and a scratch path the
    protocol cannot carry, go to processes too. The server starts in
    scratch_root, so relative paths a run opens land there, not in the
    caller's directory (they are not the cell's own directory, as they are
    for `java Main`). The server runs on the `java` beside the resolved
    `javac`; if it cannot start (no such `java`, a JDK older than 11, no
    jdk.compiler module), the pool logs it once and uses javac and `java
    Main` processes from then on. A pool that is never asked to compile
    (mock mode) starts no JVM. close() kills and reaps the server, so no
    JVM outlives the run and its CPU time counts as the run's.

    once() evaluates each distinct key one time per pool, so a byte-identical
    candidate of the same task in a later arm reuses its outcome. (Arms run
    one after another, and the cells of one arm are distinct tasks, so no
    two calls with one key overlap.)
    """

    def __init__(self, workers: int, javac: str = "javac", log=None, scratch_root: str | Path | None = None):
        self._slots = threading.Semaphore(max(1, workers))
        self._scratch_root = scratch_root
        self._javac = javac
        found = shutil.which(javac)
        self._java = os.path.join(os.path.dirname(os.path.realpath(found)), "java") if found else None
        self._server_java = _resolve(self._java)
        self._log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._server: CompileServer | None = None
        self._outcomes: dict[object, OutcomeLabel] = {}
        self._runs: Counter[str] = Counter()

    def __enter__(self) -> ExecPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def slot(self) -> threading.Semaphore:
        return self._slots

    def once(self, key, evaluate) -> OutcomeLabel:
        """evaluate(), or the outcome an earlier call with `key` returned.
        Timeout and Aborted depend on the moment, not on the key, so they
        are not kept: the next call evaluates again."""
        outcome = self._outcomes.get(key)
        if outcome is None:
            outcome = evaluate()
            if outcome.kind in _REUSED:
                self._outcomes[key] = outcome
        return outcome

    def compile(self, scratch: Path, budget_s: float) -> tuple[int, str] | None:
        """Like _javac for scratch/Main.java, with the diagnostics' paths
        made relative as a javac run in scratch prints them."""
        directory = os.path.abspath(scratch)
        reply = self._request("compile", directory, budget_s)
        if isinstance(reply, str):
            return _javac(self._javac, scratch, budget_s)
        if reply is None:
            return None
        code, body, _ = reply
        diagnostics = body.decode(locale.getpreferredencoding(False), "replace")
        return code, diagnostics.replace(directory + os.sep, "")

    def run(self, scratch: Path, budget_s: float, java: str) -> OutcomeLabel:
        """The outcome of the compiled scratch/Main, as _java_main gives it."""
        if self._server_java is not None and _resolve(java) != self._server_java:
            reply = "other java"
        else:
            reply = self._request("run", os.path.abspath(scratch), budget_s)
        if reply is None:
            return OutcomeLabel(TIMEOUT, f"test run exceeded {budget_s}s")
        if not isinstance(reply, str):
            self._count("resident JVM")
            return _test_outcome(*reply)
        self._count(reply)
        return _java_main(java, scratch, budget_s)

    def run_summary(self) -> str | None:
        """Where this pool's test runs went, or None if it ran none."""
        with self._lock:
            runs = dict(self._runs)
        if not runs:
            return None
        served = runs.pop("resident JVM", 0)
        reasons = ", ".join(f"{reason} {runs[reason]}" for reason in _FALLBACKS if reason in runs)
        return (
            f"exec: {served} test run(s) in the resident JVM, "
            f"{sum(runs.values())} as java Main processes" + (f" ({reasons})" if reasons else "")
        )

    def close(self) -> None:
        with self._lock:
            self._java = None
            server, self._server = self._server, None
        if server is not None:
            server.close()

    def _request(self, kind: str, directory: str, budget_s: float) -> tuple[int, bytes, bytes] | str | None:
        """The server's (exit, stderr, stdout) reply, None when the request overran
        budget_s, or why it must go to a process instead (_FALLBACKS)."""
        if not _SERVABLE_PATH.fullmatch(directory):
            return "path"
        server = self._current()
        if server is None:
            return "unavailable"
        try:
            reply = server.request(kind, directory, budget_s)
        except EOFError as exc:
            self._retire(server)
            if server.retired is None and not server.started:
                self._give_up(str(exc))
            return server.retired or "unavailable"
        if reply is None:
            self._retire(server, "overrun")
            return None
        if reply[0] != _REFUSED:
            return reply
        self._retire(server)
        return reply[1].decode("ascii", "replace")

    def _count(self, where: str) -> None:
        with self._lock:
            self._runs[where] += 1

    def _current(self) -> CompileServer | None:
        with self._lock:
            if self._server is not None or self._java is None:
                return self._server
            try:
                # started under the lock, so concurrent first requests share one
                if self._scratch_root is not None:
                    os.makedirs(self._scratch_root, exist_ok=True)
                self._server = CompileServer(self._java, self._scratch_root)
                return self._server
            except OSError as exc:
                reason = f"cannot run {self._java!r}: {exc}"
        self._give_up(reason)
        return None

    def _retire(self, server: CompileServer, reason: str | None = None) -> None:
        with self._lock:
            if self._server is server:
                self._server = None
        if reason is not None and server.retired is None:
            server.retired = reason
        server.close()

    def _give_up(self, reason: str) -> None:
        with self._lock:
            if self._java is None:
                return
            self._java = None
        self._log(f"exec: compile server unavailable ({reason}); using javac and java Main processes")


def _resolve(tool: str | None) -> str | None:
    found = shutil.which(tool) if tool else None
    return os.path.realpath(found) if found else None


def classify_compile_error(
    diagnostics: str, candidate: str, classes: list[ClassModel] | None = None
) -> str:
    """Coarse bucket for a compile failure (heuristic, not ground truth).
    `classes` is the candidate's parse, when the caller has it."""
    if not _parsed(candidate, classes):
        return NON_CODE_OUTPUT
    if any(p.search(diagnostics) for p in _MISSING_LIBRARY_PATTERNS):
        return MISSING_EXTERNAL_LIBRARY
    symbol = _MISSING_SYMBOL.search(diagnostics)
    if symbol and re.search(
        rf"import\s+[\w.$]*\.{re.escape(symbol.group(1))}\s*;", candidate
    ):
        return MISSING_EXTERNAL_LIBRARY
    return OTHER_COMPILE_ERROR


def mock_evaluate(candidate: str, classes: list[ClassModel] | None = None) -> OutcomeLabel:
    """Deterministic stand-in for the JDK: outcome is derived from markers.

    No extractable class means CompileError/non_code_output (same rule as
    the real classifier); otherwise MOCK-TIMEOUT / MOCK-FAIL markers select
    the outcome and anything else passes. `classes` is the candidate's
    parse, when the caller has it.
    """
    if not _parsed(candidate, classes):
        return OutcomeLabel(COMPILE_ERROR, "mock: no class extracted", NON_CODE_OUTPUT)
    if MOCK_TIMEOUT_MARKER in candidate:
        return OutcomeLabel(TIMEOUT, "mock: timeout marker")
    if MOCK_FAIL_MARKER in candidate:
        return OutcomeLabel(TEST_FAIL, "mock: fail marker")
    return OutcomeLabel(PASS, "mock")


def _has_private_constructor(candidate: str, task: Task, classes: list[ClassModel] | None) -> bool:
    primary = select_primary_class(_parsed(candidate, classes), task.expected_class_name or None)
    return primary is not None and evaluate_predicates(primary).private_constructor


def _parsed(candidate: str, classes: list[ClassModel] | None) -> list[ClassModel]:
    return parse_compilation_unit(candidate) if classes is None else classes


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
