"""Functional evaluation of candidate Java code against a task's tests.

Candidate and test code are written to an isolated scratch directory as one
compilation unit, compiled with javac and run with java; the test run's exit
code is the verdict. During a run both steps are requests to an ExecPool,
which sends them to a resident CompileServer JVM rather than fresh javac and
`java Main` processes; those processes (_process) stay the reference and
answer whatever the JVM cannot. A marker-driven mock backend stands in when
no JDK is wanted (demos, offline tests).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import locale
import os
import re
import shutil
import signal
import socket
import subprocess
import tempfile
import threading
import zipfile
from collections import Counter
from concurrent import futures
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
# compile and run in flight); a test's Runtime.halt(3) ends it the same way
# and is handled the same way. The serial collector starts no collector
# threads of its own to compete with the compiles and runs on a host with
# few CPUs. The exports open the javac internals through which the server
# reuses javac's contexts (JavacTaskPool); javac needs them to compile it.
_EXPORTS = tuple(
    f"--add-exports=jdk.compiler/com.sun.tools.javac.{package}=ALL-UNNAMED" for package in ("api", "util", "main")
)
_SERVER_FLAGS = ("-XX:TieredStopAtLevel=1", "-XX:+UseSerialGC", "-XX:+ExitOnOutOfMemoryError", *_EXPORTS)
_OUT_OF_MEMORY = 3
# How long a request waits for a new server's "ready" line (its start-up
# compiles CompileServer.java, in source-file mode, and its warm-up unit)
# before the pool gives the server up. The request's own budget starts after it.
_START_S = 120
# Why a test run went to a `java Main` process instead of the server, in
# the order ExecPool.run_summary() lists them.
_FALLBACKS = (
    "exit", "leftover thread", "global state", "memory", "overrun", "other java", "path",
    "unavailable", "unsupported",
)
_Popen = subprocess.Popen
# The arguments of the process each request kind stands for, run in the
# scratch directory with the kind's tool: javac reads Main.java as UTF-8, as
# it was written.
_ARGS = {"compile": ("-encoding", "UTF-8", "Main.java"), "run": ("Main",)}

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


def check_toolchain(tool: str) -> None:
    """Verify the tool launches: `<tool> -version` exits 0 within 30 s.
    ExecPool runs it once per tool, before the first javac or `java Main`
    process it starts."""
    try:
        probe = _process([tool, "-version"], None, 30)
    except OSError as exc:
        raise ToolchainError(f"cannot run {tool!r}: {exc}") from exc
    if probe is None or probe[0] != 0:
        raise ToolchainError(f"{tool!r} " + (f"exited with {probe[0]}" if probe else "ran past 30s"))


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
    adapt_tests: bool = False,
    compiler: ExecPool | None = None,
) -> OutcomeLabel:
    """Compile and run candidate + tests in scratch_dir: as requests to
    `compiler`, with its own tools, or else as processes of the `javac` and
    `java` on PATH (the reference)."""
    scratch = Path(scratch_dir)
    test_code = task.test_code
    if adapt_tests and task.expected_class_name and _has_private_constructor(candidate, task):
        test_code = adapt_test_code(test_code, task.expected_class_name)

    # One compilation unit: the test declares the (public) entry class Main,
    # so the file must carry that name; candidate imports stay at the top.
    source = candidate.rstrip() + "\n\n" + test_code
    try:
        # Main.java alone: javac's class path "." would show anything an
        # earlier run left there (a killed one, say) to the compile
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        (scratch / "Main.java").write_text(source, encoding="utf-8")
    except OSError as exc:
        return OutcomeLabel(ABORTED, f"scratch dir write failed: {exc}")

    request = compiler.request if compiler is not None else (
        lambda kind, *at: _process([{"compile": "javac", "run": "java"}[kind], *_ARGS[kind]], *at))
    compiled = request("compile", scratch, budget_s)
    if compiled is None:
        return OutcomeLabel(TIMEOUT, f"compilation exceeded {budget_s}s")
    if compiled[0] != 0:
        diagnostics = _text(compiled[1])[:_DETAIL_LIMIT]
        return OutcomeLabel(COMPILE_ERROR, diagnostics, classify_compile_error(diagnostics, candidate))
    ran = request("run", scratch, budget_s)
    if ran is None:
        return OutcomeLabel(TIMEOUT, f"test run exceeded {budget_s}s")
    return _test_outcome(*ran)


def _test_outcome(returncode: int, stderr: bytes, stdout: bytes) -> OutcomeLabel:
    if returncode == 0:
        return OutcomeLabel(PASS, "")
    return OutcomeLabel(TEST_FAIL, (_text(stderr) + _text(stdout))[:_DETAIL_LIMIT])


def _text(output: bytes) -> str:
    """One stream's bytes read as Popen(text=True) reads a pipe, except that
    a byte the locale encoding cannot decode becomes U+FFFD."""
    text = output.decode(locale.getpreferredencoding(False), "replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _process(argv: list[str], cwd: str | Path | None, budget_s: float) -> tuple[int, bytes, bytes] | None:
    """argv as a process in cwd, with an empty stdin (the verdict must not
    hang on, or eat, ours) and in its own session: (exit, stderr, stdout),
    or None once budget_s is passed. Then its whole process group is killed
    and what it wrote is collected for at most 5 s. It is reaped on every
    path. This is the reference that a reply from the resident JVM must match."""
    try:
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True, env=_tool_env(),
        )
    except FileNotFoundError as exc:
        raise ToolchainError(f"cannot run {argv[0]!r}: {exc}") from exc
    with proc:  # closes the pipes
        try:
            stdout, stderr = proc.communicate(timeout=budget_s)
            return proc.returncode, stderr, stdout
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.returncode is None:  # past its budget, or interrupted
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.killpg(proc.pid, signal.SIGKILL)
                try:
                    proc.communicate(timeout=5)
                except subprocess.TimeoutExpired:  # a process outside its group holds the pipes
                    proc.kill()
                    proc.wait()


def _tool_env() -> dict[str, str]:
    """The environment of a javac, java or server JVM: ours without
    CLASSPATH, so that javac and java Main read the class path ".", the
    scratch directory, whatever the user's shell sets."""
    return {name: value for name, value in os.environ.items() if name != "CLASSPATH"}


def _server_argv(java: str, jar: Path | None, *flags: str) -> list[str]:
    """A server JVM's command line: the CompileServer class from `jar`, or
    CompileServer.java in source-file mode; its channel's fd follows."""
    server = ("-cp", str(jar), "CompileServer") if jar else (os.path.abspath(COMPILE_SERVER),)
    return [java, *_SERVER_FLAGS, *flags, *server]


def _archive_path(java: str) -> Path | None:
    """Where the class-data-sharing archive of a server on `java` lives: in
    the user's cache directory, as CompileServer-<java key>-<content
    key>.jsa, beside the jar of the server's classes (_jar). The java key
    names the resolved java binary, the content key what the cached files
    depend on (that binary's size and mtime, the server source and the JVM
    flags). None if java cannot be read."""
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    try:
        real = os.path.realpath(java)
        stat = os.stat(real)
        content = hashlib.sha256(COMPILE_SERVER.read_bytes())
    except OSError:
        return None
    content.update(repr((stat.st_size, stat.st_mtime_ns, _SERVER_FLAGS)).encode())
    java_key = hashlib.sha256(os.fsencode(real)).hexdigest()[:16]
    return Path(cache, "singletonlab", f"CompileServer-{java_key}-{content.hexdigest()[:32]}.jsa")


def _jar(archive: Path) -> Path:
    """The jar of the server's classes that `archive` was dumped on."""
    return archive.with_suffix(".jar")


def _cached(archive: Path) -> bool:
    """Whether the cache holds both files of `archive`'s entry."""
    return archive.is_file() and _jar(archive).is_file()


def _write_cache_entry(javac: str, java: str, archive: Path) -> None:
    """Write the cache entry of `archive`: first its jar, CompileServer.java
    compiled by a javac process, then the archive, dumped by a server JVM
    on that jar given no channel, which sets up and exits, so it ran no
    candidate code. Each file is written under a temporary name of its own
    and then renamed, so no server reads a partial one; the archive is
    dumped on the renamed jar, whose path it records. Then the other
    entries of its java key are deleted, and archives named by one key, as
    archives were before they had a java key. A failure leaves neither file."""
    jar = _jar(archive)
    temps = [f"{path}.{os.getpid()}-{threading.get_ident()}.tmp" for path in (jar, archive)]
    written = False
    try:
        archive.parent.mkdir(parents=True, exist_ok=True)
        # the dump JVM's working directory too, where its warm-up compiles
        with tempfile.TemporaryDirectory() as work:
            built = _process([javac, *_EXPORTS, "-d", work, os.path.abspath(COMPILE_SERVER)], work, _START_S)
            if built is None or built[0] != 0:
                return
            with zipfile.ZipFile(temps[0], "w") as zipped:
                for path in Path(work).glob("*.class"):
                    zipped.write(path, path.name)
            os.replace(temps[0], jar)
            dumped = _process(_server_argv(java, jar, f"-XX:ArchiveClassesAtExit={temps[1]}"), work, _START_S)
        if dumped is not None and dumped[0] == 0:
            os.replace(temps[1], archive)
            written = True
            java_key = archive.name.rsplit("-", 1)[0] + "-"
            for other in archive.parent.glob("CompileServer-*"):
                if other.suffix in (".jar", ".jsa") and other not in (archive, jar) and (
                    other.name.startswith(java_key) or other.name.count("-") == 1
                ):
                    other.unlink(missing_ok=True)
    except (OSError, ToolchainError):
        pass
    finally:  # a failure leaves no temporary file, and no jar without its archive
        for path in temps if written else [*temps, jar]:
            with contextlib.suppress(OSError):
                os.unlink(path)


class CompileServer:
    """One resident JVM running CompileServer.java (protocol in that file):
    in source-file mode, or, if `archive` is given, from the jar beside it
    (_jar), mapping the classes it needs from the archive. Its one channel
    is its end of a socket pair, whose fd ends its command line; its stdin
    is /dev/null, as a `java Main` process's is, and its stdout and stderr
    go nowhere. Any number of threads may send requests at once: requests
    are written under a lock and one reader thread hands each reply to the
    caller that waits on its id. A request gives the (exit, stderr, stdout)
    reply, None when it overran its budget, or the reason it must go to a
    process (_FALLBACKS): the JVM's refusal, or, once the JVM has ended, why
    it was retired (else `unavailable`)."""

    def __init__(self, java: str, cwd: str | Path | None = None, archive: Path | None = None):
        self.archive = archive
        if archive:
            argv = _server_argv(java, _jar(archive), f"-XX:SharedArchiveFile={archive}")
        else:
            argv = _server_argv(java, None)
        self._channel, theirs = socket.socketpair()
        try:
            # The real Popen, not this module's `subprocess` name, which stands
            # for the per-cell javac/java launches (perfbench/tracer.py times
            # each of those until communicate()); the server lives for the run.
            self.proc = _Popen(
                [*argv, str(theirs.fileno())],
                cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),), env=_tool_env(),
            )
        except OSError:
            self._channel.close()
            raise
        finally:
            theirs.close()  # the JVM has its own copy
        self.version: str | None = None  # the Runtime.version() its "ready" line names, "" if none
        self._up = threading.Event()  # set once it is ready, or has exited
        # Why this server is being retired (a refused reply, an overrun, or
        # "memory" once the JVM ended on an OutOfMemoryError), set before the
        # waiters are woken: the other requests in flight go to processes
        # under this reason.
        self.retired: str | None = None
        # How the JVM was found gone, in the words of the pool's give-up log
        # line: it exited, was not ready in time, or stopped reading.
        self.ended: str | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._waiting: dict[int, futures.Future] = {}
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def request(self, kind: str, directory: str, budget_s: float) -> tuple[int, bytes, bytes] | str | None:
        """The reply to a `compile` or `run` request on directory, None when
        it overran budget_s, or why it must go to a process instead."""
        reply: futures.Future = futures.Future()
        with self._lock:
            key = next(self._ids)
            try:  # fails once the JVM has gone
                self._channel.sendall(f"{key} {kind} {directory}\n".encode("utf-8"))
            except OSError as exc:
                self.ended = self.ended or f"compile server stopped reading: {exc}"
                return self.retired or "unavailable"
            self._waiting[key] = reply
        if not self._up.wait(_START_S):
            with self._lock:
                self._waiting.pop(key, None)
                self.ended = self.ended or f"compile server not ready after {_START_S}s"
                return self.retired or "unavailable"
        try:
            code, stderr, stdout = reply.result(budget_s)
        except futures.TimeoutError:
            with self._lock:
                self._waiting.pop(key, None)
            self._retire_for("overrun")
            return None
        return stderr.decode("ascii", "replace") if code == _REFUSED else (code, stderr, stdout)

    def _retire_for(self, reason: str) -> None:
        """Record why this server is being retired, unless it has a reason."""
        with self._lock:
            self.retired = self.retired or reason

    def close(self) -> None:
        """Kill the JVM and collect its exit status."""
        self.proc.kill()
        self._reader.join()
        self._channel.close()

    def _read(self) -> None:
        # a JVM that ends with a request unread resets the channel: that is its end too
        with self._channel.makefile("rb") as out, contextlib.suppress(ConnectionResetError):
            line = out.readline()  # "ready <version>"; a bare "ready" names none
            if line == b"ready\n" or line.startswith(b"ready "):
                self.version = line[6:].strip().decode("ascii", "replace")
            self._up.set()
            while self.version is not None:
                try:
                    key, code, size, err = map(int, out.readline().split())
                except ValueError:  # end of input, or a line that is no reply
                    break
                body = out.read(size)
                if len(body) < size:
                    break
                if code == _REFUSED:
                    self._retire_for(body.decode("ascii", "replace"))
                with self._lock:
                    waiter = self._waiting.pop(key, None)
                if waiter is not None:
                    waiter.set_result((code, body[:err], body[err:]))  # stderr, then stdout
        self._up.set()  # also when it ended before "ready"
        self.proc.kill()  # no-op once it has exited; the waiters must not wait on it
        status = self.proc.wait()
        if status == _OUT_OF_MEMORY:
            self._retire_for("memory")
        with self._lock:
            self.ended = self.ended or f"compile server exited with {status}"
            refusal = (_REFUSED, (self.retired or "unavailable").encode("ascii"), b"")
            waiting, self._waiting = self._waiting, {}
        for waiter in waiting.values():
            waiter.set_result(refusal)


class ExecPool:
    """A run's toolchain slots, its compile server and its outcome memo.

    slot() bounds concurrent evaluations to `workers`. request() is the one
    way to compile (`compile`) or test-run (`run`) a scratch directory: it
    gives what that kind's process would give, javac on `javac` and
    `java Main` on `java`. A test run when `java` resolves to another file
    than the server's java (`other java`), a scratch path the protocol
    cannot carry (`path`) and any request while the pool has no server
    (`unavailable`) go to the kind's process (_process), the reference.
    Every other request goes once to one CompileServer, so a run keeps at
    most one JVM however many slots are busy. Its reply is the request's
    answer. An overrun (None) and a reason (_FALLBACKS) retire the server,
    and a reason sends the request to the kind's process; the next request
    starts a fresh server. It runs on the `java` beside the resolved
    `javac`, and its compiles reuse javac's contexts, so a JDK class is read
    once per context, not once per compile. start() launches it at set-up,
    without waiting for it; else the first request does. Each tool is
    probed (check_toolchain) once, before its first process, and a failed
    probe raises ToolchainError; the JVM's "ready" line is its own probe.
    The server starts in scratch_root, so relative paths a run opens land
    there, not in the caller's directory (they are not the cell's own
    directory, as they are for `java Main`). If it cannot start (no `java`
    beside `javac`, a JDK older than 11, no jdk.compiler module or no
    JavacTaskPool in it), the pool logs it once and uses processes from
    then on. The first server to say ready has its version kept and
    logged. A pool with no start() and no request (mock mode) launches no
    JVM. close() kills and reaps the server, so no JVM outlives the run and
    its CPU time counts as the run's.

    A server starts from CompileServer.java's compiled classes and maps the
    classes it loads at start-up (javac's, mostly) from a class-data-sharing
    archive when the user's cache holds both, a jar and an archive, for its
    java, CompileServer.java and _SERVER_FLAGS (_archive_path); else it
    starts in source-file mode, and close() writes both after a normal run,
    for the next, and deletes that java's older ones (_write_cache_entry).
    A server on the cache entry that ends before "ready" is not given up:
    both files are deleted, and the next server starts in source-file mode.

    once() evaluates each distinct key one time per pool, so a byte-identical
    candidate of the same task in a later arm reuses its outcome. (Arms run
    one after another, and the cells of one arm are distinct tasks, so no
    two calls with one key overlap.)
    """

    def __init__(
        self, workers: int, javac: str = "javac", java: str = "java", log=None,
        scratch_root: str | Path | None = None,
    ):
        self._slots = threading.Semaphore(max(1, workers))
        self._scratch_root = scratch_root
        self._tools = {"compile": javac, "run": java}
        found = _resolve(javac)
        # the server's java; None once the pool gives the server up, or closes
        self._server_java = os.path.join(os.path.dirname(found), "java") if found else None
        server_java = _resolve(self._server_java)
        self._other_java = server_java is not None and _resolve(java) != server_java
        # the server's class-data-sharing archive, used if it and its jar exist
        self._archive = _archive_path(self._server_java) if self._server_java else None
        self._log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._server: CompileServer | None = None
        self._outcomes: dict[object, OutcomeLabel] = {}
        self._runs: Counter[str] = Counter()
        # the first answering server's Runtime.version(), "" if it named none
        self.version: str | None = None
        self._probes: dict[str, str | None] = {}  # tool: why its probe failed, or None

    def __enter__(self) -> ExecPool:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(archive=exc_type is None)

    def start(self) -> None:
        """Set-up of a run with pending cells: raise ToolchainError unless
        javac and java resolve, and launch the compile server. If it cannot
        launch, probe both tools now, before any cell."""
        for tool in self._tools.values():
            if shutil.which(tool) is None:
                raise ToolchainError(f"cannot run {tool!r}: not found")
        if self._current() is None:
            for tool in self._tools.values():
                self._probe(tool)

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

    def request(self, kind: str, scratch: Path, budget_s: float) -> tuple[int, bytes, bytes] | None:
        """What the `kind` process would give if run in scratch: (exit,
        stderr, stdout), or None once budget_s is passed."""
        directory = os.path.abspath(scratch)
        if kind == "run" and self._other_java:
            reply = "other java"
        elif not _SERVABLE_PATH.fullmatch(directory):
            reply = "path"
        elif (server := self._current()) is None:
            reply = "unavailable"
        else:
            reply = server.request(kind, directory, budget_s)
            self._note_version(server)
            if not isinstance(reply, tuple):
                self._retire(server)
        if kind == "run" and reply is not None:
            with self._lock:
                self._runs[reply if isinstance(reply, str) else "resident JVM"] += 1
        if isinstance(reply, str):
            self._probe(self._tools[kind])
            return _process([self._tools[kind], *_ARGS[kind]], scratch, budget_s)
        if kind == "run" or reply is None:
            return reply
        # the server names scratch/Main.java by its absolute path; javac run in scratch does not
        code, stderr, stdout = reply
        return code, stderr.replace(f"{directory}{os.sep}".encode(), b""), stdout

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

    def close(self, archive: bool = True) -> None:
        """Kill and reap the server. Then write its cache entry if the cache
        lacks its jar or archive, a server of this pool said ready with a
        version, and `archive` holds (no exception is in flight); a JDK
        before 13 fails to dump an archive, and so leaves neither."""
        with self._lock:
            java, self._server_java = self._server_java, None
            server, self._server = self._server, None
        if server is not None:
            server.close()
        if archive and java and self.version and self._archive and not _cached(self._archive):
            _write_cache_entry(self._tools["compile"], java, self._archive)

    def _note_version(self, server: CompileServer) -> None:
        with self._lock:
            first = self.version is None and server.version is not None
            if first:
                self.version = server.version
        if first and self.version:
            self._log(f"exec: resident JVM {self.version}")

    def _probe(self, tool: str) -> None:
        """check_toolchain(tool), the first time this pool is about to run
        it as a process; a failure is kept and raised again on every call.
        Probed under the lock, so concurrent first processes share one probe."""
        with self._lock:
            if tool not in self._probes:
                try:
                    check_toolchain(tool)
                    self._probes[tool] = None
                except ToolchainError as exc:
                    self._probes[tool] = str(exc)
            failure = self._probes[tool]
        if failure is not None:
            raise ToolchainError(failure)

    def _current(self) -> CompileServer | None:
        with self._lock:
            if self._server is not None or self._server_java is None:
                return self._server
            try:
                # launched under the lock, so concurrent first requests share one
                if self._scratch_root is not None:
                    os.makedirs(self._scratch_root, exist_ok=True)
                archive = self._archive if self._archive and _cached(self._archive) else None
                self._server = CompileServer(self._server_java, self._scratch_root, archive)
                return self._server
            except OSError as exc:
                reason = f"cannot run {self._server_java!r}: {exc}"
        self._give_up(reason)
        return None

    def _retire(self, server: CompileServer) -> None:
        """Drop and kill `server`; the next request starts a fresh one."""
        with self._lock:
            if self._server is server:
                self._server = None
        server.close()
        if server.retired is None and server.version is None:  # it could not start
            if server.archive is None:
                self._give_up(server.ended)
            else:  # a damaged entry crashes the JVM: the next server starts without it
                for path in (server.archive, _jar(server.archive)):
                    with contextlib.suppress(OSError):
                        os.unlink(path)

    def _give_up(self, reason: str) -> None:
        with self._lock:
            if self._server_java is None:
                return
            self._server_java = None
        self._log(f"exec: compile server unavailable ({reason}); using javac and java Main processes")


def _resolve(tool: str | None) -> str | None:
    found = shutil.which(tool) if tool else None
    return os.path.realpath(found) if found else None


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
    primary = select_primary_class(parse_compilation_unit(candidate), task.expected_class_name or None)
    return primary is not None and evaluate_predicates(primary).private_constructor

