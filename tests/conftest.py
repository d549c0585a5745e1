from __future__ import annotations

import json
import math
import shutil
import subprocess
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from singletonlab.exec_harness import ExecPool
from singletonlab.source_model import TRACKED_MODIFIERS, ClassModel, MemberModel

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
MOCK_TASKS = FIXTURES / "tasks_mock.jsonl"
JDK_TASKS = FIXTURES / "tasks_jdk.jsonl"
MOCK_SCRIPT = FIXTURES / "mock_script.json"
GOLDEN = FIXTURES / "golden"


def find_jdk() -> tuple[str, str] | None:
    javac = shutil.which("javac")
    java = shutil.which("java")
    if javac and java:
        return javac, java
    return None


requires_jdk = pytest.mark.skipif(
    find_jdk() is None, reason="no JDK (javac/java) on PATH"
)


def exact_binomial_oracle(b: int, c: int) -> Fraction:
    """Brute-force two-sided binomial sum in exact rational arithmetic."""
    n = b + c
    if n == 0:
        return Fraction(1)
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1))
    return min(Fraction(1), Fraction(2 * tail, 2**n))


def normal_two_sided_tail_oracle(z: float, upper: float = 60.0, steps: int = 200_000) -> float:
    """Simpson quadrature of 2*phi(t) over [z, upper]; the chi-square(1) upper
    tail at z**2 equals this integral."""
    h = (upper - z) / steps
    f = lambda t: 2.0 * math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    s = f(z) + f(upper)
    for i in range(1, steps):
        s += (4 if i % 2 else 2) * f(z + i * h)
    return s * h / 3.0


def class_model(name: str, *members) -> ClassModel:
    """A ClassModel of (kind, name, type, modifiers) members."""
    return ClassModel(name, tuple(MemberModel(k, n, t, frozenset(m)) for k, n, t, m in members))


@pytest.fixture(scope="session", autouse=True)
def archive_cache(tmp_path_factory):
    """The session's own cache directory (XDG_CACHE_HOME), which already
    holds the compile server's cache entry (its jar and class-data-sharing
    archive) when the first test starts: it is written once here, by a
    pool's close, so no later pool writes one unless its test points
    XDG_CACHE_HOME elsewhere."""
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        tools = find_jdk()
        if tools is not None:
            scratch = tmp_path_factory.mktemp("archive")
            (scratch / "Main.java").write_text("public class Main {}\n", encoding="utf-8")
            with ExecPool(1, tools[0], scratch_root=scratch) as pool:
                assert pool.request("compile", scratch, 60) == (0, b"", b"")
        yield


@pytest.fixture(scope="session")
def compile_server():
    """One warm compile server for the JDK tests; a javac process costs ~1 s
    per compile. test_exec_harness.py checks it against javac processes."""
    tools = find_jdk()
    if tools is None:
        pytest.skip("no JDK (javac/java) on PATH")
    with ExecPool(1, tools[0]) as pool:
        yield pool


@pytest.fixture(scope="session")
def javac_oracle():
    """javac's digest of a source: the ClassModels of its top-level classes,
    as JavacTreeOracle.java reads them from javac's parse tree, or None if
    javac finds a parse error. One JVM serves the session."""
    tools = find_jdk()
    if tools is None:
        pytest.skip("no JDK (javac/java) on PATH")
    command = [tools[1], "-XX:TieredStopAtLevel=1", "-XX:+UseSerialGC",  # half the CPU of the defaults
               str(Path(__file__).with_name("JavacTreeOracle.java")), *TRACKED_MODIFIERS]
    with subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as oracle:

        def digest(text: str) -> list[ClassModel] | None:
            data = text.encode("utf-8")
            oracle.stdin.write(len(data).to_bytes(4, "big") + data)
            oracle.stdin.flush()
            line = oracle.stdout.readline()
            if not line:
                raise RuntimeError(f"JavacTreeOracle exited with {oracle.wait()}")
            classes = json.loads(line)
            return None if classes is None else [class_model(name, *members) for name, members in classes]

        try:
            yield digest
        finally:
            oracle.kill()  # the context's exit reaps it


@pytest.fixture(scope="session")
def corpus_labels() -> dict[str, dict[str, bool]]:
    return json.loads((FIXTURES / "corpus_labels.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def mock_script() -> dict:
    return json.loads(MOCK_SCRIPT.read_text("utf-8"))


class StubHandler(BaseHTTPRequestHandler):
    """Canned chat-completion endpoint; records request bodies."""

    requests: list[dict] = []
    failures_left = 0
    failure_status = 500
    retry_after: str | None = None  # the Retry-After header of a failure
    body = "class A {}"
    # payload -> the JSON document of a 200 reply; None sends `body` as a chat completion
    document = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        type(self).requests.append(
            {"payload": payload, "auth": self.headers.get("Authorization"), "at": time.monotonic()}
        )
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).failure_status)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        response = {
            "choices": [{"message": {"role": "assistant", "content": type(self).body}}]
        }
        if type(self).document is not None:
            response = type(self).document(payload)
        data = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    StubHandler.requests = []
    StubHandler.failures_left = 0
    StubHandler.failure_status = 500
    StubHandler.retry_after = None
    StubHandler.body = "class A {}"
    StubHandler.document = None
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
