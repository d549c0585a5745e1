from __future__ import annotations

import json
import shutil
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from singletonlab.exec_harness import ExecPool

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


@pytest.fixture(scope="session", autouse=True)
def archive_cache(tmp_path_factory):
    """The session's own cache directory (XDG_CACHE_HOME), which already
    holds the compile server's class-data-sharing archive when the first
    test starts: it is written once here, by a pool's close, so no later
    pool writes one unless its test points XDG_CACHE_HOME elsewhere."""
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
