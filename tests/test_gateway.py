from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import singletonlab

from singletonlab.config import ModelSpec, parse_config
from singletonlab.gateway import (
    ChatMessage,
    GatewayError,
    ScriptedModel,
    _ROUTE_VARIABLES,
    _request_body,
    _route,
    complete,
    endpoint_limiter,
)
from singletonlab.runner import run_experiment

from conftest import MOCK_TASKS, StubHandler

HISTORY = [ChatMessage("system", "sys"), ChatMessage("user", "hello")]


def handle(endpoint: str, **kwargs) -> ModelSpec:
    return ModelSpec("test-model", endpoint, **kwargs)


# --- scripted backend -------------------------------------------------------


def test_scripted_model_replays_in_order():
    model = ScriptedModel(["class A {}", "class B {}"])
    first = complete(model, HISTORY)
    second = complete(model, HISTORY)
    assert (first.role, first.content) == ("assistant", "class A {}")
    assert second.content == "class B {}"
    assert model.cursor == 2


def test_scripted_model_exhaustion():
    model = ScriptedModel(["only"])
    complete(model, HISTORY)
    with pytest.raises(GatewayError, match="script exhausted"):
        complete(model, HISTORY)


def test_scripted_model_is_deterministic():
    script = ["a", "b", "c"]
    outputs1 = [complete(ScriptedModel(script), HISTORY).content for _ in range(1)]
    model1, model2 = ScriptedModel(script), ScriptedModel(script)
    seq1 = [complete(model1, HISTORY).content for _ in range(3)]
    seq2 = [complete(model2, HISTORY).content for _ in range(3)]
    assert seq1 == seq2 == script
    assert outputs1 == ["a"]


def test_history_validation():
    model = ScriptedModel(["x"])
    with pytest.raises(ValueError, match="empty"):
        complete(model, [])
    with pytest.raises(ValueError, match="system"):
        complete(model, [ChatMessage("user", "no system first")])


def test_invalid_role_rejected():
    with pytest.raises(ValueError, match="invalid role"):
        ChatMessage("tool", "x")


# --- HTTP backend ------------------------------------------------------------


def test_http_complete_returns_body_verbatim(stub_server):
    StubHandler.body = "  class A {}\n\nwith trailing spaces  "
    reply = complete(handle(stub_server), HISTORY)
    assert reply.role == "assistant"
    assert reply.content == "  class A {}\n\nwith trailing spaces  "


def test_http_sends_full_history_and_params(stub_server):
    history = [
        ChatMessage("system", "sys"),
        ChatMessage("user", "u1"),
        ChatMessage("assistant", "a1"),
        ChatMessage("user", "u2"),
    ]
    complete(handle(stub_server, temperature=0.7, max_tokens=128, seed=42), history)
    payload = StubHandler.requests[-1]["payload"]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "u1"},
        {"role": "assistant", "content": "a1"},
        {"role": "user", "content": "u2"},
    ]
    assert payload["temperature"] == 0.7
    assert payload["max_tokens"] == 128
    assert payload["seed"] == 42


def test_http_seed_omitted_when_unset(stub_server):
    complete(handle(stub_server), HISTORY)
    assert "seed" not in StubHandler.requests[-1]["payload"]


def test_http_bearer_token_from_env(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_GATEWAY_KEY", "sekret")
    complete(handle(stub_server, auth_ref="STUB_GATEWAY_KEY"), HISTORY)
    assert StubHandler.requests[-1]["auth"] == "Bearer sekret"


def test_http_missing_credential_env(stub_server, monkeypatch):
    monkeypatch.delenv("STUB_GATEWAY_KEY", raising=False)
    with pytest.raises(GatewayError, match="STUB_GATEWAY_KEY"):
        complete(handle(stub_server, auth_ref="STUB_GATEWAY_KEY"), HISTORY)


def test_http_retries_then_succeeds(stub_server):
    StubHandler.failures_left = 2
    reply = complete(handle(stub_server), HISTORY, retries=3, backoff_s=0.01)
    assert reply.content == "class A {}"
    assert len(StubHandler.requests) == 3


def test_http_error_carries_model_id_and_attempts(stub_server):
    StubHandler.failures_left = 99
    with pytest.raises(GatewayError, match="test-model.*after 2 attempts"):
        complete(handle(stub_server), HISTORY, retries=1, backoff_s=0.01)


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_client_error_is_not_retried(stub_server, status):
    StubHandler.failures_left = 99
    StubHandler.failure_status = status
    with pytest.raises(GatewayError, match=f"test-model.*after 1 attempts: .*HTTP {status}"):
        complete(handle(stub_server), HISTORY, retries=3, backoff_s=0.01)
    assert len(StubHandler.requests) == 1


@pytest.mark.parametrize("status", [408, 429])
def test_http_timeout_and_throttle_statuses_are_retried(stub_server, status):
    StubHandler.failures_left = 2
    StubHandler.failure_status = status
    reply = complete(handle(stub_server), HISTORY, retries=3, backoff_s=0.01)
    assert reply.content == "class A {}"
    assert len(StubHandler.requests) == 3


@pytest.mark.parametrize(
    "status, retry_after, least_wait",
    [(429, "1", 1.0), (503, " 1 ", 1.0), (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0), (500, "1", 0.0)],
)
def test_http_retry_after_seconds_delay_the_next_attempt(stub_server, status, retry_after, least_wait):
    StubHandler.failures_left = 1
    StubHandler.failure_status = status
    StubHandler.retry_after = retry_after
    complete(handle(stub_server), HISTORY, retries=1, backoff_s=0.01)
    first, second = (request["at"] for request in StubHandler.requests)
    assert second - first >= least_wait
    if least_wait == 0.0:
        assert second - first < 1.0  # the date form, or another status: backoff alone


def test_http_retry_after_is_capped_at_the_model_timeout(stub_server):
    StubHandler.failures_left = 1
    StubHandler.failure_status = 429
    StubHandler.retry_after = "3600"
    complete(handle(stub_server, timeout_s=1), HISTORY, retries=1, backoff_s=0.01)
    first, second = (request["at"] for request in StubHandler.requests)
    assert 1.0 <= second - first < 3.0


def test_http_transport_failure():
    dead = handle("http://127.0.0.1:1/v1/chat", timeout_s=1)
    with pytest.raises(GatewayError, match="test-model"):
        complete(dead, HISTORY, retries=0, backoff_s=0.01)


def test_invalid_endpoint_rejected():
    with pytest.raises(ValueError, match="invalid endpoint"):
        ModelSpec("m", "not a url")
    with pytest.raises(ValueError, match="invalid endpoint"):
        ModelSpec("m")
    with pytest.raises(ValueError, match="timeout"):
        ModelSpec("m", "http://localhost:1", timeout_s=0)
    ModelSpec("m", timeout_s=1, script=["class A {}"])  # scripted: no endpoint needed


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"temperature": True}, "temperature must be a finite number"),
        ({"max_tokens": 0}, "max_tokens must be >= 1"),
        ({"timeout_s": 0, "script": ["class A {}"]}, "timeout_s must be >= 1"),
        ({"script": "class A {}"}, "script must be a list or an object"),
    ],
    ids=["temperature-bool", "max-tokens-zero", "scripted-timeout-zero", "script-string"],
)
def test_a_model_built_in_python_obeys_the_config_rules(settings, message):
    with pytest.raises(ValueError, match=f"model 'm': {message}"):
        ModelSpec("m", "http://h:1/v1", **settings)


def test_endpoint_limiter_is_shared_and_bounded():
    limiter = endpoint_limiter("http://example.test/x", cap=2)
    again = endpoint_limiter("http://example.test/x", cap=2)
    assert limiter is again
    assert limiter.acquire(blocking=False)
    assert limiter.acquire(blocking=False)
    assert not limiter.acquire(blocking=False)
    limiter.release()
    limiter.release()
    # a later run with a wider cap on the same endpoint gets that cap
    wider = endpoint_limiter("http://example.test/x", cap=3)
    assert [wider.acquire(blocking=False) for _ in range(4)] == [True, True, True, False]
    for _ in range(3):
        wider.release()


def test_endpoint_limiter_hands_a_released_permit_to_its_waiter():
    limiter = endpoint_limiter("http://example.test/fifo", cap=1)
    assert limiter.acquire(blocking=False)
    got = threading.Event()

    def wait_for_permit():
        limiter.acquire()
        got.set()
        limiter.release()

    waiter = threading.Thread(target=wait_for_permit, daemon=True)
    waiter.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:  # until the waiter is parked in acquire
        frame = sys._current_frames().get(waiter.ident)
        if frame is not None and frame.f_code.co_name in ("acquire", "wait"):
            break
        time.sleep(0.001)
    limiter.release()
    # the releasing thread starts its next cell at once: it must queue
    assert not limiter.acquire(blocking=False)
    assert got.wait(10)
    waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert limiter.acquire(blocking=False)
    limiter.release()


@pytest.mark.parametrize(
    "document",
    [[], "x", {"choices": None}, {"choices": [{"message": None}]}],
    ids=["list", "string", "null-choices", "null-message"],
)
def test_http_reply_of_the_wrong_shape_is_retried_then_a_gateway_error(stub_server, document):
    StubHandler.document = lambda payload: document
    with pytest.raises(GatewayError, match="test-model.*after 2 attempts: TypeError"):
        complete(handle(stub_server), HISTORY, retries=1, backoff_s=0.01)
    assert len(StubHandler.requests) == 2


# --- the stdlib sender, against a raw socket server ----------------------------


class RawServer:
    """Serves one canned reply per connection, in order, and keeps each
    request's head and body. A reply is bytes, sent before the server
    closes, or None: say nothing until the client hangs up."""

    def __init__(self, replies: list[bytes | None]):
        self.replies = replies
        self.requests: list[tuple[str, bytes]] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        for reply in self.replies:
            connection, _ = self.listener.accept()
            with connection:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += connection.recv(65536)
                head, _, body = data.partition(b"\r\n\r\n")
                length = next(
                    (int(line.split(b":")[1]) for line in head.split(b"\r\n")
                     if line.lower().startswith(b"content-length:")),
                    0,
                )
                while len(body) < length:
                    body += connection.recv(65536)
                self.requests.append((head.decode("latin-1"), body))
                if reply is None:
                    while connection.recv(65536):
                        pass
                else:
                    try:
                        connection.sendall(reply)
                    except OSError:  # the client hung up on a reply it refused
                        pass

    def close(self) -> None:
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()


@pytest.fixture()
def raw_server():
    servers: list[RawServer] = []

    def start(*replies: bytes | None) -> RawServer:
        servers.append(RawServer(list(replies)))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def chat_reply(content: str, **headers: str) -> bytes:
    body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()
    head = "".join(f"{name.replace('_', '-')}: {value}\r\n" for name, value in headers.items())
    return f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n{head}\r\n".encode() + body


def test_sender_writes_the_json_body_and_headers(raw_server, monkeypatch):
    server = raw_server(chat_reply("class A {}"))
    monkeypatch.setenv("STUB_GATEWAY_KEY", "sekret")
    history = [ChatMessage("system", "s\u00e9"), ChatMessage("user", "\u00fc \"q\" \U0001f600")]
    spec = handle(f"http://{server.address}/v1/chat?x=1", auth_ref="STUB_GATEWAY_KEY", seed=7)
    assert complete(spec, history).content == "class A {}"
    [(head, body)] = server.requests
    payload = {
        "model": "test-model",
        "messages": [{"role": m.role, "content": m.content} for m in history],
        "temperature": 0.2,
        "max_tokens": 4096,
        "seed": 7,
    }
    assert body == json.dumps(payload, allow_nan=False).encode()
    request_line, *lines = head.split("\r\n")
    assert request_line == "POST /v1/chat?x=1 HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in lines)
    assert headers == {
        "Host": server.address,
        "Accept-Encoding": "identity",
        "Content-Length": str(len(body)),
        "Content-Type": "application/json",
        "Authorization": "Bearer sekret",
        "Connection": "close",
    }


def test_sender_reads_a_chunked_reply(raw_server):
    body = json.dumps({"choices": [{"message": {"role": "assistant", "content": "class B {}"}}]}).encode()
    chunks = b"".join(b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:10], body[10:]))
    server = raw_server(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\n\r\n")
    assert complete(handle(f"http://{server.address}/v1"), HISTORY).content == "class B {}"


def test_a_reply_cut_off_mid_body_is_retried(raw_server):
    server = raw_server(
        b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"choices": [',
        chat_reply("class C {}"),
    )
    reply = complete(handle(f"http://{server.address}/v1"), HISTORY, retries=1, backoff_s=0.01)
    assert reply.content == "class C {}"
    assert len(server.requests) == 2


def test_a_read_timeout_is_retried_then_a_gateway_error(raw_server):
    server = raw_server(None, None)
    with pytest.raises(GatewayError, match="test-model.*after 2 attempts: TimeoutError"):
        complete(handle(f"http://{server.address}/v1", timeout_s=1), HISTORY, retries=1, backoff_s=0.01)
    assert len(server.requests) == 2


def test_an_error_body_that_is_not_utf8_is_decoded_with_replacements(raw_server):
    server = raw_server(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 9\r\n\r\nbad \xff\xfe ok")
    with pytest.raises(GatewayError, match="after 1 attempts: GatewayError: HTTP 400: bad \ufffd\ufffd ok$"):
        complete(handle(f"http://{server.address}/v1"), HISTORY, retries=3, backoff_s=0.01)


REPLY_BODY = json.dumps({"choices": [{"message": {"role": "assistant", "content": "class I {}"}}]}).encode()


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(REPLY_BODY), REPLY_BODY),
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + REPLY_BODY,
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Digest\r\n\r\n"
        + b"%x;name=value\r\n%s\r\n0;last\r\nX-Digest: abc\r\n\r\n" % (len(REPLY_BODY), REPLY_BODY),
    ],
    ids=["after-100-continue", "ended-by-the-close", "chunked-with-extensions-and-trailer"],
)
def test_sender_reads_each_framing_of_a_reply(raw_server, reply):
    server = raw_server(reply)
    assert complete(handle(f"http://{server.address}/v1"), HISTORY, retries=0).content == "class I {}"


def test_a_lower_case_retry_after_delays_the_next_attempt(raw_server):
    server = raw_server(
        b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 0\r\n\r\n",
        chat_reply("class L {}"),
    )
    started = time.monotonic()
    assert complete(handle(f"http://{server.address}/v1"), HISTORY, retries=1, backoff_s=0.01).content == "class L {}"
    assert time.monotonic() - started >= 1.0


@pytest.mark.parametrize(
    "reply, error",
    [
        (b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 101 + b"Content-Length: 0\r\n\r\n", "more than 100 headers"),
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * 65536 + b"\r\nContent-Length: 0\r\n\r\n", "LineTooLong"),
        (b"HTTP/2 200\r\nContent-Length: 0\r\n\r\n", "BadStatusLine"),
        (b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n", "BadStatusLine"),
    ],
    ids=["101-headers", "65-kb-header-line", "http-2", "not-http"],
)
def test_a_reply_head_out_of_bounds_is_retried_then_a_gateway_error(raw_server, reply, error):
    server = raw_server(reply, reply)
    with pytest.raises(GatewayError, match=f"test-model.*after 2 attempts: .*{error}"):
        complete(handle(f"http://{server.address}/v1"), HISTORY, retries=1, backoff_s=0.01)
    assert len(server.requests) == 2


def test_a_credential_that_cannot_go_in_a_header_is_never_sent_or_stored(raw_server, monkeypatch, tmp_path):
    server = raw_server()
    monkeypatch.setenv("STUB_GATEWAY_KEY", "sekret-value\n")
    spec = handle(f"http://{server.address}/v1", auth_ref="STUB_GATEWAY_KEY")
    with pytest.raises(GatewayError, match="test-model: credential env var 'STUB_GATEWAY_KEY'") as raised:
        complete(spec, HISTORY, retries=3, backoff_s=0.01)
    assert "sekret" not in str(raised.value)
    config = parse_config({
        "run_id": "key",
        "dataset": {"path": str(MOCK_TASKS)},
        "output_dir": str(tmp_path / "store"),
        "models": [{"model_id": "m", "endpoint": spec.endpoint, "auth_ref": "STUB_GATEWAY_KEY"}],
        "strategies": ["baseline"],
        "exec": {"mode": "mock"},
        "retries": 3,
        "backoff_s": 0.01,
    })
    records = run_experiment(config, log=lambda message: None).load_records("m", "baseline")
    assert {record.functional_outcome.kind for record in records} == {"Aborted"}
    stored = b"".join(path.read_bytes() for path in (tmp_path / "store").rglob("*") if path.is_file())
    assert b"STUB_GATEWAY_KEY" in stored and b"sekret" not in stored
    server.listener.setblocking(False)
    with pytest.raises(BlockingIOError):  # no connection waits to be accepted
        server.listener.accept()
    assert server.requests == []


@pytest.mark.parametrize(
    "settings",
    [{}, {"seed": 0, "temperature": 0}, {"model_id": "m\u00fc/\"x\"", "temperature": 1.5, "max_tokens": 1}],
    ids=["defaults", "seed-and-integer-temperature", "escaped-model-id"],
)
def test_the_request_body_is_the_payloads_json_and_each_message_is_encoded_once(settings):
    spec = ModelSpec(settings.pop("model_id", "test-model"), "http://h:1/v1", **settings)
    history = [ChatMessage("system", "s\u00e9\t"), ChatMessage("user", "\u2028 \\ \"q\" \U0001f600"), ChatMessage("assistant", "")]
    payload = {
        "model": spec.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in history],
        "temperature": spec.temperature,
        "max_tokens": spec.max_tokens,
        **({} if spec.seed is None else {"seed": spec.seed}),
    }
    assert _request_body(spec, history) == json.dumps(payload, allow_nan=False).encode()
    assert all("encoded" in vars(message) for message in history)


@pytest.fixture()
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


def test_an_http_proxy_gets_the_absolute_url(raw_server, proxy_env):
    proxy = raw_server(chat_reply("class D {}"))
    proxy_env("http_proxy", f"http://{proxy.address}")
    reply = complete(handle("http://chat.example.test:8080/v1/chat?x=1"), HISTORY, retries=0)
    assert reply.content == "class D {}"
    [(head, _)] = proxy.requests
    request_line, host = head.split("\r\n")[:2]
    assert request_line == "POST http://chat.example.test:8080/v1/chat?x=1 HTTP/1.1"
    assert host == "Host: chat.example.test:8080"


def test_no_proxy_bypasses_the_proxy(raw_server, proxy_env):
    server = raw_server(chat_reply("class E {}"))
    proxy_env("http_proxy", "http://127.0.0.1:1")  # nothing listens there
    proxy_env("no_proxy", "localhost,127.0.0.1")
    assert complete(handle(f"http://{server.address}/v1"), HISTORY, retries=0).content == "class E {}"
    assert server.requests[0][0].startswith("POST /v1 HTTP/1.1\r\n")


def test_an_https_target_is_tunnelled_through_the_proxy(raw_server, proxy_env):
    proxy = raw_server(b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n")
    proxy_env("https_proxy", f"http://{proxy.address}")
    with pytest.raises(GatewayError, match="after 1 attempts: OSError: Tunnel connection failed: 403"):
        complete(handle("https://chat.example.test/v1"), HISTORY, retries=0)
    assert proxy.requests[0][0].startswith("CONNECT chat.example.test:443 HTTP/1.")


@pytest.mark.parametrize(
    "url, address, host",
    [
        ("http://[::1]/v1", ("::1", 80), "[::1]"),
        ("https://[::1]/v1", ("::1", 443), "[::1]"),
        ("http://[::1]:8080/v1", ("::1", 8080), "[::1]:8080"),
        ("https://chat.example.test:443/v1", ("chat.example.test", 443), "chat.example.test"),
    ],
)
def test_an_endpoint_without_a_port_is_reached_on_its_schemes_port(proxy_env, url, address, host):
    _, connect_to, _, _, host_header = _route(url, *map(os.environ.get, _ROUTE_VARIABLES))
    assert (connect_to, host_header) == (address, host)


def test_a_proxy_set_or_bypassed_between_requests_routes_the_next_one(raw_server, proxy_env):
    server = raw_server(chat_reply("class F {}"), chat_reply("class H {}"))
    proxy = raw_server(chat_reply("class G {}"))
    spec = handle(f"http://{server.address}/v1")
    assert complete(spec, HISTORY, retries=0).content == "class F {}"
    proxy_env("http_proxy", f"http://{proxy.address}")
    assert complete(spec, HISTORY, retries=0).content == "class G {}"
    proxy_env("no_proxy", "127.0.0.1")
    assert complete(spec, HISTORY, retries=0).content == "class H {}"
    assert [head.split("\r\n")[0] for head, _ in server.requests] == ["POST /v1 HTTP/1.1"] * 2
    assert proxy.requests[0][0].startswith(f"POST http://{server.address}/v1 HTTP/1.1\r\n")


def test_importing_the_package_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import singletonlab; "
        "print('\\n'.join(sorted({name.split('.')[0] for name in set(sys.modules) - before})))"
    )
    src = str(Path(singletonlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "singletonlab" in loaded
    assert loaded - {"singletonlab"} <= sys.stdlib_module_names
