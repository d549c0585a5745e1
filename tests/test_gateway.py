from __future__ import annotations

import sys
import threading
import time

import pytest

from singletonlab.config import ModelSpec
from singletonlab.gateway import (
    ChatMessage,
    GatewayError,
    ScriptedModel,
    complete,
    endpoint_limiter,
)

from conftest import StubHandler

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
    ModelSpec("m", timeout_s=0, script=["class A {}"])  # scripted: no endpoint needed


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
