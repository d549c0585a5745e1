"""Uniform chat interface: an HTTP chat-completion client plus a scripted mock.

The HTTP backend is a `config.ModelSpec` with an endpoint; the scripted one
is a `ScriptedModel`. Both take a full message history and return one
assistant message. Contents pass through byte-exactly in both directions;
the transcript a caller records is exactly what went over the wire.
"""

from __future__ import annotations

import functools
import http.client
import json as _json
import os
import ssl
import threading
import time
import urllib.request
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

if TYPE_CHECKING:
    from .config import ModelSpec

VALID_ROLES = ("system", "user", "assistant")

# 4xx statuses that a later attempt may get past: request timeout, throttling.
RETRIED_CLIENT_ERRORS = (408, 429)
# Statuses whose Retry-After header (delay-seconds) sets the least wait
# before the next attempt.
RETRY_AFTER_STATUSES = (429, 503)


class GatewayError(Exception):
    pass


@dataclass(frozen=True)
class HttpReply:
    status: int
    headers: http.client.HTTPMessage
    body: bytes


def _post(url: str, *, json: object, headers: dict[str, str], timeout: float) -> HttpReply:
    """POST `json` to `url` over one fresh connection, closed on every path.

    The body is `json.dumps(json, allow_nan=False)` in UTF-8. `http_proxy`,
    `https_proxy` and `no_proxy` come from the environment: an HTTP target
    goes to the proxy with its absolute URL, an HTTPS target through a
    CONNECT tunnel. They are read on every call; a URL's route is worked out
    again only when one changed (`_route`). A redirect is returned like any
    other status. Transport failures raise OSError or http.client.HTTPException.
    """
    body = _json.dumps(json, allow_nan=False).encode("utf-8")
    tls, address, target, tunnel = _route(url, *map(os.environ.get, _ROUTE_VARIABLES))
    connection: http.client.HTTPConnection
    if tls:
        connection = http.client.HTTPSConnection(*address, timeout=timeout, context=_tls_context())
        if tunnel:
            connection.set_tunnel(*tunnel)
    else:
        connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.request("POST", target, body=body, headers={**headers, "Connection": "close"})
        response = connection.getresponse()
        return HttpReply(response.status, response.headers, response.read())
    finally:
        connection.close()


# What urllib's proxy rules read for an http or https URL, in lower and
# upper case; REQUEST_METHOD (a CGI request) makes it ignore HTTP_PROXY.
_ROUTE_VARIABLES = "http_proxy HTTP_PROXY https_proxy HTTPS_PROXY no_proxy NO_PROXY REQUEST_METHOD".split()


@functools.lru_cache(maxsize=64)
def _route(url: str, *variables: str | None) -> tuple[bool, tuple, str, tuple | None]:
    """Where a POST to `url` goes: (over TLS, the address to connect to, the
    request target, the host and port of a CONNECT tunnel or None). urllib
    reads the environment; `variables`, the values of `_ROUTE_VARIABLES`,
    only key the cache."""
    parts = urlsplit(url)
    host, port = parts.hostname, parts.port
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return parts.scheme == "https", (host, port), target, None
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    address = (proxy_parts.hostname, proxy_parts.port)
    if parts.scheme == "https":
        return True, address, target, (host, port)
    return False, address, f"{parts.scheme}://{parts.netloc}{target}", None


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One context per process: building one loads the system CA store."""
    return ssl.create_default_context()


# perfbench/tracer.py times every attempt by swapping `gateway.requests` for
# a proxy of its `post`, so each attempt looks the sender up here. The name
# stays for that tracer until ROADMAP item 6's events take its place.
requests = SimpleNamespace(post=_post)


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in VALID_ROLES:
            raise ValueError(f"invalid role {self.role!r}")


class ScriptedModel:
    """Deterministic offline backend: replies from a fixed response list."""

    def __init__(self, script: list[str], model_id: str = "scripted"):
        self.script = list(script)
        self.cursor = 0
        self.model_id = model_id

    def next_response(self) -> str:
        if self.cursor >= len(self.script):
            raise GatewayError(f"{self.model_id}: script exhausted after {self.cursor} responses")
        response = self.script[self.cursor]
        self.cursor += 1
        return response


def complete(
    model: ModelSpec | ScriptedModel,
    history: list[ChatMessage],
    retries: int = 3,
    backoff_s: float = 1.0,
) -> ChatMessage:
    """Send the full history, return the assistant reply.

    HTTP failures (transport, bad status, a body that is not JSON or not
    shaped as a chat completion, timeout) are retried up to `retries` times
    with exponential backoff before raising, except a 4xx status other than
    408 and 429: the request itself is at fault, so it raises after that
    one attempt. A 429 or 503 with a Retry-After of N seconds waits at
    least N seconds before the next, up to the model's timeout_s: the
    header comes from outside, and an hour's wait would hold the cell's
    endpoint permit all that time.
    """
    if not history:
        raise ValueError("history must not be empty")
    if history[0].role != "system":
        raise ValueError("first message must have role 'system'")
    if isinstance(model, ScriptedModel):
        return ChatMessage("assistant", model.next_response())
    return _http_complete(model, history, retries, backoff_s)


def _http_complete(
    spec: ModelSpec, history: list[ChatMessage], retries: int, backoff_s: float
) -> ChatMessage:
    payload: dict = {
        "model": spec.model_id,
        "messages": [{"role": m.role, "content": m.content} for m in history],
        "temperature": spec.temperature,
        "max_tokens": spec.max_tokens,
    }
    if spec.seed is not None:
        payload["seed"] = spec.seed
    headers = {"Content-Type": "application/json"}
    if spec.auth_ref:
        credential = os.environ.get(spec.auth_ref)
        if credential is None:
            raise GatewayError(
                f"{spec.model_id}: credential env var {spec.auth_ref!r} is not set"
            )
        headers["Authorization"] = f"Bearer {credential}"

    last_error = ""
    attempt, attempts = 0, retries + 1
    for attempt in range(1, attempts + 1):
        status, retry_after = 0, 0
        try:
            reply = requests.post(
                spec.endpoint, json=payload, headers=headers, timeout=spec.timeout_s
            )
            status = reply.status
            if status in RETRY_AFTER_STATUSES:
                retry_after = min(_delay_seconds(reply.headers.get("Retry-After", "")), spec.timeout_s)
            if status // 100 != 2:
                raise GatewayError(f"HTTP {status}: {reply.body.decode('utf-8', 'replace')[:200]}")
            document = _json.loads(reply.body)
            content = document["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise GatewayError("response content is not a string")
            return ChatMessage("assistant", content)
        except (
            OSError, http.client.HTTPException, GatewayError, KeyError, IndexError, TypeError, ValueError
        ) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            if status // 100 == 4 and status not in RETRIED_CLIENT_ERRORS:
                break
            if attempt < attempts:
                time.sleep(max(backoff_s * 2 ** (attempt - 1), retry_after))
    raise GatewayError(
        f"{spec.model_id}: request failed after {attempt} attempts: {last_error}"
    )


def _delay_seconds(value: str) -> int:
    """A Retry-After header's delay-seconds; 0 for the HTTP-date form."""
    value = value.strip()
    return int(value) if value.isascii() and value.isdigit() else 0


class FifoLimiter:
    """A bounded semaphore that hands a released permit to its longest
    waiter. With a plain semaphore, a thread that releases and at once
    acquires again can take the permit ahead of a thread already waiting,
    and that waiter's cell can starve."""

    def __init__(self, cap: int):
        self._cap = self._free = cap
        self._lock = threading.Lock()
        self._waiters: deque[threading.Lock] = deque()

    def acquire(self, blocking: bool = True) -> bool:
        with self._lock:
            if self._free and not self._waiters:
                self._free -= 1
                return True
            if not blocking:
                return False
            handoff = threading.Lock()
            handoff.acquire()
            self._waiters.append(handoff)
        handoff.acquire()  # released by release(), with the permit
        return True

    def release(self) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            elif self._free < self._cap:
                self._free += 1
            else:
                raise ValueError("limiter released too many times")

    def __enter__(self) -> FifoLimiter:
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


_limiters: dict[tuple[str | None, int], FifoLimiter] = {}
_limiters_lock = threading.Lock()


def endpoint_limiter(endpoint: str | None, cap: int = 4) -> FifoLimiter:
    """Limiter shared by every caller with this endpoint and cap. The runner
    holds it around a cell's whole conversation (`run_task`): every
    complete() call, retry backoff sleep and Singleton check of the cell."""
    with _limiters_lock:
        return _limiters.setdefault((endpoint, cap), FifoLimiter(cap))
