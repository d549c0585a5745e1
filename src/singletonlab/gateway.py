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
import re
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
    headers: dict[str, str]  # names in lower case; a repeated field's values joined by ", "
    body: bytes


def _post(url: str, *, body: bytes, headers: dict[str, str], timeout: float) -> HttpReply:
    """POST `body` to `url` over one fresh connection, closed on every path.

    `http_proxy`, `https_proxy` and `no_proxy` come from the environment: an
    HTTP target goes to the proxy with its absolute URL, an HTTPS target
    through a CONNECT tunnel. They are read on every call; a URL's route is
    worked out again only when one changed (`_route`). http.client opens the
    connection (proxy, tunnel, TLS); the request line, the headers (`Host`,
    `Accept-Encoding`, `Content-Length`, then `headers`, whose values the
    caller has checked, then `Connection: close`) and the body go out in one
    write, and `_read_reply` reads the reply. A redirect is returned like any
    other status. Transport failures raise OSError or http.client.HTTPException.
    """
    tls, address, target, tunnel, host = _route(url, *map(os.environ.get, _ROUTE_VARIABLES))
    connection: http.client.HTTPConnection
    if tls:
        connection = http.client.HTTPSConnection(*address, timeout=timeout, context=_tls_context())
        if tunnel:
            connection.set_tunnel(*tunnel)
    else:
        connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.connect()
        fields = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
        head = (
            f"POST {target} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            f"Content-Length: {len(body)}\r\n{fields}Connection: close\r\n\r\n"
        )
        connection.sock.sendall(head.encode("latin-1") + body)
        return _read_reply(connection.sock)
    finally:
        connection.close()


# http.client's limits on a reply's head: the length of one line, with its
# line break, and the number of header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.\d ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
_LINE_BREAKS = (b"\r\n", b"\n")


def _read_reply(sock) -> HttpReply:
    """The final reply on `sock`, framed as RFC 9112 sections 6-7 say.

    1xx heads are skipped. A 204 or 304 has no body; otherwise the body is
    framed by `Transfer-Encoding: chunked` (chunk extensions and trailer
    fields are read past), else by `Content-Length`, else by the close. A
    framed body ends where its framing says, without waiting for the close.
    A reply that breaks the framing raises http.client.HTTPException.
    """
    reader = _Reader(sock)
    status, headers = reader.head()
    while status < 200:
        status, headers = reader.head()
    if status in (204, 304):
        body = b""
    elif "transfer-encoding" in headers:
        # a body whose last coding is not chunked runs to the close
        chunked = headers["transfer-encoding"].rsplit(",", 1)[-1].strip().lower() == "chunked"
        body = reader.chunked() if chunked else reader.rest()
    elif "content-length" in headers:
        lengths = {value.strip() for value in headers["content-length"].split(",")}
        length = lengths.pop()
        if lengths or not (length.isascii() and length.isdigit()):
            raise http.client.HTTPException(f"invalid Content-Length {headers['content-length'][:40]!r}")
        body = reader.read(int(length))
    else:
        body = reader.rest()
    return HttpReply(status, headers, body)


class _Reader:
    """A reply's bytes, received from a socket into one buffer."""

    def __init__(self, sock):
        self._sock = sock
        self._data = b""
        self._at = 0  # where the unread bytes of _data start

    def _receive(self) -> bytes:
        return self._sock.recv(65536)

    def line(self) -> bytes:
        """The next line with its line break; what is left, b"" at the end
        of the stream, when no line break follows."""
        while True:
            end = self._data.find(b"\n", self._at) + 1
            if end or len(self._data) - self._at > _MAX_LINE:
                end = end or len(self._data)
                if end - self._at > _MAX_LINE:
                    raise http.client.LineTooLong("reply line")
                line, self._at = self._data[self._at:end], end
                return line
            more = self._receive()
            if not more:
                line, self._data, self._at = self._data[self._at:], b"", 0
                return line
            self._data = self._data[self._at:] + more
            self._at = 0

    def read(self, size: int) -> bytes:
        """The next `size` bytes; IncompleteRead if the stream ends first."""
        start, end = self._at, self._at + size
        if end > len(self._data):
            parts, have = [self._data[start:]], len(self._data) - start
            while have < size:
                more = self._receive()
                if not more:
                    raise http.client.IncompleteRead(b"".join(parts), size - have)
                parts.append(more)
                have += len(more)
            self._data, start, end = b"".join(parts), 0, size
        self._at = end
        return self._data[start:end]

    def rest(self) -> bytes:
        """Everything up to the end of the stream."""
        parts = [self._data[self._at:]]
        while more := self._receive():
            parts.append(more)
        self._data, self._at = b"", 0
        return b"".join(parts)

    def head(self) -> tuple[int, dict[str, str]]:
        """A status line and its header fields."""
        line = self.line()
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        status = _STATUS_LINE.fullmatch(line)
        if not status:
            raise http.client.BadStatusLine(repr(line[:80]))
        headers: dict[str, str] = {}
        name = ""
        for _ in range(_MAX_HEADERS + 1):
            line = self.line()
            if line in _LINE_BREAKS:
                return int(status.group(1)), headers
            if line[:1] in (b" ", b"\t") and name:  # an obsolete line folding
                headers[name] += " " + line.strip().decode("latin-1")
                continue
            if not line.endswith(b"\n"):
                raise http.client.HTTPException("the reply ended inside its head")
            field, colon, value = line.partition(b":")
            if not (colon and field.strip()):
                raise http.client.HTTPException(f"malformed header line {line[:80]!r}")
            name, value = field.strip().decode("latin-1").lower(), value.strip().decode("latin-1")
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")

    def chunked(self) -> bytes:
        """A chunked body: its chunks' data, past extensions and trailers."""
        parts = []
        while True:
            line = self.line()
            match = _CHUNK_SIZE.fullmatch(line)
            if not match:
                if not line.endswith(b"\n"):
                    raise http.client.IncompleteRead(b"".join(parts))
                raise http.client.HTTPException(f"invalid chunk size line {line[:80]!r}")
            size = int(match.group(1), 16)
            if not size:
                break
            parts.append(self.read(size))
            if self.line() not in _LINE_BREAKS:
                raise http.client.HTTPException("chunk data not followed by a line break")
        while self.line() not in (*_LINE_BREAKS, b""):  # trailer fields
            pass
        return b"".join(parts)


# What urllib's proxy rules read for an http or https URL, in lower and
# upper case; REQUEST_METHOD (a CGI request) makes it ignore HTTP_PROXY.
_ROUTE_VARIABLES = "http_proxy HTTP_PROXY https_proxy HTTPS_PROXY no_proxy NO_PROXY REQUEST_METHOD".split()


# What http.client refuses in a request target or a Host header.
_NOT_IN_A_URL = re.compile("[\x00-\x20\x7f]")


@functools.lru_cache(maxsize=64)
def _route(url: str, *variables: str | None) -> tuple[bool, tuple, str, tuple | None, str]:
    """Where a POST to `url` goes: (over TLS, the address to connect to, the
    request target, the host and port of a CONNECT tunnel or None, the Host
    header). urllib reads the environment; `variables`, the values of
    `_ROUTE_VARIABLES`, only key the cache. A target or host that http.client
    would refuse raises http.client.InvalidURL, and is not cached."""
    parts = urlsplit(url)
    default_port = 443 if parts.scheme == "https" else 80
    # a port, always: given none, http.client reads an IPv6 host's last group as one
    host, port = parts.hostname, parts.port or default_port
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    authority = host if host.isascii() else host.encode("idna").decode("ascii")
    if ":" in authority:
        authority = f"[{authority}]"
    if port != default_port:
        authority += f":{port}"
    if not target.isascii() or _NOT_IN_A_URL.search(target + authority):
        raise http.client.InvalidURL(f"URL can't contain control characters or non-ASCII text: {url!r}")
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return parts.scheme == "https", (host, port), target, None, authority
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    address = (proxy_parts.hostname, proxy_parts.port)
    if parts.scheme == "https":
        return True, address, target, (host, port), authority
    return False, address, f"{parts.scheme}://{parts.netloc}{target}", None, authority


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One context per process: building one loads the system CA store."""
    return ssl.create_default_context()


# perfbench/tracer.py times every attempt by swapping `gateway.requests` for
# a proxy of its `post`, so each attempt looks the sender up here. The name
# stays for that tracer until ROADMAP item 8's events take its place.
requests = SimpleNamespace(post=_post)


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in VALID_ROLES:
            raise ValueError(f"invalid role {self.role!r}")

    @functools.cached_property
    def encoded(self) -> str:
        """This message as `json.dumps` writes it inside a request. A
        conversation resends every earlier message on each turn; each is
        encoded once, and the text goes when the message does."""
        return _json.dumps({"role": self.role, "content": self.content})


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
    body = _request_body(spec, history)
    headers = {"Content-Type": "application/json"}
    if spec.auth_ref:
        credential = os.environ.get(spec.auth_ref)
        if credential is None:
            raise GatewayError(
                f"{spec.model_id}: credential env var {spec.auth_ref!r} is not set"
            )
        headers["Authorization"] = f"Bearer {credential}"
        # a bare line break would split the header; the store keeps the
        # error, so it names the variable, never the value
        if not _is_header_value(headers["Authorization"]):
            raise GatewayError(
                f"{spec.model_id}: credential env var {spec.auth_ref!r} holds a line break "
                "or a character outside Latin-1, which cannot go in a header"
            )

    last_error = ""
    attempt, attempts = 0, retries + 1
    for attempt in range(1, attempts + 1):
        status, retry_after = 0, 0
        try:
            reply = requests.post(spec.endpoint, body=body, headers=headers, timeout=spec.timeout_s)
            status = reply.status
            if status in RETRY_AFTER_STATUSES:
                retry_after = min(_delay_seconds(reply.headers.get("retry-after", "")), spec.timeout_s)
            if status // 100 != 2:
                raise GatewayError(f"HTTP {status}: {reply.body.decode('utf-8', 'replace')[:200]}")
            document = _json.loads(reply.body)
            content = document["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise GatewayError("response content is not a string")
            return ChatMessage("assistant", content)
        except (
            OSError, http.client.HTTPException, GatewayError, KeyError, IndexError, TypeError, ValueError,
            RecursionError,  # a body nested too deep to decode
        ) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            if status // 100 == 4 and status not in RETRIED_CLIENT_ERRORS:
                break
            if attempt < attempts:
                time.sleep(max(backoff_s * 2 ** (attempt - 1), retry_after))
    raise GatewayError(
        f"{spec.model_id}: request failed after {attempt} attempts: {last_error}"
    )


def _request_body(spec: ModelSpec, history: list[ChatMessage]) -> bytes:
    """The request's JSON, byte for byte `json.dumps(payload, allow_nan=False)`
    of {model, messages, temperature, max_tokens, seed?}, from each message's
    own encoding."""
    settings = {"temperature": spec.temperature, "max_tokens": spec.max_tokens}
    if spec.seed is not None:
        settings["seed"] = spec.seed
    return "".join([
        '{"model": ', _json.dumps(spec.model_id), ', "messages": [',
        ", ".join([message.encoded for message in history]),
        "], ", _json.dumps(settings, allow_nan=False)[1:],
    ]).encode("ascii")


# http.client's rule for a header value: a line break only where a line folds
_BROKEN_LINE = re.compile(r"\n(?![ \t])|\r(?![ \t\n])")


def _is_header_value(value: str) -> bool:
    """Whether http.client would send `value` in a header."""
    return max(value, default="") <= "\xff" and not _BROKEN_LINE.search(value)


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
