"""Stub chat-completion endpoint for the benchmark, run as its own process.

    python3 perfbench/stub.py --data DIR --latency-ms 2 --threads 2

It serves the seeded replies in DIR/replies.json by (model, task,
iteration), where the task is the `Java/<n>` id in the first user message
and the iteration is one more than the number of assistant messages in the
history. DIR/faults.json schedules failures per (model, task, iteration):
`{"statuses": [503, 429]}` fails the first attempts of that request with
those statuses (429 carries `Retry-After: 0`), `{"down": true}` fails every
attempt. Every reply, fault or not, waits the fixed latency first.

The server counts attempts per request key and records the server-side time
and body size of every request. `GET /__stats` returns them, `POST /__reset`
clears them together with the fault counters. The listening port is printed
as `PORT <n>` on stdout. A fixed pool of `--threads` workers serves the
accepted connections, so threads and open connections stay at that number.
"""

from __future__ import annotations

import argparse
import json
import queue
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

TASK_ID = re.compile(r"\(Java/\d+\)")


class StubState:
    def __init__(self, replies: dict, faults: dict, latency_s: float):
        self.replies = replies
        self.faults = faults
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.log: list[list] = []  # [key, status, server_ms, request_bytes]

    def answer(self, payload: dict) -> tuple[int, str]:
        model = payload["model"]
        messages = payload["messages"]
        task = TASK_ID.search(messages[1]["content"]).group(0)[1:-1]
        iteration = 1 + sum(1 for m in messages if m["role"] == "assistant")
        key = f"{model}|{task}|{iteration}"
        with self.lock:
            attempt = self.attempts[key] = self.attempts.get(key, 0) + 1
        fault = self.faults.get(key)
        if fault and fault.get("down"):
            return 503, key
        if fault and attempt <= len(fault["statuses"]):
            return fault["statuses"][attempt - 1], key
        return 200, key


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30
    state: StubState

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/__reset":
            self.state.reset()
            self._send(200, b"{}")
            return
        payload = json.loads(body)
        status, key = self.state.answer(payload)
        time.sleep(self.state.latency_s)
        if status == 200:
            model, task, iteration = key.split("|")
            content = self.state.replies[model][task][int(iteration) - 1]
            data = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode()
            self._send(200, data)
        else:
            self._send(status, b'{"error": "planted fault"}', retry_after=status == 429)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self.state.lock:
            self.state.log.append([key, status, elapsed_ms, len(body)])

    def do_GET(self) -> None:
        if self.path != "/__stats":
            self._send(404, b"{}")
            return
        with self.state.lock:
            data = json.dumps({"attempts": self.state.attempts, "log": self.state.log})
        self._send(200, data.encode())

    def _send(self, status: int, data: bytes, retry_after: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after:
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class PoolServer(HTTPServer):
    """HTTPServer whose connections are served by a fixed set of threads."""

    def __init__(self, address, handler, threads: int):
        super().__init__(address, handler)
        self.pending: queue.Queue = queue.Queue()
        self.workers = [
            threading.Thread(target=self._work, daemon=True) for _ in range(threads)
        ]
        for worker in self.workers:
            worker.start()

    def process_request(self, request, client_address) -> None:
        self.pending.put((request, client_address))

    def _work(self) -> None:
        while True:
            item = self.pending.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:  # keep the worker alive; the client sees the reset
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        for _ in self.workers:
            self.pending.put(None)
        for worker in self.workers:
            worker.join(timeout=5)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--latency-ms", type=float, default=0.0)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)
    data = Path(args.data)
    Handler.state = StubState(
        json.loads((data / "replies.json").read_text("utf-8")),
        json.loads((data / "faults.json").read_text("utf-8")),
        args.latency_ms / 1000.0,
    )
    server = PoolServer(("127.0.0.1", 0), Handler, max(1, args.threads))
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"PORT {server.server_port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
