"""JSON the program reads from outside (records, store config, dataset,
config and script files, and model replies) that json.loads refuses with
something other than JSONDecodeError: an integer over Python's digit limit
(ValueError) or arrays nested past the recursion limit (RecursionError).
Each must end as the error its reader maps to exit 2, or, for a reply, as a
retried attempt, never as a traceback."""

from __future__ import annotations

import pytest

from singletonlab.config import ConfigError, ModelSpec, load_config, load_script_file
from singletonlab.dataset import DatasetError, load_tasks
from singletonlab.gateway import ChatMessage, GatewayError, complete
from singletonlab.reporting import build_summary
from singletonlab.store import RunStore, StoreError

from test_gateway import RawServer

# each text with a part of the message json.loads raises for it
BAD_JSON = {
    "long-integer": ("1" * 5000, "Exceeds the limit (4300 digits)"),
    "deep-array": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


def records_line(tmp_path, text):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    path = store.record_path("m1", "baseline")
    path.write_text(text + "\n", encoding="utf-8")
    return lambda: build_summary(store), StoreError, f"{path} line 1"


def store_config(tmp_path, text):
    store = RunStore(tmp_path / "store")
    store.initialize({}, "d")
    store.config_path.write_text(text, encoding="utf-8")
    return store.load_snapshot, StoreError, str(store.config_path)


def dataset_line(tmp_path, text):
    path = tmp_path / "tasks.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    return lambda: load_tasks(path), DatasetError, f"{path}: line 1"


def config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    return lambda: load_config(path), ConfigError, str(path)


def script_file(tmp_path, text):
    path = tmp_path / "script.json"
    path.write_text(text, encoding="utf-8")
    return lambda: load_script_file(str(path)), ConfigError, str(path)


def model_reply(tmp_path, text):
    body = text.encode()
    reply = f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
    history = [ChatMessage("system", "sys"), ChatMessage("user", "hello")]

    def read():
        server = RawServer([reply, reply])
        try:
            spec = ModelSpec("test-model", f"http://{server.address}/v1/chat/completions")
            complete(spec, history, retries=1, backoff_s=0.01)
        finally:
            server.close()

    return read, GatewayError, "test-model: request failed after 2 attempts"


SITES = [records_line, store_config, dataset_line, config_file, script_file, model_reply]


@pytest.mark.parametrize("bad", BAD_JSON.values(), ids=BAD_JSON.keys())
@pytest.mark.parametrize("site", SITES, ids=[site.__name__ for site in SITES])
def test_unparseable_json_is_its_readers_error(tmp_path, site, bad):
    text, message = bad
    read, error, where = site(tmp_path, text)
    with pytest.raises(error) as raised:
        read()
    assert where in str(raised.value)
    assert message in str(raised.value)
