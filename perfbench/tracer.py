"""Outside-in tracer: wraps singletonlab's public functions from here.

Nothing under src/ changes. The tracer rebinds module attributes to timing
wrappers, both where a function is defined and where another module
imported it by name (`runner.run_task`, `guidance.complete`, the stats
functions in `reporting`, ...), wraps `RunStore` methods, and swaps the
`subprocess`, `requests` and `time` names inside `exec_harness` and
`gateway` for proxies that time JVM launches, HTTP attempts and backoff
sleeps.

A span is (name, layer, start, end, parent, cell, thread, size). Spans stay
in memory; `spans()` hands them out at the end. Self time is a span's
duration minus its children's on the same thread. Waits are gaps inside a
cell span: from the end of `endpoint_limiter` to the start of `run_task`
is the limiter wait, from the end of `run_task` to the start of the
evaluation is the exec wait.
"""

from __future__ import annotations

import functools
import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a thread root
    cell: str
    thread: int
    size: int = 0


class Tracer:
    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ core
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, cell: str | None = None) -> int:
        stack = self._stack()
        if cell is not None:
            self._local.cell = cell
        span = Span(
            name,
            layer,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            getattr(self._local, "cell", ""),
            threading.get_ident(),
        )
        self._spans.append(span)
        index = len(self._spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, size: int = 0) -> None:
        span = self._spans[index]
        span.end = time.perf_counter()
        span.size = size
        self._stack().pop()
        if span.name == "runner._run_one":
            self._local.cell = ""

    def spans(self) -> list[Span]:
        return self._spans

    # -------------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, name: str, layer: str, size=None, cell=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer, cell(*args) if cell else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, size(args, result) if size else 0)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def set_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap every layer of singletonlab (which must be importable)."""
        from singletonlab import (
            config,
            dataset,
            exec_harness,
            gateway,
            guidance,
            pattern_checker,
            reporting,
            runner,
            source_model,
            stats,
            store,
        )

        text_len = lambda args, result: len(args[0]) if args and isinstance(args[0], str) else 0  # noqa: E731

        def cell_of(cfg, spec, strategy, task, *rest):
            return f"{spec.model_id}|{strategy.kind}|{task.task_id}"

        # Each entry: (defining module = layer, importing modules, attribute).
        table = [
            (config, [], "load_config"),
            (config, [], "parse_config"),
            (config, [runner], "config_snapshot"),
            (config, [runner], "config_digest"),
            (dataset, [runner], "load_tasks"),
            (guidance, [config], "load_default_exemplars"),
            (guidance, [config], "verify_exemplars"),
            (guidance, [runner], "run_task"),
            (guidance, [], "assess_candidate"),
            (guidance, [], "initial_prompt"),
            (guidance, [], "feedback_prompt"),
            (gateway, [guidance], "complete"),
            (gateway, [runner], "endpoint_limiter"),
            (pattern_checker, [guidance, exec_harness], "evaluate_predicates"),
            (pattern_checker, [guidance, reporting], "singleton_score"),
            (source_model, [guidance, exec_harness], "select_primary_class"),
            (exec_harness, [runner], "check_toolchain"),
            (exec_harness, [runner], "evaluate_functionality"),
            (exec_harness, [runner], "mock_evaluate"),
            (exec_harness, [], "classify_compile_error"),
            (exec_harness, [], "adapt_test_code"),
            (runner, [], "run_experiment"),
            (reporting, [], "build_summary"),
            (store, [], "record_to_dict"),
            (store, [], "record_from_dict"),
        ]
        for name in ("delta_pp", "mcnemar", "pair_outcomes", "pass_at_1", "predicate_counts", "selected_report"):
            table.append((stats, [reporting], name))
        for home, importers, attr in table:
            layer = home.__name__.rsplit(".", 1)[-1]
            for owner in importers:
                self.wrap(owner, attr, f"{layer}.{attr}", layer)
            self.wrap(home, attr, f"{layer}.{attr}", layer)

        for owner in (source_model, guidance, exec_harness, dataset):
            self.wrap(owner, "parse_compilation_unit", "source_model.parse_compilation_unit",
                      "source_model", size=text_len)
        self.wrap(source_model, "tokenize", "source_model.tokenize", "source_model", size=text_len)
        self.wrap(guidance, "extract_code", "guidance.extract_code", "guidance", size=text_len)
        self.wrap(runner, "_run_one", "runner._run_one", "runner", cell=cell_of)

        original_render = reporting.render
        tracer = self

        def render(summary, fmt):
            index = tracer.open(f"reporting.render.{fmt}", "reporting")
            try:
                return original_render(summary, fmt)
            finally:
                tracer.close(index)

        self.set_attr(reporting, "render", render)

        def file_size(path) -> int:
            try:
                return os.path.getsize(path)
            except OSError:
                return 0

        rs = store.RunStore
        self.wrap(rs, "initialize", "store.initialize", "store")
        self.wrap(rs, "append", "store.append", "store")
        self.wrap(rs, "completed_task_ids", "store.completed_task_ids", "store",
                  size=lambda a, r: file_size(a[0].record_path(a[1], a[2])))
        self.wrap(rs, "load_records", "store.load_records", "store")
        self.wrap(rs, "load_all", "store.load_all", "store",
                  size=lambda a, r: sum(file_size(p) for p in a[0].records_dir.glob("*.jsonl")))

        self.set_attr(exec_harness, "subprocess", _SubprocessProxy(self))
        self.set_attr(gateway, "requests", _Proxy(gateway.requests, self, "post", "gateway.http_post", "gateway"))
        self.set_attr(gateway, "time", _Proxy(gateway.time, self, "sleep", "gateway.backoff_sleep", "gateway"))


class _Proxy:
    """Stands in for a module inside one namespace; times one function."""

    def __init__(self, module, tracer: Tracer, attr: str, name: str, layer: str):
        self._module = module
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(self, attr, traced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _jvm_name(argv) -> str:
    tool = os.path.basename(str(argv[0]))
    if "-version" in argv[1:]:
        return f"exec_harness.probe.{tool}"
    return f"exec_harness.{tool}"


class _SubprocessProxy:
    """`subprocess` as exec_harness sees it: run() and Popen are timed; a
    Popen span lasts from launch until communicate() returns."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        proxy = self

        class Popen(subprocess.Popen):
            def __init__(self, argv, *args, **kwargs):
                self._span = proxy._tracer.open(_jvm_name(argv), "exec_harness")
                try:
                    super().__init__(argv, *args, **kwargs)
                except BaseException:
                    proxy._tracer.close(self._span)
                    self._span = -1
                    raise

            def communicate(self, *args, **kwargs):
                try:
                    return super().communicate(*args, **kwargs)
                finally:
                    if self._span >= 0:
                        proxy._tracer.close(self._span)
                        self._span = -1

        self.Popen = Popen

    def run(self, argv, *args, **kwargs):
        index = self._tracer.open(_jvm_name(argv), "exec_harness")
        try:
            return subprocess.run(argv, *args, **kwargs)
        finally:
            self._tracer.close(index)

    def __getattr__(self, attr):
        return getattr(subprocess, attr)
