"""Statistics and trace analysis for run.py."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "package", "config", "dataset", "runner", "gateway", "guidance", "source_model",
    "pattern_checker", "exec_harness", "store", "stats", "reporting",
)
WAITS = ("limiter_wait", "exec_wait", "backoff_wait")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Traces


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "cell", "thread", "size", "children")

    def __init__(self, row):
        (self.name, self.layer, self.start, self.end, self.parent, self.cell,
         self.thread, self.size) = row
        self.children: list[Span] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def read_spans(path: Path) -> list[Span]:
    spans = [Span(json.loads(line)) for line in path.read_text("utf-8").splitlines()]
    for s in spans:
        if s.parent >= 0:
            spans[s.parent].children.append(s)
    return spans


_EVALUATE = ("exec_harness.evaluate_functionality", "exec_harness.mock_evaluate")


def _self_segments(span: Span):
    """(start, end, label) pieces of span not covered by its children."""
    kids = sorted(span.children, key=lambda c: c.start)
    cursor = span.start
    previous = None
    for kid in kids + [None]:
        stop = kid.start if kid is not None else span.end
        if stop > cursor:
            label = span.layer
            if span.name == "runner._run_one":
                if previous == "gateway.endpoint_limiter" and kid is not None and kid.name == "guidance.run_task":
                    label = "limiter_wait"
                elif previous == "guidance.run_task" and kid is not None and kid.name in _EVALUATE:
                    label = "exec_wait"
            elif span.name == "runner.run_experiment":
                label = "runner.main"
            elif span.name == "gateway.backoff_sleep":
                label = "backoff_wait"
            yield cursor, stop, label
        if kid is not None:
            cursor = max(cursor, kid.end)
            previous = kid.name


def attribute_wall(spans: list[Span], extra: list[tuple[float, float, int, str]], t0: float, t1: float):
    """Share every instant of [t0, t1] among the labels running at it.

    At each instant every thread is in at most one self segment. Threads
    doing work share the instant equally; if all open threads only wait,
    the waits share it; the main thread blocked in run_experiment counts as
    a wait while a worker runs, and as runner work otherwise. Instants with
    no open span are unexplained.
    """
    events = []
    for s in spans:
        for a, b, label in _self_segments(s):
            events.append((a, 1, s.thread, label))
            events.append((b, 0, s.thread, label))
    for a, b, thread, label in extra:
        events.append((a, 1, thread, label))
        events.append((b, 0, thread, label))
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[int, str] = {}
    totals: dict[str, float] = defaultdict(float)
    unexplained = 0.0
    last = t0
    for t, kind, thread, label in events:
        t = min(max(t, t0), t1)
        if t > last:
            dt = t - last
            labels = list(active.values())
            work = [x for x in labels if x not in WAITS and x != "runner.main"]
            if work:
                for x in work:
                    totals[x] += dt / len(work)
            elif labels:
                waits = [("runner" if x == "runner.main" else x) for x in labels]
                if len(waits) > 1:
                    waits = [x for x in waits if x != "runner"] or waits
                for x in waits:
                    totals[x] += dt / len(waits)
            else:
                unexplained += dt
            last = t
        if kind == 1:
            active[thread] = label
        elif active.get(thread) == label:
            del active[thread]
    if t1 > last:
        unexplained += t1 - last
    return {k: v * 1000.0 for k, v in totals.items()}, unexplained * 1000.0


def trace_metrics(spans: list[Span], result: dict, cells: int) -> dict:
    """Per-layer numbers of one traced round (times in ms)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def durations(name):
        return [s.ms for s in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    def p50_tail(name):
        values = durations(name)
        return percentile(values, 50.0), percentile(values, tail_percentile(len(values)))

    def outermost(names):
        names = set(names)
        return [s for s in spans if s.name in names and (s.parent < 0 or spans[s.parent].name not in names)]

    offset = result["perf_offset"]  # perf_counter - monotonic
    t0 = result["spawn_t"] + offset
    t1 = result["end"] + offset
    main = next((s.thread for s in spans if s.name == "config.load_config"), 0)
    extra = [
        (t0, result["started"] + offset, main, "python_start"),
        (result["started"] + offset, result["started"] + offset + result["import_ms"] / 1000.0, main, "package"),
    ]
    shares, unexplained = attribute_wall(spans, extra, t0, t1)
    wall_ms = (t1 - t0) * 1000.0

    javac_p50, javac_tail = p50_tail("exec_harness.javac")
    call_p50, call_tail = p50_tail("gateway.complete")
    append_p50, append_tail = p50_tail("store.append")
    tokenize = by_name.get("source_model.tokenize", [])
    tokenize_s = sum(s.end - s.start for s in tokenize)
    loads = outermost(("store.completed_task_ids", "store.load_records", "store.load_all"))
    load_s = sum(s.end - s.start for s in loads)
    load_bytes = sum(s.size for s in loads)
    cells = max(cells, 1)
    m = {
        "package.import_ms": result["import_ms"],
        "config.load_ms": total("config.load_config"),
        "dataset.load_tasks_ms": total("dataset.load_tasks"),
        "exec_harness.toolchain_probe_ms": total("exec_harness.check_toolchain"),
        "exec_harness.javac_p50_ms": javac_p50,
        "exec_harness.javac_tail_ms": javac_tail,
        "exec_harness.java_p50_ms": percentile(durations("exec_harness.java"), 50.0),
        "exec_harness.jvm_launches": sum(
            len(v) for k, v in by_name.items()
            if k.startswith("exec_harness.") and k.rsplit(".", 1)[-1] in ("java", "javac")
        ),
        "exec_harness.evaluate_ms": mean(durations("exec_harness.evaluate_functionality")),
        "exec_harness.classify_ms": mean(durations("exec_harness.classify_compile_error")),
        "exec_harness.mock_evaluate_ms": mean(durations("exec_harness.mock_evaluate")),
        "exec_harness.child_peak_rss_mb": result["child_peak_rss_kb"] / 1024.0,
        "runner.exec_wait_ms": _wait_total(spans, "exec_wait") / cells,
        "runner.limiter_wait_ms": _wait_total(spans, "limiter_wait") / cells,
        "gateway.calls": len(by_name.get("gateway.complete", [])),
        "gateway.call_p50_ms": call_p50,
        "gateway.call_tail_ms": call_tail,
        "gateway.backoff_ms": total("gateway.backoff_sleep"),
        "gateway.complete_total_ms": total("gateway.complete"),
        "guidance.extract_code_ms": mean(durations("guidance.extract_code")),
        "source_model.parse_calls_per_cell": sum(
            1 for s in by_name.get("source_model.parse_compilation_unit", []) if s.cell
        ) / cells,
        "source_model.tokenize_ms": mean(durations("source_model.tokenize")),
        "source_model.kb_per_s": (sum(s.size for s in tokenize) / 1024.0 / tokenize_s) if tokenize_s else 0.0,
        "pattern_checker.evaluate_ms": mean(durations("pattern_checker.evaluate_predicates")),
        "store.append_p50_ms": append_p50,
        "store.append_tail_ms": append_tail,
        "store.load_ms": load_s * 1000.0,
        "store.load_mb_per_s": (load_bytes / 1e6 / load_s) if load_s else 0.0,
        "store.records_loaded": len(by_name.get("store.record_from_dict", [])),
        "stats.ms": sum(s.ms for s in outermost([n for n in by_name if n.startswith("stats.")])),
        "reporting.build_summary_ms": total("reporting.build_summary"),
        "reporting.render_ms.text": total("reporting.render.text"),
        "reporting.render_ms.csv": total("reporting.render.csv"),
        "reporting.render_ms.json": total("reporting.render.json"),
        "trace.wall_ms": wall_ms,
        "trace.python_start_ms": shares.get("python_start", 0.0),
        "trace.unexplained_ms": unexplained,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = shares.get(layer, 0.0)
    for wait in WAITS:
        m[f"trace.{wait}_ms"] = shares.get(wait, 0.0)
    return m


def _wait_total(spans: list[Span], label: str) -> float:
    """Thread-time in one wait label, summed over cells (ms)."""
    total = 0.0
    for s in spans:
        if s.name == "runner._run_one":
            total += sum(b - a for a, b, x in _self_segments(s) if x == label)
    return total * 1000.0
