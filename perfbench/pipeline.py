"""One round of a workload in a fresh interpreter, driven from outside.

    python3 perfbench/pipeline.py --config CFG --result OUT.json --spawn-t T
        [--report-dir DIR] [--setup-only] [--trace-spans FILE]

T is the CLOCK_MONOTONIC reading (time.monotonic()) taken by the parent just
before it started this process, so set-up time includes interpreter start.
A round is what a user does for a run: `run_experiment(load_config(CFG))`,
then `run_experiment` once more, which resumes over the finished store
(nothing is pending, every arm is read back), then `build_summary` and
`render` in text, csv and json. All of that after set-up is timed. Set-up
ends at the first `completed_task_ids` call, i.e. when the first arm is
about to dispatch its cells; --setup-only stops there.

Only three light hooks are installed when not tracing: the cell start
(`runner._run_one`), the record append (`RunStore.append`) and the arm scan
(`RunStore.completed_task_ids`). With --trace-spans every layer is wrapped
(see tracer.py) and the spans are written to FILE.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
FORMATS = ("text", "csv", "json")


class SetupDone(Exception):
    pass


def _cpu_ms() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return 1000.0 * (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--report-dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-spans")
    args = parser.parse_args()

    t0 = time.monotonic()
    import singletonlab  # noqa: F401  (package import is part of set-up)

    import_ms = (time.monotonic() - t0) * 1000.0
    from singletonlab import config, reporting, runner, store

    tracer = None
    if args.trace_spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    state = {"setup_end": None, "cpu_setup": 0.0, "cells": {}}
    run_one = runner._run_one

    def hooked_run_one(cfg, spec, strategy, task, *rest):
        state["cells"][f"{spec.model_id}|{strategy.kind}|{task.task_id}"] = [time.monotonic(), 0.0]
        return run_one(cfg, spec, strategy, task, *rest)

    append = store.RunStore.append

    def hooked_append(self, record):
        append(self, record)
        state["cells"][f"{record.model_id}|{record.strategy_kind}|{record.task_id}"][1] = time.monotonic()

    completed = store.RunStore.completed_task_ids

    def hooked_completed(self, model_id, strategy_kind):
        if state["setup_end"] is None:
            state["setup_end"] = time.monotonic()
            state["cpu_setup"] = _cpu_ms()
            if args.setup_only:
                raise SetupDone
        return completed(self, model_id, strategy_kind)

    runner._run_one = hooked_run_one
    store.RunStore.append = hooked_append
    store.RunStore.completed_task_ids = hooked_completed

    quiet = lambda message: None  # noqa: E731
    cfg = config.load_config(args.config)
    reports = {}
    try:
        runner.run_experiment(cfg, log=quiet)
        run_store = runner.run_experiment(cfg, log=quiet)
        summary = reporting.build_summary(run_store)
        reports = {fmt: reporting.render(summary, fmt) for fmt in FORMATS}
    except SetupDone:
        pass
    t_end = time.monotonic()
    cpu_end = _cpu_ms()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)

    if tracer is not None:
        tracer.uninstall()
    if reports and args.report_dir:
        out = Path(args.report_dir)
        out.mkdir(parents=True, exist_ok=True)
        for fmt, text in reports.items():
            (out / f"report.{fmt}").write_text(text, encoding="utf-8")

    result = {
        "spawn_t": args.spawn_t,
        "started": STARTED,
        "import_ms": import_ms,
        "setup_end": state["setup_end"],
        "end": t_end,
        "cpu_timed_ms": cpu_end - state["cpu_setup"],
        "peak_rss_kb": own.ru_maxrss,
        "child_peak_rss_kb": kids.ru_maxrss,
        "cells": state["cells"],
    }
    if tracer is not None:
        with open(args.trace_spans, "w", encoding="utf-8") as fh:
            for s in tracer.spans():
                fh.write(
                    json.dumps(
                        [s.name, s.layer, s.start, s.end, s.parent, s.cell, s.thread, s.size]
                    )
                    + "\n"
                )
        result["perf_offset"] = time.perf_counter() - time.monotonic()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
