"""Experiment orchestration: run every (model, strategy, task), persist
records, resume over what a previous invocation already finished."""

from __future__ import annotations

import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import ModelSpec, RunConfig, config_digest, config_snapshot
from .dataset import Task, load_tasks
from .exec_harness import (
    TIMEOUT,
    ExecPool,
    check_toolchain,  # noqa: F401  the pool's probe; perfbench/tracer.py wraps this name
    evaluate_functionality,
    mock_evaluate,
)
from .gateway import endpoint_limiter
from .guidance import RunRecord, Strategy, run_task
from .store import RunStore


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def run_experiment(
    config: RunConfig,
    *,
    log=_log,
) -> RunStore:
    """Execute the configured run. Tasks with persisted records are skipped,
    so re-invocation after an interruption completes the missing work."""
    tasks = load_tasks(config.dataset_path, config.field_map)
    for warning in tasks.warnings:
        log(f"dataset: {warning}")

    snapshot = config_snapshot(config)
    digest = config_digest(snapshot)
    store = RunStore(config.output_dir)
    settings = config.exec
    exec_pool = ExecPool(
        settings.workers, settings.javac, settings.java, log, store.scratch_root(config.run_id)
    )
    # one run per store at a time; closing the pool reaps its compile
    # server, on success and on error, set-up included; the cell threads
    # stop first
    with store.locked(), exec_pool, ThreadPoolExecutor(config.parallelism.tasks) as cells:
        store.initialize(snapshot, digest)
        arms = []
        for spec in config.models:
            if spec.script is None and spec.auth_ref and spec.auth_ref not in os.environ:
                log(
                    f"model {spec.model_id}: credential env var {spec.auth_ref!r} "
                    "is not set; skipped"
                )
                continue
            for strategy in config.strategies:
                done = store.completed_task_ids(spec.model_id, strategy.kind)
                arms.append((spec, strategy, len(done), [t for t in tasks if t.task_id not in done]))
        if settings.mode == "jdk" and any(pending for *_, pending in arms):
            # check the tools and launch the JVM; it starts up during the first chat turns
            exec_pool.start()
        for spec, strategy, done, pending in arms:
            if done:
                log(
                    f"{spec.model_id}/{strategy.kind}: {done} record(s) already "
                    f"present, {len(pending)} to run"
                )
            if not pending:
                continue
            # map yields in input order, so record order stays dataset order.
            # _run_one gets its arguments by position, as perfbench/pipeline.py
            # wraps it; the arm's cells all end before spec and strategy change.
            run_one = lambda task: _run_one(config, spec, strategy, task, digest, exec_pool)  # noqa: E731
            for record in cells.map(run_one, pending):
                store.append(record)
            log(f"{spec.model_id}/{strategy.kind}: completed {len(pending)} task(s)")
    runs = exec_pool.run_summary()
    if runs:
        log(runs)
    return store


def _run_one(
    config: RunConfig,
    spec: ModelSpec,
    strategy: Strategy,
    task: Task,
    digest: str,
    exec_pool: ExecPool,
) -> RunRecord:
    backend = spec.backend(task.task_id)
    with endpoint_limiter(spec.endpoint, config.parallelism.per_endpoint):
        record = run_task(
            backend,
            strategy,
            task,
            retries=config.retries,
            backoff_s=config.backoff_s,
            config_digest=digest,
        )
    if record.functional_outcome is not None:
        return record
    settings = config.exec
    if settings.mode == "mock":  # pure Python: no toolchain slot
        record.functional_outcome = mock_evaluate(record.selected_candidate)
        return record
    scratch = RunStore(config.output_dir).scratch_dir(config.run_id, spec.model_id, strategy.kind, task.task_id)

    def evaluate():
        with exec_pool.slot():
            outcome = evaluate_functionality(
                record.selected_candidate,
                task,
                settings.budget_s,
                scratch_dir=scratch,
                adapt_tests=settings.test_adaptation,
                compiler=exec_pool,
            )
        if outcome.kind != TIMEOUT:  # a Timeout's scratch stays for inspection
            shutil.rmtree(scratch, ignore_errors=True)
        return outcome

    # a later arm's byte-identical candidate reuses the JVM verdict, slot-free
    record.functional_outcome = exec_pool.once((task.task_id, record.selected_candidate), evaluate)
    return record
