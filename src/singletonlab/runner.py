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
    check_toolchain,
    evaluate_functionality,
    mock_evaluate,
)
from .gateway import endpoint_limiter
from .guidance import RunRecord, Strategy, run_task
from .source_model import ClassModel
from .store import RunStore


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def run_experiment(
    config: RunConfig,
    *,
    on_record=None,
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
    resumed = store.initialize(snapshot, digest)

    settings = config.exec
    jdk = settings.mode == "jdk"
    if jdk and not resumed:
        # a new store has every cell pending: probe now, before any arm is read
        check_toolchain(settings.javac, settings.java)
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
    if jdk and resumed and any(pending for *_, pending in arms):
        check_toolchain(settings.javac, settings.java)
    # closing the pool reaps its compile server, on success and on error;
    # the cell threads stop first
    with (
        ExecPool(settings.workers, settings.javac, log, store.scratch_root(config.run_id)) as exec_pool,
        ThreadPoolExecutor(config.parallelism.tasks) as cells,
    ):
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
                if on_record:
                    on_record(record)
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
    classes: list[ClassModel] = []  # the selected candidate's, parsed once by run_task
    with endpoint_limiter(spec.endpoint, config.parallelism.per_endpoint):
        record = run_task(
            backend,
            strategy,
            task,
            retries=config.retries,
            backoff_s=config.backoff_s,
            config_digest=digest,
            selected_classes=classes,
        )
    if record.functional_outcome is None:
        record.functional_outcome = _evaluate(config, spec, strategy, task, record, classes, exec_pool)
    return record


def _evaluate(
    config: RunConfig,
    spec: ModelSpec,
    strategy: Strategy,
    task: Task,
    record: RunRecord,
    classes: list[ClassModel],
    exec_pool: ExecPool,
):
    settings = config.exec
    if settings.mode == "mock":  # pure Python: no toolchain slot
        return mock_evaluate(record.selected_candidate, classes)
    scratch = RunStore(config.output_dir).scratch_dir(config.run_id, spec.model_id, strategy.kind, task.task_id)

    def evaluate():
        with exec_pool.slot():
            outcome = evaluate_functionality(
                record.selected_candidate,
                task,
                settings.budget_s,
                scratch_dir=scratch,
                javac=settings.javac,
                java=settings.java,
                adapt_tests=settings.test_adaptation,
                compiler=exec_pool,
                classes=classes,
            )
        if outcome.kind != TIMEOUT:  # a Timeout's scratch stays for inspection
            shutil.rmtree(scratch, ignore_errors=True)
        return outcome

    # a later arm's byte-identical candidate reuses the JVM verdict, slot-free
    return exec_pool.once((task.task_id, record.selected_candidate), evaluate)
