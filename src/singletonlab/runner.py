"""Experiment orchestration: run every (model, strategy, task), persist
records, resume over what a previous invocation already finished."""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import ModelSpec, RunConfig, config_digest, config_snapshot
from .dataset import Task, TaskSet, load_tasks
from .exec_harness import check_toolchain, evaluate_functionality, mock_evaluate
from .gateway import endpoint_limiter
from .guidance import RunRecord, Strategy, run_task
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
    warnings: list[str] = []
    tasks = load_tasks(config.dataset_path, config.field_map, warnings)
    for warning in warnings:
        log(f"dataset: {warning}")

    snapshot = config_snapshot(config)
    digest = config_digest(snapshot)
    store = RunStore(config.output_dir)
    store.initialize(snapshot, digest)

    if config.exec_settings.mode == "jdk":
        check_toolchain(config.exec_settings.javac, config.exec_settings.java)
    exec_pool = threading.Semaphore(max(1, config.exec_settings.workers))

    for spec in config.models:
        if spec.script is None and spec.auth_ref and spec.auth_ref not in os.environ:
            log(
                f"model {spec.model_id}: credential env var {spec.auth_ref!r} "
                "is not set; skipped"
            )
            continue
        for strategy in config.strategies:
            _run_arm(config, store, spec, strategy, tasks, digest, exec_pool, on_record, log)
    return store


def _run_arm(
    config: RunConfig,
    store: RunStore,
    spec: ModelSpec,
    strategy: Strategy,
    tasks: TaskSet,
    digest: str,
    exec_pool: threading.Semaphore,
    on_record,
    log,
) -> None:
    done = store.completed_task_ids(spec.model_id, strategy.kind)
    pending = [t for t in tasks if t.task_id not in done]
    if done:
        log(
            f"{spec.model_id}/{strategy.kind}: {len(done)} record(s) already "
            f"present, {len(pending)} to run"
        )
    if not pending:
        return

    def process(task: Task) -> RunRecord:
        return _run_one(config, spec, strategy, task, digest, exec_pool)

    # map yields in input order, so record order stays dataset order
    with ThreadPoolExecutor(max_workers=max(1, config.task_parallelism)) as pool:
        for record in pool.map(process, pending):
            store.append(record)
            if on_record:
                on_record(record)
    log(f"{spec.model_id}/{strategy.kind}: completed {len(pending)} task(s)")


def _run_one(
    config: RunConfig,
    spec: ModelSpec,
    strategy: Strategy,
    task: Task,
    digest: str,
    exec_pool: threading.Semaphore,
) -> RunRecord:
    backend = spec.backend(task.task_id)
    with endpoint_limiter(spec.endpoint, config.per_endpoint_cap):
        record = run_task(
            backend,
            strategy,
            task,
            retries=config.retries,
            backoff_s=config.backoff_s,
            config_digest=digest,
        )
    if record.functional_outcome is None:
        with exec_pool:  # bounded toolchain workers across the whole run
            record.functional_outcome = _evaluate(config, spec, strategy, task, record)
    return record


def _evaluate(
    config: RunConfig, spec: ModelSpec, strategy: Strategy, task: Task, record: RunRecord
):
    settings = config.exec_settings
    if settings.mode == "mock":
        return mock_evaluate(record.selected_candidate)
    scratch = (
        Path(config.output_dir)
        / "scratch"
        / config.run_id
        / _safe(spec.model_id)
        / strategy.kind
        / _safe(task.task_id)
    )
    return evaluate_functionality(
        record.selected_candidate,
        task,
        settings.budget_s,
        scratch_dir=scratch,
        javac=settings.javac,
        java=settings.java,
        adapt_tests=settings.test_adaptation,
    )


def _safe(value: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in value)
