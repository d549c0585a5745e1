"""The benchmark under perfbench/ reaches into the package by name.

Its tracer rebinds module attributes (`runner.run_task`,
`runner.endpoint_limiter`, `guidance.complete`, `gateway.requests`,
`gateway.time`, ...) and its pipeline hooks `runner._run_one`. A rename in
the package would otherwise only surface as a crashed benchmark run.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

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

from conftest import GOLDEN

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (
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


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict[str, dict]:
    spaces = {m.__name__: dict(vars(m)) for m in MODULES}
    spaces["RunStore"] = dict(vars(store.RunStore))
    return spaces


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracer = load_tracer_module().Tracer()
    before = namespaces()
    tracer.install()
    try:
        during = namespaces()
        assert during["singletonlab.runner"]["_run_one"] is not before["singletonlab.runner"]["_run_one"]
        assert during["singletonlab.gateway"]["requests"] is not before["singletonlab.gateway"]["requests"]
    finally:
        tracer.uninstall()
    after = namespaces()
    for space, attrs in before.items():
        for name, value in attrs.items():
            assert after[space][name] is value, f"{space}.{name} not restored"


def test_traced_run_names_every_cell(tmp_path):
    tracer = load_tracer_module().Tracer()
    cfg = dataclasses.replace(
        config.load_config(GOLDEN / "config.json"), output_dir=str(tmp_path / "store")
    )
    tracer.install()
    try:
        runner.run_experiment(cfg, log=lambda message: None)
    finally:
        tracer.uninstall()
    cells = {s.cell for s in tracer.spans() if s.name == "runner._run_one"}
    tasks = dataset.load_tasks(cfg.dataset_path)
    assert len(cells) == len(cfg.models) * len(cfg.strategies) * len(tasks)
    assert "scripted-a|baseline|Java/0" in cells


def test_run_one_signature_matches_pipeline_hook():
    parameters = inspect.signature(runner._run_one).parameters
    assert list(parameters)[:4] == ["config", "spec", "strategy", "task"]
    inspect.signature(runner._run_one).bind(
        "config", "spec", "strategy", "task", "digest", "exec_pool"
    )
    assert "model_id" in {f.name for f in dataclasses.fields(config.ModelSpec)}
