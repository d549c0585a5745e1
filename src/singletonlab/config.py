"""Run configuration: JSON schema, validation, and the config digest."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import urlparse

from .gateway import ScriptedModel
from .guidance import PROTOCOLS, STRATEGY_KINDS, Strategy, load_default_exemplars, verify_exemplars
from .dataset import store_name_clash

EXEC_MODES = ("jdk", "mock")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ModelSpec:
    """One model entry: either an HTTP endpoint or a canned script.

    An endpoint entry is itself the gateway backend. A scripted entry hands
    out a fresh ScriptedModel per (strategy, task), so each run replays the
    task's response list from the start; that keeps mock runs resumable and
    hand-computable.
    """

    model_id: str
    endpoint: str | None = None
    auth_ref: str | None = None
    temperature: float = 0.2
    max_tokens: int = 4096
    timeout_s: int = 60
    seed: int | None = None
    script: object | None = None  # list[str] or {task_id: list[str]} (+ "default")

    def __post_init__(self) -> None:
        if self.script is not None:
            return
        parsed = urlparse(self.endpoint or "")
        if not parsed.scheme or not parsed.netloc:
            raise ValueError(f"model {self.model_id!r}: invalid endpoint URL {self.endpoint!r}")
        if self.timeout_s <= 0:
            raise ValueError(f"model {self.model_id!r}: timeout_s must be positive")

    def backend(self, task_id: str) -> ModelSpec | ScriptedModel:
        """What answers `task_id`: this endpoint, or a fresh replay of its script."""
        if self.script is None:
            return self
        return ScriptedModel(script_responses(self.script, task_id), self.model_id)


def script_responses(script: object, task_id: str) -> list[str]:
    """Resolve a script spec to the response list for one task."""
    if isinstance(script, list):
        return [str(s) for s in script]
    if isinstance(script, dict):
        table = script.get("tasks", script)
        if task_id in table:
            return [str(s) for s in table[task_id]]
        default = script.get("default")
        if isinstance(default, list):
            return [str(s) for s in default]
        raise ConfigError(f"script has no responses for task {task_id!r}")
    raise ConfigError("script must be a list or an object")


@dataclass(frozen=True)
class ExecSettings:
    mode: str = "jdk"
    budget_s: int = 30
    javac: str = "javac"
    java: str = "java"
    test_adaptation: bool = False
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)


@dataclass(frozen=True)
class RunConfig:
    run_id: str
    dataset_path: str
    output_dir: str
    models: tuple[ModelSpec, ...]
    strategies: tuple[Strategy, ...]
    iteration_cap: int = 10
    exec_settings: ExecSettings = field(default_factory=ExecSettings)
    task_parallelism: int = 1
    per_endpoint_cap: int = 4
    seed: int | None = None
    field_map: dict | None = None
    retries: int = 3
    backoff_s: float = 1.0


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return parse_config(raw, base_dir=path.parent)
    except (TypeError, ValueError, OverflowError) as exc:  # int(Infinity) overflows
        raise ConfigError(f"config {path}: {exc}") from exc


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    base = base_dir or Path.cwd()

    def _resolve(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute() else base / candidate)

    run_id = raw.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        raise ConfigError("run_id must be a non-empty string")

    dataset = raw.get("dataset")
    if isinstance(dataset, str):
        dataset = {"path": dataset}
    if not isinstance(dataset, dict) or not dataset.get("path"):
        raise ConfigError("dataset.path is required")
    field_map = dataset.get("field_map")
    if field_map is not None and not (
        isinstance(field_map, dict) and all(isinstance(v, str) for v in field_map.values())
    ):
        raise ConfigError("dataset.field_map must be an object of strings")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir is required")

    models_raw = raw.get("models")
    if not isinstance(models_raw, list) or not models_raw:
        raise ConfigError("models must be a non-empty list")
    seed = raw.get("seed")
    models = tuple(_parse_model(m, seed, _resolve) for m in models_raw)
    if len({m.model_id for m in models}) != len(models):
        raise ConfigError("model_id values must be unique")
    if clash := store_name_clash("model_id", [m.model_id for m in models]):  # names records files
        raise ConfigError(clash)

    iteration_cap = _at_least(raw.get("iteration_cap", 10), 1, "iteration_cap")

    strategies_raw = raw.get("strategies")
    if not isinstance(strategies_raw, list) or not strategies_raw:
        raise ConfigError("strategies must be a non-empty list")
    strategies = tuple(
        parse_strategy(s, iteration_cap, _resolve) for s in strategies_raw
    )
    if len({s.kind for s in strategies}) != len(strategies):
        raise ConfigError("strategy kinds must be unique")

    exec_raw = raw.get("exec", {})
    if not isinstance(exec_raw, dict):
        raise ConfigError("exec must be an object")
    mode = exec_raw.get("mode", "jdk")
    if mode not in EXEC_MODES:
        raise ConfigError(f"exec.mode must be one of {EXEC_MODES}")
    exec_settings = ExecSettings(
        mode=mode,
        budget_s=_at_least(exec_raw.get("budget_s", 30), 1, "exec.budget_s"),
        javac=str(exec_raw.get("javac", "javac")),
        java=str(exec_raw.get("java", "java")),
        test_adaptation=bool(exec_raw.get("test_adaptation", False)),
        workers=_at_least(exec_raw.get("workers", os.cpu_count() or 1), 1, "exec.workers"),
    )

    parallelism_raw = raw.get("parallelism", {})
    if not isinstance(parallelism_raw, dict):
        raise ConfigError("parallelism must be an object")
    task_parallelism = _at_least(parallelism_raw.get("tasks", 1), 1, "parallelism.tasks")
    per_endpoint_cap = _at_least(parallelism_raw.get("per_endpoint", 4), 1, "parallelism.per_endpoint")
    retries = _at_least(raw.get("retries", 3), 0, "retries")
    backoff_s = float(raw.get("backoff_s", 1.0))
    if not (math.isfinite(backoff_s) and backoff_s >= 0):
        raise ConfigError("backoff_s must be a finite number >= 0")

    return RunConfig(
        run_id=run_id,
        dataset_path=_resolve(str(dataset["path"])),
        output_dir=_resolve(output_dir),
        models=models,
        strategies=strategies,
        iteration_cap=iteration_cap,
        exec_settings=exec_settings,
        task_parallelism=task_parallelism,
        per_endpoint_cap=per_endpoint_cap,
        seed=seed if isinstance(seed, int) else None,
        field_map=field_map,
        retries=retries,
        backoff_s=backoff_s,
    )


def _at_least(value: object, minimum: int, name: str) -> int:
    number = int(value)
    if number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return number


def _parse_model(raw: object, default_seed: object, resolve) -> ModelSpec:
    if not isinstance(raw, dict):
        raise ConfigError("each model entry must be an object")
    model_id = raw.get("model_id")
    if not isinstance(model_id, str) or not model_id:
        raise ConfigError("model_id must be a non-empty string")
    script = raw.get("script")
    if raw.get("script_path"):
        script = load_script_file(resolve(raw["script_path"]))
    endpoint = raw.get("endpoint")
    if script is None and not endpoint:
        raise ConfigError(f"model {model_id!r} needs an endpoint or a script")
    seed = raw.get("seed", default_seed)
    return ModelSpec(
        model_id=model_id,
        endpoint=endpoint if isinstance(endpoint, str) else None,
        auth_ref=raw.get("auth_ref") or None,
        temperature=float(raw.get("temperature", 0.2)),
        max_tokens=int(raw.get("max_tokens", 4096)),
        timeout_s=int(raw.get("timeout_s", 60)),
        seed=seed if isinstance(seed, int) else None,
        script=script,
    )


def load_script_file(path: str) -> object:
    try:
        script = json.loads(Path(path).read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read script {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"script {path} is not valid JSON: {exc}") from exc
    if not isinstance(script, (list, dict)):
        raise ConfigError(f"script {path} must be a list or an object")
    return script


def parse_strategy(raw: object, iteration_cap: int, resolve) -> Strategy:
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError("each strategy entry must be a string or an object")
    kind = raw.get("kind")
    if kind not in STRATEGY_KINDS:
        raise ConfigError(f"strategy kind must be one of {STRATEGY_KINDS}, got {kind!r}")
    max_iterations = int(raw.get("max_iterations", iteration_cap))
    exemplars: tuple[str, ...] = ()
    if PROTOCOLS[kind].exemplars:
        paths = raw.get("exemplar_paths")
        if paths:
            if not isinstance(paths, list) or len(paths) != 2:
                raise ConfigError("exemplar_paths must list exactly 2 files")
            texts = []
            for p in paths:
                try:
                    texts.append(Path(resolve(str(p))).read_text("utf-8").rstrip("\n"))
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"cannot read exemplar {p}: {exc}") from exc
            exemplars = verify_exemplars(tuple(texts))
        else:
            exemplars = load_default_exemplars()
    try:
        return Strategy(kind=kind, max_iterations=max_iterations, exemplars=exemplars)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_snapshot(config: RunConfig) -> dict:
    """JSON-native view of the config, stable across runs of the same setup:
    its fields, with exec_settings stored as "exec" and the two limits on
    cells in flight as "parallelism"."""
    snapshot = asdict(config)
    snapshot["exec"] = snapshot.pop("exec_settings")
    snapshot["parallelism"] = {
        "tasks": snapshot.pop("task_parallelism"),
        "per_endpoint": snapshot.pop("per_endpoint_cap"),
    }
    return snapshot


def config_digest(snapshot: dict) -> str:
    """Digest of the experiment parameters.

    run_id and output_dir are excluded: they label and locate the store but
    do not change what the run computes, and resuming a relocated store must
    not be refused.
    """
    digested = {k: v for k, v in snapshot.items() if k not in ("run_id", "output_dir")}
    canonical = json.dumps(digested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
