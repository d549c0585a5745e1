"""Run configuration: JSON schema, validation, and the config digest."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from urllib.parse import urlsplit

from .gateway import ScriptedModel
from .guidance import PROTOCOLS, STRATEGY_KINDS, Strategy, load_default_exemplars, verify_exemplars
from .dataset import DEFAULT_FIELD_MAP, store_name_clash

EXEC_MODES = ("jdk", "mock")
# The longest wait a config may set, in seconds (one day): time.sleep, socket
# timeouts and Future.result overflow far above it.
MAX_WAIT_S = 86_400


class ConfigError(ValueError):
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
        name = f"model {self.model_id!r}:"
        if self.auth_ref is not None and not isinstance(self.auth_ref, str):
            raise ConfigError(f"{name} auth_ref must be a string or null")
        object.__setattr__(self, "auth_ref", self.auth_ref or None)  # "" names no credential
        object.__setattr__(self, "temperature", _finite(self.temperature, f"{name} temperature"))
        _at_least(self.max_tokens, 1, f"{name} max_tokens")
        _wait(_at_least(self.timeout_s, 1, f"{name} timeout_s"), f"{name} timeout_s")
        _seed(self.seed, f"{name} seed")
        if not isinstance(self.endpoint, str):  # names no endpoint; a scripted model needs none
            object.__setattr__(self, "endpoint", None)
        if self.script is not None:
            _script(self.script, f"{name} script")
            return
        parsed = urlsplit(self.endpoint or "")
        try:
            valid = parsed.scheme in ("http", "https") and bool(parsed.hostname) and parsed.port != 0
        except ValueError:  # a port that is not a number in 0-65535
            valid = False
        if not valid:
            raise ConfigError(f"{name} invalid endpoint URL {self.endpoint!r} (http or https only)")

    def backend(self, task_id: str) -> ModelSpec | ScriptedModel:
        """What answers `task_id`: this endpoint, or a fresh replay of its script."""
        if self.script is None:
            return self
        return ScriptedModel(script_responses(self.script, task_id), self.model_id)


def script_responses(script: object, task_id: str) -> list[str]:
    """Resolve a script spec, as `_script` checked it, to one task's response list."""
    if isinstance(script, list):
        return list(script)
    table = script.get("tasks", script)
    if task_id in table:
        return list(table[task_id])
    if "default" in script:
        return list(script["default"])
    raise ConfigError(f"script has no responses for task {task_id!r}")


@dataclass(frozen=True)
class ExecSettings:
    mode: str = "jdk"
    budget_s: int = 30
    javac: str = "javac"
    java: str = "java"
    test_adaptation: bool = False
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __post_init__(self) -> None:
        if self.mode not in EXEC_MODES:
            raise ConfigError(f"exec.mode must be one of {EXEC_MODES}")
        _wait(_at_least(self.budget_s, 1, "exec.budget_s"), "exec.budget_s")
        for tool in ("javac", "java"):
            if not isinstance(getattr(self, tool), str) or not getattr(self, tool):
                raise ConfigError(f"exec.{tool} must be a non-empty string")
        if not isinstance(self.test_adaptation, bool):
            raise ConfigError("exec.test_adaptation must be true or false")
        _at_least(self.workers, 1, "exec.workers")


@dataclass(frozen=True)
class Parallelism:
    """Limits on cells in flight: run-wide, and per model endpoint."""

    tasks: int = 1
    per_endpoint: int = 4

    def __post_init__(self) -> None:
        _at_least(self.tasks, 1, "parallelism.tasks")
        _at_least(self.per_endpoint, 1, "parallelism.per_endpoint")


@dataclass(frozen=True)
class RunConfig:
    run_id: str
    dataset_path: str
    output_dir: str
    models: tuple[ModelSpec, ...]
    strategies: tuple[Strategy, ...]
    iteration_cap: int = Strategy.max_iterations  # the one default, on the strategy
    exec: ExecSettings = field(default_factory=ExecSettings)
    parallelism: Parallelism = field(default_factory=Parallelism)
    seed: int | None = None
    field_map: dict | None = None
    retries: int = 3
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.run_id, str) or not self.run_id:
            raise ConfigError("run_id must be a non-empty string")
        if len({m.model_id for m in self.models}) != len(self.models):
            raise ConfigError("model_id values must be unique")
        if len({s.kind for s in self.strategies}) != len(self.strategies):
            raise ConfigError("strategy kinds must be unique")
        # run_id names the scratch root, and each model_id its records files
        for label, values in (("run_id", [self.run_id]), ("model_id", [m.model_id for m in self.models])):
            if clash := store_name_clash(label, values):
                raise ConfigError(clash)
        _at_least(self.retries, 0, "retries")
        object.__setattr__(self, "backoff_s", _wait(_finite(self.backoff_s, "backoff_s"), "backoff_s"))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: also an int over the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return parse_config(raw, base_dir=path.parent)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    base = base_dir or Path.cwd()

    def _resolve(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute() else base / candidate)

    _known(raw, "config", ("run_id", "dataset", "output_dir", "models", "strategies", "iteration_cap", "exec",
                           "parallelism", "seed", "retries", "backoff_s"))
    dataset = raw.get("dataset")
    if isinstance(dataset, str):
        dataset = {"path": dataset}
    if not isinstance(dataset, dict) or not dataset.get("path"):
        raise ConfigError("dataset.path is required")
    field_map = _known(dataset, "dataset", ("path", "field_map")).get("field_map")
    if field_map is not None and not all(
        isinstance(v, str) for v in _known(field_map, "dataset.field_map", DEFAULT_FIELD_MAP).values()
    ):
        raise ConfigError("dataset.field_map must be an object of strings")

    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir is required")

    models_raw = raw.get("models")
    if not isinstance(models_raw, list) or not models_raw:
        raise ConfigError("models must be a non-empty list")
    # the top-level seed and iteration_cap are read only as defaults: each model's and each strategy's
    seed = _seed(raw.get("seed"), "seed")
    models = tuple(_parse_model(m, seed, _resolve) for m in models_raw)

    iteration_cap = _at_least(raw.get("iteration_cap", RunConfig.iteration_cap), 1, "iteration_cap")
    strategies_raw = raw.get("strategies")
    if not isinstance(strategies_raw, list) or not strategies_raw:
        raise ConfigError("strategies must be a non-empty list")
    strategies = tuple(parse_strategy(s, iteration_cap, _resolve) for s in strategies_raw)

    exec_raw = dict(_known(raw.get("exec", {}), "exec", [f.name for f in fields(ExecSettings)]))
    for tool in ("javac", "java"):  # a bare name is looked up on PATH
        if isinstance(exec_raw.get(tool), str) and "/" in exec_raw[tool]:
            exec_raw[tool] = _resolve(exec_raw[tool])
    parallelism_raw = _known(raw.get("parallelism", {}), "parallelism", [f.name for f in fields(Parallelism)])

    return RunConfig(
        run_id=raw.get("run_id"),
        dataset_path=_resolve(str(dataset["path"])),
        output_dir=_resolve(output_dir),
        models=models,
        strategies=strategies,
        iteration_cap=iteration_cap,
        exec=ExecSettings(**exec_raw),
        parallelism=Parallelism(**parallelism_raw),
        seed=seed,
        field_map=field_map,
        **{k: raw[k] for k in ("retries", "backoff_s") if k in raw},
    )


def _known(raw: object, name: str, keys) -> dict:
    """`raw`, an object each of whose keys names a setting: a misspelled key is an error, not a default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{name}: unknown key {key!r} (known: {', '.join(sorted(keys))})")
    return raw


def _at_least(value: object, minimum: int, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _wait(seconds: float, name: str) -> float:
    if not 0 <= seconds <= MAX_WAIT_S:
        raise ConfigError(f"{name} must be from 0 to {MAX_WAIT_S} seconds (one day)")
    return seconds


def _seed(value: object, name: str) -> int | None:
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{name} must be an integer or null")
    return value


def _finite(value: object, name: str) -> float:
    """A JSON number, as a float, if that float is finite; a bool is no number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{name} must be a finite number")


def _parse_model(raw: object, default_seed: int | None, resolve) -> ModelSpec:
    if not isinstance(raw, dict):
        raise ConfigError("each model entry must be an object")
    model_id = raw.get("model_id")
    if not isinstance(model_id, str) or not model_id:
        raise ConfigError("model_id must be a non-empty string")
    _known(raw, f"model {model_id!r}", [f.name for f in fields(ModelSpec)] + ["script_path"])
    settings = {"seed": default_seed, **raw}
    if script_path := settings.pop("script_path", None):
        settings["script"] = load_script_file(resolve(script_path))
    if settings.get("script") is None and not settings.get("endpoint"):
        raise ConfigError(f"model {model_id!r} needs an endpoint or a script")
    return ModelSpec(**settings)


def load_script_file(path: str) -> object:
    try:
        script = json.loads(Path(path).read_text("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read script {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"script {path} is not valid JSON: {exc}") from exc
    return _script(script, f"script {path}")


def _script(script: object, name: str) -> object:
    """A list of responses, or an object of them keyed by task id (under
    "tasks", or at the top level) with an optional "default" list."""
    if isinstance(script, dict):
        table = script.get("tasks", script)
        if not isinstance(table, dict):
            raise ConfigError(f"{name}: tasks must be an object")
        lists = {**table, "default": script.get("default", [])}
    elif isinstance(script, list):
        lists = {None: script}
    else:
        raise ConfigError(f"{name} must be a list or an object")
    for key, responses in lists.items():
        if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
            where = name if key is None else f"{name} entry {key!r}"
            raise ConfigError(f"{where} must be a list of strings")
    return script


def parse_strategy(raw: object, iteration_cap: int, resolve) -> Strategy:
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError("each strategy entry must be a string or an object")
    kind = raw.get("kind")
    _known(raw, f"strategy {kind!r}", ("kind", "max_iterations", "exemplar_paths"))
    exemplars: tuple[str, ...] = ()
    if kind in STRATEGY_KINDS and PROTOCOLS[kind].exemplars:
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
        return Strategy(kind, raw.get("max_iterations", iteration_cap), exemplars)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_snapshot(config: RunConfig) -> dict:
    """JSON-native view of the config, one key per field, stable across runs
    of the same setup."""
    return asdict(config)


def config_digest(snapshot: dict) -> str:
    """Digest of the experiment parameters.

    run_id and output_dir are excluded: they label and locate the store but
    do not change what the run computes, and resuming a relocated store must
    not be refused.
    """
    digested = {k: v for k, v in snapshot.items() if k not in ("run_id", "output_dir")}
    canonical = json.dumps(digested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
