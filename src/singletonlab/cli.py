"""Command-line entry points: check, run, report, mock-run.

Exit codes: 0 success (for `check`: every file conforms), 1 nonconformance
from `check`, 2 usage or configuration errors (for `check`: also a file it
cannot read).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from .config import ConfigError, load_config, parse_config
from .dataset import DatasetError
from .exec_harness import ToolchainError
from .guidance import assess_candidate
from .pattern_checker import PREDICATE_NAMES, singleton_score
from .reporting import FORMATS, build_summary, render
from .runner import run_experiment
from .store import RunStore, StoreError


def entry() -> None:
    sys.exit(main())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, StoreError, ToolchainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singletonlab",
        description=(
            "Guide LLMs toward Singleton-conforming Java, verify structure, "
            "run tests, and report pass rates with significance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="structurally check Java files for Singleton conformance"
    )
    p_check.add_argument("paths", nargs="+", help="Java files or directories")
    p_check.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render reports from a run store")
    p_report.add_argument("store", help="store directory written by `run`")
    p_report.add_argument("--format", choices=FORMATS, default="text")
    p_report.set_defaults(func=cmd_report)

    p_mock = sub.add_parser(
        "mock-run", help="drive a scripted model end-to-end (no network, no JDK)"
    )
    p_mock.add_argument("--script", required=True, help="JSON script of canned responses")
    p_mock.add_argument("--dataset", required=True, help="JSONL task file")
    p_mock.add_argument(
        "--strategies",
        default="baseline,binary_feedback,predicate_feedback",
        help="comma-separated strategy kinds",
    )
    p_mock.add_argument("--output", default=None, help="store directory (default: temp)")
    p_mock.add_argument("--model-id", default="scripted", help="model id for the records")
    p_mock.add_argument("--iterations", type=int, help="iteration cap (default: the config's)")
    p_mock.set_defaults(func=cmd_mock_run)
    return parser


def cmd_check(args) -> int:
    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(found for found in path.rglob("*.java") if found.is_file()))
        elif path.is_file():
            files.append(path)
        else:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
            return 2
    results = []
    for path in files:
        try:
            text = path.read_text("utf-8", errors="replace")
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        report = assess_candidate(text, None)
        results.append(
            {
                "path": str(path),
                **{name: getattr(report, name) for name in PREDICATE_NAMES},
                "singleton_score": singleton_score(report),
                "conforming": report.is_singleton(),
                "failed_checks": list(report.failed_checks),
            }
        )
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for row in results:
            verdicts = " ".join(f"{name}={'yes' if row[name] else 'no'}" for name in PREDICATE_NAMES)
            print(f"{row['path']}: score {row['singleton_score']:.1f} [{verdicts}]")
            for failure in row["failed_checks"]:
                print(f"  - {failure}")
    return 0 if all(r["conforming"] for r in results) else 1


def cmd_run(args) -> int:
    config = load_config(args.config)
    run_experiment(config)
    return 0


def cmd_report(args) -> int:
    store = RunStore(args.store)
    if not store.config_path.exists():
        print(f"error: not a run store (missing {store.config_path})", file=sys.stderr)
        return 2
    store.load_snapshot()  # surfaces corruption with the file name
    summary = build_summary(store)
    sys.stdout.write(render(summary, args.format))
    return 0


def cmd_mock_run(args) -> int:
    # the config file `run --config` would read; Path() keeps relative paths as typed
    raw = {
        "run_id": "mock",
        "dataset": args.dataset,
        "output_dir": args.output or "temp",  # a placeholder until the flags pass
        "models": [{"model_id": args.model_id, "script_path": args.script}],
        "strategies": [k.strip() for k in args.strategies.split(",") if k.strip()],
        "exec": {"mode": "mock"},
    }
    if args.iterations is not None:
        raw["iteration_cap"] = args.iterations
    config = parse_config(raw, base_dir=Path())
    if not args.output:  # the digest leaves output_dir out
        config = dataclasses.replace(config, output_dir=tempfile.mkdtemp(prefix="singletonlab-mock-"))
    store = run_experiment(config)
    sys.stdout.write(render(build_summary(store), "text"))
    print(f"store: {store.root}")
    return 0


if __name__ == "__main__":
    entry()
