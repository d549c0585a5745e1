"""Correctness gate: records and reports against the planted ground truth.

Works on the files the pipeline wrote (record JSONL, the json report), so
the benchmark process itself never imports singletonlab.
"""

from __future__ import annotations

import json
from pathlib import Path

PASS, ABORTED, COMPILE_ERROR = "Pass", "Aborted", "CompileError"
PREDICATES = ("private_constructor", "instance_field", "global_access_point")


def load_records(records_dir: Path) -> dict[str, dict]:
    records = {}
    for path in sorted(records_dir.glob("*.jsonl")):
        for line in path.read_text("utf-8").splitlines():
            if line.strip():
                r = json.loads(line)
                records[f"{r['model_id']}|{r['strategy_kind']}|{r['task_id']}"] = r
    return records


def observed(record: dict) -> dict:
    outcome = record["functional_outcome"] or {"kind": ABORTED, "compile_error_category": None}
    return {
        "iterations": len(record["iterations"]),
        "verdicts": [[it["predicate_report"][p] for p in PREDICATES] for it in record["iterations"]],
        "selected": record["selected_iteration"],
        "outcome": [outcome["kind"], outcome.get("compile_error_category")],
    }


def check_records(records: dict[str, dict], truth: dict) -> list[dict]:
    """One entry per cell whose record is missing or differs from the truth."""
    mismatches = []
    for key, want in truth["cells"].items():
        record = records.get(key)
        if record is None:
            mismatches.append({"cell": key, "planted": _planted(want), "observed": "missing"})
            continue
        got = observed(record)
        model, _, task = key.split("|")
        codes = truth["extracted"][model][task]
        extract_ok = all(
            it["extracted_code"] == codes[i] for i, it in enumerate(record["iterations"])
        )
        if not extract_ok or got != _planted(want):
            entry = {"cell": key, "planted": _planted(want), "observed": got}
            if not extract_ok:
                entry["extract_code"] = "differs from the planted candidate"
            mismatches.append(entry)
    return mismatches


def _planted(want: dict) -> dict:
    return {k: want[k] for k in ("iterations", "verdicts", "selected", "outcome")}


def expected_summary(truth: dict) -> dict:
    """Per (model, strategy): the build_summary numbers, counted from truth."""
    cells = truth["cells"]
    out = {}
    for model in truth["models"]:
        passed = {}
        for strategy in truth["strategies"]:
            rows = [cells[f"{model}|{strategy}|{t}"] for t in truth["task_ids"]]
            outcomes = {k: 0 for k in ("Pass", "TestFail", "CompileError", "Timeout", "Aborted")}
            categories = {
                "missing_external_library": 0,
                "non_code_output": 0,
                "other_compile_error": 0,
            }
            counts = [0, 0, 0]
            for row in rows:
                kind, category = row["outcome"]
                outcomes[kind] += 1
                if kind == COMPILE_ERROR:
                    categories[category] += 1
                if row["selected"]:
                    for i, v in enumerate(row["verdicts"][row["selected"] - 1]):
                        counts[i] += v
            passed[strategy] = {
                t: (row["outcome"][0] == PASS, row["outcome"][0] == ABORTED)
                for t, row in zip(truth["task_ids"], rows)
            }
            outcomes["compile_error_categories"] = categories
            out[(model, strategy)] = {
                "n_tasks": len(rows),
                "pass_rate": 100.0 * outcomes["Pass"] / len(rows),
                "predicate_counts": dict(zip(PREDICATES, counts)),
                "outcomes": outcomes,
            }
        base = passed.get("baseline")
        for strategy in truth["strategies"]:
            cell = out[(model, strategy)]
            if strategy == "baseline" or base is None:
                cell["delta_pp"], cell["mcnemar_bc"] = None, None
                continue
            cell["delta_pp"] = cell["pass_rate"] - out[(model, "baseline")]["pass_rate"]
            b = c = 0
            for t, (s_pass, s_abort) in passed[strategy].items():
                b_pass, b_abort = base[t]
                if s_abort or b_abort:
                    continue
                b += b_pass and not s_pass
                c += s_pass and not b_pass
            cell["mcnemar_bc"] = [b, c]
    return out


def check_summary(report_json: str, truth: dict) -> list[str]:
    """Differences between the rendered json summary and the truth counts."""
    summary = json.loads(report_json)
    want = expected_summary(truth)
    problems = []
    seen = set()
    for model in summary["models"]:
        for cell in model["strategies"]:
            key = (model["model_id"], cell["kind"])
            seen.add(key)
            if key not in want:
                problems.append(f"{key}: not in the ground truth")
                continue
            exp = want[key]
            got = {
                "n_tasks": cell["n_tasks"],
                "pass_rate": cell["pass_rate"],
                "predicate_counts": cell["predicate_counts"],
                "outcomes": cell["outcomes"],
                "delta_pp": cell["delta_pp"],
                "mcnemar_bc": [cell["mcnemar"]["b"], cell["mcnemar"]["c"]] if cell["mcnemar"] else None,
            }
            for field, value in exp.items():
                other = got[field]
                if isinstance(value, float) and isinstance(other, float):
                    same = abs(value - other) < 1e-9
                else:
                    same = value == other
                if not same:
                    problems.append(f"{key} {field}: expected {value}, report has {other}")
    for key in want.keys() - seen:
        problems.append(f"{key}: missing from the report")
    return problems
