"""Report rendering over a RunStore: pass-rate deltas with McNemar stars,
average Singleton Scores, predicate tallies and outcome breakdowns, in
aligned text, CSV and JSON. All three formats derive from one JSON-native
summary, and rendering is a pure function of it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Callable, NamedTuple

from .exec_harness import (
    ABORTED,
    COMPILE_ERROR,
    MISSING_EXTERNAL_LIBRARY,
    NON_CODE_OUTPUT,
    OTHER_COMPILE_ERROR,
    PASS,
    TEST_FAIL,
    TIMEOUT,
)
from .guidance import BASELINE, STRATEGY_KINDS, RunRecord
from .pattern_checker import PREDICATE_NAMES, singleton_score
from .stats import (
    delta_pp,
    mcnemar,
    pair_outcomes,
    pass_at_1,
    predicate_counts,
    selected_report,
)
from .store import RunStore

MCNEMAR_LEGEND = "McNemar significance: * = p<0.05, ** = p<0.01, *** = p<0.001"


def build_summary(store: RunStore) -> dict:
    """Aggregate a store into a JSON-native summary model."""
    grouped = store.load_all()
    model_ids = sorted({model_id for model_id, _ in grouped})
    strategy_order = [
        kind for kind in STRATEGY_KINDS if any(key[1] == kind for key in grouped)
    ]

    models = []
    for model_id in model_ids:
        baseline_records = grouped.get((model_id, BASELINE), [])
        baseline_rate = pass_at_1(baseline_records) if baseline_records else None
        strategies = []
        for kind in strategy_order:
            records = grouped.get((model_id, kind))
            if not records:
                continue
            strategies.append(
                _strategy_cell(kind, records, baseline_records, baseline_rate)
            )
        models.append(
            {
                "model_id": model_id,
                "baseline_pass_rate": baseline_rate,
                "strategies": strategies,
            }
        )
    # Table 2 ordering: highest baseline pass rate first, then model id.
    models.sort(
        key=lambda m: (
            -(m["baseline_pass_rate"] if m["baseline_pass_rate"] is not None else -1.0),
            m["model_id"],
        )
    )
    return {"strategy_order": strategy_order, "models": models}


def _strategy_cell(
    kind: str,
    records: list[RunRecord],
    baseline_records: list[RunRecord],
    baseline_rate: float | None,
) -> dict:
    rate = pass_at_1(records)
    cell = {
        "kind": kind,
        "n_tasks": len(records),
        "pass_rate": rate,
        "avg_singleton_score": sum(
            singleton_score(selected_report(r)) for r in records
        )
        / len(records),
        "predicate_counts": dataclasses.asdict(predicate_counts(records)),
        "outcomes": _outcome_breakdown(records),
        "delta_pp": None,
        "mcnemar": None,
    }
    if kind != BASELINE and baseline_records and baseline_rate is not None:
        cell["delta_pp"] = delta_pp(rate, baseline_rate)
        cell["mcnemar"] = dataclasses.asdict(
            mcnemar(pair_outcomes(baseline_records, records))
        )
    return cell


def _outcome_breakdown(records: list[RunRecord]) -> dict:
    breakdown = dict.fromkeys((PASS, TEST_FAIL, COMPILE_ERROR, TIMEOUT, ABORTED), 0)
    categories = dict.fromkeys(
        (MISSING_EXTERNAL_LIBRARY, NON_CODE_OUTPUT, OTHER_COMPILE_ERROR), 0
    )
    for record in records:
        outcome = record.functional_outcome
        kind = outcome.kind if outcome is not None else ABORTED
        breakdown[kind if kind in breakdown else ABORTED] += 1
        if kind == COMPILE_ERROR:
            categories[outcome.compile_error_category or OTHER_COMPILE_ERROR] += 1
    breakdown["compile_error_categories"] = categories
    return breakdown


def render(summary: dict, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return FORMATS[fmt](summary)


def render_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


class Column(NamedTuple):
    """One value per summary cell: its CSV header, its text header (None
    for a CSV-only column), how to read it and how to print it as text."""

    csv: str
    text: str | None
    get: Callable[[dict], object]
    fmt: Callable[[object], str] = str


def _path(*keys: str) -> Callable[[dict], object]:
    """Getter for a nested cell value; None once any level is None."""

    def get(cell: dict) -> object:
        for key in keys:
            if cell is None:
                return None
            cell = cell[key]
        return cell

    return get


PASS_RATE_COLUMNS = (
    Column("n_tasks", None, _path("n_tasks")),
    Column("pass_rate", None, _path("pass_rate")),
    Column("delta_pp", None, _path("delta_pp")),
    Column("b", "b", _path("mcnemar", "b")),
    Column("c", "c", _path("mcnemar", "c")),
    Column("statistic", "statistic", _path("mcnemar", "statistic"),
           lambda v: "-" if v is None else f"{v:.4f}"),
    Column("p_value", "p_value", _path("mcnemar", "p_value"), lambda v: f"{v:.6g}"),
    Column("method", "method", _path("mcnemar", "method")),
    Column("stars", "stars", _path("mcnemar", "stars"), lambda v: v or "-"),
)
SCORE_COLUMNS = (Column("avg_singleton_score", None, _path("avg_singleton_score")),)
PREDICATE_COLUMNS = (
    Column("n_tasks", "tasks", _path("n_tasks")),
    *(Column(name, name, _path("predicate_counts", name))
      for name in PREDICATE_NAMES),
)
OUTCOME_COLUMNS = (
    Column("pass", "pass", _path("outcomes", PASS)),
    Column("test_fail", "test_fail", _path("outcomes", TEST_FAIL)),
    Column("compile_error", "compile_error", _path("outcomes", COMPILE_ERROR)),
    *(Column(category, text, _path("outcomes", "compile_error_categories", category))
      for category, text in ((MISSING_EXTERNAL_LIBRARY, "missing_library"),
                             (NON_CODE_OUTPUT, "non_code"),
                             (OTHER_COMPILE_ERROR, "other_compile"))),
    Column("timeout", "timeout", _path("outcomes", TIMEOUT)),
    Column("aborted", "aborted", _path("outcomes", ABORTED)),
)


def _cell_rows(
    summary: dict, columns: tuple[Column, ...], text: bool, only: str | None = None
) -> tuple[list[str], list[list]]:
    """Headers and one row per (model, strategy) cell, led by the model id and
    strategy kind. Text rows keep the text columns, formatted; CSV rows keep
    raw values, which csv.writer prints as "" for None and repr for floats.
    `only` names a cell key whose value must be set for the cell to be listed.
    """
    if text:
        columns = tuple(column for column in columns if column.text)
    headers = ["model", "strategy"] + [c.text if text else c.csv for c in columns]
    rows = []
    for model in summary["models"]:
        for cell in model["strategies"]:
            if only and not cell.get(only):
                continue
            values = [
                column.fmt(column.get(cell)) if text else column.get(cell)
                for column in columns
            ]
            rows.append([model["model_id"], cell["kind"], *values])
    return headers, rows


def _pivot(
    summary: dict, kinds: list[str], fmt: Callable[[str, dict], str]
) -> tuple[list[str], list[list[str]]]:
    """Headers and one row per model with one formatted cell per kind ("-"
    where the model has no such cell)."""
    rows = []
    for model in summary["models"]:
        cells = {cell["kind"]: cell for cell in model["strategies"]}
        rows.append(
            [model["model_id"]]
            + [fmt(kind, cells[kind]) if kind in cells else "-" for kind in kinds]
        )
    return ["model", *kinds], rows


def _fmt_pass(kind: str, cell: dict) -> str:
    """Baseline pass rate, or the strategy's delta with McNemar stars."""
    if kind == BASELINE:
        return f"{cell['pass_rate']:.1f}"
    if cell["delta_pp"] is None:
        return "-"
    return f"{cell['delta_pp']:+.1f}{cell['mcnemar']['stars']}"


def _text_table(
    out: io.StringIO, title: str, headers: list[str], rows: list[list[str]]
) -> None:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    out.write(title + "\n")
    for row in (headers, *rows):
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
    out.write("\n")


TEXT_TABLES = (
    ("Fulfilled predicates (count of tasks)", PREDICATE_COLUMNS, None),
    (
        "Outcomes (Pass / TestFail / CompileError with categories / Timeout / Aborted)",
        OUTCOME_COLUMNS,
        None,
    ),
    ("McNemar detail vs baseline", PASS_RATE_COLUMNS, "mcnemar"),
)


def render_text(summary: dict) -> str:
    order = summary["strategy_order"]
    out = io.StringIO()
    _text_table(
        out,
        f"Pass rate: baseline % and delta (pp) per strategy. {MCNEMAR_LEGEND}",
        *_pivot(summary, [BASELINE] + [k for k in order if k != BASELINE], _fmt_pass),
    )
    _text_table(
        out,
        "Average Singleton Score per strategy",
        *_pivot(summary, order, lambda kind, cell: f"{cell['avg_singleton_score']:.1f}"),
    )
    for title, columns, only in TEXT_TABLES:
        _text_table(out, title, *_cell_rows(summary, columns, text=True, only=only))
    return out.getvalue()


CSV_SECTIONS = (
    ("pass_rates", PASS_RATE_COLUMNS),
    ("singleton_scores", SCORE_COLUMNS),
    ("predicate_counts", PREDICATE_COLUMNS),
    ("outcomes", OUTCOME_COLUMNS),
)


def render_csv(summary: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for name, columns in CSV_SECTIONS:
        out.write(f"# {name}\n")
        headers, rows = _cell_rows(summary, columns, text=False)
        writer.writerow(headers)
        writer.writerows(rows)
    return out.getvalue()


FORMATS = {"text": render_text, "csv": render_csv, "json": render_json}
