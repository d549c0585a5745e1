"""pass@1, baseline deltas, McNemar significance and predicate tallies.

McNemar uses the exact two-sided binomial test for small discordant counts
and the continuity-corrected chi-square approximation otherwise; the method
is part of the result so report cells stay auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exec_harness import ABORTED, PASS
from .guidance import RunRecord
from .pattern_checker import PREDICATE_NAMES, PredicateReport, no_class_report

EXACT_METHOD_MAX_DISCORDANT = 25  # exact binomial strictly below this many pairs

STAR_THRESHOLDS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


@dataclass(frozen=True)
class PairedOutcomes:
    both_pass: int
    baseline_only_pass: int
    strategy_only_pass: int
    both_fail: int


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    statistic: float | None  # absent for the exact method
    p_value: float
    method: str  # exact_binomial | chi_square_cc
    stars: str


def pass_at_1(records: list[RunRecord]) -> float:
    """Percentage of tasks whose single selected candidate passed its tests."""
    if not records:
        raise ValueError("no records")
    return 100.0 * sum(map(_passed, records)) / len(records)


def delta_pp(strategy_rate: float, baseline_rate: float) -> float:
    return strategy_rate - baseline_rate


def stars_for(p_value: float) -> str:
    for threshold, stars in STAR_THRESHOLDS:
        if p_value < threshold:
            return stars
    return ""


def pair_outcomes(
    baseline_records: list[RunRecord], strategy_records: list[RunRecord]
) -> PairedOutcomes:
    """Pair per-task pass/fail across two arms; aborted tasks drop from both."""
    base = {r.task_id: r for r in baseline_records}
    strat = {r.task_id: r for r in strategy_records}
    a = b = c = d = 0
    for task_id in base.keys() & strat.keys():
        if _aborted(base[task_id]) or _aborted(strat[task_id]):
            continue
        base_pass = _passed(base[task_id])
        strat_pass = _passed(strat[task_id])
        if base_pass and strat_pass:
            a += 1
        elif base_pass:
            b += 1
        elif strat_pass:
            c += 1
        else:
            d += 1
    return PairedOutcomes(a, b, c, d)


def mcnemar(pairs: PairedOutcomes) -> McNemarResult:
    b, c = pairs.baseline_only_pass, pairs.strategy_only_pass
    n = b + c
    if n < EXACT_METHOD_MAX_DISCORDANT:
        p = exact_binomial_p(b, c)
        return McNemarResult(b, c, None, p, "exact_binomial", stars_for(p))
    # Continuity-corrected chi-square, 1 dof. The correction term is clamped
    # at zero so b == c yields p = 1 like the exact test does.
    corrected = max(abs(b - c) - 1, 0)
    statistic = corrected * corrected / n
    p = chi_square_tail_1df(statistic)
    return McNemarResult(b, c, statistic, p, "chi_square_cc", stars_for(p))


def exact_binomial_p(b: int, c: int) -> float:
    """Two-sided exact binomial p for discordant counts under p=0.5."""
    n = b + c
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1)) * 0.5**n
    return min(1.0, 2.0 * tail)


def chi_square_tail_1df(statistic: float) -> float:
    """Upper tail of chi-square with 1 dof: erfc(sqrt(x/2)) in closed form."""
    if statistic <= 0:
        return 1.0
    return math.erfc(math.sqrt(statistic / 2.0))


def selected_report(record: RunRecord) -> PredicateReport:
    """Predicate report of the record's selected candidate."""
    if record.selected_iteration and record.iterations:
        return record.iterations[record.selected_iteration - 1].predicate_report
    return no_class_report()


def predicate_counts(records: list[RunRecord]) -> dict[str, int]:
    reports = [selected_report(r) for r in records]
    return {name: sum(1 for r in reports if getattr(r, name)) for name in PREDICATE_NAMES}


def _passed(record: RunRecord) -> bool:
    return record.functional_outcome is not None and record.functional_outcome.kind == PASS


def _aborted(record: RunRecord) -> bool:
    return record.functional_outcome is None or record.functional_outcome.kind == ABORTED
