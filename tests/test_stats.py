from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singletonlab.exec_harness import OutcomeLabel
from singletonlab.guidance import IterationRecord, RunRecord
from singletonlab.pattern_checker import make_report
from singletonlab.stats import (
    EXACT_METHOD_MAX_DISCORDANT,
    PairedOutcomes,
    delta_pp,
    mcnemar,
    pair_outcomes,
    pass_at_1,
    predicate_counts,
    stars_for,
)

from conftest import exact_binomial_oracle, normal_two_sided_tail_oracle


def pairs(b: int, c: int) -> PairedOutcomes:
    return PairedOutcomes(0, b, c, 0)


# --- exact method --------------------------------------------------------------


def test_exact_p_spec_examples():
    result = mcnemar(pairs(10, 0))
    assert result.p_value == pytest.approx(2 * 0.5**10, abs=1e-15)
    assert result.p_value == pytest.approx(0.001953, abs=1e-6)
    assert result.stars == "**"

    symmetric = mcnemar(pairs(5, 5))
    assert symmetric.p_value == 1.0
    assert symmetric.stars == ""

    empty = mcnemar(pairs(0, 0))
    assert empty.p_value == 1.0
    assert empty.method == "exact_binomial"


def test_report_example_b1_c6():
    result = mcnemar(pairs(1, 6))
    assert result.p_value == pytest.approx(0.125, abs=1e-12)
    assert result.stars == ""


# --- chi-square method -----------------------------------------------------------


def test_chi_square_spec_example():
    result = mcnemar(pairs(30, 10))
    assert result.method == "chi_square_cc"
    assert result.statistic == pytest.approx(9.025, abs=1e-12)
    assert result.p_value == pytest.approx(0.00266, abs=0.0005)
    oracle = normal_two_sided_tail_oracle(math.sqrt(9.025))
    assert result.p_value == pytest.approx(oracle, abs=1e-9)
    assert result.stars == "**"


def test_chi_square_tail_matches_integration_oracle_on_grid():
    from singletonlab.stats import chi_square_tail_1df

    for statistic in (0.5, 1.0, 3.84, 6.63, 9.025, 12.0):
        oracle = normal_two_sided_tail_oracle(math.sqrt(statistic))
        assert chi_square_tail_1df(statistic) == pytest.approx(oracle, abs=1e-9)


def test_method_switch_at_25_discordant_pairs():
    assert mcnemar(pairs(24, 0)).method == "exact_binomial"
    assert mcnemar(pairs(25, 0)).method == "chi_square_cc"
    assert EXACT_METHOD_MAX_DISCORDANT == 25


def test_boundary_region_exact_and_chi_square_agree_within_002():
    # regression grid: every split of n in [20, 30]
    from singletonlab.stats import chi_square_tail_1df

    for n in range(20, 31):
        for b in range(n + 1):
            c = n - b
            exact = float(exact_binomial_oracle(b, c))
            corrected = max(abs(b - c) - 1, 0)
            chi = chi_square_tail_1df(corrected * corrected / n)
            assert abs(exact - chi) < 0.02, (b, c, exact, chi)


# --- stars -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,expected",
    [
        (0.05, ""),
        (0.05 - 1e-12, "*"),
        (0.01, "*"),
        (0.01 - 1e-12, "**"),
        (0.001, "**"),
        (0.001 - 1e-12, "***"),
        (1.0, ""),
        (0.0, "***"),
    ],
)
def test_star_thresholds_on_boundaries(p, expected):
    assert stars_for(p) == expected


def test_mcnemar_result_carries_stars():
    assert mcnemar(pairs(10, 0)).stars == "**"
    assert mcnemar(pairs(3, 3)).stars == ""


# --- properties --------------------------------------------------------------------


@given(b=st.integers(0, 60), c=st.integers(0, 60))
def test_significance_is_symmetric_in_b_and_c(b, c):
    forward = mcnemar(pairs(b, c))
    backward = mcnemar(pairs(c, b))
    assert forward.p_value == backward.p_value
    assert forward.method == backward.method
    assert forward.stars == backward.stars


@given(n=st.integers(1, 24))
def test_exact_p_nonincreasing_as_discordance_grows(n):
    values = []
    for b in range(n // 2, n + 1):
        values.append(mcnemar(pairs(b, n - b)).p_value)
    assert all(earlier >= later - 1e-15 for earlier, later in zip(values, values[1:]))


def test_exact_p_equals_one_when_balanced():
    for n in (2, 10, 24):
        assert mcnemar(pairs(n // 2, n // 2)).p_value == 1.0


def test_chi_square_balanced_counts_give_p_one():
    # the clamped continuity correction keeps b == c at p = 1 like the exact test
    result = mcnemar(pairs(20, 20))
    assert result.statistic == 0.0
    assert result.p_value == 1.0


# --- pass@1 / deltas -----------------------------------------------------------------


def record(task_id: str, kind: str | None, score: float = 0.0, report=None) -> RunRecord:
    outcome = OutcomeLabel(kind) if kind else None
    iterations = []
    selected_iteration = 0
    if report is not None:
        iterations = [IterationRecord(1, "p", "r", "c", report, report.is_singleton())]
        selected_iteration = 1
    return RunRecord(
        model_id="m",
        strategy_kind="baseline",
        task_id=task_id,
        iterations=iterations,
        selected_candidate="c",
        selected_iteration=selected_iteration,
        singleton_score=score,
        functional_outcome=outcome,
    )


def test_pass_at_1_rates():
    records = [record(f"T{i}", "Pass") for i in range(137)]
    records += [record(f"F{i}", "TestFail") for i in range(27)]
    assert len(records) == 164
    assert pass_at_1(records) == pytest.approx(100 * 137 / 164, abs=1e-9)
    assert f"{pass_at_1(records):.2f}" == "83.54"


def test_pass_at_1_zero_and_half():
    fails = [record(f"T{i}", "CompileError") for i in range(10)]
    assert pass_at_1(fails) == 0.0
    half = [record(f"P{i}", "Pass") for i in range(82)] + [
        record(f"F{i}", "Timeout") for i in range(82)
    ]
    assert pass_at_1(half) == 50.0


def test_non_pass_kinds_count_against_the_rate():
    records = [
        record("a", "Pass"),
        record("b", "Timeout"),
        record("c", "CompileError"),
        record("d", "Aborted"),
    ]
    assert pass_at_1(records) == 25.0


def test_pass_at_1_empty_errors():
    with pytest.raises(ValueError):
        pass_at_1([])


def test_delta_pp():
    assert delta_pp(67.0, 32.9) == pytest.approx(34.1)
    assert delta_pp(58.6, 40.9) == pytest.approx(17.7)
    assert delta_pp(41.5, 41.5) == 0.0


@given(
    baseline=st.floats(0, 100, allow_nan=False),
    strategy=st.floats(0, 100, allow_nan=False),
)
def test_delta_recovers_strategy_rate(baseline, strategy):
    assert baseline + delta_pp(strategy, baseline) == pytest.approx(strategy, abs=1e-9)


# --- pairing --------------------------------------------------------------------------


def test_pair_outcomes_counts_concordant_and_discordant():
    baseline = [
        record("t1", "Pass"),
        record("t2", "Pass"),
        record("t3", "TestFail"),
        record("t4", "CompileError"),
    ]
    strategy = [
        record("t1", "Pass"),
        record("t2", "TestFail"),
        record("t3", "Pass"),
        record("t4", "Timeout"),
    ]
    result = pair_outcomes(baseline, strategy)
    assert result == PairedOutcomes(1, 1, 1, 1)


def test_aborted_tasks_drop_from_both_arms():
    baseline = [record("t1", "Pass"), record("t2", "Aborted"), record("t3", "Pass")]
    strategy = [record("t1", "Aborted"), record("t2", "Pass"), record("t3", "Pass")]
    result = pair_outcomes(baseline, strategy)
    assert result == PairedOutcomes(1, 0, 0, 0)


def test_pairing_restricted_to_shared_task_ids():
    baseline = [record("t1", "Pass"), record("only-base", "Pass")]
    strategy = [record("t1", "TestFail"), record("only-strat", "Pass")]
    result = pair_outcomes(baseline, strategy)
    assert result == PairedOutcomes(0, 1, 0, 0)


# --- predicate counts --------------------------------------------------------------------


def test_predicate_counts_all_conforming():
    full = make_report(True, True, True)
    records = [record(f"t{i}", "Pass", 100.0, full) for i in range(164)]
    counts = predicate_counts(records)
    assert counts == {"private_constructor": 164, "instance_field": 164, "global_access_point": 164}


def test_predicate_counts_nothing_parses():
    records = [record(f"t{i}", "CompileError") for i in range(5)]
    counts = predicate_counts(records)
    assert counts == {"private_constructor": 0, "instance_field": 0, "global_access_point": 0}


def test_predicate_counts_mixed_fixture():
    reports = [
        make_report(True, False, True),
        make_report(False, False, False),
        make_report(True, True, True),
    ]
    records = [record(f"t{i}", "Pass", 0.0, rep) for i, rep in enumerate(reports)]
    counts = predicate_counts(records)
    assert counts == {"private_constructor": 2, "instance_field": 1, "global_access_point": 2}
