from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singletonlab.dataset import Task
from singletonlab.gateway import ScriptedModel
from singletonlab.guidance import (
    BINARY_FEEDBACK_TEMPLATE,
    EXEMPLAR_HEADER,
    INSTRUCT_FEEDBACK_TEMPLATE,
    INSTRUCT_TASK_TEMPLATE,
    PREDICATE_FEEDBACK_TEMPLATE,
    ROLE_PROMPT,
    STRATEGY_KINDS,
    Strategy,
    extract_code,
    feedback_prompt,
    initial_prompt,
    load_default_exemplars,
    run_task,
    verify_exemplars,
)
from singletonlab.pattern_checker import (
    GLOBAL_ACCESS_POINT_FAILURE,
    INSTANCE_FIELD_FAILURE,
    PRIVATE_CONSTRUCTOR_FAILURE,
    make_report,
)

TASK = Task(
    task_id="Java/0",
    description="Sum two integers.\n\nclass Solution {\n    public int add(int a, int b) {\n",
    declaration="class Solution {\n    public int add(int a, int b) {\n",
    expected_class_name="Solution",
    test_code="public class Main { public static void main(String[] a) {} }",
)

PLAIN = "class Solution {\n    public int add(int a, int b) {\n        return a + b;\n    }\n}"
CONFORMING = (
    "class Solution {\n"
    "    private static Solution instance;\n"
    "    private Solution() {}\n"
    "    public static Solution getInstance() {\n"
    "        if (instance == null) { instance = new Solution(); }\n"
    "        return instance;\n"
    "    }\n"
    "    public int add(int a, int b) { return a + b; }\n"
    "}"
)

EXEMPLARS = ("class Ex1 { private Ex1(){} private static Ex1 i; public static Ex1 getInstance(){return i;} }",
             "class Ex2 { private Ex2(){} private static Ex2 i; public static Ex2 getInstance(){return i;} }")


def fenced(code: str) -> str:
    return f"```java\n{code}\n```"


# --- verbatim prompt templates ----------------------------------------------


def test_role_prompt_is_verbatim():
    assert ROLE_PROMPT == (
        "You are a Java programmer. You respond with the code in Java to "
        "solve the task. No comments or explanations"
    )


def test_baseline_initial_prompt_is_task_description_only():
    messages = initial_prompt(Strategy("baseline"), TASK)
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[0].content == ROLE_PROMPT
    assert messages[1].content == TASK.description


def test_instruct_initial_prompt_golden():
    messages = initial_prompt(Strategy("instruct"), TASK)
    assert messages[1].content == (
        "The primary class in the following task should follow the singleton "
        "design pattern." + TASK.description
    )


@pytest.mark.parametrize("kind", ["instruct", "binary_feedback", "predicate_feedback"])
def test_non_fewshot_strategies_share_the_instruct_opening(kind):
    messages = initial_prompt(Strategy(kind), TASK)
    assert messages[1].content == INSTRUCT_TASK_TEMPLATE.format(task=TASK.description)


def test_fewshot_initial_prompt_appends_both_exemplars():
    strategy = Strategy("fewshot_feedback", exemplars=EXEMPLARS)
    content = initial_prompt(strategy, TASK)[1].content
    expected = (
        INSTRUCT_TASK_TEMPLATE.format(task=TASK.description)
        + "\n\n"
        + EXEMPLAR_HEADER
        + "\n"
        + EXEMPLARS[0]
        + "\n\n"
        + EXEMPLARS[1]
    )
    assert content == expected


def test_instruct_feedback_golden():
    message = feedback_prompt(Strategy("instruct"), "C", make_report(False, False, False))
    assert message.content == (
        "Make sure that the primary class in the following code follows the "
        "singleton design pattern. C"
    )


def test_binary_feedback_golden():
    message = feedback_prompt(
        Strategy("binary_feedback"), "C", make_report(False, False, False)
    )
    assert message.content == (
        "The following code does not include a correctly formatted Singleton "
        "class: C. Please correct the code and return the complete code."
    )


def test_predicate_feedback_golden_single_failure():
    report = make_report(True, False, True)
    message = feedback_prompt(Strategy("predicate_feedback"), "C", report)
    assert message.content == (
        "The following code does not include a correctly formatted Singleton "
        "class: C. It failed the following checks "
        + INSTANCE_FIELD_FAILURE
        + ". Please correct the code and return the complete code"
    )


def test_predicate_feedback_joins_failures_in_predicate_order():
    report = make_report(False, False, False)
    message = feedback_prompt(Strategy("predicate_feedback"), "C", report)
    errors = "; ".join(
        [PRIVATE_CONSTRUCTOR_FAILURE, INSTANCE_FIELD_FAILURE, GLOBAL_ACCESS_POINT_FAILURE]
    )
    assert message.content == PREDICATE_FEEDBACK_TEMPLATE.format(candidate="C", errors=errors)


def test_fewshot_feedback_reappends_exemplars():
    strategy = Strategy("fewshot_feedback", exemplars=EXEMPLARS)
    report = make_report(True, True, False)
    message = feedback_prompt(strategy, "C", report)
    expected = (
        PREDICATE_FEEDBACK_TEMPLATE.format(candidate="C", errors=GLOBAL_ACCESS_POINT_FAILURE)
        + "\n\n"
        + EXEMPLAR_HEADER
        + "\n"
        + EXEMPLARS[0]
        + "\n\n"
        + EXEMPLARS[1]
    )
    assert message.content == expected


def test_feedback_on_conforming_report_is_a_programming_error():
    with pytest.raises(ValueError, match="conforming"):
        feedback_prompt(Strategy("binary_feedback"), "C", make_report(True, True, True))


def test_feedback_for_baseline_is_a_programming_error():
    with pytest.raises(ValueError, match="baseline"):
        feedback_prompt(Strategy("baseline"), "C", make_report(False, False, False))


# --- Strategy validation ------------------------------------------------------


def test_baseline_forces_single_iteration():
    assert Strategy("baseline", max_iterations=10).max_iterations == 1


def test_fewshot_requires_exactly_two_exemplars():
    with pytest.raises(ValueError, match="exactly 2"):
        Strategy("fewshot_feedback", exemplars=("one",))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown strategy kind"):
        Strategy("zero_shot")


@pytest.mark.parametrize("max_iterations", [2.5, "2"], ids=["float", "string"])
def test_max_iterations_must_be_an_integer(max_iterations):
    # run_task would fail later, in range(), on the first feedback round
    with pytest.raises(ValueError, match="strategy 'instruct': max_iterations must be an integer"):
        Strategy("instruct", max_iterations=max_iterations)


def test_shipped_exemplars_conform():
    first, second = load_default_exemplars()
    assert "getInstance" in first and "getInstance" in second
    verify_exemplars((first, second))


def test_nonconforming_exemplars_rejected():
    with pytest.raises(ValueError, match="not a conforming Singleton"):
        verify_exemplars(("class X { public X(){} }", EXEMPLARS[1]))


# --- extract_code --------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        pytest.param("```java\nclass A {}\n```", "class A {}", id="single-fence"),
        pytest.param(
            "Here is the code: ```\nclass A {}\n``` and a note ```\nclass Longer { int x; }\n```",
            "class Longer { int x; }",
            id="longest-block",
        ),
        pytest.param("class A {}", "class A {}", id="no-fence-is-identity"),
        pytest.param("```JAVA\nclass A {}\n```", "class A {}", id="language-tag-ignored"),
        pytest.param("```\nclass A {}\n```", "class A {}", id="no-language-tag"),
        pytest.param("```java\nclass A {}", "```java\nclass A {}", id="unclosed-fence-is-whole-reply"),
        pytest.param("Here: ```class A {}``` done", "class A {}", id="single-line-fence"),
        pytest.param(
            "```java\nclass A {}\n```\nthen ```java\nclass Longer { int x; }\n",
            "class A {}",
            id="closed-then-unclosed",
        ),
        pytest.param(
            "```java\nclass A {}\n```\n```java\nclass B {}\n```", "class A {}", id="tie-first-wins"
        ),
        pytest.param("```java\nclass A {}\n\n```", "class A {}\n", id="one-newline-stripped"),
        pytest.param("````java\nclass A {}\n````", "class A {}", id="four-backticks"),
        pytest.param("``````", "", id="empty-block"),
        pytest.param("```java\n```", "", id="tag-only-block"),
        pytest.param(
            "Intro.\n```java\nclass A {}\n```\nBetween.\n```\nclass Bb {}\n```\nAfter.",
            "class Bb {}",
            id="text-around-fences",
        ),
    ],
)
def test_extract_code_cases(raw, expected):
    assert extract_code(raw) == expected


@given(raw=st.text(max_size=300))
def test_extract_code_is_total(raw):
    assert isinstance(extract_code(raw), str)


# --- run_task loop --------------------------------------------------------------


def run_with(script: list[str], kind: str, max_iterations: int = 10, **kwargs):
    exemplars = EXEMPLARS if kind == "fewshot_feedback" else ()
    strategy = Strategy(kind, max_iterations=max_iterations, exemplars=exemplars)
    model = ScriptedModel(script)
    return run_task(model, strategy, TASK, retries=0, backoff_s=0.01, **kwargs)


def test_immediate_conformance_single_iteration():
    record = run_with([fenced(CONFORMING)], "binary_feedback")
    assert len(record.iterations) == 1
    assert record.selected_iteration == 1
    assert record.singleton_score == 100.0
    assert record.selected_candidate == CONFORMING


def test_feedback_message_between_iterations_matches_template():
    record = run_with([fenced(PLAIN), fenced(CONFORMING)], "binary_feedback")
    assert len(record.iterations) == 2
    assert record.selected_iteration == 2
    assert record.iterations[1].prompt_sent == BINARY_FEEDBACK_TEMPLATE.format(
        candidate=PLAIN
    )


def test_ten_nonconforming_iterations_select_the_last():
    responses = [fenced(PLAIN)] * 12  # more than the cap; loop must stop at 10
    record = run_with(responses, "predicate_feedback")
    assert len(record.iterations) == 10
    assert record.selected_iteration == 10
    assert record.selected_candidate == PLAIN
    assert record.singleton_score < 100.0


@pytest.mark.parametrize("k", [1, 5, 10])
def test_early_stop_at_first_conforming_iteration(k):
    responses = [fenced(PLAIN)] * (k - 1) + [fenced(CONFORMING)] + [fenced(PLAIN)] * 3
    record = run_with(responses, "binary_feedback")
    assert len(record.iterations) == k
    assert record.selected_iteration == k
    assert record.iterations[-1].conforming
    assert all(not it.conforming for it in record.iterations[:-1])


def test_baseline_is_one_shot_even_when_nonconforming():
    record = run_with([fenced(PLAIN), fenced(CONFORMING)], "baseline")
    assert len(record.iterations) == 1
    assert record.selected_iteration == 1
    assert record.singleton_score == 0.0


def test_baseline_transcript_contains_no_harness_singleton_text():
    record = run_with([fenced(PLAIN)], "baseline")
    for iteration in record.iterations:
        assert "singleton" not in iteration.prompt_sent.lower()
    assert "singleton" not in TASK.description.lower()


def test_gateway_abort_records_outcome():
    record = run_with([fenced(PLAIN)], "binary_feedback")  # script exhausts at iter 2
    assert record.functional_outcome is not None
    assert record.functional_outcome.kind == "Aborted"
    assert "script exhausted" in record.functional_outcome.detail
    assert record.selected_iteration == 1  # last candidate kept


def test_abort_with_no_iterations_yields_empty_selection():
    record = run_with([], "binary_feedback")
    assert record.iterations == []
    assert record.selected_candidate == ""
    assert record.selected_iteration == 0
    assert record.singleton_score == 0.0
    assert record.functional_outcome.kind == "Aborted"


def test_conforming_iff_report_is_singleton():
    record = run_with([fenced(PLAIN), fenced(CONFORMING)], "predicate_feedback")
    for iteration in record.iterations:
        assert iteration.conforming == iteration.predicate_report.is_singleton()


def test_run_records_are_deterministic_except_wall_time():
    first = run_with([fenced(PLAIN), fenced(CONFORMING)], "predicate_feedback")
    second = run_with([fenced(PLAIN), fenced(CONFORMING)], "predicate_feedback")
    first.wall_time_ms = second.wall_time_ms = 0
    assert first == second


def test_config_digest_is_recorded():
    record = run_with([fenced(CONFORMING)], "instruct", config_digest="abc123")
    assert record.config_digest == "abc123"


# --- prompt fidelity: transcripts re-render from templates ---------------------


@given(
    kind=st.sampled_from([k for k in STRATEGY_KINDS if k != "baseline"]),
    conforming_at=st.integers(min_value=1, max_value=4),
)
def test_prompt_fidelity_rerenders_transcript(kind, conforming_at):
    responses = [fenced(PLAIN)] * (conforming_at - 1) + [fenced(CONFORMING)]
    record = run_with(responses, kind, max_iterations=6)
    exemplars = EXEMPLARS if kind == "fewshot_feedback" else ()
    block = "\n\n" + EXEMPLAR_HEADER + "\n" + "\n\n".join(exemplars) if exemplars else ""

    expected_first = INSTRUCT_TASK_TEMPLATE.format(task=TASK.description) + block
    assert record.iterations[0].prompt_sent == expected_first

    for iteration in record.iterations[1:]:
        previous_code = record.iterations[iteration.index - 2].extracted_code
        previous_report = record.iterations[iteration.index - 2].predicate_report
        if kind == "instruct":
            expected = INSTRUCT_FEEDBACK_TEMPLATE.format(candidate=previous_code)
        elif kind == "binary_feedback":
            expected = BINARY_FEEDBACK_TEMPLATE.format(candidate=previous_code)
        else:
            errors = "; ".join(previous_report.failed_checks)
            expected = PREDICATE_FEEDBACK_TEMPLATE.format(
                candidate=previous_code, errors=errors
            )
            if kind == "fewshot_feedback":
                expected += block
        assert iteration.prompt_sent == expected
