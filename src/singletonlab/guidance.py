"""The five generation protocols: baseline plus four guiding strategies.

Each protocol is an iterative loop per (model, strategy, task): compose
prompt, get a candidate, extract code, check the Singleton predicates,
feed back on nonconformance, stop at the first conforming candidate or at
the iteration cap. Prompt text is fixed template + substitution, nothing
else; transcripts must re-render byte-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .dataset import Task
from .exec_harness import OutcomeLabel, ABORTED
from .gateway import ChatMessage, GatewayError, ScriptedModel, complete
from .pattern_checker import (
    PredicateReport,
    evaluate_predicates,
    no_class_report,
    singleton_score,
)
from .source_model import parse_compilation_unit, select_primary_class

if TYPE_CHECKING:
    from .config import ModelSpec

ROLE_PROMPT = (
    "You are a Java programmer. You respond with the code in Java to solve "
    "the task. No comments or explanations"
)
INSTRUCT_TASK_TEMPLATE = (
    "The primary class in the following task should follow the singleton "
    "design pattern.{task}"
)
INSTRUCT_FEEDBACK_TEMPLATE = (
    "Make sure that the primary class in the following code follows the "
    "singleton design pattern. {candidate}"
)
BINARY_FEEDBACK_TEMPLATE = (
    "The following code does not include a correctly formatted Singleton "
    "class: {candidate}. Please correct the code and return the complete code."
)
PREDICATE_FEEDBACK_TEMPLATE = (
    "The following code does not include a correctly formatted Singleton "
    "class: {candidate}. It failed the following checks {errors}. "
    "Please correct the code and return the complete code"
)
EXEMPLAR_HEADER = "Examples of correctly implemented Singleton classes:"

BASELINE = "baseline"
INSTRUCT = "instruct"
BINARY_FEEDBACK = "binary_feedback"
PREDICATE_FEEDBACK = "predicate_feedback"
FEWSHOT_FEEDBACK = "fewshot_feedback"


class Protocol(NamedTuple):
    """What a strategy sends: the first user turn ({task}), each feedback
    turn ({candidate}, {errors}; None for one attempt, no feedback), and
    whether the two exemplars follow both."""

    task: str
    feedback: str | None
    exemplars: bool = False


PROTOCOLS = {
    BASELINE: Protocol("{task}", None),
    INSTRUCT: Protocol(INSTRUCT_TASK_TEMPLATE, INSTRUCT_FEEDBACK_TEMPLATE),
    BINARY_FEEDBACK: Protocol(INSTRUCT_TASK_TEMPLATE, BINARY_FEEDBACK_TEMPLATE),
    PREDICATE_FEEDBACK: Protocol(INSTRUCT_TASK_TEMPLATE, PREDICATE_FEEDBACK_TEMPLATE),
    FEWSHOT_FEEDBACK: Protocol(INSTRUCT_TASK_TEMPLATE, PREDICATE_FEEDBACK_TEMPLATE, True),
}
STRATEGY_KINDS = tuple(PROTOCOLS)

_EXEMPLAR_FILES = ("AppConfig.java", "ConnectionPool.java")


@dataclass(frozen=True)
class Strategy:
    kind: str
    max_iterations: int = 10
    exemplars: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r} (known: {', '.join(STRATEGY_KINDS)})")
        name = f"strategy {self.kind!r}: max_iterations"
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, int):
            raise ValueError(f"{name} must be an integer")
        if self.max_iterations < 1:
            raise ValueError(f"{name} must be >= 1")
        protocol = PROTOCOLS[self.kind]
        if protocol.feedback is None:
            object.__setattr__(self, "max_iterations", 1)
        if protocol.exemplars and len(self.exemplars) != 2:
            raise ValueError(f"{self.kind} requires exactly 2 exemplars")


@dataclass
class IterationRecord:
    index: int  # 1-based
    prompt_sent: str
    raw_response: str
    extracted_code: str
    predicate_report: PredicateReport
    conforming: bool


@dataclass
class RunRecord:
    model_id: str
    strategy_kind: str
    task_id: str
    iterations: list[IterationRecord] = field(default_factory=list)
    selected_candidate: str = ""
    selected_iteration: int = 0
    singleton_score: float = 0.0
    functional_outcome: OutcomeLabel | None = None
    wall_time_ms: int = 0
    config_digest: str = ""


def load_default_exemplars() -> tuple[str, str]:
    """The two shipped Singleton examples (eager and lazy), checker-verified."""
    texts = []
    for name in _EXEMPLAR_FILES:
        text = (
            resources.files("singletonlab").joinpath("exemplars", name).read_text("utf-8")
        )
        texts.append(text.rstrip("\n"))
    return verify_exemplars(tuple(texts))


def verify_exemplars(exemplars: tuple[str, str]) -> tuple[str, str]:
    for source in exemplars:
        report = assess_candidate(source, None)
        if not report.is_singleton():
            raise ValueError(
                f"exemplar is not a conforming Singleton: {report.failed_checks}"
            )
    return exemplars


def assess_candidate(code: str, expected_class_name: str | None) -> PredicateReport:
    """Parse a candidate, pick its primary class, run the predicate checks."""
    primary = select_primary_class(parse_compilation_unit(code), expected_class_name or None)
    return evaluate_predicates(primary) if primary is not None else no_class_report()


def _exemplar_block(exemplars: tuple[str, ...]) -> str:
    return EXEMPLAR_HEADER + "\n" + "\n\n".join(exemplars)


def initial_prompt(strategy: Strategy, task: Task) -> list[ChatMessage]:
    protocol = PROTOCOLS[strategy.kind]
    text = protocol.task.format(task=task.description)
    if protocol.exemplars:
        text = text + "\n\n" + _exemplar_block(strategy.exemplars)
    return [ChatMessage("system", ROLE_PROMPT), ChatMessage("user", text)]


def extract_code(raw_response: str) -> str:
    """Interior of the longest fenced code block (the first on ties), else the
    response unchanged. The odd pieces between fences are interiors, bar a last one
    no fence closes; each drops the text up to its first newline (the language tag),
    then one trailing newline."""
    blocks = [
        piece[piece.find("\n") + 1 :].removesuffix("\n")  # find is -1 without a newline
        for piece in raw_response.split("```")[1:-1:2]
    ]
    return max(blocks, key=len) if blocks else raw_response


def feedback_prompt(
    strategy: Strategy, candidate: str, report: PredicateReport
) -> ChatMessage:
    if report.is_singleton():
        raise ValueError("feedback requested for a conforming candidate")
    protocol = PROTOCOLS[strategy.kind]
    if protocol.feedback is None:
        raise ValueError(f"{strategy.kind} sends no feedback")
    text = protocol.feedback.format(candidate=candidate, errors="; ".join(report.failed_checks))
    if protocol.exemplars:
        text = text + "\n\n" + _exemplar_block(strategy.exemplars)
    return ChatMessage("user", text)


def run_task(
    model: ModelSpec | ScriptedModel,
    strategy: Strategy,
    task: Task,
    *,
    retries: int = 3,
    backoff_s: float = 1.0,
    config_digest: str = "",
) -> RunRecord:
    """Drive one (model, strategy, task) loop to completion.

    Gateway failures after retries abort the run: the record keeps the
    iterations seen so far and carries an Aborted outcome.
    """
    started = time.monotonic()
    model_id = model.model_id
    record = RunRecord(model_id, strategy.kind, task.task_id, config_digest=config_digest)
    history = initial_prompt(strategy, task)
    abort_detail: str | None = None

    for index in range(1, strategy.max_iterations + 1):
        try:
            reply = complete(model, history, retries=retries, backoff_s=backoff_s)
        except GatewayError as exc:
            abort_detail = str(exc)
            break
        code = extract_code(reply.content)
        report = assess_candidate(code, task.expected_class_name)
        conforming = report.is_singleton()
        record.iterations.append(
            IterationRecord(index, history[-1].content, reply.content, code, report, conforming)
        )
        history.append(reply)
        if conforming or index == strategy.max_iterations:
            break
        history.append(feedback_prompt(strategy, code, report))

    # the loop stops at the first conforming candidate: the last one is selected
    if record.iterations:
        selected = record.iterations[-1]
        record.selected_candidate = selected.extracted_code
        record.selected_iteration = selected.index
        record.singleton_score = singleton_score(selected.predicate_report)
    if abort_detail is not None:
        record.functional_outcome = OutcomeLabel(ABORTED, abort_detail)
    record.wall_time_ms = int((time.monotonic() - started) * 1000)
    return record
