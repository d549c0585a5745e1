"""singletonlab: guide LLMs toward Singleton-conforming Java and measure it.

The public surface mirrors the pipeline: parse source into class digests,
check conformance predicates, drive generation strategies against a model,
execute tests, and aggregate statistics into reports.
"""

from .dataset import Task, TaskSet, load_tasks
from .exec_harness import (
    OutcomeLabel,
    classify_compile_error,
    evaluate_functionality,
    mock_evaluate,
)
from .config import ModelSpec
from .gateway import ChatMessage, GatewayError, ScriptedModel, complete
from .guidance import (
    IterationRecord,
    RunRecord,
    Strategy,
    extract_code,
    feedback_prompt,
    initial_prompt,
    load_default_exemplars,
    run_task,
)
from .pattern_checker import (
    PredicateReport,
    corpus_score,
    evaluate_predicates,
    no_class_report,
    singleton_score,
)
from .source_model import (
    ClassModel,
    MemberModel,
    Token,
    parse_compilation_unit,
    select_primary_class,
    tokenize,
)
from .stats import (
    McNemarResult,
    PairedOutcomes,
    delta_pp,
    mcnemar,
    pair_outcomes,
    pass_at_1,
    predicate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "ChatMessage",
    "ClassModel",
    "GatewayError",
    "IterationRecord",
    "McNemarResult",
    "MemberModel",
    "ModelSpec",
    "OutcomeLabel",
    "PairedOutcomes",
    "PredicateReport",
    "RunRecord",
    "ScriptedModel",
    "Strategy",
    "Task",
    "TaskSet",
    "Token",
    "classify_compile_error",
    "complete",
    "corpus_score",
    "delta_pp",
    "evaluate_functionality",
    "evaluate_predicates",
    "extract_code",
    "feedback_prompt",
    "initial_prompt",
    "load_default_exemplars",
    "load_tasks",
    "mcnemar",
    "mock_evaluate",
    "no_class_report",
    "pair_outcomes",
    "parse_compilation_unit",
    "pass_at_1",
    "predicate_counts",
    "run_task",
    "select_primary_class",
    "singleton_score",
    "tokenize",
]
