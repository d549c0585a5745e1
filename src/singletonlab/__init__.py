"""singletonlab: guide LLMs toward Singleton-conforming Java and measure it.

The package exports the README's Library names and the types their
signatures take or return. Everything else is imported from its module:
`singletonlab.stats`, `singletonlab.reporting`, `singletonlab.store` and
so on.
"""

from .config import ModelSpec
from .dataset import Task
from .gateway import ScriptedModel
from .guidance import RunRecord, Strategy, run_task
from .pattern_checker import PredicateReport, evaluate_predicates, singleton_score
from .source_model import ClassModel, parse_compilation_unit, select_primary_class

__version__ = "0.1.0"

__all__ = [
    "ClassModel",
    "ModelSpec",
    "PredicateReport",
    "RunRecord",
    "ScriptedModel",
    "Strategy",
    "Task",
    "evaluate_predicates",
    "parse_compilation_unit",
    "run_task",
    "select_primary_class",
    "singleton_score",
]
