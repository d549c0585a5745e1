"""Structural Singleton conformance checks over a ClassModel.

Three predicates define conformance: every declared constructor is private
(and at least one exists), a private static field of the class's own type
holds the instance, and a public static method returning the class's own
type exposes it. The score for one class is the fulfilled fraction in
percent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .source_model import ClassModel

PRIVATE_CONSTRUCTOR_FAILURE = (
    "Private Constructor: the class must have at least one constructor "
    "and all constructors must be private."
)
INSTANCE_FIELD_FAILURE = (
    "Instance Field: the class must have a private static field of its own type."
)
GLOBAL_ACCESS_POINT_FAILURE = (
    "Global Access Point: the class must have a public static method "
    "returning its own type."
)

PREDICATE_NAMES = ("private_constructor", "instance_field", "global_access_point")
# the failure text of each predicate, in PREDICATE_NAMES order
_FAILURES = (PRIVATE_CONSTRUCTOR_FAILURE, INSTANCE_FIELD_FAILURE, GLOBAL_ACCESS_POINT_FAILURE)


@dataclass(frozen=True)
class PredicateReport:
    private_constructor: bool
    instance_field: bool
    global_access_point: bool
    failed_checks: tuple[str, ...]

    def is_singleton(self) -> bool:
        return all(getattr(self, name) for name in PREDICATE_NAMES)

    def fulfilled(self) -> int:
        return sum(getattr(self, name) for name in PREDICATE_NAMES)


def make_report(
    private_constructor: bool, instance_field: bool, global_access_point: bool
) -> PredicateReport:
    verdicts = (private_constructor, instance_field, global_access_point)
    failed = tuple(text for ok, text in zip(verdicts, _FAILURES) if not ok)
    return PredicateReport(*verdicts, failed)


def no_class_report() -> PredicateReport:
    """Report for text with no extractable class: every predicate fails."""
    return make_report(False, False, False)


def evaluate_predicates(model: ClassModel) -> PredicateReport:
    constructors = model.constructors()
    private_constructor = bool(constructors) and all(
        "private" in c.modifiers for c in constructors
    )
    instance_field = any(
        {"private", "static"} <= f.modifiers and f.declared_type == model.class_name
        for f in model.fields()
    )
    global_access_point = any(
        {"public", "static"} <= m.modifiers and m.declared_type == model.class_name
        for m in model.methods()
    )
    return make_report(private_constructor, instance_field, global_access_point)


def singleton_score(report: PredicateReport) -> float:
    """Percentage of fulfilled predicates: 100 only for full conformance."""
    return 100.0 * report.fulfilled() / len(PREDICATE_NAMES)
