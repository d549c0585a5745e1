from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singletonlab.pattern_checker import (
    GLOBAL_ACCESS_POINT_FAILURE,
    INSTANCE_FIELD_FAILURE,
    PRIVATE_CONSTRUCTOR_FAILURE,
    corpus_score,
    evaluate_predicates,
    make_report,
    no_class_report,
    singleton_score,
)
from singletonlab.source_model import (
    ClassModel,
    MemberModel,
    parse_compilation_unit,
)

FIG1_SINGLETON = """\
public class Engine {
    private static Engine instance;
    private double thrust;

    private Engine() {
    }

    public static Engine getInstance() {
        if (instance == null) {
            instance = new Engine();
        }
        return instance;
    }

    public double getThrust() {
        return thrust;
    }
}
"""

FIG1_PLAIN = """\
public class Engine {
    private double thrust;

    public Engine() {
    }

    public double getThrust() {
        return thrust;
    }
}
"""


def report_for(source: str):
    classes = parse_compilation_unit(source)
    assert classes
    return evaluate_predicates(classes[0])


def test_fig1_singleton_engine_fulfills_all_predicates():
    report = report_for(FIG1_SINGLETON)
    assert (report.private_constructor, report.instance_field, report.global_access_point) == (
        True,
        True,
        True,
    )
    assert report.failed_checks == ()
    assert report.is_singleton()


def test_fig1_plain_engine_fails_all_predicates():
    report = report_for(FIG1_PLAIN)
    assert (report.private_constructor, report.instance_field, report.global_access_point) == (
        False,
        False,
        False,
    )
    assert len(report.failed_checks) == 3


def test_non_static_holder_field_fails_instance_field():
    source = """\
    class Engine {
        private Engine instance;
        private Engine() {}
        public static Engine getInstance() { return new Engine(); }
    }
    """
    report = report_for(source)
    assert (report.private_constructor, report.instance_field, report.global_access_point) == (
        True,
        False,
        True,
    )


@pytest.mark.parametrize(
    "mods,expected",
    [
        (frozenset(), False),
        (frozenset({"private"}), False),
        (frozenset({"static"}), False),
        (frozenset({"private", "static"}), True),
        (frozenset({"public", "static"}), False),
        (frozenset({"public"}), False),
        (frozenset({"protected", "static"}), False),
        (frozenset({"private", "static", "final"}), True),
    ],
)
def test_holder_field_modifier_combinations(mods, expected):
    # enumerating the modifier space: only private+static qualifies
    model = ClassModel(
        "Engine",
        (
            MemberModel("constructor", "Engine", "", frozenset({"private"})),
            MemberModel("field", "instance", "Engine", mods),
            MemberModel("method", "getInstance", "Engine", frozenset({"public", "static"})),
        ),
    )
    assert evaluate_predicates(model).instance_field is expected


def test_zero_constructors_fail_private_constructor():
    source = "class A { private static A instance; public static A getInstance() { return instance; } }"
    assert report_for(source).private_constructor is False


def test_protected_constructor_fails():
    source = "class A { protected A() {} }"
    assert report_for(source).private_constructor is False


def test_multiple_private_constructors_pass():
    source = "class A { private A() {} private A(int x) {} }"
    assert report_for(source).private_constructor is True


def test_mixed_constructors_fail():
    source = "class A { private A() {} public A(int x) {} }"
    assert report_for(source).private_constructor is False


def test_accessor_name_is_not_constrained():
    source = """\
    class A {
        private static A holder;
        private A() {}
        public static A current() { return holder; }
    }
    """
    assert report_for(source).global_access_point is True


def test_failure_strings_are_fixed_and_ordered():
    report = no_class_report()
    assert report.failed_checks == (
        PRIVATE_CONSTRUCTOR_FAILURE,
        INSTANCE_FIELD_FAILURE,
        GLOBAL_ACCESS_POINT_FAILURE,
    )
    assert PRIVATE_CONSTRUCTOR_FAILURE == (
        "Private Constructor: the class must have at least one constructor "
        "and all constructors must be private."
    )
    assert INSTANCE_FIELD_FAILURE == (
        "Instance Field: the class must have a private static field of its own type."
    )
    assert GLOBAL_ACCESS_POINT_FAILURE == (
        "Global Access Point: the class must have a public static method "
        "returning its own type."
    )


def test_failed_checks_count_matches_false_predicates():
    for pc, inst, gap in itertools.product((False, True), repeat=3):
        report = make_report(pc, inst, gap)
        assert len(report.failed_checks) == 3 - report.fulfilled()
        failures = (PRIVATE_CONSTRUCTOR_FAILURE, INSTANCE_FIELD_FAILURE, GLOBAL_ACCESS_POINT_FAILURE)
        assert report.failed_checks == tuple(
            text for ok, text in zip((pc, inst, gap), failures) if not ok
        )


# --- scores ----------------------------------------------------------------


def test_score_trivial_points():
    assert singleton_score(make_report(True, True, True)) == 100.0
    assert singleton_score(make_report(False, False, False)) == 0.0
    assert singleton_score(make_report(True, False, True)) == pytest.approx(200 / 3)


def test_corpus_score_means():
    full = make_report(True, True, True)
    none = make_report(False, False, False)
    two_thirds = make_report(True, False, True)
    assert corpus_score([full, full, full]) == 100.0
    assert corpus_score([full, none]) == 50.0
    # 163 perfect plus one at 66.67: frozen against direct arithmetic mean
    scores = [full] * 163 + [two_thirds]
    expected = (163 * 100.0 + 200 / 3) / 164
    assert corpus_score(scores) == pytest.approx(expected, abs=1e-12)
    assert corpus_score(scores) == pytest.approx(99.797, abs=5e-4)


def test_corpus_score_empty_errors():
    with pytest.raises(ValueError, match="no instances to average"):
        corpus_score([])


def test_no_class_report_scores_zero():
    assert singleton_score(no_class_report()) == 0.0


# --- properties ------------------------------------------------------------

MEMBER_STRATEGY = st.lists(
    st.sampled_from(
        [
            MemberModel("field", "extra", "int", frozenset({"private"})),
            MemberModel("field", "other", "Engine", frozenset({"public"})),
            MemberModel("method", "helper", "void", frozenset({"public"})),
            MemberModel("method", "make", "Engine", frozenset({"private", "static"})),
            MemberModel("field", "holder", "Engine", frozenset({"private", "static"})),
            MemberModel("method", "of", "Engine", frozenset({"public", "static"})),
        ]
    ),
    max_size=4,
)


@given(extra=MEMBER_STRATEGY)
def test_existential_predicates_are_monotone_under_added_members(extra):
    base_members = (
        MemberModel("constructor", "Engine", "", frozenset({"private"})),
        MemberModel("field", "instance", "Engine", frozenset({"private", "static"})),
        MemberModel("method", "getInstance", "Engine", frozenset({"public", "static"})),
    )
    base = ClassModel("Engine", base_members)
    grown = ClassModel("Engine", base_members + tuple(extra))
    before = evaluate_predicates(base)
    after = evaluate_predicates(grown)
    # instance_field and global_access_point are existential: adding members
    # can only keep them true (private_constructor can flip if a non-private
    # constructor is added, so it is deliberately not asserted here)
    assert after.instance_field >= before.instance_field
    assert after.global_access_point >= before.global_access_point


@given(name=st.sampled_from(["Engine", "Cache", "Store", "X9", "A_b"]))
def test_consistent_rename_preserves_report(name):
    template = """\
    class {n} {{
        private static {n} instance;
        private {n}() {{}}
        public static {n} getInstance() {{ return instance; }}
        public int unrelated() {{ return 0; }}
    }}
    """
    base = report_for(template.format(n="Engine"))
    renamed = report_for(template.format(n=name))
    assert base == renamed
