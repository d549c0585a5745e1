from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_model as model
from singletonlab import source_model
from singletonlab.source_model import (
    ClassModel,
    parse_compilation_unit,
    select_primary_class,
    tokenize,
)

ENGINE_SINGLETON = """\
public class Engine {
    private Engine() {
    }

    private static Engine instance;

    public static Engine getInstance() {
        if (instance == null) {
            instance = new Engine();
        }
        return instance;
    }
}
"""


def members_of(source: str) -> list[tuple[str, str, str, frozenset]]:
    classes = parse_compilation_unit(source)
    assert len(classes) == 1
    return [
        (m.member_kind, m.name, m.declared_type, m.modifiers)
        for m in classes[0].members
    ]


def test_engine_singleton_members():
    classes = parse_compilation_unit(ENGINE_SINGLETON)
    assert len(classes) == 1
    model = classes[0]
    assert model.class_name == "Engine"
    kinds = [(m.member_kind, m.declared_type, m.modifiers) for m in model.members]
    assert kinds == [
        ("constructor", "", frozenset({"private"})),
        ("field", "Engine", frozenset({"private", "static"})),
        ("method", "Engine", frozenset({"public", "static"})),
    ]


# What the checker reads in fragment soup; javac rejects all but the comment
# decoy and the volatile constructor.
SOUP = [
    pytest.param("class A<T { int x; } class B { B() {} }", [], id="unclosed-type-parameters"),
    pytest.param(
        'class A { void f() { String s = "unterminated\n} } class B { private B() {} }',
        [model("A", ("method", "f", "void", ())), model("B", ("constructor", "B", "", {"private"}))],
        id="string-cut-by-a-newline",
    ),
    pytest.param('class A { int x = """ { ; } class B {', [model("A", ("field", "x", "int", ()))],
                 id="unterminated-text-block"),
    pytest.param("class A { /* } class B { */ private A() {} }",
                 [model("A", ("constructor", "A", "", {"private"}))], id="class-in-a-comment"),
    pytest.param("class A { char c = '\\'; } class B {}", [model("A", ("field", "c", "char", ()))],
                 id="char-literal-cut-by-its-escape"),
    pytest.param("class ²A { } class ½B { ፩x y; } class C { int　z; }", [model("C", ("field", "z", "int", ()))],
                 id="numerals-that-are-no-letters"),
    pytest.param(
        "class A { int x = new int[] {1} } class B { private B() {} }",
        [model("A", ("field", "x", "int", ())), model("B", ("constructor", "B", "", {"private"}))],
        id="initializer-without-semicolon",
    ),
    pytest.param(
        "class A { void f() throws X } class B { private B() {} }",
        [model("A", ("method", "f", "void", ())), model("B", ("constructor", "B", "", {"private"}))],
        id="throws-without-body",
    ),
    pytest.param("x.class Foo { } } } class . class Bar { int a = 1) ; int b; }", [], id="class-after-a-dot"),
    # generic headers: a type-parameter section, closed or not, adds nothing to the type
    pytest.param(
        "class A { <T> T f() { return null; } public static <T extends Comparable<T>> A[] g(); <T A() {} }",
        [model("A", ("method", "f", "T", ()), ("method", "g", "A[]", {"public", "static"}),
               ("constructor", "A", "", ()))],
        id="type-parameters",
    ),
    pytest.param("class A { <T>> T h(); <<T> X> List<T> k(); }",
                 [model("A", ("method", "h", "T", ()), ("method", "k", "List", ()))], id="unbalanced-angles"),
    # annotation arguments followed by parentheses
    pytest.param("class A { @B(2) @A(1) (q) int z; }", [model("A")], id="parentheses-after-annotations"),
    pytest.param("class A { @A(1)(2) int z; }", [model("A")], id="parentheses-after-annotation-arguments"),
    # one modifier filter for fields and callables
    pytest.param("class A { default x; }", [model("A")], id="default-field-without-type"),
    pytest.param("class A { volatile A() {} }", [model("A", ("constructor", "A", "", ()))],
                 id="volatile-constructor"),
]


@pytest.mark.parametrize("text, expected", SOUP)
def test_fragment_soup_parses_as_pinned(text, expected):
    assert parse_compilation_unit(text) == expected


def test_empty_input_yields_no_classes():
    assert parse_compilation_unit("") == []


def test_nested_class_members_are_excluded():
    source = "class A { class B { B(){} } A(){} }"
    classes = parse_compilation_unit(source)
    assert len(classes) == 1
    model = classes[0]
    assert model.class_name == "A"
    constructors = model.constructors()
    assert len(constructors) == 1
    assert constructors[0].name == "A"
    assert len(model.members) == 1


def test_token_offsets_strictly_increase():
    tokens = tokenize(ENGINE_SINGLETON)
    offsets = [t.offset for t in tokens]
    assert offsets == sorted(set(offsets))


def test_comment_text_never_tokenizes_as_code():
    tokens = tokenize("int a; // private int b;\n/* class C */ int d;")
    texts = [t.text for t in tokens if t.kind in ("identifier", "keyword")]
    assert texts == ["int", "a", "int", "d"]


def test_string_contents_are_one_literal_token():
    tokens = tokenize('String s = "private Engine() {}";')
    literals = [t for t in tokens if t.kind == "literal"]
    assert literals[0].text == '"private Engine() {}"'
    assert all(t.text != "Engine" for t in tokens if t.kind == "identifier")


def test_string_contents_contribute_no_members():
    source = 'class D { public D() { String s = "private Engine() {}"; } }'
    assert members_of(source) == [("constructor", "D", "", frozenset({"public"}))]


def test_roundtrip_stability():
    first = parse_compilation_unit(ENGINE_SINGLETON)
    second = parse_compilation_unit(ENGINE_SINGLETON)
    assert first == second


def test_the_parse_memo_is_bounded_and_every_call_gets_its_own_list():
    for i in range(1100):
        parse_compilation_unit(f"class Bound{i} {{ private Bound{i}() {{}} }}")
    assert source_model._parse.cache_info().currsize == 1024
    first = parse_compilation_unit(ENGINE_SINGLETON)
    expected = list(first)
    first.clear()
    again = parse_compilation_unit(ENGINE_SINGLETON)
    assert again == expected and again is not first
    # equal modifier sets are one shared object across parses
    assert again[0].constructors()[0].modifiers is members_of("class P { private P() {} }")[0][3]


def test_generics_reduce_to_simple_type():
    source = "class E { private static Optional<E> instance; }"
    assert members_of(source) == [
        ("field", "instance", "Optional", frozenset({"private", "static"}))
    ]


def test_varargs_lex_as_three_dots_and_leave_member_types_alone():
    # no token reads "...", so _simple_type has no varargs case to skip
    texts = [t.text for t in tokenize("void f(int... a)")]
    assert texts == ["void", "f", "(", "int", ".", ".", ".", "a", ")"]
    source = "class V { void f(int... a) {} public static V of(Object... parts) { return null; } }"
    assert members_of(source) == [
        ("method", "f", "void", frozenset()),
        ("method", "of", "V", frozenset({"public", "static"})),
    ]


def test_qualified_type_reduces_to_simple_name():
    source = "class F { private static com.example.F instance; }"
    assert members_of(source) == [
        ("field", "instance", "F", frozenset({"private", "static"}))
    ]


def test_annotations_are_ignored():
    source = (
        "@Deprecated public class G {"
        ' @SuppressWarnings("x") private G() {}'
        " @Override public static G getInstance() { return null; }"
        " }"
    )
    assert members_of(source) == [
        ("constructor", "G", "", frozenset({"private"})),
        ("method", "getInstance", "G", frozenset({"public", "static"})),
    ]


def test_record_interface_enum_are_not_classes():
    source = "record Point(int x) {}\ninterface I { void f(); }\nenum E { A }"
    assert parse_compilation_unit(source) == []


def test_class_keyword_as_literal_suffix_is_not_a_declaration():
    source = "class H { private H() { Object o = H.class; } }"
    classes = parse_compilation_unit(source)
    assert [c.class_name for c in classes] == ["H"]


def test_anonymous_class_in_initializer_is_skipped():
    source = "class J { private static J instance = new J() { public void x() {} }; }"
    assert members_of(source) == [
        ("field", "instance", "J", frozenset({"private", "static"}))
    ]


def test_prose_yields_empty_list():
    result = parse_compilation_unit("The class should be private and static, as described.")
    assert result == []


def test_unterminated_body_is_best_effort():
    classes = parse_compilation_unit("class R { private R() {}")
    assert len(classes) == 1
    assert classes[0].constructors()[0].modifiers == frozenset({"private"})


def test_multiple_top_level_classes_in_source_order():
    source = "class One {}\nclass Two {}\nclass Three {}"
    names = [c.class_name for c in parse_compilation_unit(source)]
    assert names == ["One", "Two", "Three"]


def test_select_primary_by_expected_name():
    classes = parse_compilation_unit("class Helper {} class Solution {}")
    assert select_primary_class(classes, "Solution").class_name == "Solution"


def test_select_primary_falls_back_to_first():
    classes = parse_compilation_unit("class Helper {} class Solution {}")
    assert select_primary_class(classes, None).class_name == "Helper"
    assert select_primary_class(classes, "Absent").class_name == "Helper"


def test_select_primary_empty():
    assert select_primary_class([], "Solution") is None


# --- generated-source property tests -------------------------------------
#
# The generator assembles a class from a random member plan, so the expected
# depth-1 member set is known by construction; a brute-force brace counter
# over the token stream independently locates depth-1 declaration heads.

MEMBER_PLANS = st.lists(
    st.tuples(
        st.sampled_from(["field", "method", "constructor", "nested"]),
        st.sampled_from(["alpha", "beta", "gamma", "delta"]),
        st.sampled_from(["", "private", "public", "private static", "public static"]),
    ),
    min_size=0,
    max_size=6,
)


def render_class(name: str, plan) -> tuple[str, list[tuple[str, str]]]:
    lines = [f"class {name} {{"]
    expected: list[tuple[str, str]] = []
    used: set[str] = set()
    for kind, base, mods in plan:
        member_name = base
        suffix = 0
        while member_name in used:
            suffix += 1
            member_name = f"{base}{suffix}"
        used.add(member_name)
        prefix = mods + " " if mods else ""
        if kind == "field":
            lines.append(f"    {prefix}int {member_name};")
            expected.append(("field", member_name))
        elif kind == "method":
            lines.append(f"    {prefix}int {member_name}() {{ return 0; }}")
            expected.append(("method", member_name))
        elif kind == "constructor":
            lines.append(f"    {prefix}{name}() {{ int x = 1; }}")
            expected.append(("constructor", name))
            # a class can declare several constructors; keep them all
        else:  # nested class with decoy members that must not surface
            lines.append(
                f"    static class Nested{member_name} {{"
                f" private Nested{member_name}() {{}}"
                f" private static int hidden; }}"
            )
    lines.append("}")
    return "\n".join(lines), expected


def brace_counter_member_names(source: str) -> list[str]:
    """Independent oracle: token runs at depth 1 inside the class body.

    Each depth-1 run ends at '(', '=' or ';'; its last identifier is the
    member name. Runs that start a nested `class` are skipped wholesale by
    depth tracking because their heads contain the class keyword.
    """
    tokens = tokenize(source)
    depth = 0
    names: list[str] = []
    run: list = []
    for tok in tokens:
        if tok.kind == "punctuation" and tok.text == "{":
            if depth == 1 and not any(t.text == "class" for t in run):
                idents = [t for t in run if t.kind == "identifier"]
                if idents:
                    names.append(idents[-1].text)
            depth += 1
            run = []
            continue
        if tok.kind == "punctuation" and tok.text == "}":
            depth -= 1
            run = []
            continue
        if depth != 1:
            continue
        if tok.kind == "punctuation" and tok.text in ("(", "=", ";"):
            if run and not any(t.text == "class" for t in run):
                idents = [t for t in run if t.kind == "identifier"]
                if idents:
                    names.append(idents[-1].text)
            run = []
            continue
        run.append(tok)
    return names


@settings(max_examples=120, deadline=None)
@given(plan=MEMBER_PLANS)
def test_generated_classes_parse_to_their_plan(plan):
    source, expected = render_class("Sample", plan)
    classes = parse_compilation_unit(source)
    assert len(classes) == 1
    got = [(m.member_kind, m.name) for m in classes[0].members]
    assert got == expected


@settings(max_examples=120, deadline=None)
@given(plan=MEMBER_PLANS)
def test_depth1_members_match_brace_counter_oracle(plan):
    source, expected = render_class("Sample", plan)
    classes = parse_compilation_unit(source)
    parsed_names = sorted(m.name for m in classes[0].members)
    # the oracle sees method bodies too, but bodies here hold no declarations;
    # constructor bodies contain `int x = 1` which the oracle must not see
    # because it only looks at depth 1
    oracle_names = sorted(brace_counter_member_names(source))
    assert parsed_names == oracle_names


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=300))
def test_parser_is_total_over_arbitrary_text(text):
    for model in parse_compilation_unit(text):
        assert model.class_name


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(
        alphabet=st.sampled_from(list("class interface enum record {}();=<>@\"'/*\n x")),
        max_size=200,
    )
)
def test_parser_is_total_over_java_shaped_noise(text):
    parse_compilation_unit(text)


def structure(classes: list[ClassModel]) -> list[tuple]:
    return [(c.class_name, c.members) for c in classes]


@settings(max_examples=80, deadline=None)
@given(
    plan=MEMBER_PLANS,
    comment=st.sampled_from(
        ["// private Ghost() {}", "/* static int ghost; */", "/* class Ghost{} */"]
    ),
    position=st.integers(min_value=0, max_value=6),
)
def test_comment_immunity(plan, comment, position):
    source, _ = render_class("Sample", plan)
    lines = source.split("\n")
    cut = min(position + 1, len(lines) - 1)
    with_comment = "\n".join(lines[:cut] + [comment] + lines[cut:])
    assert structure(parse_compilation_unit(with_comment)) == structure(
        parse_compilation_unit(source)
    )
