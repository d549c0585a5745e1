"""The lexer-based parser against the token-based one it replaced.

`reference_source_model.py` is the earlier `source_model`: it tokenizes the
whole text, then parses the token list. The current module builds tokens
only for top level and member headers, and steps over every skipped group
with one regex. Both must give the same classes and members, and the same
`tokenize` output, on any text, well-formed or not.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_source_model as reference
from singletonlab import source_model

# Code points where regex classes and str methods disagree: numerals that
# `[^\W\d]` takes for word characters (² is also a digit, ½ is not), digits
# that `\d` misses, and spaces beyond ASCII.
UNICODE = ["²", "½", "፩", "Ⅷ", " ", " ", "　", "é", "٠", "​"]

NAMES = ["Foo", "Bar", "instance", "x", "getInstance", "$tmp", "_v", "record", "T", "List", "java.util.Map"]
MODIFIERS = ["public", "private", "protected", "static", "final", "abstract", "synchronized",
             "volatile", "transient", "native", "default", "strictfp"]
TYPES = ["int", "Foo", "String", "List<Foo>", "Map<String, List<Foo>>", "int[]", "Foo[][]", "void", "T"]
ANNOTATIONS = ["@Override", "@Deprecated", '@SuppressWarnings("unchecked")', "@A(x = 1, y = {2, 3})",
               "@a.b.C", '@B(value = "}{)(", other = \'}\')', "@Nested(@Inner({1}))"]
DECOYS = ['"{ class X { X() {} } }"', "'{'", "'}'", "'\\''", '"\\"}"', "/* } { ( */", "// } {\n",
          '"""\n  { text }\n  """', "'\\u0041'", '"a\\\\"', "1.5e3f", "0x1F_FF", "x / y"]
FRAGMENTS = (
    ["class", "interface", "enum", "record", "new", "=", "(", ")", "{", "}", "[", "]", ";", ",", "<", ">",
     ".", "@", "...", "->", "/", "*", "\\", '"', "'", '"""', "/*", "*/", "//", "\n", " ", "\t", "0", "9L",
     ".class", "Foo.class", "throws IOException", "extends Base", "implements A, B", "class A {",
     "class B<T> {", "private static A a =", "int x = 1", "A() {", "void f(int y)", "static {", "@A("]
    + NAMES + MODIFIERS + TYPES + ANNOTATIONS + DECOYS + UNICODE
)

fragment = st.sampled_from(FRAGMENTS)
soup = st.lists(fragment, max_size=60).map(" ".join) | st.lists(fragment, max_size=60).map("".join)


def _join(parts) -> str:
    return " ".join(p for p in parts if p)


def _format(template: str, **parts) -> st.SearchStrategy[str]:
    return st.fixed_dictionaries(parts).map(lambda drawn: template.format(**drawn))


SIMPLE = st.sampled_from(["null", "0", "1 + 2", '"s;{"', "'}'", "x", "Foo.class", "a[0]", "(int) 3.0"])
STATEMENT = st.sampled_from([
    "return instance;", "if (instance == null) { instance = new Foo(); }", "int[] a = {1, 2};",
    "for (int i = 0; i < n; i++) { sum += a[i]; }", 'String s = "} class X {";', "char c = '{';",
    "/* } */", "// { \n", "synchronized (Foo.class) { x(); }", "class Local { Local() {} }",
    "switch (k) { case 1: break; default: }", "Runnable r = () -> { };",
])


def statements(depth: int = 0) -> st.SearchStrategy[str]:
    plain = st.lists(STATEMENT, max_size=4).map(" ".join)
    if depth >= 2:
        return plain
    nested = _format("{s} Object o = {e};", s=plain, e=expressions(depth + 1))
    return plain | nested


def expressions(depth: int = 0) -> st.SearchStrategy[str]:
    if depth >= 2:
        return SIMPLE
    body = statements(depth + 1)
    return st.one_of(
        SIMPLE,
        _format("new Foo() {{ void run() {{ {b} }} }}", b=body),
        _format("new int[] {{1, {e}, 3}}", e=SIMPLE),
        st.just("{{1, 2}, {3}}"),
        _format("() -> {{ {b} }}", b=body),
        _format("call({e}, new Object[] {{}})", e=SIMPLE),
        _format("x -> x[{e}]", e=SIMPLE),
    )


def members(class_name: str, depth: int) -> st.SearchStrategy[str]:
    annotations = st.lists(st.sampled_from(ANNOTATIONS), max_size=2).map(_join)
    mods = st.lists(st.sampled_from(MODIFIERS), max_size=3, unique=True).map(_join)
    type_ = st.sampled_from(TYPES + [class_name])
    name = st.sampled_from(NAMES)
    common = dict(a=annotations, m=mods, t=type_, n=name)
    choices = [
        _format("{a} {m} {t} {n};", **common),
        _format("{a} {m} {t} {n} = {e};", e=expressions(), **common),
        _format("{m} {t} {n}, other[], third = {e};", e=expressions(), m=mods, t=type_, n=name),
        _format("{a} {m} " + class_name + "({t} a, int... rest) {{ {b} }}", b=statements(), a=annotations, m=mods, t=type_),
        _format("{a} {m} <T extends Comparable<T>> {t} {n}(final {t} p) throws Exception {{ {b} }}", b=statements(), **common),
        _format("{m} abstract {t} {n}();", m=mods, t=type_, n=name),
        _format("{s}{{ {b} }}", s=st.sampled_from(["", "static "]), b=statements()),
        _format("{m} record Point(int x, @A(1) int y) implements Shape {{ Point {{ }} }}", m=mods),
        _format("{m} enum Color {{ RED, GREEN {{ void f() {{}} }}; Color() {{}} }}", m=mods),
        _format("{m} interface Api {{ default void f() {{ }} int X = 1; }}", m=mods),
    ]
    if depth < 2:
        choices.append(classes(depth + 1))
    return st.one_of(choices)


@st.composite
def classes(draw, depth: int = 0) -> str:
    name = draw(st.sampled_from(["Foo", "Bar", "Registry", "Outer"]))
    header = _join([
        _join(draw(st.lists(st.sampled_from(ANNOTATIONS), max_size=2))),
        _join(draw(st.lists(st.sampled_from(MODIFIERS[:7]), max_size=2, unique=True))),
        "class",
        name + draw(st.sampled_from(["", "<T>", "<K, V extends List<K>>"])),
        draw(st.sampled_from(["", "extends Base", "extends Base<Foo> implements A, B<C>"])),
    ])
    body = "\n".join(draw(st.lists(members(name, depth), max_size=6 >> depth)))
    return f"{header} {{\n{body}\n}}"


well_formed = st.builds(
    lambda prelude, units: prelude + "\n\n".join(units),
    st.sampled_from(["", "package p;\nimport java.util.*;\n", "// header\n/* } */\n", "@Generated\n"]),
    st.lists(classes(), min_size=1, max_size=3),
)


@st.composite
def mangled(draw) -> str:
    """Well-formed source with fragments spliced in, cut, or cut short, so
    that braces, parens, brackets, literals and comments open or close at
    every depth."""
    text = draw(well_formed)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "drop", "truncate"]))
        if edit == "insert":
            text = text[:at] + draw(fragment | soup) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        elif edit == "drop":  # one bracket, terminator or quote
            marks = [k for k, c in enumerate(text) if c in "{}()[];\"'/*"]
            if marks:
                k = draw(st.sampled_from(marks))
                text = text[:k] + text[k + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(['"', "'", '"""', "/*", "//", "\\", "{", "(", "[", ""]))
    return text


def parsed(module, text: str) -> list[tuple]:
    return [astuple(model) for model in module.parse_compilation_unit(text)]


def tokens(module, text: str) -> list[tuple]:
    return [astuple(token) for token in module.tokenize(text)]


def assert_same(text: str) -> None:
    assert parsed(source_model, text) == parsed(reference, text)
    assert tokens(source_model, text) == tokens(reference, text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(well_formed)
def test_well_formed_classes_parse_as_before(text):
    assert_same(text)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mangled())
def test_mangled_classes_parse_as_before(text):
    assert_same(text)


@settings(max_examples=400, deadline=None)
@given(soup)
@example("class A<T { int x; } class B { B() {} }")
@example('class A { void f() { String s = "unterminated\n} } class B { private B() {} }')
@example('class A { int x = """ { ; } class B {')
@example("class A { /* } class B { */ private A() {} }")
@example("class A { char c = '\\'; } class B {}")
@example("class ²A { } class ½B { ፩x y; } class C { int　z; }")
@example("class A { int x = new int[] {1} } class B { private B() {} }")
@example("class A { void f() throws X } class B { private B() {} }")
@example("x.class Foo { } } } class . class Bar { int a = 1) ; int b; }")
# generic headers: a type-parameter section, closed or not, adds nothing to the type
@example("class A { <T> T f() { return null; } public static <T extends Comparable<T>> A[] g(); <T A() {} }")
@example("class A { <T>> T h(); <<T> X> List<T> k(); }")
# annotation arguments followed by parentheses
@example("class A { @B(2) @A(1) (q) int z; }")
@example("class A { @A(1)(2) int z; }")
# the modifier filters of fields and of methods differ
@example("class A { default x; }")
@example("class A { volatile A() {} }")
def test_fragment_soup_parses_as_before(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from(UNICODE + list("class Foo{}();=<>[],.@\"'/*\\\n 1a_$")), max_size=80))
def test_unicode_text_lexes_as_before(text):
    assert_same(text)
