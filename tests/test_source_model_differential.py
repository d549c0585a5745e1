"""The structural checker against javac, and its totality on any text.

Where javac parses a unit, `parse_compilation_unit` must give the classes
javac's parse tree gives (JavacTreeOracle.java, through the `javac_oracle`
fixture): every generated well-formed unit, every corpus file, both
exemplars. Four kinds of shape are known to differ, each pinned by cases of
`test_known_divergence_from_javac`, and the generator leaves them out.
Malformed text, with or without a JDK, must parse without raising and name
only what occurs in it.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, class_model as model
from singletonlab.guidance import load_default_exemplars
from singletonlab.source_model import parse_compilation_unit

# Code points where regex classes and str methods disagree: numerals that
# `[^\W\d]` takes for word characters (² is also a digit, ½ is not), digits
# that `\d` misses, and spaces beyond ASCII.
UNICODE = ["²", "½", "፩", "Ⅷ", " ", " ", "　", "é", "٠", "​"]

NAMES = ["Foo", "Bar", "instance", "x", "getInstance", "$tmp", "_v", "record", "T", "List"]
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
    + NAMES + ["java.util.Map"] + MODIFIERS + TYPES + ANNOTATIONS + DECOYS + UNICODE
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


# The strategy builders are cached: building strategies anew on every draw
# took half of the generation time.
@functools.cache
def statements(depth: int = 0) -> st.SearchStrategy[str]:
    plain = st.lists(STATEMENT, max_size=4).map(" ".join)
    if depth >= 2:
        return plain
    nested = _format("{s} Object o = {e};", s=plain, e=expressions(depth + 1))
    return plain | nested


@functools.cache
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


@functools.cache
def members(class_name: str, depth: int) -> st.SearchStrategy[str]:
    """Member declarations javac parses. They leave out `void` fields,
    dotted member names and a repeated modifier, which javac rejects, and
    the three known divergences, which have their own tests."""
    annotations = st.lists(st.sampled_from(ANNOTATIONS), max_size=2).map(_join)
    mods = st.lists(st.sampled_from(MODIFIERS), max_size=3, unique=True).map(_join)
    not_abstract = st.lists(st.sampled_from([m for m in MODIFIERS if m != "abstract"]), max_size=3, unique=True).map(_join)
    type_ = st.sampled_from(TYPES + [class_name])
    field_type = st.sampled_from([t for t in TYPES if t != "void"] + [class_name])
    name = st.sampled_from(NAMES)
    field = dict(a=annotations, m=mods, t=field_type, n=name)
    choices = [
        _format("{a} {m} {t} {n};", **field),
        _format("{a} {m} {t} {n} = {e};", e=expressions(), **field),
        _format("{m} {t} {n}, other[], third = {e};", e=expressions(), m=mods, t=field_type, n=name),
        _format("{a} {m} " + class_name + "({t} a, int... rest) {{ {b} }}", b=statements(), a=annotations, m=mods, t=type_),
        _format("{a} {m} <T extends Comparable<T>> {t} {n}(final {t} p) throws Exception {{ {b} }}", b=statements(),
                a=annotations, m=mods, t=type_, n=name),
        _format("{m} abstract {t} {n}();", m=not_abstract, t=type_, n=name),
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


def test_well_formed_classes_match_javac(javac_oracle):
    checked = []

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(well_formed)
    def check(text):
        classes = javac_oracle(text)
        assume(classes is not None)
        assert parse_compilation_unit(text) == classes
        checked.append(text)

    check()
    assert len(checked) >= 300


SOURCES = sorted(CORPUS_DIR.glob("*.java"))
PROSE = {"ProseMentioningClass.java", "ProseOnly.java"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_corpus_files_match_javac(path, javac_oracle):
    text = path.read_text("utf-8")
    classes = javac_oracle(text)
    assert (classes is None) == (path.name in PROSE)
    if classes is not None:
        assert parse_compilation_unit(text) == classes


@pytest.mark.parametrize("text", load_default_exemplars(), ids=["AppConfig", "ConnectionPool"])
def test_exemplars_match_javac(text, javac_oracle):
    assert parse_compilation_unit(text) == javac_oracle(text) != []


# The known divergences, as the checker and javac each read them. Fixing one
# here changes verdicts in existing stores.
DIVERGENCES = [
    pytest.param(
        "class A { int a = 1, b = 2; }",
        [model("A", ("field", "a", "int", ()))],
        [model("A", ("field", "a", "int", ()), ("field", "b", "int", ()))],
        id="declarators-after-an-initialized-one",
    ),
    pytest.param(
        "class A { int m()[] { return null; } }",
        [model("A", ("method", "m", "int", ()))],
        [model("A", ("method", "m", "int[]", ()))],
        id="array-dimensions-after-the-parameters",
    ),
    pytest.param(
        "class A { \\u0070rivate A() {} }",
        [model("A", ("method", "A", "u0070rivate", ()))],
        [model("A", ("constructor", "A", "", {"private"}))],
        id="unicode-escape-outside-a-literal",
    ),
    # Java names take currency symbols (Sc), connector punctuation (Pc) and
    # letter numbers (Nl), which the lexer's names do not
    pytest.param(
        "class Main { private static Main \u20ac; }",
        [model("Main")],
        [model("Main", ("field", "\u20ac", "Main", {"private", "static"}))],
        id="currency-symbol-as-a-name",
    ),
    pytest.param(
        "class A { private static A \u2163; private A() {} public static A get() { return \u2163; } }",
        [model("A", ("constructor", "A", "", {"private"}), ("method", "get", "A", {"public", "static"}))],
        [model("A", ("field", "\u2163", "A", {"private", "static"}), ("constructor", "A", "", {"private"}),
               ("method", "get", "A", {"public", "static"}))],
        id="letter-number-starting-a-name",
    ),
    pytest.param(
        "class A { private static A a\u203fb; }",
        [model("A", ("field", "b", "a", {"private", "static"}))],
        [model("A", ("field", "a\u203fb", "A", {"private", "static"}))],
        id="connector-punctuation-in-a-name",
    ),
]


@pytest.mark.parametrize("text, checker, javac", DIVERGENCES)
def test_known_divergence_from_javac(text, checker, javac, request):
    assert parse_compilation_unit(text) == checker
    assert request.getfixturevalue("javac_oracle")(text) == javac  # skips without a JDK


def assert_total(text: str) -> None:
    """The checker returns on any text, and names only what occurs in it."""
    for found in parse_compilation_unit(text):
        assert found.class_name in text
        assert all(member.name in text for member in found.members)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mangled())
def test_mangled_classes_parse_totally(text):
    assert_total(text)


@settings(max_examples=400, deadline=None)
@given(soup)
def test_fragment_soup_parses_totally(text):
    assert_total(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from(UNICODE + list("class Foo{}();=<>[],.@\"'/*\\\n 1a_$")), max_size=80))
def test_unicode_text_parses_totally(text):
    assert_total(text)
