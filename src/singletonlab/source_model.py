r"""Lexer and structural extractor for Java-like source text.

Produces a per-class digest (constructors, fields, methods with their
modifiers) that is just rich enough for structural pattern checks. This is
deliberately not a Java parser: no symbol tables, no type resolution, and
arbitrary malformed input degrades to best-effort extraction instead of
raising.

Two compiled regexes do the lexing. `_TOKEN` builds tokens, and the parser
asks it for them only where the model reads them: at top level and in the
member headers of a class body. Every group the parser only skips (member
and nested-type bodies, initializer blocks, parameter lists, annotation
arguments, field initializers) is stepped over with `_SKIP`, which matches
nothing but the punctuation the skip rules count, `( ) { } [ ] ;`, and
whole comment, string, char and text-block spans. Both keep comments and
literals opaque, so nothing inside them can be mistaken for a declaration
or a brace.

Where javac parses the input, the digest is the one javac's parse tree
gives, except in four kinds of shape, each pinned by tests against javac:
- declarators after an initialized one: `int a = 1, b = 2;` drops `b`;
- array dimensions after a method's parameters: `int m()[]` is of type
  `int`, where javac's is `int[]`;
- Unicode escapes outside literals: `\u0070rivate A() {}` is a method of
  type `u0070rivate`, where javac's is a private constructor;
- names with currency symbols, connector punctuation or letter numbers:
  `A a‿b;` is a field `b` of type `a`, and `A Ⅳ;` or `A €;` no field.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

JAVA_KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    """.split()
)

# The only modifiers the structural model records. Every word in `_MODIFIERS`
# is dropped from a member header before its type is read.
TRACKED_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "synchronized", "abstract"}
)
_MODIFIERS = TRACKED_MODIFIERS | {"native", "volatile", "transient", "strictfp", "default"}

_NESTED_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})

CONSTRUCTOR = "constructor"
FIELD = "field"
METHOD = "method"

# A comment runs to the end of its line or its `*/`; a text block to its
# closing `"""` (no escapes); a string or char literal to its closing quote,
# where a backslash escapes any next character, or else stops before the end
# of the line. Each runs to the end of the text when unterminated.
_COMMENT = r"//[^\n]*|/\*(?:.*?\*/|.*)"
_LITERAL = r'"""(?:.*?"""|.*)|"[^"\\\n]*(?:\\.?[^"\\\n]*)*"?|' r"'[^'\\\n]*(?:\\.?[^'\\\n]*)*'?"
# `\s` is `str.isspace` and `\w` is `str.isalnum` or `_`, code point for code
# point, but `[^\W\d]` also admits numerals that are not letters, such as ²
# and ½: `_next_token` re-reads a word that starts with one.
_TOKEN = re.compile(
    rf"(?:\s|{_COMMENT})*(?:(?P<literal>{_LITERAL})|(?P<word>[^\W\d][\w$]*|\$[\w$]*)"
    r"|(?P<number>\d[\w.]*)|(?P<punctuation>.))?",
    re.S,
)
_SKIP = re.compile(rf"{_COMMENT}|{_LITERAL}|[(){{}}\[\];]", re.S)


@dataclass(frozen=True)
class Token:
    kind: str  # identifier | keyword | punctuation | literal
    text: str
    offset: int


@dataclass(frozen=True)
class MemberModel:
    member_kind: str  # constructor | field | method
    name: str
    declared_type: str  # "" for constructors; field type / method return type otherwise
    modifiers: frozenset[str]


@dataclass(frozen=True)
class ClassModel:
    class_name: str
    members: tuple[MemberModel, ...]

    def constructors(self) -> tuple[MemberModel, ...]:
        return tuple(m for m in self.members if m.member_kind == CONSTRUCTOR)

    def fields(self) -> tuple[MemberModel, ...]:
        return tuple(m for m in self.members if m.member_kind == FIELD)

    def methods(self) -> tuple[MemberModel, ...]:
        return tuple(m for m in self.members if m.member_kind == METHOD)


def tokenize(source: str) -> list[Token]:
    """Split source text into identifier/keyword/punctuation/literal tokens.

    Comments vanish entirely; string, char and text-block literals become
    single opaque literal tokens, so nothing inside them can be mistaken for
    a declaration.
    """
    tokens: list[Token] = []
    tok, pos = _next_token(source, 0)
    while tok is not None:
        tokens.append(tok)
        tok, pos = _next_token(source, pos)
    return tokens


def _next_token(text: str, pos: int) -> tuple[Token | None, int]:
    """The first token at or after `pos` (None at the end), and its end."""
    m = _TOKEN.match(text, pos)
    kind = m.lastgroup
    if kind is None:
        return None, len(text)
    start, end = m.span(kind)
    if kind == "word":
        first = text[start]
        if first.isalpha() or first in "_$":
            word = text[start:end]
            return Token("keyword" if word in JAVA_KEYWORDS else "identifier", word, start), end
        # a numeral that is no letter: a digit starts a number, any other is punctuation
        if not first.isdigit():
            return Token("punctuation", first, start), start + 1
        end = start + 1
        while end < len(text) and (text[end].isalnum() or text[end] in "._"):
            end += 1
    return Token("punctuation" if kind == "punctuation" else "literal", text[start:end], start), end


def parse_compilation_unit(source_text: str) -> list[ClassModel]:
    """Extract a ClassModel for every top-level class declaration.

    Total over arbitrary text: malformed input yields the classes that could
    be recovered (possibly none). Each distinct text is parsed once per
    process while it stays among the last 1024 (`_parse`); the list is new
    on every call, and its models are frozen.
    """
    return list(_parse(source_text))


@functools.lru_cache(maxsize=1024)
def _parse(source_text: str) -> tuple[ClassModel, ...]:
    classes: list[ClassModel] = []
    after_dot = False  # `Foo.class` uses the keyword as a member-access suffix
    tok, pos = _next_token(source_text, 0)
    while tok is not None:
        if tok.kind == "keyword" and tok.text == "class" and not after_dot:
            model, pos = _parse_class(source_text, pos)
            if model is not None:
                classes.append(model)
            after_dot = False
        else:
            if tok.text == "{":  # another type's body, or junk; stray closers are ignored
                pos = _skip_group(source_text, pos, "{", "}")
            after_dot = tok.text == "."
        tok, pos = _next_token(source_text, pos)
    return tuple(classes)


def select_primary_class(
    classes: list[ClassModel], expected_name: str | None = None
) -> ClassModel | None:
    """Pick the class a task is about: exact name match, else the first one."""
    if expected_name:
        for model in classes:
            if model.class_name == expected_name:
                return model
    return classes[0] if classes else None


def _parse_class(text: str, pos: int) -> tuple[ClassModel | None, int]:
    """Parse one `class` declaration from just past its keyword.

    Returns (model-or-None, offset-of-the-rest).
    """
    name, end = _next_token(text, pos)
    if name is None or name.kind != "identifier":
        return None, pos
    class_name = name.text
    pos = end

    # Scan past type parameters and extends/implements clauses to the body.
    angle = 0
    while True:
        tok, pos = _next_token(text, pos)
        if tok is None:
            return None, pos
        if tok.kind == "punctuation":
            if tok.text == "<":
                angle += 1
            elif tok.text == ">":
                angle = max(0, angle - 1)
            elif tok.text == "{" and angle == 0:
                break
            elif tok.text == ";" and angle == 0:
                return None, pos

    members: list[MemberModel] = []
    buffer: list[Token] = []
    while True:
        tok, end = _next_token(text, pos)
        if tok is None:
            return ClassModel(class_name, tuple(members)), end
        if tok.kind != "punctuation":
            buffer.append(tok)
            pos = end
            continue
        punct = tok.text
        if punct == "}":
            return ClassModel(class_name, tuple(members)), end
        if punct == "{":
            # nested type body, initializer block, or junk: never descend
            pos = _skip_group(text, end, "{", "}")
            buffer = []
            continue
        if punct == "(":
            if _ends_with_annotation_name(buffer):
                # annotation arguments, e.g. @SuppressWarnings("x"); not a member
                pos = _skip_group(text, end, "(", ")")
                _drop_trailing_annotation(buffer)
                continue
            if not buffer or _declares_nested_type(buffer[:-1] or buffer):
                # nested record header or stray parens: consume and ignore
                pos = _skip_to_body_or_semicolon(text, _skip_group(text, end, "(", ")"))
                buffer = []
                continue
            member, pos = _parse_callable(text, end, buffer, class_name)
            if member is not None:
                members.append(member)
            buffer = []
            continue
        if punct in ";=":
            members.extend(_fields_from_header(buffer))
            buffer = []
            pos = end if punct == ";" else _skip_initializer(text, end)
            continue
        buffer.append(tok)
        pos = end


def _declares_nested_type(buffer: list[Token]) -> bool:
    for tok in buffer:
        if tok.kind == "keyword" and tok.text in _NESTED_TYPE_KEYWORDS:
            return True
        if tok.kind == "identifier" and tok.text == "record":
            return True
    return False


def _ends_with_annotation_name(buffer: list[Token]) -> bool:
    # trailing `@Name` or `@dotted.Name`
    j = len(buffer) - 1
    if j < 0 or buffer[j].kind != "identifier":
        return False
    j -= 1
    while j >= 1 and buffer[j].text == "." and buffer[j - 1].kind == "identifier":
        j -= 2
    return j >= 0 and buffer[j].text == "@"


def _drop_trailing_annotation(buffer: list[Token]) -> None:
    while buffer and buffer[-1].text != "@":
        buffer.pop()
    if buffer:
        buffer.pop()


def _skip_group(text: str, pos: int, open: str, close: str) -> int:
    """Return the offset just past the `close` that matches the `open` just
    before `pos`; other brackets are not counted."""
    depth = 1
    for m in _SKIP.finditer(text, pos):
        punct = m.group()
        if punct == open:
            depth += 1
        elif punct == close:
            depth -= 1
            if depth == 0:
                return m.end()
    return len(text)


def _skip_to_body_or_semicolon(text: str, pos: int) -> int:
    """After a parameter list: consume a throws clause, then a body or `;`."""
    for m in _SKIP.finditer(text, pos):
        punct = m.group()
        if punct == "{":
            return _skip_group(text, m.end(), "{", "}")
        if punct == ";":
            return m.end()
        if punct == "}":
            return m.start()  # malformed: let the class loop see the closer
    return len(text)


def _skip_initializer(text: str, pos: int) -> int:
    """Skip a field initializer expression up to its terminating `;`.

    Tracks (), {} and [] so anonymous classes, lambdas and array literals do
    not end the member early.
    """
    paren = brace = bracket = 0
    for m in _SKIP.finditer(text, pos):
        punct = m.group()
        if punct == "(":
            paren += 1
        elif punct == ")":
            paren -= 1
        elif punct == "{":
            brace += 1
        elif punct == "}":
            if brace == 0:
                return m.start()  # class closer reached: malformed member
            brace -= 1
        elif punct == "[":
            bracket += 1
        elif punct == "]":
            bracket -= 1
        elif punct == ";" and paren == 0 and brace == 0 and bracket == 0:
            return m.end()
    return len(text)


def _parse_callable(
    text: str, pos: int, buffer: list[Token], class_name: str
) -> tuple[MemberModel | None, int]:
    """Turn `header (` into a constructor or method member; consume its tail."""
    pos = _skip_to_body_or_semicolon(text, _skip_group(text, pos, "(", ")"))
    name_tok = buffer[-1]
    if name_tok.kind != "identifier":
        return None, pos
    head = _strip_annotations(buffer[:-1])
    modifiers = _modifiers(head)
    declared_type = _simple_type([t for t in head if t.text not in _MODIFIERS])
    if not declared_type and name_tok.text == class_name:
        return MemberModel(CONSTRUCTOR, name_tok.text, "", modifiers), pos
    return MemberModel(METHOD, name_tok.text, declared_type, modifiers), pos


def _fields_from_header(buffer: list[Token]) -> list[MemberModel]:
    """Turn a `mods type name[, name...]` header into field members."""
    head = _strip_annotations(buffer)
    modifiers = _modifiers(head)
    segments = _split_declarators([t for t in head if t.text not in _MODIFIERS])
    if not segments or len(segments[0]) < 2:
        return []
    first = segments[0]
    name_idx = max(
        (k for k, t in enumerate(first) if t.kind == "identifier"), default=-1
    )
    if name_idx <= 0:
        return []
    base_type = _simple_type(first[:name_idx])
    if not base_type:
        return []
    members = [
        MemberModel(FIELD, first[name_idx].text, base_type + "[]" * _dims(first[name_idx + 1 :]), modifiers)
    ]
    for seg in segments[1:]:
        names = [t for t in seg if t.kind == "identifier"]
        if names:
            members.append(
                MemberModel(FIELD, names[0].text, base_type + "[]" * _dims(seg), modifiers)
            )
    return members


# One shared frozenset per set of modifiers, which halves a cached parse.
_MODIFIER_SETS: dict[frozenset[str], frozenset[str]] = {}


def _modifiers(head: list[Token]) -> frozenset[str]:
    modifiers = frozenset(t.text for t in head if t.text in TRACKED_MODIFIERS)
    return _MODIFIER_SETS.setdefault(modifiers, modifiers)


def _dims(tokens: list[Token]) -> int:
    return sum(1 for t in tokens if t.text == "[")


def _split_declarators(tokens: list[Token]) -> list[list[Token]]:
    """Split on commas that sit outside generic argument lists."""
    segments: list[list[Token]] = [[]]
    angle = 0
    for t in tokens:
        if t.kind == "punctuation":
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == "," and angle == 0:
                segments.append([])
                continue
        segments[-1].append(t)
    return segments


def _strip_annotations(tokens: list[Token]) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(tokens)
    while i < n:
        if tokens[i].text == "@":
            i += 1
            if i < n and tokens[i].kind == "identifier":
                i += 1
                while i + 1 < n and tokens[i].text == "." and tokens[i + 1].kind == "identifier":
                    i += 2
            continue
        out.append(tokens[i])
        i += 1
    return out


def _simple_type(tokens: list[Token]) -> str:
    """Reduce type tokens to a simple name: every `<...>` section and all
    qualifiers stripped, array dimensions kept as trailing `[]`."""
    parts: list[str] = []
    dims = 0
    angle = 0
    for t in tokens:
        if t.text == "<":
            angle += 1
            continue
        if t.text == ">":
            angle = max(0, angle - 1)
            continue
        if angle > 0:
            continue
        if t.text == "[":
            dims += 1
            continue
        if t.text in ("]", ".", "@"):
            continue
        if t.kind in ("identifier", "keyword"):
            parts.append(t.text)
    if not parts:
        return ""
    return parts[-1] + "[]" * dims
