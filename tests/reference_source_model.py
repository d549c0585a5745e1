"""Tokenizer and structural extractor for Java-like source text.

The token-based `singletonlab.source_model` as it was before the two-regex
lexer, kept unchanged as the oracle of `test_source_model_differential.py`.

Produces a per-class digest (constructors, fields, methods with their
modifiers) that is just rich enough for structural pattern checks. This is
deliberately not a Java parser: no symbol tables, no type resolution, and
arbitrary malformed input degrades to best-effort extraction instead of
raising.
"""

from __future__ import annotations

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

# The only modifiers the structural model records; others (native, volatile,
# transient, strictfp) are tolerated in input and dropped.
TRACKED_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "synchronized", "abstract"}
)

_NESTED_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})

CONSTRUCTOR = "constructor"
FIELD = "field"
METHOD = "method"


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
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
        elif source.startswith("/*", i):
            j = source.find("*/", i + 2)
            i = n if j < 0 else j + 2
        elif source.startswith('"""', i):
            j = source.find('"""', i + 3)
            end = n if j < 0 else j + 3
            tokens.append(Token("literal", source[i:end], i))
            i = end
        elif ch in ('"', "'"):
            j = i + 1
            while j < n:
                c = source[j]
                if c == "\\" and j + 1 < n:
                    j += 2
                    continue
                if c == ch:
                    j += 1
                    break
                if c == "\n":
                    break  # unterminated literal: stop at end of line
                j += 1
            tokens.append(Token("literal", source[i:j], i))
            i = j
        elif ch.isalpha() or ch in ("_", "$"):
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in JAVA_KEYWORDS else "identifier"
            tokens.append(Token(kind, text, i))
            i = j
        elif ch.isdigit():
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "._"):
                j += 1
            tokens.append(Token("literal", source[i:j], i))
            i = j
        else:
            tokens.append(Token("punctuation", ch, i))
            i += 1
    return tokens


def parse_compilation_unit(
    source_text: str, warnings: list[str] | None = None
) -> list[ClassModel]:
    """Extract a ClassModel for every top-level class declaration.

    Total over arbitrary text: malformed input yields the classes that could
    be recovered (possibly none). Diagnostics accumulate into ``warnings``
    when a list is supplied.
    """
    tokens = tokenize(source_text)
    classes: list[ClassModel] = []
    depth = 0
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "punctuation":
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth = max(0, depth - 1)  # stray closers are ignored
            i += 1
            continue
        if (
            depth == 0
            and tok.kind == "keyword"
            and tok.text == "class"
            and not _is_class_literal(tokens, i)
        ):
            model, i = _parse_class(tokens, i, warnings)
            if model is not None:
                classes.append(model)
            continue
        i += 1
    return classes


def select_primary_class(
    classes: list[ClassModel], expected_name: str | None = None
) -> ClassModel | None:
    """Pick the class a task is about: exact name match, else the first one."""
    if expected_name:
        for model in classes:
            if model.class_name == expected_name:
                return model
    return classes[0] if classes else None


def _is_class_literal(tokens: list[Token], i: int) -> bool:
    # `Foo.class` uses the keyword as a member-access suffix, not a declaration
    return i > 0 and tokens[i - 1].kind == "punctuation" and tokens[i - 1].text == "."


def _warn(warnings: list[str] | None, message: str) -> None:
    if warnings is not None:
        warnings.append(message)


def _parse_class(
    tokens: list[Token],
    class_kw_idx: int,
    warnings: list[str] | None,
) -> tuple[ClassModel | None, int]:
    """Parse one `class` declaration starting at its keyword token.

    Returns (model-or-None, index-of-next-unconsumed-token).
    """
    n = len(tokens)
    i = class_kw_idx + 1
    if i >= n or tokens[i].kind != "identifier":
        offset = tokens[class_kw_idx].offset
        _warn(warnings, f"'class' at offset {offset} is not followed by a name; skipped")
        return None, i
    class_name = tokens[i].text
    i += 1

    # Scan past type parameters and extends/implements clauses to the body.
    angle = 0
    while i < n:
        tok = tokens[i]
        if tok.kind == "punctuation":
            if tok.text == "<":
                angle += 1
            elif tok.text == ">":
                angle = max(0, angle - 1)
            elif tok.text == "{" and angle == 0:
                break
            elif tok.text == ";" and angle == 0:
                _warn(warnings, f"class {class_name} has no body; skipped")
                return None, i + 1
        i += 1
    if i >= n:
        _warn(warnings, f"class {class_name} has no body; skipped")
        return None, i

    members: list[MemberModel] = []
    buffer: list[Token] = []
    i += 1  # past the opening brace
    closed = False
    while i < n:
        tok = tokens[i]
        if tok.kind != "punctuation":
            buffer.append(tok)
            i += 1
            continue
        text = tok.text
        if text == "}":
            closed = True
            i += 1
            break
        if text == "{":
            # nested type body, initializer block, or junk: never descend
            i = _skip_group(tokens, i, "{", "}")
            buffer = []
            continue
        if text == "(":
            if _ends_with_annotation_name(buffer):
                # annotation arguments, e.g. @SuppressWarnings("x"); not a member
                i = _skip_group(tokens, i, "(", ")")
                _drop_trailing_annotation(buffer)
                continue
            if not buffer or _declares_nested_type(buffer[:-1] or buffer):
                # nested record header or stray parens: consume and ignore
                i = _skip_group(tokens, i, "(", ")")
                i = _skip_to_body_or_semicolon(tokens, i)
                buffer = []
                continue
            member, i = _parse_callable(tokens, i, buffer, class_name)
            if member is not None:
                members.append(member)
            buffer = []
            continue
        if text == ";":
            if buffer:
                members.extend(_fields_from_header(buffer))
            buffer = []
            i += 1
            continue
        if text == "=":
            if buffer:
                members.extend(_fields_from_header(buffer))
            buffer = []
            i = _skip_initializer(tokens, i + 1)
            continue
        buffer.append(tok)
        i += 1
    if not closed:
        _warn(warnings, f"class {class_name} body is unterminated; kept best-effort members")
    return ClassModel(class_name, tuple(members)), i


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


def _skip_group(tokens: list[Token], open_idx: int, open: str, close: str) -> int:
    """Return the index just past the `open`...`close` group at open_idx."""
    depth = 0
    i = open_idx
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punctuation":
            if t.text == open:
                depth += 1
            elif t.text == close:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _skip_to_body_or_semicolon(tokens: list[Token], i: int) -> int:
    """After a parameter list: consume a throws clause, then a body or `;`."""
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punctuation":
            if t.text == "{":
                return _skip_group(tokens, i, "{", "}")
            if t.text == ";":
                return i + 1
            if t.text == "}":
                return i  # malformed: let the class loop see the closer
        i += 1
    return n


def _skip_initializer(tokens: list[Token], i: int) -> int:
    """Skip a field initializer expression up to its terminating `;`.

    Tracks (), {} and [] so anonymous classes, lambdas and array literals do
    not end the member early. Additional declarators after an initializer
    (`int a = 1, b = 2;`) are not modeled; `b` is dropped.
    """
    n = len(tokens)
    paren = brace = bracket = 0
    while i < n:
        t = tokens[i]
        if t.kind == "punctuation":
            if t.text == "(":
                paren += 1
            elif t.text == ")":
                paren -= 1
            elif t.text == "{":
                brace += 1
            elif t.text == "}":
                if brace == 0:
                    return i  # class closer reached: malformed member
                brace -= 1
            elif t.text == "[":
                bracket += 1
            elif t.text == "]":
                bracket -= 1
            elif t.text == ";" and paren == 0 and brace == 0 and bracket == 0:
                return i + 1
        i += 1
    return n


def _parse_callable(
    tokens: list[Token], open_paren_idx: int, buffer: list[Token], class_name: str
) -> tuple[MemberModel | None, int]:
    """Turn `header (` into a constructor or method member; consume its tail."""
    i = _skip_group(tokens, open_paren_idx, "(", ")")
    i = _skip_to_body_or_semicolon(tokens, i)
    name_tok = buffer[-1]
    if name_tok.kind != "identifier":
        return None, i
    head = _strip_annotations(buffer[:-1])
    modifiers = frozenset(
        t.text for t in head if t.kind == "keyword" and t.text in TRACKED_MODIFIERS
    )
    type_tokens = _strip_type_parameters(
        [
            t
            for t in head
            if t.text not in TRACKED_MODIFIERS
            and t.text not in ("native", "strictfp", "default")
        ]
    )
    declared_type = _simple_type(type_tokens)
    if not declared_type and name_tok.text == class_name:
        return MemberModel(CONSTRUCTOR, name_tok.text, "", modifiers), i
    return MemberModel(METHOD, name_tok.text, declared_type, modifiers), i


def _fields_from_header(buffer: list[Token]) -> list[MemberModel]:
    """Turn a `mods type name[, name...]` header into field members."""
    head = _strip_annotations(buffer)
    modifiers = frozenset(
        t.text for t in head if t.kind == "keyword" and t.text in TRACKED_MODIFIERS
    )
    rest = [
        t
        for t in head
        if not (t.kind == "keyword" and t.text in TRACKED_MODIFIERS)
        and t.text not in ("native", "transient", "volatile", "strictfp")
    ]
    segments = _split_declarators(rest)
    if not segments or len(segments[0]) < 2:
        return []
    first = segments[0]
    name_idx = max(
        (k for k, t in enumerate(first) if t.kind == "identifier"), default=-1
    )
    if name_idx <= 0:
        return []
    base_tokens = first[:name_idx]
    base_type = _simple_type(base_tokens)
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


def _strip_type_parameters(tokens: list[Token]) -> list[Token]:
    """Drop a leading `<...>` type-parameter section from a generic method."""
    if not tokens or tokens[0].text != "<":
        return tokens
    angle = 0
    for k, t in enumerate(tokens):
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle -= 1
            if angle == 0:
                return tokens[k + 1 :]
    return []


def _simple_type(tokens: list[Token]) -> str:
    """Reduce type tokens to a simple name: generics and qualifiers stripped,
    array dimensions kept as trailing `[]`."""
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
        if t.text in ("]", ".", "...", "@"):
            continue
        if t.kind in ("identifier", "keyword"):
            parts.append(t.text)
    if not parts:
        return ""
    return parts[-1] + "[]" * dims
