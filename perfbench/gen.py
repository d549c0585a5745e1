"""Seeded input generator for the benchmark workloads.

Everything a run feeds the pipeline comes from here: a HumanEval-X-shaped
task file, the model replies per (model, task, iteration), the fault
schedule the stub endpoint plays, and the ground truth the outputs are
checked against.

Labels come from what the generated Java means, never from singletonlab's
own checker: each candidate is assembled from named parts (constructor
form, instance-field form, accessor form, method body, imports, decoys), and
the three predicate verdicts and the javac/java outcome follow from those
parts by the rules of the language and the predicate definitions:

* private_constructor: at least one constructor, every one private.
* instance_field: a private static field of the class's own type, declared
  in the class itself (a nested holder's field does not count).
* global_access_point: a public static method returning the class's own type.

The same (workload, seed) gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CLASS = "Solution"
ITERATION_CAP = 10
ALL_STRATEGIES = (
    "baseline",
    "instruct",
    "binary_feedback",
    "predicate_feedback",
    "fewshot_feedback",
)

# Outcome kinds and compile-error categories, as the pipeline spells them.
PASS, TEST_FAIL, COMPILE_ERROR, TIMEOUT, ABORTED = (
    "Pass",
    "TestFail",
    "CompileError",
    "Timeout",
    "Aborted",
)
MISSING_LIB, NON_CODE, OTHER = (
    "missing_external_library",
    "non_code_output",
    "other_compile_error",
)


# --------------------------------------------------------------------------
# Task functions: Java source plus a Python reference of the same semantics.
# Inputs stay small (no int overflow, ASCII strings) so both agree exactly.


@dataclass(frozen=True)
class Func:
    name: str
    params: str  # Java parameter list
    ret: str  # int | boolean | String
    doc: str
    good: str  # Java body, correct
    bad: str  # Java body, wrong on at least one test input
    ref: object  # Python reference
    wrong: object  # Python model of `bad`
    inputs: tuple  # argument tuples for the test


def _vowels(s, vs="aeiou"):
    return sum(1 for c in s if c in vs)


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _gcd(a, b):
    return a if b == 0 else _gcd(b, a % b)


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


FUNCS = (
    Func("add", "int a, int b", "int", "Return the sum of a and b.",
         "return a + b;", "return a - b;",
         lambda a, b: a + b, lambda a, b: a - b, ((1, 2), (7, 5), (-4, 4))),
    Func("maxOfThree", "int a, int b, int c", "int", "Return the largest of three numbers.",
         "return Math.max(a, Math.max(b, c));", "return Math.max(a, b);",
         lambda a, b, c: max(a, b, c), lambda a, b, c: max(a, b), ((1, 2, 3), (9, 4, 2))),
    Func("sumTo", "int n", "int", "Return 1 + 2 + ... + n.",
         "int total = 0;\n        for (int i = 1; i <= n; i++) {\n            total += i;\n        }\n        return total;",
         "int total = 0;\n        for (int i = 1; i < n; i++) {\n            total += i;\n        }\n        return total;",
         lambda n: n * (n + 1) // 2, lambda n: n * (n - 1) // 2, ((4,), (10,))),
    Func("countVowels", "String s", "int", "Count the vowels a, e, i, o, u in s.",
         "int count = 0;\n        for (char c : s.toCharArray()) {\n            if (\"aeiou\".indexOf(c) >= 0) {\n                count++;\n            }\n        }\n        return count;",
         "int count = 0;\n        for (char c : s.toCharArray()) {\n            if (\"aeio\".indexOf(c) >= 0) {\n                count++;\n            }\n        }\n        return count;",
         _vowels, lambda s: _vowels(s, "aeio"), (("education",), ("sky",), ("queue",))),
    Func("reverse", "String s", "String", "Return s reversed.",
         "return new StringBuilder(s).reverse().toString();", "return s;",
         lambda s: s[::-1], lambda s: s, (("abc",), ("hello",))),
    Func("isPalindrome", "String s", "boolean", "Return true if s reads the same both ways.",
         "return new StringBuilder(s).reverse().toString().equals(s);",
         "return s.length() > 0 && s.charAt(0) == s.charAt(s.length() - 1);",
         lambda s: s == s[::-1], lambda s: len(s) > 0 and s[0] == s[-1],
         (("level",), ("abca",), ("ab",))),
    Func("gcd", "int a, int b", "int", "Return the greatest common divisor of a and b.",
         "while (b != 0) {\n            int t = a % b;\n            a = b;\n            b = t;\n        }\n        return a;",
         "return Math.min(a, b);",
         _gcd, lambda a, b: min(a, b), ((12, 18), (7, 3), (9, 9))),
    Func("digitSum", "int n", "int", "Return the sum of the decimal digits of n.",
         "int sum = 0;\n        while (n > 0) {\n            sum += n % 10;\n            n /= 10;\n        }\n        return sum;",
         "return n % 10;",
         lambda n: sum(int(d) for d in str(n)), lambda n: n % 10, ((123,), (9,), (4051,))),
    Func("fib", "int n", "int", "Return the n-th Fibonacci number, fib(0) = 0.",
         "int a = 0, b = 1;\n        for (int i = 0; i < n; i++) {\n            int t = a + b;\n            a = b;\n            b = t;\n        }\n        return a;",
         "int a = 0, b = 1;\n        for (int i = 1; i < n; i++) {\n            int t = a + b;\n            a = b;\n            b = t;\n        }\n        return a;",
         _fib, lambda n: _fib(max(n - 1, 0)), ((10,), (1,), (2,))),
    Func("repeatText", "String s, int k", "String", "Return s repeated k times.",
         "return s.repeat(k);", "return s;",
         lambda s, k: s * k, lambda s, k: s, (("ab", 3), ("x", 1))),
    Func("absDiff", "int a, int b", "int", "Return the absolute difference of a and b.",
         "return Math.abs(a - b);", "return a - b;",
         lambda a, b: abs(a - b), lambda a, b: a - b, ((3, 8), (8, 3))),
    Func("isPrime", "int n", "boolean", "Return true if n is prime.",
         "if (n < 2) {\n            return false;\n        }\n        for (int d = 2; d * d <= n; d++) {\n            if (n % d == 0) {\n                return false;\n            }\n        }\n        return true;",
         "return n % 2 == 1;",
         _is_prime, lambda n: n % 2 == 1, ((7,), (9,), (2,))),
    Func("shout", "String a, String b", "String", "Join a and b and upper-case the result.",
         "return (a + b).toUpperCase();", "return a + b;",
         lambda a, b: (a + b).upper(), lambda a, b: a + b, (("ab", "cd"), ("x", "y"))),
)


def _java_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value)  # ASCII strings: JSON and Java escapes agree


def _test_code(func: Func) -> str:
    if all(func.wrong(*args) == func.ref(*args) for args in func.inputs):
        raise ValueError(f"the tests of {func.name} cannot tell its wrong body apart")
    lines = [
        "public class Main {",
        "    public static void main(String[] args) {",
        f"        {CLASS} s = new {CLASS}();",
    ]
    for args in func.inputs:
        call = f"s.{func.name}({', '.join(_java_literal(a) for a in args)})"
        expected = _java_literal(func.ref(*args))
        cond = f"!{call}.equals({expected})" if func.ret == "String" else f"{call} != {expected}"
        lines.append(f"        if ({cond}) {{ throw new AssertionError(); }}")
    lines += ["    }", "}", ""]
    return "\n".join(lines)


def _signature(func: Func) -> str:
    return f"public {func.ret} {func.name}({func.params})"


def make_task(index: int, func: Func) -> dict:
    task_id = f"Java/{index}"
    head = "import java.util.*;\nimport java.lang.*;\n\n"
    declaration = f"{head}class {CLASS} {{\n    {_signature(func)} {{\n"
    prompt = (
        f"{head}class {CLASS} {{\n    /**\n    {func.doc}\n    ({task_id})\n     */\n"
        f"    {_signature(func)} {{\n"
    )
    test = _test_code(func)
    return {
        "task_id": task_id,
        "prompt": prompt,
        "declaration": declaration,
        "canonical_solution": f"        {func.good}\n    }}\n}}\n",
        "test": test,
        "example_test": test,
    }


# --------------------------------------------------------------------------
# Candidate classes assembled from named parts.

CTOR_FORMS = ("none", "public", "package", "protected", "mixed", "private", "two_private")
FIELD_FORMS = (
    "none", "lazy", "eager", "volatile", "multi", "package_static", "public_static",
    "instance", "wrong_type", "array", "generic", "holder",
)
ACCESSOR_FORMS = (
    "none", "public_static", "synchronized", "custom_name", "package_static",
    "private_static", "instance", "wrong_type", "void",
)
DECOYS = (
    "comment_ctor", "block_comment_accessor", "string_decoy", "text_block", "multi_decl",
    "nested_helper", "nested_enum", "annotation", "static_init", "char_literals",
    "generic_method", "lambda_field", "anonymous_class", "top_level_class",
    "top_level_interface",
)
# Forms whose named static field of type Solution is usable from a static accessor.
_USABLE_FIELD = {"lazy": "instance", "eager": "INSTANCE", "volatile": "instance", "multi": "instance"}


@dataclass
class Candidate:
    ctor: str = "none"
    field: str = "none"
    accessor: str = "none"
    accessor_returns_null: bool = False  # forgets to create the instance
    body: str = "good"  # good | bad | type_error | syntax_error
    missing_import: bool = False
    public_class: bool = False
    decoys: tuple = ()
    helpers: int = 0
    marker: str = ""  # MOCK-FAIL / MOCK-TIMEOUT, mock workloads only
    non_code: str = ""  # "", "prose" or "bare_method": no class at all

    def verdicts(self) -> list[bool]:
        if self.non_code:
            return [False, False, False]
        return [
            self.ctor in ("private", "two_private"),
            self.field in ("lazy", "eager", "volatile", "multi"),
            self.accessor in ("public_static", "synchronized", "custom_name"),
        ]

    def conforming(self) -> bool:
        return all(self.verdicts())


def jdk_outcome(c: Candidate) -> tuple[str, str | None]:
    """What javac + java do with candidate + the task's test, adaptation on.

    Adaptation rewrites `new Solution()` to `Solution.getInstance()` exactly
    when every constructor of the class is private (and one exists).
    """
    if c.non_code:
        return COMPILE_ERROR, NON_CODE
    if c.missing_import:
        return COMPILE_ERROR, MISSING_LIB
    if c.public_class or c.body in ("type_error", "syntax_error"):
        return COMPILE_ERROR, OTHER
    adapted = c.verdicts()[0]
    if adapted:
        # Solution.getInstance() must exist, be static, visible from Main and
        # return something assignable to Solution.
        if c.accessor not in ("public_static", "synchronized", "package_static"):
            return COMPILE_ERROR, OTHER
        if c.accessor_returns_null:
            return TEST_FAIL, None  # NullPointerException on the first call
    return (PASS if c.body == "good" else TEST_FAIL), None


def mock_outcome(c: Candidate) -> tuple[str, str | None]:
    """The mock executor's contract: no class is a non-code compile error,
    then the MOCK-TIMEOUT / MOCK-FAIL markers, else Pass."""
    if c.non_code:
        return COMPILE_ERROR, NON_CODE
    if c.marker == "MOCK-TIMEOUT":
        return TIMEOUT, None
    if c.marker == "MOCK-FAIL":
        return TEST_FAIL, None
    return PASS, None


def render_candidate(c: Candidate, func: Func, rng: random.Random) -> str:
    if c.non_code == "prose":
        return rng.choice(
            (
                f"I am unable to write this class without more details about {func.name}.",
                "Sorry, I cannot complete that request. The singleton pattern restricts a "
                "class to one instance, but the task does not say which class.",
                f"To solve this, loop over the input and accumulate the result of {func.name}.",
            )
        )
    if c.non_code == "bare_method":
        return f"{_signature(func)} {{\n    {func.good}\n}}"

    ind = "    "
    members: list[str] = []
    tail: list[str] = []
    # the singleton parts
    field_src = {
        "none": None,
        "lazy": f"private static {CLASS} instance;",
        "eager": f"private static final {CLASS} INSTANCE = new {CLASS}();",
        "volatile": f"private static volatile {CLASS} instance;",
        "multi": f"private static {CLASS} instance, previous;",
        "package_static": f"static {CLASS} instance;",
        "public_static": f"public static {CLASS} instance;",
        "instance": f"private {CLASS} instance;",
        "wrong_type": "private static Object instance;",
        "array": f"private static {CLASS}[] instances = new {CLASS}[1];",
        "generic": f"private static java.util.List<{CLASS}> instances = new java.util.ArrayList<>();",
        "holder": (
            f"private static class Holder {{\n{ind}{ind}private static final {CLASS} INSTANCE = new {CLASS}();\n{ind}}}"
        ),
    }[c.field]
    if field_src:
        members.append(field_src)

    ctor_src = {
        "none": [],
        "public": [f"public {CLASS}() {{\n{ind}}}"],
        "package": [f"{CLASS}() {{\n{ind}}}"],
        "protected": [f"protected {CLASS}() {{\n{ind}}}"],
        "mixed": [f"public {CLASS}() {{\n{ind}}}", f"private {CLASS}(int seed) {{\n{ind}{ind}this();\n{ind}}}"],
        "private": [f"private {CLASS}() {{\n{ind}}}"],
        "two_private": [f"private {CLASS}() {{\n{ind}}}", f"private {CLASS}(int seed) {{\n{ind}{ind}this();\n{ind}}}"],
    }[c.ctor]
    members.extend(ctor_src)

    if c.accessor != "none":
        name = "instance" if c.accessor == "custom_name" else "getInstance"
        ret = {"wrong_type": "Object", "void": "void"}.get(c.accessor, CLASS)
        mods = {
            "public_static": "public static",
            "synchronized": "public static synchronized",
            "custom_name": "public static",
            "package_static": "static",
            "private_static": "private static",
            "instance": "public",
            "wrong_type": "public static",
            "void": "public static",
        }[c.accessor]
        var = _USABLE_FIELD.get(c.field)
        if c.accessor == "void":
            body = "// nothing to hand out"
        elif c.accessor == "instance":
            body = "return this;"
        elif c.accessor_returns_null and c.field in ("lazy", "volatile", "multi"):
            body = "return instance;"
        elif c.field == "holder":
            body = "return Holder.INSTANCE;"
        elif var == "INSTANCE":
            body = "return INSTANCE;"
        elif var:
            body = f"if ({var} == null) {{\n{ind}{ind}{ind}{var} = new {CLASS}();\n{ind}{ind}}}\n{ind}{ind}return {var};"
        else:
            body = f"return new {CLASS}();"
        members.append(f"{mods} {ret} {name}() {{\n{ind}{ind}{body}\n{ind}}}")

    body = {
        "good": func.good,
        "bad": func.bad,
        "type_error": 'return new Object();' if func.ret != "String" else "return 42;",
        "syntax_error": func.good.rstrip(";") + "\n        // the statement above lost its semicolon",
    }[c.body]
    members.append(f"{_signature(func)} {{\n{ind}{ind}{body}\n{ind}}}")
    if c.marker:
        members.append(f"// {c.marker}: planted outcome for the mock executor")

    head: list[str] = []
    if c.missing_import:
        head.append("import org.apache.commons.lang3.StringUtils;")
    head.append("import java.util.*;")

    for decoy in c.decoys:
        src = _decoy(decoy, ind)
        if decoy.startswith("top_level"):
            head.append("")
            head.append(src)
        else:
            tail.append(src)
    for k in range(c.helpers):
        tail.append(_helper(k, rng, ind))

    order = members + tail
    rng.shuffle(order)
    body_text = "\n\n".join(ind + m for m in order)
    public = "public " if c.public_class else ""
    return "\n".join(head) + f"\n\n{public}class {CLASS} {{\n{body_text}\n}}"


def _decoy(kind: str, ind: str) -> str:
    i2 = ind * 2
    return {
        "comment_ctor": f"// private {CLASS}() {{ }} was here before the refactoring",
        "block_comment_accessor": (
            f"/*\n{ind} * public static {CLASS} getInstance() {{ return null; }}\n{ind} * private static {CLASS} cached;\n{ind} */"
        ),
        "string_decoy": f'private final String note = "private static {CLASS} INSTANCE; public static {CLASS} get() {{";',
        "text_block": (
            f'private static final String DOC = """\n{i2}private {CLASS}() {{}}\n{i2}public static {CLASS} getInstance() {{ return null; }}\n{i2}""";'
        ),
        "multi_decl": "private int hits = 1, misses = 2;",
        "nested_helper": (
            f"static class Node {{\n{i2}public Node() {{\n{i2}}}\n\n{i2}private static Node shared;\n\n"
            f"{i2}public static Node get() {{\n{i2}{ind}return shared;\n{i2}}}\n{ind}}}"
        ),
        "nested_enum": "enum Mode { FAST, SAFE }",
        "annotation": '@SuppressWarnings("unused")\n    private int unusedCounter() {\n        return 0;\n    }',
        "static_init": "static {\n        int warm = 0;\n        warm++;\n    }",
        "char_literals": (
            "private int braces(String s) {\n        char open = '{';\n        char close = '}';\n"
            "        char quote = '\"';\n        int depth = 0;\n        for (char ch : s.toCharArray()) {\n"
            "            if (ch == open) { depth++; } else if (ch == close) { depth--; } else if (ch == quote) { depth += 0; }\n"
            "        }\n        return depth;\n    }"
        ),
        "generic_method": (
            "public static <T extends Comparable<T>> T larger(T a, T b) {\n        return a.compareTo(b) >= 0 ? a : b;\n    }"
        ),
        "lambda_field": "private final java.util.function.IntUnaryOperator twice = x -> x * 2;",
        "anonymous_class": "private final Runnable noop = new Runnable() {\n        public void run() {\n        }\n    };",
        "top_level_class": (
            "class Registry {\n    public Registry() {\n    }\n\n    private static Registry registry;\n\n"
            "    public static Registry getInstance() {\n        return registry;\n    }\n}"
        ),
        "top_level_interface": "interface Greeter {\n    String greet(String name);\n}",
    }[kind]


def _helper(k: int, rng: random.Random, ind: str) -> str:
    n = rng.randint(2, 9)
    style = k % 3
    if style == 0:
        return (
            f"private int helper{k}(int x) {{\n{ind}{ind}// fold the low {n} bits of x\n"
            f"{ind}{ind}int acc = 0;\n{ind}{ind}for (int i = 0; i < {n}; i++) {{\n"
            f"{ind}{ind}{ind}acc += (x >> i) & 1;\n{ind}{ind}}}\n"
            f'{ind}{ind}String tag = "h{k}{{";\n{ind}{ind}return acc + tag.length();\n{ind}}}'
        )
    if style == 1:
        return (
            f"/**\n{ind} * Builds label {k}; braces in literals: \"}}\" and '{{'.\n{ind} */\n"
            f"{ind}private static String label{k}(String base) {{\n"
            f"{ind}{ind}StringBuilder sb = new StringBuilder(base);\n"
            f'{ind}{ind}for (int i = 0; i < {n}; i++) {{\n{ind}{ind}{ind}sb.append("{{").append(i).append("}}");\n{ind}{ind}}}\n'
            f"{ind}{ind}return sb.toString();\n{ind}}}"
        )
    return (
        f"private long mix{k}(long seed) {{\n{ind}{ind}/* xorshift step {n}; not a Singleton */\n"
        f"{ind}{ind}seed ^= seed << 13;\n{ind}{ind}seed ^= seed >>> 7;\n{ind}{ind}seed ^= seed << {n + 10};\n"
        f"{ind}{ind}return seed;\n{ind}}}"
    )


def format_reply(code: str, c: Candidate, rng: random.Random) -> str:
    """Wrap a candidate the way chat models do; extract_code must recover
    exactly `code` (the longest fenced block, or the bare text)."""
    if c.non_code == "prose":
        return code
    style = rng.random()
    if style < 0.15:
        return code
    fenced = f"```java\n{code}\n```"
    if style < 0.75:
        return f"Here is the implementation:\n\n{fenced}\n\nThe class above solves the task."
    usage = f"```java\n{CLASS} s = {CLASS}.getInstance();\n```"
    return f"{fenced}\n\nUse it like this:\n\n{usage}\n"


# --------------------------------------------------------------------------
# Reply sequences per (model, task): iteration k < c does not conform, k = c
# does; c = None never conforms within the cap.


def work_strata(n: int) -> list[tuple[float, float]]:
    """(conformance, size) quantile pairs for the n tasks, in task order.

    The pairs are the stratum midpoints, matched and ordered by a
    permutation that depends on n only. Every seed therefore plants the same
    amount of work in the same order (how many replies each task needs and
    how large they are), so run-to-run numbers do not move with the seed;
    the seed decides the candidates themselves: their structure, decoys,
    flaws, formatting and faults.
    """
    order = random.Random(n).sample(range(n), n)
    pairing = random.Random(n + 1).sample(range(n), n)
    return [((i + 0.5) / n, (pairing[i] + 0.5) / n) for i in order]


def conform_iteration(u: float) -> int | None:
    """15% never conform; the rest conform at 1 + Exp(0.45), capped."""
    if u < 0.15:
        return None
    return min(ITERATION_CAP, 1 + int(-math.log(1.0 - (u - 0.15) / 0.85) / 0.45))


def size_helpers(u: float, n: int, knee: float, top: float) -> int:
    """Helper-method count for the size at quantile u of n tasks: 80% of
    candidates spread evenly from 0.5 KB to `knee`, the rest grow
    geometrically up to `top` at the highest stratum."""
    if u < 0.8:
        chars = 500.0 + (knee - 500.0) * u / 0.8
    else:
        t = (u - 0.8) / ((n - 0.5) / n - 0.8)
        chars = knee * (top / knee) ** t
    return max(0, int((chars - 450) / 260))


def _nonconforming(rng: random.Random, progress: float) -> Candidate:
    """A candidate that misses at least one predicate; later iterations tend
    to get closer to the pattern."""
    pick = rng.random
    while True:
        c = Candidate(
            ctor=rng.choice(CTOR_FORMS if pick() > progress else ("private", "two_private", "mixed", "package")),
            field=rng.choice(FIELD_FORMS if pick() > progress else ("lazy", "eager", "holder", "instance", "array")),
            accessor=rng.choice(ACCESSOR_FORMS if pick() > progress else ("public_static", "synchronized", "instance", "void")),
        )
        if not c.conforming():
            return c


def _conforming(rng: random.Random) -> Candidate:
    return Candidate(
        ctor=rng.choice(("private", "private", "two_private")),
        field=rng.choice(("lazy", "eager", "volatile", "multi")),
        accessor=rng.choice(("public_static", "public_static", "synchronized", "custom_name")),
    )


def _finish(c: Candidate, rng: random.Random, habit: str, helpers: int) -> Candidate:
    """Add functional behaviour, decoys and size to a structural shape.

    In jdk mode the functional flaw is the model's habit on the task, the same
    in every reply; in mock mode the outcome marker is drawn per reply.
    """
    c.helpers = helpers
    c.decoys = tuple(rng.sample(DECOYS, rng.randint(0, 4)))
    if habit == "mock":
        r = rng.random()
        if r < 0.15:
            c.marker = "MOCK-FAIL"
        elif r < 0.20:
            c.marker = "MOCK-TIMEOUT"
        return c
    if habit == "missing_import":
        c.missing_import = True
    elif habit == "public_class":
        c.public_class = True
    elif habit in ("bad", "type_error", "syntax_error"):
        c.body = habit
    if c.field in ("lazy", "volatile", "multi") and rng.random() < 0.08:
        c.accessor_returns_null = True
    return c


def jdk_habits(rng: random.Random, tasks: int) -> list[str]:
    """Per-task functional flaws, dealt so every outcome kind is planted."""
    deck = ["bad", "bad", "missing_import", "non_code_first",
            rng.choice(("type_error", "syntax_error", "public_class"))]
    deck += ["good"] * max(0, tasks - len(deck))
    rng.shuffle(deck)
    return deck[:tasks]


def reply_sequence(rng: random.Random, habit: str, conform_at: int | None, helpers: int):
    if habit == "non_code_first" and conform_at == 1:
        conform_at = 2  # the first reply is prose, so it cannot conform
    seq: list[Candidate] = []
    for k in range(1, ITERATION_CAP + 1):
        if conform_at == k:
            c = _conforming(rng)
        elif rng.random() < 0.07 or (k == 1 and habit == "non_code_first"):
            c = Candidate(non_code=rng.choice(("prose", "bare_method")))
        else:
            c = _nonconforming(rng, (k - 1) / ITERATION_CAP)
        if not c.non_code:
            c = _finish(c, rng, habit, helpers + rng.randint(0, 2))
        seq.append(c)
        if conform_at == k:
            break
    return conform_at, seq


# --------------------------------------------------------------------------
# Workload assembly.


@dataclass(frozen=True)
class Shape:
    models: int
    tasks: int
    strategies: tuple
    jdk: bool
    sizes: tuple  # (knee, top) in characters, see size_helpers
    faults: bool


SHAPES = {
    "jdk-grid": Shape(1, 10, ("baseline", "predicate_feedback"), True, (2000.0, 6000.0), False),
    "feedback-loop": Shape(2, 16, ALL_STRATEGIES, False, (3000.0, 16000.0), True),
}


def cell_truth(strategy: str, conform_at, seq, planted, down_at) -> dict:
    """Expected record of one (model, strategy, task) cell."""
    cap = 1 if strategy == "baseline" else ITERATION_CAP
    reached = min(cap, conform_at or cap)
    iterations = seq[:reached]
    aborted = down_at is not None and down_at <= reached
    if aborted:
        iterations = seq[: down_at - 1]
    conforming = [i for i, c in enumerate(iterations, 1) if c.conforming()]
    selected = conforming[0] if conforming else len(iterations)
    if aborted:
        outcome = [ABORTED, None]
    else:
        outcome = list(planted[selected - 1])
    return {
        "iterations": len(iterations),
        "verdicts": [c.verdicts() for c in iterations],
        "selected": selected,
        "outcome": outcome,
        "conformed": bool(conforming),
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write tasks.jsonl, replies.json, faults.json and truth.json into out.

    truth.json holds, per (model, task), every reply's planted verdicts and
    outcome and the iteration at which the replies conform; per cell, the
    expected record; and the code extract_code must recover from each reply.
    """
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    funcs = []
    for i in range(shape.tasks):
        func = FUNCS[rng.randrange(len(FUNCS))]
        funcs.append(func)
        tasks.append(make_task(i, func))

    replies: dict[str, dict[str, list[str]]] = {}
    extracted: dict[str, dict[str, list[str]]] = {}
    faults: dict[str, dict] = {}
    cells: dict[str, dict] = {}
    candidates: dict[str, dict] = {}
    for m in range(shape.models):
        model = f"model-{m}"
        replies[model] = {}
        extracted[model] = {}
        habits = jdk_habits(rng, len(tasks)) if shape.jdk else ["mock"] * len(tasks)
        sequences = {}
        strata = work_strata(len(tasks))
        task_strata = [int(cu * len(tasks)) for cu, _ in strata]
        for task, func, habit, (cu, su) in zip(tasks, funcs, habits, strata):
            tid = task["task_id"]
            conform_at, seq = reply_sequence(
                rng, habit, conform_iteration(cu), size_helpers(su, len(tasks), *shape.sizes)
            )
            codes = [render_candidate(c, func, rng) for c in seq]
            replies[model][tid] = [format_reply(code, c, rng) for code, c in zip(codes, seq)]
            extracted[model][tid] = codes
            outcome = jdk_outcome if shape.jdk else mock_outcome
            sequences[tid] = (conform_at, seq, [outcome(c) for c in seq])
            candidates.setdefault(model, {})[tid] = {
                "conform_at": conform_at,
                "replies": [
                    {"verdicts": c.verdicts(), "outcome": list(o)}
                    for c, o in zip(seq, sequences[tid][2])
                ],
            }
        down = {}
        if shape.faults:
            # The same amount fails on every seed: the task on the second
            # slowest conformance stratum goes down halfway through its
            # replies (the cells reaching that request abort), and 8% of the
            # other requests fail 1, 2 or 3 times before they are answered.
            for (tid, (_, seq, _)), stratum in zip(sequences.items(), task_strata):
                if stratum == len(tasks) - 2:
                    down[tid] = max(1, len(seq) // 2)
                    faults[f"{model}|{tid}|{down[tid]}"] = {"down": True}
            keys = [
                (tid, k)
                for tid, (_, seq, _) in sequences.items()
                for k in range(1, len(seq) + 1)
                if tid not in down
            ]
            for i, (tid, k) in enumerate(rng.sample(keys, round(0.08 * len(keys)))):
                statuses = [rng.choice((500, 503, 429)) for _ in range(1 + i % 3)]
                faults[f"{model}|{tid}|{k}"] = {"statuses": statuses}
        for tid, (conform_at, seq, planted) in sequences.items():
            for strategy in shape.strategies:
                cells[f"{model}|{strategy}|{tid}"] = cell_truth(
                    strategy, conform_at, seq, planted, down.get(tid)
                )

    _write(out / "tasks.jsonl", "".join(json.dumps(t, sort_keys=True) + "\n" for t in tasks))
    _write(out / "replies.json", json.dumps(replies, sort_keys=True))
    _write(out / "faults.json", json.dumps(faults, sort_keys=True))
    truth = {
        "workload": workload,
        "seed": seed,
        "models": [f"model-{m}" for m in range(shape.models)],
        "strategies": list(shape.strategies),
        "task_ids": [t["task_id"] for t in tasks],
        "cells": cells,
        "candidates": candidates,
        "extracted": extracted,
    }
    _write(out / "truth.json", json.dumps(truth, sort_keys=True))
    return truth


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
