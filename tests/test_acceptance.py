"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs too (pytest captures stdout otherwise).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from singletonlab.config import parse_config
from singletonlab.dataset import load_tasks
from singletonlab.gateway import ScriptedModel
from singletonlab.guidance import (
    EXEMPLAR_HEADER,
    ROLE_PROMPT,
    Strategy,
    assess_candidate,
    initial_prompt,
    run_task,
)
from singletonlab.pattern_checker import (
    make_report,
    singleton_score,
)
from singletonlab.reporting import build_summary
from singletonlab.runner import run_experiment
from singletonlab.stats import mcnemar, stars_for, PairedOutcomes
from singletonlab.store import RunStore

from conftest import CORPUS_DIR, JDK_TASKS, MOCK_SCRIPT, MOCK_TASKS, find_jdk

requires_jdk = pytest.mark.skipif(find_jdk() is None, reason="no JDK (javac/java) on PATH")

SMOKE_VARS = ("SINGLETONLAB_SMOKE_ENDPOINT", "SINGLETONLAB_SMOKE_MODEL", "SINGLETONLAB_SMOKE_DATASET")
requires_live_endpoint = pytest.mark.skipif(
    not all(os.environ.get(v) for v in SMOKE_VARS),
    reason=f"optional full-dataset smoke; set {', '.join(SMOKE_VARS)} to enable",
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


# -------------------------------------------------------------- criterion 1 --


def test_criterion_1_checker_fidelity(corpus_labels):
    with criterion(1, "checker fidelity on hand-labeled corpus"):
        files = sorted(CORPUS_DIR.iterdir())
        assert len(files) >= 30
        start = time.perf_counter()
        mismatches = []
        for path in files:
            expected = corpus_labels[path.name]
            report = assess_candidate(path.read_text("utf-8"), None)
            got = {
                "private_constructor": report.private_constructor,
                "instance_field": report.instance_field,
                "global_access_point": report.global_access_point,
            }
            if got != expected:
                mismatches.append((path.name, expected, got))
        elapsed = time.perf_counter() - start
        assert mismatches == [], mismatches
        assert elapsed < 1.0, f"corpus check took {elapsed:.3f}s"


# -------------------------------------------------------------- criterion 2 --


def test_criterion_2_score_semantics():
    with criterion(2, "singleton_score == 100 iff all predicates true"):
        for pc, inst, gap in itertools.product((False, True), repeat=3):
            report = make_report(pc, inst, gap)
            score = singleton_score(report)
            assert (score == 100.0) == (pc and inst and gap)
            assert (score == 100.0) == report.is_singleton()
            assert score == 100.0 * (pc + inst + gap) / 3


# -------------------------------------------------------------- criterion 3 --


def exact_oracle(b: int, c: int) -> Fraction:
    n = b + c
    if n == 0:
        return Fraction(1)
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1))
    return min(Fraction(1), Fraction(2 * tail, 2**n))


def chi_tail_oracle(statistic: float, upper: float = 60.0, steps: int = 200_000) -> float:
    z = math.sqrt(statistic)
    h = (upper - z) / steps
    f = lambda t: 2.0 * math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    s = f(z) + f(upper)
    for i in range(1, steps):
        s += (4 if i % 2 else 2) * f(z + i * h)
    return s * h / 3.0


def test_criterion_3_mcnemar_correctness():
    with criterion(3, "McNemar exact/chi-square p-values and star thresholds"):
        for n in range(0, 25):
            for b in range(n + 1):
                result = mcnemar(PairedOutcomes(0, b, n - b, 0))
                assert result.method == "exact_binomial"
                assert abs(result.p_value - float(exact_oracle(b, n - b))) <= 1e-12

        chi = mcnemar(PairedOutcomes(0, 30, 10, 0))
        assert chi.method == "chi_square_cc"
        assert chi.statistic == pytest.approx(9.025, abs=1e-12)
        assert abs(chi.p_value - 0.00266) <= 0.0005
        assert abs(chi.p_value - chi_tail_oracle(9.025)) <= 0.0005

        epsilon = 1e-12
        assert stars_for(0.05) == ""
        assert stars_for(0.05 - epsilon) == "*"
        assert stars_for(0.01) == "*"
        assert stars_for(0.01 - epsilon) == "**"
        assert stars_for(0.001) == "**"
        assert stars_for(0.001 - epsilon) == "***"


# -------------------------------------------------------------- criterion 4 --

PLAIN = "class Solution {\n    public int f(int x) {\n        return x;\n    }\n}"
CONFORMING = (
    "class Solution {\n"
    "    private static Solution instance;\n"
    "    private Solution() {}\n"
    "    public static Solution getInstance() { return instance; }\n"
    "    public int f(int x) { return x; }\n"
    "}"
)
EXEMPLARS = (
    "class Ex1 { private Ex1(){} private static Ex1 i; public static Ex1 getInstance(){return i;} }",
    "class Ex2 { private Ex2(){} private static Ex2 i; public static Ex2 getInstance(){return i;} }",
)


def test_criterion_4_protocol_fidelity():
    with criterion(4, "verbatim prompt templates, cap 10, early stop"):
        task = load_tasks(MOCK_TASKS).tasks[0]
        exemplar_block = "\n\n" + EXEMPLAR_HEADER + "\n" + EXEMPLARS[0] + "\n\n" + EXEMPLARS[1]

        def strategy_for(kind: str) -> Strategy:
            exemplars = EXEMPLARS if kind == "fewshot_feedback" else ()
            return Strategy(kind, max_iterations=10, exemplars=exemplars)

        role = (
            "You are a Java programmer. You respond with the code in Java to "
            "solve the task. No comments or explanations"
        )
        instruct_open = (
            "The primary class in the following task should follow the "
            "singleton design pattern." + task.description
        )
        expected_initial = {
            "baseline": task.description,
            "instruct": instruct_open,
            "binary_feedback": instruct_open,
            "predicate_feedback": instruct_open,
            "fewshot_feedback": instruct_open + exemplar_block,
        }
        plain_report = assess_candidate(PLAIN, task.expected_class_name)
        errors = "; ".join(plain_report.failed_checks)
        expected_feedback = {
            "instruct": (
                "Make sure that the primary class in the following code "
                "follows the singleton design pattern. " + PLAIN
            ),
            "binary_feedback": (
                "The following code does not include a correctly formatted "
                "Singleton class: " + PLAIN + ". Please correct the code and "
                "return the complete code."
            ),
            "predicate_feedback": (
                "The following code does not include a correctly formatted "
                "Singleton class: " + PLAIN + ". It failed the following "
                "checks " + errors + ". Please correct the code and return "
                "the complete code"
            ),
        }
        expected_feedback["fewshot_feedback"] = (
            expected_feedback["predicate_feedback"] + exemplar_block
        )

        assert ROLE_PROMPT == role
        for kind, expected_user in expected_initial.items():
            messages = initial_prompt(strategy_for(kind), task)
            assert messages[0].role == "system" and messages[0].content == role
            assert messages[1].role == "user" and messages[1].content == expected_user

        fenced = lambda code: f"```java\n{code}\n```"
        for kind, expected in expected_feedback.items():
            record = run_task(
                ScriptedModel([fenced(PLAIN), fenced(CONFORMING)]),
                strategy_for(kind),
                task,
                retries=0,
                backoff_s=0.0,
            )
            assert record.iterations[1].prompt_sent == expected

        # iteration cap: 12 nonconforming responses stop at exactly 10
        record = run_task(
            ScriptedModel([fenced(PLAIN)] * 12),
            strategy_for("binary_feedback"),
            task,
            retries=0,
            backoff_s=0.0,
        )
        assert len(record.iterations) == 10

        # early stop at the first conforming iteration for k in {1, 5, 10}
        for k in (1, 5, 10):
            script = [fenced(PLAIN)] * (k - 1) + [fenced(CONFORMING)] + [fenced(PLAIN)] * 2
            record = run_task(
                ScriptedModel(script),
                strategy_for("predicate_feedback"),
                task,
                retries=0,
                backoff_s=0.0,
            )
            assert len(record.iterations) == k
            assert record.selected_iteration == k
            assert record.iterations[-1].conforming


# -------------------------------------------------------------- criterion 5 --
#
# Hand computation for the fixed script (tests/fixtures/mock_script.json)
# over the 5-task fixture dataset, strategies baseline + binary_feedback +
# predicate_feedback:
#
#   task    baseline outcome      feedback-strategy outcome
#   Java/0  TestFail (marker)     Pass   (conforms at iteration 2)
#   Java/1  TestFail (marker)     Pass   (conforms at iteration 2)
#   Java/2  Pass                  TestFail (conforming candidate carries marker)
#   Java/3  CompileError (prose)  CompileError (prose for all 10 iterations)
#   Java/4  Pass (spontaneous     Pass   (early stop at iteration 1)
#           conforming candidate)
#
#   baseline pass rate  = 2/5 = 40.0          singleton scores: (0,0,0,0,100) -> 20.0
#   strategy pass rate  = 3/5 = 60.0 -> +20.0 singleton scores: (100,100,100,0,100) -> 80.0
#   pairs vs baseline: a=1 (Java/4), b=1 (Java/2), c=2 (Java/0, Java/1), d=1 (Java/3)
#   exact McNemar, n=3: p = min(1, 2*(C(3,0)+C(3,1))/2^3) = 1.0 -> no stars


def mock_config(tmp_path, run_id="acceptance5"):
    return parse_config(
        {
            "run_id": run_id,
            "dataset": {"path": str(MOCK_TASKS)},
            "output_dir": str(tmp_path / "store"),
            "models": [
                {"model_id": "scripted-model", "script_path": str(MOCK_SCRIPT)}
            ],
            "strategies": ["baseline", "binary_feedback", "predicate_feedback"],
            "exec": {"mode": "mock"},
        }
    )


def test_criterion_5_end_to_end_mock_run(tmp_path):
    with criterion(5, "mock end-to-end run and hand-computed report"):
        start = time.perf_counter()
        config = mock_config(tmp_path)
        store = run_experiment(config, log=lambda m: None)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

        grouped = store.load_all()
        assert sum(len(records) for records in grouped.values()) == 15

        summary = build_summary(store)
        assert [m["model_id"] for m in summary["models"]] == ["scripted-model"]
        model = summary["models"][0]
        assert model["baseline_pass_rate"] == pytest.approx(40.0)
        cells = {c["kind"]: c for c in model["strategies"]}
        assert cells["baseline"]["avg_singleton_score"] == pytest.approx(20.0)
        for kind in ("binary_feedback", "predicate_feedback"):
            cell = cells[kind]
            assert cell["pass_rate"] == pytest.approx(60.0)
            assert cell["delta_pp"] == pytest.approx(20.0)
            assert cell["avg_singleton_score"] == pytest.approx(80.0)
            assert (cell["mcnemar"]["b"], cell["mcnemar"]["c"]) == (1, 2)
            assert cell["mcnemar"]["p_value"] == 1.0
            assert cell["mcnemar"]["stars"] == ""
            counts = cell["predicate_counts"]
            assert (
                counts["private_constructor"],
                counts["instance_field"],
                counts["global_access_point"],
            ) == (4, 4, 4)
            outcome = cell["outcomes"]
            assert (outcome["Pass"], outcome["TestFail"], outcome["CompileError"]) == (3, 1, 1)
            assert outcome["compile_error_categories"]["non_code_output"] == 1
        base_counts = cells["baseline"]["predicate_counts"]
        assert (
            base_counts["private_constructor"],
            base_counts["instance_field"],
            base_counts["global_access_point"],
        ) == (1, 1, 1)
        base_outcome = cells["baseline"]["outcomes"]
        assert (base_outcome["Pass"], base_outcome["TestFail"], base_outcome["CompileError"]) == (2, 2, 1)

        # the predicate-feedback transcript for Java/2 names exactly the
        # missing predicate after the partial candidate of iteration 2
        records = store.load_records("scripted-model", "predicate_feedback")
        java2 = next(r for r in records if r.task_id == "Java/2")
        assert len(java2.iterations) == 3
        third_prompt = java2.iterations[2].prompt_sent
        assert "It failed the following checks Instance Field:" in third_prompt
        assert "Private Constructor" not in third_prompt


# -------------------------------------------------------------- criterion 6 --


@requires_jdk
def test_criterion_6_functional_harness(tmp_path, compile_server):
    from singletonlab.exec_harness import (
        COMPILE_ERROR,
        MISSING_EXTERNAL_LIBRARY,
        NON_CODE_OUTPUT,
        PASS,
        TEST_FAIL,
        TIMEOUT,
        evaluate_functionality,
    )

    with criterion(6, "JDK harness outcomes"):
        javac, java = find_jdk()
        taskset = load_tasks(JDK_TASKS)
        rows = {
            json.loads(line)["task_id"]: json.loads(line)
            for line in JDK_TASKS.read_text("utf-8").splitlines()
        }
        assert len(taskset) >= 10
        for task in taskset:
            candidate = task.declaration + rows[task.task_id]["canonical_solution"]
            outcome = evaluate_functionality(
                candidate,
                task,
                30,
                scratch_dir=tmp_path / "ok" / task.task_id.replace("/", "_"),
                javac=javac,
                java=java,
                compiler=compile_server,
            )
            assert outcome.kind == PASS, (task.task_id, outcome.detail)

        add_task = taskset.tasks[0]
        mutated = add_task.declaration + "        return a - b;\n    }\n}\n"
        outcome = evaluate_functionality(
            mutated, add_task, 30, scratch_dir=tmp_path / "mut", javac=javac, java=java,
            compiler=compile_server,
        )
        assert outcome.kind == TEST_FAIL

        prose = "There is no code here, only a description of the algorithm."
        outcome = evaluate_functionality(
            prose, add_task, 30, scratch_dir=tmp_path / "prose", javac=javac, java=java,
            compiler=compile_server,
        )
        assert outcome.kind == COMPILE_ERROR
        assert outcome.compile_error_category == NON_CODE_OUTPUT

        hallucinated = (
            "import org.fictional.helpers.MathKit;\n\n"
            "class Solution {\n"
            "    public int add(int a, int b) { return MathKit.sum(a, b); }\n"
            "}\n"
        )
        outcome = evaluate_functionality(
            hallucinated, add_task, 30, scratch_dir=tmp_path / "lib", javac=javac, java=java,
            compiler=compile_server,
        )
        assert outcome.kind == COMPILE_ERROR
        assert outcome.compile_error_category == MISSING_EXTERNAL_LIBRARY

        budget = 5
        looper = (
            "class Solution {\n"
            "    public int add(int a, int b) {\n"
            "        while (true) { }\n"
            "    }\n"
            "}\n"
        )
        start = time.monotonic()
        outcome = evaluate_functionality(
            looper, add_task, budget, scratch_dir=tmp_path / "loop", javac=javac, java=java,
            compiler=compile_server,
        )
        elapsed = time.monotonic() - start
        assert outcome.kind == TIMEOUT
        assert elapsed < budget + 5


# -------------------------------------------------------------- criterion 7 --


@requires_live_endpoint
def test_criterion_7_full_dataset_smoke(tmp_path):
    with criterion(7, "full-dataset smoke against a live endpoint"):
        config = parse_config(
            {
                "run_id": "smoke",
                "dataset": {"path": os.environ["SINGLETONLAB_SMOKE_DATASET"]},
                "output_dir": str(tmp_path / "smoke-store"),
                "models": [
                    {
                        "model_id": os.environ["SINGLETONLAB_SMOKE_MODEL"],
                        "endpoint": os.environ["SINGLETONLAB_SMOKE_ENDPOINT"],
                        "auth_ref": os.environ.get("SINGLETONLAB_SMOKE_AUTH_REF") or None,
                    }
                ],
                "strategies": ["baseline", "instruct"],
                "exec": {"mode": "mock"},  # scores only; no JDK dependency here
            }
        )
        store = run_experiment(config)
        summary = build_summary(store)
        model = summary["models"][0]
        cells = {c["kind"]: c for c in model["strategies"]}
        assert cells["baseline"]["n_tasks"] == 164
        baseline_score = cells["baseline"]["avg_singleton_score"]
        instruct_score = cells["instruct"]["avg_singleton_score"]
        assert baseline_score < 5.0
        assert instruct_score > baseline_score


# -------------------------------------------------------------- criterion 8 --


def normalized_store_lines(store: RunStore) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for path in sorted(store.records_dir.glob("*.jsonl")):
        rows = []
        for line in path.read_text("utf-8").splitlines():
            row = json.loads(line)
            row["wall_time_ms"] = 0
            rows.append(row)
        out[path.name] = rows
    return out


def test_criterion_8_resume_idempotence(tmp_path):
    with criterion(8, "interrupted run resumes to an identical store"):
        uninterrupted = run_experiment(
            mock_config(tmp_path / "full", run_id="acceptance8"), log=lambda m: None
        )

        seen = 0

        def interrupt_after_first(record):
            nonlocal seen
            seen += 1
            if seen == 1:
                raise KeyboardInterrupt

        resumed_config = mock_config(tmp_path / "resumed", run_id="acceptance8")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(resumed_config, on_record=interrupt_after_first, log=lambda m: None)
        partial_store = RunStore(resumed_config.output_dir)
        assert sum(len(v) for v in partial_store.load_all().values()) >= 1
        resumed = run_experiment(resumed_config, log=lambda m: None)

        assert normalized_store_lines(resumed) == normalized_store_lines(uninterrupted)
        # identical record serialization means only wall_time fields differed
        full_cfg = json.loads((uninterrupted.root / "config.json").read_text("utf-8"))
        resumed_cfg = json.loads((resumed.root / "config.json").read_text("utf-8"))
        full_cfg["config"]["output_dir"] = resumed_cfg["config"]["output_dir"] = ""
        assert full_cfg["config"]["models"] == resumed_cfg["config"]["models"]
        assert full_cfg["config"]["strategies"] == resumed_cfg["config"]["strategies"]
