"""The repository benchmark: drives singletonlab's pipeline from outside.

    python3 perfbench/run.py --workload jdk-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it exits with 2 elsewhere. All
inputs are generated from the seed (gen.py) into a temporary directory in
the checkout, which is removed at the end. Each round of the workload runs
in a fresh interpreter (pipeline.py): `run_experiment`, a second
`run_experiment` that resumes over the finished store, then `build_summary`
and `render` in three formats. Set-up therefore includes interpreter start
and package import, and `endpoint_limiter` state never carries over.
Rounds repeat until --seconds of measuring have passed; a few set-up-only
starts are added so `setup_s` is a median of several.

Workloads (see BENCHMARK.json for the reason each exists):
  jdk-grid       exec mode jdk, baseline + predicate_feedback, stub endpoint
                 without latency, test adaptation on.
  feedback-loop  exec mode mock, all five strategies, stub endpoint with a
                 2 ms reply latency and transient 500/503/429 faults plus a
                 few endpoints that stay down (those cells must abort).

--trace 0 prints the end-to-end metrics, --trace 1 runs untraced and traced
rounds alternately and prints the per-layer metrics of the traced ones plus
trace.overhead_share. Every record is checked against the planted answer,
every report against counts made from the ground truth, and the report bytes
must be identical across rounds. The last stdout line is the result object;
the line before it holds the details (mismatches, provenance, percentiles).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402

DEADLINE_S = 170.0  # every run must end within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    stub_latency_ms: float
    min_rounds: int
    setup_samples: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jdk-grid", 0.0, min_rounds=2, setup_samples=4),
        Workload("feedback-loop", 2.0, min_rounds=3, setup_samples=8),
    )
}


class BenchError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="singletonlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so the stub and any round are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "singletonlab" / "__init__.py").is_file():
        print("error: run from the root of a singletonlab checkout (src/singletonlab missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if workload.name == "jdk-grid" and not (shutil.which("javac") and shutil.which("java")):
        print("jdk-grid skipped: javac and java are not on PATH", file=sys.stderr)
        return 3

    scratch = root / ".perfbench_tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    bench = Bench(root, scratch, workload, args)
    try:
        detail, result = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, root: Path, scratch: Path, workload: Workload, args):
        self.root = root
        self.scratch = scratch
        self.workload = workload
        self.args = args
        self.started = time.monotonic()
        self.stub: subprocess.Popen | None = None
        self.port = 0
        self.nproc = os.cpu_count() or 1
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(scratch)
        self.config_count = 0

    # ------------------------------------------------------------ processes
    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def _run(self, argv: list[str], timeout: float) -> subprocess.CompletedProcess:
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1]} did not finish within the run's deadline")
        except BaseException:  # interrupted: leave no child behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def start_stub(self, data: Path) -> str:
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--data", str(data),
             "--latency-ms", str(self.workload.stub_latency_ms), "--threads", str(self.nproc)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise BenchError("stub endpoint did not start")
        self.port = int(line.split()[1])
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stub_call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    # --------------------------------------------------------------- inputs
    def write_config(self, out_dir: Path, endpoint: str) -> Path:
        shape = gen.SHAPES[self.workload.name]
        models = [
            {"model_id": f"model-{m}", "seed": self.args.seed, "endpoint": endpoint}
            for m in range(shape.models)
        ]
        jdk = shape.jdk
        raw = {
            "run_id": f"bench-{self.workload.name}",
            "dataset": {"path": str(self.inputs / "tasks.jsonl")},
            "output_dir": str(out_dir),
            "models": models,
            "strategies": list(shape.strategies),
            "iteration_cap": gen.ITERATION_CAP,
            "exec": {"mode": "jdk" if jdk else "mock", "budget_s": 60, "test_adaptation": jdk,
                     "workers": self.nproc},
            "parallelism": {"tasks": min(2, self.nproc), "per_endpoint": self.nproc if jdk else 1},
            "seed": self.args.seed,
            "retries": 3,
            "backoff_s": 0.002,
        }
        self.config_count += 1
        path = self.scratch / f"config-{self.config_count}.json"
        path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        return path

    def pipeline(self, cfg: Path, tag: str, *, setup_only=False, spans=False) -> dict:
        result_path = self.scratch / f"result-{tag}.json"
        argv = [
            sys.executable, str(HERE / "pipeline.py"), "--config", str(cfg),
            "--result", str(result_path), "--report-dir", str(self.scratch / f"report-{tag}"),
        ]
        if setup_only:
            argv.append("--setup-only")
        if spans:
            argv += ["--trace-spans", str(self.scratch / f"spans-{tag}.jsonl")]
        spawn_t = time.monotonic()
        argv += ["--spawn-t", repr(spawn_t)]
        done = self._run(argv, self.remaining())
        if done.returncode != 0:
            return {"crashed": done.stderr[-2000:]}
        return json.loads(result_path.read_text("utf-8"))

    # ------------------------------------------------------------------ run
    def run(self):
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.inputs = self.scratch / "inputs"
        truth = gen.generate(self.workload.name, self.args.seed, self.inputs)
        self._compile_bytecode()
        provenance = self._provenance()

        endpoint = self.start_stub(self.inputs)
        check = Check(truth)
        setups = []
        for i in range(0 if self.args.trace else self.workload.setup_samples):
            cfg = self.write_config(self.scratch / f"setup-{i}", endpoint)
            r = self.pipeline(cfg, f"setup-{i}", setup_only=True)
            if "crashed" in r:
                raise BenchError(f"set-up failed: {r['crashed']}")
            setups.append(r["setup_end"] - r["spawn_t"])

        rounds, traced, stubs = [], [], {}
        measure_start = time.monotonic()
        k = 0
        while True:
            elapsed = time.monotonic() - measure_start
            if self.args.trace:
                enough = bool(rounds) and bool(traced)
            else:
                enough = len(rounds) >= self.workload.min_rounds
            if enough and elapsed >= self.args.seconds:
                break
            if self.remaining() < 30 and rounds and (traced or not self.args.trace):
                break
            with_spans = bool(self.args.trace) and k % 2 == 1
            cfg = self.write_config(self.scratch / f"round-{k}", endpoint)
            self.stub_call("POST", "/__reset")
            r = self.pipeline(cfg, f"round-{k}", spans=with_spans)
            stubs[k] = self.stub_call("GET", "/__stats")
            r["tag"] = k
            r["records_dir"] = str(self.scratch / f"round-{k}" / "records")
            check.round(r, Path(r["records_dir"]), self.scratch / f"report-round-{k}")
            (traced if with_spans else rounds).append(r)
            k += 1

        detail = {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "provenance": provenance,
            "rounds": len(rounds),
            "traced_rounds": len(traced),
            "cells_per_round": len(truth["cells"]),
        }
        if self.args.trace:
            metrics = self._per_layer(rounds, traced, stubs, detail)
        else:
            metrics = self._end_to_end(rounds, setups, detail)
        detail.update(check.summary())
        result = {
            "correct": check.correct(),
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": metrics,
        }
        return detail, result

    def _compile_bytecode(self) -> None:
        """Fill __pycache__ first: users do not recompile on every start."""
        done = self._run([sys.executable, "-m", "compileall", "-q", str(self.root / "src")], self.remaining())
        if done.returncode != 0:
            raise BenchError(f"compileall failed: {done.stderr[-500:]}")

    def _provenance(self) -> dict:
        info = {
            "nproc": self.nproc,
            "python": platform.python_version(),
            "seed": self.args.seed,
        }
        try:
            info["requests"] = metadata.version("requests")
        except metadata.PackageNotFoundError:
            info["requests"] = None
        for tool in ("java", "javac"):
            if shutil.which(tool):
                done = self._run([tool, "-version"], 30)
                info[f"{tool}_version"] = (done.stderr + done.stdout).strip().splitlines()[0]
            else:
                info[f"{tool}_version"] = None
        return info

    # -------------------------------------------------------------- metrics
    @staticmethod
    def _latencies(r: dict) -> list[float]:
        """Times (ms) of the cells a round completed."""
        return [1000.0 * (b - a) for a, b in r["cells"].values() if b > 0]

    def _end_to_end(self, rounds: list[dict], setups: list[float], detail: dict) -> dict:
        ok = [r for r in rounds if "crashed" not in r]
        if not ok:
            raise BenchError("every round crashed: " + rounds[0]["crashed"])
        setups = setups + [r["setup_end"] - r["spawn_t"] for r in ok]
        latencies, rates, cpu, rss, child_rss = [], [], [], [], []
        for r in ok:
            times = self._latencies(r)
            cells = len(times)
            latencies += times
            rates.append(cells / (r["end"] - r["setup_end"]))
            cpu.append(r["cpu_timed_ms"] / max(cells, 1))
            rss.append(r["peak_rss_kb"] / 1024.0)
            child_rss.append(r["child_peak_rss_kb"] / 1024.0)
        per_round = len(latencies) // len(ok)
        tail_p = analysis.tail_percentile(per_round * self.workload.min_rounds)
        detail.update(
            {
                "cell_tail_percentile": tail_p,
                "cell_samples": len(latencies),
                "setup_samples": len(setups),
                "child_peak_rss_mb": analysis.median(child_rss),
                "cells_per_s_by_round": rates,
                "setup_s_samples": setups,
            }
        )

        def metric(value, unit):
            return {"value": value, "unit": unit}

        return {
            "setup_s": metric(analysis.median(setups), "s"),
            "cells_per_s": metric(analysis.median(rates), "1/s"),
            "cell_p50_ms": metric(analysis.median(latencies), "ms"),
            "cell_tail_ms": metric(analysis.percentile(latencies, tail_p), "ms"),
            "cpu_ms_per_cell": metric(analysis.median(cpu), "ms"),
            "peak_rss_mb": metric(analysis.median(rss), "MB"),
        }

    def _per_layer(self, rounds, traced, stubs, detail) -> dict:
        ok = [r for r in rounds if "crashed" not in r]
        ok_traced = [r for r in traced if "crashed" not in r]
        if not ok or not ok_traced:
            raise BenchError("no complete traced and untraced round pair")
        collected: dict[str, list[float]] = {}
        for r in ok_traced:
            spans_path = self.scratch / f"spans-round-{r['tag']}.jsonl"
            m = analysis.trace_metrics(analysis.read_spans(spans_path), r, len(self._latencies(r)))
            m.update(self._round_counts(r, stubs.get(r["tag"]), m))
            for name, value in m.items():
                collected.setdefault(name, []).append(value)
        self._keep_trace(spans_path)
        # The accounting adds up within one round, so it is shown for the
        # last traced round, the one whose spans are kept.
        accounted = sum(m[f"{layer}.self_ms"] for layer in analysis.LAYERS)
        accounted += sum(m[f"trace.{w}_ms"] for w in analysis.WAITS) + m["trace.python_start_ms"]
        detail["trace_accounting"] = {
            "wall_ms": m["trace.wall_ms"],
            "layers_plus_waits_ms": accounted,
            "unexplained_ms": m["trace.unexplained_ms"],
        }
        metrics = {name: analysis.median(values) for name, values in collected.items()}
        walls = [analysis.median([r["end"] - r["spawn_t"] for r in rs]) for rs in (ok_traced, ok)]
        metrics["trace.overhead_share"] = walls[0] / walls[1]
        detail["trace_wall_s"] = {"traced": walls[0], "untraced": walls[1]}
        for name in ("gateway.backoff_ms", "gateway.complete_total_ms"):
            metrics.pop(name)
        return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())}

    def _round_counts(self, r: dict, stub: dict | None, m: dict) -> dict:
        records = gate.load_records(Path(r["records_dir"]))
        its = [len(rec["iterations"]) for rec in records.values()]
        conformed = [
            any(it["conforming"] for it in rec["iterations"]) for rec in records.values()
        ]
        size = sum(p.stat().st_size for p in Path(r["records_dir"]).glob("*.jsonl"))
        out = {
            "guidance.iterations_per_cell": analysis.mean(its),
            "guidance.conform_ratio": analysis.mean(conformed),
            "store.bytes_per_record": size / max(len(records), 1),
            "gateway.attempts": 0,
            "gateway.retry_share": 0.0,
            "gateway.client_overhead_ms": 0.0,
            "gateway.request_kb": 0.0,
        }
        if stub and stub["log"] and m["gateway.calls"]:
            log = stub["log"]
            attempts = len(log)
            server_ms = sum(entry[2] for entry in log)
            out["gateway.attempts"] = attempts
            out["gateway.retry_share"] = (attempts - m["gateway.calls"]) / attempts
            out["gateway.client_overhead_ms"] = (
                m["gateway.complete_total_ms"] - server_ms - m["gateway.backoff_ms"]
            ) / m["gateway.calls"]
            out["gateway.request_kb"] = sum(entry[3] for entry in log) / attempts / 1024.0
        return out

    def _keep_trace(self, spans_path: Path) -> None:
        """The last traced round's spans stay in .perfbench_out/ for reading."""
        keep = self.root / ".perfbench_out"
        keep.mkdir(exist_ok=True)
        shutil.copyfile(spans_path, keep / f"{self.workload.name}-seed{self.args.seed}-spans.jsonl")


def _unit(name: str) -> str:
    if name.endswith("_ms") or ".render_ms." in name or name == "stats.ms":
        return "ms"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "share"
    return {
        "source_model.kb_per_s": "KB/s",
        "store.load_mb_per_s": "MB/s",
        "gateway.request_kb": "KB",
        "store.bytes_per_record": "bytes",
        "exec_harness.child_peak_rss_mb": "MB",
    }.get(name, "count")


class Check:
    """Accumulates the correctness gate over a run's rounds."""

    def __init__(self, truth: dict):
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []
        self.problems: list[str] = []
        self.report_bytes: set = set()

    def round(self, r: dict, records_dir: Path, report_dir: Path) -> None:
        cells = len(self.truth["cells"])
        self.attempted += cells
        if "crashed" in r:
            self.failed += cells
            self.problems.append("round crashed: " + r["crashed"][-500:])
            return
        found = gate.check_records(gate.load_records(records_dir), self.truth)
        self.failed += len(found)
        for m in found:
            if m["cell"] not in {x["cell"] for x in self.mismatches}:
                self.mismatches.append(m)
        texts = tuple((report_dir / f"report.{fmt}").read_text("utf-8") for fmt in ("text", "csv", "json"))
        self.report_bytes.add(texts)
        for p in gate.check_summary(texts[2], self.truth):
            if p not in self.problems:
                self.problems.append(p)

    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and len(self.report_bytes) <= 1

    def summary(self) -> dict:
        return {
            "error_share": self.failed / self.attempted if self.attempted else 0.0,
            "mismatched_cells": self.mismatches,
            "mismatched_cell_count": len(self.mismatches),
            "summary_problems": self.problems,
            "report_bytes_identical": len(self.report_bytes) <= 1,
        }


if __name__ == "__main__":
    sys.exit(main())
