"""Benchmark of the ktrace pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload proxy-k149 --seed 1 --seconds 60 --trace 0

Run from the root of a ktrace checkout. Workloads, metric names and units
are those of BENCHMARK.json. The inputs are generated from ``--seed``;
each pipeline iteration runs the workload's ktrace commands through
``ktrace.cli.main`` in a fresh process against a fresh workspace, and
iterations repeat for about ``--seconds`` seconds. After each iteration the
outputs are checked (see checks.py); a failed check or command counts as a
failed operation.

``--trace 0`` runs untraced and reports the end-to-end metrics as medians
over the iterations: pipeline_s as wall time, setup_s and evaluate_s as
wall times scaled to the reference box's speed by a calibration kernel run
just before each of those commands. ``--trace 1``
alternates untraced and traced iterations: the untraced ones give the stage
rates, the traced ones the per-layer spans (written to .perfbench/traces/),
and their artifacts must hash identically. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS runs with one thread; with the probe's two connections, no phase asks
for more threads or connections than the two cores of the reference box.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# One BLAS thread; with the probe's two connections no phase exceeds 2 cores.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; an iteration that hangs is cut before that.
RUN_DEADLINE_S = 170
# Median time of pipeline.calibrate() on the reference box; setup_s and
# evaluate_s are reported at that box's speed (see Iteration.scaled_times).
REFERENCE_CALIBRATION_S = 0.024


class Inputs:
    """Everything one run derives from its seed before timing starts."""

    def __init__(self, w: workloads.Workload, seed: int, run_dir: Path):
        from ktrace import synth

        self.corpus = synth.generate(workloads.generative_spec(w, seed))
        self.raw_path: Optional[Path] = None
        if w.setup == "prepare":
            self.raw_path = run_dir / "log.csv"
            self.sequences = workloads.write_assistments_csv(self.raw_path, self.corpus, seed)
        else:
            self.sequences = {s.user_id: s.steps for s in self.corpus.sequences}
        self.lengths = {u: len(steps) for u, steps in self.sequences.items()}
        self._oracle_auc: Dict[tuple, float] = {}

    def oracle_auc(self, test_users: List[str]) -> float:
        """synth.oracle_auc over the workspace's test split."""
        from ktrace import synth

        key = tuple(test_users)
        if key not in self._oracle_auc:
            by_user = dict(zip(self.sequences, self.corpus.sequences))
            self._oracle_auc[key] = synth.oracle_auc(self.corpus, [by_user[u] for u in test_users])
        return self._oracle_auc[key]


@contextlib.contextmanager
def mock_endpoint():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "mock_endpoint.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        url = proc.stdout.readline().strip()
        if not url:
            raise RuntimeError("mock endpoint did not start")
        yield url
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def window_targets(length: int, max_t: int) -> int:
    """Valid next-step targets of one student under max_t windowing."""
    chunks = [min(max_t, length - i) for i in range(0, length, max_t)]
    return sum(c - 1 for c in chunks if c >= 2)


class Iteration:
    """One pipeline iteration: run it, check it, derive its figures."""

    def __init__(self, w, seed, inputs: Inputs, endpoint, run_dir: Path, index: int, level: str):
        self.w, self.inputs, self.level = w, inputs, level
        self.dir = run_dir / f"iter{index}"
        self.ws = self.dir / "ws"
        self.dir.mkdir(parents=True)
        config_path = self.dir / "config.json"
        workloads.write_json(
            config_path,
            workloads.run_config(w, seed, self.ws, list(inputs.sequences), inputs.raw_path, endpoint),
        )
        self.plan = {
            "workspace": str(self.ws),
            "trace": level,
            "commands": workloads.commands(w, config_path, passes=level == "off"),
            "result_path": str(self.dir / "result.json"),
            "trace_path": str(OUT / "traces" / f"{w.name}-seed{seed}-iter{index}.jsonl"),
        }
        self.errors: List[str] = []
        self.checks_run = 0
        self.result: dict = {"commands": []}
        self.hashes: Dict[str, str] = {}
        self.figures: Dict[str, float] = {}

    def run(self, timeout: float) -> None:
        plan_path = self.dir / "plan.json"
        workloads.write_json(plan_path, self.plan)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pipeline.py"), str(plan_path)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
            if proc.returncode != 0:
                self.errors.append(f"pipeline process exited {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                self.result = json.loads(Path(self.plan["result_path"]).read_text(encoding="utf-8"))
        except subprocess.TimeoutExpired:
            self.errors.append(f"pipeline iteration exceeded {timeout:.0f} s")
        for c in self.result["commands"]:
            if c["rc"] != 0:
                self.errors.append(f"ktrace {c['phase']} exited {c['rc']}")
        self.check()
        if not self.errors:
            self.figures = self.end_to_end()
            if self.level == "light":
                self.figures.update(self.stage_rates())
            elif self.level == "full":
                self.figures.update(self.layers())

    # -- correctness ------------------------------------------------------------

    def check(self) -> None:
        ws, w = self.ws, self.w
        todo = [
            lambda: checks.check_rows(ws, w.model, self.inputs.lengths),
            lambda: checks.check_auc(ws, w.model),
        ]
        if "oracle" in w.tags:
            todo.append(lambda: checks.check_oracle_auc(ws, self.oracle_auc()))
        if w.probe:
            todo.append(lambda: checks.check_probe_values(ws, self.inputs.sequences))
            todo.append(lambda: checks.check_probe_passes(self.probe_passes()))
        for fn in todo:
            self.checks_run += 1
            try:
                message = fn()
            except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
                message = f"check could not read its inputs: {exc!r}"
            if message:
                self.errors.append(message)
        self.hashes = checks.artifact_hashes(ws)

    def oracle_auc(self) -> float:
        return self.inputs.oracle_auc(checks.held_out_users(self.ws))

    def probe_passes(self) -> List[dict]:
        return [c["probe"] for c in self.result["commands"] if "probe" in c]

    # -- figures ------------------------------------------------------------------

    @staticmethod
    def seconds(command: dict) -> float:
        return command["end"] - command["start"]

    def times(self, phase: str) -> List[float]:
        return [self.seconds(c) for c in self.result["commands"] if c["phase"] == phase]

    def scaled_times(self, phase: str) -> List[float]:
        """Wall times at the reference box's speed: each command's wall time
        times REFERENCE_CALIBRATION_S over the calibration run just before it."""
        return [
            self.seconds(c) * REFERENCE_CALIBRATION_S / c["calibration_s"]
            for c in self.result["commands"] if c["phase"] == phase
        ]

    def calibrations(self) -> List[float]:
        return [c["calibration_s"] for c in self.result["commands"] if c["calibration_s"] is not None]

    def end_to_end(self) -> Dict[str, float]:
        """Setup and the median evaluate pass, at the reference speed and as
        wall times; the pipeline as the wall time of the commands from setup
        up to the first evaluate pass."""
        cmds = self.result["commands"]
        first_eval = min(i for i, c in enumerate(cmds) if c["phase"] == "evaluate")
        return {
            "setup_s": self.scaled_times("setup")[0],
            "setup_wall_s": self.times("setup")[0],
            "pipeline_s": sum(self.seconds(c) for c in cmds[:first_eval + 1]),
            "evaluate_s": statistics.median(self.scaled_times("evaluate")),
            "evaluate_wall_s": statistics.median(self.times("evaluate")),
            "peak_rss_mb": self.result["peak_rss_mb"],
        }

    def stage_rates(self) -> Dict[str, float]:
        """Stage rates of an untraced iteration; 0 for a stage the workload skips."""
        ws, w, r = self.ws, self.w, self.result
        split = json.loads((ws / "split.json").read_text(encoding="utf-8"))
        out = dict.fromkeys(
            ("train_targets_per_s", "predict_records_per_s", "probe_cold_prompts_per_s",
             "probe_warm_prompts_per_s", "probe_error_rate"), 0.0)
        if w.train:
            log = json.loads((ws / "training_log.json").read_text(encoding="utf-8"))
            targets = sum(
                window_targets(self.inputs.lengths[u], w.max_t) for u in split["train"] + split["val"]
            )
            out["train_targets_per_s"] = targets * len(log["epochs"]) / r["train_s"]
            rows = sum(2 * self.inputs.lengths[u] - 1 for u in split["test"])
            out["predict_records_per_s"] = rows / r["predict_s"]
        if w.probe:
            passes = self.probe_passes()
            prompts = passes[0]["prompts"]
            out["probe_cold_prompts_per_s"] = prompts / self.times("probe_cold")[0]
            out["probe_warm_prompts_per_s"] = prompts / statistics.median(self.times("probe_warm"))
            failed = sum(p["unresolved"] + p["errors"] for p in passes)
            out["probe_error_rate"] = failed / sum(p["prompts"] for p in passes)
        out["auc_gap"] = self.oracle_auc() - checks.metrics_auc(ws, w.model)
        return out

    def layers(self) -> Dict[str, float]:
        """Per-layer figures of a traced iteration, with the probe's counts
        read from its workspace."""
        out = dict(self.result["layers"])
        passes = self.probe_passes()
        requests = sum(p["network_requests"] for p in passes)
        prompts = sum(p["prompts"] for p in passes)
        out["llmprobe.network_requests"] = float(requests)
        out["llmprobe.retries"] = requests - out.pop("llmprobe.post_calls")
        out["llmprobe.cache_hit_frac"] = sum(p["cached"] for p in passes) / prompts if prompts else 0.0
        out["llmprobe.cache_files"] = float(passes[-1]["cache_files"]) if passes else 0.0
        return out

    def operations(self) -> tuple:
        """(attempted, failed): commands, checks and probe prompts."""
        passes = self.probe_passes()
        attempted = len(self.plan["commands"]) + self.checks_run + sum(p["prompts"] for p in passes)
        failed = len(self.errors) + sum(p["unresolved"] + p["errors"] for p in passes)
        failed += len(self.plan["commands"]) - len(self.result["commands"])
        return attempted, failed


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(its: List[Iteration]) -> Dict[str, float]:
    """Medians over the iterations, and over all evaluate passes for the
    evaluate times."""
    out = {k: statistics.median(it.figures[k] for it in its) for k in its[0].figures}
    out["evaluate_s"] = statistics.median(x for it in its for x in it.scaled_times("evaluate"))
    out["evaluate_wall_s"] = statistics.median(x for it in its for x in it.times("evaluate"))
    out["calibration_s"] = statistics.median(x for it in its for x in it.calibrations())
    return out


def summarize(done: List[Iteration], trace: bool) -> Dict[str, float]:
    """Medians over iterations: end-to-end figures untraced; stage rates
    from the untraced and layer figures from the traced iterations of a
    trace run."""
    if not trace:
        return end_to_end(done)
    untraced = [it for it in done if it.level == "light"]
    traced = [it for it in done if it.level == "full"]
    out = {k: statistics.median(it.figures[k] for it in traced) for k in traced[0].figures}
    out.update(end_to_end(untraced))
    latencies = [ms for it in untraced for ms in it.result["cold_latency_ms"]]
    out["probe_cold_latency_p50_ms"] = percentile(latencies, 0.50) if latencies else 0.0
    out["probe_cold_latency_p99_ms"] = percentile(latencies, 0.99) if latencies else 0.0
    out["trace_overhead_frac"] = (
        statistics.median(it.figures["pipeline_s"] for it in traced)
        / statistics.median(it.figures["pipeline_s"] for it in untraced) - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    launched = time.perf_counter()

    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "ktrace" / "cli.py", ROOT / "tests" / "mockllm.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a ktrace checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[args.workload]
    run_dir = OUT / "work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    levels = ["light", "full"] if args.trace else ["off"]

    done: List[Iteration] = []
    try:
        inputs = Inputs(w, args.seed, run_dir)
        endpoint = mock_endpoint() if w.probe else contextlib.nullcontext()
        with endpoint as url:
            start = time.perf_counter()
            durations: List[float] = []
            while True:
                t0 = time.perf_counter()
                it = Iteration(w, args.seed, inputs, url, run_dir, len(done), levels[len(done) % len(levels)])
                it.run(timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - launched)))
                shutil.rmtree(it.dir, ignore_errors=True)
                done.append(it)
                durations.append(time.perf_counter() - t0)
                if not it.errors:
                    figures = ", ".join(
                        f"{k} {it.figures[k]:.4g}" for k in ("setup_wall_s", "pipeline_s", "evaluate_wall_s")
                    )
                    print(f"perfbench: iteration {len(done) - 1} ({it.level}): {figures}", file=sys.stderr)
                elapsed = time.perf_counter() - start
                if it.errors or (
                    len(done) >= len(levels) and elapsed + statistics.median(durations) > args.seconds
                ):
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [f"iteration {i} ({it.level}): {e}" for i, it in enumerate(done) for e in it.errors]
    attempted, failed = (sum(ops) for ops in zip(*(it.operations() for it in done)))
    attempted += 1  # the artifacts of every iteration hash identically
    if any(it.hashes != done[0].hashes for it in done):
        errors.append("artifacts differ between iterations of the same inputs")
        failed += 1
    for message in errors:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps([{"level": it.level, "commands": it.result["commands"]} for it in done]),
        encoding="utf-8",
    )
    section = spec["per_layer" if args.trace else "end_to_end"]
    values = {} if errors else summarize(done, bool(args.trace))
    metrics = {
        m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]} for m in section
    }
    blas = done[0].result.get("blas", "?") if done else "?"
    print(
        f"perfbench: {w.name} seed={args.seed} trace={args.trace}: {len(done)} iterations "
        f"({', '.join(it.level for it in done)}); {w.n_students} students, K={w.k}; "
        f"BLAS {blas}; nproc={os.cpu_count()}"
        + (f"; probe delay {workloads.PROBE_DELAY_MS} ms, {workloads.PROBE_CONCURRENCY} connections"
           if w.probe else "")
    )
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
