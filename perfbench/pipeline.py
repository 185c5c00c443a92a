"""One pipeline iteration in a fresh process: ``python3 pipeline.py PLAN``.

PLAN is a JSON file naming the ktrace command lines to run in order, the
workspace they build, a trace level ("off", "light" or "full") and where to
write the result. Every command goes through ``ktrace.cli.main`` in this
process. The result records each command's wall time and exit code; the
time of a fixed calibration kernel run just before each setup and evaluate
command; the peak resident memory; what each probe pass did; and, when
tracing, the stage and layer figures derived from the spans.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def probe_pass(ws: Path) -> dict:
    """What the probe pass that just ended did, read from its workspace files."""
    report = json.loads((ws / "probe_report_llm.json").read_text(encoding="utf-8"))
    cached = prompts = 0
    with open(ws / "probe_audit" / "llm.jsonl", encoding="utf-8") as fh:
        for line in fh:
            prompts += 1
            cached += json.loads(line)["cached"]
    return {
        "prompts": prompts,
        "cached": cached,
        "network_requests": report["network_requests"],
        "unresolved": report["coverage"]["unresolved"],
        "errors": len(report["errors"]),
        "cache_files": sum(1 for _ in (ws / "probe_cache").glob("*.json")),
    }


# The short commands whose times are reported at the reference box's speed.
CALIBRATED_PHASES = ("setup", "evaluate")


def calibrate() -> float:
    """Wall time of a fixed piece of interpreter work: dict updates and a
    JSON round trip, the kind of work setup and evaluate do. It measures how
    fast the host runs this process right now. The garbage collector is off
    while it runs, so the heap the program leaves behind does not change it."""
    gc.disable()
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(40000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    json.loads(json.dumps([[i, str(i), i * 0.5] for i in range(6000)]))
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def layer_metrics(tr: tracing.Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced iteration. Times are in seconds:
    nncore.* are self times, other layers are inclusive call times."""
    self_s = tr.self_seconds()
    by_id = {s.id: s for s in tr.spans}

    def spans(name):
        return tr.by_name(name)

    def total(name, under=None):
        return sum(s.seconds for s in spans(name) if under is None or descends(s, under))

    def own(name, parent=None):
        return sum(
            self_s[s.id] for s in spans(name)
            if parent is None or (s.parent in by_id and by_id[s.parent].name == parent)
        )

    def count(name, key):
        return sum(s.counts.get(key, 0.0) for s in spans(name))

    def descends(span, ancestor):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    m: Dict[str, float] = {"synth.generate_s": total("synth.generate")}
    for name in ("parse_interactions", "filter_and_order", "write_sequences", "read_sequences"):
        m[f"ingest.{name}_s"] = total(f"ingest.{name}")
    m["ingest.rows_parsed"] = count("ingest.parse_interactions", "rows")

    cells = count("dkt.build_batch", "cells")
    m["dkt.build_batch_s"] = total("dkt.build_batch")
    m["dkt.padding_frac"] = 1.0 - count("dkt.build_batch", "valid") / cells if cells else 0.0
    m["dkt.train_steps"] = float(len(spans("nncore.net_loss_and_grads")))
    m["dkt.epochs"] = float(sum(descends(s, "dkt.train") for s in spans("dkt.validation")))
    m["dkt.validation_s"] = total("dkt.validation")
    m["dkt.predict_records_s"] = total("dkt.predict_records")
    m["dkt.predict_forward_calls"] = float(
        sum(descends(s, "dkt.predict_records") for s in spans("nncore.net_forward"))
    )

    m["nncore.embed_lookup_s"] = own("nncore.embed_lookup")
    m["nncore.gru_forward_s"] = own("nncore.gru_forward")
    m["nncore.sigmoid_gate_s"] = own("nncore.sigmoid", parent="nncore.gru_forward")
    m["nncore.gru_backward_s"] = own("nncore.gru_backward")
    m["nncore.embed_lookup_backward_s"] = own("nncore.embed_lookup_backward")
    m["nncore.clip_global_norm_s"] = own("nncore.clip_global_norm")
    m["nncore.adam_update_s"] = own("nncore.adam_update")
    m["nncore.readout_s"] = own("nncore.readout")
    m["nncore.sigmoid_readout_s"] = own("nncore.sigmoid", parent="nncore.readout")
    m["nncore.masked_bce_s"] = own("nncore.masked_bce")
    m["nncore.loss_grad_self_s"] = own("nncore.net_loss_and_grads")
    m["nncore.gru_gflop"] = (count("nncore.gru_forward", "flop") + count("nncore.gru_backward", "flop")) / 1e9
    m["nncore.readout_gflop"] = (
        count("nncore.readout", "flop") + count("nncore.net_loss_and_grads", "readout_flop")
    ) / 1e9
    clips = spans("nncore.clip_global_norm")
    m["nncore.clip_rate"] = count("nncore.clip_global_norm", "clipped") / len(clips) if clips else 0.0

    m["records.write_prediction_dump_s"] = total("records.write_prediction_dump")
    m["records.read_prediction_dump_s"] = total("records.read_prediction_dump")
    m["records.rows"] = count("records.write_prediction_dump", "rows") + count(
        "records.read_prediction_dump", "rows"
    )
    for name in ("roc_auc", "confusion_metrics", "stage_errors", "coherence_report", "heatmap_export"):
        # synth computes an oracle AUC too; only evaluate's calls count here
        m[f"evaluation.{name}_s"] = total(f"evaluation.{name}", under="cli.evaluate")

    m["llmprobe.render_prompt_s"] = total("llmprobe.render_prompt")
    m["llmprobe.prompt_kb"] = count("llmprobe.render_prompt", "bytes") / 1024.0
    m["llmprobe.truncated_prompts"] = count("llmprobe.render_prompt", "truncated")
    m["llmprobe.fetch_s"] = total("llmprobe.fetch")
    m["llmprobe.post_calls"] = float(len(spans("llmprobe.post")))

    for command in ("synth", "prepare", "train", "probe", "evaluate"):
        m[f"cli.{command}_self_s"] = own(f"cli.{command}")
    return m


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    ws = Path(plan["workspace"])
    level = plan["trace"]
    from ktrace import cli

    workloads.share_one_cpu()
    tr = tracing.Tracer()
    if level != "off":
        tracing.install(tr, level)

    commands: List[dict] = []
    for step in plan["commands"]:
        calibration = calibrate() if step["phase"] in CALIBRATED_PHASES else None
        span = tr.begin(f"cli.{step['argv'][0]}") if level == "full" else None
        start = time.perf_counter()
        rc = cli.main(step["argv"])
        end = time.perf_counter()
        if span is not None:
            tr.finish(span)
        entry = {
            "phase": step["phase"], "rc": rc, "start": start, "end": end, "calibration_s": calibration,
        }
        if rc == 0 and step["argv"][0] == "probe":
            entry["probe"] = probe_pass(ws)
        commands.append(entry)
        if rc != 0:
            break
    tr.restore()

    result: dict = {
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_info(),
    }
    if level != "off":
        cold = next((c for c in commands if c["phase"] == "probe_cold"), None)
        result["train_s"] = sum(s.seconds for s in tr.by_name("dkt.train"))
        result["predict_s"] = sum(s.seconds for s in tr.by_name("dkt.predict_records"))
        result["cold_latency_ms"] = [
            1e3 * s.seconds for s in tr.by_name("llmprobe.fetch")
            if cold is not None and cold["start"] <= s.start <= cold["end"]
        ]
    if level == "full":
        result["layers"] = layer_metrics(tr)
        tr.dump(plan["trace_path"])
    Path(plan["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def blas_info() -> str:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return f"{blas.get('name', '?')} {blas.get('version', '?')}, threads={threads}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
