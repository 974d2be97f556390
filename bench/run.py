"""Run the dtry benchmark: ``python3 bench/run.py --workload NAME --seed N``.

Each workload runs in processes of its own (see worker.py): PROBES
set-up-only processes, then one that sets up again and measures. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn and ends with one such
object for all of them. The exit code is 1 when any op other than a named
hostile input gave a wrong result. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORKLOADS
from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
PROBES = 2
WORKER_TIMEOUT_S = 170
# The nominal run length. A run measures a fixed number of passes per
# workload (PASSES in each workload module), 15 to 35 s on a 2-vCPU host.
RUN_SECONDS = 30

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: name -> (span name, what to read). "self" is self
# seconds summed over the pass, "calls" the span count, "amount" the
# amount recorded with the spans (record entries, scanned lines).
PER_LAYER = {
    "paths.parse_s": ("paths.parse", "self"),
    "paths.parse_calls": ("paths.parse", "calls"),
    "paths.is_prefix_of_s": ("paths.is_prefix_of", "self"),
    "paths.is_prefix_of_calls": ("paths.is_prefix_of", "calls"),
    "core.insert_s": ("core.insert", "self"),
    "core.insert_calls": ("core.insert", "calls"),
    "core.record_init_s": ("core.record_init", "self"),
    "core.record_builds": ("core.record_init", "calls"),
    "core.record_entries_built": ("core.record_init", "amount"),
    "core.from_path_map_s": ("core.from_path_map", "self"),
    "core.lookup_s": ("core.lookup", "self"),
    "core.lookup_calls": ("core.lookup", "calls"),
    "core.filter_s": ("core.filter", "self"),
    "core.flatten_s": ("core.flatten", "self"),
    "core.map_values_s": ("core.map_values", "self"),
    "core.path_map_s": ("core.path_map", "self"),
    "core.path_map_calls": ("core.path_map", "calls"),
    "core.merge_disjoint_s": ("core.merge_disjoint", "self"),
    "formats.scan_flat_s": ("formats.scan_flat", "self"),
    "formats.scan_lines": ("formats.scan_flat", "amount"),
    "formats.parse_flat_s": ("formats.parse_flat", "self"),
    "formats.parse_nested_s": ("formats.parse_nested", "self"),
    "formats.emit_flat_s": ("formats.emit_flat", "self"),
    "formats.emit_nested_s": ("formats.emit_nested", "self"),
    "formats.diagnostics": ("formats.diagnostic", "calls"),
    "cli.validate_s": ("cli.validate", "self"),
    "cli.convert_s": ("cli.convert", "self"),
    "cli.get_s": ("cli.get", "self"),
    "cli.merge_s": ("cli.merge", "self"),
    "cli.check_s": ("cli.check", "self"),
    "fincat.dtryobj_of_s": ("fincat.dtryobj_of", "self"),
    "fincat.dtryobj_check_s": ("fincat.dtryobj_check", "self"),
    "fincat.dtrymor_check_s": ("fincat.dtrymor_check", "self"),
    "fincat.compose_mor_s": ("fincat.compose_mor", "self"),
    "fincat.mu_obj_s": ("fincat.mu_obj", "self"),
    "fincat.mu_mor_s": ("fincat.mu_mor", "self"),
    "fincat.algebra_eval_mor_s": ("fincat.algebra_eval_mor", "self"),
    "fincat.truncate_s": ("fincat.truncate", "self"),
    "fincat.validate_s": ("fincat.validate", "self"),
    "fincat.from_json_s": ("fincat.from_json", "self"),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _environment() -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dtry").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest()[:16],
    }


def _worker(mode, workload, seed):
    """Start one worker process and wait for it; return (result, scaled set-up seconds).

    Set-up time runs from starting the process to its first timed op and
    is scaled to the reference speed like the op times (see
    ``worker.measure``), by the reference work run at the start and at the
    end of set-up.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - started) * REFERENCE_S / result["setup_reference_s"]


def end_to_end_metrics(workload, seed):
    setups = [_worker("probe", workload, seed)[1] for _ in range(PROBES)]
    result, setup = _worker("measure", workload, seed)
    setups.append(setup)
    ops, passes = result["ops_per_pass"], result["passes"]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_eps": result["entries"] / result["scaled_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p90_ms": result["latency_p90_ms"],
        "fail_ratio": result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    median_of = f"{ops} ops, each the median of {passes} passes"
    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "throughput_eps": f"{result['entries']} entries over {median_of}",
        "latency_p50_ms": median_of,
        "latency_p90_ms": median_of,
        "fail_ratio": f"{result['failed']}/{result['attempted']} ops",
        "peak_rss_mb": f"1 process; {result['ready_peak_rss_mb']:.1f} MB at the end of set-up",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    host = (
        f"host speed: reference work {result['reference_mean_s'] * 1e3:.3f} ms on average "
        f"(scaled to {REFERENCE_S * 1e3:.3f} ms); {passes} passes took {result['wall_s']:.1f} s, "
        f"{result['busy_s']:.1f} s of it in ops"
    )
    return result, metrics, samples, host


def per_layer_metrics(result):
    stats = result["stats"]
    index = {"self": 1, "calls": 0, "amount": 2}
    metrics = {}
    for name, (span, kind) in PER_LAYER.items():
        value = stats[span][index[kind]] if span in stats else 0
        metrics[name] = {"value": value, "unit": _unit(name)}
    inserts = metrics["core.insert_calls"]["value"]
    metrics["core.build_copy_ratio"] = {
        "value": result["insert_entries"] / inserts if inserts else 0.0,
        "unit": "ratio",
    }
    metrics["trace.overhead_ratio"] = {"value": result["overhead_ratio"], "unit": "ratio"}
    samples = {name: f"{result['attempted']} ops, {result['spans']} spans" for name in metrics}
    return metrics, samples


def run_workload(workload, seed, traced, env):
    host = None
    if traced:
        result, _ = _worker("trace", workload, seed)
        metrics, samples = per_layer_metrics(result)
    else:
        result, metrics, samples, host = end_to_end_metrics(workload, seed)
    correct = not result["unexpected"] and result.get("outputs_match", True)
    print(f"workload {workload}  seed {seed}  trace {int(traced)}")
    print(f"  env {json.dumps(env)}")
    if host:
        print(f"  {host}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']:6s} (n = {samples[name]})")
    if result["hostile_failed"]:
        print(f"  hostile inputs failed: {json.dumps(result['hostile_failed'], sort_keys=True)}")
    for detail in result["unexpected"]:
        print(f"  UNEXPECTED FAILURE {detail}")
    if traced:
        print(f"  traced outputs match untraced: {result['outputs_match']}")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _combined(summaries):
    """One result for several workloads; metric names get the workload as prefix."""
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, s in summaries.items()
            for name, metric in s["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=int,
        choices=(RUN_SECONDS,),
        default=RUN_SECONDS,
        help="the run length; accepted only as the fixed value",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dtry" / "__init__.py").is_file():
        print(f"error: no dtry sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for workload in workloads:
            summaries[workload] = run_workload(workload, args.seed, bool(args.trace), env)
            print(json.dumps(summaries[workload]))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) > 1:
        print(json.dumps(_combined(summaries)))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
