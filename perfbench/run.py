"""rho-tensor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload finite_scan --seed 1 --seconds 25 --trace 0

A run starts fresh single-threaded worker processes one after another
(``worker.py``), each running the seeded request list once, until the next
one would end past ``--seconds`` (at least ``MIN_REPEATS``). The last line of
standard output is the result; the line before it records the environment,
the latency percentile and sample count, the failure rate and the verdicts.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` untraced and traced repeats alternate; the result holds the
per-layer metrics of the traced repeats and the tracing overhead, their
median wall time minus that of the untraced repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import units

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
DEADLINE_S = 150  # a run must end well inside the 180 s it is allowed

# Times are reported at a fixed speed of the worker's probe loop: each
# latency is scaled by REF_PROBE_S over the probe time measured around and
# during it. The 2-vCPU host this benchmark was written on changes speed by
# up to 1.4x for seconds at a time; unscaled, the spread of wall_s over five
# seeds was 25-29%, scaled 2-5%. The unscaled medians are in the record line.
REF_PROBE_S = 0.0003


def child_env(cache_dir: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RHO_TENSOR_THREADS", None)  # keeps scan_all's thread pool from starting
    env["PYTHONHASHSEED"] = "0"
    env["RHO_TENSOR_CACHE"] = str(cache_dir if cache_dir is not None else WORK / "unused-cache")
    return env


def run_repeat(workload: str, seed: int, traced: bool, spans: Path | None, timeout: float) -> dict:
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK)) if workload == "cli_requests" else None
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=child_env(cache_dir), cwd=HERE.parent,
            capture_output=True, text=True, timeout=timeout,
        )
        lifetime = time.monotonic() - t0
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["lifetime_s"] = lifetime
    result["traced"] = traced
    return result


def environment(args) -> dict:
    commit = ""
    if (HERE.parent / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "source_sha256": workloads.source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (workloads.SRC / "rho_tensor" / "__init__.py").is_file():
        print(f"error: library sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced_mode = args.trace == 1
    min_repeats = 2 if traced_mode else workloads.MIN_REPEATS

    started = time.monotonic()
    repeats: list[dict] = []
    while True:
        traced = traced_mode and len(repeats) % 2 == 1
        first_traced = traced and not any(r["traced"] for r in repeats)
        remaining = DEADLINE_S - (time.monotonic() - started)
        try:
            repeats.append(run_repeat(args.workload, args.seed, traced, spans_path if first_traced else None, remaining))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return 1
        elapsed = time.monotonic() - started
        longest = max(r["lifetime_s"] for r in repeats)
        if len(repeats) >= min_repeats and elapsed + longest > min(args.seconds, DEADLINE_S):
            break

    untraced = [r for r in repeats if not r["traced"]]
    traced_runs = [r for r in repeats if r["traced"]]
    attempted = sum(r["attempted"] for r in repeats)
    failures = [f for r in repeats for f in r["failures"]]
    for r in repeats:
        r["scaled"] = [t * REF_PROBE_S / probe for t, probe in zip(r["latencies"], r["probes"])]
    latencies = [t for r in untraced for t in r["scaled"]]
    p = workloads.tail_percentile(args.workload)
    if traced_mode:
        layer_values = {k: statistics.median(r["layers"][k] for r in traced_runs) for k in traced_runs[0]["layers"]}
        overhead = statistics.median(sum(r["scaled"]) for r in traced_runs) - statistics.median(
            sum(r["scaled"]) for r in untraced
        )
        metrics = {k: {"value": v, "unit": units(k)} for k, v in layer_values.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(r["setup_s"] * REF_PROBE_S / r["setup_probe"] for r in untraced),
                "unit": "s",
            },
            "wall_s": {"value": statistics.median(sum(r["scaled"]) for r in untraced), "unit": "s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * workloads.percentile(latencies, p), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in untraced), "unit": "MB"},
        }
    record = {
        "environment": environment(args),
        "repeats": {"untraced": len(untraced), "traced": len(traced_runs)},
        "requests_per_repeat": repeats[0]["attempted"],
        "latency_samples": len(latencies),
        "latency_tail_percentile": p,
        "unscaled_median": {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "probe_s": statistics.median(x for r in untraced for x in r["probes"]),
        },
        "fail_rate": len(failures) / attempted,
        "failures": failures[:20],
        "verdicts_per_repeat": untraced[0]["verdicts"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
