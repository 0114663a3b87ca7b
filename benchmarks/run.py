"""colsel benchmark: seeded workloads, end-to-end metrics, traced per-layer split.

Usage, from the repository root:

    python3 benchmarks/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 -m pytest benchmarks        # the harness's own tests

Each workload runs in its own worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread, so ``peak_rss_mb`` is per workload.  The
report lists every metric by name with its unit; times are in reference
seconds (see ``worker.py``), with the raw wall times printed beside them.
Its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``,
where ``metrics`` holds the ``end_to_end`` metrics of BENCHMARK.json
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``).  With
``--workload all`` the metric names carry a ``<workload>.`` prefix.
Exits 1, printing no result, if any worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("wide", "large", "oracle")
WORKER_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> Optional[dict]:
    """Run one workload in a fresh process; ``None`` if it failed or timed out."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **PINNED}, cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {workload} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return "null" if value is None else repr(value)


def print_report(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"== workload {workload}  seed {seed}  trace {trace}  "
          f"shape (n,m,l,k)={tuple(result['shape'])}  pool {result['pool']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {_fmt(m['value']):>24} {m['unit']}")
    if "tail" in result:
        t = result["tail"]
        print(f"  req_ms_tail is at percentile {_fmt(t['percentile'])} of N={t['n']}")
    extra = {k: result[k] for k in ("attempted", "failed", "correct", "failures", "report_digest",
                                    "wall_s", "passes", "traced_requests", "raw", "speed") if k in result}
    print("  " + json.dumps(extra, sort_keys=True))


def select_metrics(result: dict, wanted: list[dict], prefix: str = "") -> dict:
    """The metrics BENCHMARK.json lists for this mode, checked for name and unit."""
    out = {}
    for spec in wanted:
        m = result["metrics"][spec["name"]]
        if m["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {m['unit']} != BENCHMARK.json {spec['unit']}")
        out[prefix + spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="colsel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_worker(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print_report(name, args.seed, args.trace, result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update(select_metrics(result, wanted, prefix))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
