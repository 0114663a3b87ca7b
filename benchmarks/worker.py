"""One workload in one process: set-up, the timed closed loop, checks and metrics.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread.  Prints
one JSON object on its last line of standard output and exits 0; exits 2
when the package sources are missing.

Load model: a closed loop with one client and one request in flight.
Request ``i`` runs instance ``i mod pool``, and the loop makes whole
passes over the pool until ``--seconds`` have passed, so that every
instance has the same weight in the metrics whatever the speed.  With
``--trace 1`` each instance runs untraced and then traced.

Set-up is timed ``SETUP_REPEATS`` times and reported as the median.  Its
warm-up request runs a fixed instance that no seed changes.

Times are reported in reference seconds.  The machines this runs on are
shared, and their speed drifts by a fifth or more over minutes, which
moves every wall time with it.  So after each set-up and each request
the worker times a fixed calibration slice (Python arithmetic plus tiny
LAPACK calls, the mix the package itself runs), and scales each set-up's
and each request's wall time by ``CALIBRATION_REF_S`` over the median of
the slices taken around it.  Per-layer times use the median slice of the
run.  The raw wall times and the run's
median factor are reported next to the scaled metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import latency
import spans
from workloads import WORKLOADS, Runner, Workload, check, generate, warmup_instance, write_inputs

SETUP_REPEATS = 25
# The traced run cycles through this many instances (or the whole pool if
# smaller), in whole passes, so that per-request counts repeat exactly.
TRACED_INSTANCES = 32
# Timed phases stop here even if a pass is unfinished, so a run ends well
# inside its time limit whatever the per-request cost.
MAX_TIMED_S = 120.0
MODULES = ("linalg", "poly", "expected_charpoly", "selector", "oracle", "cli")

# Time of one calibration slice at the reference speed: about its median
# on the 2-vCPU Intel Xeon (2.1 GHz) machine the benchmark was defined on.
CALIBRATION_REF_S = 0.008
# A request's speed factor comes from the slices this many requests either side.
CALIBRATION_WINDOW = 2
_CAL_COEFFS = (0.3, -1.2, 2.0, -1.7, 0.8, -0.2, 1.0)
_CAL_SYM = np.add.outer(np.arange(6.0), np.arange(6.0)) / 7.0 + np.eye(6)
_CAL_WIDE = np.cos(np.arange(28.0)).reshape(4, 7)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_frac": "ratio",
    "ok_req_per_s": "1/s",
    "req_ms_p50": "ms",
    "req_ms_tail": "ms",
    "frob_ratio_p50": "ratio",
    "spec_ratio_p50": "ratio",
    "opt_gap_p50": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    idx: int
    seconds: float
    output: Optional[bytes]
    error: Optional[str]


def import_colsel(src: Path) -> SimpleNamespace:
    """Import the package afresh from ``src`` (module code runs again each time)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "colsel" or m.startswith("colsel.")]:
        del sys.modules[name]
    package = importlib.import_module("colsel")
    if Path(package.__file__).resolve().parent != (src / "colsel").resolve():
        raise ImportError(f"colsel was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"colsel.{m}") for m in MODULES}
    )


def timed(
    call: Callable[[], bytes], clock: Callable[[], float]
) -> tuple[float, Optional[bytes], Optional[str]]:
    """Run one request; any exception is that request's failure."""
    t0 = clock()
    try:
        out, err = call(), None
    except Exception as exc:  # request boundary: record the failure and go on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return clock() - t0, out, err


def calibration_slice() -> float:
    """Wall time of a fixed slice of work that depends on nothing in the package."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2800):
        x, v = i * 1e-3, 0.0
        for c in reversed(_CAL_COEFFS):
            v = v * x + c
        acc += v
    for _ in range(280):
        np.linalg.eigvalsh(_CAL_SYM)
        np.linalg.svd(_CAL_WIDE, compute_uv=False)
    return time.perf_counter() - t0


def speed_factors(slices: list[float]) -> list[float]:
    """``CALIBRATION_REF_S`` over the median slice time around each slice."""
    k = CALIBRATION_WINDOW
    return [
        CALIBRATION_REF_S / statistics.median(slices[max(0, i - k) : i + k + 1])
        for i in range(len(slices))
    ]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def code_key(src: Path) -> str:
    """Digest of the package sources and the numeric stack they run on."""
    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    for path in sorted((src / "colsel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Report digests per instance, kept across runs of the same code and seed."""

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = {}
        if path.exists():
            self.known = json.loads(path.read_text())

    def save(self, digests: dict[int, str]) -> None:
        self.known.update({str(i): d for i, d in digests.items()})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def evaluate(w: Workload, instances, records: list[Record], warmups: list[Record], store: DigestStore):
    """Check every output and tie each request to a verdict.

    A request passes when it returned output, its instance gave the same
    bytes in every request and earlier run of this code and seed, and the
    independent check accepts those bytes.  Warm-up outputs are checked
    by the same rules but count in no metric.
    """
    digests: dict[int, set[str]] = {}
    first: dict[int, bytes] = {}
    for idx, out in [(r.idx, r.output) for r in warmups + records if r.output is not None]:
        digests.setdefault(idx, set()).add(hashlib.sha256(out).hexdigest())
        first.setdefault(idx, out)
    for idx in digests:
        if str(idx) in store.known:
            digests[idx].add(store.known[str(idx)])
    unstable = {idx for idx, ds in digests.items() if len(ds) > 1}
    verdicts = {idx: check(w, *instances[idx], out) for idx, out in first.items()}
    store.save({idx: next(iter(ds)) for idx, ds in digests.items() if idx not in unstable})

    passed = [r.output is not None and r.idx not in unstable and verdicts[r.idx].ok for r in records]
    failures = Counter()
    for r, ok in zip(records, passed):
        if r.error is not None:
            failures[r.error.split(":", 1)[0]] += 1
        elif r.idx in unstable:
            failures["nondeterministic report"] += 1
        elif not ok:
            failures["check: " + verdicts[r.idx].reason] += 1
    wrong = bool(unstable) or any(not v.ok for v in verdicts.values())
    timed_idx = {r.idx for r in records}
    good = {idx: v for idx, v in verdicts.items() if v.ok and idx not in unstable and idx in timed_idx}
    run_digest = hashlib.sha256(
        "".join(f"{i}:{sorted(digests[i])[0]}" for i in sorted(digests)).encode()
    ).hexdigest()[:16]
    return passed, good, wrong, failures, run_digest


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(w: Workload, seed: int, seconds: float, trace: bool, src: Path, work: Path) -> dict:
    """Set up, run the timed phase and return the result object the worker prints.

    ``src`` holds the ``colsel`` package; ``work`` receives scratch files,
    span dumps and the digest store.
    """
    scratch = work / f"{w.name}-{os.getpid()}"
    logging.getLogger("colsel").addHandler(logging.NullHandler())
    clock = time.perf_counter
    warm = w.pool  # index of the warm-up instance in the runner's list
    try:
        # The CSV files are the benchmark's own work, not the program's, so
        # they are written once, outside the timed set-up.
        scratch.mkdir(parents=True)
        write_inputs(w, generate(w, seed) + [warmup_instance(w)], scratch)
        setup_times, warmups, slices = [], [], []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            colsel = import_colsel(src)
            instances = generate(w, seed) + [warmup_instance(w)]
            runner = Runner(w, instances, colsel, scratch)
            warmups.append(Record(warm, *timed(lambda: runner.request(warm), clock)))
            setup_times.append(clock() - t0)
            slices.append(calibration_slice())

        records: list[Record] = []
        result = {"env": environment(), "pool": w.pool, "shape": [w.n, w.m, w.l, w.k]}
        if trace:
            result.update(_traced_phase(w, runner, colsel, records, slices, seconds, clock, work, seed))
        else:
            start = clock()
            while not records or clock() - start < seconds:
                for idx in range(w.pool):
                    records.append(Record(idx, *timed(lambda: runner.request(idx), clock)))
                    slices.append(calibration_slice())
                    if clock() - start >= MAX_TIMED_S:
                        break
                if clock() - start >= MAX_TIMED_S:
                    break
            # Wall time of the timed phase without the calibration slices.
            result["wall_s"] = sum(r.seconds for r in records)
            result["passes"] = len(records) / w.pool
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    store = DigestStore(work / "digests" / f"{code_key(src)}-{w.name}-{seed}.json")
    passed, good, wrong, failures, run_digest = evaluate(w, instances, records, warmups, store)
    ok = sum(passed)
    result.update(
        correct=not wrong,
        attempted=len(records),
        failed=len(records) - ok,
        failures=dict(failures),
        report_digest=run_digest,
    )
    factor = CALIBRATION_REF_S / statistics.median(slices)
    result["speed"] = {
        "calibration_ms": 1e3 * statistics.median(slices),
        "reference_ms": 1e3 * CALIBRATION_REF_S,
        "factor": factor,
        "slices": len(slices),
    }
    if trace:
        for m in result["metrics"].values():
            if m["value"] is not None and m["unit"] in ("s", "us"):
                m["value"] *= factor
            elif m["value"] is not None and m["unit"] == "1/s":
                m["value"] /= factor
        return result
    lat = [r.seconds * 1e3 if p else None for r, p in zip(records, passed)]
    factors = speed_factors(slices[SETUP_REPEATS:])
    scaled = [None if v is None else v * f for v, f in zip(lat, factors)]
    tail_ms, tail_pct, n = latency.tail(scaled)
    result["tail"] = {"percentile": tail_pct, "n": n}
    result["raw"] = {
        "setup_s": statistics.median(setup_times),
        "ok_req_per_s": ok / result["wall_s"],
        "req_ms_p50": latency.median(lat),
        "req_ms_tail": latency.tail(lat)[0],
    }
    setup_factors = speed_factors(slices[:SETUP_REPEATS])
    values = {
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
        "ok_frac": ok / len(records),
        "ok_req_per_s": ok / sum(r.seconds * f for r, f in zip(records, factors)),
        "req_ms_p50": latency.median(scaled),
        "req_ms_tail": tail_ms,
        "frob_ratio_p50": _median(v.frob_ratio for v in good.values()),
        "spec_ratio_p50": _median(v.spec_ratio for v in good.values()),
        "opt_gap_p50": _median(v.opt_gap for v in good.values()) if w.via_cli else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return result


def _traced_phase(w, runner, colsel, records, slices, seconds, clock, work: Path, seed: int) -> dict:
    modules = {"colsel": colsel.package, **{m: getattr(colsel, m) for m in MODULES}}
    tracer = spans.Tracer(modules, colsel.oracle.companion_smallest_root)
    untraced_s, walls, passes = 0.0, [], 0
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for idx in range(min(w.pool, TRACED_INSTANCES)):
            rec = Record(idx, *timed(lambda: runner.request(idx), clock))
            records.append(rec)
            untraced_s += rec.seconds
            rid = len(walls)
            tracer.install()
            try:
                rec = Record(idx, *timed(lambda: _in_span(tracer, rid, runner, idx), tracer.now))
            finally:
                tracer.uninstall()
            records.append(rec)
            walls.append(rec.seconds)
            slices.append(calibration_slice())
            if clock() - start >= MAX_TIMED_S:
                break
        passes += 1
        if clock() - start >= MAX_TIMED_S:
            break
    tracer.write(work / f"spans-{w.name}-{seed}.npz")
    metrics = spans.layer_metrics(tracer, walls, untraced_s)
    return {
        "passes": passes,
        "traced_requests": len(walls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _in_span(tracer: spans.Tracer, rid: int, runner: Runner, idx: int) -> bytes:
    with tracer.request_span(rid):
        return runner.request(idx)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "colsel" / "__init__.py").is_file():
        print(f"error: no colsel sources under {root / 'src'}", file=sys.stderr)
        return 2
    result = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        root / "src", root / ".bench_work",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
