"""Alternate two checkouts' benchmark runs and compare them pair by pair.

Usage:

    python tools/ab_bench.py OLD_ROOT NEW_ROOT --workload wide --seeds 1-10 --seconds 20

``OLD_ROOT`` and ``NEW_ROOT`` are repository roots, such as a checkout of
the parent commit and this one.  Each seed is one pair: each root runs
its own ``benchmarks/run.py --workload W --seed S --seconds T --trace 0``,
one after the other, the new tree first on odd seeds and the old one
first on even seeds, so that a drift of the machine's speed over the
runs does not favour either tree.  ``--seeds`` takes a range ``1-10``, a
list ``1,3,7`` or one seed.

For each pair it prints every ``end_to_end`` metric of the new tree's
``BENCHMARK.json``, old then new, and whether the two runs'
``report_digest`` values agree.  Over all pairs it prints each metric's
median with its quartiles for either tree, the median's relative change,
the number of pairs the new tree won (by the metric's ``better``
direction; a tie wins for neither) and the number of pairs whose digests
agree.  Each run's output is kept in ``.bench_work/ab_bench/`` of its
own root, which the repository ignores, and nothing else is written.
It uses only the standard library.  Exits 1, naming the run, if a run
fails, and naming the tree, the seed and the metric, if a run's result
line holds a metric that is null or not finite: the benchmark takes no
result from such a line.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"1,3,7"`` or ``"4"`` as a list of seeds, in order."""
    seeds: list[int] = []
    for part in text.split(","):
        first, dash, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last) + 1) if dash else [int(first)])
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parse_run(stdout: str) -> dict:
    """The metric values and ``report_digest`` of one ``run.py --trace 0``
    output: its last line is the summary object, and the worker's extra
    fields are the line before it that holds ``report_digest``."""
    lines = stdout.strip().splitlines()
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    digest = None
    for line in reversed(lines[:-1]):
        if '"report_digest"' in line:
            digest = json.loads(line)["report_digest"]
            break
    return {"metrics": metrics, "digest": digest}


def run_tree(root: Path, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One ``benchmarks/run.py`` run of ``root``, parsed; ``None`` if it failed."""
    cmd = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    log = root / ".bench_work" / "ab_bench" / f"{workload}-{seed}.txt"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(proc.stdout)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return parse_run(proc.stdout)


def bad_metrics(metrics: dict, names) -> list[str]:
    """``name = value`` for each of ``names`` that ``metrics`` lacks, or
    reads null or not finite."""
    values = {name: metrics.get(name) for name in names}
    return [
        f"{name} = {value}" for name, value in values.items()
        if not isinstance(value, (int, float)) or not math.isfinite(value)
    ]


def same_digest(old: dict, new: dict) -> bool:
    """Whether two parsed runs read one ``report_digest``; a missing one agrees with none."""
    return old["digest"] is not None and old["digest"] == new["digest"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], specs: list[dict]) -> dict:
    """Per-metric medians, quartiles and wins over ``pairs`` of parsed runs
    ``(old, new)``, for the ``end_to_end`` entries ``specs`` of
    ``BENCHMARK.json``, and the number of pairs whose digests agree.

    Raises ``ValueError``, naming the pair, the tree and the metric, if a
    run lacks a metric of ``specs`` or reads it null or not finite.
    """
    names = [spec["name"] for spec in specs]
    for i, pair in enumerate(pairs, start=1):
        for tree, run in zip(("old", "new"), pair):
            bad = bad_metrics(run["metrics"], names)
            if bad:
                raise ValueError(f"pair {i}, {tree} tree: {', '.join(bad)}")
    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = [(old["metrics"][name], new["metrics"][name]) for old, new in pairs]
        higher = spec["better"] == "higher"
        entry = {"unit": spec["unit"], "better": spec["better"], "pairs": len(values)}
        entry["old"] = _quartiles([o for o, _ in values])
        entry["new"] = _quartiles([n for _, n in values])
        entry["new_won"] = sum((n > o) if higher else (n < o) for o, n in values)
        old_median = entry["old"][1]
        entry["change"] = entry["new"][1] / old_median - 1.0 if old_median else None
        metrics[name] = entry
    agree = sum(same_digest(old, new) for old, new in pairs)
    return {"pairs": len(pairs), "metrics": metrics, "digests_agree": agree}


def _g(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def summary_lines(summary: dict) -> list[str]:
    """The summary of :func:`summarize` as printed lines."""
    lines = [f"{summary['pairs']} pairs; median [q1-q3], old -> new:"]
    for name, m in summary["metrics"].items():
        (oq1, om, oq3), (nq1, nm, nq3) = m["old"], m["new"]
        change = "n/a" if m["change"] is None else f"{100.0 * m['change']:+.1f}%"
        lines.append(
            f"  {name} ({m['unit']}, {m['better']} is better): {_g(om)} [{_g(oq1)}-{_g(oq3)}] -> "
            f"{_g(nm)} [{_g(nq1)}-{_g(nq3)}], {change}, new better in {m['new_won']} of {m['pairs']}"
        )
    lines.append(f"  report_digest equal in {summary['digests_agree']} of {summary['pairs']} pairs")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    for root in roots.values():
        if not (root / "benchmarks" / "run.py").is_file():
            parser.error(f"{root} has no benchmarks/run.py")
    specs = json.loads((roots["new"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for seed in args.seeds:
        order = ("new", "old") if seed % 2 else ("old", "new")
        runs = {}
        for tree in order:
            runs[tree] = run_tree(roots[tree], args.workload, seed, args.seconds)
            if runs[tree] is None:
                print(f"error: the {tree} tree's run of {args.workload} seed {seed} failed; "
                      f"its output is in {roots[tree] / '.bench_work' / 'ab_bench'}",
                      file=sys.stderr)
                return 1
            bad = bad_metrics(runs[tree]["metrics"], runs[tree]["metrics"])
            if bad:
                print(f"error: the {tree} tree's run of {args.workload} seed {seed} reads "
                      f"{', '.join(bad)}, which the benchmark takes as no result",
                      file=sys.stderr)
                return 1
        old, new = runs["old"], runs["new"]
        pairs.append((old, new))
        print(f"pair {len(pairs)}: {args.workload} seed {seed}, {order[0]} first, "
              f"report_digest {'equal' if same_digest(old, new) else 'DIFFER'}")
        for spec in specs:
            name = spec["name"]
            print(f"  {name:<16} {_g(old['metrics'].get(name)):>10} -> "
                  f"{_g(new['metrics'].get(name)):>10} {spec['unit']}")
        sys.stdout.flush()
    print("\n".join(summary_lines(summarize(pairs, specs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
