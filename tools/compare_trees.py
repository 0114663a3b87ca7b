"""Compare greedy selections of two colsel source trees on seeded random instances.

Usage: python tools/compare_trees.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess (``PYTHONPATH=<src>``), runs
``greedy_select`` and ``verify_bound`` on the same 140 instances, and
prints one JSON record per instance.  The comparison lists the instances
whose subsets (selected indices in selection order) differ.  Apart from
those, it counts the instances whose trace root values differ and
reports the largest root difference ``|old - new| / eps``.  It also
reports the largest relative difference of the norms, the bound factor
and the verify ratios.

Every instance with ``C(m, k) <= 2002`` (all shapes but the first) also
runs ``brute_force``; the comparison lists the instances whose best
subsets or sets of feasible subsets differ and reports the largest
relative difference of each norm over the subsets feasible in both.
Exit status 1 if any subset, root value, best subset or feasible set
differs.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

# (n, m, l, k, rank of the fixed block or None for a Gaussian block, instances)
SHAPES = (
    (6, 48, 3, 12, None, 30),  # the benchmark's wide shape
    (4, 14, 2, 5, None, 30),  # the benchmark's oracle shape
    (3, 9, 0, 4, None, 20),
    (4, 12, 2, 6, None, 20),
    (5, 10, 1, 4, None, 20),
    (4, 12, 3, 5, 1, 10),
    (5, 14, 4, 4, 2, 10),
)
BRUTE_FORCE_LIMIT = 2002  # C(14, 5), the benchmark's oracle shape
VALUES = ("frob_sq", "spec_sq", "baseline_frob_sq", "baseline_spec_sq", "bound_factor",
          "ratio_frob", "ratio_spec")


def dump() -> None:
    import numpy as np

    from colsel import DenseMatrix, SelectionProblem, brute_force, greedy_select, verify_bound

    for shape_id, (n, m, ell, k, rank_a, count) in enumerate(SHAPES):
        for seed in range(count):
            rng = np.random.default_rng([shape_id, seed])
            if rank_a is None:
                a = rng.standard_normal((n, ell))
            else:
                a = rng.standard_normal((n, rank_a)) @ rng.standard_normal((rank_a, ell))
            prob = SelectionProblem(
                a=DenseMatrix(a), b=DenseMatrix(rng.standard_normal((n, m))), k=k
            )
            report = greedy_select(prob)
            _, ratio_frob, ratio_spec = verify_bound(prob, report.subset)
            record = {
                "shape": [n, m, ell, k, rank_a],
                "seed": seed,
                "subset": list(report.subset),
                "eps": report.eps,
                "trace": [t.lambda_min.hex() for t in report.trace],
                "ratio_frob": ratio_frob,
                "ratio_spec": ratio_spec,
            }
            record.update((v, getattr(report, v)) for v in VALUES[:5])
            if math.comb(m, k) <= BRUTE_FORCE_LIMIT:
                enum = brute_force(prob)
                # value[:2] is (frob_sq, spec_sq), whatever else a tree stores
                record["brute_force"] = {
                    "best": [enum.best_subset_frob, enum.best_subset_spec],
                    "feasible": {
                        ",".join(map(str, s)): value[:2]
                        for s, value in enum.all_values.items()
                        if math.isfinite(value[0])
                    },
                }
            print(json.dumps(record))


def run(src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, check=True, capture_output=True, text=True
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(old_src: str, new_src: str) -> int:
    old, new = run(old_src), run(new_src)
    assert len(old) == len(new)
    pairs = list(zip(old, new))
    subsets = [(o["shape"], o["seed"]) for o, c in pairs if o["subset"] != c["subset"]]
    roots = sum(o["subset"] == c["subset"] and o["trace"] != c["trace"] for o, c in pairs)
    root_gap = max(
        (
            abs(float.fromhex(a) - float.fromhex(b)) / o["eps"]
            for o, c in pairs
            if o["subset"] == c["subset"]
            for a, b in zip(o["trace"], c["trace"])
        ),
        default=0.0,
    )
    worst = {v: max(abs(c[v] - o[v]) / abs(o[v]) for o, c in pairs) for v in VALUES}
    enums = [
        (o["shape"], o["seed"], o["brute_force"], c["brute_force"])
        for o, c in pairs
        if "brute_force" in o
    ]
    enum_mismatches = [
        (shape, seed)
        for shape, seed, eo, ec in enums
        if eo["best"] != ec["best"] or eo["feasible"].keys() != ec["feasible"].keys()
    ]
    feasible_in_both = [
        (value, ec["feasible"][s])
        for _, _, eo, ec in enums
        for s, value in eo["feasible"].items()
        if s in ec["feasible"]
    ]
    enum_worst = {
        v: max((abs(c[i] - o[i]) / o[i] for o, c in feasible_in_both), default=0.0)
        for i, v in enumerate(("frob_sq", "spec_sq"))
    }
    print(f"{len(old)} instances")
    print(f"  subset or order mismatches: {len(subsets)}", *subsets)
    print(f"  root value mismatches: {roots}; max |old - new| / eps: {root_gap:.3g}")
    for v, rel in worst.items():
        print(f"  max relative difference of {v}: {rel:.2e}")
    print(f"{len(enums)} brute-force instances")
    print(f"  best subset or feasible set mismatches: {len(enum_mismatches)}", *enum_mismatches)
    for v, rel in enum_worst.items():
        print(f"  max relative difference of {v} over feasible subsets: {rel:.2e}")
    return 1 if subsets or roots or enum_mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        sys.exit(main(*sys.argv[1:]))
