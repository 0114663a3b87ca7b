"""Compare greedy selections of two colsel source trees on seeded random instances.

Usage: python tools/compare_trees.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess (``PYTHONPATH=<src>``), runs
``greedy_select`` and ``verify_bound`` on the same 170 instances, and
prints one JSON record per instance.  An instance whose ``greedy_select``
raises is recorded with the exception's type and message instead; the
comparison lists the instances whose outcomes differ, and compares the
rest only where both trees returned a report.  It lists the instances
whose subsets (selected indices in selection order) differ.  Apart from
those, it counts the instances whose trace root values differ and
reports the largest root difference ``|old - new| / eps``.  It also
reports the largest relative difference of the norms, the bound factor
and the verify ratios.  One line per ``SHAPES`` entry repeats the
instance, raising, outcome, subset and root-value counts and the largest
root difference for that shape alone, so a large difference at degree
12 does not hide the benchmark's ``wide`` and ``oracle`` shapes.  Each
tree also counts its ``sturm_chain`` calls inside ``greedy_select``.
``smallest_root`` builds at most one chain per root, and only where a sign
or Budan-Fourier certificate fails, so the count is the number of roots
that took the Sturm fallback.  The totals, and each per-shape line, print
both trees' counts out of the roots scored (one per remaining candidate
per step); they are for information only and do not change the exit status.

Every instance with ``C(m, k) <= 2002`` (all shapes but the first and
the last four) also runs ``brute_force``; the comparison lists the instances
whose best subsets or sets of feasible subsets differ and reports the
largest relative difference of each norm over the subsets feasible in
both.  It also prints each tree's total ``greedy_select`` wall time over
all instances and total ``brute_force`` wall time over those, for
information only.  Exit status 1 if any outcome, subset, root value,
best subset or feasible set differs, or if a brute-force norm's largest
relative difference exceeds ``BRUTE_FORCE_RTOL`` (1e-12): two ways of
taking the same singular values may round differently, but by a few ulps.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

# (n, m, l, k, rank of the fixed block or None for a Gaussian block, instances)
SHAPES = (
    (6, 48, 3, 12, None, 30),  # the benchmark's wide shape
    (4, 14, 2, 5, None, 30),  # the benchmark's oracle shape
    (3, 9, 0, 4, None, 20),
    (4, 12, 2, 6, None, 20),
    (5, 10, 1, 4, None, 20),
    (4, 12, 3, 5, 1, 10),
    (5, 14, 4, 4, 2, 10),
    # a = m - n - j < 0 in the last iterations: the transform sets exact zeros
    (4, 7, 0, 5, None, 10),
    (5, 9, 2, 7, None, 10),
    # the benchmark's large shape: degree 12, so the longest Sturm chains
    (12, 100, 0, 40, None, 3),
    # degree 12 with a fixed block: some roots need the Sturm fallback, so
    # both of smallest_root's certificate paths are compared
    (12, 100, 6, 40, None, 2),
    # the minimal budget k = n - r, where greedy_select raises
    # AlgorithmFailure on every instance here: the outcomes are compared
    (8, 200, 0, 8, None, 3),
    (12, 150, 0, 12, None, 2),
)
BRUTE_FORCE_LIMIT = 2002  # C(14, 5), the benchmark's oracle shape
BRUTE_FORCE_RTOL = 1e-12
VALUES = ("frob_sq", "spec_sq", "baseline_frob_sq", "baseline_spec_sq", "bound_factor",
          "ratio_frob", "ratio_spec")


def dump() -> None:
    import numpy as np

    import colsel.poly
    from colsel import DenseMatrix, SelectionProblem, brute_force, greedy_select, verify_bound

    # smallest_root looks sturm_chain up in colsel.poly, so this sees every fallback
    sturm_chains = 0
    sturm_chain = colsel.poly.sturm_chain

    def counted_sturm_chain(p):
        nonlocal sturm_chains
        sturm_chains += 1
        return sturm_chain(p)

    colsel.poly.sturm_chain = counted_sturm_chain

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
            record = {"shape": [n, m, ell, k, rank_a], "seed": seed}
            sturm_chains = 0
            t0 = time.perf_counter()
            try:
                report = greedy_select(prob)
            except Exception as exc:  # an outcome to compare, not a reason to stop
                record.update(error=[type(exc).__name__, str(exc)],
                              greedy_s=time.perf_counter() - t0, sturm_chains=sturm_chains)
                print(json.dumps(record))
                continue
            greedy_s = time.perf_counter() - t0
            record["sturm_chains"] = sturm_chains
            _, ratio_frob, ratio_spec = verify_bound(prob, report.subset)
            record.update({
                "subset": list(report.subset),
                "eps": report.eps,
                "trace": [t.lambda_min.hex() for t in report.trace],
                "ratio_frob": ratio_frob,
                "ratio_spec": ratio_spec,
                "greedy_s": greedy_s,
            })
            record.update((v, getattr(report, v)) for v in VALUES[:5])
            if math.comb(m, k) <= BRUTE_FORCE_LIMIT:
                t0 = time.perf_counter()
                enum = brute_force(prob)
                record["brute_force_s"] = time.perf_counter() - t0
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


def compare_greedy(old: list[dict], new: list[dict]) -> tuple[list, list, list, int, float]:
    """Compare the records ``old`` and ``new`` of the same instances.

    Returns the outcome mismatches, the pairs where both trees returned a
    report, the subset mismatches, the number of root value mismatches
    and the largest root difference ``|old - new| / eps``.
    """
    outcomes = [(o["shape"], o["seed"]) for o, c in zip(old, new) if o.get("error") != c.get("error")]
    pairs = [(o, c) for o, c in zip(old, new) if "error" not in o and "error" not in c]
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
    return outcomes, pairs, subsets, roots, root_gap


def sturm_fallbacks(old: list[dict], new: list[dict]) -> str:
    """Each tree's Sturm-chain count over ``old`` and ``new``, out of the roots scored."""
    scored = sum(k * m - k * (k - 1) // 2 for (_, m, _, k, _) in (r["shape"] for r in old))
    counts = (sum(r["sturm_chains"] for r in tree) for tree in (old, new))
    return "Sturm fallbacks old {}, new {} of {} roots".format(*counts, scored)


def main(old_src: str, new_src: str) -> int:
    old, new = run(old_src), run(new_src)
    assert len(old) == len(new)
    outcomes, pairs, subsets, roots, root_gap = compare_greedy(old, new)
    worst = {v: max((abs(c[v] - o[v]) / abs(o[v]) for o, c in pairs), default=0.0)
             for v in VALUES}
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
    errors = sorted({r["error"][0] for r in old + new if "error" in r})
    print(f"{len(old)} instances, {len(old) - len(pairs)} raising in either tree", *errors)
    print(f"  outcome mismatches: {len(outcomes)}", *outcomes)
    print(f"  subset or order mismatches: {len(subsets)}", *subsets)
    print(f"  root value mismatches: {roots}; max |old - new| / eps: {root_gap:.3g}")
    print(f"  {sturm_fallbacks(old, new)}")
    print("  per shape (n, m, l, k, rank of the fixed block): instances, raising in either tree;"
          " outcome, subset and root value mismatches; max |old - new| / eps; Sturm fallbacks")
    for shape in SHAPES:
        rows = [(o, c) for o, c in zip(old, new) if o["shape"] == list(shape[:5])]
        s_outcomes, s_pairs, s_subsets, s_roots, s_gap = compare_greedy(*zip(*rows))
        print(f"    {shape[:5]}: {len(rows)}, {len(rows) - len(s_pairs)};"
              f" {len(s_outcomes)}, {len(s_subsets)}, {s_roots}; {s_gap:.3g};"
              f" {sturm_fallbacks(*zip(*rows))}")
    old_s, new_s = (sum(r["greedy_s"] for r in tree) for tree in (old, new))
    print(f"  total greedy_select wall time: old {old_s:.3f} s, new {new_s:.3f} s")
    for v, rel in worst.items():
        print(f"  max relative difference of {v}: {rel:.2e}")
    print(f"{len(enums)} brute-force instances")
    print(f"  best subset or feasible set mismatches: {len(enum_mismatches)}", *enum_mismatches)
    old_s, new_s = (sum(r.get("brute_force_s", 0.0) for r in tree) for tree in (old, new))
    print(f"  total brute_force wall time: old {old_s:.3f} s, new {new_s:.3f} s")
    for v, rel in enum_worst.items():
        print(f"  max relative difference of {v} over feasible subsets: {rel:.2e}"
              f" (gate {BRUTE_FORCE_RTOL:.0e})")
    drift = max(enum_worst.values()) > BRUTE_FORCE_RTOL
    return 1 if outcomes or subsets or roots or enum_mismatches or drift else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        sys.exit(main(*sys.argv[1:]))
