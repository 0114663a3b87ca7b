"""Compare greedy selections of two colsel source trees on seeded random instances.

Usage: python tools/compare_trees.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess (``PYTHONPATH=<src>``), runs
``greedy_select`` and ``verify_bound`` on the same 173 instances, and
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
12 does not hide the benchmark's ``wide`` and ``oracle`` shapes.

Every pick is judged from its report alone.  A third subprocess imports
the NEW tree and runs its ``colsel.oracle.replay_check`` on every report
of both trees, once per distinct report, so the tool works against an
OLD tree that predates it.  An instance whose report fails
``_check_report`` is judged too, from the report its ``AlgorithmFailure``
carries; a tree whose exception carries none leaves it out.
The replay rebuilds each step's Gram from the subset and scores every
remaining candidate with the ``longdouble`` reference; each tree's total
and per-shape line prints the steps replayed, the wrong picks (a margin
below the reference best over ``2 eps``), the largest margin and the
largest trace error ``|trace value - reference root of the pick| / eps``.
The last step's expected polynomial (``d = k - j = 0``) is the selected
Gram's own characteristic polynomial, so its trace error is the distance
of ``trace[-1]`` from ``mu_min(G_S)``.  At ``n <= 6`` a wrong pick or a
trace error over ``eps``, in either tree, sets exit status 1; at degree 8
and 12 they are for information (the coefficient scorer is thousands of
eps off there, and picks wrong at every step of the minimal-budget
shapes).

Each tree also counts, inside ``greedy_select``, its ``smallest_root``
calls and its ``sturm_chain`` calls, where it has the names
``colsel.selector.smallest_root`` and ``colsel.poly.sturm_chain``, and
prints ``n/a`` for a count where it does not.  A tree need not root every
candidate it scores (one per remaining candidate per step): one that
screens them roots only those that can still win.  ``smallest_root``
builds at most one chain per root, and only where the sign rule fails at
an end (the sign of ``p`` at the upper end, or those of ``p`` and every
derivative at the lower end), so the chain count is the number of roots
that took the Sturm fallback.  The totals, and each per-shape line, print
both trees' counts beside the candidates scored.  These counts do not
change the exit status.  Where it has ``smallest_root``, each tree also
counts, in total and per shape, the results that an exact sign
contradicts: the float coefficients, evaluated in ``fractions`` at ``root
- eps/2``, have the sign opposite to their sign at ``-inf``, so the float
polynomial has a real root more than ``eps/2`` left of the result, which
breaks its contract.  The sign is the tool's own, so every tree is held
to the same rule.  The results are split into calls that built no Sturm
chain and calls that did, and one on a shape with ``n <= 6`` in either
tree sets exit status 1.

Every instance with ``C(m, k) <= 8008`` (all shapes but the first and
the four at degree 8 and 12) also runs ``brute_force``, the last shape's
8,008 subsets in two batches of 4096; the comparison lists the
instances whose best subsets or sets of feasible subsets differ and
reports the largest relative difference of each norm over the subsets
feasible in both, overall and on one line per brute-force shape.  It
prints no wall times: one sequential run per tree is too noisy to
compare speed (identical ``brute_force`` code has read 1.15 s
and 1.52 s on a 2-vCPU machine), so speed claims come from alternating
``benchmarks/run.py`` runs.  Exit status 1 if any outcome, subset, root
value, best subset or feasible set differs, if a root at ``n <= 6`` is
contradicted, if a pick at ``n <= 6`` is wrong or its trace value is
more than ``eps`` off, or if a brute-force norm's
largest relative difference exceeds ``BRUTE_FORCE_RTOL`` (1e-12): a
Frobenius norm taken from a well-conditioned subset's Cholesky factor
is within ``5.5e-13`` of exact by its error bound at the oracle shape,
a spectral norm from the eigenvalues of a Gram that the Cholesky test
bounds to ``kappa(G) <= 400`` within ``400 (gamma_{l+k} + c n u)``, about
``1e-12``, by Weyl's inequality, and two ways of taking the same
singular values differ by a few ulps.  Measured between spectral norms
taken from the singular values and from ``eigvalsh`` where ``kappa(G)``
is in ``(100, 400]``: within ``8.1e-14`` for ``spec_sq``, with
``frob_sq`` identical.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

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
    # C(16, 6) = 8008 subsets: brute_force spans two batches of 4096
    (4, 16, 2, 6, None, 3),
)
BRUTE_FORCE_LIMIT = 8008  # C(16, 6), the last shape
BRUTE_FORCE_RTOL = 1e-12
VALUES = ("frob_sq", "spec_sq", "baseline_frob_sq", "baseline_spec_sq", "bound_factor",
          "ratio_frob", "ratio_spec")


def root_at_or_below(coeffs: tuple[float, ...], t: float) -> bool:
    """True if the polynomial with the ascending float ``coeffs``, evaluated
    exactly at ``t``, has the sign opposite to its sign at ``-inf``, that of
    ``lead * (-1)^degree``: then it has a real root at or below ``t``."""
    x, value = Fraction(t), Fraction(0)
    for c in reversed(coeffs):
        value = value * x + Fraction(c)
    positive_at_minus_inf = (coeffs[-1] > 0.0) == (len(coeffs) % 2 == 1)
    return value < 0 if positive_at_minus_inf else value > 0


def instances():
    """``(shape_id, seed, problem)`` for every instance, in order, built by
    the tree on ``sys.path``."""
    import numpy as np

    from colsel import DenseMatrix, SelectionProblem

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
            yield shape_id, seed, prob


def dump() -> None:
    import colsel.poly
    import colsel.selector
    from colsel import brute_force, greedy_select, verify_bound

    # smallest_root looks sturm_chain up in colsel.poly, so this sees every
    # fallback; a tree without that name counts none
    sturm_chains = 0
    sturm_chain = getattr(colsel.poly, "sturm_chain", None)

    def counted_sturm_chain(p):
        nonlocal sturm_chains
        sturm_chains += 1
        return sturm_chain(p)

    if sturm_chain is not None:
        colsel.poly.sturm_chain = counted_sturm_chain

    # greedy_select looks smallest_root up in colsel.selector.  A result
    # with a real root more than eps/2 to its left, shown by an exact
    # sign, breaks smallest_root's contract; such results are counted
    # apart for calls that built no Sturm chain and for calls that did.
    # A tree without that name counts none.
    root_calls = 0
    contradicted = [0, 0]
    smallest_root = getattr(colsel.selector, "smallest_root", None)

    def counted_smallest_root(p, eps):
        nonlocal root_calls
        root_calls += 1
        chains = sturm_chains
        root = smallest_root(p, eps)
        if root_at_or_below(p.coeffs, root - 0.5 * eps):
            contradicted[sturm_chains > chains] += 1
        return root

    if smallest_root is not None:
        colsel.selector.smallest_root = counted_smallest_root

    for shape_id, seed, prob in instances():
        n, m, ell, k, rank_a, _ = SHAPES[shape_id]
        record = {"shape": [n, m, ell, k, rank_a], "shape_id": shape_id, "seed": seed}
        sturm_chains, root_calls = 0, 0
        contradicted[:] = 0, 0
        try:
            report = greedy_select(prob)
        except Exception as exc:  # an outcome to compare, not a reason to stop
            record["error"] = [type(exc).__name__, str(exc)]
            # the report that broke the guarantees, in a tree whose
            # AlgorithmFailure carries it
            report = getattr(exc, "report", None)
        record.update(
            sturm_chains=sturm_chains if sturm_chain is not None else None,
            root_calls=root_calls if smallest_root is not None else None,
            contradicted=list(contradicted) if smallest_root is not None else None,
        )
        # a returned report, or the one a raising run carries
        if report is not None:
            record.update({
                "subset": list(report.subset),
                "eps": report.eps,
                "trace": [t.lambda_min.hex() for t in report.trace],
            })
        if "error" in record:
            print(json.dumps(record))
            continue
        _, ratio_frob, ratio_spec = verify_bound(prob, report.subset)
        record.update(ratio_frob=ratio_frob, ratio_spec=ratio_spec)
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


def replay() -> None:
    """Judge the reports on stdin, one JSON ``[shape_id, seed, subset,
    trace]`` per line, with this tree's ``colsel.oracle.replay_check``;
    print one JSON ``[margins, trace errors]`` per line, in eps."""
    from colsel.oracle import replay_check
    from colsel.selector import SelectionReport, TraceStep

    problems = {(shape_id, seed): prob for shape_id, seed, prob in instances()}
    for line in sys.stdin:
        shape_id, seed, subset, trace = json.loads(line)
        prob = problems[shape_id, seed]
        # replay_check reads the subset and the trace alone
        report = SelectionReport(
            subset=tuple(subset), frob_sq=math.nan, spec_sq=math.nan, baseline_frob_sq=math.nan,
            baseline_spec_sq=math.nan, gamma=math.nan, bound_factor=math.nan, eps=prob.eps,
            trace=tuple(TraceStep(j, float.fromhex(x)) for j, x in zip(subset, trace)),
        )
        checks = replay_check(prob, report)
        print(json.dumps([[c.margin for c in checks], [c.trace_error for c in checks]]))


def run(src: str, mode: str = "--dump", stdin: str | None = None) -> list:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, mode], env=env, input=stdin, check=True,
        capture_output=True, text=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def replay_checks(src: str, old: list[dict], new: list[dict]) -> None:
    """Judge every report of ``old`` and ``new``, raising runs' included,
    with the ``replay_check`` of the tree ``src``, once per distinct report,
    and store its per-step margins and trace errors in each record as
    ``margins`` and ``trace_errors``."""
    reports = {}
    for r in old + new:
        if "subset" in r:
            key = json.dumps([r["shape_id"], r["seed"], r["subset"], r["trace"]])
            reports.setdefault(key, []).append(r)
    results = run(src, "--replay", "".join(key + "\n" for key in reports))
    for records, (margins, trace_errors) in zip(reports.values(), results):
        for r in records:
            r.update(margins=margins, trace_errors=trace_errors)


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


def total(tree: list[dict], key: str, i: int | None = None) -> int | None:
    """The sum of ``key`` (its entry ``i``) over ``tree``, or ``None`` where
    the tree does not count it."""
    values = [r[key] if i is None or r[key] is None else r[key][i] for r in tree]
    return None if None in values else sum(values)


def show(value) -> str:
    return "n/a" if value is None else str(value)


def root_counts(old: list[dict], new: list[dict]) -> str:
    """The candidates scored over ``old`` and ``new``, and each tree's
    ``smallest_root`` and Sturm-chain counts, ``n/a`` where it has no such name."""
    scored = sum(k * m - k * (k - 1) // 2 for (_, m, _, k, _) in (r["shape"] for r in old))
    calls = (show(total(tree, "root_calls")) for tree in (old, new))
    chains = (show(total(tree, "sturm_chains")) for tree in (old, new))
    return "{} candidates scored; smallest_root calls old {}, new {}; Sturm fallbacks old {}, new {}".format(
        scored, *calls, *chains
    )


def contradicted_roots(old: list[dict], new: list[dict]) -> str:
    """Each tree's contradicted ``smallest_root`` results over ``old`` and
    ``new``: on calls that built no Sturm chain, and on calls that did."""
    counts = [show(total(tree, "contradicted", i)) for tree in (old, new) for i in (0, 1)]
    return "contradicted roots old {} + {} Sturm, new {} + {} Sturm".format(*counts)


def replayed(old: list[dict], new: list[dict]) -> str:
    """Each tree's replayed steps, wrong picks (a margin over 2 eps), largest
    margin and largest trace error over ``old`` and ``new``, in eps."""
    fields = []
    for tree in (old, new):
        margins = [x for r in tree for x in r.get("margins", ())]
        errors = [x for r in tree for x in r.get("trace_errors", ())]
        fields.append((len(margins), sum(x > 2 for x in margins), max(margins, default=0.0),
                       max(errors, default=0.0)))
    return ("replayed steps old {}, new {}; wrong picks old {}, new {};"
            " max margin old {:.3g}, new {:.3g}; max trace error old {:.3g}, new {:.3g}").format(
        *(f[i] for i in range(4) for f in fields)
    )


def brute_force_differences(enums: list[tuple]) -> dict[str, float]:
    """The largest relative difference of each brute-force norm over the
    subsets feasible in both trees, for the ``(shape, seed, old, new)``
    records ``enums``."""
    feasible_in_both = [
        (value, ec["feasible"][s])
        for _, _, eo, ec in enums
        for s, value in eo["feasible"].items()
        if s in ec["feasible"]
    ]
    return {
        v: max((abs(c[i] - o[i]) / o[i] for o, c in feasible_in_both), default=0.0)
        for i, v in enumerate(("frob_sq", "spec_sq"))
    }


def main(old_src: str, new_src: str) -> int:
    old, new = run(old_src), run(new_src)
    assert len(old) == len(new)
    replay_checks(new_src, old, new)
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
    enum_worst = brute_force_differences(enums)
    errors = sorted({r["error"][0] for r in old + new if "error" in r})
    print(f"{len(old)} instances, {len(old) - len(pairs)} raising in either tree", *errors)
    print(f"  outcome mismatches: {len(outcomes)}", *outcomes)
    print(f"  subset or order mismatches: {len(subsets)}", *subsets)
    print(f"  root value mismatches: {roots}; max |old - new| / eps: {root_gap:.3g}")
    print(f"  {root_counts(old, new)}; {contradicted_roots(old, new)}")
    print(f"  {replayed(old, new)}")
    print("  per shape (n, m, l, k, rank of the fixed block): instances, raising in either tree;"
          " outcome, subset and root value mismatches; max |old - new| / eps; candidates scored,"
          " smallest_root calls and Sturm fallbacks; contradicted roots; replayed steps, wrong"
          " picks, max margin and max trace error / eps, by the new tree's replay_check")
    for shape in SHAPES:
        rows = [(o, c) for o, c in zip(old, new) if o["shape"] == list(shape[:5])]
        s_outcomes, s_pairs, s_subsets, s_roots, s_gap = compare_greedy(*zip(*rows))
        print(f"    {shape[:5]}: {len(rows)}, {len(rows) - len(s_pairs)};"
              f" {len(s_outcomes)}, {len(s_subsets)}, {s_roots}; {s_gap:.3g};"
              f" {root_counts(*zip(*rows))}; {contradicted_roots(*zip(*rows))};"
              f" {replayed(*zip(*rows))}")
    for v, rel in worst.items():
        print(f"  max relative difference of {v}: {rel:.2e}")
    print(f"{len(enums)} brute-force instances")
    print(f"  best subset or feasible set mismatches: {len(enum_mismatches)}", *enum_mismatches)
    for v, rel in enum_worst.items():
        print(f"  max relative difference of {v} over feasible subsets: {rel:.2e}"
              f" (gate {BRUTE_FORCE_RTOL:.0e})")
    print("  per shape (n, m, l, k, rank of the fixed block): instances;"
          " max relative difference of frob_sq, spec_sq")
    for shape in SHAPES:
        rows = [e for e in enums if e[0] == list(shape[:5])]
        if rows:
            print("    {}: {}; {:.2e}, {:.2e}".format(
                shape[:5], len(rows), *brute_force_differences(rows).values()))
    drift = max(enum_worst.values()) > BRUTE_FORCE_RTOL
    # below degree 7 every root is expected to keep its contract, and every
    # pick and trace value to be the reference's within eps
    small = [r for r in old + new if r["shape"][0] <= 6]
    broken = [(r["shape"], r["seed"]) for r in small if any(r["contradicted"] or ())]
    print(f"contradicted roots at n <= 6: {len(broken)}", *broken)
    off = [
        (r["shape"], r["seed"])
        for r in small
        if any(x > 2 for x in r.get("margins", ())) or any(x > 1 for x in r.get("trace_errors", ()))
    ]
    print(f"wrong picks or trace errors over eps at n <= 6: {len(off)}", *off)
    failed = outcomes or subsets or roots or enum_mismatches or drift or broken or off
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    elif sys.argv[1:] == ["--replay"]:
        replay()
    else:
        sys.exit(main(*sys.argv[1:]))
