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
12 does not hide the benchmark's ``wide`` and ``oracle`` shapes.  Each
tree also counts, inside ``greedy_select``, its ``smallest_root`` calls
and its ``sturm_chain`` calls.  A tree need not root every candidate it
scores (one per remaining candidate per step): one that screens them
roots only those that can still win.  ``smallest_root`` builds at most
one chain per root, and only where a sign or Budan-Fourier certificate
fails, so the chain count is the number of roots that took the Sturm
fallback.  The totals, and each per-shape line, print both trees' counts
beside the candidates scored.  Each per-shape line also prints each tree's largest last-step
error ``|trace[-1] - mu_min(G_S)| / eps``, where ``G_S`` is the Gram of the
fixed and selected columns in the isotropic frame, taken with numpy alone
from the thin SVD of ``[A B]``.  At ``d = k - j = 0`` the expected
polynomial is the selected Gram's own characteristic polynomial, so its
smallest root is exactly ``mu_min(G_S) - 1``.  An instance whose report
fails ``_check_report`` is measured too, from the report that check was
given.  So where both trees are thousands of eps off at degree 12, an
outcome that flips there reads as such, not as a new fault.  These
counts and errors are for information only and do not change the exit
status.  Each tree also counts, in total and per shape, the
``smallest_root`` results that an exact sign contradicts: the float
coefficients, evaluated in ``fractions`` at ``root - eps/2``, have the
sign opposite to their sign at ``-inf``, so the float polynomial has a
real root more than ``eps/2`` left of the result, which breaks its
contract.  The sign is the tool's own, so every tree is held to the
same rule.  The results are split into calls that built no Sturm chain
and calls that did, and one on a shape with ``n <= 6`` in either tree
sets exit status 1.

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
contradicted, or if a brute-force norm's
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


def dump() -> None:
    import numpy as np

    import colsel.poly
    import colsel.selector
    from colsel import DenseMatrix, SelectionProblem, brute_force, greedy_select, verify_bound

    # smallest_root looks sturm_chain up in colsel.poly, so this sees every fallback
    sturm_chains = 0
    sturm_chain = colsel.poly.sturm_chain

    def counted_sturm_chain(p):
        nonlocal sturm_chains
        sturm_chains += 1
        return sturm_chain(p)

    colsel.poly.sturm_chain = counted_sturm_chain

    # greedy_select looks smallest_root up in colsel.selector.  A result
    # with a real root more than eps/2 to its left, shown by an exact
    # sign, breaks smallest_root's contract; such results are counted
    # apart for calls that built no Sturm chain and for calls that did.
    root_calls = 0
    contradicted = [0, 0]
    smallest_root = colsel.selector.smallest_root

    def counted_smallest_root(p, eps):
        nonlocal root_calls
        root_calls += 1
        chains = sturm_chains
        root = smallest_root(p, eps)
        if root_at_or_below(p.coeffs, root - 0.5 * eps):
            contradicted[sturm_chains > chains] += 1
        return root

    colsel.selector.smallest_root = counted_smallest_root

    # greedy_select looks _check_report up in colsel.selector, so this sees
    # the report of an instance that then raises AlgorithmFailure
    checked = None
    check_report = colsel.selector._check_report

    def recorded_check_report(report, prob):
        nonlocal checked
        checked = report
        return check_report(report, prob)

    colsel.selector._check_report = recorded_check_report

    def last_step_error(a, b, report) -> float:
        """``|trace[-1] - mu_min(G_S)| / eps``, from numpy's thin SVD of ``[a b]``."""
        vt = np.linalg.svd(np.hstack([a, b]), full_matrices=False)[2]
        y = vt[:, list(range(a.shape[1])) + [a.shape[1] + j for j in report.subset]]
        mu_min = float(np.linalg.eigvalsh(y @ y.T)[0])
        return abs(report.trace[-1].lambda_min - mu_min) / report.eps

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
            sturm_chains, root_calls, checked = 0, 0, None
            contradicted[:] = 0, 0
            try:
                report = greedy_select(prob)
            except Exception as exc:  # an outcome to compare, not a reason to stop
                record.update(
                    error=[type(exc).__name__, str(exc)],
                    sturm_chains=sturm_chains,
                    root_calls=root_calls,
                    contradicted=list(contradicted),
                )
                if checked is not None:
                    record["last_step_error"] = last_step_error(a, prob.b.data, checked)
                print(json.dumps(record))
                continue
            record.update(
                sturm_chains=sturm_chains, root_calls=root_calls, contradicted=list(contradicted)
            )
            record["last_step_error"] = last_step_error(a, prob.b.data, report)
            _, ratio_frob, ratio_spec = verify_bound(prob, report.subset)
            record.update({
                "subset": list(report.subset),
                "eps": report.eps,
                "trace": [t.lambda_min.hex() for t in report.trace],
                "ratio_frob": ratio_frob,
                "ratio_spec": ratio_spec,
            })
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


def root_counts(old: list[dict], new: list[dict]) -> str:
    """The candidates scored over ``old`` and ``new``, and each tree's
    ``smallest_root`` and Sturm-chain counts."""
    scored = sum(k * m - k * (k - 1) // 2 for (_, m, _, k, _) in (r["shape"] for r in old))
    calls = (sum(r["root_calls"] for r in tree) for tree in (old, new))
    chains = (sum(r["sturm_chains"] for r in tree) for tree in (old, new))
    return "{} candidates scored; smallest_root calls old {}, new {}; Sturm fallbacks old {}, new {}".format(
        scored, *calls, *chains
    )


def contradicted_roots(old: list[dict], new: list[dict]) -> str:
    """Each tree's contradicted ``smallest_root`` results over ``old`` and
    ``new``: on calls that built no Sturm chain, and on calls that did."""
    counts = [sum(r["contradicted"][i] for r in tree) for tree in (old, new) for i in (0, 1)]
    return "contradicted roots old {} + {} Sturm, new {} + {} Sturm".format(*counts)


def last_step_errors(old: list[dict], new: list[dict]) -> str:
    """Each tree's largest last-step error over ``old`` and ``new``, in eps."""
    worst = (max((r.get("last_step_error", 0.0) for r in tree), default=0.0) for tree in (old, new))
    return "last-step error / eps old {:.3g}, new {:.3g}".format(*worst)


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
    print("  per shape (n, m, l, k, rank of the fixed block): instances, raising in either tree;"
          " outcome, subset and root value mismatches; max |old - new| / eps; candidates scored,"
          " smallest_root calls and Sturm fallbacks; contradicted roots;"
          " max |trace[-1] - mu_min(G_S)| / eps")
    for shape in SHAPES:
        rows = [(o, c) for o, c in zip(old, new) if o["shape"] == list(shape[:5])]
        s_outcomes, s_pairs, s_subsets, s_roots, s_gap = compare_greedy(*zip(*rows))
        print(f"    {shape[:5]}: {len(rows)}, {len(rows) - len(s_pairs)};"
              f" {len(s_outcomes)}, {len(s_subsets)}, {s_roots}; {s_gap:.3g};"
              f" {root_counts(*zip(*rows))}; {contradicted_roots(*zip(*rows))};"
              f" {last_step_errors(*zip(*rows))}")
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
    # below degree 7 every root is expected to keep its contract
    broken = [
        (r["shape"], r["seed"]) for r in old + new if r["shape"][0] <= 6 and any(r["contradicted"])
    ]
    print(f"contradicted roots at n <= 6: {len(broken)}", *broken)
    return 1 if outcomes or subsets or roots or enum_mismatches or drift or broken else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        sys.exit(main(*sys.argv[1:]))
