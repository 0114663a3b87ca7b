"""Benchmark workloads: seeded instances, one request per instance, and the
independent output checks.

Every instance is a pair of Gaussian matrices ``A`` (n x l) and ``B``
(n x m) drawn from the workload seed.  The checks recompute everything
they compare with plain numpy and closed forms; they call nothing in
``colsel``.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

# Relative agreement required between a reported norm and its recomputation.
NORM_RTOL = 1e-6
# Relative slack on the bound itself: float arithmetic only.
BOUND_RTOL = 1e-9
# The ``eps`` every request passes to the selector.
EPS = 1e-6


@dataclass(frozen=True)
class Workload:
    """One shape class.  ``pool`` instances are generated per seed, and a
    run makes whole passes over them, so that every instance has the same
    weight in its metrics.  ``via_cli`` runs ``colsel oracle`` in process
    on CSV files instead of the library's ``greedy_select``."""

    name: str
    n: int
    m: int
    l: int
    k: int
    pool: int
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The shape class the seed handles reliably, with the fixed block on;
        # scoring splits about evenly between the transform and root search.
        # A few per cent of its instances fail; the pool is large enough
        # (one pass is about 43 s) that their share varies little by seed.
        Workload("wide", n=6, m=48, l=3, k=12, pool=160),
        # ROADMAP's named failing shape: today every candidate fails in the
        # transform, and the failures are counted.  The pool is sized for the
        # ~2.5 s per request the shape costs once it completes.
        Workload("large", n=12, m=100, l=0, k=40, pool=12),
        # CLI parse/emit path and brute force over C(14, 5) = 2002 subsets:
        # thousands of tiny linalg calls instead of per-candidate Gram updates.
        # One pass is about 33 s.
        Workload("oracle", n=4, m=14, l=2, k=5, pool=112, via_cli=True),
    )
}


def _draw(w: Workload, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return rng.standard_normal((w.n, w.l)), rng.standard_normal((w.n, w.m))


def generate(w: Workload, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The workload's instances for ``seed``; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    return [_draw(w, rng) for _ in range(w.pool)]


def warmup_instance(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    """One instance of the workload's shape that no seed changes, so that
    the warm-up request inside the set-up costs the same for every seed."""
    return _draw(w, np.random.default_rng(zlib.crc32(b"warm-up " + w.name.encode())))


def write_csv(path: Path, x: np.ndarray) -> None:
    """Headerless CSV with every float written exactly (``repr`` round-trips)."""
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))


def _csv_paths(workdir: Path, idx: int) -> tuple[Path, Path]:
    return workdir / f"a{idx}.csv", workdir / f"b{idx}.csv"


def write_inputs(w: Workload, instances, workdir: Path) -> None:
    """Write the CSV files a ``via_cli`` workload's requests read."""
    if w.via_cli:
        for i, (a, b) in enumerate(instances):
            for path, x in zip(_csv_paths(workdir, i), (a, b)):
                write_csv(path, x)


class Runner:
    """Issues one request on instance ``idx`` and returns the program's output bytes.

    A ``via_cli`` workload reads the files ``write_inputs`` put in ``workdir``.
    Module attributes are resolved at call time, so a traced run sees the
    tracer's wrappers and an untraced run sees the package as it is.
    """

    def __init__(self, w: Workload, instances, colsel, workdir: Path):
        self.w = w
        self.instances = instances
        self.colsel = colsel
        self.workdir = workdir
        self.out = workdir / "report.json"

    def request(self, idx: int) -> bytes:
        w = self.w
        if w.via_cli:
            a_csv, b_csv = _csv_paths(self.workdir, idx)
            self.out.unlink(missing_ok=True)
            argv = ["oracle", "--a", str(a_csv), "--b", str(b_csv), "-k", str(w.k),
                    "--eps", repr(EPS), "--out", str(self.out)]
            code = self.colsel.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"colsel oracle exited with code {code}")
            return self.out.read_bytes()
        a, b = self.instances[idx]
        linalg, selector = self.colsel.linalg, self.colsel.selector
        prob = selector.SelectionProblem(
            a=linalg.DenseMatrix(a), b=linalg.DenseMatrix(b), k=w.k, eps=EPS
        )
        return self.colsel.cli.serialize_report(selector.greedy_select(prob)).encode()


class Verdict(NamedTuple):
    ok: bool
    reason: str = ""
    frob_ratio: Optional[float] = None
    spec_ratio: Optional[float] = None
    opt_gap: Optional[float] = None


def _pinv_norms_sq(x: np.ndarray, n: int) -> Optional[tuple[float, float]]:
    """``(|x^+|_F^2, |x^+|_2^2)`` of a full-row-rank ``x`` from its singular values."""
    s = np.linalg.svd(x, compute_uv=False)
    if s.size < n or not s[n - 1] > 1e-12 * s[0]:
        return None
    inv_sq = 1.0 / s[:n] ** 2
    return float(np.sum(inv_sq)), float(inv_sq[-1])


def bound_factor(w: Workload, a: np.ndarray, b: np.ndarray) -> float:
    """``Gamma(m,n,k,r) * (1 + |A^+ B|_F^2/(m-n+r)) * (1 + 2 k eps)`` from closed forms."""
    n, m, k = w.n, w.m, w.k
    r = int(np.linalg.matrix_rank(a)) if a.shape[1] else 0
    gamma = m * m / (math.sqrt((k + 1) * (m - n + r)) - math.sqrt((n - r) * (m - k - 1))) ** 2
    fixed = 1.0
    if a.shape[1]:
        fixed += float(np.sum((np.linalg.pinv(a) @ b) ** 2)) / (m - n + r)
    return gamma * fixed * (1.0 + 2.0 * k * EPS)


def _close(reported: float, expected: float) -> bool:
    return abs(reported - expected) <= NORM_RTOL * abs(expected)


def _valid_subset(w: Workload, subset) -> bool:
    return (
        isinstance(subset, list)
        and len(subset) == w.k
        and all(isinstance(j, int) and 0 <= j < w.m for j in subset)
        and len(set(subset)) == w.k
    )


def _check_greedy(w, a, b, subset, frob_sq, spec_sq, base_frob, base_spec, factor) -> Verdict:
    if not _valid_subset(w, subset):
        return Verdict(False, f"invalid subset {subset!r}")
    baseline = _pinv_norms_sq(np.hstack([a, b]), w.n)
    selected = _pinv_norms_sq(np.hstack([a, b[:, subset]]), w.n)
    if baseline is None or selected is None:
        return Verdict(False, "selected columns are rank-deficient")
    expected = bound_factor(w, a, b)
    for label, got, want in (
        ("frob_sq", frob_sq, selected[0]),
        ("spec_sq", spec_sq, selected[1]),
        ("baseline_frob_sq", base_frob, baseline[0]),
        ("baseline_spec_sq", base_spec, baseline[1]),
        ("bound_factor", factor, expected),
    ):
        if not _close(got, want):
            return Verdict(False, f"reported {label} {got!r} != recomputed {want!r}")
    cap = expected * (1.0 + BOUND_RTOL)
    if selected[0] > cap * baseline[0] or selected[1] > cap * baseline[1]:
        return Verdict(False, "subset violates the proven norm bound")
    return Verdict(True, "", selected[0] / baseline[0], selected[1] / baseline[1])


def check_report(w: Workload, a: np.ndarray, b: np.ndarray, report: dict) -> Verdict:
    """Check a ``select`` report against an independent recomputation of the bound."""
    try:
        return _check_greedy(
            w, a, b, report["subset"], report["frob_sq"], report["spec_sq"],
            report["baseline_frob_sq"], report["baseline_spec_sq"], report["bound_factor"],
        )
    except (KeyError, TypeError) as exc:
        return Verdict(False, f"malformed report: {exc!r}")


def brute_force_frob(w: Workload, a: np.ndarray, b: np.ndarray) -> float:
    """Smallest ``|[A B_S]^+|_F^2`` over all size-k subsets, by batched SVD."""
    combos = np.array(list(combinations(range(w.m), w.k)))
    stacks = np.concatenate(
        [np.broadcast_to(a, (len(combos),) + a.shape), b[:, combos].transpose(1, 0, 2)], axis=2
    )
    s = np.linalg.svd(stacks, compute_uv=False)[:, : w.n]
    full = s[:, -1] > 1e-12 * s[:, 0]
    return float(np.min(np.sum(1.0 / s[full] ** 2, axis=1)))


def check_oracle(w: Workload, a: np.ndarray, b: np.ndarray, payload: dict) -> Verdict:
    """Check a ``colsel oracle`` payload: the greedy bound, and a brute-force
    optimum that matches an independent enumeration and is no worse than greedy."""
    try:
        greedy = _check_greedy(
            w, a, b, payload["greedy_subset"], payload["greedy_frob_sq"],
            payload["greedy_spec_sq"], payload["baseline_frob_sq"],
            payload["baseline_spec_sq"], payload["bound_factor"],
        )
        if not greedy.ok:
            return greedy
        if payload["num_subsets"] != math.comb(w.m, w.k):
            return Verdict(False, f"num_subsets {payload['num_subsets']} != C(m, k)")
        best_subset, best = payload["best_subset_frob"], payload["best_frob_sq"]
        if not _valid_subset(w, best_subset) or not _valid_subset(w, payload["best_subset_spec"]):
            return Verdict(False, "invalid optimal subset")
        norms = _pinv_norms_sq(np.hstack([a, b[:, best_subset]]), w.n)
        optimum = brute_force_frob(w, a, b)
        if norms is None or not _close(best, norms[0]) or not _close(best, optimum):
            return Verdict(False, f"best_frob_sq {best!r} != enumerated optimum {optimum!r}")
        if payload["greedy_frob_sq"] < best * (1.0 - BOUND_RTOL):
            return Verdict(False, "greedy beats the reported optimum")
        return greedy._replace(opt_gap=payload["greedy_frob_sq"] / best)
    except (KeyError, TypeError) as exc:
        return Verdict(False, f"malformed payload: {exc!r}")


def check(w: Workload, a: np.ndarray, b: np.ndarray, output: bytes) -> Verdict:
    """Independent check of one request's output bytes."""
    try:
        payload = json.loads(output)
    except ValueError as exc:
        return Verdict(False, f"output is not JSON: {exc}")
    return check_oracle(w, a, b, payload) if w.via_cli else check_report(w, a, b, payload)
