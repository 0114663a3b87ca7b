"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer wraps the package's public functions from outside the
package: for each target function it replaces every module binding that
refers to it (``colsel.selector.smallest_root``, ``colsel.poly.smallest_root``,
``colsel.smallest_root``, ...), because a caller resolves the name in its
own module's globals.  Each call then records a span: name, start, end,
parent span, request id, the exception type if it raised, and an
optional integer tag taken from one argument.  Spans are kept in memory
as columns and written out once, at the end of the run.

Only the functions that the layer metrics name are wrapped.  The poly
helpers that the expected-polynomial transform calls (``derivative``,
``mul_shifted_power``, ``deflate_shifted_power``, ``monic``,
``from_roots``, ``evaluate``) stay unwrapped on purpose: their cost is
the transform's own work and lands in its self time, and ``evaluate``
runs hundreds of thousands of times per request, where a wrapper would
swamp what it measures.
"""
from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, Optional

import numpy as np

# (module, function, index of the positional argument kept as the span's tag)
FUNCTIONS: tuple[tuple[str, str, Optional[int]], ...] = (
    ("poly", "smallest_root", None),
    ("poly", "sturm_chain", None),
    ("poly", "count_roots_leq", None),
    ("expected_charpoly", "expected_poly_from_gram", 2),  # tag: partial size j
    ("expected_charpoly", "charpoly_psd", None),
    ("selector", "build_isotropic", None),
    ("selector", "greedy_select", None),
    ("selector", "gamma", None),
    ("selector", "bound_factor", None),
    ("selector", "_check_report", None),
    ("linalg", "gram_update", None),
    ("linalg", "thin_svd", None),
    ("linalg", "pseudoinverse", None),
    ("linalg", "norms_sq", None),
    ("linalg", "columns", None),
    ("linalg", "hcat", None),
    ("oracle", "brute_force", None),
    ("cli", "parse_matrix_csv", None),
    ("cli", "serialize_report", None),
    ("cli", "main", None),
)
# (module, class, method) traced as the span "<module>.<class>".
METHODS = (("selector", "SelectionProblem", "__post_init__"),)
# (module, class, method) whose calls are only counted, as "<module>.<class>".
COUNTED = (("linalg", "DenseMatrix", "__init__"),)

REQUEST = "request"
# Children of greedy_select that run after the loop.
FINAL = (
    "linalg.hcat",
    "linalg.columns",
    "linalg.pseudoinverse",
    "linalg.norms_sq",
    "selector.gamma",
    "selector.bound_factor",
    "selector._check_report",
)


class Tracer:
    """Records spans around calls into the package while installed.

    ``modules`` maps short module names (``"poly"``, ``"cli"``, ...) to the
    imported modules and ``"colsel"`` to the package.  Build the tracer
    while nothing is installed; ``install``/``uninstall`` swap the
    wrappers in and out.  ``root_oracle(poly)`` is called on every
    ``smallest_root`` result; its time is taken off the clock, so it
    lies in no span.
    """

    def __init__(self, modules: dict[str, ModuleType], root_oracle: Callable[[object], float]):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.error = array("q")
        self.tag = array("q")
        self.counts: dict[str, int] = {}
        self.root_gaps: list[float] = []  # |smallest_root - oracle| / eps
        self._stack: list[int] = []
        self._excluded = 0.0
        self._request_id = -1
        self._root_oracle = root_oracle
        self._patches: list[tuple[object, str, object, object]] = []

        for mod, fn, tag_arg in FUNCTIONS:
            original = getattr(modules[mod], fn)
            after = self._check_root if fn == "smallest_root" else None
            wrapper = self._span_wrapper(f"{mod}.{fn}", original, tag_arg, after)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        for mod, cls, meth in METHODS:
            owner = getattr(modules[mod], cls)
            original = vars(owner)[meth]
            self._patches.append(
                (owner, meth, original, self._span_wrapper(f"{mod}.{cls}", original, None, None))
            )
        for mod, cls, meth in COUNTED:
            owner = getattr(modules[mod], cls)
            original = vars(owner)[meth]
            self._patches.append((owner, meth, original, self._count_wrapper(f"{mod}.{cls}", original)))

    # -- clock and span bookkeeping -------------------------------------

    def now(self) -> float:
        """Trace clock: wall time minus the time spent in excluded checks."""
        return time.perf_counter() - self._excluded

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, tag: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.request.append(self._request_id)
        self.error.append(-1)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.now())
        return sid

    def _close(self, sid: int, exc: Optional[BaseException]) -> None:
        self.end[sid] = self.now()
        self._stack.pop()
        if exc is not None:
            self.error[sid] = self._intern(type(exc).__name__)

    def _span_wrapper(self, name: str, fn, tag_arg: Optional[int], after):
        name_id = self._intern(name)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tag = args[tag_arg] if tag_arg is not None and len(args) > tag_arg else -1
            sid = tracer._open(name_id, tag)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, exc)
                raise
            tracer._close(sid, None)
            if after is not None:
                t0 = time.perf_counter()
                after(args, result)
                tracer._excluded += time.perf_counter() - t0
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _check_root(self, args: tuple, result: float) -> None:
        poly, eps = args[0], args[1]
        self.root_gaps.append(abs(result - self._root_oracle(poly)) / eps)

    # -- install / request ---------------------------------------------

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    @contextmanager
    def request_span(self, request_id: int) -> Iterator[None]:
        """Root span of one request; every span opened inside carries its id."""
        self._request_id = request_id
        sid = self._open(self._intern(REQUEST), -1)
        try:
            yield
        except BaseException as exc:
            self._close(sid, exc)
            raise
        else:
            self._close(sid, None)
        finally:
            self._request_id = -1

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (views of the in-memory arrays)."""
        cols = ("start", "end", "parent", "name", "request", "error", "tag")
        return {c: np.frombuffer(getattr(self, c), dtype=getattr(self, c).typecode) for c in cols}

    def write(self, path: Path) -> None:
        """Write every span, as columns, to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), counts=np.array(json.dumps(self.counts)), **self.columns()
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread with strict nesting, so siblings never
    overlap; a child is clipped to its parent's interval before its
    length is taken off the parent.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    p = parent[child]
    covered_len = np.clip(
        np.minimum(end[child], end[p]) - np.maximum(start[child], start[p]), 0.0, None
    )
    covered = np.bincount(p, weights=covered_len, minlength=len(start))
    return (end - start) - covered


def layer_metrics(
    tracer: Tracer, request_walls: list[float], untraced_s: float
) -> dict[str, tuple[Optional[float], str]]:
    """Per-layer metrics, as ``name -> (value, unit)``, from the tracer's spans.

    Times and counts are means per traced request.  ``request_walls[i]``
    is the traced wall time of request ``i`` on the tracer's clock;
    ``untraced_s`` is the wall time of the same requests run untraced.
    """
    requests = len(request_walls)
    cols = tracer.columns()
    start, end, parent, name = cols["start"], cols["end"], cols["parent"], cols["name"]
    failed = cols["error"] >= 0
    duration = end - start
    own = self_times(start, end, parent)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def is_(*names: str, column: np.ndarray = name) -> np.ndarray:
        return np.isin(column, [tracer._ids[n] for n in names if n in tracer._ids])

    def under(*names: str) -> np.ndarray:
        return is_(*names, column=parent_name)

    def per_request(total: float) -> float:
        return total / requests

    def ratio(num: float, den: float) -> Optional[float]:
        return num / den if den else None

    greedy = "selector.greedy_select"
    score = is_("expected_charpoly.expected_poly_from_gram")
    root = is_("poly.smallest_root")
    roots_ok = int(np.sum(root & ~failed))
    scored = score & under(greedy)
    scores = int(np.sum(scored))
    scores_failed = int(np.sum((score | root) & under(greedy) & failed))
    iterations = len(set(zip(cols["request"][scored].tolist(), cols["tag"][scored].tolist())))
    count_calls = int(np.sum(is_("poly.count_roots_leq")))
    greedy_s = float(np.sum(duration[is_(greedy)]))
    reduction_s = float(np.sum(duration[is_("selector.build_isotropic")]))
    final_s = float(np.sum(duration[is_(*FINAL) & under(greedy)]))
    enum_s = float(np.sum(duration[is_("oracle.brute_force")]))
    subsets = int(np.sum(is_("linalg.columns") & under("oracle.brute_force")))
    gaps = np.asarray(tracer.root_gaps)

    def self_s(*names: str) -> float:
        return per_request(float(np.sum(own[is_(*names)])))

    def count(mask: np.ndarray) -> float:
        return per_request(float(np.sum(mask)))

    return {
        "poly.roots": (per_request(roots_ok), "count"),
        "poly.root_s": (self_s("poly.smallest_root"), "s"),
        "poly.sturm_chain_s": (self_s("poly.sturm_chain"), "s"),
        "poly.count_calls": (per_request(count_calls), "count"),
        "poly.count_s": (self_s("poly.count_roots_leq"), "s"),
        "poly.counts_per_root": (ratio(count_calls, int(np.sum(root))), "count"),
        "poly.root_gap_over_eps_max": (float(gaps.max()) if gaps.size else None, "eps"),
        "poly.root_gap_frac": (float(np.mean(gaps > 1.0)) if gaps.size else None, "ratio"),
        "expected_charpoly.calls": (count(score), "count"),
        "expected_charpoly.failures": (count(score & failed), "count"),
        "expected_charpoly.charpoly_s": (self_s("expected_charpoly.charpoly_psd"), "s"),
        "expected_charpoly.transform_s": (self_s("expected_charpoly.expected_poly_from_gram"), "s"),
        "selector.problem_s": (
            per_request(float(np.sum(duration[is_("selector.SelectionProblem")]))),
            "s",
        ),
        "selector.reduction_s": (per_request(reduction_s), "s"),
        "selector.final_s": (per_request(final_s), "s"),
        "selector.iterations": (per_request(iterations), "count"),
        "selector.scores": (per_request(scores), "count"),
        "selector.scores_failed": (per_request(scores_failed), "count"),
        "selector.score_ok_ratio": (ratio(scores - scores_failed, scores), "ratio"),
        "selector.loop_self_s": (self_s(greedy), "s"),
        "selector.us_per_score": (
            ratio(1e6 * (greedy_s - reduction_s - final_s), scores),
            "us",
        ),
        "linalg.gram_updates": (count(is_("linalg.gram_update")), "count"),
        "linalg.gram_update_s": (self_s("linalg.gram_update"), "s"),
        "linalg.svd_calls": (count(is_("linalg.thin_svd")), "count"),
        "linalg.svd_s": (self_s("linalg.thin_svd"), "s"),
        "linalg.pinv_calls": (count(is_("linalg.pseudoinverse")), "count"),
        "linalg.pinv_s": (self_s("linalg.pseudoinverse"), "s"),
        "linalg.norms_calls": (count(is_("linalg.norms_sq")), "count"),
        "linalg.norms_s": (self_s("linalg.norms_sq"), "s"),
        "linalg.slice_s": (self_s("linalg.columns", "linalg.hcat"), "s"),
        "linalg.matrices_built": (per_request(tracer.counts.get("linalg.DenseMatrix", 0)), "count"),
        "oracle.enum_s": (per_request(enum_s), "s"),
        "oracle.subsets": (per_request(subsets), "count"),
        "oracle.subsets_per_s": (ratio(subsets, enum_s), "1/s"),
        "cli.parse_s": (self_s("cli.parse_matrix_csv"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (sum(request_walls) / untraced_s - 1.0, "ratio"),
    }
