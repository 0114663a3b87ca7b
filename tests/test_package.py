"""Package-wide properties: the public root, and what the benchmark's tracer relies on."""
from __future__ import annotations

import importlib
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import colsel

ROOT = Path(__file__).resolve().parent.parent

# The selection path and the errors it raises; smallest_root and its argument
# type stay only because the benchmark's tracer test wraps colsel.smallest_root.
ROOT_EXPORTS = [
    "AlgorithmFailure",
    "DimensionMismatch",
    "FormatError",
    "InvalidInput",
    "InvalidSubset",
    "NotRealRooted",
    "RankDeficient",
    "TooLarge",
    "DenseMatrix",
    "SelectionProblem",
    "SelectionReport",
    "TraceStep",
    "gamma",
    "greedy_select",
    "verify_bound",
    "EnumerationResult",
    "brute_force",
    "Polynomial",
    "smallest_root",
    "__version__",
]

# Names the root no longer exports, each with the module that defines it.
MODULE_ONLY = {
    "errors": ["DeflationFailure"],
    "linalg": ["SvdFactors", "thin_svd", "pseudoinverse", "norms_sq", "columns", "hcat",
               "gram_update"],
    "poly": ["derivative", "sturm_chain", "count_roots_leq", "is_real_rooted"],
    "expected_charpoly": ["IsotropicInstance", "charpoly_psd", "expected_poly",
                          "root_sum_identity_check"],
    "selector": ["build_isotropic", "min_singular_check"],
    "oracle": ["barrier", "barrier_descent_check", "companion_smallest_root",
               "interlacing_check"],
}


def test_root_exports_the_selection_path():
    assert colsel.__all__ == ROOT_EXPORTS
    namespace: dict = {}
    exec("from colsel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ROOT_EXPORTS)


@pytest.mark.parametrize(
    "module, name", [(mod, name) for mod, names in MODULE_ONLY.items() for name in names]
)
def test_helpers_import_from_their_modules(module, name):
    assert not hasattr(colsel, name)
    assert callable(getattr(importlib.import_module(f"colsel.{module}"), name))


def test_no_module_level_binding_has_wrapped():
    # The tracer treats any binding with __wrapped__ as one of its own span
    # wrappers, so a functools.cache, lru_cache or wraps decorator at module
    # level looks like a tracer left installed in an untraced run.  The
    # harness checks every module-level value, callable or not.
    modules = [colsel] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(colsel.__path__, prefix="colsel.")
    ]
    wrapped = [
        f"{mod.__name__}.{key}"
        for mod in modules
        for key, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]
    assert not wrapped, (
        f"{wrapped} carry __wrapped__, which fails "
        "benchmarks/test_harness.py::test_untraced_run_installs_no_wrapper"
    )


def _refuse(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", ["wide", "oracle"])
def test_a_traced_benchmark_run_reads_every_per_layer_metric(workload):
    # The benchmark takes a traced run's last line as its result only if it
    # is standard JSON with every per_layer metric of BENCHMARK.json a
    # finite number in its unit.  A metric the tracer derives from spans
    # that a run never opens (say, no poly.smallest_root span because the
    # loop scores without it) reads null, and the run has no result.
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    bad = []
    for spec in specs:
        metric = metrics.get(spec["name"], {})
        value = metric.get("value")
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if metric.get("unit") != spec["unit"] or not finite:
            bad.append(f"{spec['name']}: {metric or 'missing'}")
    assert not bad, f"{workload}: metrics missing, in another unit, null or not finite: {bad}"
