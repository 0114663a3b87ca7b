"""Package-wide properties: the public root, and what the benchmark's tracer relies on."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import colsel

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
    # level looks like a tracer left installed in an untraced run.
    modules = [colsel] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(colsel.__path__, prefix="colsel.")
    ]
    wrapped = [
        f"{mod.__name__}.{key}"
        for mod in modules
        for key, value in vars(mod).items()
        if callable(value) and hasattr(value, "__wrapped__")
    ]
    assert not wrapped, (
        f"{wrapped} carry __wrapped__, which fails "
        "benchmarks/test_harness.py::test_untraced_run_installs_no_wrapper"
    )
