"""Package-wide properties that the benchmark's tracer relies on."""
from __future__ import annotations

import importlib
import pkgutil

import colsel


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
