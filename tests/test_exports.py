"""The package namespace re-exports exactly the modules' public names."""

import importlib
import types

import iodmd


def test_package_reexports_the_union_of_module_all_lists():
    declared = set()
    for name in ("linalg", "snapshot", "pod", "identify", "plant", "excite", "stabilize", "harness"):
        module = importlib.import_module(f"iodmd.{name}")
        assert all(hasattr(module, attr) for attr in module.__all__), name
        declared |= set(module.__all__)
    exported = {
        name
        for name, value in vars(iodmd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared


def test_namespace_binds_the_names_the_benchmark_reads():
    # the star imports bind the function stabilize over its module name
    assert iodmd.stabilize is importlib.import_module("iodmd.stabilize").stabilize
    assert iodmd.harness.EXCITATIONS is iodmd.excite.EXCITATIONS
