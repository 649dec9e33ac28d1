"""The benchmark's tracer wraps pathent functions by name; a renamed or deleted one would break `--trace 1`."""

import importlib
import importlib.util
import sys

from conftest import REPO_ROOT


def load_tracer():
    """perfbench/spans.py as a module, imported without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_layer_name_resolves():
    layers = load_tracer().LAYERS
    assert layers
    missing = [
        f"{module}.{name}"
        for _, module, names in layers
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
