"""The benchmark's tracer wraps pathent functions by name and reads their arguments by position; a renamed
or deleted one, or a changed call shape, would break `--trace 1`."""

import importlib
import importlib.util
import sys

import pytest

from pathent import cli

from conftest import FIXTURES, REPO_ROOT


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


# (witness.box_bound, witness.optimal_alpha) calls per op: the certifying paths run both box searches once,
# sweep-alpha bounds its grid pointwise and runs both amplitude optimizers
WITNESS_CALLS = {"run": (2, 0), "sweep-phase": (2, 0), "sweep-alpha": (0, 2), "certify": (2, 0)}


@pytest.mark.parametrize("workload, argv, herald_calls", [
    ("run", ["run", "--config", str(FIXTURES / "lossy_link.json")], 1),
    ("sweep-phase", ["sweep-phase", "--config", str(FIXTURES / "lossy_link.json")], 1),
    ("sweep-alpha", ["sweep-alpha", "--config", str(FIXTURES / "ideal_link.json")], 1),
    ("certify", ["certify", "--counts", str(FIXTURES / "published_42m_set1.counts.csv"),
                 "--settings", str(FIXTURES / "published_42m_set1.settings.csv")], 0),
])
def test_traced_op_runs_with_one_herald_per_simulation(workload, argv, herald_calls, tmp_path, capsys):
    spans = load_tracer()
    tracer = spans.Tracer()
    tracer.install(workload)
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["herald.simulate.calls"] == herald_calls
    assert (metrics["witness.box_bound.calls"], metrics["witness.optimal_alpha.calls"]) == WITNESS_CALLS[workload]
