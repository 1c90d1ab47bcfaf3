"""The benchmark's tracer still finds every name it wraps, and the package
exports only names that exist, none of them a test-only oracle.

perfbench/tracing.py times each layer by replacing module attributes of qtm
(kernels.rotate_head, engine.run, primitives.period_census, the io writers,
...). Deleting or renaming one of them makes `perfbench/run.py --trace 1`
die with AttributeError, so this test installs the tracer, drives the CLI
through the traced paths at small sizes, and checks that each layer saw
calls. A replaced attribute only sees calls made through the module, so
`simulate` must look up each engine's `run` when it is called.
"""

import os
import sys

import pytest

import qtm
from qtm import analysis, engine, primitives, recursion, state
from qtm.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


# oracles that only the tests compare with, kept in tests/helpers.py
TEST_ONLY = ("run_mixed", "distinct_points", "PointSet", "m1_closed_form",
             "purity")


def test_every_exported_name_resolves():
    assert [name for name in qtm.__all__ if not hasattr(qtm, name)] == []
    assert [name for name in TEST_ONLY if name in qtm.__all__] == []
    for module in (qtm, engine, analysis, recursion, state):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], (
            module.__name__)


def test_tracer_wraps_every_traced_layer(tmp_path):
    original_run = engine.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        common = ["--tape-size", "2", "--alpha", "pi/sqrt(3)", "--steps", "40"]
        for eng in ("statevector", "recursion", "primitives"):
            assert main(["simulate", *common, "--engine", eng,
                         "--out", str(tmp_path / f"{eng}.csv")]) == 0
        assert main(["classify", "--all", "--tape-size", "3",
                     "--max-cycles", "10",
                     "--out", str(tmp_path / "census.csv")]) == 0
    finally:
        tracer.uninstall()
    for layer in ("engine.run", "gates.rotation", "kernels.rotate",
                  "recursion.run", "primitives.superpose", "primitives.census",
                  "io.write"):
        assert tracer.count[layer] > 0, layer
    assert engine.run is original_run


@pytest.mark.parametrize("eng, path", [("statevector", engine),
                                       ("recursion", recursion),
                                       ("primitives", primitives)],
                         ids=["statevector", "recursion", "primitives"])
def test_simulate_looks_run_up_at_call_time(eng, path, monkeypatch, tmp_path):
    # the benchmark replaces engine.run and recursion.run on the module;
    # the CLI must call whatever is installed there when it runs
    calls = []
    original = path.run

    def run(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(path, "run", run)
    assert main(["simulate", "--tape-size", "2", "--alpha", "1", "--steps",
                 "8", "--engine", eng, "--out", str(tmp_path / "t.csv")]) == 0
    assert [c.num_tape_spins for c in calls] == [2]
