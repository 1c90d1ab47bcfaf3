"""The benchmark's tracer still finds every name it wraps, and the package
exports only names that exist.

perfbench/tracing.py times each layer by replacing module attributes of qtm
(kernels.rotate_head, engine.run, primitives.period_census, the io writers,
...). Deleting or renaming one of them makes `perfbench/run.py --trace 1`
die with AttributeError, so this test installs the tracer, drives the CLI
through the traced paths at small sizes, and checks that each layer saw
calls.
"""

import os
import sys

import qtm
from qtm import engine
from qtm.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def test_every_exported_name_resolves():
    assert [name for name in qtm.__all__ if not hasattr(qtm, name)] == []


def test_tracer_wraps_every_traced_layer(tmp_path):
    original_run = engine.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        common = ["--tape-size", "2", "--alpha", "pi/sqrt(3)", "--steps", "40"]
        for eng in ("statevector", "primitives"):
            assert main(["simulate", *common, "--engine", eng,
                         "--out", str(tmp_path / f"{eng}.csv")]) == 0
        assert main(["classify", "--all", "--tape-size", "3",
                     "--max-cycles", "10",
                     "--out", str(tmp_path / "census.csv")]) == 0
    finally:
        tracer.uninstall()
    for layer in ("engine.run", "gates.rotation", "kernels.rotate",
                  "primitives.superpose", "primitives.census", "io.write"):
        assert tracer.count[layer] > 0, layer
    assert engine.run is original_run
