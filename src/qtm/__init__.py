"""Simulator for a cyclic spin-chain Turing machine.

One head spin walks over M tape spins; each cycle alternates a head
rotation with a controlled flip of the visited tape spin. The package
computes the head's Bloch-vector trajectory four independent ways (full
state vector, primitive angle evolution, a closed-form recursion, and an
analytic periodicity classifier) and cross-checks them against each other.
"""

__version__ = "0.1.0"

from .analysis import CircleSet, Spectrum, fit_invariant_circles, spectrum
from .engine import MachineConfig, Trajectory, run
from .errors import (CircleFitError, ConfigurationError,
                     NumericalValidationError, QtmError)
from .exprs import parse_angle
from .gates import apply_head_rotation, apply_qcnot
from .primitives import (PeriodicityClass, all_patterns, classify, decompose,
                         detect_period_numeric, evolve_angles, period_census,
                         run_primitive, superpose)
from .recursion import HeadRecursion
from .state import (BlochVector, StateVector, head_bloch, make_product_state,
                    make_state)

__all__ = [
    "__version__",
    "BlochVector", "StateVector", "head_bloch", "make_product_state",
    "make_state",
    "apply_head_rotation", "apply_qcnot",
    "MachineConfig", "Trajectory", "run",
    "PeriodicityClass", "all_patterns", "classify", "decompose",
    "detect_period_numeric", "evolve_angles", "period_census",
    "run_primitive", "superpose",
    "HeadRecursion",
    "CircleSet", "Spectrum", "fit_invariant_circles", "spectrum",
    "parse_angle",
    "QtmError", "ConfigurationError", "NumericalValidationError",
    "CircleFitError",
]
