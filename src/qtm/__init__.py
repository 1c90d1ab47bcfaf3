"""Simulator for a cyclic spin-chain Turing machine.

One head spin walks over M tape spins; each cycle alternates a head
rotation with a controlled flip of the visited tape spin. The package
computes the head's Bloch-vector trajectory four independent ways (full
state vector, primitive angle evolution, a closed-form recursion, and an
analytic periodicity classifier) and cross-checks them against each other.
"""

__version__ = "0.1.0"

from .analysis import (CircleSet, PointSet, Spectrum, distinct_points,
                       fit_invariant_circles, spectrum)
from .engine import MachineConfig, Trajectory, run, run_mixed
from .errors import (CircleFitError, ConfigurationError,
                     NumericalValidationError, QtmError)
from .exprs import parse_angle
from .gates import apply_head_rotation, apply_qcnot
from .kernels import BACKEND
from .primitives import (PeriodicityClass, all_patterns, classify, decompose,
                         detect_period_numeric, evolve_angles, period_census,
                         run_primitive, superpose)
from .recursion import HeadRecursion, m1_closed_form
from .state import (BlochVector, StateVector, head_bloch, make_product_state,
                    make_state, purity)

__all__ = [
    "__version__", "BACKEND",
    "BlochVector", "StateVector", "head_bloch", "make_product_state",
    "make_state", "purity",
    "apply_head_rotation", "apply_qcnot",
    "MachineConfig", "Trajectory", "run", "run_mixed",
    "PeriodicityClass", "all_patterns", "classify", "decompose",
    "detect_period_numeric", "evolve_angles", "period_census",
    "run_primitive", "superpose",
    "HeadRecursion", "m1_closed_form",
    "CircleSet", "PointSet", "Spectrum", "distinct_points",
    "fit_invariant_circles", "spectrum",
    "parse_angle",
    "QtmError", "ConfigurationError", "NumericalValidationError",
    "CircleFitError",
]
