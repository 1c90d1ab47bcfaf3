"""The two machine gates, applied in place to a StateVector.

A head rotation by alpha mixes the head components of every tape
configuration:

    (a0, a1) -> (cos(alpha/2) a0 - i sin(alpha/2) a1,
                 -i sin(alpha/2) a0 + cos(alpha/2) a1)

On the Bloch sphere this is (x, y, z) -> (x, y cos a - z sin a,
y sin a + z cos a), i.e. a head at angle phi moves to phi + alpha.

The controlled gate acts on one tape spin, conditioned on the head's |0>
component: head |0> flips tape spin mu, head |1> leaves it alone. Two
variants of the flip are supported:

    "x"  : [[0, 1], [1, 0]]   plain swap (self-inverse)
    "iy" : [[0, -1], [1, 0]]  signed swap, (t0, t1) -> (-t1, t0)
"""

import math

from . import kernels
from .errors import ConfigurationError
from .state import StateVector

VARIANT_X = "x"
VARIANT_IY = "iy"
VARIANTS = (VARIANT_X, VARIANT_IY)


def rotation_coefficients(alpha: float) -> tuple[float, float]:
    """(cos(alpha/2), sin(alpha/2)), the coefficients of a head rotation."""
    half = 0.5 * float(alpha)
    return math.cos(half), math.sin(half)


def apply_head_rotation(state: StateVector, alpha: float) -> None:
    kernels.rotate_head(state.amplitudes, *rotation_coefficients(alpha))


def apply_qcnot(state: StateVector, mu: int, variant: str = VARIANT_X) -> None:
    """Controlled flip of tape spin mu, which sits at index bit mu-1."""
    if not 1 <= mu <= state.num_tape_spins:
        raise ConfigurationError(
            f"tape spin index {mu} out of range 1..{state.num_tape_spins}")
    if variant == VARIANT_X:
        kernels.cnot_flip(state.amplitudes, mu)
    elif variant == VARIANT_IY:
        kernels.cnot_signed_flip(state.amplitudes, mu)
    else:
        raise ConfigurationError(f"unknown gate variant {variant!r}")

