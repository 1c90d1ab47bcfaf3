"""Network state of the spin Turing machine.

The machine is one distinguished head spin plus M tape spins, stored as a
flat array of 2**(M+1) complex amplitudes. Index bit 0 selects the head
component and index bit mu (1 <= mu <= M) selects tape spin mu, so the
amplitude of |head=h, tape=b_M..b_1> sits at index h + sum(b_mu * 2**mu).

The single-spin operators used throughout are

    lx = [[0, 1], [1, 0]]
    ly = [[0, 1j], [-1j, 0]]
    lz = [[-1, 0], [0, 1]]

so |0> is the lz eigenstate with eigenvalue -1 and the head ground state has
Bloch vector (0, 0, -1). A head prepared at angle phi is

    cos(phi/2)|0> - 1j*sin(phi/2)|1>

with Bloch vector (0, sin(phi), -cos(phi)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

HEAD_BIT = 0

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Sums over amplitudes are taken in blocks of this many elements, one BLAS
# call per block. OpenBLAS splits a longer dot product across its threads,
# which changes the order of summation, so the bits of a reduction (and of
# every trajectory) would depend on the thread count; below about 10,000
# elements it never splits.
REDUCE_BLOCK = 8192

# single-site column vectors for each tape-spec character
_SITE_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "-": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
}


def tape_bit(mu: int, num_tape_spins: int) -> int:
    """Index bit carrying tape spin mu. The mapping is the identity on
    1..M by construction; this helper exists to validate the range."""
    if not 1 <= mu <= num_tape_spins:
        raise ConfigurationError(
            f"tape spin index {mu} out of range 1..{num_tape_spins}"
        )
    return mu


def normalize_tape_spec(spec: str, num_tape_spins: int | None = None) -> str:
    """Canonicalize a tape spec string.

    Accepts the shorthands "zeros" and "ones" (requires num_tape_spins),
    maps the unicode minus sign to ASCII '-', and validates the alphabet.
    """
    if spec == "zeros":
        if num_tape_spins is None:
            raise ConfigurationError('"zeros" shorthand needs a tape size')
        return "0" * num_tape_spins
    if spec == "ones":
        if num_tape_spins is None:
            raise ConfigurationError('"ones" shorthand needs a tape size')
        return "1" * num_tape_spins
    spec = spec.replace("−", "-").replace("–", "-")
    if not spec or any(ch not in _SITE_VECTORS for ch in spec):
        raise ConfigurationError(
            f"tape spec {spec!r} must be a nonempty string over 0, 1, +, -"
        )
    if num_tape_spins is not None and len(spec) != num_tape_spins:
        raise ConfigurationError(
            f"tape spec {spec!r} has length {len(spec)}, expected {num_tape_spins}"
        )
    return spec


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class StateVector:
    """Dense amplitude array for the head plus num_tape_spins tape spins."""

    __slots__ = ("num_tape_spins", "amplitudes")

    def __init__(self, num_tape_spins: int, amplitudes: np.ndarray):
        if num_tape_spins < 1:
            raise ConfigurationError("need at least one tape spin")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (2 ** (num_tape_spins + 1),):
            raise ConfigurationError(
                f"amplitude array has shape {amplitudes.shape}, "
                f"expected ({2 ** (num_tape_spins + 1)},)"
            )
        self.num_tape_spins = num_tape_spins
        self.amplitudes = amplitudes

    def norm_sq(self) -> float:
        return _vdot(self.amplitudes, self.amplitudes).real

    def copy(self) -> "StateVector":
        return StateVector(self.num_tape_spins, self.amplitudes.copy())

    def __repr__(self):
        return f"StateVector(M={self.num_tape_spins}, norm²={self.norm_sq():.12f})"


def head_vector(phi0: float) -> np.ndarray:
    """Head spin prepared at Bloch angle phi0 in the x=0 plane."""
    return np.array(
        [math.cos(phi0 / 2.0), -1j * math.sin(phi0 / 2.0)], dtype=complex
    )


def make_product_state(phi0: float, tape: str) -> StateVector:
    """Product state: head at angle phi0, tape spins from a spec string.

    Each character sets one tape spin: '0' and '1' are the lz basis, '+' and
    '-' are the lx eigenstates (|0> +- |1>)/sqrt(2). Character k of the
    string is tape spin k+1.
    """
    tape = normalize_tape_spec(tape)
    vec = head_vector(phi0)
    for ch in tape:
        vec = np.kron(_SITE_VECTORS[ch], vec)
    return StateVector(len(tape), vec)


def make_state(phi0: float, tape) -> StateVector:
    """Build head (x) tape with the tape given either as a spec string or as
    an explicit array of 2**M tape amplitudes (tape index bit k is spin k+1).
    """
    if isinstance(tape, str):
        return make_product_state(phi0, tape)
    tape_amps = np.asarray(tape, dtype=complex)
    if tape_amps.ndim != 1 or tape_amps.size < 2 or tape_amps.size & (tape_amps.size - 1):
        raise ConfigurationError("tape amplitude list must have length 2**M, M >= 1")
    nrm = _vdot(tape_amps, tape_amps).real
    if abs(nrm - 1.0) > 1e-9:
        raise ConfigurationError(f"tape amplitude list not normalized (norm² = {nrm})")
    tape_amps = tape_amps / math.sqrt(nrm)
    amps = (tape_amps[:, None] * head_vector(phi0)[None, :]).ravel()
    return StateVector(tape_amps.size.bit_length() - 1, amps)


def head_bloch(state: StateVector) -> BlochVector:
    """Bloch vector of the head spin, summed over all tape configurations.

    Equivalent to tracing out the tape: with amplitude pairs (a0, a1) over
    head bit for each tape configuration,

        x = 2 Re sum(conj(a0) a1)
        y = -2 Im sum(conj(a0) a1)
        z = sum |a1|² - sum |a0|²
    """
    amps = state.amplitudes
    cross = head_cross(state)
    p0 = _vdot(amps[0::2], amps[0::2]).real
    p1 = _vdot(amps[1::2], amps[1::2]).real
    return BlochVector(2.0 * cross.real, -2.0 * cross.imag, p1 - p0)


def head_cross(state: StateVector) -> complex:
    """sum(conj(a0) a1) over the head pairs (a0, a1), the one sum behind
    the x and y of head_bloch."""
    amps = state.amplitudes
    return _vdot(amps[0::2], amps[1::2])


def purity(b: BlochVector) -> float:
    """Squared Bloch length; 1 for a pure head, below 1 when the head is
    entangled with the tape."""
    return b.x * b.x + b.y * b.y + b.z * b.z


def inner_product(a: StateVector, b: StateVector):
    if a.num_tape_spins != b.num_tape_spins:
        raise ConfigurationError("states have different tape sizes")
    return _vdot(a.amplitudes, b.amplitudes)


def _vdot(a, b) -> complex:
    """np.vdot(a, b) summed block by block, so its bits do not depend on
    the BLAS thread count (see REDUCE_BLOCK)."""
    total = 0j
    for i in range(0, a.size, REDUCE_BLOCK):
        total += np.vdot(a[i:i + REDUCE_BLOCK], b[i:i + REDUCE_BLOCK])
    return complex(total)
