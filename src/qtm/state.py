"""Network state of the spin Turing machine.

The machine is one distinguished head spin plus M tape spins, stored as a
flat array of 2**(M+1) complex amplitudes, head-major: the amplitude of
|head=h, tape=b_M..b_1> sits at index t + h * 2**M, with tape spin mu
(1 <= mu <= M) at bit mu-1 of t = sum(b_mu * 2**(mu-1)). So amps[:2**M]
holds the head-0 amplitudes and amps[2**M:] the head-1 amplitudes, each
half in tape order, and every gate and head reduction reads them at unit
stride.

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
import numbers
import os
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Sums over amplitudes are taken in blocks of this many elements, one BLAS
# call per block over a contiguous run (a head half, or a whole state).
# OpenBLAS splits a longer dot product across its threads, which changes
# the order of summation, so the bits of a reduction (and of every
# trajectory) would depend on the thread count; below about 10,000
# elements it never splits. The fused pairs (_kernels_py.pairs) sum the
# head cross term in the same blocks, so its bits stay head_cross's. Other
# users of this size, which move with it: engine.run's small-tape rule (a
# cycle matrix of at most REDUCE_BLOCK entries, M <= 5) and its windows of
# at most REDUCE_BLOCK stacked amplitudes, and the rows per block of io's
# trajectory writers.
REDUCE_BLOCK = 8192

# single-site column vectors for each tape-spec character
_SITE_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "-": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
}


def normalize_tape_spec(spec: str, num_tape_spins: int | None = None) -> str:
    """Canonicalize a tape spec string.

    Accepts the shorthands "zeros" and "ones" (requires num_tape_spins),
    maps the unicode minus sign to ASCII '-', and validates the alphabet.
    """
    if num_tape_spins is not None:
        check_count(num_tape_spins, 1, "need at least one tape spin")
    fill = {"zeros": "0", "ones": "1"}.get(spec)
    if fill:
        if num_tape_spins is None:
            raise ConfigurationError(f'"{spec}" shorthand needs a tape size')
        return fill * num_tape_spins
    spec = spelled_over(spec, _SITE_VECTORS, "tape spec", "0, 1, +, -")
    if num_tape_spins is not None and len(spec) != num_tape_spins:
        raise ConfigurationError(
            f"tape spec {spec!r} has length {len(spec)}, expected {num_tape_spins}"
        )
    return spec


def spelled_over(text: str, alphabet, what: str, listed: str) -> str:
    """text with the unicode minus and en dash as ASCII '-', refused
    unless it is a nonempty string over alphabet; what names the text and
    listed the alphabet in the refusal."""
    text = text.replace("−", "-").replace("–", "-")
    if not text or any(ch not in alphabet for ch in text):
        raise ConfigurationError(
            f"{what} {text!r} must be a nonempty string over {listed}")
    return text


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class StateVector:
    """Head plus num_tape_spins tape spins: one state of 2**(M+1) amplitudes,
    or a C-contiguous (rows, 2**(M+1)) stack of states, which every gate and
    kernel acts on row by row alike; norm_sq and head_bloch are for one."""

    __slots__ = ("num_tape_spins", "amplitudes")

    def __init__(self, num_tape_spins: int, amplitudes: np.ndarray):
        check_count(num_tape_spins, 1, "need at least one tape spin")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        size = 2 ** (num_tape_spins + 1)
        if amplitudes.ndim not in (1, 2) or amplitudes.shape[-1] != size:
            raise ConfigurationError(
                f"amplitude array has shape {amplitudes.shape}, "
                f"expected ({size},) or (rows, {size})"
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


def _read_meminfo() -> str:
    with open("/proc/meminfo", encoding="ascii") as fh:
        return fh.read()


def check_fits(need: int, what: str) -> None:
    """Refuse a computation whose estimated footprint of `need` bytes
    exceeds the physical memory available (MemAvailable of /proc/meminfo,
    what the kernel can hand out without swapping), before anything of
    that size is allocated. Where /proc/meminfo cannot be read, the budget
    is all of physical memory."""
    try:
        line = next(ln for ln in _read_meminfo().splitlines()
                    if ln.startswith("MemAvailable:"))
        have, of = int(line.split()[1]) << 10, "physical memory available"
    except (OSError, StopIteration, IndexError, ValueError):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        of = "physical memory"
    if need > have:
        raise ConfigurationError(
            f"{what} need {need / 2**20:,.0f} MiB, "
            f"more than the {have / 2**20:,.0f} MiB of {of}"
        )


def check_count(value, least: int, refusal: str) -> None:
    """Refuse a count (a tape size, a step count, a bound on cycles or
    circles) unless it is an integer, a Python or numpy one, of at least
    least; refusal is the message for one below least."""
    if not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{value!r} is not an integer: {refusal}")
    if value < least:
        raise ConfigurationError(refusal)


def check_state_fits(num_tape_spins: int) -> None:
    """Refuse a state whose 16*2**(M+1) bytes of complex128 amplitudes,
    plus the half-size array it is built from (the state before
    add_tape_spin's last spin, or make_state's tape amplitudes), exceed
    the memory available (check_fits)."""
    check_fits(24 << (num_tape_spins + 1), f"{num_tape_spins} tape spins")


def aligned_empty(shape, dtype=complex) -> np.ndarray:
    """np.empty(shape, dtype) starting on a 64-byte boundary, a cache
    line: numpy only aligns to 16 bytes, and a state at 16 or 48 mod 64
    bytes rotated 7-14% slower than one at 0 or 32."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def add_tape_spin(amps: np.ndarray, ch: str) -> np.ndarray:
    """amps with one more tape spin, in the single-site state of spec
    character ch, as the new top tape bit, between the tape and the head
    bit: new[h, b, t] = site[b] * old[h, t], the products np.kron forms,
    written into an aligned_empty state one contiguous run at a time (a
    broadcast product of this shape also allocates two buffers the size
    of a new state of at most 8,192 amplitudes)."""
    out = aligned_empty(2 * amps.size)
    for new, old in zip(out.reshape(2, 2, -1), amps.reshape(2, -1)):
        for dst, site in zip(new, _SITE_VECTORS[ch]):
            np.multiply(site, old, out=dst)
    return out


def make_product_state(phi0: float, tape: str) -> StateVector:
    """Product state: head at angle phi0, tape spins from a spec string.

    Each character sets one tape spin: '0' and '1' are the lz basis, '+' and
    '-' are the lx eigenstates (|0> +- |1>)/sqrt(2). Character k of the
    string is tape spin k+1.
    """
    tape = normalize_tape_spec(tape)
    check_state_fits(len(tape))
    vec = head_vector(phi0)
    for ch in tape:
        vec = add_tape_spin(vec, ch)
    return StateVector(len(tape), vec)


def tape_amplitudes(tape, num_tape_spins: int | None = None):
    """(amplitudes, norm²) of an explicit tape, refused unless it has 2**M
    entries, M >= 1 (M = num_tape_spins when given), and a norm² within
    1e-9 of 1. The path that builds from it divides by the norm, once."""
    amps = np.asarray(tape, dtype=complex)
    num = amps.size.bit_length() - 1
    if amps.ndim != 1 or num < 1 or amps.size != 1 << num or (
            num_tape_spins not in (None, num)):
        raise ConfigurationError(
            f"tape amplitude list must have length 2**"
            f"{num_tape_spins or 'M, M >= 1'} (got {amps.size})")
    nrm = _vdot(amps, amps).real
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails this test too
        raise ConfigurationError(f"tape amplitude list not normalized (norm² = {nrm})")
    return amps, nrm


def make_state(phi0: float, tape) -> StateVector:
    """Build head (x) tape with the tape given either as a spec string or as
    an explicit array of 2**M tape amplitudes (tape index bit k is spin k+1).
    """
    if isinstance(tape, str):
        return make_product_state(phi0, tape)
    tape_amps, nrm = tape_amplitudes(tape)
    num_tape_spins = tape_amps.size.bit_length() - 1
    check_state_fits(num_tape_spins)
    tape_amps = tape_amps / math.sqrt(nrm)
    amps = aligned_empty(2 * tape_amps.size)
    for dst, head in zip(amps.reshape(2, -1), head_vector(phi0)):
        np.multiply(tape_amps, head, out=dst)
    return StateVector(num_tape_spins, amps)


def head_bloch(state: StateVector) -> BlochVector:
    """Bloch vector of the head spin, summed over all tape configurations.

    Equivalent to tracing out the tape: with a0 and a1 the head-0 and
    head-1 halves of the state, paired by tape configuration,

        x = 2 Re sum(conj(a0) a1)
        y = -2 Im sum(conj(a0) a1)
        z = sum |a1|² - sum |a0|²
    """
    a0, a1 = _halves(state.amplitudes)
    cross = head_cross(state)
    p0 = _vdot(a0, a0).real
    p1 = _vdot(a1, a1).real
    return BlochVector(2.0 * cross.real, -2.0 * cross.imag, p1 - p0)


def head_bloch_rows(rows: np.ndarray) -> np.ndarray:
    """head_bloch of every row of a (states, 2**(M+1)) array of
    amplitudes, as a (states, 3) array. einsum sums each row in its own C
    loop, with no BLAS call whose summation order could depend on the
    thread count."""
    a0, a1 = _halves(rows)
    c0 = a0.conj()
    cross = np.einsum("ij,ij->i", c0, a1)
    p0 = np.einsum("ij,ij->i", c0, a0).real
    p1 = np.einsum("ij,ij->i", a1.conj(), a1).real
    return np.stack([2.0 * cross.real, -2.0 * cross.imag, p1 - p0], axis=1)


def norm_sq_rows(rows: np.ndarray) -> np.ndarray:
    """The norm² of every row of a (states, 2**(M+1)) array of amplitudes,
    summed like head_bloch_rows."""
    return np.einsum("ij,ij->i", rows.conj(), rows).real


def head_cross(state: StateVector) -> complex:
    """sum(conj(a0) a1) over the head pairs (a0, a1), the one sum behind
    the x and y of head_bloch."""
    return _vdot(*_halves(state.amplitudes))


def _halves(amps):
    """The head-0 and head-1 halves of amps' last axis."""
    half = amps.shape[-1] // 2
    return amps[..., :half], amps[..., half:]


def _vdot(a, b) -> complex:
    """np.vdot(a, b) summed block by block, so its bits do not depend on
    the BLAS thread count (see REDUCE_BLOCK). The sum starts from 0j,
    which turns a -0.0 part of the first block's sum into +0.0, at every
    size."""
    # one call with no block loop: a 256-element sum measured 1.59 against
    # 2.35 us per call
    if a.size <= REDUCE_BLOCK:
        return complex(0j + np.vdot(a, b))
    total = 0j
    for i in range(0, a.size, REDUCE_BLOCK):
        total += np.vdot(a[i:i + REDUCE_BLOCK], b[i:i + REDUCE_BLOCK])
    return complex(total)
