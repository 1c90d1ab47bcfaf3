"""Kernel dispatch: the numpy gate kernels of _kernels_py, bound here as
module attributes.

Callers look the kernels up on this module at call time, so a kernel can
be wrapped or monkeypatched in one place. While the bound kernels are
_kernels_py's own, pair_kernels and ring_kernels hand out its fused
pairs; once one is wrapped (perfbench's tracer wraps every kernel by
name, and the tests wrap or swap them), they fall back to pairs that
call the kernels by their names here, so the wrapper still sees every
call and the bits stay the fused pairs'.
"""

import numpy as np

from . import _kernels_py
from .state import _halves, _vdot

rotate_head = _kernels_py.rotate_head
cnot_flip = _kernels_py.cnot_flip
cnot_signed_flip = _kernels_py.cnot_signed_flip

_FLIPS = {"x": "cnot_flip", "iy": "cnot_signed_flip"}


def pair_kernels(amps, variant, c, s):
    """{mu: pair} for the tape spins mu = 1..M of the state amps, bound to
    one rotation's coefficients c, s: pair() does rotate_head(amps, c, s)
    and then the flip of spin mu, cnot_flip for variant "x" and
    cnot_signed_flip for "iy", with the same bits, and returns the cross
    term of the new state, head_cross's bits.

    While the kernels bound here are the numpy ones, the pairs are the
    fused ones of _kernels_py.pairs. Otherwise a pair calls the two
    kernels by their names here, looked up at call time, with c and s as
    given, so a swapped or wrapped kernel still sees every call, and then
    sums the cross term over the halves of amps.
    """
    flip = _FLIPS[variant]
    if _numpy_bound(flip):
        return _kernels_py.pairs(amps, variant == "iy", c, s)
    a0, a1 = _halves(amps)

    def pair(mu):
        def rotate_and_flip():
            rotate_head(amps, c, s)
            globals()[flip](amps, mu)
            return _vdot(a0, a1)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, amps.shape[-1].bit_length() - 1)}


def ring_kernels(ring, variant, c, s):
    """{mu: pair} for the tape spins mu = 1..M over a ring of M >= 2
    states, ring an (M, 2**(M+1)) array, bound to one rotation's
    coefficients c, s: pair() writes into row mu-1 what rotate_head and
    then the flip of spin mu make of row mu-2 (row M-1 for mu = 1), with
    their bits, and leaves row mu-2 as it was.

    The dispatch is pair_kernels': while the kernels bound here are the
    numpy ones, the pairs are the fused ones of _kernels_py.ring_pairs.
    Otherwise a pair copies the row and calls the two kernels on the copy
    by their names here, looked up at call time, with c and s as given.
    """
    flip = _FLIPS[variant]
    if _numpy_bound(flip):
        return _kernels_py.ring_pairs(ring, variant == "iy", c, s)

    def pair(mu):
        src, dst = ring[mu - 2], ring[mu - 1]

        def rotate_and_flip():
            np.copyto(dst, src)
            rotate_head(dst, c, s)
            globals()[flip](dst, mu)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, len(ring) + 1)}


def _numpy_bound(flip):
    """Whether rotate_head and the flip named flip are, as bound here, the
    numpy kernels, whose pairs are fused."""
    return (rotate_head, globals()[flip]) == (_kernels_py.rotate_head,
                                              getattr(_kernels_py, flip))


def available_backends():
    """Map backend name to kernel module, for benchmarks: the numpy
    kernels, the only backend."""
    return {"numpy": _kernels_py}
