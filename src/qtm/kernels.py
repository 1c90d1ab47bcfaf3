"""Kernel dispatch: the numpy gate kernels of _kernels_py, bound here as
module attributes.

Callers look the kernels up on this module at call time, so a kernel can
be wrapped or monkeypatched in one place. Every state-vector path after
the first cycle goes through pair_kernels or ring_kernels, which always
hand out _kernels_py's fused pairs: a wrapped rotate_head or flip sees
the first cycle's steps and an odd last step, and a caller that wants
every pair call wraps pair_kernels or ring_kernels, and the pairs they
return, instead.
"""

from . import _kernels_py

rotate_head = _kernels_py.rotate_head
cnot_flip = _kernels_py.cnot_flip
cnot_signed_flip = _kernels_py.cnot_signed_flip


def pair_kernels(amps, variant, c, s):
    """{mu: pair} for the tape spins mu = 1..M of the state amps, bound to
    one rotation's coefficients c, s: pair() does rotate_head(amps, c, s)
    and then the flip of spin mu, cnot_flip for variant "x" and
    cnot_signed_flip for "iy", with the same bits, and returns the cross
    term of the new state, head_cross's bits (_kernels_py.pairs)."""
    return _kernels_py.pairs(amps, variant == "iy", c, s)


def ring_kernels(ring, variant, c, s):
    """{mu: pair} for the tape spins mu = 1..M over a ring of M >= 2
    states, ring an (M, 2**(M+1)) array, bound to one rotation's
    coefficients c, s: pair() writes into row mu-1 what rotate_head and
    then the flip of spin mu make of row mu-2 (row M-1 for mu = 1), with
    their bits, and leaves row mu-2 as it was (_kernels_py.ring_pairs)."""
    return _kernels_py.ring_pairs(ring, variant == "iy", c, s)


def available_backends():
    """Map backend name to kernel module, for benchmarks: the numpy
    kernels, the only backend."""
    return {"numpy": _kernels_py}
