"""Kernel dispatch: compiled extension if built, numpy fallback otherwise.

The active backend name is exposed as BACKEND ("compiled" or "numpy").
The selected backend's kernels are bound here as module attributes, and
callers look them up on this module at call time, so the implementation
can be swapped (or monkeypatched in tests) in one place.
"""

from . import _kernels_py
from .state import _halves, _vdot

try:
    from . import _kernels_c as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built; the numpy path is fully equivalent
    _impl = _kernels_py
    BACKEND = "numpy"

rotate_head = _impl.rotate_head
cnot_flip = _impl.cnot_flip
cnot_signed_flip = _impl.cnot_signed_flip

_FLIPS = {"x": "cnot_flip", "iy": "cnot_signed_flip"}


def pair_kernels(amps, variant):
    """{mu: pair} for the tape spins mu = 1..M of the state amps: pair(c, s)
    does rotate_head(amps, c, s) and then the flip of spin mu, cnot_flip
    for variant "x" and cnot_signed_flip for "iy", with the same bits, and
    returns the cross term of the new state, head_cross's bits.

    While the kernels bound here are the numpy ones, the pairs are the
    fused ones of _kernels_py.pairs. Otherwise a pair calls the two
    kernels by their names here, looked up at call time, so a swapped or
    wrapped kernel still sees every call, and then sums the cross term
    over the halves of amps.
    """
    flip = _FLIPS[variant]
    if (rotate_head, globals()[flip]) == (_kernels_py.rotate_head,
                                          getattr(_kernels_py, flip)):
        return _kernels_py.pairs(amps, variant == "iy")
    a0, a1 = _halves(amps)

    def pair(mu):
        def rotate_and_flip(c, s):
            rotate_head(amps, c, s)
            globals()[flip](amps, mu)
            return _vdot(a0, a1)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, amps.shape[-1].bit_length() - 1)}


def available_backends():
    """Map backend name to kernel module, for benchmarks and tests: the
    numpy kernels, and the compiled ones when the import above found
    them."""
    return {"numpy": _kernels_py, BACKEND: _impl}
