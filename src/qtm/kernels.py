"""Kernel dispatch: compiled extension if built, numpy fallback otherwise.

The active backend name is exposed as BACKEND ("compiled" or "numpy").
The selected backend's kernels are bound here as module attributes, and
callers look them up on this module at call time, so the implementation
can be swapped (or monkeypatched in tests) in one place.
"""

from . import _kernels_py

try:
    from . import _kernels_c as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built; the numpy path is fully equivalent
    _impl = _kernels_py
    BACKEND = "numpy"

rotate_head = _impl.rotate_head
cnot_flip = _impl.cnot_flip
cnot_signed_flip = _impl.cnot_signed_flip


def available_backends():
    """Map backend name to kernel module, for benchmarks and tests: the
    numpy kernels, and the compiled ones when the import above found
    them."""
    return {"numpy": _kernels_py, BACKEND: _impl}
