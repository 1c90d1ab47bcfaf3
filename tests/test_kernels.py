import importlib.util
import math
import shutil
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import helpers
from qtm import _kernels_py, kernels

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "qtm" / "_kernels_c.c"

# states of 2 to 7 bits fit in one block of the numpy kernels; the two
# sizes above it span 2 and 4 blocks, and their top spins have groups of
# 2 << mu amplitudes larger than a block
BLOCK_BITS = _kernels_py.BLOCK.bit_length() - 1
SIZES = (*range(2, 8), BLOCK_BITS + 1, BLOCK_BITS + 2)


def test_backend_reported():
    assert kernels.BACKEND in ("compiled", "numpy")


def test_numpy_backend_always_available():
    assert "numpy" in kernels.available_backends()


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C kernels built fresh from source into a temporary directory.

    Skips only when the C compiler is missing; a compile error fails.
    """
    from setuptools import Distribution, Extension

    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("kernels_c")
    dist = Distribution({"ext_modules": [
        Extension("qtm._kernels_c", [str(KERNEL_SOURCE)])]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "qtm._kernels_c", cmd.get_ext_fullpath("qtm._kernels_c"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_backends_agree_on_rotation(compiled):
    rng = np.random.default_rng(41)
    c, s = math.cos(0.9), math.sin(0.9)
    for nbits in SIZES:
        amps = helpers.random_state(nbits, rng)
        a = amps.copy()
        b = amps.copy()
        _kernels_py.rotate_head(a, c, s)
        compiled.rotate_head(b, c, s)
        np.testing.assert_array_equal(a, b)


def test_backends_agree_on_flips_bit_exact(compiled):
    rng = np.random.default_rng(43)
    for nbits in SIZES:
        for mu in range(1, nbits):
            amps = helpers.random_state(nbits, rng)
            a = amps.copy()
            b = amps.copy()
            _kernels_py.cnot_flip(a, mu)
            compiled.cnot_flip(b, mu)
            np.testing.assert_array_equal(a, b)
            _kernels_py.cnot_signed_flip(a, mu)
            compiled.cnot_signed_flip(b, mu)
            np.testing.assert_array_equal(a, b)


def test_blocked_kernels_equal_one_shot_formulas():
    rng = np.random.default_rng(53)
    c, s = math.cos(1.1), math.sin(1.1)
    for nbits in SIZES:
        amps = helpers.random_state(nbits, rng)
        a = amps.copy()
        b = amps.copy()
        _kernels_py.rotate_head(a, c, s)
        helpers.one_shot_rotate_head(b, c, s)
        np.testing.assert_array_equal(a, b)
        for mu in range(1, nbits):
            _kernels_py.cnot_flip(a, mu)
            helpers.one_shot_cnot_flip(b, mu)
            np.testing.assert_array_equal(a, b)
            _kernels_py.cnot_signed_flip(a, mu)
            helpers.one_shot_cnot_signed_flip(b, mu)
            np.testing.assert_array_equal(a, b)


def _read_only(amps):
    amps.flags.writeable = False
    return amps


@pytest.mark.parametrize("kernel, amps, arg", [
    ("rotate_head", np.zeros(8), None),
    ("rotate_head", np.zeros(16, complex)[::2], None),
    ("rotate_head", np.zeros(7, complex), None),
    ("cnot_flip", np.zeros(8), 1),
    ("cnot_flip", np.zeros(16, complex)[::2], 1),
    ("cnot_flip", np.zeros(8, complex), 3),
    ("cnot_signed_flip", np.zeros(8, complex), 3),
    ("cnot_flip", np.zeros(8, complex), -1),
    ("cnot_flip", _read_only(np.zeros(8, complex)), 1),
])
def test_compiled_kernels_reject_bad_buffers(compiled, kernel, amps, arg):
    # the loops index raw memory unchecked: any buffer they cannot treat
    # as writable complex128 amplitudes of a fitting length is refused
    before = amps.copy()
    args = (0.6, 0.8) if arg is None else (arg,)
    with pytest.raises(ValueError):
        getattr(compiled, kernel)(amps, *args)
    np.testing.assert_array_equal(amps, before)


def test_flip_kernel_is_pure_permutation():
    # values move, none change: sorted amplitude multisets match
    rng = np.random.default_rng(47)
    amps = helpers.random_state(5, rng)
    before = np.sort_complex(amps.copy())
    kernels.cnot_flip(amps, 3)
    np.testing.assert_array_equal(np.sort_complex(amps), before)


def test_dispatch_wrappers_forward():
    amps = np.array([1.0, 0, 0, 0], dtype=complex)
    kernels.cnot_flip(amps, 1)
    assert amps[2] == 1.0  # tape bit set, head bit clear
    kernels.rotate_head(amps, math.cos(0.25), math.sin(0.25))
    assert abs(amps[2]) < 1.0 and abs(amps[3]) > 0.0
