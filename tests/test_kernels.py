import importlib.util
import math
import shutil
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import helpers
from qtm import MachineConfig, _kernels_py, kernels, run
from qtm.state import (REDUCE_BLOCK, StateVector, _vdot, aligned_empty,
                       head_cross)

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


def test_available_backends_hold_the_active_kernels():
    found = kernels.available_backends()
    assert list(found) == (["numpy"] if kernels.BACKEND == "numpy"
                           else ["numpy", "compiled"])
    assert found[kernels.BACKEND].rotate_head is kernels.rotate_head
    assert found["numpy"] is _kernels_py


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


def _state_with_signed_zeros(nbits, rng):
    """A random state with about a third of its real and imaginary parts
    set to +0.0 or -0.0, so a kernel that drops a zero-valued term of
    numpy's complex products shows up as a flipped sign bit."""
    amps = helpers.random_state(nbits, rng)
    parts = amps.view(float)
    zero = rng.random(parts.size) < 1 / 3
    parts[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return amps


def _assert_same_bits(a, b):
    # assert_array_equal counts -0.0 equal to +0.0
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_backends_agree_on_rotation(compiled):
    rng = np.random.default_rng(41)
    for angle in (0.9, -2.3):
        c, s = math.cos(angle), math.sin(angle)
        for nbits in SIZES:
            amps = _state_with_signed_zeros(nbits, rng)
            a = amps.copy()
            b = amps.copy()
            _kernels_py.rotate_head(a, c, s)
            compiled.rotate_head(b, c, s)
            _assert_same_bits(a, b)


def test_backends_agree_on_flips_bit_exact(compiled):
    rng = np.random.default_rng(43)
    for nbits in SIZES:
        for mu in range(1, nbits):
            amps = _state_with_signed_zeros(nbits, rng)
            a = amps.copy()
            b = amps.copy()
            _kernels_py.cnot_flip(a, mu)
            compiled.cnot_flip(b, mu)
            _assert_same_bits(a, b)
            _kernels_py.cnot_signed_flip(a, mu)
            compiled.cnot_signed_flip(b, mu)
            _assert_same_bits(a, b)


# (states, bits per state) of 2-d stacks: a stack inside one block, one of
# several rows per block with a short last block, and one whose rows each
# span several blocks
STACKS = ((7, 5), (5, BLOCK_BITS - 1), (3, BLOCK_BITS + 2))


@pytest.mark.parametrize("rows, nbits", STACKS)
def test_backends_agree_on_stacks(compiled, rows, nbits):
    # every kernel, every spin and both flip variants, on a stack of states
    # with signed zeros: numpy and compiled give the same bits, and each
    # row gets exactly what the kernel gives that row as a 1-d state
    rng = np.random.default_rng(61)
    stack = np.stack([_state_with_signed_zeros(nbits, rng)
                      for _ in range(rows)])
    c, s = math.cos(-0.7), math.sin(-0.7)
    calls = [("rotate_head", (c, s))] + [
        (name, (mu,)) for mu in range(1, nbits)
        for name in ("cnot_flip", "cnot_signed_flip")]
    for name, args in calls:
        a, b = stack.copy(), stack.copy()
        getattr(_kernels_py, name)(a, *args)
        getattr(compiled, name)(b, *args)
        _assert_same_bits(a, b)
        for row, want in zip(stack.copy(), a):
            getattr(compiled, name)(row, *args)
            _assert_same_bits(row, want)


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_backends_agree_on_fused_runs(compiled, monkeypatch, variant):
    # a run at M=5 builds its cycle matrix and replays windows of stacked
    # cycle starts through the kernels (here two windows and three steps
    # into a cycle), so both backends give the same bits
    window = REDUCE_BLOCK // 2 ** 6
    cfg = MachineConfig(5, helpers.ALPHA, phi0=0.9, variant=variant,
                        initial="+-01-", steps=10 * (window + 4) + 3)
    runs = []
    for backend in (_kernels_py, compiled):
        for name in ("rotate_head", "cnot_flip", "cnot_signed_flip"):
            monkeypatch.setattr(kernels, name, getattr(backend, name))
        traj = run(cfg)
        runs.append(np.append(traj.bloch, traj.norm_drift))
    _assert_same_bits(*runs)


def _bind(monkeypatch, mod):
    """Bind mod's kernels to the kernels module's names."""
    for name in ("rotate_head", "cnot_flip", "cnot_signed_flip"):
        monkeypatch.setattr(kernels, name, getattr(mod, name))


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_pairs_equal_rotate_then_flip(request, monkeypatch, backend, variant):
    # every pair of every size, one-block and blocked (fused on numpy, with
    # partner blocks at the top spins of BLOCK_BITS + 2), called in turn on
    # one state with signed zeros: the same bits as rotate_head and then
    # the flip of its spin, and it returns head_cross's bits
    mod = (_kernels_py if backend == "numpy"
           else request.getfixturevalue("compiled"))
    _bind(monkeypatch, mod)
    flip = (_kernels_py.cnot_flip if variant == "x"
            else _kernels_py.cnot_signed_flip)
    rng = np.random.default_rng(71)
    for nbits in SIZES:
        amps = _state_with_signed_zeros(nbits, rng)
        want = amps.copy()
        # one bind per angle, both on amps
        coefs = [(math.cos(angle), math.sin(angle)) for angle in (0.9, -2.3)]
        pairs = [kernels.pair_kernels(amps, variant, *cs) for cs in coefs]
        assert all(list(pair) == list(range(1, nbits)) for pair in pairs)
        for mu in [*range(1, nbits), *range(nbits - 1, 0, -1)]:
            c, s = coefs[mu % 2]
            cross = pairs[mu % 2][mu]()
            _kernels_py.rotate_head(want, c, s)
            flip(want, mu)
            _assert_same_bits(amps, want)
            _assert_same_bits(np.array([cross]), np.array(
                [head_cross(StateVector(nbits - 1, want))]))


def test_pairs_are_fused_whenever_the_numpy_kernels_are_bound(monkeypatch):
    # _kernels_py.pairs serves every state size while the bound kernels
    # are numpy's; a kernel that is not numpy's gets pairs that look the
    # kernels up by name when called and return the halves' _vdot
    fused = []
    monkeypatch.setattr(_kernels_py, "pairs", lambda amps, signed, c, s: (
        fused.append((amps.size, signed, c, s))))
    _bind(monkeypatch, _kernels_py)
    for size, variant in ((8, "x"), (BLOCK, "iy"), (4 * BLOCK, "x")):
        kernels.pair_kernels(np.zeros(size, complex), variant, 0.6, 0.8)
    assert fused == [(8, False, 0.6, 0.8), (BLOCK, True, 0.6, 0.8),
                     (4 * BLOCK, False, 0.6, 0.8)]
    calls = []

    def recorded(name):
        def kernel(amps, *args):
            calls.append((name, amps.size) + args)
        return kernel

    monkeypatch.setattr(kernels, "cnot_flip", recorded("cnot_flip"))
    amps = np.array([0.5, 0, 0.5j, 0, 0.5, 0, 0.5, 0])
    pair = kernels.pair_kernels(amps, "x", 0.6, 0.8)
    monkeypatch.setattr(kernels, "rotate_head", recorded("rotate_head"))
    cross = pair[2]()
    assert len(fused) == 3
    assert calls == [("rotate_head", 8, 0.6, 0.8), ("cnot_flip", 8, 2)]
    assert cross == _vdot(amps[:4], amps[4:]) == 0.25 - 0.25j


def test_pair_scratch_is_two_blocks_on_a_cache_line(monkeypatch):
    # the fused pairs' scratch is two blocks of BLOCK // 2 tape indices
    # (two halves of a smaller state), from state.aligned_empty
    made = []

    def recorded(shape, dtype=complex):
        made.append(aligned_empty(shape, dtype))
        return made[-1]

    monkeypatch.setattr(_kernels_py, "aligned_empty", recorded)
    for size in (8, BLOCK, 4 * BLOCK):
        _kernels_py.pairs(np.zeros(size, complex), size == BLOCK, 0.6, 0.8)
    assert [a.shape for a in made] == [(2, 4), (2, BLOCK // 2),
                                       (2, BLOCK // 2)]
    assert all(a.ctypes.data % 64 == 0 for a in made)


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_backends_agree_on_paired_runs(compiled, monkeypatch, variant):
    # a run at M=7 goes in rotate-and-flip pairs after its first cycle,
    # fused on the numpy kernels and through the kernels on the compiled
    # ones; both give the same bits, two cycles and five steps past it
    cfg = MachineConfig(7, helpers.ALPHA, phi0=0.9, variant=variant,
                        initial="+-01+-0", steps=3 * 14 + 5)
    runs = []
    for backend in (_kernels_py, compiled):
        _bind(monkeypatch, backend)
        traj = run(cfg)
        runs.append(np.append(traj.bloch, traj.norm_drift))
    _assert_same_bits(*runs)


def test_blocked_kernels_equal_one_shot_formulas():
    rng = np.random.default_rng(53)
    c, s = math.cos(1.1), math.sin(1.1)
    states = [(nbits, helpers.random_state(nbits, rng)) for nbits in SIZES]
    states += [(nbits, np.stack([helpers.random_state(nbits, rng)
                                 for _ in range(rows)]))
               for rows, nbits in STACKS]
    for nbits, amps in states:
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


BLOCK = _kernels_py.BLOCK


# 1-d states and 2-d stacks of BLOCK // 2, BLOCK and BLOCK + 2 amplitudes,
# as (rows, amplitudes per state); the stack of 2-amplitude states (a head
# and no tape) only rotates, and 4-amplitude states give a flip's head-0
# view of BLOCK + 2
ONE_BLOCK_SHAPES = ((1, BLOCK // 2), (1, BLOCK), (BLOCK // 16, 8),
                    (BLOCK // 8, 8), (BLOCK // 2 + 1, 2), (BLOCK // 4 + 1, 4),
                    (BLOCK // 2 + 1, 4))


def _assert_same_values(a, b):
    # equal parts with equal sign bits; a bit view of long doubles would
    # also compare their padding bytes
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("rows, size", ONE_BLOCK_SHAPES)
def test_one_block_path_equals_blocked_path(compiled, monkeypatch, rows,
                                            size, dtype):
    # every kernel on an array taken in one pass (BLOCK raised past its
    # size) and in blocks of at most 256 amplitudes gives the same values
    # and sign bits, in double and in the extended precision the cycle
    # matrix is built in; in double both equal the compiled kernels
    rng = np.random.default_rng(67 + size + rows)
    nbits = size.bit_length() - 1
    amps = np.stack([_state_with_signed_zeros(nbits, rng)
                     for _ in range(rows)])
    amps = (amps[0] if rows == 1 else amps).astype(dtype)
    real = np.longdouble if dtype == np.clongdouble else float
    c, s = real(math.cos(-0.7)), real(math.sin(-0.7))
    calls = [("rotate_head", (c, s))] + [
        (name, (mu,)) for mu in range(1, nbits)
        for name in ("cnot_flip", "cnot_signed_flip")]
    for name, args in calls:
        out = []
        for block in (2 * amps.size, 256):
            monkeypatch.setattr(_kernels_py, "BLOCK", block)
            a = amps.copy()
            getattr(_kernels_py, name)(a, *args)
            out.append(a)
        _assert_same_values(*out)
        if dtype == np.complex128:
            b = amps.copy()
            getattr(compiled, name)(b, *args)
            _assert_same_bits(out[0], b)


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
    ("cnot_flip", np.zeros(8, complex), 0),
    ("rotate_head", np.zeros((2, 2, 4), complex), None),
    ("rotate_head", np.zeros((4, 16), complex)[:, :8], None),
    ("cnot_flip", np.zeros((3, 4), complex), 2),
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
    assert amps[1] == 1.0  # tape bit set, head bit clear
    kernels.rotate_head(amps, math.cos(0.25), math.sin(0.25))
    assert abs(amps[1]) < 1.0 and abs(amps[3]) > 0.0
