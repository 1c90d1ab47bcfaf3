import math
import tracemalloc
import types

import numpy as np
import pytest

import helpers
from qtm import MachineConfig, _kernels_py, kernels, run
from qtm.state import REDUCE_BLOCK, StateVector, aligned_empty, head_cross

# states of 2 to 7 bits fit in one block of the numpy kernels; the two
# sizes above it span 2 and 4 blocks, and their top spins have groups of
# 2 << mu amplitudes larger than a block
BLOCK_BITS = _kernels_py.BLOCK.bit_length() - 1
SIZES = (*range(2, 8), BLOCK_BITS + 1, BLOCK_BITS + 2)


def test_backend_reported():
    assert kernels.available_backends() == {"numpy": _kernels_py}


def test_numpy_backend_always_available():
    assert "numpy" in kernels.available_backends()


def test_available_backends_hold_the_active_kernels():
    assert kernels.available_backends() == {"numpy": _kernels_py}
    assert kernels.rotate_head is _kernels_py.rotate_head
    assert kernels.cnot_flip is _kernels_py.cnot_flip
    assert kernels.cnot_signed_flip is _kernels_py.cnot_signed_flip


KERNELS = ("rotate_head", "cnot_flip", "cnot_signed_flip")


def _wrapped(calls):
    """The numpy kernels, each behind a plain wrapper that appends its name
    to calls, as perfbench's tracer wraps them."""
    def wrapper(name):
        kernel = getattr(_kernels_py, name)

        def call(*args):
            calls.append(name)
            kernel(*args)
        return call

    return types.SimpleNamespace(**{name: wrapper(name) for name in KERNELS})


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


# (states, bits per state) of 2-d stacks: a stack inside one block, one of
# several rows per block with a short last block, and one whose rows each
# span several blocks
STACKS = ((7, 5), (5, BLOCK_BITS - 1), (3, BLOCK_BITS + 2))


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_backends_agree_on_fused_runs(monkeypatch, variant):
    # a run at M=5 builds its cycle matrix and replays windows of stacked
    # cycle starts through the kernels (here two windows and three steps
    # into a cycle), looked up by name: wrapped, they see the replay's
    # calls, and the run keeps its bits
    window = REDUCE_BLOCK // 2 ** 6
    cfg = MachineConfig(5, helpers.ALPHA, phi0=0.9, variant=variant,
                        initial="+-01-", steps=10 * (window + 4) + 3)
    calls, runs = [], []
    for mod in (_kernels_py, _wrapped(calls)):
        _bind(monkeypatch, mod)
        traj = run(cfg)
        runs.append(np.append(traj.bloch, traj.norm_drift))
    assert calls
    _assert_same_bits(*runs)


def _bind(monkeypatch, mod):
    """Bind mod's kernels to the kernels module's names; for the wrapped
    kernels, bind pair_kernels and ring_kernels to the pairs that call
    them by name (helpers.by_name_pairs, helpers.by_name_ring)."""
    for name in KERNELS:
        monkeypatch.setattr(kernels, name, getattr(mod, name))
    if mod is not _kernels_py:
        monkeypatch.setattr(kernels, "pair_kernels", helpers.by_name_pairs)
        monkeypatch.setattr(kernels, "ring_kernels", helpers.by_name_ring)


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("backend", ["numpy", "wrapped"])
def test_pairs_equal_rotate_then_flip(monkeypatch, backend, variant):
    # every pair of every size, one-block and blocked (fused, with partner
    # blocks at the top spins of BLOCK_BITS + 2; and helpers.by_name_pairs
    # on wrapped kernels), called in turn on one state with signed zeros:
    # the same bits as rotate_head and then the flip of its spin, and it
    # returns head_cross's bits
    calls = []
    _bind(monkeypatch, _kernels_py if backend == "numpy" else _wrapped(calls))
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
    assert bool(calls) == (backend == "wrapped")


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("backend", ["numpy", "wrapped"])
def test_ring_pairs_equal_rotate_then_flip(monkeypatch, backend, variant):
    # rings of M = 2-8 states (engine.run takes the ring at M = 6-8), two
    # cycles of pairs in spin order, fused, and by name on wrapped kernels
    # (helpers.by_name_ring), one bind per angle, from a state with signed
    # zeros: each pair writes into its row the bits of rotate_head and
    # then the flip of its spin on the row before, and leaves every other
    # row as it was
    calls = []
    _bind(monkeypatch, _kernels_py if backend == "numpy" else _wrapped(calls))
    flip = (_kernels_py.cnot_flip if variant == "x"
            else _kernels_py.cnot_signed_flip)
    rng = np.random.default_rng(73)
    coefs = [(math.cos(angle), math.sin(angle)) for angle in (0.9, -2.3)]
    for num in range(2, 9):
        ring = np.stack([_state_with_signed_zeros(num + 1, rng)
                         for _ in range(num)])
        want = ring[-1].copy()
        pairs = [kernels.ring_kernels(ring, variant, *cs) for cs in coefs]
        assert all(list(pair) == list(range(1, num + 1)) for pair in pairs)
        for k in range(2 * num):
            mu = k % num + 1
            before = ring.copy()
            assert pairs[k // num][mu]() is None
            _kernels_py.rotate_head(want, *coefs[k // num])
            flip(want, mu)
            _assert_same_bits(ring[mu - 1], want)
            others = np.arange(num) != mu - 1
            _assert_same_bits(ring[others], before[others])
    assert bool(calls) == (backend == "wrapped")


@pytest.mark.parametrize("num, rotations", [(8, 9), (10, 11)])
def test_a_wrapped_kernel_leaves_the_pairs_fused(monkeypatch, num, rotations):
    # rotate_head wrapped by name, as perfbench's tracer wraps it, sees
    # the rotations made gate by gate: the first cycle's M and the last
    # step's, each on one state. The rotations after the first cycle are
    # made by the fused pairs, around the ring at M=8 and in place at
    # M=10, which the wrapper does not see
    calls = []
    rotate = kernels.rotate_head

    def traced(*args):
        calls.append(args[0].shape)
        return rotate(*args)

    monkeypatch.setattr(kernels, "rotate_head", traced)
    run(MachineConfig(num, helpers.ALPHA, initial=("+-01" * 3)[:num],
                      steps=2001))
    assert len(calls) == rotations
    assert calls[-1] == (2 ** (num + 1),)


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
    # a ring's pairs share a state and a half: w a1 and c times a state
    _kernels_py.ring_pairs(np.zeros((6, 128), complex), True, 0.6, 0.8)
    assert [a.shape for a in made] == [(2, 4), (2, BLOCK // 2),
                                       (2, BLOCK // 2), (3, 64)]
    assert all(a.ctypes.data % 64 == 0 for a in made)


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_backends_agree_on_paired_runs(monkeypatch, variant):
    # runs at M=7 and 9 go in rotate-and-flip pairs after their first
    # cycle, around a ring at M=7 and in place at M=9: fused, and by name
    # on wrapped kernels (helpers.by_name_pairs, helpers.by_name_ring);
    # both give the same bits, two cycles and five steps past it
    for num in (7, 9):
        cfg = MachineConfig(num, helpers.ALPHA, phi0=0.9, variant=variant,
                            initial=("+-01" * 3)[:num], steps=6 * num + 5)
        calls, runs = [], []
        for mod in (_kernels_py, _wrapped(calls)):
            _bind(monkeypatch, mod)
            traj = run(cfg)
            runs.append(np.append(traj.bloch, traj.norm_drift))
        assert len(calls) > 4 * num  # the pairs of the cycles after the first
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
def test_one_block_path_equals_blocked_path(monkeypatch, rows, size, dtype):
    # every kernel on an array taken in one pass (BLOCK raised past its
    # size) and in blocks of at most 256 amplitudes gives the same values
    # and sign bits, in double and in the extended precision the cycle
    # matrix is built in
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


def test_one_block_stack_rotation_copies_no_strided_output():
    # the halves of a stack are strided: the rotation forms the new ones in
    # contiguous temporaries and copies them back, so it holds those two
    # half stacks and numpy's buffer of a strided input half, where a
    # ufunc writing into a strided half it reads copied both operands
    # (four half stacks in all)
    amps = np.zeros((128, 64), complex)
    _kernels_py.rotate_head(amps, 0.6, 0.8)
    tracemalloc.start()
    try:
        _kernels_py.rotate_head(amps, 0.6, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * amps.nbytes // 2 + 4096


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
