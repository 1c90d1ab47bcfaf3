"""Engine tests: agreement with the dense-matrix oracle, symmetries, and the
runtime norm check."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helpers
from helpers import run_mixed
import qtm
import qtm.kernels
from qtm import (
    ConfigurationError,
    MachineConfig,
    NumericalValidationError,
    run,
)
from qtm import recursion
from qtm.cli import main
from qtm.gates import rotation_coefficients
from qtm.state import REDUCE_BLOCK

ALPHA = helpers.ALPHA


def test_first_step_tilts_head_by_alpha():
    cfg = MachineConfig(2, ALPHA, steps=1)
    traj = run(cfg)
    np.testing.assert_allclose(
        traj.point(1), (0.0, math.sin(ALPHA), -math.cos(ALPHA)), atol=1e-15
    )


def test_zero_angle_machine_is_frozen():
    cfg = MachineConfig(3, 0.0, steps=30)
    traj = run(cfg)
    np.testing.assert_array_equal(traj.bloch[:, 0], np.zeros(31))
    np.testing.assert_allclose(traj.bloch[:, 1], np.zeros(31), atol=1e-15)
    np.testing.assert_allclose(traj.bloch[:, 2], -np.ones(31), atol=1e-15)


def test_x_component_identically_zero():
    # real-amplitude initial data and these gates keep the head pinned to
    # the y-z plane; the x readout should be exact 0.0, not merely small
    cfg = MachineConfig(3, ALPHA, phi0=0.0, steps=200)
    traj = run(cfg)
    assert np.all(traj.bloch[:, 0] == 0.0)


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("tape", ["0", "1", "01", "+-", "0+1"])
def test_engine_matches_dense_oracle(tape, variant):
    rng = np.random.default_rng(hash(tape) % 2**32)
    phi0 = float(rng.uniform(0, 2 * math.pi))
    expected = helpers.dense_run(phi0, tape, ALPHA, 60, variant)
    cfg = MachineConfig(
        num_tape_spins=len(tape),
        alpha=ALPHA,
        phi0=phi0,
        variant=variant,
        initial=tape,
        steps=60,
    )
    np.testing.assert_allclose(run(cfg).bloch, expected, atol=1e-12)


@pytest.mark.parametrize("tape", ["00", "01", "11"])
def test_head_flip_negates_trajectory(tape):
    up = MachineConfig(2, ALPHA, phi0=0.0, initial=tape, steps=80)
    down = MachineConfig(2, ALPHA, phi0=math.pi, initial=tape, steps=80)
    np.testing.assert_allclose(run(down).bloch, -run(up).bloch, atol=1e-12)


def test_runs_are_deterministic():
    cfg = MachineConfig(4, ALPHA, phi0=0.25, steps=120)
    np.testing.assert_array_equal(run(cfg).bloch, run(cfg).bloch)


def test_cycle_against_dense_cycle_matrix():
    # one full cycle applied by the engine == the dense product of its gates
    tape = "01"
    alpha = 0.7
    psi = helpers.dense_product_state(0.4, tape)
    u = np.eye(8, dtype=complex)
    for n in range(1, 5):
        if n % 2 == 1:
            g = helpers.op_on_bit(
                math.cos(alpha / 2) * helpers.I2
                - 1j * math.sin(alpha / 2) * helpers.LX,
                2,  # the head, the top bit of 3
                3,
            )
        else:
            g = helpers.dense_qcnot(n // 2, 3, "x")
        u = g @ u
    cfg = MachineConfig(
        num_tape_spins=2,
        alpha=alpha,
        phi0=0.4,
        variant="x",
        initial=tape,
        steps=4,
    )
    traj = run(cfg)
    np.testing.assert_allclose(
        traj.point(4), helpers.dense_head_bloch(u @ psi), atol=1e-12
    )


def _amplitude_tape(num_tape_spins):
    rng = np.random.default_rng(59)
    amps = rng.normal(size=2 ** num_tape_spins) + 1j * rng.normal(size=2 ** num_tape_spins)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("variant, num, alpha, phi0, initial, steps", [
    ("x", 2, ALPHA, 0.0, "01", 20000),
    ("iy", 2, ALPHA, 0.0, "10", 20000),
    ("x", 3, 0.7, 1.234, "+-0", 20001),
    ("iy", 3, 1.9, 2.9, "-+1", 20003),
    ("x", 4, 1.9, 0.8, "amplitudes", 20005),
    ("iy", 4, ALPHA, 1.234, "+-01", 20000),
    ("x", 1, 0.7, 0.3, "+", 20001),
    ("iy", 5, 1.9, 2.9, "+-01-", 20000),
    ("iy", 6, 0.7, 2.9, "+-01+-", 41),
    ("x", 7, 1.9, 0.8, "amplitudes", 43),
])
def test_carried_bloch_matches_per_step_reduction(variant, num, alpha, phi0,
                                                  initial, steps):
    # engine.run carries the head vector through rotations and flips and
    # reduces in full once per cycle; the plain loop reduces every step.
    # Every path after the first cycle fills the carried vector in by
    # columns: the windows at M <= 5 (M=1 ending on a rotation inside the
    # last row's replay), and at M >= 6 the rotate-and-flip pairs, here
    # ending on a rotation
    if initial == "amplitudes":
        initial = _amplitude_tape(num)
    cfg = MachineConfig(num_tape_spins=num, alpha=alpha, phi0=phi0,
                        variant=variant, initial=initial, steps=steps)
    np.testing.assert_allclose(run(cfg).bloch, helpers.per_step_run(cfg).bloch,
                               rtol=0, atol=1e-12)


GROWTH_M = 4


@pytest.mark.parametrize("steps", [0, 1, 2 * GROWTH_M - 1, 2 * GROWTH_M,
                                   2 * GROWTH_M + 1, 3 * GROWTH_M])
@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("tape", ["01+-", "+-10"])
def test_growing_state_matches_full_state_run(tape, variant, steps):
    # engine.run adds tape spin mu when the head first reaches it; the
    # plain loop builds the full state at step 0
    alpha = {"01+-": 0.7, "+-10": 1.9}[tape]
    cfg = MachineConfig(num_tape_spins=GROWTH_M, alpha=alpha, phi0=1.1,
                        variant=variant, initial=tape, steps=steps)
    np.testing.assert_allclose(run(cfg).bloch, helpers.per_step_run(cfg).bloch,
                               rtol=0, atol=1e-12)


def _record_kernel_sizes(monkeypatch, calls=None):
    """The amplitude count of every kernel call, in call order, appended
    to calls (a new list by default)."""
    sizes = [] if calls is None else calls
    for name in ("rotate_head", "cnot_flip", "cnot_signed_flip"):
        def recorded(amps, *args, _kernel=getattr(qtm.kernels, name)):
            sizes.append(amps.size)
            return _kernel(amps, *args)

        monkeypatch.setattr(qtm.kernels, name, recorded)
    return sizes


def _record_pairs(monkeypatch, calls):
    """Append ("bind", amplitude shape, c, s) to calls for every
    pair_kernels call (the shape of a state) and every ring_kernels call
    (of a ring of states), and (mu, amplitude shape) for every call of a
    pair either returned, in call order."""
    for name in ("pair_kernels", "ring_kernels"):
        def recorded(amps, variant, c, s, _bind=getattr(qtm.kernels, name)):
            calls.append(("bind", amps.shape, c, s))

            def wrap(mu, pair):
                def rotate_and_flip():
                    calls.append((mu, amps.shape))
                    return pair()
                return rotate_and_flip

            return {mu: wrap(mu, pair)
                    for mu, pair in _bind(amps, variant, c, s).items()}

        monkeypatch.setattr(qtm.kernels, name, recorded)


def _later_pairs(num, alpha, steps):
    """What _record_pairs records for a run of steps > 2M steps on M = num
    tape spins: one bind to the cos and sin of half of alpha, then one
    pair per rotation and flip after the first cycle, mu in schedule
    order. Up to M=8 the pairs go around a ring of M states, above it in
    place on the full state."""
    size = 2 ** (num + 1)
    shape = (num, size) if num <= 8 else (size,)
    return [("bind", shape, *rotation_coefficients(alpha))] + [
        (k % num + 1, shape) for k in range((steps - 2 * num) // 2)]


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_first_cycle_holds_only_the_spins_the_head_reached(monkeypatch, variant):
    # one kernel call per step of the first cycle; step m of it is on spin
    # mu = (m+1)//2, and until spin mu is flipped the state holds at most
    # the head and spins 1..mu. Later steps go in rotate-and-flip pairs
    # around a ring of full states, each a kernel call on one full state
    num = 6
    calls = []
    _record_kernel_sizes(monkeypatch, calls)
    _record_pairs(monkeypatch, calls)
    run(MachineConfig(num, ALPHA, variant=variant, initial="+01-10",
                      steps=3 * num))
    sizes = calls[:2 * num]
    for m, size in enumerate(sizes, start=1):
        assert size <= 2 ** ((m + 1) // 2 + 1)
    assert sizes[1::2] == [2 ** (mu + 1) for mu in range(1, num + 1)]
    later = calls[2 * num:]
    assert [c for c in later if isinstance(c, tuple)] == _later_pairs(
        num, ALPHA, 3 * num)
    assert all(c == 2 ** (num + 1) for c in later if not isinstance(c, tuple))


def test_amplitude_tape_runs_at_full_size_from_step_zero(monkeypatch):
    num = 4
    sizes = _record_kernel_sizes(monkeypatch)
    run(MachineConfig(num, ALPHA, initial=_amplitude_tape(num), steps=3 * num))
    assert sizes == [2 ** (num + 1)] * (3 * num)


# Small tapes (M <= 5) step gate by gate through the first cycle only; later
# cycle starts are chained by the cycle matrix U and the cycle is replayed
# over windows of stacked starts.
FUSED_WINDOW = REDUCE_BLOCK // 2 ** 6  # cycle starts per window at M=5


def _fused_config(num, variant, tape, steps):
    initial = _amplitude_tape(num) if tape == "amplitudes" else tape
    return MachineConfig(num, (0.7, 1.9, ALPHA)[num % 3], phi0=1.1,
                         variant=variant, initial=initial, steps=steps)


def _assert_matches_references(cfg):
    traj = run(cfg)
    np.testing.assert_allclose(traj.bloch, helpers.per_step_run(cfg).bloch,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        traj.bloch, helpers.dense_run(cfg.phi0, cfg.resolved_initial(),
                                      cfg.alpha, cfg.steps, cfg.variant),
        rtol=0, atol=1e-12)
    assert traj.norm_drift <= 1e-12


@pytest.mark.parametrize("cycles, extra", [(2, -1), (2, 0), (2, 1),
                                           (7, -1), (7, 0), (7, 1)])
@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("num, tape", [
    (1, "-"), (2, "+-"), (3, "+-1"), (4, "-+01"), (5, "+0-1+"),
    (2, "amplitudes"), (5, "amplitudes")])
def test_fused_run_matches_references(num, tape, variant, cycles, extra):
    # two cycles at most hold one cycle start after the first cycle, and
    # replay it without building U; one step more builds U
    _assert_matches_references(
        _fused_config(num, variant, tape, cycles * 2 * num + extra))


@pytest.mark.parametrize("starts", [FUSED_WINDOW, FUSED_WINDOW + 1,
                                    FUSED_WINDOW * 3 // 2])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("variant", ["x", "iy"])
def test_fused_windows_match_references(variant, starts, extra):
    # cycle k starts at step 10k; a window holds FUSED_WINDOW starts, so
    # these runs end in the last cycle of one window, or one window and one
    # or half a window more
    _assert_matches_references(
        _fused_config(5, variant, "+0-1+", 10 * (starts + 1) + extra))


def test_building_u_holds_two_and_a_half_matrices():
    # U of M=5 holds 64 x 64 extended entries. Its build holds U, the
    # double images of the basis states (half of U) and the temporaries of
    # their rotation (one U), the estimate's build term, and a few KB of
    # array headers and Python objects; its extended rotations and its
    # check take a quarter of the rows at a time. Taking the whole matrix
    # at once, either peaked at 3.5 U
    cfg = MachineConfig(5, ALPHA, steps=31)  # three later cycle starts
    qtm.engine._cycle_matrix(cfg, 64)
    tracemalloc.start()
    try:
        u = qtm.engine._cycle_matrix(cfg, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qtm.engine._windows_bytes(cfg, 64) == 5 * u.nbytes // 2
    assert peak <= 5 * u.nbytes // 2 + 4096


def test_fused_run_builds_u_once_and_replays_one_window(monkeypatch):
    # an amplitude tape at M=5 over five cycles: the first cycle on the
    # state, U built on the 64 basis states, then one window of the four
    # later cycle starts
    sizes = _record_kernel_sizes(monkeypatch)
    run(MachineConfig(5, ALPHA, initial=_amplitude_tape(5), steps=50))
    assert sizes == [64] * 10 + [64 * 64] * 10 + [4 * 64] * 10


def test_every_second_start_replays_two_cycles(monkeypatch):
    # 128 cycle starts after the first cycle at M=5 fill one window of 128
    # at R = 1, so R = 2: the first cycle on the state, U built on the 64
    # basis states (and squared without a kernel call), then one window of
    # the 64 starts of cycles 1, 3, ..., 127, replayed for two cycles each
    assert qtm.engine._chain_every(MachineConfig(5, ALPHA, steps=1290),
                                   128, FUSED_WINDOW) == 2
    sizes = _record_kernel_sizes(monkeypatch)
    run(MachineConfig(5, ALPHA, initial=_amplitude_tape(5), steps=1290))
    assert sizes == [64] * 10 + [64 * 64] * 10 + [64 * 64] * 20


@pytest.mark.parametrize("num, steps, every", [
    # fewer cycle starts than a window holds: every start is chained
    (3, 6 * 512, 1), (5, 10 * 128, 1), (1, 2 * 2048, 1),
    # from one window of starts on, R doubles while the first window
    # stays at least half full
    (3, 6 * 513, 2), (3, 20000, 8), (4, 20000, 16), (5, 20000, 16),
    (1, 20000, 8),
    # 300,000 steps at M=5 would fill half a window at R=256, but its
    # replay bound, 8.0e-13, is past the replay's 5e-13 budget
    (5, 300000, 128)])
def test_chained_starts_follow_the_rule(num, steps, every):
    cfg = MachineConfig(num, ALPHA, steps=steps)
    starts = (steps - 1) // (2 * num)
    window = REDUCE_BLOCK // 2 ** (num + 1)
    assert qtm.engine.REPLAY_BUDGET == 5e-13
    assert qtm.engine._chain_every(cfg, starts, window) == every
    assert qtm.engine._replay_bound(cfg, every) <= qtm.engine.REPLAY_BUDGET
    assert (every * window > starts
            or qtm.engine._replay_bound(cfg, 2 * every)
            > qtm.engine.REPLAY_BUDGET)


# the largest disagreement between the windows path and the recursion
# over 300,000 steps on the all-zeros tape when every cycle start was
# chained (R = 1)
CHAINED_EVERY_START = {3: 2.0e-12, 5: 1.5e-12}


@pytest.mark.parametrize("num, steps, variant, tape", [
    (3, 300000, "x", "zeros"), (5, 300000, "x", "zeros"),
    (4, 20000, "iy", "+-01")])
def test_windows_path_keeps_its_replay_bound(monkeypatch, num, steps,
                                              variant, tape):
    # against the same run with every cycle start chained (R = 1), a run
    # that chains every R-th start is off by at most the two replays'
    # bounds, and against the recursion or the dense oracle by that much
    # more than R = 1 is
    cfg = MachineConfig(num, ALPHA, phi0=0.0 if tape == "zeros" else 1.234567,
                        variant=variant, initial=tape, steps=steps)
    every = qtm.engine._chain_every(cfg, (steps - 1) // (2 * num),
                                    REDUCE_BLOCK // 2 ** (num + 1))
    assert every > 1
    traj = run(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(qtm.engine, "_chain_every", lambda *args: 1)
        chained = run(cfg)
    bound = (qtm.engine._replay_bound(cfg, every)
             + qtm.engine._replay_bound(cfg, 1))
    assert np.abs(traj.bloch - chained.bloch).max() <= bound
    assert traj.norm_drift <= 1e-12
    if variant == "x":
        ref = recursion.run(cfg).bloch
        limit = 2 * CHAINED_EVERY_START[num]
    else:
        ref = helpers.dense_run(cfg.phi0, tape, cfg.alpha, steps, variant)
        limit = 1e-12
    off = np.abs(traj.bloch - ref).max()
    assert off <= np.abs(chained.bloch - ref).max() + bound
    assert off <= limit


def test_six_spins_keep_the_loop(monkeypatch):
    # U of M=6 has 4**7 > REDUCE_BLOCK entries: one full-size kernel call
    # per step of the first cycle, then one pair per rotation and flip
    # around a ring of six full states
    calls = []
    _record_kernel_sizes(monkeypatch, calls)
    _record_pairs(monkeypatch, calls)
    run(MachineConfig(6, ALPHA, initial=_amplitude_tape(6), steps=5 * 12))
    assert calls[:12] == [2 ** 7] * 12
    assert [c for c in calls[12:] if isinstance(c, tuple)] == _later_pairs(
        6, ALPHA, 60)


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("num", [6, 8])
def test_the_loop_calls_one_gate_per_step(monkeypatch, num, variant):
    # the first cycle calls the gates through the names engine binds, once
    # per step, so a wrapper there sees every step of it: step n of a
    # cycle rotates by alpha (n odd) or flips spin n // 2 (n even). Later
    # steps are one call of a ring's pair per rotation and flip, and an odd
    # last step is one more rotation
    calls = []
    for name in ("apply_head_rotation", "apply_qcnot"):
        def recorded(state, *args, _gate=getattr(qtm.engine, name)):
            calls.append(args)
            return _gate(state, *args)

        monkeypatch.setattr(qtm.engine, name, recorded)
    _record_pairs(monkeypatch, calls)
    alpha = {6: 0.7, 8: 1.9}[num]
    steps = 3 * 2 * num + 5
    run(MachineConfig(num, alpha, variant=variant,
                      initial=("+-01" * 2)[:num], steps=steps))
    want = [(alpha,) if n % 2 else (n // 2, variant)
            for n in range(1, 2 * num + 1)]
    # the last step, n = 5 of its cycle, is a rotation
    assert calls == want + _later_pairs(num, alpha, steps) + [(alpha,)]


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("num", [6, 7, 8, 9])
def test_pairs_fill_the_scalar_carrys_bits(monkeypatch, num, variant):
    # after the pairs, the carried Bloch vector is filled by columns, and
    # up to M=8 the pairs run around a ring and reduce once per cycle: the
    # bits and the norm drift of the in-place pairs with a step-by-step
    # carry, for runs that end on a rotation, inside a cycle and on a
    # cycle end
    path = "_run_ring" if num <= 8 else "_run_pairs"
    took = []
    later = getattr(qtm.engine, path)
    monkeypatch.setattr(qtm.engine, path,
                        lambda *args: took.append(path) or later(*args))
    # and on an amplitude tape too (entangled, every amplitude nonzero)
    spec = ("+-01" * 3)[:num]
    for steps, tape in ((2 * num + 1, spec), (4 * num - 1, spec),
                        (4 * num, spec), (4 * num + 1, spec),
                        (6 * num + 3, spec), (3000, spec),
                        (4 * num, _amplitude_tape(num))):
        cfg = MachineConfig(num, (0.7, 1.9, ALPHA)[num % 3], phi0=1.1,
                            variant=variant, initial=tape, steps=steps)
        traj = run(cfg)
        assert took.pop() == path
        with monkeypatch.context() as patch:
            for name in ("_run_ring", "_run_pairs"):
                patch.setattr(qtm.engine, name, helpers.scalar_carry_pairs)
            want = run(cfg)
        assert not took
        assert traj.bloch.tobytes() == want.bloch.tobytes()
        assert traj.norm_drift == want.norm_drift


def test_run_refuses_a_state_larger_than_memory(monkeypatch):
    # a 1-step run never builds the M=16 state, but the guard counts the
    # full state, the half-size one it grows from, and two blocks each of
    # pair scratch and rotation temporaries, before anything is allocated
    helpers.one_mib_available(monkeypatch)
    with pytest.raises(ConfigurationError, match="16 tape spins need 4 MiB"):
        run(MachineConfig(16, ALPHA, steps=1))


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("num, steps", [
    pytest.param(10, 60, id="10"), pytest.param(14, 84, id="14"),
    pytest.param(16, 96, id="16"), (6, 20000), (7, 20000), (8, 20000),
    (8, 2001), (3, 20000), (5, 20000), (5, 200000)])
def test_memory_estimate_bounds_what_a_run_holds(monkeypatch, num, steps,
                                                 variant):
    # the guard's estimate is at least the traced peak of a three-cycle
    # run: a one-block state (M=10, 14) and a blocked one (M=16). Below
    # M=10 a short run's peak is the guard's own read of /proc/meminfo,
    # about 10 KiB; a long one at M=6-8 holds the trajectory, its ring of
    # states with the ring's scratch, the temporaries of its column fill
    # and its pair callables (one ending inside a cycle, on a rotation,
    # too), and one at M=3 or 5 the trajectory, the extended matrices and
    # the stack of its windows
    needs = []
    check_fits = qtm.engine.check_fits

    def recorded(need, what):
        needs.append(need)
        check_fits(need, what)

    monkeypatch.setattr(qtm.engine, "check_fits", recorded)
    tracemalloc.start()
    try:
        run(MachineConfig(num, ALPHA, variant=variant, steps=steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(needs) == 1 and peak <= needs[0]


def test_a_last_rotation_does_not_hold_the_pair_scratch():
    # at M=14 the pairs' scratch is a state (512 KiB) and so are the
    # temporaries of a rotation: a run ending on a rotation frees the first
    # before it takes the second, and peaks no higher than one ending on
    # the flip before it
    peaks = []
    for steps in (84, 85):
        cfg = MachineConfig(14, ALPHA, steps=steps)
        tracemalloc.start()
        try:
            run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * 2 ** 15 // 4


_THREADED_RUN = """
import sys
import numpy as np
from qtm import MachineConfig, run
rows = []
# M=16 steps gate by gate and M=8 around the ring; M=3 and M=5 (the
# largest cycle matrix) run 2000 steps on the cycle matrix, one start per
# window row (R = 1), and M=3 20,000 steps, eight cycles per row (R = 8)
for num, tape, steps in ((16, "zeros", 60), (8, "+-01+-01", 2001),
                         (3, "+-1", 2000), (5, "+-01-", 2000),
                         (3, "+-1", 20000)):
    traj = run(MachineConfig(num, float(sys.argv[2]), initial=tape,
                             steps=steps))
    rows += [traj.bloch, [traj.norm_drift] * 3]
np.save(sys.argv[1], np.vstack(rows))
"""


def test_trajectory_bits_do_not_depend_on_blas_threads(tmp_path):
    assert qtm.engine._windows_schedule(
        MachineConfig(3, ALPHA, initial="+-1", steps=20000))[2] == 8
    src = str(Path(qtm.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = tmp_path / f"threads{threads}.npy"
        subprocess.run([sys.executable, "-c", _THREADED_RUN, str(out), repr(float(ALPHA))],
                       env=env, check=True, timeout=120)
        results.append(np.load(out))
    np.testing.assert_array_equal(results[0], results[1])


def test_norm_guard_trips_on_broken_kernel(monkeypatch):
    def leaky(amps, c, s):
        amps *= 1.0 + 1e-6

    monkeypatch.setattr(qtm.kernels, "rotate_head", leaky)
    cfg = MachineConfig(2, ALPHA, steps=8)
    with pytest.raises(NumericalValidationError):
        run(cfg)


def test_norm_guard_trips_on_a_nan(monkeypatch, tmp_path, capsys):
    # NaN > tol is false, so a guard written as `dev > tol` let a NaN state
    # finish with norm_drift 0.0 and NaN rows
    rotate = qtm.kernels.rotate_head

    def poisoned(amps, c, s):
        rotate(amps, c, s)
        amps[0] = complex("nan")

    monkeypatch.setattr(qtm.kernels, "rotate_head", poisoned)
    with pytest.raises(NumericalValidationError, match="by step 4"):
        run(MachineConfig(2, ALPHA, steps=8))
    out = tmp_path / "t.csv"
    assert main(["simulate", "--tape-size", "2", "--alpha", "1",
                 "--steps", "8", "--out", str(out)]) == 3
    assert "numeric validation failed" in capsys.readouterr().err


@pytest.mark.parametrize("num, message", [
    (3, "cycle matrix .* by step 6$"), (6, "norm² .* by step 12$")])
def test_norm_guard_trips_on_a_slow_leak(monkeypatch, num, message):
    # a rotation that leaks 1e-13 of the amplitude per call puts norm²
    # 1.2e-12 off after six rotations, one cycle at M=6, where rounding
    # allows 3.7e-14. At M=3 the first cycle's check would see it as
    # well, 6e-13 off after three rotations, so there only the calls on
    # stacks leak, the first of them on the basis states: the cycle matrix
    # the kernels build after the first cycle is 1.5e-13 off its exact
    # product, where rounding allows 9.4e-16
    rotate = qtm.kernels.rotate_head

    def leaky(amps, c, s):
        rotate(amps, c, s)
        if num > 5 or amps.ndim == 2:
            amps *= 1.0 + 1e-13

    monkeypatch.setattr(qtm.kernels, "rotate_head", leaky)
    with pytest.raises(NumericalValidationError, match=message):
        run(MachineConfig(num, ALPHA, steps=100 * 2 * num))


def test_cycle_matrix_check_trips_on_a_kernel_that_keeps_the_norm(
        monkeypatch):
    # a rotation by alpha + 1e-9 keeps the norm, so no norm check can see
    # it, but the cycle matrix the kernels build after the first cycle is
    # about 1e-9 off the product of the exact rotations by alpha
    rotate = qtm.kernels.rotate_head

    def skewed(amps, c, s):
        rotate(amps, *rotation_coefficients(2 * math.atan2(s, c) + 1e-9))

    monkeypatch.setattr(qtm.kernels, "rotate_head", skewed)
    with pytest.raises(NumericalValidationError,
                       match="cycle matrix .* by step 6$"):
        run(MachineConfig(3, ALPHA, steps=100))


def _leak_pairs(monkeypatch, fault, after=0):
    """Bind kernels.pair_kernels and ring_kernels to pairs that, after
    their own rotation and flip, leak 1e-13 of the amplitude of the state
    they wrote (fault "leak") or write a NaN into it ("nan"), once the
    first `after` pair calls are made; returns the amplitude shapes they
    were bound to. At M <= 8 the state is the ring's row that the pair
    wrote, above it the state the pair rotated in place."""
    made, calls = [], []
    for name in ("pair_kernels", "ring_kernels"):
        def broken(amps, variant, c, s, _bind=getattr(qtm.kernels, name)):
            def wrap(mu, pair):
                state = amps[mu - 1] if amps.ndim == 2 else amps

                def rotate_and_flip():
                    cross = pair()
                    calls.append(mu)
                    if len(calls) > after and fault == "leak":
                        np.multiply(state, 1.0 + 1e-13, out=state)
                    elif len(calls) > after:
                        state[0] = complex("nan")
                    return cross
                return rotate_and_flip

            made.append(amps.shape)
            return {mu: wrap(mu, pair)
                    for mu, pair in _bind(amps, variant, c, s).items()}

        monkeypatch.setattr(qtm.kernels, name, broken)
    return made


@pytest.mark.parametrize("fault, num, steps, step", [
    pytest.param(*case, id=f"{case[0]}-{case[2]}-{case[3]}"
                 + ("-blocked" if case[1] == 16 else ""))
    for case in [("leak", 6, 100 * 12, 24), ("nan", 6, 100 * 12, 24),
                 ("nan", 6, 12 + 4, 16), ("nan", 6, 12 + 5, 17),
                 ("leak", 16, 3 * 32, 64), ("nan", 16, 3 * 32, 64)]])
def test_norm_guard_trips_on_a_broken_pair(monkeypatch, fault, num, steps,
                                           step):
    # after the first cycle the rotations and flips of M >= 6 are pair
    # calls: one that leaks 1e-13 of the amplitude per call puts norm²
    # 1.2e-12 off after the six pairs of the second cycle at M=6 (3.2e-12
    # after the 16 of M=16, a state of four blocks), and a NaN fails the
    # check at its end too, or at the end of a last partial cycle. At M=6
    # the fault goes into the ring's row that the pair wrote, at M=16 into
    # the state the pair rotated in place. At M=16 rounding allows 1.85e-12
    # at step 64, nearly all of it the sum of the norm² over 2**17
    # amplitudes in blocks
    made = _leak_pairs(monkeypatch, fault)
    with pytest.raises(NumericalValidationError, match=f"by step {step}$"):
        run(MachineConfig(num, ALPHA, initial=_amplitude_tape(num),
                          steps=steps))
    size = 2 ** (num + 1)
    assert made == [(num, size) if num <= 8 else (size,)]


def test_norm_guard_trips_on_a_late_leak_where_it_passes_the_bound(
        monkeypatch):
    # at M=6 the pairs after step 40,000 leak 1e-13 of the amplitude each,
    # so norm² is (1 + 1e-13)**(2k) - 1 off q^r after k of them: the run
    # must stop at the first cycle end where that passes what rounding
    # allows there. The bound grows with the rotations, about 1.26e-11 at
    # step 40,000, and a leak of 1.2e-12 per cycle passes it within 12
    # cycles; a bound that grew faster would let the run go on
    num, start = 6, 40000
    cycle = 2 * num
    cfg = MachineConfig(num, ALPHA, steps=start + 100 * cycle)

    def over(end):
        """How far the leak at cycle end `end` is past the bound."""
        leak = math.expm1((end - start) * math.log1p((1.0 + 1e-13) - 1.0))
        return leak - qtm.engine._norm_bound(cfg, end // 2)

    end = start + cycle - start % cycle
    while over(end) <= 0:
        end += cycle
    # the run's own rounding, at most 1.2e-14 measured at M = 6-9, and
    # the leak's, cannot move the trip to the cycle end before or after
    assert over(end) > 1e-13 and over(end - cycle) < -1e-13
    assert end <= start + 12 * cycle
    _leak_pairs(monkeypatch, "leak", after=(start - cycle) // 2)
    with pytest.raises(NumericalValidationError, match=f"by step {end}$"):
        run(cfg)


@pytest.mark.parametrize("num, alpha, steps", [
    (6, ALPHA, 70000), (6, 1.0, 30000), (8, ALPHA, 70000)])
def test_long_correct_runs_finish(num, alpha, steps):
    # every rotation scales norm² by q = c² + s² of the double cos and sin
    # of alpha/2, q - 1 = -3.1e-17 at pi/sqrt(3) and +8.0e-17 at 1, so a
    # correct run drifts coherently past 1e-12, where a flat bound of
    # 1e-12 stopped the first two at steps 64,020 and 25,104; each agrees
    # with the closed-form recursion to that drift and the rounding the
    # norm check allows
    cfg = MachineConfig(num, alpha, steps=steps)
    traj = run(cfg)
    rotations = (steps + 1) // 2
    allowed = (abs(float(qtm.engine._growth(cfg, rotations)))
               + qtm.engine._norm_bound(cfg, rotations))
    assert 1e-12 < traj.norm_drift <= allowed
    assert np.abs(traj.bloch - recursion.run(cfg).bloch).max() <= allowed


@pytest.mark.parametrize("factor", [1.0 - 1e-7, 1.0 + 1e-7],
                         ids=["shrinks", "grows"])
@pytest.mark.parametrize("num, stacks_only", [(6, False), (3, True)],
                         ids=["gate-loop", "window-replay"])
def test_norm_guard_reports_the_signed_deviation(monkeypatch, factor, num,
                                                 stacks_only):
    # every rotation scales norm² by factor**2, so one cycle of M rotations
    # leaves it factor**(2M) - 1 off 1, a norm that shrinks as 1-... and
    # one that grows as 1+... At M=3 only the stacked replay of the second
    # cycle leaks, and its rows are checked (_check_norms) at step 12
    rotate = qtm.kernels.rotate_head

    def leaky(amps, c, s):
        rotate(amps, c, s)
        if amps.ndim == 2 or not stacks_only:
            amps *= factor

    monkeypatch.setattr(qtm.kernels, "rotate_head", leaky)
    dev = factor ** (2 * num) - 1.0
    message = f"drifted to 1{dev:+.3e} by step 12"
    assert message[12] == ("-" if factor < 1 else "+")
    with pytest.raises(NumericalValidationError) as info:
        run(MachineConfig(num, ALPHA, steps=12))
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("bad_calls, row, step", [
    # every rotation after the first cycle, or only those that build U:
    # the kernels' U is checked against its exact product when it is
    # built, after step 6
    (range(4, 1000), 0, 6),
    (range(4, 7), 0, 6),
    # only the first replayed rotation, on row 4, the cycle from step 30
    ((7,), 4, 36),
    # the same on the last row, whose replay stops at the run's last step
    ((7,), 19, 123),
])
def test_norm_guard_reports_a_later_nan_at_its_cycle_end(monkeypatch, bad_calls,
                                                         row, step):
    # 123 steps chain all 20 cycle starts (R = 1)
    _poison_rotations(monkeypatch, 123, {call: row for call in bad_calls},
                      step)


@pytest.mark.parametrize("poisons, step", [
    # calls 7 and 10 are the first rotations of the two replayed cycles
    ({7: 4}, 60), ({10: 4}, 66), ({7: 299}, 3600), ({10: 299}, 3603),
    # row 299's NaN shows at its first cycle end, step 3,600, which the
    # replay checks before row 4's second cycle end, step 66: the earlier
    # step is reported
    ({7: 299, 10: 4}, 66),
], ids=["row4-cycle1", "row4-cycle2", "row299-cycle1", "row299-stop",
        "row299-cycle1-and-row4-cycle2"])
def test_norm_guard_reports_a_nan_at_a_cycle_end_inside_a_replay(
        monkeypatch, poisons, step):
    # 3,603 steps chain every second one of 600 cycle starts (R = 2), and
    # replay two cycles from each: row 4 from step 54, row 299 from step
    # 3,594 until the run's last step, three steps into its second cycle
    _poison_rotations(monkeypatch, 3603, poisons, step)


def test_norm_guard_checks_every_chained_start(monkeypatch):
    # a cycle matrix 1e-9 too long lengthens every chained start after the
    # first. 3,603 steps at M=3 chain every second cycle start (R = 2), so
    # the second chained start, cycle 3's at step 18, fails its own check
    # before its replay reaches a cycle end
    build = qtm.engine._cycle_matrix
    monkeypatch.setattr(qtm.engine, "_cycle_matrix",
                        lambda config, size: build(config, size) * (1 + 1e-9))
    cfg = MachineConfig(3, ALPHA, initial="+-1", steps=3603)
    assert qtm.engine._windows_schedule(cfg)[2] == 2
    with pytest.raises(NumericalValidationError, match="by step 18$"):
        run(cfg)


def _poison_rotations(monkeypatch, steps, poisons, step):
    """Run M=3 on +-1 for steps with a NaN written into amplitude 0 of
    state poisons[call] by each rotation call in poisons (counted from 1),
    and check that the norm guard reports it by step `step`."""
    rotate = qtm.kernels.rotate_head
    calls = []

    def poisoned(amps, c, s):
        rotate(amps, c, s)
        calls.append(amps.size)
        if len(calls) in poisons:
            amps.reshape(-1)[poisons[len(calls)] * 16] = complex("nan")

    monkeypatch.setattr(qtm.kernels, "rotate_head", poisoned)
    with pytest.raises(NumericalValidationError, match=f"by step {step}$"):
        run(MachineConfig(3, ALPHA, initial="+-1", steps=steps))
    assert calls[3:6] == [16 * 16] * 3  # U, built on the 16 basis states


def test_norm_drift_is_tiny():
    cfg = MachineConfig(3, ALPHA, steps=400)
    assert run(cfg).norm_drift <= 1e-12


@pytest.mark.parametrize("num, alpha, tape, steps", [
    (4, ALPHA, "zeros", 66000), (3, ALPHA, "+-0", 66000),
    (4, ALPHA, "+-01", 66000), (5, ALPHA, "+-01+", 66000),
    (2, 2.5, "11", 100000)])
def test_small_tapes_run_past_the_loops_horizon(num, alpha, tape, steps):
    # gate by gate, M=4 on zeros stops at step 64,888 with norm² 1e-12 off,
    # and the next three end 66,000 steps 9e-13 off. A cycle matrix rounded
    # to double and applied every cycle adds up its rounding: the kernels'
    # U stopped the first four at steps 49,152, 45,018, 32,800 and 34,510,
    # and the exact unitary, rounded once, stops the last at 33,888
    cfg = MachineConfig(num, alpha, initial=tape, steps=steps)
    traj = run(cfg)
    assert traj.norm_drift <= 1e-12
    if tape == "zeros":
        np.testing.assert_allclose(traj.bloch, recursion.run(cfg).bloch,
                                   rtol=0, atol=1e-12)


class TestMixtures:
    def test_singleton_mixture_is_the_pure_run(self):
        cfg = MachineConfig(2, ALPHA, phi0=0.3, steps=50)
        np.testing.assert_allclose(
            run_mixed([(1.0, cfg)]).bloch, run(cfg).bloch, atol=1e-15
        )

    def test_balanced_head_mixture_cancels(self):
        up = MachineConfig(2, ALPHA, phi0=0.0, steps=60)
        down = MachineConfig(2, ALPHA, phi0=math.pi, steps=60)
        mixed = run_mixed([(0.5, up), (0.5, down)])
        np.testing.assert_allclose(mixed.bloch, np.zeros((61, 3)), atol=1e-12)

    def test_unbalanced_mixture_scales(self):
        up = MachineConfig(1, ALPHA, phi0=0.0, steps=40)
        down = MachineConfig(1, ALPHA, phi0=math.pi, steps=40)
        mixed = run_mixed([(0.75, up), (0.25, down)])
        np.testing.assert_allclose(mixed.bloch, 0.5 * run(up).bloch, atol=1e-12)


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(2, 1.0, variant="z", steps=5)

    def test_negative_steps(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(2, 1.0, steps=-1)

    def test_tape_length_mismatch_surfaces_at_run(self):
        cfg = MachineConfig(3, 1.0, initial="01", steps=5)
        with pytest.raises(ConfigurationError):
            run(cfg)

    @pytest.mark.parametrize("alpha, phi0", [
        (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_angles(self, alpha, phi0):
        with pytest.raises(ConfigurationError, match="must be finite"):
            MachineConfig.uniform(2, alpha, phi0=phi0, steps=5)
        with pytest.raises(ConfigurationError, match="must be finite"):
            MachineConfig(2, alpha, phi0=phi0, steps=5)

    @pytest.mark.parametrize("alpha, phi0", [
        (None, 0.0), (1.0, "0.3"), ("1", 0.0), (1j, 0.0), (1.0, None),
        pytest.param(10 ** 400, 0.0, id="int-past-the-doubles"),
        pytest.param(1.0, Fraction(-10 ** 400, 3),
                     id="fraction-past-the-doubles")])
    def test_angles_must_be_real_numbers(self, alpha, phi0):
        # a string is refused, not converted, and so is a complex number or
        # a real number that no double holds
        with pytest.raises(ConfigurationError, match="finite real numbers"):
            MachineConfig(2, alpha, phi0=phi0, steps=5)

    @pytest.mark.parametrize("alphas", [(1.0, "x"), (1.0, 1.0), [0.5]])
    def test_one_angle_per_machine(self, alphas):
        with pytest.raises(ConfigurationError, match="one rotation angle"):
            MachineConfig(2, alphas)

    def test_angles_are_stored_as_floats(self):
        cfg = MachineConfig(2, np.float64(1.5), phi0=1, steps=5)
        assert type(cfg.alpha) is float and type(cfg.phi0) is float
        assert (cfg.alpha, cfg.phi0) == (1.5, 1.0)

    def test_uniform_is_the_same_constructor(self):
        tape = _amplitude_tape(2)
        args = (2, ALPHA)
        kwargs = dict(phi0=0.4, variant="iy", initial=tape, steps=7)
        assert MachineConfig.uniform(*args, **kwargs) == MachineConfig(
            *args, **kwargs)
        assert MachineConfig.uniform(3, 1.9, 0.2, "x", "0+1", 9) == (
            MachineConfig(3, 1.9, 0.2, "x", "0+1", 9))

    def test_fractional_steps(self):
        with pytest.raises(ConfigurationError, match="not an integer"):
            MachineConfig(2, 1.0, steps=10.5)

    def test_numpy_integer_steps(self):
        cfg = MachineConfig(2, ALPHA, steps=np.int64(9))
        np.testing.assert_array_equal(
            run(cfg).bloch, run(MachineConfig(2, ALPHA, steps=9)).bloch)


def test_zero_steps_yields_initial_point_only():
    cfg = MachineConfig(2, ALPHA, phi0=0.7, steps=0)
    traj = run(cfg)
    assert traj.steps == 0 and len(traj) == 1
    np.testing.assert_allclose(
        traj.point(0), (0.0, math.sin(0.7), -math.cos(0.7)), atol=1e-15
    )
