"""Engine tests: agreement with the dense-matrix oracle, symmetries, and the
runtime norm check."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import qtm
import qtm.kernels
from qtm import (
    ConfigurationError,
    MachineConfig,
    NumericalValidationError,
    run,
    run_mixed,
)
from qtm import recursion
from qtm.cli import main
from qtm.gates import rotation_coefficients
from qtm.state import REDUCE_BLOCK

ALPHA = helpers.ALPHA


def test_first_step_tilts_head_by_alpha():
    cfg = MachineConfig.uniform(2, ALPHA, steps=1)
    traj = run(cfg)
    np.testing.assert_allclose(
        traj.point(1), (0.0, math.sin(ALPHA), -math.cos(ALPHA)), atol=1e-15
    )


def test_zero_angle_machine_is_frozen():
    cfg = MachineConfig.uniform(3, 0.0, steps=30)
    traj = run(cfg)
    np.testing.assert_array_equal(traj.bloch[:, 0], np.zeros(31))
    np.testing.assert_allclose(traj.bloch[:, 1], np.zeros(31), atol=1e-15)
    np.testing.assert_allclose(traj.bloch[:, 2], -np.ones(31), atol=1e-15)


def test_x_component_identically_zero():
    # real-amplitude initial data and these gates keep the head pinned to
    # the y-z plane; the x readout should be exact 0.0, not merely small
    cfg = MachineConfig.uniform(3, ALPHA, phi0=0.0, steps=200)
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
        alphas=(ALPHA,) * len(tape),
        phi0=phi0,
        variant=variant,
        initial=tape,
        steps=60,
    )
    np.testing.assert_allclose(run(cfg).bloch, expected, atol=1e-12)


def test_distinct_angles_match_dense_oracle():
    alphas = (0.7, 1.9, ALPHA)
    expected = helpers.dense_run(0.3, "000", alphas, 40, "x")
    cfg = MachineConfig(
        num_tape_spins=3,
        alphas=alphas,
        phi0=0.3,
        variant="x",
        initial="000",
        steps=40,
    )
    np.testing.assert_allclose(run(cfg).bloch, expected, atol=1e-12)


@pytest.mark.parametrize("tape", ["00", "01", "11"])
def test_head_flip_negates_trajectory(tape):
    up = MachineConfig.uniform(2, ALPHA, phi0=0.0, initial=tape, steps=80)
    down = MachineConfig.uniform(2, ALPHA, phi0=math.pi, initial=tape, steps=80)
    np.testing.assert_allclose(run(down).bloch, -run(up).bloch, atol=1e-12)


def test_runs_are_deterministic():
    cfg = MachineConfig.uniform(4, ALPHA, phi0=0.25, steps=120)
    np.testing.assert_array_equal(run(cfg).bloch, run(cfg).bloch)


def test_cycle_against_dense_cycle_matrix():
    # one full cycle applied by the engine == the dense product of its gates
    tape = "01"
    alphas = (0.9, 1.3)
    psi = helpers.dense_product_state(0.4, tape)
    u = np.eye(8, dtype=complex)
    for n in range(1, 5):
        if n % 2 == 1:
            g = helpers.op_on_bit(
                math.cos(alphas[(n - 1) // 2] / 2) * helpers.I2
                - 1j * math.sin(alphas[(n - 1) // 2] / 2) * helpers.LX,
                2,  # the head, the top bit of 3
                3,
            )
        else:
            g = helpers.dense_qcnot(n // 2, 3, "x")
        u = g @ u
    cfg = MachineConfig(
        num_tape_spins=2,
        alphas=alphas,
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


@pytest.mark.parametrize("variant, alphas, phi0, initial, steps", [
    ("x", (ALPHA,) * 2, 0.0, "01", 20000),
    ("iy", (ALPHA,) * 2, 0.0, "10", 20000),
    ("x", (0.7, 1.9, ALPHA), 1.234, "+-0", 20001),
    ("iy", (0.7, 1.9, ALPHA), 2.9, "-+1", 20003),
    ("x", (0.3, ALPHA, 2.2, 1.1), 0.8, "amplitudes", 20005),
    ("iy", (ALPHA,) * 4, 1.234, "+-01", 20000),
])
def test_carried_bloch_matches_per_step_reduction(variant, alphas, phi0,
                                                  initial, steps):
    # engine.run carries the head vector through rotations and flips and
    # reduces in full once per cycle; the plain loop reduces every step
    if initial == "amplitudes":
        initial = _amplitude_tape(len(alphas))
    cfg = MachineConfig(num_tape_spins=len(alphas), alphas=alphas, phi0=phi0,
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
    cfg = MachineConfig(num_tape_spins=GROWTH_M, alphas=(0.7, 1.9, ALPHA, 2.6),
                        phi0=1.1, variant=variant, initial=tape, steps=steps)
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
    """Append ("bind", amplitude count) to calls for every pair_kernels
    call, and (mu, c, s, amplitude count) for every call of a pair it
    returned, in call order."""
    pair_kernels = qtm.kernels.pair_kernels

    def recorded(amps, variant):
        calls.append(("bind", amps.size))

        def wrap(mu, pair):
            def rotate_and_flip(c, s):
                calls.append((mu, c, s, amps.size))
                pair(c, s)
            return rotate_and_flip

        return {mu: wrap(mu, pair)
                for mu, pair in pair_kernels(amps, variant).items()}

    monkeypatch.setattr(qtm.kernels, "pair_kernels", recorded)


def _later_pairs(alphas, steps):
    """What _record_pairs records for a run of steps > 2M steps: one bind
    of the full state, then one pair per rotation and flip after the
    first cycle, mu in schedule order with the cos and sin of half of
    alpha_mu."""
    num = len(alphas)
    size = 2 ** (num + 1)
    return [("bind", size)] + [
        (k % num + 1, *rotation_coefficients(alphas[k % num]), size)
        for k in range((steps - 2 * num) // 2)]


@pytest.mark.parametrize("variant", ["x", "iy"])
def test_first_cycle_holds_only_the_spins_the_head_reached(monkeypatch, variant):
    # one kernel call per step of the first cycle; step m of it is on spin
    # mu = (m+1)//2, and until spin mu is flipped the state holds at most
    # the head and spins 1..mu. Later steps go in rotate-and-flip pairs on
    # the full state
    num = 6
    calls = []
    _record_kernel_sizes(monkeypatch, calls)
    _record_pairs(monkeypatch, calls)
    run(MachineConfig.uniform(num, ALPHA, variant=variant, initial="+01-10",
                              steps=3 * num))
    sizes = calls[:2 * num]
    for m, size in enumerate(sizes, start=1):
        assert size <= 2 ** ((m + 1) // 2 + 1)
    assert sizes[1::2] == [2 ** (mu + 1) for mu in range(1, num + 1)]
    later = calls[2 * num:]
    assert [c for c in later if isinstance(c, tuple)] == _later_pairs(
        (ALPHA,) * num, 3 * num)
    assert all(c == 2 ** (num + 1) for c in later if not isinstance(c, tuple))


def test_amplitude_tape_runs_at_full_size_from_step_zero(monkeypatch):
    num = 4
    sizes = _record_kernel_sizes(monkeypatch)
    run(MachineConfig.uniform(num, ALPHA, initial=_amplitude_tape(num),
                              steps=3 * num))
    assert sizes == [2 ** (num + 1)] * (3 * num)


# Small tapes (M <= 5) step gate by gate through the first cycle only; later
# cycle starts are chained by the cycle matrix U and the cycle is replayed
# over windows of stacked starts.
FUSED_WINDOW = REDUCE_BLOCK // 2 ** 6  # cycle starts per window at M=5


def _fused_config(num, variant, tape, steps):
    initial = _amplitude_tape(num) if tape == "amplitudes" else tape
    return MachineConfig(num, (0.7, 1.9, ALPHA, 2.6, 0.4)[:num], phi0=1.1,
                         variant=variant, initial=initial, steps=steps)


def _assert_matches_references(cfg):
    traj = run(cfg)
    np.testing.assert_allclose(traj.bloch, helpers.per_step_run(cfg).bloch,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        traj.bloch, helpers.dense_run(cfg.phi0, cfg.resolved_initial(),
                                      cfg.alphas, cfg.steps, cfg.variant),
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


def test_fused_run_builds_u_once_and_replays_one_window(monkeypatch):
    # an amplitude tape at M=5 over five cycles: the first cycle on the
    # state, U built on the 64 basis states, then one window of the four
    # later cycle starts
    sizes = _record_kernel_sizes(monkeypatch)
    run(MachineConfig.uniform(5, ALPHA, initial=_amplitude_tape(5),
                              steps=50))
    assert sizes == [64] * 10 + [64 * 64] * 10 + [4 * 64] * 10


def test_six_spins_keep_the_loop(monkeypatch):
    # U of M=6 has 4**7 > REDUCE_BLOCK entries: one full-size kernel call
    # per step of the first cycle, then one full-size pair per rotation
    # and flip
    calls = []
    _record_kernel_sizes(monkeypatch, calls)
    _record_pairs(monkeypatch, calls)
    run(MachineConfig.uniform(6, ALPHA, initial=_amplitude_tape(6),
                              steps=5 * 12))
    assert calls[:12] == [2 ** 7] * 12
    assert [c for c in calls[12:] if isinstance(c, tuple)] == _later_pairs(
        (ALPHA,) * 6, 60)


@pytest.mark.parametrize("variant", ["x", "iy"])
@pytest.mark.parametrize("num", [6, 8])
def test_the_loop_calls_one_gate_per_step(monkeypatch, num, variant):
    # the first cycle calls the gates through the names engine binds, once
    # per step, so a wrapper there sees every step of it: step n of a
    # cycle rotates by alpha_mu (n odd) or flips spin mu (n even), mu =
    # (n + 1) // 2. Later steps are one pair call per rotation and flip,
    # and an odd last step is one more rotation
    calls = []
    for name in ("apply_head_rotation", "apply_qcnot"):
        def recorded(state, *args, _gate=getattr(qtm.engine, name)):
            calls.append(args)
            return _gate(state, *args)

        monkeypatch.setattr(qtm.engine, name, recorded)
    _record_pairs(monkeypatch, calls)
    alphas = tuple(0.3 + 0.1 * mu for mu in range(num))
    steps = 3 * 2 * num + 5
    run(MachineConfig(num, alphas, variant=variant,
                      initial=("+-01" * 2)[:num], steps=steps))
    want = [(alphas[(n - 1) // 2],) if n % 2 else (n // 2, variant)
            for n in range(1, 2 * num + 1)]
    # the last step, n = 5 of its cycle, rotates by alpha_3
    assert calls == want + _later_pairs(alphas, steps) + [(alphas[2],)]


def test_run_refuses_a_state_larger_than_memory(monkeypatch):
    # a 1-step run never builds the M=16 state, but the guard counts the
    # full state, and the half-size one it grows from, before anything is
    # allocated
    helpers.one_mib_available(monkeypatch)
    with pytest.raises(ConfigurationError, match="16 tape spins need 3 MiB"):
        run(MachineConfig.uniform(16, ALPHA, steps=1))


_THREADED_RUN = """
import sys
import numpy as np
from qtm import MachineConfig, run
rows = []
# M=16 steps gate by gate; M=3 and M=5 (the largest cycle matrix) run
# 2000 steps on the cycle matrix
for num, tape, steps in ((16, "zeros", 60), (3, "+-1", 2000),
                         (5, "+-01-", 2000)):
    traj = run(MachineConfig.uniform(num, float(sys.argv[2]), initial=tape,
                                     steps=steps))
    rows += [traj.bloch, [traj.norm_drift] * 3]
np.save(sys.argv[1], np.vstack(rows))
"""


def test_trajectory_bits_do_not_depend_on_blas_threads(tmp_path):
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
    cfg = MachineConfig.uniform(2, ALPHA, steps=8)
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
        run(MachineConfig.uniform(2, ALPHA, steps=8))
    out = tmp_path / "t.csv"
    assert main(["simulate", "--tape-size", "2", "--alpha", "1",
                 "--steps", "8", "--out", str(out)]) == 3
    assert "numeric validation failed" in capsys.readouterr().err


@pytest.mark.parametrize("num, message", [
    (3, "cycle matrix .* by step 6$"), (6, "norm² .* by step 12$")])
def test_norm_guard_trips_on_a_slow_leak(monkeypatch, num, message):
    # a rotation that leaks 1e-13 of the amplitude per call puts norm²
    # 1.2e-12 off after six rotations, one cycle at M=6. At M=3 the cycle
    # matrix the kernels build after the first cycle is 1.5e-13 off its
    # exact product, where rounding allows 9.4e-16
    rotate = qtm.kernels.rotate_head

    def leaky(amps, c, s):
        rotate(amps, c, s)
        amps *= 1.0 + 1e-13

    monkeypatch.setattr(qtm.kernels, "rotate_head", leaky)
    with pytest.raises(NumericalValidationError, match=message):
        run(MachineConfig.uniform(num, ALPHA, steps=100 * 2 * num))


@pytest.mark.parametrize("fault, steps, step", [
    ("leak", 100 * 12, 24), ("nan", 100 * 12, 24),
    ("nan", 12 + 4, 16), ("nan", 12 + 5, 17)])
def test_norm_guard_trips_on_a_broken_pair(monkeypatch, fault, steps, step):
    # after the first cycle the rotations and flips of M >= 6 are pair
    # calls: one that leaks 1e-13 of the amplitude per call puts norm²
    # 1.2e-12 off after the six pairs of the second cycle, and a NaN fails
    # the check at its end too, or at the end of a last partial cycle
    pair_kernels = qtm.kernels.pair_kernels

    def broken(amps, variant):
        def wrap(pair):
            def rotate_and_flip(c, s):
                pair(c, s)
                if fault == "leak":
                    np.multiply(amps, 1.0 + 1e-13, out=amps)
                else:
                    amps[0] = complex("nan")
            return rotate_and_flip

        return {mu: wrap(pair)
                for mu, pair in pair_kernels(amps, variant).items()}

    monkeypatch.setattr(qtm.kernels, "pair_kernels", broken)
    with pytest.raises(NumericalValidationError, match=f"by step {step}$"):
        run(MachineConfig.uniform(6, ALPHA, initial=_amplitude_tape(6),
                                  steps=steps))


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
        run(MachineConfig.uniform(num, ALPHA, steps=12))
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
    rotate = qtm.kernels.rotate_head
    calls = []

    def poisoned(amps, c, s):
        rotate(amps, c, s)
        calls.append(amps.size)
        if len(calls) in bad_calls:  # amplitude 0 of state `row`
            amps.reshape(-1)[row * 16] = complex("nan")

    monkeypatch.setattr(qtm.kernels, "rotate_head", poisoned)
    with pytest.raises(NumericalValidationError, match=f"by step {step}$"):
        run(MachineConfig.uniform(3, ALPHA, initial="+-1", steps=123))
    assert calls[3:6] == [16 * 16] * 3  # U, built on the 16 basis states


def test_norm_drift_is_tiny():
    cfg = MachineConfig.uniform(3, ALPHA, steps=400)
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
    cfg = MachineConfig.uniform(num, alpha, initial=tape, steps=steps)
    traj = run(cfg)
    assert traj.norm_drift <= 1e-12
    if tape == "zeros":
        np.testing.assert_allclose(traj.bloch, recursion.run(cfg).bloch,
                                   rtol=0, atol=1e-12)


class TestMixtures:
    def test_singleton_mixture_is_the_pure_run(self):
        cfg = MachineConfig.uniform(2, ALPHA, phi0=0.3, steps=50)
        np.testing.assert_allclose(
            run_mixed([(1.0, cfg)]).bloch, run(cfg).bloch, atol=1e-15
        )

    def test_balanced_head_mixture_cancels(self):
        up = MachineConfig.uniform(2, ALPHA, phi0=0.0, steps=60)
        down = MachineConfig.uniform(2, ALPHA, phi0=math.pi, steps=60)
        mixed = run_mixed([(0.5, up), (0.5, down)])
        np.testing.assert_allclose(mixed.bloch, np.zeros((61, 3)), atol=1e-12)

    def test_unbalanced_mixture_scales(self):
        up = MachineConfig.uniform(1, ALPHA, phi0=0.0, steps=40)
        down = MachineConfig.uniform(1, ALPHA, phi0=math.pi, steps=40)
        mixed = run_mixed([(0.75, up), (0.25, down)])
        np.testing.assert_allclose(mixed.bloch, 0.5 * run(up).bloch, atol=1e-12)

    def test_weights_must_sum_to_one(self):
        cfg = MachineConfig.uniform(1, ALPHA, steps=5)
        with pytest.raises(ConfigurationError):
            run_mixed([(0.4, cfg), (0.4, cfg)])

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, -math.inf)])
    def test_weights_that_are_not_numbers_are_refused(self, weights):
        # NaN < 0 and abs(NaN - 1) > tol are both false, so a NaN weight
        # passed both tests and gave an all-NaN trajectory
        a = MachineConfig.uniform(2, ALPHA, steps=5)
        b = MachineConfig.uniform(2, ALPHA, phi0=math.pi, steps=5)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            run_mixed(list(zip(weights, (a, b))))

    def test_members_must_share_machine(self):
        a = MachineConfig.uniform(2, ALPHA, steps=5)
        b = MachineConfig.uniform(2, 1.0, steps=5)
        with pytest.raises(ConfigurationError):
            run_mixed([(0.5, a), (0.5, b)])


class TestConfigValidation:
    def test_alpha_count_must_match(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(
                num_tape_spins=2,
                alphas=(1.0,),
                phi0=0.0,
                variant="x",
                initial="00",
                steps=5,
            )

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.uniform(2, 1.0, variant="z", steps=5)

    def test_negative_steps(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.uniform(2, 1.0, steps=-1)

    def test_tape_length_mismatch_surfaces_at_run(self):
        cfg = MachineConfig.uniform(3, 1.0, initial="01", steps=5)
        with pytest.raises(ConfigurationError):
            run(cfg)

    @pytest.mark.parametrize("alpha, phi0", [
        (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_angles(self, alpha, phi0):
        with pytest.raises(ConfigurationError, match="must be finite"):
            MachineConfig.uniform(2, alpha, phi0=phi0, steps=5)
        with pytest.raises(ConfigurationError, match="must be finite"):
            MachineConfig(2, (1.0, alpha), phi0=phi0, steps=5)

    def test_fractional_steps(self):
        with pytest.raises(ConfigurationError, match="not an integer"):
            MachineConfig.uniform(2, 1.0, steps=10.5)

    def test_numpy_integer_steps(self):
        cfg = MachineConfig.uniform(2, ALPHA, steps=np.int64(9))
        np.testing.assert_array_equal(
            run(cfg).bloch, run(MachineConfig.uniform(2, ALPHA, steps=9)).bloch)


def test_zero_steps_yields_initial_point_only():
    cfg = MachineConfig.uniform(2, ALPHA, phi0=0.7, steps=0)
    traj = run(cfg)
    assert traj.steps == 0 and len(traj) == 1
    np.testing.assert_allclose(
        traj.point(0), (0.0, math.sin(0.7), -math.cos(0.7)), atol=1e-15
    )
