"""Engine tests: schedule bookkeeping, agreement with the dense-matrix oracle,
symmetries, and the runtime norm check."""

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
    engine,
    run,
    run_mixed,
)

ALPHA = helpers.ALPHA


class TestSchedule:
    def test_odd_steps_are_rotations(self):
        op = engine.schedule(1, 3)
        assert op.kind == engine.ROTATION and op.mu == 1
        assert engine.schedule(5, 3).mu == 3

    def test_even_steps_are_qcnots(self):
        op = engine.schedule(2, 3)
        assert op.kind == engine.QCNOT and op.mu == 1
        assert engine.schedule(6, 3).mu == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            engine.schedule(0, 3)
        with pytest.raises(ConfigurationError):
            engine.schedule(7, 3)

    def test_step_index_round_trip(self):
        for m in range(1, 40):
            n, p = engine.step_index(m, 3)
            assert m == n + 2 * 3 * (p - 1)
            assert 1 <= n <= 6 and p >= 1


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
                0,
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


_THREADED_RUN = """
import sys
import numpy as np
from qtm import MachineConfig, run
traj = run(MachineConfig.uniform(16, float(sys.argv[2]), steps=60))
np.save(sys.argv[1], np.vstack([traj.bloch, [traj.norm_drift] * 3]))
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


def test_norm_drift_is_tiny():
    cfg = MachineConfig.uniform(3, ALPHA, steps=400)
    assert run(cfg).norm_drift <= 1e-12


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


def test_zero_steps_yields_initial_point_only():
    cfg = MachineConfig.uniform(2, ALPHA, phi0=0.7, steps=0)
    traj = run(cfg)
    assert traj.steps == 0 and len(traj) == 1
    np.testing.assert_allclose(
        traj.point(0), (0.0, math.sin(0.7), -math.cos(0.7)), atol=1e-15
    )
