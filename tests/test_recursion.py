"""Closed-form recursion against the state-vector engine, plus the exact
single-tape-spin formulas."""

import math

import numpy as np
import pytest

import helpers
from qtm import ConfigurationError, HeadRecursion, MachineConfig, m1_closed_form
from qtm import recursion as recursion_mod
from qtm.engine import run as engine_run
from qtm.primitives import run_primitive

ALPHA = helpers.ALPHA


def test_seed_values():
    rec = HeadRecursion(ALPHA)
    for num in (1, 2, 5):
        traj = rec.trajectory(1, num)
        np.testing.assert_array_equal(traj[0], (0.0, 0.0, -1.0))
        np.testing.assert_allclose(
            traj[1], (0.0, math.sin(ALPHA), -math.cos(ALPHA)), atol=1e-15,
        )


def test_first_flip_single_spin():
    # m=2 on one tape spin: the flip kills y (the tape state becomes an
    # equal mix of reflected angles) and keeps z
    rec = HeadRecursion(ALPHA)
    np.testing.assert_allclose(
        rec.trajectory(2, 1)[2], (0.0, 0.0, -math.cos(ALPHA)), atol=1e-15
    )


@pytest.mark.parametrize("alpha", [ALPHA, 1.0, math.pi / 2])
@pytest.mark.parametrize("num", [1, 2, 3, 4])
def test_recursion_matches_engine(num, alpha):
    cfg = MachineConfig.uniform(num, alpha, steps=300)
    expected = engine_run(cfg).bloch
    got = HeadRecursion(alpha).trajectory(300, num)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_trajectory_equals_pointwise_queries():
    # a long trajectory holds, bit for bit, the last point of every
    # shorter one, whether asked of the same instance or a fresh one
    rec = HeadRecursion(1.3)
    traj = rec.trajectory(60, 3)
    for m in (0, 1, 7, 33, 60):
        np.testing.assert_array_equal(traj[m], rec.trajectory(m, 3)[-1])
        np.testing.assert_array_equal(traj[m],
                                      HeadRecursion(1.3).trajectory(m, 3)[-1])


def test_query_order_does_not_matter():
    a = HeadRecursion(ALPHA)
    b = HeadRecursion(ALPHA)
    far = a.trajectory(500, 4)
    a_near = a.trajectory(17, 4)
    b_near = b.trajectory(17, 4)
    np.testing.assert_array_equal(a_near, b_near)
    np.testing.assert_array_equal(far, b.trajectory(500, 4))


def test_points_stay_inside_the_disc():
    rec = HeadRecursion(ALPHA)
    traj = rec.trajectory(2000, 5)
    assert float((traj[:, 1] ** 2 + traj[:, 2] ** 2).max()) <= 1.0 + 1e-9


def test_internal_tables_follow_the_size_chain():
    rec = HeadRecursion(ALPHA)
    rec.trajectory(2000, 6)
    assert set(rec._tables) == {6, 4, 2}


@pytest.mark.parametrize("steps, num", [(10, 0), (10, -2), (-1, 2)])
def test_trajectory_refuses_bad_arguments(steps, num):
    with pytest.raises(ConfigurationError):
        HeadRecursion(1.0).trajectory(steps, num)


class TestRunAdapter:
    def test_zeros_tape(self):
        cfg = MachineConfig.uniform(3, ALPHA, steps=120)
        np.testing.assert_allclose(
            recursion_mod.run(cfg).bloch, engine_run(cfg).bloch, atol=1e-9
        )

    def test_any_computational_tape_accepted(self):
        ref = recursion_mod.run(MachineConfig.uniform(3, ALPHA, steps=50)).bloch
        cfg = MachineConfig.uniform(3, ALPHA, initial="011", steps=50)
        np.testing.assert_array_equal(recursion_mod.run(cfg).bloch, ref)

    def test_head_down_negates(self):
        up = MachineConfig.uniform(2, ALPHA, phi0=0.0, steps=40)
        down = MachineConfig.uniform(2, ALPHA, phi0=math.pi, steps=40)
        np.testing.assert_array_equal(
            recursion_mod.run(down).bloch, -recursion_mod.run(up).bloch
        )
        np.testing.assert_allclose(
            recursion_mod.run(down).bloch, engine_run(down).bloch, atol=1e-9
        )

    def test_rejects_tilted_head(self):
        with pytest.raises(ConfigurationError):
            recursion_mod.run(MachineConfig.uniform(2, 1.0, phi0=0.5, steps=10))

    def test_rejects_sign_tapes(self):
        cfg = MachineConfig.uniform(2, 1.0, initial="+-", steps=10)
        with pytest.raises(ConfigurationError):
            recursion_mod.run(cfg)

    def test_rejects_signed_flip_variant(self):
        cfg = MachineConfig.uniform(2, 1.0, variant="iy", steps=10)
        with pytest.raises(ConfigurationError):
            recursion_mod.run(cfg)


class TestSingleSpinClosedForm:
    def test_aperiodic_walks_half_speed(self):
        b = m1_closed_form("aperiodic", 3, 0.2, ALPHA)
        phi = 0.2 + 2 * ALPHA
        np.testing.assert_allclose(b, (0.0, math.sin(phi), -math.cos(phi)),
                                   atol=1e-15)

    def test_periodic_four_cycle(self):
        b = m1_closed_form("periodic", 3, 0.2, ALPHA)
        np.testing.assert_allclose(b, (0.0, -math.sin(0.2), -math.cos(0.2)),
                                   atol=1e-15)
        assert m1_closed_form("periodic", 4, 0.2, ALPHA) == m1_closed_form(
            "periodic", 0, 0.2, ALPHA
        )

    @pytest.mark.parametrize("kind,pattern", [("aperiodic", "+"),
                                              ("periodic", "-")])
    def test_matches_primitive_evolution(self, kind, pattern):
        traj = run_primitive(pattern, 0.45, ALPHA, 12)
        for m in range(13):
            np.testing.assert_allclose(
                np.asarray(m1_closed_form(kind, m, 0.45, ALPHA)),
                traj.bloch[m],
                atol=1e-12,
            )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            m1_closed_form("chaotic", 1, 0.0, 1.0)

    def test_rejects_negative_step(self):
        with pytest.raises(ConfigurationError):
            m1_closed_form("periodic", -1, 0.0, 1.0)
