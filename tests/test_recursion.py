"""Closed-form recursion against the state-vector engine, plus the exact
single-tape-spin formulas."""

import math
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import m1_closed_form
from qtm import ConfigurationError, HeadRecursion, MachineConfig
from qtm import recursion as recursion_mod
from qtm import state
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
    cfg = MachineConfig(num, alpha, steps=300)
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
    # one instance asked for sizes and horizons in turn, shorter and
    # longer, sharing lower tables that the earlier queries filled only
    # as far as they read them, against a fresh instance per query
    for num, steps in ((8, 500), (6, 20000), (8, 20000), (4, 3), (8, 17),
                       (7, 999), (5, 301), (5, 30000), (3, 20000), (6, 7),
                       (2, 30001), (8, 20001)):
        assert (a.trajectory(steps, num).tobytes()
                == HeadRecursion(ALPHA).trajectory(steps, num).tobytes())


@pytest.mark.parametrize("alpha", [ALPHA, 0.7, -2.5, -0.0])
@pytest.mark.parametrize("num", range(1, 9))
def test_cycle_walk_equals_the_step_by_step_table(num, alpha):
    # the tables are filled a cycle at a time: the bits of a step-by-step
    # fill, for one table extended from inside a cycle, from a cycle's
    # end and past a shorter query, and for a fresh one
    rec, ref = HeadRecursion(alpha), helpers.StepwiseRecursion(alpha)
    for steps in (0, 2 * num + 3, 3 * num + 3, 4 * num, 7, 3000):
        assert (rec.trajectory(steps, num).tobytes()
                == ref.trajectory(steps, num).tobytes())
    assert (HeadRecursion(alpha).trajectory(3000, num).tobytes()
            == ref.trajectory(3000, num).tobytes())


def test_points_stay_inside_the_disc():
    rec = HeadRecursion(ALPHA)
    traj = rec.trajectory(2000, 5)
    assert float((traj[:, 1] ** 2 + traj[:, 2] ** 2).max()) <= 1.0 + 1e-9


def test_internal_tables_follow_the_size_chain():
    rec = HeadRecursion(ALPHA)
    rec.trajectory(2000, 6)
    assert set(rec._tables) == {6, 4, 2}


@pytest.mark.parametrize("num, steps, rows", [
    # size M to steps; cycle p of size s reads size s-2 up to row p (2s - 4),
    # the last p being (steps - 2) // 2s + 1
    (8, 20000, {8: 20001, 6: 15001, 4: 10001, 2: 5001}),
    (3, 20000, {3: 20001, 1: 6669}),
    (5, 300000, {5: 300001, 3: 180001, 1: 60001}),
    (7, 13, {7: 14, 5: 11, 3: 7, 1: 3}),
    # the last cycle is read in full, past the steps asked for
    (4, 3, {4: 4, 2: 5}),
    (2, 7, {2: 8}),
    # the seeds of steps 0 and 1 are always there
    (6, 0, {6: 2, 4: 2, 2: 2})])
def test_lower_tables_end_where_the_size_above_reads(num, steps, rows):
    rec = HeadRecursion(ALPHA)
    rec.trajectory(steps, num)
    assert {size: len(ys) for size, (ys, _) in rec._tables.items()} == rows


def test_memory_estimate_counts_the_rows_the_tables_keep(monkeypatch):
    # at M=8 over 20,000 steps the tables keep 50,004 rows, not the 80,004
    # of four tables run to the last step: a budget between the traced
    # peak (1.32 MB) and the estimate of full tables, 17 bytes per step
    # and table plus 24 for the trajectory (1.84 MB), is accepted, and the
    # estimate lies between the two
    needs, check_fits = [], recursion_mod.check_fits
    budget = 1400 << 10
    assert budget < (17 * 4 + 24) * 20001
    monkeypatch.setattr(recursion_mod, "check_fits", lambda need, what: (
        needs.append(need), check_fits(need, what)))
    monkeypatch.setattr(state, "_read_meminfo",
                        lambda: f"MemAvailable: {budget >> 10} kB\n")
    HeadRecursion(ALPHA).trajectory(10, 8)
    tracemalloc.start()
    try:
        HeadRecursion(ALPHA).trajectory(20000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[-1] <= budget


@pytest.mark.parametrize("steps, num", [(10, 0), (10, -2), (-1, 2)])
def test_trajectory_refuses_bad_arguments(steps, num):
    with pytest.raises(ConfigurationError):
        HeadRecursion(1.0).trajectory(steps, num)


class TestRunAdapter:
    def test_zeros_tape(self):
        cfg = MachineConfig(3, ALPHA, steps=120)
        np.testing.assert_allclose(
            recursion_mod.run(cfg).bloch, engine_run(cfg).bloch, atol=1e-9
        )

    def test_any_computational_tape_accepted(self):
        ref = recursion_mod.run(MachineConfig(3, ALPHA, steps=50)).bloch
        cfg = MachineConfig(3, ALPHA, initial="011", steps=50)
        np.testing.assert_array_equal(recursion_mod.run(cfg).bloch, ref)

    def test_head_down_negates(self):
        up = MachineConfig(2, ALPHA, phi0=0.0, steps=40)
        down = MachineConfig(2, ALPHA, phi0=math.pi, steps=40)
        np.testing.assert_array_equal(
            recursion_mod.run(down).bloch, -recursion_mod.run(up).bloch
        )
        np.testing.assert_allclose(
            recursion_mod.run(down).bloch, engine_run(down).bloch, atol=1e-9
        )

    def test_rejects_tilted_head(self):
        with pytest.raises(ConfigurationError):
            recursion_mod.run(MachineConfig(2, 1.0, phi0=0.5, steps=10))

    def test_rejects_sign_tapes(self):
        cfg = MachineConfig(2, 1.0, initial="+-", steps=10)
        with pytest.raises(ConfigurationError):
            recursion_mod.run(cfg)

    def test_rejects_signed_flip_variant(self):
        cfg = MachineConfig(2, 1.0, variant="iy", steps=10)
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
