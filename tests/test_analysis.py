"""Circle families, spectra, and distinct-point censuses of trajectories.

The analytic circle centers used below come from the primitive angle
picture: a primitive visits angles +-phi0 + k*alpha, and a weighted pair of
reflected primitives draws a circle centered on the weighted midpoint. For
one or two tape spins the resulting center lists are short enough to write
down exactly.
"""

import math

import numpy as np
import pytest

import helpers
from helpers import distinct_points
from qtm import (
    CircleFitError,
    ConfigurationError,
    HeadRecursion,
    MachineConfig,
    Trajectory,
    fit_invariant_circles,
    run,
    spectrum,
    superpose,
)
from qtm.primitives import _classes, decompose, run_primitive

ALPHA = helpers.ALPHA


def u(phi):
    return np.array([math.sin(phi), -math.cos(phi)])


def assert_center_sets_match(fitted, expected, tol=1e-9):
    fitted = np.asarray(fitted)
    expected = np.asarray(expected)
    assert len(fitted) == len(expected)
    d = np.linalg.norm(fitted[:, None, :] - expected[None, :, :], axis=2)
    assert float(d.min(axis=0).max()) <= tol
    assert float(d.min(axis=1).max()) <= tol


def single_spin_centers(phi0):
    """Circle centers of the one-tape-spin machine, with mirror images."""
    raw = [0.5 * u(phi0), 0.5 * u(phi0 + ALPHA)]
    centers = []
    for c in raw:
        centers.append(c)
        mirror = np.array([-c[0], c[1]])
        if abs(c[0]) > 1e-12:
            centers.append(mirror)
    return centers


class TestCircleFits:
    def test_single_spin_symmetric_start(self):
        traj = run(MachineConfig(1, ALPHA, phi0=0.0, steps=3000))
        circles = fit_invariant_circles(traj, max_circles=4)
        assert len(circles) == 3
        assert circles.radius == pytest.approx(0.5, abs=1e-9)
        assert circles.residual <= 1e-9
        # phi0 = 0 makes one center its own mirror image, so two of the
        # four step-residue clusters land on the same circle
        assert max(len(r) for r in circles.residues) >= 2
        assert_center_sets_match(circles.centers, single_spin_centers(0.0))

    def test_single_spin_tilted_start(self):
        traj = run(MachineConfig(1, ALPHA, phi0=math.pi / 6, steps=3000))
        circles = fit_invariant_circles(traj, max_circles=4)
        assert len(circles) == 4
        assert circles.radius == pytest.approx(0.5, abs=1e-9)
        assert_center_sets_match(circles.centers, single_spin_centers(math.pi / 6))

    def test_two_spin_symmetric_start(self):
        traj = run(MachineConfig(2, ALPHA, phi0=0.0, steps=3000))
        circles = fit_invariant_circles(traj, max_circles=8)
        assert len(circles) == 7
        assert circles.radius == pytest.approx(0.25, abs=1e-9)
        s, c = math.sin(ALPHA), math.cos(ALPHA)
        s2, c2 = math.sin(2 * ALPHA), math.cos(2 * ALPHA)
        expected = [
            (0.0, -0.75),
            (0.75 * s, -0.75 * c), (-0.75 * s, -0.75 * c),
            (0.25 * s, -0.75 * c), (-0.25 * s, -0.75 * c),
            (0.25 * s2, -0.25 * (c2 + 2)), (-0.25 * s2, -0.25 * (c2 + 2)),
        ]
        assert_center_sets_match(circles.centers, expected)

    def test_two_spin_tilted_start_golden(self):
        traj = run(MachineConfig(2, ALPHA, phi0=math.pi / 6, steps=3000))
        circles = fit_invariant_circles(traj, max_circles=8)
        assert len(circles) == 8
        assert circles.radius == pytest.approx(0.25, abs=1e-6)
        expected = [
            (0.375, -0.649519052838329),
            (0.540204088240960, 0.520268721957935),
            (-0.180068029413655, 0.520268721957935),
            (-0.461655403499899, -0.299963875631732),
            (0.211655403499903, -0.299963875631732),
            (0.240222658043507, 0.277613780416657),
            (-0.600358716870823, 0.277613780416657),
            (-0.125, -0.649519052838336),
        ]
        assert_center_sets_match(circles.centers, expected, tol=1e-6)

    def test_frozen_machine_collapses_to_a_point(self):
        traj = run(MachineConfig(2, 0.0, steps=200))
        circles = fit_invariant_circles(traj, max_circles=8)
        assert len(circles) == 1
        assert circles.radius == pytest.approx(0.0, abs=1e-12)

    def test_three_spins_break_the_circle_picture(self):
        traj = run(MachineConfig(3, ALPHA, steps=2000))
        with pytest.raises(CircleFitError) as info:
            fit_invariant_circles(traj, max_circles=16)
        err = info.value
        assert err.residual is not None and err.residual > 1e-3
        assert err.worst and len(err.worst) <= 3

    def test_refused_fit_lists_its_worst_steps_in_step_order(self):
        # four circles, one per residue of the step modulo 4, each with one
        # point pushed out by 1e-4: the three misses tie to 1e-9, largest
        # at step 42, and are listed by step, not by residual
        centers = np.array([(-0.3, -0.3), (0.3, -0.3), (-0.3, 0.3),
                            (0.3, 0.3)])
        m = np.arange(200)
        angle = 2 * np.pi * (m // 4) / 50 + 0.1 * (m % 4)
        radius = np.full(m.size, 0.2)
        radius[[9, 42, 103]] += 1e-4 * np.array([1 - 1e-9, 1 + 1e-9, 1])
        bloch = np.zeros((m.size, 3))
        bloch[:, 1:] = centers[m % 4] + radius[:, None] * np.stack(
            [np.cos(angle), np.sin(angle)], axis=1)
        with pytest.raises(CircleFitError,
                           match=r"steps \[9, 42, 103\]") as info:
            fit_invariant_circles(Trajectory(bloch, 1), max_circles=4)
        worst = info.value.worst
        assert [step for step, _, _ in worst] == [9, 42, 103]
        errs = [err for _, err, _ in worst]
        assert max(errs) == errs[1] and max(errs) - min(errs) < 1e-12

    def test_circle_budget_enforced(self):
        traj = run(MachineConfig(1, ALPHA, phi0=math.pi / 6, steps=800))
        with pytest.raises(CircleFitError) as info:
            fit_invariant_circles(traj, max_circles=2)
        assert info.value.num_circles == 4

    def test_out_of_plane_trajectory_rejected(self):
        bloch = np.zeros((10, 3))
        bloch[:, 0] = 0.01
        bloch[:, 2] = -1.0
        with pytest.raises(ConfigurationError):
            fit_invariant_circles(Trajectory(bloch, 1), max_circles=4)


class TestInvariantResidual:
    def test_scores_distance_to_the_nearest_circle(self):
        traj = run(MachineConfig(1, ALPHA, phi0=0.3, steps=1000))
        circles = fit_invariant_circles(traj, max_circles=4)
        probe = np.array([0.05, -0.2])
        expected = min(
            abs(np.hypot(*(probe - c)) - circles.radius)
            for c in circles.centers
        )
        assert helpers.invariant_residual(
            circles, (0.0, probe[0], probe[1])
        ) == pytest.approx(expected, abs=1e-12)

    def test_fitted_points_lie_on_the_family(self):
        traj = run(MachineConfig(2, ALPHA, phi0=0.3, steps=2000))
        circles = fit_invariant_circles(traj, max_circles=8)
        for m in range(0, 2001, 97):
            assert helpers.invariant_residual(circles, traj.bloch[m]) <= 1e-6

    def test_unseen_points_lie_on_the_family(self):
        # circles fitted on one run must absorb the points of a longer run:
        # the family is invariant, not an artifact of the fit window
        short = run(MachineConfig(2, ALPHA, phi0=0.3, steps=1500))
        circles = fit_invariant_circles(short, max_circles=8)
        longer = run(MachineConfig(2, ALPHA, phi0=0.3, steps=4000))
        for m in range(1501, 4001, 53):
            assert helpers.invariant_residual(circles, longer.bloch[m]) <= 1e-6

    def test_rejects_out_of_plane_point(self):
        traj = run(MachineConfig(1, ALPHA, steps=400))
        circles = fit_invariant_circles(traj, max_circles=4)
        with pytest.raises(ConfigurationError):
            helpers.invariant_residual(circles, (0.3, 0.0, -1.0))


class TestSpectrum:
    def test_constant_signal_is_pure_dc(self):
        bloch = np.zeros((64, 3))
        bloch[:, 2] = -1.0
        spec = spectrum(Trajectory(bloch, 1))
        assert spec.magnitude_z[0] == pytest.approx(8.0, abs=1e-12)
        assert float(np.abs(spec.magnitude_z[1:]).max()) <= 1e-12
        assert float(np.abs(spec.magnitude_y).max()) <= 1e-12

    def test_period_four_orbit_uses_quarter_bins(self):
        traj = run_primitive("-", 0.3, ALPHA, 399)  # 400 samples
        spec = spectrum(traj)
        n = len(traj)
        off_bins = [k for k in range(n) if k % (n // 4)]
        assert float(spec.magnitude_y[off_bins].max()) <= 1e-9
        assert float(spec.magnitude_z[off_bins].max()) <= 1e-9
        assert float(spec.magnitude_y.max()) > 0.1

    def test_parseval(self):
        rng = np.random.default_rng(11)
        bloch = np.zeros((1024, 3))
        bloch[:, 1] = rng.normal(size=1024)
        bloch[:, 2] = rng.normal(size=1024)
        spec = spectrum(Trajectory(bloch, 1))
        assert float((spec.magnitude_y ** 2).sum()) == pytest.approx(
            float((bloch[:, 1] ** 2).sum()), rel=1e-9
        )
        assert float((spec.magnitude_z ** 2).sum()) == pytest.approx(
            float((bloch[:, 2] ** 2).sum()), rel=1e-9
        )

    def test_drifting_orbit_peaks_at_the_rotation_rate(self):
        # the '+' tape adds alpha to the head angle every other step, so
        # the y signal oscillates at alpha/(4 pi) cycles per step
        traj = run_primitive("+", 0.0, ALPHA, 2047)  # 2048 samples
        spec = spectrum(traj)
        pos = spec.frequencies > 0
        peak = np.argmax(np.where(pos, spec.magnitude_y, 0.0))
        assert abs(spec.frequencies[peak] - ALPHA / (4 * math.pi)) <= 1.0 / len(traj)

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            spectrum(Trajectory(np.zeros((1, 3)), 1))

    @pytest.mark.parametrize("num", [2, 3, 4, 5, 8])
    def test_largest_peaks_sit_on_the_lines_of_the_classes(self, num):
        # a class with S = +1 and K != 0 turns its cycle starts by K*alpha
        # per cycle of 2M steps, and each of its steps is a fixed map of
        # them, so it draws lines at (+-|K|*alpha/(2*pi) + j)/(2M) mod 1;
        # the closed classes repeat every two cycles, lines at j/(4M)
        steps = 4095
        bloch = HeadRecursion(ALPHA).trajectory(steps, num)
        spec = spectrum(Trajectory(bloch, num))
        big_s, big_k, _ = _classes(decompose("0" * num), num, 0.0, ALPHA,
                                   steps)
        drift = np.unique(np.abs(big_k[(big_s > 0) & (big_k != 0)]))
        turns = drift * ALPHA / (2 * math.pi)
        j = np.arange(2 * num)
        lines = np.concatenate([(j + t) / (2 * num) for t in [*turns, *-turns]]
                               + [np.arange(4 * num) / (4 * num)])
        mag = spec.magnitude_y
        peaks = np.flatnonzero((mag > np.roll(mag, 1))
                               & (mag >= np.roll(mag, -1)))
        top = spec.frequencies[peaks[np.argsort(mag[peaks])[-8:]]]
        miss = np.abs((top[:, None] - lines + 0.5) % 1 - 0.5).min(axis=1)
        assert len(top) == 8
        assert float(miss.max()) * (steps + 1) <= 0.5


class TestDistinctPoints:
    def test_four_point_orbit(self):
        traj = run_primitive("-", 0.3, ALPHA, 400)
        ps = distinct_points(traj)
        assert len(ps.points) == 4
        assert int(ps.counts.sum()) == 401

    def test_frozen_machine_is_one_point(self):
        traj = run_primitive("+", 0.2, 0.0, 50)
        ps = distinct_points(traj)
        assert len(ps.points) == 1 and ps.counts[0] == 51

    def test_periodic_superposition_point_count_saturates(self):
        # equal weights on the four periodic three-spin patterns: a finite
        # orbit whose distinct-point census stops growing once closed
        w = np.array([0, 0.25, 0.25, 0, 0.25, 0, 0, 0.25])
        early = distinct_points(superpose(w, 0.0, ALPHA, 100))
        late = distinct_points(superpose(w, 0.0, ALPHA, 3000))
        assert len(early.points) == len(late.points) == 9
        np.testing.assert_allclose(early.points, late.points, atol=1e-9)
        assert int(late.counts.sum()) == 3001
