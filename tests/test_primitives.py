"""Sign-pattern angle dynamics: single primitives against the full engine,
the periodicity classifier against brute-force period detection, and the
decompose/superpose round trip."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qtm import (
    ConfigurationError,
    HeadRecursion,
    MachineConfig,
    all_patterns,
    classify,
    decompose,
    detect_period_numeric,
    evolve_angles,
    period_census,
    primitives,
    recursion,
    run,
    run_mixed,
    run_primitive,
    superpose,
)
from qtm.gates import apply_head_rotation, apply_qcnot
from qtm.state import head_bloch, make_state, purity

ALPHA = helpers.ALPHA


def test_pattern_normalization_accepts_unicode_minus():
    assert primitives.normalize_pattern("−+") == "-+"
    with pytest.raises(ConfigurationError):
        primitives.normalize_pattern("+0")
    with pytest.raises(ConfigurationError):
        primitives.normalize_pattern("")


def test_all_patterns_order():
    assert all_patterns(1) == ["+", "-"]
    assert all_patterns(2) == ["++", "+-", "-+", "--"]
    assert len(all_patterns(5)) == 32


@pytest.mark.parametrize("num", [1, 2, 3])
def test_primitive_matches_engine_exhaustive(num):
    for pattern in all_patterns(num):
        cfg = MachineConfig.uniform(num, ALPHA, phi0=0.4, initial=pattern,
                                    steps=100)
        np.testing.assert_allclose(
            run_primitive(pattern, 0.4, ALPHA, 100).bloch,
            run(cfg).bloch,
            atol=1e-10,
            err_msg=pattern,
        )


@pytest.mark.parametrize("num", [4, 6])
def test_primitive_matches_engine_sampled(num):
    rng = np.random.default_rng(num)
    pats = rng.choice(all_patterns(num), size=5, replace=False)
    for pattern in pats:
        cfg = MachineConfig.uniform(num, 1.0, phi0=0.0, initial=str(pattern),
                                    steps=120)
        np.testing.assert_allclose(
            run_primitive(str(pattern), 0.0, 1.0, 120).bloch,
            run(cfg).bloch,
            atol=1e-10,
        )


def test_head_stays_pure_on_sign_tape():
    # the controlled flip acting on a sign-basis tape never entangles, so
    # the head purity must stay at 1 through the whole run
    state = make_state(0.7, "-+")
    for m in range(1, 41):
        n = (m - 1) % 4 + 1
        if n % 2:
            apply_head_rotation(state, ALPHA)
        else:
            apply_qcnot(state, n // 2, "x")
        assert purity(head_bloch(state)) == pytest.approx(1.0, abs=1e-12)


def test_evolve_angles_batch_equals_singles():
    pats = all_patterns(3)
    batch = evolve_angles(pats, 0.2, ALPHA, 60)
    for row, pattern in enumerate(pats):
        single = evolve_angles([pattern], 0.2, ALPHA, 60)[0]
        np.testing.assert_array_equal(batch[row], single)


def test_evolve_angles_rejects_ragged_batch():
    with pytest.raises(ConfigurationError):
        evolve_angles(["+", "++"], 0.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        evolve_angles([], 0.0, 1.0, 5)


def test_evolve_angles_rejects_negative_steps():
    with pytest.raises(ConfigurationError):
        evolve_angles(["-+"], 0.0, 1.0, -2)


@pytest.mark.parametrize("num", [*range(1, 7), 130, 200])
def test_evolve_angles_is_the_integer_step_loop(num):
    # every angle is sigma*phi0 + kappa*alpha for the exact integers of
    # the step rules, bit for bit; 0 steps, one step, runs that stop
    # mid-cycle and several whole cycles. Past 6 spins: all '+', all '-'
    # and alternating; all '+' has offsets past 127, where int8 would wrap
    pats = all_patterns(num) if num <= 6 else [
        "+" * num, "-" * num, ("+-" * num)[:num]]
    cycle = 2 * num
    for steps in (0, 1, cycle - 1, cycle, 3 * cycle + 3):
        for phi0, alpha in ((1.234, ALPHA), (0.0, 1.0)):
            got = evolve_angles(pats, phi0, alpha, steps)
            assert got.shape == (len(pats), steps + 1)
            for row, pattern in enumerate(pats):
                sigma, kappa = helpers.integer_angles(pattern, steps)
                np.testing.assert_array_equal(
                    got[row], sigma * phi0 + kappa * alpha, err_msg=pattern)


@settings(max_examples=300, deadline=None)
@given(pattern=st.text("+-", min_size=1, max_size=9),
       steps=st.integers(0, 80),
       phi0=st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, math.pi]),
       alpha=st.floats(-1e300, 1e300) | st.sampled_from([0.0, 1.0, ALPHA]))
def test_an_angle_is_a_function_of_its_integer_key(pattern, steps, phi0,
                                                    alpha):
    # the period census matches steps to step 0 by the code
    # 2*kappa + (tot < 0) alone: every angle is fl(kappa*alpha) +
    # tot*phi0 (+0.0 at phi0 = 0) for the integers (tot, kappa) of the
    # step loop, bit for bit, and _angles rebuilds it from the code
    tot, kappa = helpers.integer_angles(pattern, steps)
    got = evolve_angles([pattern], phi0, alpha, steps)[0]
    expected = kappa * alpha + (tot * phi0 if phi0 else 0.0)
    assert got.tobytes() == expected.tobytes()
    code = 2 * kappa + (tot < 0)
    rebuilt = primitives._angles(1 - 2 * (code & 1), code // 2, phi0, alpha)
    assert rebuilt.tobytes() == expected.tobytes()


@pytest.mark.parametrize("num", range(1, 11))
def test_cycle_map_agrees_with_classify(num):
    # one cycle maps phi -> S*phi + K*alpha. The classifier's gap rule says
    # periodic exactly when S = -1 or K = 0, and K is the signed gap sum:
    # (-1)**q * (even-index gaps - odd-index gaps + q mod 2)
    pats = all_patterns(num)
    signs = np.array([[-1 if ch == "-" else 1 for ch in p] for p in pats])
    sign, offset = primitives._cycle_table(signs)
    assert sign.shape == offset.shape == (len(pats), 2 * num + 1)
    for p, big_s, big_k in zip(pats, sign[:, -1], offset[:, -1]):
        cls = classify(p)
        assert big_s == (-1) ** cls.q, p
        assert big_k == (-1) ** cls.q * (
            sum(cls.gaps[0::2]) - sum(cls.gaps[1::2]) + cls.q % 2), p
        assert cls.periodic == (big_s == -1 or big_k == 0), p


@pytest.mark.parametrize("num", [1, 2, 3])
def test_angle_guard_takes_the_largest_kappa_of_the_run(num):
    # the run of steps 0..steps is refused on the largest |kappa| of the
    # step rules over those steps, no more: alpha = max/(top + 1/2) holds
    # top*alpha and passes, and the message of a refused run names top
    big = np.finfo(float).max
    for pattern in all_patterns(num):
        signs = primitives._pattern_signs([pattern])
        for steps in range(1, 4 * 2 * num + 2):
            top = int(np.abs(helpers.integer_angles(pattern, steps)[1]).max())
            primitives._run_table(signs, -0.5, big / (top + 0.5), steps)
            if top > 1:
                with pytest.raises(ConfigurationError,
                                   match=rf"\+ {top}\*\|alpha\|, which"):
                    primitives._run_table(signs, 0.0, big, steps)


def test_cycle_table_peaks_under_three_offsets():
    # the spin signs stay int8 through the sign table, and the offsets are
    # one int64 repeat and its float64 copy: all 2**14 patterns of M=14
    # peak under three times the bytes of the float64 offset table
    index = np.arange(2 ** 14)
    tracemalloc.start()
    try:
        sign, offset = primitives._cycle_table(primitives._signs(index, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sign.dtype == np.int8 and offset.flags.c_contiguous
    assert peak <= 3 * offset.nbytes


@settings(max_examples=500, deadline=None)
@given(pattern=st.text("+-", min_size=1, max_size=24))
def test_classify_is_the_gap_rule_of_its_docstring(pattern):
    # the rule as classify's docstring states it, on the pattern's text:
    # plus-runs n_0..n_q around the q minus signs, periodic when q is odd
    # or the even-index runs sum to (M - q)/2
    gaps = tuple(len(plus) for plus in pattern.split("-"))
    q = len(gaps) - 1
    periodic = q % 2 == 1 or 2 * sum(gaps[0::2]) == len(pattern) - q
    cls = classify(pattern)
    assert (cls.q, cls.gaps, cls.periodic) == (q, gaps, periodic)
    assert cls.kind == (primitives.PERIODIC if periodic
                        else primitives.APERIODIC)
    assert all(type(n) is int for n in (cls.q, *cls.gaps))


@pytest.mark.parametrize("num", [1, 5, 12])
def test_gap_rule_rows_are_classify_rows(num):
    # the census's rule over canonical sign rows, one call, equals
    # classify pattern by pattern; gaps are uint8, 0 past gap q
    pats = all_patterns(num)
    q, gaps, periodic = primitives.gap_rule(
        primitives._signs(np.arange(len(pats)), num))
    assert gaps.dtype == np.uint8 and gaps.shape == (len(pats), num + 1)
    for row, p in enumerate(pats):
        cls = classify(p)
        assert (q[row], periodic[row]) == (cls.q, cls.periodic), p
        assert gaps[row].tolist() == [*cls.gaps] + [0] * (num - cls.q), p


class TestClassifier:
    def test_single_spin(self):
        assert not classify("+").periodic
        assert classify("-").periodic

    def test_two_spins(self):
        kinds = {p: classify(p).periodic for p in all_patterns(2)}
        assert kinds == {"++": False, "+-": True, "-+": True, "--": True}

    def test_three_spin_periodic_set(self):
        periodic = {p for p in all_patterns(3) if classify(p).periodic}
        assert periodic == {"-++", "+-+", "++-", "---"}

    def test_gap_bookkeeping(self):
        cls = classify("++-+-")
        assert cls.q == 2 and cls.gaps == (2, 1, 0)
        # gaps past a byte take a wider type
        assert classify("+" * 300).gaps == (300,)
        assert classify("+" * 256 + "-+").gaps == (256, 1)
        for num in range(1, 7):
            for p in all_patterns(num):
                c = classify(p)
                assert sum(c.gaps) + c.q == num

    @pytest.mark.parametrize("num", range(1, 9))
    def test_all_plus_is_aperiodic(self, num):
        assert not classify("+" * num).periodic

    def test_cycle_map_backs_the_classification(self):
        # one cycle acts on the head angle as phi -> (-1)**q phi + c; for
        # even q the classifier checks c == 0, for odd q it relies on two
        # cycles composing to the identity. Verify both claims against the
        # evolved angles.
        for num in range(1, 6):
            for phi0 in (0.0, 0.37):
                pats = all_patterns(num)
                phis = evolve_angles(pats, phi0, ALPHA, 4 * num)
                for row, p in enumerate(pats):
                    cls = classify(p)
                    if cls.q % 2:
                        assert phis[row, 4 * num] == pytest.approx(
                            phi0, abs=1e-12
                        ), p
                    else:
                        shift = ALPHA * (2 * sum(cls.gaps[0::2]) - (num - cls.q))
                        assert phis[row, 2 * num] - phi0 == pytest.approx(
                            shift, abs=1e-12
                        ), p
                        assert cls.periodic == (
                            2 * sum(cls.gaps[0::2]) == num - cls.q
                        )


class TestPeriodDetection:
    @pytest.mark.parametrize("alpha", [ALPHA, 1.0, math.pi / 2])
    def test_single_minus_has_period_four(self, alpha):
        assert detect_period_numeric("-", 0.3, alpha, 10) == 4

    def test_all_plus_closes_only_at_special_angles(self):
        assert detect_period_numeric("+", 0.0, math.pi / 2, 10) == 8
        assert detect_period_numeric("+", 0.3, ALPHA, 10_000) is None

    def test_reflection_revisit_is_not_a_period(self):
        # "--+" revisits its starting angle early, but the orbit drifts; a
        # single-point match must not be reported as a period
        assert not classify("--+").periodic
        assert detect_period_numeric("--+", 0.3, ALPHA, 100) is None

    def test_needs_two_cycles(self):
        with pytest.raises(ConfigurationError):
            detect_period_numeric("-", 0.3, ALPHA, 1)
        for max_cycles in (1, 0, -3):
            with pytest.raises(ConfigurationError):
                period_census(2, 0.3, ALPHA, max_cycles)

    def test_census_matches_per_pattern_calls(self):
        for alpha in (ALPHA, 1.0):
            census = period_census(3, 0.3, alpha, 50)
            assert list(census) == all_patterns(3)
            for p, period in census.items():
                assert period == detect_period_numeric(p, 0.3, alpha, 50)

    @pytest.mark.parametrize(
        "num,periodic_count", [(1, 1), (2, 3), (3, 4), (4, 11), (5, 16), (6, 42)]
    )
    def test_census_counts(self, num, periodic_count):
        census = period_census(num, 0.3, ALPHA, 12)
        found = sum(1 for v in census.values() if v is not None)
        assert found == periodic_count
        for p, period in census.items():
            assert classify(p).periodic == (period is not None), p
            if period is not None:
                assert period <= 4 * num

    def test_periods_do_not_depend_on_generic_alpha(self):
        for num in range(1, 5):
            a = period_census(num, 0.3, ALPHA, 12)
            b = period_census(num, 0.3, 1.0, 12)
            assert a == b

    @pytest.mark.parametrize("factor,period", [(1.01, 8), (0.99, None)])
    def test_tolerance_is_the_chord_length(self, factor, period):
        # '+' at alpha = pi/2 + eps misses closing after 8 steps by an
        # angle of 4*eps, a chord of 2*sin(2*eps); tol just above that
        # chord finds the period, tol just below does not
        eps = 1e-10
        chord = 2 * math.sin(2 * eps)
        alpha = math.pi / 2 + eps
        tol = factor * chord
        assert detect_period_numeric("+", 0.0, alpha, 10, tol) == period
        phis = evolve_angles(["+"], 0.0, alpha, 22)[0]
        assert helpers.exp_find_period(phis, 2, 20, tol) == period

    @pytest.mark.parametrize("alpha", [ALPHA, 1.0, math.pi / 2,
                                       2 * math.pi / 3])
    @pytest.mark.parametrize("phi0", [0.0, 0.3, math.pi])
    def test_census_equals_the_chord_finder(self, alpha, phi0):
        # wrapped angle differences against chords between exp(1j*phi):
        # reflection revisits, closures at special alphas, phi0 at 0 and pi
        max_cycles = 12
        for num in range(1, 8):
            cycle = 2 * num
            horizon = cycle * max_cycles
            pats = all_patterns(num)
            phis = evolve_angles(pats, phi0, alpha, horizon + cycle)
            expected = {p: helpers.exp_find_period(phis[row], cycle, horizon,
                                                   1e-9)
                        for row, p in enumerate(pats)}
            assert period_census(num, phi0, alpha, max_cycles) == expected


class TestCensusWindows:
    """The census matches steps 1..4M a cycle at a time, solves the later
    candidates of the patterns that drift in windows of steps that double
    (one window when one check batch holds them all), and checks
    candidates CENSUS_WINDOW // (2M+1) at a time; these pin down those
    edges."""

    @pytest.mark.parametrize("max_cycles", [2, 3, 50])
    @pytest.mark.parametrize("phi0, alpha", [
        (0.3, ALPHA), (0.0, math.pi / 2), (math.pi, 1.0), (0.0, 0.0),
        (0.0, 2 * math.pi / 3), (0.0, math.pi / 50)])
    def test_one_cycle_windows_equal_the_chord_finder(self, monkeypatch,
                                                      max_cycles, phi0,
                                                      alpha):
        # CENSUS_WINDOW = 1: one pattern per batch and one candidate per
        # check, so the solved steps go through their windows one at a
        # time. alpha = 0, 2*pi/3 and pi/50 and a loose tol make most
        # steps candidates
        monkeypatch.setattr(primitives, "CENSUS_WINDOW", 1)
        for num in range(1, 8):
            cycle = 2 * num
            horizon = cycle * max_cycles
            pats = all_patterns(num)
            phis = evolve_angles(pats, phi0, alpha, horizon + cycle)
            for tol in (1e-9, 1e-3, 0.3):
                expected = {p: helpers.exp_find_period(phis[row], cycle,
                                                       horizon, tol)
                            for row, p in enumerate(pats)}
                assert period_census(num, phi0, alpha, max_cycles,
                                     tol) == expected, tol

    @pytest.mark.parametrize("window", [1, primitives.CENSUS_WINDOW])
    def test_failed_candidate_then_a_period_in_the_next_window(
            self, monkeypatch, window):
        # '+' at alpha = pi/2 is back at phi0 after step 7, but step 8 is
        # not at step 1's angle; the period is 8. Both are past step 4M,
        # solved: with CENSUS_WINDOW = 1, 7 fails in one check and 8
        # passes in the next, and by default one check holds 7, 8 and the
        # later 15 and 16, which pass too, and the smallest pass counts
        monkeypatch.setattr(primitives, "CENSUS_WINDOW", window)
        phis = evolve_angles(["+"], 0.3, math.pi / 2, 22)[0]
        chord = abs(np.exp(1j * phis) - np.exp(1j * phis[0]))
        assert chord[7] < 1e-9 and chord[8] < 1e-9
        assert abs(np.exp(1j * phis[8]) - np.exp(1j * phis[1])) > 1
        assert detect_period_numeric("+", 0.3, math.pi / 2, 10) == 8
        assert period_census(1, 0.3, math.pi / 2, 10) == {"+": 8, "-": 4}

    @pytest.mark.parametrize("pattern, k, period", [
        ("+", 189, 4), ("+", 127, 6), ("++", 95, 8), ("++", 77, 10),
        ("+++", 63, 12), ("+++", 55, 14)])
    def test_periods_either_side_of_the_solved_steps(self, pattern, k,
                                                     period):
        # drifting patterns (S = +1, K != 0) whose period at tol = 0.3 is
        # 4M, the last of the first two cycles, or 4M+2, an early solved
        # one
        alpha, cycle = 2 * math.pi * k / 397, 2 * len(pattern)
        phis = evolve_angles([pattern], 0.3, alpha, 11 * cycle)[0]
        assert helpers.exp_find_period(phis, cycle, 10 * cycle, 0.3) == period
        assert detect_period_numeric(pattern, 0.3, alpha, 10, 0.3) == period

    @pytest.mark.parametrize("window", [1, 8, primitives.CENSUS_WINDOW])
    def test_period_exactly_at_the_horizon(self, monkeypatch, window):
        # '+' at alpha = pi/2 closes after 8 steps, 4 cycles of M=1: found
        # with a horizon of 4 cycles, whose last candidate is step 8 and
        # whose check reads steps 8-10, the end of the run, and not with
        # 3. Step 8 ends the last solved window (steps 7-8 after 5-6), the
        # one window of the default, and checks of one and two candidates
        monkeypatch.setattr(primitives, "CENSUS_WINDOW", window)
        assert period_census(1, 0.0, math.pi / 2, 4)["+"] == 8
        assert period_census(1, 0.0, math.pi / 2, 3)["+"] is None
        assert detect_period_numeric("+", 0.0, math.pi / 2, 4) == 8
        assert detect_period_numeric("+", 0.0, math.pi / 2, 3) is None

    def test_census_memory_is_bounded_by_the_window(self):
        num, window = 12, primitives.CENSUS_WINDOW * 8
        batch = primitives.CENSUS_WINDOW // (4 * num)
        tracemalloc.start()
        try:
            dict(zip(all_patterns(num), [None] * 2 ** num))
            baseline = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracemalloc.start()
            period_census(num, 0.3, ALPHA, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the patterns and the result: a batch's keys and angles of
        # four cycles (CENSUS_WINDOW keys) and its sign, offset and
        # step-0..2M tables of 2M+1 columns, or a check's angles and their
        # rint; one window more covers index arrays and numpy's buffers
        tables = 3 * batch * (2 * num + 1) * 8
        assert peak <= baseline + 4 * window + tables


class TestDecompose:
    def test_computational_tapes_spread_evenly(self):
        np.testing.assert_array_equal(decompose("0"), [0.5, 0.5])
        np.testing.assert_array_equal(decompose("10"), [0.25] * 4)
        np.testing.assert_array_equal(decompose("000"), [0.125] * 8)

    def test_sign_tapes_are_one_hot(self):
        np.testing.assert_array_equal(decompose("+-"), [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(decompose("--"), [0.0, 0.0, 0.0, 1.0])

    def test_mixed_tape(self):
        np.testing.assert_allclose(decompose("0+"), [0.5, 0.0, 0.5, 0.0],
                                   atol=1e-15)

    def test_amplitude_path_matches_string_path(self):
        # tape "10": spin 1 is '1' (tape index bit 0), spin 2 is '0'
        amps = np.kron(helpers.SITE["0"], helpers.SITE["1"])
        np.testing.assert_allclose(decompose(amps), decompose("10"), atol=1e-15)
        amps = np.kron(helpers.SITE["-"], helpers.SITE["+"])
        np.testing.assert_allclose(decompose(amps), decompose("+-"), atol=1e-15)

    def test_random_tape_gives_a_distribution(self):
        rng = np.random.default_rng(7)
        amps = helpers.random_state(3, rng)
        w = decompose(amps)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_tape_holds_one_complex_copy(self):
        # the transform works on one copy of the tape, and the bit
        # reversal reorders the float weights, not the complex coefficients
        amps = helpers.random_state(18, np.random.default_rng(29))
        tracemalloc.start()
        try:
            decompose(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * amps.nbytes

    def test_bad_amplitude_length(self):
        with pytest.raises(ConfigurationError):
            decompose(np.ones(3) / math.sqrt(3))

    def test_unnormalized_tape_is_refused_like_make_state(self):
        for call in (decompose, lambda tape: make_state(0.0, tape)):
            with pytest.raises(ConfigurationError,
                               match=r"not normalized \(norm² = 4.0\)"):
                call([2, 0, 0, 0])


class TestAmplitudeTapes:
    """An explicit tape is checked one way, so every run path accepts and
    refuses the same tapes."""

    PATHS = (run, primitives.run)

    @pytest.mark.parametrize("num, size", [(3, 4), (1, 8), (2, 2)])
    def test_length_must_match_the_tape_size(self, num, size):
        tape = np.zeros(size)
        tape[0] = 1.0
        cfg = MachineConfig.uniform(num, ALPHA, initial=tape, steps=10)
        for path in self.PATHS:
            with pytest.raises(ConfigurationError,
                               match=f"length 2\\*\\*{num} \\(got {size}\\)"):
                path(cfg)

    def test_nearly_normalized_tape_runs_on_every_path(self):
        tape = np.array([0.6, 0.0, 0.0, 0.8]) * math.sqrt(1 + 1e-10)
        cfg = MachineConfig.uniform(2, ALPHA, phi0=0.4, initial=tape,
                                    steps=500)
        engine, prim = (path(cfg).bloch for path in self.PATHS)
        np.testing.assert_allclose(prim, engine, rtol=0, atol=1e-12)
        exact = MachineConfig.uniform(2, ALPHA, phi0=0.4,
                                      initial=np.array([0.6, 0, 0, 0.8]),
                                      steps=500)
        np.testing.assert_allclose(engine, run(exact).bloch, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("scale", [1 + 1e-8, math.nan])
    def test_unnormalized_tape_is_refused_on_every_path(self, scale):
        cfg = MachineConfig.uniform(2, ALPHA, initial=np.array([scale, 0, 0, 0]),
                                    steps=5)
        for path in self.PATHS:
            with pytest.raises(ConfigurationError, match="not normalized"):
                path(cfg)


class TestSuperpose:
    def test_one_hot_weights_reduce_to_the_primitive(self):
        w = np.zeros(4)
        w[2] = 1.0
        np.testing.assert_allclose(
            superpose(w, 0.3, ALPHA, 50).bloch,
            run_primitive("-+", 0.3, ALPHA, 50).bloch,
            atol=1e-15,
        )

    def test_balanced_single_spin_freezes_after_flip(self):
        # equal +/- weights at phi0 = 0: after the controlled flip the two
        # primitive angles are alpha and -alpha, so the y components cancel
        traj = superpose([0.5, 0.5], 0.0, ALPHA, 2)
        assert traj.bloch[2, 1] == pytest.approx(0.0, abs=1e-15)
        assert traj.bloch[2, 2] == pytest.approx(-math.cos(ALPHA), abs=1e-15)

    @pytest.mark.parametrize("num", range(1, 7))
    def test_decompose_superpose_equals_engine(self, num):
        cfg = MachineConfig.uniform(num, ALPHA, phi0=0.0, steps=200)
        np.testing.assert_allclose(
            superpose(decompose("0" * num), 0.0, ALPHA, 200).bloch,
            run(cfg).bloch,
            atol=1e-9,
        )

    def test_mixed_tape_superposition_matches_engine(self):
        cfg = MachineConfig.uniform(2, ALPHA, phi0=0.5, initial="0+", steps=80)
        np.testing.assert_allclose(
            superpose(decompose("0+"), 0.5, ALPHA, 80).bloch,
            run(cfg).bloch,
            atol=1e-10,
        )

    @pytest.mark.parametrize("num", [2, 3])
    def test_long_horizon_matches_recursion(self, num):
        # angles from exact integers do not drift: 60,000 steps agree with
        # the closed-form recursion as tightly as 2000 do
        steps = 60_000
        ref = HeadRecursion(ALPHA).trajectory(steps, num)
        got = superpose(decompose("0" * num), 0.0, ALPHA, steps).bloch
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-11)

    def test_long_horizon_matches_engine_on_mixed_tape(self):
        cfg = MachineConfig.uniform(4, ALPHA, phi0=1.234, initial="0+-1",
                                    steps=20_000)
        np.testing.assert_allclose(
            superpose(decompose("0+-1"), 1.234, ALPHA, 20_000).bloch,
            run(cfg).bloch, rtol=0, atol=1e-11)

    def test_memory_stays_off_the_step_count(self):
        # all 2**14 x 2001 angles would take 250 MiB per array; the sum
        # runs over several blocks of cycles here
        weights = decompose("0" * 14)
        tracemalloc.start()
        try:
            traj = superpose(weights, 0.0, ALPHA, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2 ** 20
        np.testing.assert_allclose(
            traj.bloch, HeadRecursion(ALPHA).trajectory(2000, 14),
            rtol=0, atol=1e-11)

    @pytest.mark.parametrize("num, steps", [(1, 5000), (3, 20000),
                                            (8, 3000), (12, 40)])
    @pytest.mark.parametrize("phi0", [0.0, 1.234])
    def test_table_filled_in_place_equals_the_block_form(self, num, steps,
                                                         phi0):
        rng = np.random.default_rng(num)
        weights = rng.random(2 ** num)
        weights[rng.random(2 ** num) < 0.25] = 0.0  # patterns left out
        weights[0], weights[-1] = 1.0, 0.0
        weights /= weights.sum()
        np.testing.assert_array_equal(
            superpose(weights, phi0, ALPHA, steps).bloch,
            helpers.one_shot_superpose(weights, phi0, ALPHA, steps))

    def test_memory_estimate_covers_the_measured_peak(self, monkeypatch):
        estimates = []
        monkeypatch.setattr(primitives, "check_fits",
                            lambda need, what: estimates.append(need))
        cfg = MachineConfig.uniform(12, ALPHA, steps=1)
        tracemalloc.start()
        try:
            primitives.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 2 ** 13 * 4 * 12 * 8
        assert table < peak <= estimates[0]

    def test_zero_steps_and_mid_cycle_stop(self):
        w = decompose("0+1")
        for steps in (0, 1, 7):
            cfg = MachineConfig.uniform(3, ALPHA, phi0=0.4, initial="0+1",
                                        steps=steps)
            np.testing.assert_allclose(superpose(w, 0.4, ALPHA, steps).bloch,
                                       run(cfg).bloch, atol=1e-14)

    def test_run_is_decompose_then_superpose(self):
        cfg = MachineConfig.uniform(4, ALPHA, phi0=0.4, initial="+0-1",
                                    steps=90)
        traj = primitives.run(cfg)
        np.testing.assert_array_equal(
            traj.bloch, superpose(decompose("+0-1"), 0.4, ALPHA, 90).bloch)
        np.testing.assert_allclose(traj.bloch, run(cfg).bloch, atol=1e-12)

    def test_run_takes_an_amplitude_tape(self):
        # sign-basis components of any tape, entangled or not, stay
        # orthogonal, so the head sees only their weights
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        cfg = MachineConfig.uniform(3, ALPHA, phi0=0.9,
                                    initial=amps / np.linalg.norm(amps),
                                    steps=60)
        np.testing.assert_allclose(primitives.run(cfg).bloch, run(cfg).bloch,
                                   atol=1e-12)

    def test_run_covers_uniform_plain_flips_only(self):
        with pytest.raises(ConfigurationError, match="plain flip"):
            primitives.run(MachineConfig.uniform(2, ALPHA, variant="iy"))
        with pytest.raises(ConfigurationError, match="not uniform"):
            primitives.run(MachineConfig(2, (ALPHA, 1.0)))

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            superpose([0.5, 0.4], 0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            superpose([1.5, -0.5], 0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            superpose([0.5, 0.25, 0.25], 0.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            superpose([0.5, 0.5], 0.0, 1.0, -1)
        with pytest.raises(ConfigurationError):
            superpose([math.nan, 1.0], 0.0, 1.0, 5)


def test_every_path_reports_its_tape_size():
    cfg = MachineConfig.uniform(3, ALPHA, steps=12)
    ones = MachineConfig.uniform(3, ALPHA, initial="111", steps=12)
    trajs = [run(cfg), run_mixed([(0.5, cfg), (0.5, ones)]),
             recursion.run(cfg), primitives.run(cfg),
             superpose(decompose("000"), 0.0, ALPHA, 12),
             run_primitive("+-+", 0.0, ALPHA, 12)]
    assert [t.num_tape_spins for t in trajs] == [3] * 6


def test_computational_tapes_share_one_trajectory():
    # every 0/1 tape decomposes into the same equal-weight mixture, so the
    # head cannot tell them apart
    base = run(MachineConfig.uniform(3, ALPHA, phi0=0.2, initial="000",
                                     steps=90)).bloch
    for tape in ("011", "110", "101"):
        other = run(MachineConfig.uniform(3, ALPHA, phi0=0.2, initial=tape,
                                          steps=90)).bloch
        np.testing.assert_allclose(other, base, atol=1e-12)


def _points_contained(small, big, tol=1e-9):
    d = np.linalg.norm(small.yz()[:, None, :] - big.yz()[None, :, :], axis=2)
    return float(d.min(axis=1).max()) <= tol


@pytest.mark.parametrize("sign,pad", [("+", "++"), ("+", "+++"),
                                      ("-", "--"), ("-", "---")])
def test_uniform_patterns_nest_across_tape_sizes(sign, pad):
    # the point set of the single-spin machine recurs inside the larger
    # uniform-sign machines (extra spins only repeat the same angle moves)
    small = run_primitive(sign, 0.3, ALPHA, 200)
    big = run_primitive(pad, 0.3, ALPHA, 600)
    assert _points_contained(small, big)
