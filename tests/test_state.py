import math
import os

import numpy as np
import pytest

import helpers
from qtm.errors import ConfigurationError
from qtm import state
from qtm.gates import apply_qcnot
from qtm.state import (BlochVector, StateVector, head_bloch,
                       make_product_state, make_state, normalize_tape_spec,
                       purity)


def test_all_zeros_product_state():
    s = make_product_state(0.0, "00")
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_array_equal(s.amplitudes, expected)


def test_head_angle_sets_bloch():
    b = head_bloch(make_product_state(math.pi / 6, "0"))
    assert b.x == pytest.approx(0.0, abs=1e-15)
    assert b.y == pytest.approx(0.5, abs=1e-15)
    assert b.z == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)


def test_plus_minus_tape_amplitude_layout():
    # head |0>, tape |+>|->: head-major, with tape spin mu at bit mu-1, the
    # nonzero amplitudes fill the head-0 half and the sign follows tape
    # bit 1 (the '-' site)
    s = make_product_state(0.0, "+-")
    np.testing.assert_allclose(s.amplitudes[:4], [0.5, 0.5, -0.5, -0.5],
                               atol=1e-15)
    np.testing.assert_array_equal(s.amplitudes[4:], np.zeros(4))


@pytest.mark.parametrize("amplitude_tape", [False, True])
def test_amplitude_index_is_tape_plus_head_times_2_to_the_m(amplitude_tape):
    # |head=h, tape=t> sits at t + h * 2**M, tape spin mu at bit mu-1 of t,
    # whether the tape is a spec string or an explicit amplitude list
    spec = "1+0-"
    sites = [helpers.SITE[ch] for ch in spec]
    tape = np.array([np.prod([sites[mu][(t >> mu) & 1] for mu in range(4)])
                     for t in range(16)])
    head = np.array([math.cos(0.35), -1j * math.sin(0.35)])
    s = make_state(0.7, tape if amplitude_tape else spec)
    for h in (0, 1):
        for t in range(16):
            assert s.amplitudes[t + h * 16] == pytest.approx(
                head[h] * tape[t], abs=1e-15)


def test_unicode_minus_in_tape_spec():
    a = make_product_state(0.3, "+−")
    b = make_product_state(0.3, "+-")
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_entangled_head_has_zero_bloch():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1 / math.sqrt(2)  # |head=0, tape=1>
    amps[2] = 1 / math.sqrt(2)  # |head=1, tape=0>
    b = head_bloch(StateVector(1, amps))
    assert purity(b) == pytest.approx(0.0, abs=1e-15)


def test_head_bloch_against_density_matrix():
    rng = np.random.default_rng(7)
    for nbits in (2, 3, 4):
        amps = helpers.random_state(nbits, rng)
        got = head_bloch(StateVector(nbits - 1, amps))
        want = helpers.dense_head_bloch(amps)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_product_state_bloch_over_angle_grid():
    for phi0 in np.linspace(-7.0, 7.0, 100):
        b = head_bloch(make_product_state(phi0, "00"))
        np.testing.assert_allclose(
            b, [0.0, math.sin(phi0), -math.cos(phi0)], atol=1e-12)


def test_bloch_invariant_under_tape_phases():
    rng = np.random.default_rng(11)
    amps = helpers.random_state(4, rng)
    before = head_bloch(StateVector(3, amps))
    halves = amps.reshape(2, -1).copy()
    halves *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=8))
    after = head_bloch(StateVector(3, halves.ravel()))
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_construction_is_normalized():
    for spec in ("0", "+-", "1+0", "++--", "0101"):
        assert make_product_state(0.7, spec).norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_basics():
    s = make_product_state(0.4, "+-0")
    assert helpers.inner_product(s, s) == pytest.approx(1.0, abs=1e-12)
    plus = make_product_state(0.4, "+")
    minus = make_product_state(0.4, "-")
    assert abs(helpers.inner_product(plus, minus)) == pytest.approx(0.0, abs=1e-15)


def test_inner_product_plus_tape_overlap():
    zeros = make_product_state(0.0, "00")
    mixed = make_product_state(0.0, "+0")
    assert helpers.inner_product(zeros, mixed) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        helpers.inner_product(make_product_state(0, "0"), make_product_state(0, "00"))


def test_purity_extremes():
    assert purity(BlochVector(0.0, 0.0, -1.0)) == 1.0
    assert purity(BlochVector(0.0, 0.0, 0.0)) == 0.0


def test_purity_after_two_steps_from_oracle():
    # after one rotation and one controlled flip the head of the all-zeros
    # machine is entangled; the oracle gives Y=0, Z=-cos(alpha)
    bloch = helpers.dense_run(0.0, "0", helpers.ALPHA, 2)
    val = purity(BlochVector(*bloch[2]))
    assert val == pytest.approx(math.cos(helpers.ALPHA) ** 2, abs=1e-12)
    assert val < 1 - 1e-3


def test_make_state_with_amplitude_tape():
    tape = np.array([0, 1, 0, 0], dtype=complex)  # tape spin 1 is |1>
    s = make_state(0.0, tape)
    t = make_product_state(0.0, "10")
    np.testing.assert_allclose(s.amplitudes, t.amplitudes, atol=1e-15)


def test_make_state_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        make_product_state(0.0, "02")
    with pytest.raises(ConfigurationError):
        make_product_state(0.0, "")
    with pytest.raises(ConfigurationError):
        make_state(0.0, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ConfigurationError):
        make_state(0.0, np.ones(3, dtype=complex) / np.sqrt(3))  # not 2**M
    with pytest.raises(ConfigurationError):
        StateVector(2, np.ones(4, dtype=complex) / 2)  # wrong length for M=2


def test_tape_spec_shorthands():
    assert normalize_tape_spec("zeros", 3) == "000"
    assert normalize_tape_spec("ones", 2) == "11"
    with pytest.raises(ConfigurationError):
        normalize_tape_spec("zeros")
    with pytest.raises(ConfigurationError):
        normalize_tape_spec("01+", 2)
    for size in (0, -1):
        with pytest.raises(ConfigurationError, match="at least one tape spin"):
            normalize_tape_spec("zeros", size)


def _one_mib_of_physical_memory(monkeypatch, meminfo):
    monkeypatch.setattr(state, "_read_meminfo", meminfo)
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}[name])


def _unreadable():
    raise PermissionError("/proc/meminfo")


def test_memory_guard_compares_with_physical_memory(monkeypatch):
    # where /proc/meminfo cannot be read the budget is physical memory: on
    # a machine that reports 1 MiB, a state is refused when it and the
    # half-size array it is built from exceed 1 MiB: the 2 MiB state of
    # M=16 (3 MiB in all), from a spec string or an amplitude tape, and the
    # 1 MiB state of M=15 (1.5 MiB in all); the 0.5 MiB state of M=14
    # still fits
    _one_mib_of_physical_memory(monkeypatch, _unreadable)
    with pytest.raises(ConfigurationError,
                       match="need 3 MiB, more than the 1 MiB of physical memory$"):
        make_product_state(0.0, "0" * 16)
    with pytest.raises(ConfigurationError, match="15 tape spins need"):
        make_product_state(0.0, "0" * 15)
    assert make_product_state(0.0, "0" * 14).amplitudes.nbytes == 2 ** 19
    with pytest.raises(ConfigurationError, match="need 3 MiB"):
        make_state(0.0, np.full(2 ** 16, 2.0 ** -8, dtype=complex))


def test_memory_guard_without_memavailable_uses_physical_memory(monkeypatch):
    _one_mib_of_physical_memory(monkeypatch,
                                lambda: "MemTotal:        8388608 kB\n")
    with pytest.raises(ConfigurationError,
                       match="need 3 MiB, more than the 1 MiB of physical memory$"):
        make_product_state(0.0, "0" * 16)


def test_memory_guard_budgets_memory_available(monkeypatch):
    # /proc/meminfo's MemAvailable, not physical memory, is the budget: with
    # 1 MiB available on an 8 GiB machine the M=16 state is refused and the
    # M=14 one fits
    helpers.one_mib_available(monkeypatch)
    with pytest.raises(ConfigurationError, match=(
            "need 3 MiB, more than the 1 MiB of physical memory available$")):
        make_product_state(0.0, "0" * 16)
    assert make_product_state(0.0, "0" * 14).amplitudes.nbytes == 2 ** 19


def test_memory_guard_reads_this_hosts_meminfo():
    # on a host with /proc/meminfo the real reader yields a budget: a 1 TiB
    # state is refused with the MemAvailable message
    try:
        state._read_meminfo()
    except OSError:
        pytest.skip("no /proc/meminfo")
    with pytest.raises(ConfigurationError, match="of physical memory available$"):
        state.check_fits(1 << 40, "a test")


def test_tape_bit_mapping():
    # tape spin mu sits at index bit mu-1: with the head at |0>, flipping
    # spin mu of the all-zeros tape moves the amplitude to index 2**(mu-1)
    for mu in range(1, 5):
        s = make_product_state(0.0, "0000")
        apply_qcnot(s, mu)
        assert np.flatnonzero(s.amplitudes).tolist() == [1 << (mu - 1)]
    s = make_product_state(0.0, "0000")
    for mu in (0, 5):
        with pytest.raises(ConfigurationError, match="out of range 1..4"):
            apply_qcnot(s, mu)
