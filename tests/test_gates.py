import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qtm.errors import ConfigurationError
from qtm.gates import (VARIANT_IY, VARIANT_X, apply_head_rotation,
                       apply_qcnot)
from qtm.state import StateVector, head_bloch, make_product_state


def test_zero_rotation_is_identity():
    s = make_product_state(0.9, "+1")
    before = s.amplitudes.copy()
    apply_head_rotation(s, 0.0)
    np.testing.assert_array_equal(s.amplitudes, before)


def test_rotation_advances_head_angle():
    s = make_product_state(0.0, "00")
    apply_head_rotation(s, helpers.ALPHA)
    expected = make_product_state(helpers.ALPHA, "00")
    np.testing.assert_allclose(s.amplitudes, expected.amplitudes, atol=1e-15)


def test_rotation_bloch_action_on_random_state():
    rng = np.random.default_rng(3)
    s = StateVector(2, helpers.random_state(3, rng))
    x, y, z = head_bloch(s)
    a = 0.777
    apply_head_rotation(s, a)
    got = head_bloch(s)
    want = (x, y * math.cos(a) - z * math.sin(a),
            y * math.sin(a) + z * math.cos(a))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_inverse_restores_state():
    rng = np.random.default_rng(5)
    s = StateVector(3, helpers.random_state(4, rng))
    before = s.amplitudes.copy()
    apply_head_rotation(s, helpers.ALPHA)
    apply_head_rotation(s, -helpers.ALPHA)
    np.testing.assert_allclose(s.amplitudes, before, atol=1e-12)


@given(alpha=st.floats(-12.0, 12.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_rotation_preserves_norm(alpha):
    rng = np.random.default_rng(17)
    s = StateVector(2, helpers.random_state(3, rng))
    apply_head_rotation(s, alpha)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_qcnot_flips_target_when_head_down():
    s = make_product_state(0.0, "00")  # head |0>
    apply_qcnot(s, 1)
    np.testing.assert_allclose(
        s.amplitudes, make_product_state(0.0, "10").amplitudes, atol=1e-15)


def test_qcnot_ignores_target_when_head_up():
    # head |1> with no phase: build it directly
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0  # |head=1, tape=0>
    s = StateVector(1, amps)
    apply_qcnot(s, 1)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0
    np.testing.assert_array_equal(s.amplitudes, expected)


def test_qcnot_leaves_plus_tape_product():
    s = make_product_state(0.83, "+")
    before = s.amplitudes.copy()
    apply_qcnot(s, 1)
    np.testing.assert_array_equal(s.amplitudes, before)


def test_qcnot_is_involution_bit_exact():
    rng = np.random.default_rng(23)
    for mu in (1, 2, 3):
        s = StateVector(3, helpers.random_state(4, rng))
        before = s.amplitudes.copy()
        apply_qcnot(s, mu)
        apply_qcnot(s, mu)
        np.testing.assert_array_equal(s.amplitudes, before)


def test_gates_match_dense_operators():
    rng = np.random.default_rng(29)
    amps = helpers.random_state(3, rng)
    for variant in (VARIANT_X, VARIANT_IY):
        for mu in (1, 2):
            s = StateVector(2, amps.copy())
            apply_qcnot(s, mu, variant)
            want = helpers.dense_qcnot(mu, 3, variant) @ amps
            np.testing.assert_allclose(s.amplitudes, want, atol=1e-14)
    s = StateVector(2, amps.copy())
    apply_head_rotation(s, 1.234)
    want = helpers.dense_rotation(1.234, 3) @ amps
    np.testing.assert_allclose(s.amplitudes, want, atol=1e-14)


def test_rotation_and_flip_do_not_commute():
    a = make_product_state(0.0, "0")
    apply_head_rotation(a, helpers.ALPHA)
    apply_qcnot(a, 1)
    b = make_product_state(0.0, "0")
    apply_qcnot(b, 1)
    apply_head_rotation(b, helpers.ALPHA)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) > 0.1


def test_signed_variant_basis_action():
    s = make_product_state(0.0, "0")
    apply_qcnot(s, 1, VARIANT_IY)
    np.testing.assert_allclose(
        s.amplitudes, make_product_state(0.0, "1").amplitudes, atol=1e-15)
    # |0>_head |1>_tape picks up the minus sign
    s = make_product_state(0.0, "1")
    apply_qcnot(s, 1, VARIANT_IY)
    np.testing.assert_allclose(
        s.amplitudes, -make_product_state(0.0, "0").amplitudes, atol=1e-15)


def test_signed_variant_square_negates_head_down_sector():
    rng = np.random.default_rng(31)
    s = StateVector(2, helpers.random_state(3, rng))
    before = s.amplitudes.copy()
    apply_qcnot(s, 2, VARIANT_IY)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
    apply_qcnot(s, 2, VARIANT_IY)
    np.testing.assert_array_equal(s.amplitudes[:4], -before[:4])
    np.testing.assert_array_equal(s.amplitudes[4:], before[4:])


def test_minus_tape_acts_as_head_z():
    s = make_product_state(math.pi / 6, "-")
    assert helpers.qcnot_minus_defect(s, 1) <= 1e-12
    x, y, z = head_bloch(s)
    apply_qcnot(s, 1)
    got = head_bloch(s)
    np.testing.assert_allclose(got, (-x, -y, z), atol=1e-12)


def test_minus_tape_head_down_bloch_fixed():
    s = make_product_state(0.0, "-")
    apply_qcnot(s, 1)
    np.testing.assert_allclose(head_bloch(s), (0, 0, -1), atol=1e-12)


def test_minus_defect_over_random_head_angles():
    rng = np.random.default_rng(37)
    for phi0 in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
        s = make_product_state(phi0, "0-1")
        assert helpers.qcnot_minus_defect(s, 2) <= 1e-12


def test_qcnot_validates_inputs():
    s = make_product_state(0.0, "00")
    with pytest.raises(ConfigurationError):
        apply_qcnot(s, 0)
    with pytest.raises(ConfigurationError):
        apply_qcnot(s, 3)
    with pytest.raises(ConfigurationError):
        apply_qcnot(s, 1, "y")


@pytest.mark.parametrize("variant", [VARIANT_X, VARIANT_IY])
def test_gates_on_a_stack_act_on_each_row(variant):
    rng = np.random.default_rng(41)
    rows = np.stack([helpers.random_state(4, rng) for _ in range(5)])
    stack = StateVector(3, rows.copy())
    apply_head_rotation(stack, helpers.ALPHA)
    apply_qcnot(stack, 2, variant)
    for row, got in zip(rows, stack.amplitudes):
        s = StateVector(3, row.copy())
        apply_head_rotation(s, helpers.ALPHA)
        apply_qcnot(s, 2, variant)
        np.testing.assert_array_equal(got, s.amplitudes)
    with pytest.raises(ConfigurationError):
        StateVector(3, rows.reshape(5, 1, 16))
