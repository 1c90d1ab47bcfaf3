"""Shared test support: a dense-matrix oracle for the machine, one-shot
reference forms of the kernels and of the engine loop, and a check of the
|-> tape identity against the package's own flip.

Everything here is deliberately naive. Gates are built as full 2**(M+1)
square matrices by tensoring single-site operators, states evolve by plain
matrix-vector products, and the head Bloch vector comes from the reduced
density matrix. Slow, but an independent path against which the package's
strided kernels and closed forms are checked.
"""

import numpy as np

from qtm.engine import Trajectory
from qtm.gates import apply_head_rotation, apply_qcnot
from qtm.state import head_bloch, make_state

I2 = np.eye(2, dtype=complex)
LX = np.array([[0, 1], [1, 0]], dtype=complex)
LY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
LZ = np.array([[-1, 0], [0, 1]], dtype=complex)
P00 = np.array([[1, 0], [0, 0]], dtype=complex)
P11 = np.array([[0, 0], [0, 1]], dtype=complex)

ALPHA = np.pi / np.sqrt(3.0)

SITE = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


def op_on_bit(u, bit, nbits):
    """Embed a 2x2 operator on one index bit of an nbits register."""
    op = np.array([[1.0 + 0.0j]])
    for b in range(nbits):
        op = np.kron(u if b == bit else I2, op)
    return op


def dense_rotation(alpha, nbits):
    return np.cos(alpha / 2) * np.eye(2 ** nbits) - 1j * np.sin(alpha / 2) * op_on_bit(LX, 0, nbits)


def dense_qcnot(mu, nbits, variant="x"):
    flip = LX if variant == "x" else 1j * LY
    return op_on_bit(P00, 0, nbits) @ op_on_bit(flip, mu, nbits) + op_on_bit(P11, 0, nbits)


def dense_product_state(phi0, tape):
    vec = np.array([np.cos(phi0 / 2), -1j * np.sin(phi0 / 2)], dtype=complex)
    for ch in tape:
        vec = np.kron(SITE[ch], vec)
    return vec


def dense_head_bloch(amps):
    """Bloch vector from the reduced head density matrix."""
    pairs = amps.reshape(-1, 2)
    rho = pairs.T @ pairs.conj()
    return np.array([
        np.trace(rho @ LX).real,
        np.trace(rho @ LY).real,
        np.trace(rho @ LZ).real,
    ])


def dense_run(phi0, tape, alpha, steps, variant="x"):
    """Full trajectory by dense matrix products; tape is a spec string.

    alpha may be a scalar (same angle everywhere) or one angle per site.
    """
    num = len(tape)
    nbits = num + 1
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (num,))
    psi = dense_product_state(phi0, tape)
    rots = {mu: dense_rotation(alphas[mu - 1], nbits) for mu in range(1, num + 1)}
    cnots = {mu: dense_qcnot(mu, nbits, variant) for mu in range(1, num + 1)}
    bloch = np.empty((steps + 1, 3))
    bloch[0] = dense_head_bloch(psi)
    for m in range(1, steps + 1):
        n = (m - 1) % (2 * num) + 1
        psi = (rots[(n + 1) // 2] if n % 2 else cnots[n // 2]) @ psi
        bloch[m] = dense_head_bloch(psi)
    return bloch


def random_state(nbits, rng):
    amps = rng.normal(size=2 ** nbits) + 1j * rng.normal(size=2 ** nbits)
    return amps / np.linalg.norm(amps)


def qcnot_minus_defect(state, mu):
    """Check the no-entanglement identity for a tape spin in the |-> state.

    If tape spin mu of `state` is |-> = (|0> - |1>)/sqrt(2), the controlled
    flip acts exactly like lz on the head: it only negates the head-|0>
    amplitudes. Returns the max absolute amplitude difference between the two
    ways of computing the result (0 up to rounding when the precondition
    holds).
    """
    flipped = state.copy()
    apply_qcnot(flipped, mu)
    headz = state.copy()
    headz.amplitudes[0::2] *= -1.0
    return float(abs(flipped.amplitudes - headz.amplitudes).max())


# The kernel formulas applied to the whole array in one pass. The package's
# numpy kernels apply the same formulas block by block and must equal these
# bit for bit.

def one_shot_rotate_head(amps, c, s):
    v = amps.reshape(-1, 2)
    a0 = c * v[:, 0] - 1j * s * v[:, 1]
    v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
    v[:, 0] = a0


def one_shot_cnot_flip(amps, mu):
    h0 = amps.reshape(-1, 2, 1 << mu)[:, :, 0::2]
    t = h0[:, 0].copy()
    h0[:, 0] = h0[:, 1]
    h0[:, 1] = t


def one_shot_cnot_signed_flip(amps, mu):
    h0 = amps.reshape(-1, 2, 1 << mu)[:, :, 0::2]
    t = h0[:, 0].copy()
    h0[:, 0] = -h0[:, 1]
    h0[:, 1] = t


def per_step_run(config):
    """engine.run as a plain loop that reduces the whole state to the head
    Bloch vector after every step, with no carried vector and no norm
    check."""
    state = make_state(config.phi0, config.resolved_initial())
    cycle = 2 * config.num_tape_spins
    bloch = np.empty((config.steps + 1, 3))
    bloch[0] = head_bloch(state)
    for m in range(1, config.steps + 1):
        n = (m - 1) % cycle + 1
        if n % 2:
            apply_head_rotation(state, config.alphas[(n - 1) // 2])
        else:
            apply_qcnot(state, n // 2, config.variant)
        bloch[m] = head_bloch(state)
    return Trajectory(bloch, config)
