"""Shared test support: a dense-matrix oracle for the machine, the
oracles the tests compare the package against (the one-tape-spin
primitive in closed form, the head of a mixture of runs, the head's
purity and a visit-order count of distinct points), one-shot reference
forms of the kernels, of the engine loop, of the engine's
rotate-and-flip pairs made of the kernels by name, of a whole run with a
step-by-step carry, of the closed-form
recursion's table filled step by step and of the primitive
superposition, a check of the |-> tape identity against the package's own
flip, step-by-step references for the primitive angles and the period
search, a per-row form of the SVG writer, and readers the tests check the
package's results with (state overlaps, distance from fitted circles,
trajectory CSV files).

Everything here is deliberately naive. Gates are built as full 2**(M+1)
square matrices by tensoring single-site operators, states evolve by plain
matrix-vector products, and the head Bloch vector comes from the reduced
density matrix. Slow, but an independent path against which the package's
kernels and closed forms are checked.

States use the package's head-major layout: index t + h * 2**M, tape spin
mu at bit mu-1 of t and the head at bit M, the top bit, so raw amplitudes
compare directly.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

import qtm.kernels
import qtm.state
from qtm.analysis import X_PLANE_TOL
from qtm.engine import Trajectory, _check_norms, run
from qtm.errors import ConfigurationError
from qtm.gates import apply_head_rotation, apply_qcnot, rotation_coefficients
from qtm.io import CSV_HEADER, SVG_SIZE, SVG_SPAN
from qtm.primitives import _cycle_starts, _cycle_table, _signs
from qtm.recursion import HeadRecursion
from qtm.state import (REDUCE_BLOCK, BlochVector, StateVector, _halves,
                       _vdot, add_tape_spin, head_bloch, head_cross,
                       make_state)

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
    head = nbits - 1
    return np.cos(alpha / 2) * np.eye(2 ** nbits) - 1j * np.sin(alpha / 2) * op_on_bit(LX, head, nbits)


def dense_qcnot(mu, nbits, variant="x"):
    flip = LX if variant == "x" else 1j * LY
    head = nbits - 1
    return (op_on_bit(P00, head, nbits) @ op_on_bit(flip, mu - 1, nbits)
            + op_on_bit(P11, head, nbits))


def dense_product_state(phi0, tape):
    """Head at phi0 times the tape: a spec string, or an array of 2**M
    tape amplitudes (tape index bit k is spin k+1)."""
    head = np.array([np.cos(phi0 / 2), -1j * np.sin(phi0 / 2)], dtype=complex)
    if not isinstance(tape, str):
        return np.kron(head, tape)
    vec = np.ones(1, dtype=complex)
    for ch in tape:
        vec = np.kron(SITE[ch], vec)
    return np.kron(head, vec)


def dense_head_bloch(amps):
    """Bloch vector from the reduced head density matrix."""
    halves = amps.reshape(2, -1)
    rho = halves @ halves.conj().T
    return np.array([
        np.trace(rho @ LX).real,
        np.trace(rho @ LY).real,
        np.trace(rho @ LZ).real,
    ])


def dense_run(phi0, tape, alpha, steps, variant="x"):
    """Full trajectory by dense matrix products; tape is a spec string or
    an array of tape amplitudes, and alpha the rotation angle of every
    site."""
    num = len(tape) if isinstance(tape, str) else len(tape).bit_length() - 1
    nbits = num + 1
    psi = dense_product_state(phi0, tape)
    rot = dense_rotation(alpha, nbits)
    cnots = {mu: dense_qcnot(mu, nbits, variant) for mu in range(1, num + 1)}
    bloch = np.empty((steps + 1, 3))
    bloch[0] = dense_head_bloch(psi)
    for m in range(1, steps + 1):
        n = (m - 1) % (2 * num) + 1
        psi = (rot if n % 2 else cnots[n // 2]) @ psi
        bloch[m] = dense_head_bloch(psi)
    return bloch


def m1_closed_form(kind, m, phi0, alpha):
    """Head Bloch vector of a one-tape-spin primitive at step m. Kind
    "aperiodic" is the '+' tape: the flip is inert, so the head turns by
    alpha every other step, to phi0 + ceil(m/2) alpha. Kind "periodic" is
    the '-' tape: the flip reflects the angle, closing the 4-step orbit
    phi0, phi0 + alpha, -(phi0 + alpha), -phi0 for every alpha."""
    if kind == "aperiodic":
        phi = phi0 + ((m + 1) // 2) * alpha
    else:
        phi = (phi0, phi0 + alpha, -(phi0 + alpha), -phi0)[m % 4]
    return BlochVector(0.0, math.sin(phi), -math.cos(phi))


def run_mixed(weights):
    """Head of a statistical mixture of runs that differ only in their
    initial state, for (weight, config) pairs: the weighted sum of their
    Bloch trajectories."""
    bloch = sum(w * run(cfg).bloch for w, cfg in weights)
    return Trajectory(bloch, weights[0][1].num_tape_spins)


def purity(b):
    """Squared Bloch length: 1 for a pure head, below 1 when the head is
    entangled with the tape."""
    return b.x * b.x + b.y * b.y + b.z * b.z


PointSet = namedtuple("PointSet", "points counts")


def distinct_points(traj, tol=1e-9):
    """The yz points of a trajectory, deduplicated greedily in visit order:
    a point within tol of a kept one adds one to its count, any other is
    kept. A periodic orbit stops adding points once it has closed."""
    kept, counts = [], []
    for p in traj.bloch[:, 1:]:
        d = np.hypot(*(np.array(kept) - p).T) if kept else [np.inf]
        j = int(np.argmin(d))
        if d[j] <= tol:
            counts[j] += 1
        else:
            kept.append(p)
            counts.append(1)
    return PointSet(np.array(kept), np.array(counts))


def one_mib_available(monkeypatch):
    """Make check_fits see a host whose /proc/meminfo reports 1 MiB of
    memory available out of 8 GiB."""
    monkeypatch.setattr(qtm.state, "_read_meminfo", lambda: (
        "MemTotal:        8388608 kB\nMemFree:          1024 kB\n"
        "MemAvailable:     1024 kB\n"))


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
    headz.amplitudes[:headz.amplitudes.size // 2] *= -1.0
    return float(abs(flipped.amplitudes - headz.amplitudes).max())


# The kernel formulas applied to the whole array in one pass, on a state or
# a stack of states (the last axis). The package's numpy kernels apply the
# same formulas block by block and must equal these bit for bit.

def one_shot_rotate_head(amps, c, s):
    v = amps.reshape(-1, 2, amps.shape[-1] // 2)
    a0 = c * v[:, 0] - 1j * s * v[:, 1]
    v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
    v[:, 0] = a0


def _head0_runs(amps, mu):
    """The head-0 half of every state as (rows, groups, 2, 2**(mu-1)), axis
    2 the tape bit of spin mu."""
    run = 1 << (mu - 1)
    return amps.reshape(-1, 2, amps.shape[-1] // (4 * run), 2, run)[:, 0]


def one_shot_cnot_flip(amps, mu):
    h0 = _head0_runs(amps, mu)
    t = h0[:, :, 0].copy()
    h0[:, :, 0] = h0[:, :, 1]
    h0[:, :, 1] = t


def one_shot_cnot_signed_flip(amps, mu):
    h0 = _head0_runs(amps, mu)
    t = h0[:, :, 0].copy()
    h0[:, :, 0] = -h0[:, :, 1]
    h0[:, :, 1] = t


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
            apply_head_rotation(state, config.alpha)
        else:
            apply_qcnot(state, n // 2, config.variant)
        bloch[m] = head_bloch(state)
    return Trajectory(bloch, config.num_tape_spins)


_FLIPS = {"x": "cnot_flip", "iy": "cnot_signed_flip"}


def by_name_pairs(amps, variant, c, s):
    """kernels.pair_kernels made of the kernels by name: pair() calls
    qtm.kernels.rotate_head(amps, c, s) and then the flip of spin mu, both
    looked up on qtm.kernels at call time, so a wrapped kernel sees every
    call, and returns the _vdot of the halves of amps. The fused pairs
    must give its bits."""
    flip = _FLIPS[variant]
    a0, a1 = _halves(amps)

    def pair(mu):
        def rotate_and_flip():
            qtm.kernels.rotate_head(amps, c, s)
            getattr(qtm.kernels, flip)(amps, mu)
            return _vdot(a0, a1)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, amps.shape[-1].bit_length() - 1)}


def by_name_ring(ring, variant, c, s):
    """kernels.ring_kernels made of the kernels by name: pair() copies row
    mu-2 (row M-1 for mu = 1) into row mu-1 and calls
    qtm.kernels.rotate_head and then the flip of spin mu on that row, both
    looked up at call time. The fused ring pairs must give its bits."""
    flip = _FLIPS[variant]

    def pair(mu):
        src, dst = ring[mu - 2], ring[mu - 1]

        def rotate_and_flip():
            np.copyto(dst, src)
            qtm.kernels.rotate_head(dst, c, s)
            getattr(qtm.kernels, flip)(dst, mu)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, len(ring) + 1)}


def scalar_carry_run(config):
    """engine.run with the head Bloch vector carried from step to step in
    Python floats and every row written as the loop reaches it, as the
    engine did before it filled every row by columns after its last step:
    gate by gate through the first cycle, a product tape's state growing
    spin by spin, and head_bloch at its end; then, at M >= 6, in-place
    rotate-and-flip pairs with head_bloch at every cycle end, and at
    M <= 5 from the cross terms and cycle-end z that engine._run_windows
    writes (its chained cycle starts give bits no step-by-step loop
    does). The engine must give the same bits and the same norm drift."""
    num, last = config.num_tape_spins, config.steps
    cycle = 2 * num
    initial = config.resolved_initial()
    state = make_state(config.phi0,
                       initial[:1] if isinstance(initial, str) else initial)
    bloch = np.empty((last + 1, 3))
    x, y, z = bloch[0] = head_bloch(state)
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    for m in range(1, min(last, cycle) + 1):
        if m % 2:
            apply_head_rotation(state, config.alpha)
            y, z = y * c - z * s, y * s + z * c
        else:
            mu = m // 2
            if mu > state.num_tape_spins:
                state = StateVector(
                    mu, add_tape_spin(state.amplitudes, initial[mu - 1]))
            apply_qcnot(state, mu, config.variant)
            if mu < num:
                cross = head_cross(state)
                x, y = 2.0 * cross.real, -2.0 * cross.imag
            else:
                x, y, z = head_bloch(state)
        bloch[m] = x, y, z
    drift = _check_norms(config, np.array([state.norm_sq()]),
                         np.array([(min(last, cycle) + 1) // 2]))
    if last > cycle:
        later = (_windows_carry if 4 ** (num + 1) <= REDUCE_BLOCK
                 else _pairs_carry)
        drift = max(drift, later(config, state, bloch))
    return Trajectory(bloch, num, drift)


def _windows_carry(config, state, bloch):
    """The steps after the first cycle of scalar_carry_run at M <= 5:
    engine._run_windows writes the cross term of every flip row and the z
    of every cycle end, and the carry goes on from them; returns the
    path's norm drift."""
    drift = qtm.engine._run_windows(config, state, bloch)
    cycle = 2 * config.num_tape_spins
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    x, y, z = bloch[cycle].tolist()
    for m in range(cycle + 1, len(bloch)):
        if m % 2:
            y, z = y * c - z * s, y * s + z * c
        else:
            cross = complex(*bloch[m, :2].tolist()) + 0j
            x, y = 2.0 * cross.real, -2.0 * cross.imag
            if m % cycle == 0:
                z = float(bloch[m, 2])
        bloch[m] = x, y, z
    return drift


def _pairs_carry(config, state, bloch):
    """The steps after the first cycle of scalar_carry_run at M >= 6: the
    in-place pairs of kernels.pair_kernels, with head_bloch at every cycle
    end; returns the norm drift of their cycle ends and last step."""
    cycle, last = 2 * config.num_tape_spins, config.steps
    norms, steps = [], []
    pairs = qtm.kernels.pair_kernels(state.amplitudes, config.variant,
                                     *rotation_coefficients(config.alpha))
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    x, y, z = bloch[cycle].tolist()
    for m, rotate_and_flip in zip(range(cycle + 1, last + 1, 2),
                                  itertools.cycle(pairs.values())):
        y, z = y * c - z * s, y * s + z * c
        bloch[m] = x, y, z
        if m == last:
            apply_head_rotation(state, config.alpha)
            break
        cross = rotate_and_flip()
        if (m + 1) % cycle:
            x, y = 2.0 * cross.real, -2.0 * cross.imag
        else:
            x, y, z = head_bloch(state)
            norms.append(state.norm_sq())
            steps.append(m + 1)
        bloch[m + 1] = x, y, z
    if last % cycle:
        norms.append(state.norm_sq())
        steps.append(last)
    return _check_norms(config, np.array(norms), (np.array(steps) + 1) // 2)


class StepwiseRecursion(HeadRecursion):
    """HeadRecursion with its tables filled one step at a time: each
    step's place in the cycle computed afresh and the two steps before it
    read back from the table, as the package did before it walked whole
    cycles; the package must equal it bit for bit."""

    def _extend(self, ys, zs, size, m_max):
        y1, z1 = self.y1, self.z1
        cycle = 2 * size
        below = self._tables.get(size - 2)
        for m in range(len(ys), m_max + 1):
            n = (m - 1) % cycle + 1
            p = (m - 1) // cycle + 1
            ym1, zm1 = ys[m - 1], zs[m - 1]
            if n % 2:
                y = -y1 * zm1 - z1 * ym1
                z = -z1 * zm1 + y1 * ym1
            else:
                z = -z1 * zs[m - 2] + y1 * ys[m - 2]
                if n != cycle:
                    z_ref = -1.0 if below is None else below[1][m - 4 * p + 2]
                    y = ym1 + y1 * z_ref
                elif p % 2:
                    y = ym1 - y1 * (-z1) ** (size - 1)
                else:
                    y = ym1
            ys.append(y)
            zs.append(z)


def integer_angles(pattern, steps):
    """The head angle of a primitive as exact integers: after step m it is
    sigma[m]*phi0 + kappa[m]*alpha. A plain loop over the step rules: an
    odd step adds one alpha, an even step on a '-' spin negates both."""
    sigma, kappa = [1], [0]
    for m in range(1, steps + 1):
        n = (m - 1) % (2 * len(pattern)) + 1
        if n % 2:
            sigma.append(sigma[-1])
            kappa.append(kappa[-1] + 1)
        elif pattern[n // 2 - 1] == "-":
            sigma.append(-sigma[-1])
            kappa.append(-kappa[-1])
        else:
            sigma.append(sigma[-1])
            kappa.append(kappa[-1])
    return np.array(sigma), np.array(kappa)


def exp_find_period(phis, cycle, horizon, tol):
    """Period search on one angle sequence by chords between points
    exp(1j*phi) on the unit circle: the first s in 1..horizon whose point
    and the cycle that follows match the points from 0. The package
    compares wrapped angle differences instead and must agree."""
    pts = np.exp(1j * phis)
    candidates = np.nonzero(np.abs(pts[1:horizon + 1] - pts[0]) < tol)[0] + 1
    window = pts[: cycle + 1]
    for s in candidates:
        if np.all(np.abs(pts[s:s + cycle + 1] - window) < tol):
            return int(s)
    return None


def one_shot_superpose(weights, phi0, alpha, steps):
    """primitives.superpose summed per pattern, as the package summed it
    before it grouped the patterns by (S, K) class: a coefficient table of
    two rows per pattern, joined by np.block from separate quarter arrays.
    The package must agree with it within the rounding of the two
    summation orders (test_primitives)."""
    weights = np.asarray(weights, dtype=float)
    num = weights.size.bit_length() - 1
    used = np.flatnonzero(weights)
    sign, offset = _cycle_table(_signs(used, num))
    w, s, o = weights[used, None], sign[:, :-1], offset[:, :-1] * alpha
    wcos, wsin = w * np.cos(o), w * np.sin(o)
    coef = np.block([[s * wcos, s * wsin], [wsin, -wcos]])
    cycles = steps // (2 * num) + 1
    per_block = max(1, (1 << 18) // len(used))
    yz = np.empty((cycles, 4 * num))
    for lo in range(0, cycles, per_block):
        sigma, k = _cycle_starts(sign, offset,
                                 np.arange(lo, min(lo + per_block, cycles)))
        theta = sigma * phi0 + k * alpha
        yz[lo:lo + per_block] = np.vstack([np.sin(theta), np.cos(theta)]).T @ coef
    bloch = np.zeros((steps + 1, 3))
    yz = yz.reshape(-1, 2, 2 * num).transpose(0, 2, 1).reshape(-1, 2)
    bloch[:, 1:] = yz[:steps + 1]
    return bloch


def inner_product(a, b):
    """<a|b> of two StateVectors of one tape size."""
    if a.num_tape_spins != b.num_tape_spins:
        raise ConfigurationError("states have different tape sizes")
    return np.vdot(a.amplitudes, b.amplitudes)


def invariant_residual(circles, point):
    """Distance of one Bloch point from the nearest circle of a CircleSet."""
    x, y, z = point
    if abs(x) > X_PLANE_TOL:
        raise ConfigurationError(f"point leaves the x=0 plane (lambda_x = {x:.3e})")
    d = np.hypot(*(circles.centers - np.array([y, z])).T)
    return float(np.abs(d - circles.radius).min())


def per_row_svg(traj) -> str:
    """The SVG scatter of a trajectory built one f-string per row, the
    bytes the package's block writer must reproduce."""
    scale = SVG_SIZE / (2.0 * SVG_SPAN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        '<g fill="#1f4e79" fill-opacity="0.75">',
    ]
    for row in traj.bloch:
        cx = (row[1] + SVG_SPAN) * scale
        cy = (SVG_SPAN - row[2]) * scale  # bloch z points up, svg y down
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into arrays (m, n, p, bloch)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigurationError(f"unexpected CSV header {header!r}")
        m, n, p, bloch = [], [], [], []
        for line in fh:
            fields = line.strip().split(",")
            if len(fields) != 6:
                raise ConfigurationError(f"malformed CSV row {line!r}")
            m.append(int(fields[0]))
            n.append(int(fields[1]))
            p.append(int(fields[2]))
            bloch.append([float(v) for v in fields[3:]])
    return np.array(m), np.array(n), np.array(p), np.array(bloch)
