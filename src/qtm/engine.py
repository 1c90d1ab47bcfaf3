"""Step scheduling and trajectory recording for the full state vector.

One machine cycle is 2M steps. Step n of a cycle (1-based) is

    n odd  : head rotation by alpha
    n even : controlled flip of tape spin mu = n/2

so the head visits the tape spins in order, rotating before each visit.
One angle alpha serves every site.
The global step index is m = n + 2M*(p-1) where p counts cycles from 1.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalValidationError
from . import _kernels_py, kernels
from .gates import (VARIANTS, VARIANT_X, apply_head_rotation, apply_qcnot,
                    rotation_coefficients)
from .state import (REDUCE_BLOCK, BlochVector, StateVector, add_tape_spin,
                    check_count, check_fits, head_bloch,
                    head_bloch_rows, head_cross, make_state,
                    normalize_tape_spec, norm_sq_rows, tape_amplitudes)

NORM_TOL = 1e-12


@dataclass(frozen=True)
class MachineConfig:
    """Everything that determines a run.

    alpha is the one rotation angle of the machine, the same at every
    site, and phi0 the head's starting Bloch angle; both are finite real
    numbers, stored as floats. `initial` specifies the tape only (spec
    string over 0/1/+/- or an explicit array of 2**M tape amplitudes). The
    shorthands "zeros" and "ones" are accepted.
    """

    num_tape_spins: int
    alpha: float
    phi0: float = 0.0
    variant: str = VARIANT_X
    initial: object = "zeros"
    steps: int = 0

    def __post_init__(self):
        check_count(self.num_tape_spins, 1, "need at least one tape spin")
        for name, value in (("alpha", self.alpha), ("phi0", self.phi0)):
            # compared exactly, so NaN, the infinities and an integer past
            # the doubles all fail, and float() below cannot overflow
            if not (isinstance(value, numbers.Real)
                    and abs(value) <= sys.float_info.max):
                raise ConfigurationError(
                    f"{name}={value!r}: angles must be finite real numbers, "
                    "one rotation angle for every site and one head angle")
            object.__setattr__(self, name, float(value))
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown gate variant {self.variant!r}")
        check_count(self.steps, 0, "step count must be >= 0")

    @classmethod
    def uniform(cls, *args, **kwargs):
        """MachineConfig(*args, **kwargs): the same constructor, under the
        name that scripts and benchmarks call."""
        return cls(*args, **kwargs)

    def resolved_initial(self):
        """Tape spec with shorthands expanded, or the amplitude tape as
        given once tape_amplitudes has checked it against the tape size."""
        if isinstance(self.initial, str):
            return normalize_tape_spec(self.initial, self.num_tape_spins)
        tape_amplitudes(self.initial, self.num_tape_spins)
        return self.initial


@dataclass
class Trajectory:
    """Head Bloch vector at every step, including the initial point m=0.

    bloch has shape (steps+1, 3); num_tape_spins M sets the cycle of 2M
    steps. norm_drift is the largest deviation of the state norm² from 1
    observed at the cycle checkpoints of the run that produced the
    trajectory (0.0 for analytic paths).
    """

    bloch: np.ndarray
    num_tape_spins: int
    norm_drift: float = 0.0

    def __post_init__(self):
        self.bloch = np.asarray(self.bloch, dtype=float)
        if self.bloch.ndim != 2 or self.bloch.shape[1] != 3:
            raise ConfigurationError("trajectory array must have shape (steps+1, 3)")

    def __len__(self):
        return self.bloch.shape[0]

    @property
    def steps(self) -> int:
        return self.bloch.shape[0] - 1

    def point(self, m: int) -> BlochVector:
        return BlochVector(*self.bloch[m])

    def yz(self) -> np.ndarray:
        """The (lambda_y, lambda_z) plane projection, shape (steps+1, 2)."""
        return self.bloch[:, 1:]


def run(config: MachineConfig) -> Trajectory:
    """Evolve the full state vector and record the head Bloch vector.

    The head Bloch vector is carried from step to step rather than reduced
    from the whole state every time:

    - a rotation turns it rigidly about the x axis by alpha (the formula in
      gates.py), so it is updated in O(1) without reading the state;
    - a flip only permutes head-0 amplitudes, so the head populations and z
      stay put, and x and y come from the one cross term head_cross;
    - at the end of every cycle it is reduced in full (head_bloch), which
      drops whatever rounding the updates carried.

    A tape given as a spec string is a product state, and the head reaches
    spin mu first at the flip of step 2*mu. Until then spin mu is still in
    its initial single-site state, so the state starts as the head plus
    spin 1 and gains spin mu (as the new top tape bit, just below the head
    bit, where the full layout has it) just before that first flip. A run
    shorter than one cycle never holds the full state, and no first-cycle
    step works on amplitudes the head has not reached. An explicit amplitude tape may be
    entangled and starts at full size.

    A run longer than one cycle steps this way through its first cycle
    only. On a small tape, whose cycle matrix of 4**(M+1) entries fits in
    REDUCE_BLOCK (M <= 5), it goes on in windows of cycles (_run_windows):
    every R-th cycle start is chained in extended precision by U^R, and
    the gates replay R cycles from each, R >= 1 set by a rounding bound
    and the window size. On a larger tape it goes on in rotate-and-flip
    pairs (_run_pairs), whose carried Bloch vectors are filled in by
    columns after the last pair.

    The state norm is checked at the end of every cycle (and after a final
    partial cycle, and at every cycle start a window chains); drift beyond
    1e-12, or a norm that is not a number, raises NumericalValidationError.
    The norm is never re-imposed, a drifting norm means a broken kernel and
    renormalizing would hide it.
    """
    initial = config.resolved_initial()
    num = config.num_tape_spins
    # complex amplitudes held at once: the state, the half-size state it
    # grows from (check_state_fits), the scratch of its pairs and the
    # temporaries of a rotation, each min(size, BLOCK) of them (a two-block
    # scratch, or the two half states of a one-block rotation); then a
    # trajectory row of 3 doubles per step and what the path after the
    # first cycle holds: the matrices and the stack of _run_windows, or the
    # temporaries of _run_pairs' column fill, three doubles per cycle
    size = 2 ** (num + 1)
    held = size + size // 2 + 2 * min(size, _kernels_py.BLOCK)
    windows = 4 ** (num + 1) <= REDUCE_BLOCK
    later = (_windows_bytes(config, size) if windows
             else 24 * (config.steps // (2 * num)))
    check_fits(16 * held + 24 * (config.steps + 1) + later,
               f"{config.steps} steps of {num} tape spins")
    state = make_state(config.phi0,
                       initial[:1] if isinstance(initial, str) else initial)
    cycle = 2 * num
    bloch = np.empty((config.steps + 1, 3), dtype=float)
    x, y, z = head_bloch(state)
    bloch[0] = x, y, z
    drift = 0.0
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    for m in range(1, min(config.steps, cycle) + 1):
        if m % 2:
            apply_head_rotation(state, config.alpha)
            y, z = y * c - z * s, y * s + z * c
        else:
            mu = m // 2
            if mu > state.num_tape_spins:
                # the head's first visit to spin mu
                state = StateVector(
                    mu, add_tape_spin(state.amplitudes, initial[mu - 1]))
            apply_qcnot(state, mu, config.variant)
            if mu < num:
                cross = head_cross(state)
                x, y = 2.0 * cross.real, -2.0 * cross.imag
            else:
                x, y, z = head_bloch(state)
                drift = _check_norm(state.norm_sq(), m, drift)
        bloch[m] = x, y, z
    if config.steps > cycle:
        later = _run_windows if windows else _run_pairs
        drift = later(config, state, bloch, drift)
    elif config.steps % cycle:
        drift = _check_norm(state.norm_sq(), config.steps, drift)
    return Trajectory(bloch, config.num_tape_spins, drift)


def _run_pairs(config, state, bloch, drift):
    """Steps 2M+1 onwards of a run too large for the cycle matrix, from the
    full state at the end of the first cycle; returns the norm drift.

    Each rotation and the flip after it are one call of a pair callable
    that kernels.pair_kernels binds to the state and to the cos and sin of
    the half angle once per run. The loop only calls the pairs, cycle by
    cycle, writing each cross term into the x and y of its flip's row, and
    at every cycle end reduces the state in full (head_bloch) into that
    row and checks the norm. An odd last step is a rotation alone, and a
    last partial cycle ends with a norm check.

    The carried head Bloch vector of run is then filled in by columns, one
    step of the cycle at a time over every cycle: a flip row's x and y are
    2 Re and -2 Im of its cross term and its z the row before's, a
    rotation row's x is the row before's and its (y, z) that row's turned
    by alpha. These are the scalar carry's operations on the same values,
    so they give its bits. Their temporaries, at most three columns of a
    double per cycle, are what run's memory estimate counts beside bloch.
    """
    cycle, last = 2 * config.num_tape_spins, config.steps
    pairs = tuple(kernels.pair_kernels(
        state.amplitudes, config.variant,
        *rotation_coefficients(config.alpha)).values())
    # x and y of every flip row after the first cycle, as one complex each
    crosses = bloch[cycle + 2::2, :2].view(complex)[:, 0]
    for k in range(0, len(crosses), len(pairs)):
        row = crosses[k:k + len(pairs)]
        for j, pair in zip(range(len(row)), pairs):
            row[j] = pair()
        end = 2 * (cycle + k)
        if end <= last:
            bloch[end] = head_bloch(state)
            drift = _check_norm(state.norm_sq(), end, drift)
    if last % 2:
        apply_head_rotation(state, config.alpha)
    if last % cycle:
        drift = _check_norm(state.norm_sq(), last, drift)
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    for n in range(1, cycle):  # n = 2M is a cycle end, reduced in full
        rows = bloch[cycle + n::cycle]
        x, y, z = bloch[cycle + n - 1::cycle][:len(rows)].T
        if n % 2:
            rows[:, 0] = x
            rows[:, 1] = y * c - z * s
            rows[:, 2] = y * s + z * c
        else:
            rows[:, 0] *= 2.0
            rows[:, 1] *= -2.0
            rows[:, 2] = z
    return drift


def _run_windows(config, state, bloch, drift):
    """Steps 2M+1 onwards of a small-tape run, from the full state at the
    end of the first cycle; returns the norm drift.

    Every cycle applies the same unitary U, so the start of cycle k + R is
    U^R times the start of cycle k. Every R-th cycle start, from cycle 1
    on, is chained in extended precision and rounded to double one by
    one: psi_1 is the state, psi_(1+jR) = U^R psi_(1+(j-1)R), with U built
    by _cycle_matrix and U^R by squaring it in extended precision. A window
    stacks up to REDUCE_BLOCK // 2**(M+1) chained starts, and the gates
    replay R cycles over the whole stack at once, one kernel call per step,
    with the head Bloch vector of every row reduced after each step. The
    last row's replay stops at the run's last step.

    Rounding. The extended chain and the one rounding of each start to
    double are as for R = 1. The replay is what R changes: a row runs R*M
    rotations in double from its start, each rounding every real component
    once per product and once per sum, |err| <= sqrt(2) gamma_2 of the
    row's norm (as _cycle_matrix derives); the flips are exact. The
    rotations' double cos and sin scale norm² by q = c² + s² each, so the
    replayed row is q^(RM/2) times the unitary evolution of its start. A
    Bloch component or the norm² of a row, quadratic in the amplitudes, is
    therefore off the exact evolution of its chained start by at most

        eps(R) = 2 R M sqrt(2) gamma_2 + |q^(RM) - 1|

    to first order (_replay_bound), on top of the rounding the start and
    the reduction carry at R = 1. R is the largest power of two for which

    - eps(R) <= NORM_TOL / 2: the replay takes at most half of the norm
      guard, and leaves the other half to its chained start; and
    - R * window <= 2 * starts: the first window is at least half full.
      The stack keeps its height, so a full window replays R * window
      cycles in R * 2M kernel calls, as many per cycle as at R = 1, and
      the kernels of a half-full one work on half as many amplitudes per
      call. This also pays for U^R: its log2(R) squarings cost
      log2(R) 8**(M+1) extended multiply-adds, no more than the
      (1 - 1/R) starts 4**(M+1) >= (R - 1) window 4**(M+1) / 2 the chain
      saves, as 2**(M+1) <= window / 2 for M <= 5 and log2(R) <= R - 1.

    So a run of fewer than one window of cycle starts chains every one, as
    R = 1 always did, with its bits; so does any run of at most R + 1
    cycles. U is built only when the run chains a second start.

    The norm guard checks every chained start, and every replayed row at
    every cycle end of its R cycles, or at the run's last step. A window's
    failures are gathered and the one at the earliest step raises, once
    the window is replayed: the rows' checks after one step of the replay
    lie R cycles apart, so in check order a later row would come first.
    """
    cycle = 2 * config.num_tape_spins
    size = state.amplitudes.size
    starts, window, every = _windows_schedule(config)
    chained = range(1, starts + 1, every)
    if len(chained) > 1:
        leap = _cycle_matrix(config, size)
        for _ in range(every.bit_length() - 1):
            # numpy's dot loop, like the chain's: matmul gives the same
            # bits in twice the time (64 x 64, clongdouble)
            leap = np.dot(leap, leap)
    psi = state.amplitudes.astype(np.clongdouble)
    stack = np.empty((min(window, len(chained)), size), dtype=complex)
    for i in range(0, len(chained), window):
        ks = chained[i:i + window]
        rows = stack[:len(ks)]
        for k, row in zip(ks, rows):
            if k > 1:
                psi = np.dot(psi, leap)
            row[:] = psi
        at = np.array(ks) * cycle
        faults = []
        drift = _check_norms(norm_sq_rows(rows), at, drift, faults)
        drift = _replay(config, rows, every, at[0], bloch, drift, faults)
        if faults:
            step, norm_sq = min(faults)
            _check_norm(norm_sq, step, drift)  # raises
    return drift


def _windows_schedule(config):
    """(starts, window, R) of _run_windows: the cycle starts after the
    first one (cycle k starts at step k * 2M), the rows a window stacks,
    and R (_chain_every)."""
    starts = (config.steps - 1) // (2 * config.num_tape_spins)
    window = REDUCE_BLOCK // 2 ** (config.num_tape_spins + 1)
    return starts, window, _chain_every(config, starts, window)


def _chain_every(config, starts, window):
    """R of _run_windows: the largest power of two whose replay bound
    stays within NORM_TOL / 2 and whose first window of `starts` cycle
    starts is at least half full."""
    every = 1
    while (every * window <= starts
           and _replay_bound(config, 2 * every) <= NORM_TOL / 2):
        every *= 2
    return every


def _replay_bound(config, cycles):
    """eps of _run_windows: what `cycles` cycles replayed in double add, to
    first order, to a Bloch component or the norm² of a row, 2 R M sqrt(2)
    gamma_2 + |q^(RM) - 1| with q = c² + s² in extended precision."""
    rotations = cycles * config.num_tape_spins
    c, s = (np.longdouble(v) for v in rotation_coefficients(config.alpha))
    growth = abs(float((c * c + s * s) ** rotations - 1))
    return 2.0 * rotations * math.sqrt(2.0) * _gamma2(float) + growth


def _windows_bytes(config, size):
    """Bytes _run_windows holds at once beyond the state and the
    trajectory: the larger of what building U^R and what replaying takes.

    The build holds four extended matrices of size² entries (measured:
    3.5 at M=5): _cycle_matrix's exact product and the images of the basis
    states (half of one), the images cast to extended precision, their
    difference and its absolute values (half of one), or the exact product
    and its scaled copy; squaring holds two. The replay holds U^R, the
    extended chained start, the stack, and temporaries of two stacks: the
    one-block rotate_head's two half stacks, or head_bloch_rows' two conj
    copies (norm_sq_rows' one conj copy is a stack), plus ten doubles of
    per-row sums and step numbers."""
    starts, window, every = _windows_schedule(config)
    if starts < 1:
        return 0
    rows = min(window, -(-starts // every))
    extended = np.dtype(np.clongdouble).itemsize
    matrix = extended * size * size if starts > every else 0  # U is built
    replay = matrix + extended * size + 3 * 16 * rows * size + 80 * rows
    return max(4 * matrix, replay)


def _cycle_matrix(config, size):
    """U in extended precision (np.clongdouble), as rows: row j is U
    applied to basis state j, so psi @ U is U psi.

    The gates' cos and sin are doubles, so a rotation scales norm² by
    c² + s² = 1 + delta with |delta| up to a few 1e-16. Gate by gate that
    scaling and the rounding of each step add up over a run; U applied
    every cycle would add up its own rounding, fixed once, coherently. So
    U is the exact product of the gates, computed by the numpy kernels in
    extended precision and divided by the scaling: the unitary of the same
    rotation angle. The state is never rescaled.

    The gate kernels build U once more on the basis states in double,
    through the same calls as every step. Each rotation rounds every real
    component once per product and once per sum, |err| <= gamma_2 (|c x| +
    |s y|), which is at most sqrt(2) gamma_2 of a row's norm; the flips are
    exact. So the two builds must agree to sqrt(2) M gamma_2, plus the
    same for the extended build; more means a faulty kernel, and raises
    NumericalValidationError.
    """
    num = config.num_tape_spins
    images = StateVector(num, np.eye(size, dtype=complex))
    exact = np.eye(size, dtype=np.clongdouble)
    flip = (_kernels_py.cnot_flip if config.variant == VARIANT_X
            else _kernels_py.cnot_signed_flip)
    c, s = (np.longdouble(v) for v in rotation_coefficients(config.alpha))
    scale = np.longdouble(1.0)
    for n in range(1, 2 * num + 1):
        if n % 2:
            apply_head_rotation(images, config.alpha)
            _kernels_py.rotate_head(exact, c, s)
            scale *= c * c + s * s
        else:
            apply_qcnot(images, n // 2, config.variant)
            flip(exact, n // 2)
    dev = float(np.abs(images.amplitudes - exact).max())
    bound = math.sqrt(2.0) * num * (_gamma2(float) + _gamma2(np.longdouble))
    if not dev <= bound:  # a NaN fails this test too
        raise NumericalValidationError(
            f"gate kernels build the cycle matrix {dev:.3e} off its exact "
            f"product (rounding allows {bound:.3e}) by step {2 * num}")
    return exact / np.sqrt(scale)


def _gamma2(dtype):
    """gamma_2 = 2u / (1 - 2u) for the unit roundoff u of dtype: the
    relative error bound of a rounded sum of two rounded products."""
    u = float(np.finfo(dtype).eps) / 2.0
    return 2.0 * u / (1.0 - 2.0 * u)


def _replay(config, stack, every, first, bloch, drift, faults):
    """Run `every` cycles on every row of stack, row i starting at step
    first + i * every * cycle, and record the head after each step; the
    last row stops at the run's last step. The norm of every row is
    checked at each of its cycle ends and where it stops, a failure
    appended to `faults`; returns the norm drift."""
    cycle = 2 * config.num_tape_spins
    span = every * cycle
    rows = len(stack)
    last_t = len(bloch) - 1 - first - (rows - 1) * span
    for t in range(1, span + 1):
        active = rows if t <= last_t else rows - 1
        if not active:
            break
        n = (t - 1) % cycle + 1
        states = StateVector(config.num_tape_spins, stack[:active])
        if n % 2:
            apply_head_rotation(states, config.alpha)
        else:
            apply_qcnot(states, n // 2, config.variant)
        bloch[first + t:first + t + active * span:span] = head_bloch_rows(
            stack[:active])
        if n == cycle:
            drift = _check_norms(norm_sq_rows(stack[:active]),
                                 first + t + span * np.arange(active), drift,
                                 faults)
        elif t == last_t:
            drift = _check_norms(norm_sq_rows(stack[-1:]), [len(bloch) - 1],
                                 drift, faults)
    return drift


def _check_norm(norm_sq, m, drift):
    """The larger of drift and |norm_sq - 1|, norm_sq the norm² of the
    state at step m; past NORM_TOL it raises with norm_sq - 1 signed."""
    dev = norm_sq - 1.0
    if not abs(dev) <= NORM_TOL:  # a NaN norm fails this test too
        raise NumericalValidationError(
            f"state norm² drifted to 1{dev:+.3e} by step {m}")
    return max(drift, abs(dev))


def _check_norms(norm_sq, steps, drift, faults):
    """_check_norm for the states whose norms² norm_sq are taken at steps
    `steps`, without its raise: if any fails, the one at the earliest step
    is appended to `faults` as (step, norm²), for _run_windows to raise
    the earliest of its window; returns the norm drift."""
    dev = np.abs(norm_sq - 1.0)
    bad = np.flatnonzero(~(dev <= NORM_TOL))
    if bad.size:
        i = bad[np.argmin(np.take(steps, bad))]
        faults.append((int(steps[i]), float(norm_sq[i])))
        return drift
    i = np.argmax(dev)
    return _check_norm(float(norm_sq[i]), int(steps[i]), drift)


def run_mixed(weights: Sequence[tuple[float, MachineConfig]]) -> Trajectory:
    """Convex combination of runs that differ only in their initial state.

    `weights` is a list of (weight, config) pairs; weights must be
    nonnegative and sum to 1 within 1e-12. The result is the pointwise
    weighted sum of the component Bloch trajectories (the head of a
    statistical mixture).
    """
    if not weights:
        raise ConfigurationError("empty mixture")
    total = sum(w for w, _ in weights)
    # a NaN weight fails both tests
    if not all(w >= 0 for w, _ in weights) or not abs(total - 1.0) <= 1e-12:
        raise ConfigurationError(
            f"mixture weights must be nonnegative and sum to 1 (got {total!r})"
        )
    first = weights[0][1]
    for _, cfg in weights[1:]:
        if (cfg.num_tape_spins, cfg.alpha, cfg.variant, cfg.steps) != (
            first.num_tape_spins, first.alpha, first.variant, first.steps
        ):
            raise ConfigurationError(
                "mixture components may differ only in their initial state"
            )
    out = None
    drift = 0.0
    for w, cfg in weights:
        traj = run(cfg)
        drift = max(drift, traj.norm_drift)
        out = w * traj.bloch if out is None else out + w * traj.bloch
    return Trajectory(out, first.num_tape_spins, drift)
