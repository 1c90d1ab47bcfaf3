"""Step scheduling and trajectory recording for the full state vector.

One machine cycle is 2M steps. Step n of a cycle (1-based) is

    n odd  : head rotation by alpha
    n even : controlled flip of tape spin mu = n/2

so the head visits the tape spins in order, rotating before each visit.
One angle alpha serves every site.
The global step index is m = n + 2M*(p-1) where p counts cycles from 1.
"""

from __future__ import annotations

import itertools
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
    REDUCE_BLOCK (M <= 5), it goes on in windows of cycles (_run_windows),
    and on a larger one in rotate-and-flip pairs (_run_pairs).

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
    # trajectory row of 3 doubles per step
    size = 2 ** (num + 1)
    held = size + size // 2 + 2 * min(size, _kernels_py.BLOCK)
    check_fits(16 * held + 24 * (config.steps + 1),
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
        later = _run_windows if 4 ** (num + 1) <= REDUCE_BLOCK else _run_pairs
        drift = later(config, state, bloch, drift)
    elif config.steps % cycle:
        drift = _check_norm(state.norm_sq(), config.steps, drift)
    return Trajectory(bloch, config.num_tape_spins, drift)


def _run_pairs(config, state, bloch, drift):
    """Steps 2M+1 onwards of a run too large for the cycle matrix, from the
    full state at the end of the first cycle; returns the norm drift.

    Each rotation and the flip after it are one call of a pair callable
    that kernels.pair_kernels binds to the state once per run, with the
    cos and sin of the half angle computed once. The head Bloch vector is
    carried as in run, with the cross term the pair returns; at every
    cycle end it is reduced in full and the norm is checked. An odd last
    step is a rotation alone, and a last partial cycle ends with a norm
    check.
    """
    cycle, last = 2 * config.num_tape_spins, config.steps
    pairs = kernels.pair_kernels(state.amplitudes, config.variant).values()
    half_c, half_s = rotation_coefficients(config.alpha)
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    x, y, z = bloch[cycle].tolist()
    for m, rotate_and_flip in zip(range(cycle + 1, last + 1, 2),
                                  itertools.cycle(pairs)):
        y, z = y * c - z * s, y * s + z * c
        bloch[m] = x, y, z
        if m == last:
            apply_head_rotation(state, config.alpha)
            break
        cross = rotate_and_flip(half_c, half_s)
        if (m + 1) % cycle:
            x, y = 2.0 * cross.real, -2.0 * cross.imag
        else:
            x, y, z = head_bloch(state)
            drift = _check_norm(state.norm_sq(), m + 1, drift)
        bloch[m + 1] = x, y, z
    if last % cycle:
        drift = _check_norm(state.norm_sq(), last, drift)
    return drift


def _run_windows(config, state, bloch, drift):
    """Steps 2M+1 onwards of a small-tape run, from the full state at the
    end of the first cycle; returns the norm drift.

    Every cycle applies the same unitary U, so each cycle start is U times
    the one before. The starts are chained in extended precision
    (_cycle_matrix) and rounded to double one by one. A window stacks up to
    REDUCE_BLOCK // 2**(M+1) of them, and the gates replay the cycle over
    the whole stack at once, one kernel call per step, with the head Bloch
    vector of every row reduced after each step. The last row's replay
    stops at the run's last step. U is built only when a window holds more
    than one start.

    The norm guard checks every chained start, the state its replayed
    cycle starts from, and every replayed row where its replay ends: at
    the end of its cycle, or at the run's last step.
    """
    cycle = 2 * config.num_tape_spins
    size = state.amplitudes.size
    starts = (config.steps - 1) // cycle  # cycle k starts at step k * cycle
    window = REDUCE_BLOCK // size
    if starts > 1:
        unitary = _cycle_matrix(config, size)
    psi = state.amplitudes.astype(np.clongdouble)
    for k0 in range(1, starts + 1, window):
        stack = np.empty((min(window, starts + 1 - k0), size), dtype=complex)
        for k, row in enumerate(stack, k0):
            if k > 1:
                psi = np.dot(psi, unitary)
            row[:] = psi
        at = (k0 + np.arange(len(stack))) * cycle
        drift = _check_norms(norm_sq_rows(stack), at, drift)
        _replay(config, stack, k0 * cycle, bloch)
        drift = _check_norms(norm_sq_rows(stack),
                             np.minimum(at + cycle, config.steps), drift)
    return drift


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


def _replay(config, stack, first, bloch):
    """Run one cycle on every row of stack, row k starting at step
    first + k * cycle, and record the head after each step; the last row
    stops at the run's last step."""
    cycle = 2 * config.num_tape_spins
    rows = len(stack)
    last_n = len(bloch) - 1 - first - (rows - 1) * cycle
    for n in range(1, cycle + 1):
        active = rows if n <= last_n else rows - 1
        if not active:
            break
        states = StateVector(config.num_tape_spins, stack[:active])
        if n % 2:
            apply_head_rotation(states, config.alpha)
        else:
            apply_qcnot(states, n // 2, config.variant)
        bloch[first + n:first + n + active * cycle:cycle] = head_bloch_rows(
            stack[:active])


def _check_norm(norm_sq, m, drift):
    """The larger of drift and |norm_sq - 1|, norm_sq the norm² of the
    state at step m; past NORM_TOL it raises with norm_sq - 1 signed."""
    dev = norm_sq - 1.0
    if not abs(dev) <= NORM_TOL:  # a NaN norm fails this test too
        raise NumericalValidationError(
            f"state norm² drifted to 1{dev:+.3e} by step {m}")
    return max(drift, abs(dev))


def _check_norms(norm_sq, steps, drift):
    """_check_norm for the states whose norms² norm_sq are taken at steps
    `steps`; the first that fails raises."""
    dev = np.abs(norm_sq - 1.0)
    bad = np.flatnonzero(~(dev <= NORM_TOL))
    i = bad[0] if bad.size else np.argmax(dev)
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
