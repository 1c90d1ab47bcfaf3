"""Step scheduling and trajectory recording for the full state vector.

One machine cycle is 2M steps. Step n of a cycle (1-based) is

    n odd  : head rotation by alpha_mu with mu = (n+1)/2
    n even : controlled flip of tape spin mu = n/2

so the head visits the tape spins in order, rotating before each visit.
The global step index is m = n + 2M*(p-1) where p counts cycles from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalValidationError
from .gates import VARIANTS, VARIANT_X, apply_head_rotation, apply_qcnot
from .state import (BlochVector, StateVector, add_tape_spin,
                    check_state_fits, head_bloch, head_cross, make_state,
                    normalize_tape_spec)

NORM_TOL = 1e-12


@dataclass(frozen=True)
class MachineConfig:
    """Everything that determines a run.

    `initial` specifies the tape only (spec string over 0/1/+/- or an
    explicit array of 2**M tape amplitudes); the head always starts at
    Bloch angle phi0. The shorthands "zeros" and "ones" are accepted.
    """

    num_tape_spins: int
    alphas: tuple
    phi0: float = 0.0
    variant: str = VARIANT_X
    initial: object = "zeros"
    steps: int = 0

    def __post_init__(self):
        if self.num_tape_spins < 1:
            raise ConfigurationError("need at least one tape spin")
        if len(self.alphas) != self.num_tape_spins:
            raise ConfigurationError(
                f"{len(self.alphas)} rotation angles for "
                f"{self.num_tape_spins} tape spins"
            )
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown gate variant {self.variant!r}")
        if self.steps < 0:
            raise ConfigurationError("step count must be >= 0")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    @classmethod
    def uniform(cls, num_tape_spins, alpha, phi0=0.0, variant=VARIANT_X,
                initial="zeros", steps=0):
        """Config with the same rotation angle at every site."""
        return cls(num_tape_spins, (float(alpha),) * num_tape_spins,
                   phi0, variant, initial, steps)

    def resolved_initial(self):
        """Tape spec with shorthands expanded (strings only)."""
        if isinstance(self.initial, str):
            return normalize_tape_spec(self.initial, self.num_tape_spins)
        return self.initial

    def uniform_alpha(self) -> float:
        a = self.alphas[0]
        if any(b != a for b in self.alphas):
            raise ConfigurationError("rotation angles are not uniform")
        return a


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

    - a rotation turns it rigidly about the x axis (the formula in gates.py),
      so it is updated in O(1) without reading the state;
    - a flip only permutes head-0 amplitudes, so the head populations and z
      stay put, and x and y come from the one cross term head_cross;
    - at the end of every cycle it is reduced in full (head_bloch), which
      drops whatever rounding the updates carried.

    A tape given as a spec string is a product state, and the head reaches
    spin mu first at the flip of step 2*mu. Until then spin mu is still in
    its initial single-site state, so the state starts as the head plus
    spin 1 and gains spin mu (as the new top index bit, exactly where the
    full layout has it) just before that first flip. A run shorter than one
    cycle never holds the full state, and no first-cycle step works on
    amplitudes the head has not reached. An explicit amplitude tape may be
    entangled and starts at full size.

    The state norm is checked at the end of every cycle (and after a final
    partial cycle); drift beyond 1e-12, or a norm that is not a number,
    raises NumericalValidationError.
    The norm is never re-imposed, a drifting norm means a broken kernel and
    renormalizing would hide it.
    """
    initial = config.resolved_initial()
    check_state_fits(config.num_tape_spins)
    state = make_state(config.phi0,
                       initial[:1] if isinstance(initial, str) else initial)
    cycle = 2 * config.num_tape_spins
    turns = [(math.cos(a), math.sin(a)) for a in config.alphas]
    bloch = np.empty((config.steps + 1, 3), dtype=float)
    x, y, z = head_bloch(state)
    bloch[0] = x, y, z
    drift = 0.0
    n = 0
    for m in range(1, config.steps + 1):
        n = (m - 1) % cycle + 1
        mu = (n + 1) // 2  # odd n rotates by alpha_mu, even n flips spin mu
        if n % 2:
            apply_head_rotation(state, config.alphas[mu - 1])
            c, s = turns[mu - 1]
            y, z = y * c - z * s, y * s + z * c
        else:
            if mu > state.num_tape_spins:  # the head's first visit to spin mu
                state = StateVector(
                    mu, add_tape_spin(state.amplitudes, initial[mu - 1]))
            apply_qcnot(state, mu, config.variant)
            if n < cycle:
                cross = head_cross(state)
                x, y = 2.0 * cross.real, -2.0 * cross.imag
            else:
                x, y, z = head_bloch(state)
                drift = _check_norm(state, m, drift)
        bloch[m] = x, y, z
    if config.steps and n != cycle:
        drift = _check_norm(state, config.steps, drift)
    return Trajectory(bloch, config.num_tape_spins, drift)


def _check_norm(state, m, drift):
    dev = abs(state.norm_sq() - 1.0)
    if not dev <= NORM_TOL:  # a NaN norm fails this test too
        raise NumericalValidationError(
            f"state norm² drifted to 1{dev:+.3e} by step {m}"
        )
    return max(drift, dev)


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
    if any(w < 0 for w, _ in weights) or abs(total - 1.0) > 1e-12:
        raise ConfigurationError(
            f"mixture weights must be nonnegative and sum to 1 (got {total!r})"
        )
    first = weights[0][1]
    for _, cfg in weights[1:]:
        if (cfg.num_tape_spins, cfg.alphas, cfg.variant, cfg.steps) != (
            first.num_tape_spins, first.alphas, first.variant, first.steps
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
