"""Closed-form head evolution for computational tapes.

For a head starting at phi0 = 0 over any all-computational tape (every spin
|0> or |1>), the head Bloch vector (0, Y_m, Z_m) obeys a two-term recursion
in the step index m that never touches the exponentially large state. With
seeds Y_0 = 0, Y_1 = sin(alpha), Z_0 = -1, Z_1 = -cos(alpha), and writing
m = n + 2M(p-1) as in the engine schedule:

    odd n (rotation, angle addition on the circle):
        Y_m = -Y_1 Z_{m-1} - Z_1 Y_{m-1}
        Z_m = -Z_1 Z_{m-1} + Y_1 Y_{m-1}

    even n (controlled flip):
        Z_m = -Z_1 Z_{m-2} + Y_1 Y_{m-2}
        Y depends on where in the cycle the flip sits:
          n != 2M : Y_{m,M} = Y_{m-1,M} + Y_1 * Z_{m',M-2}
                    with the shifted index m' = m - 4p + 2 and the value
                    taken from the machine with two fewer tape spins
                    (Z_{m,0} := -1 for all m closes the chain)
          n == 2M : Y_{m,M} = Y_{m-1,M} - Y_1 * (-Z_1)**(M-1)   p odd
                    Y_{m,M} = Y_{m-1,M}                          p even

The cross reference to tape size M-2 makes a single flat table insufficient;
tables for M, M-2, M-4, ... are filled together, smallest first, so every
lookup lands on an already computed row. m' = (n-2) + (2M-4)(p-1) stays
nonnegative, so the seeds plus the size-0 base cover everything.

Cost is O(m * M) scalars for a trajectory of m steps, independent of 2**M.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .engine import MachineConfig, Trajectory
from .errors import ConfigurationError
from .gates import VARIANT_X
from .state import BlochVector, check_count, check_fits

APERIODIC_M1 = "aperiodic"
PERIODIC_M1 = "periodic"


class HeadRecursion:
    """Memoized evaluator for the closed-form head components.

    One instance is bound to one uniform rotation angle; tables for all tape
    sizes queried so far are kept and extended on demand. Queries on a
    filled table are plain array lookups, so sharing an instance across
    readers is safe once the fill is done.
    """

    def __init__(self, alpha: float):
        self.alpha = float(alpha)
        self.y1 = math.sin(self.alpha)
        self.z1 = -math.cos(self.alpha)
        # tape size -> (Y_m, Z_m) columns of doubles for m = 0, 1, ...
        self._tables: dict[int, tuple[array, array]] = {}

    def trajectory(self, steps: int, num_tape_spins: int) -> np.ndarray:
        """Head Bloch vectors at steps 0..steps for the all-zeros tape, as
        an array of shape (steps+1, 3); x is 0."""
        check_count(steps, 0, "step count must be >= 0")
        check_count(num_tape_spins, 1, "need at least one tape spin")
        # per step, each table of sizes M, M-2, ... holds two doubles (16
        # bytes, and up to 1/16 more of array's spare room), and the
        # trajectory row of 3 doubles adds 24
        check_fits((17 * ((num_tape_spins + 1) // 2) + 24) * (steps + 1),
                   f"{steps} steps of the recursion of {num_tape_spins} "
                   "tape spins")
        self._fill(num_tape_spins, steps)
        ys, zs = self._tables[num_tape_spins]
        bloch = np.zeros((steps + 1, 3))
        bloch[:, 1] = np.frombuffer(ys, count=steps + 1)
        bloch[:, 2] = np.frombuffer(zs, count=steps + 1)
        return bloch

    def _fill(self, num_tape_spins: int, m_max: int) -> None:
        sizes = list(range(num_tape_spins, 0, -2))  # M, M-2, ..., down to 1 or 2
        for size in reversed(sizes):
            ys, zs = self._tables.setdefault(
                size, (array("d", (0.0, self.y1)), array("d", (-1.0, self.z1))))
            self._extend(ys, zs, size, m_max)

    def _extend(self, ys, zs, size, m_max):
        y1, z1 = self.y1, self.z1
        cycle = 2 * size
        below = self._tables.get(size - 2)  # None exactly when size <= 2
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


def run(config: MachineConfig) -> Trajectory:
    """Closed-form trajectory for a MachineConfig, as a drop-in for the
    state-vector engine.

    Valid only for the plain flip variant, an all-computational tape
    spec, and phi0 of exactly 0 or pi. The head
    pattern is the same for every computational tape of a given size (the
    sign-basis weights of any such tape are all equal); starting the head
    at pi negates the whole trajectory.
    """
    if config.variant != VARIANT_X:
        raise ConfigurationError("closed form covers the plain flip variant only")
    initial = config.resolved_initial()
    if not isinstance(initial, str) or any(ch not in "01" for ch in initial):
        raise ConfigurationError(
            "closed form needs an all-computational tape spec (0/1 characters)"
        )
    if config.phi0 == 0.0:
        sign = 1.0
    elif config.phi0 == math.pi:
        sign = -1.0
    else:
        raise ConfigurationError(
            "closed form needs the head at angle 0 or pi exactly"
        )
    rec = HeadRecursion(config.alpha)
    bloch = sign * rec.trajectory(config.steps, config.num_tape_spins)
    return Trajectory(bloch, config.num_tape_spins)


def m1_closed_form(kind: str, m: int, phi0: float, alpha: float) -> BlochVector:
    """Closed-form single-tape-spin primitive at any head angle.

    kind "aperiodic" is the '+' tape: the flip is inert, the head just
    accumulates a rotation every other step, point m sits at angle
    phi0 + ceil(m/2)*alpha. kind "periodic" is the '-' tape: the flip
    reflects the angle, closing a 4-step orbit
    phi0, phi0+alpha, -(phi0+alpha), -phi0 for every alpha.
    """
    check_count(m, 0, "step index must be >= 0")
    if kind == APERIODIC_M1:
        phi = phi0 + ((m + 1) // 2) * alpha
    elif kind == PERIODIC_M1:
        phi = (phi0, phi0 + alpha, -(phi0 + alpha), -phi0)[m % 4]
    else:
        raise ConfigurationError(f"kind must be aperiodic or periodic, got {kind!r}")
    return BlochVector(0.0, math.sin(phi), -math.cos(phi))
