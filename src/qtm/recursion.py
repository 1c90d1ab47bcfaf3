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
nonnegative, so the seeds plus the size-0 base cover everything, and below
m, so each smaller table is filled only as far as the size above reads it.

Cost is O(m * M) scalars for a trajectory of m steps, independent of 2**M.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .engine import MachineConfig, Trajectory
from .errors import ConfigurationError
from .gates import VARIANT_X
from .state import check_count, check_fits


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
        # per row, each table holds two doubles (16 bytes, and up to 1/16
        # more of array's spare room), up to a cycle past the last row it
        # keeps while its last cycle runs; per step, the trajectory row of
        # 3 doubles adds 24
        rows = sum(last + 2 * size
                   for size, last in _reads(num_tape_spins, steps))
        check_fits(17 * rows + 24 * (steps + 1),
                   f"{steps} steps of the recursion of {num_tape_spins} "
                   "tape spins")
        self._fill(num_tape_spins, steps)
        ys, zs = self._tables[num_tape_spins]
        bloch = np.zeros((steps + 1, 3))
        bloch[:, 1] = np.frombuffer(ys, count=steps + 1)
        bloch[:, 2] = np.frombuffer(zs, count=steps + 1)
        return bloch

    def _fill(self, num_tape_spins: int, m_max: int) -> None:
        for size, need in reversed(_reads(num_tape_spins, m_max)):
            ys, zs = self._tables.setdefault(
                size, (array("d", (0.0, self.y1)), array("d", (-1.0, self.z1))))
            self._extend(ys, zs, size, need)

    def _extend(self, ys, zs, size, m_max):
        # Whole cycles, each shifted by one step: cycle p's flips n = 2,
        # ..., 2M, each with the rotation after it, from the values of its
        # steps n = 0 and 1, carried in locals from cycle to cycle. A table
        # that ends inside a cycle is cut back to that cycle's step 1 and
        # the cycle recomputed, with the same bits. The last cycle may run
        # past m_max, where the table of size M-2 ends; the steps past
        # m_max are cut off, so its values there are never kept.
        if len(ys) > m_max:
            return
        y1, z1 = self.y1, self.z1
        cycle = 2 * size
        below = self._tables.get(size - 2)  # None exactly when size <= 2
        turn = y1 * (-z1) ** (size - 1)  # the cycle end's term, odd p
        p = (len(ys) - 2) // cycle + 1
        first = (p - 1) * cycle  # step n = 0 of cycle p
        del ys[first + 2:], zs[first + 2:]
        y2, z2, y, z = ys[first], zs[first], ys[first + 1], zs[first + 1]
        add_y, add_z = ys.append, zs.append
        while first < m_max - 1:
            # Z of size M-2 at m' = m - 4p + 2 for the flips n = 2..2M-2
            at = first - 4 * p + 4
            for ref in (below[1][at:at + cycle - 3:2] if below
                        else (-1.0,) * (size - 1)):
                y2, z2 = y + y1 * ref, -z1 * z2 + y1 * y2
                y, z = -y1 * z2 - z1 * y2, -z1 * z2 + y1 * y2
                add_y(y2), add_z(z2), add_y(y), add_z(z)
            y2, z2 = y - turn if p % 2 else y, -z1 * z2 + y1 * y2
            y, z = -y1 * z2 - z1 * y2, -z1 * z2 + y1 * y2
            add_y(y2), add_z(z2), add_y(y), add_z(z)
            p, first = p + 1, first + cycle
        del ys[m_max + 1:], zs[m_max + 1:]


def _reads(num_tape_spins: int, m_max: int) -> list[tuple[int, int]]:
    """(size, last row) of each table the rows 0..m_max of size M read:
    sizes M, M-2, ..., down to 1 or 2, each only as far as the size above
    reads it. _extend walks size s to m_max in cycles p up to
    (m_max - 2) // 2s + 1, and cycle p reads size s-2 up to row
    (p - 1) 2s - 4p + 2s = p (2s - 4)."""
    reads = []
    for size in range(num_tape_spins, 0, -2):
        reads.append((size, m_max))
        m_max = ((m_max - 2) // (2 * size) + 1) * (2 * size - 4)
    return reads


def run(config: MachineConfig) -> Trajectory:
    """Closed-form trajectory for a MachineConfig, as a drop-in for the
    state-vector engine.

    Valid only for the plain flip variant, an all-computational tape
    spec, and phi0 of exactly 0 or pi. The head
    pattern is the same for every computational tape of a given size (the
    sign-basis weights of any such tape are all equal); starting the head
    at pi negates its y and z, and x stays +0.0.
    """
    if config.variant != VARIANT_X:
        raise ConfigurationError("closed form covers the plain flip variant only")
    initial = config.resolved_initial()
    if not isinstance(initial, str) or any(ch not in "01" for ch in initial):
        raise ConfigurationError(
            "closed form needs an all-computational tape spec (0/1 characters)"
        )
    if config.phi0 not in (0.0, math.pi):
        raise ConfigurationError(
            "closed form needs the head at angle 0 or pi exactly"
        )
    rec = HeadRecursion(config.alpha)
    bloch = rec.trajectory(config.steps, config.num_tape_spins)
    if config.phi0:
        bloch[:, 1:] *= -1.0  # not x: -0.0 would print where others print 0.0
    return Trajectory(bloch, config.num_tape_spins)
