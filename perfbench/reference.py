"""Fixed reference computations that gauge the host's current speed.

The host this benchmark runs on is shared. The speed of CPU-bound work
drifts by a quarter or more over minutes and jumps within seconds, while
qtm's code stays the same. Each workload therefore has a reference
computation of the same kind as its operations: Python dispatch over tiny
arrays for long_horizon and census, streaming passes over an 8 MiB state
for wide_tape (measured to track each workload best). The run times the
reference around every operation and reads the operation's time against
the host's speed at that moment. The references are frozen benchmark code
that never calls qtm: a change to qtm moves the operations and not the
reference, a change of host speed moves both.
"""

from __future__ import annotations

import math
import time

import numpy as np

ALPHA = math.pi / math.sqrt(3.0)


def small_steps(steps=6000, tape_size=3):
    """Per-step dispatch over a 16-amplitude state, with reductions and a
    formatted output row per step, like the long trajectories."""
    amps = np.zeros(2 ** (tape_size + 1), dtype=complex)
    amps[0] = 1.0
    c, s = math.cos(ALPHA / 2), math.sin(ALPHA / 2)
    rows = []
    for m in range(1, steps + 1):
        v = amps.reshape(-1, 2)
        if m % 2:
            a0 = c * v[:, 0] - 1j * s * v[:, 1]
            v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
            v[:, 0] = a0
        else:
            w = amps.reshape(-1, 2, 1 << (m // 2 % tape_size + 1))[:, :, 0::2]
            t = w[:, 0].copy()
            w[:, 0] = w[:, 1]
            w[:, 1] = t
        cross = complex(np.vdot(v[:, 0], v[:, 1]))
        z = float(np.vdot(v[:, 1], v[:, 1]).real - np.vdot(v[:, 0], v[:, 0]).real)
        rows.append(f"{m},{2 * cross.real!r},{-2 * cross.imag!r},{z!r}\n")
    return len("".join(rows))


def wide_passes(tape_size=18, passes=20):
    """Streaming rotations and reductions over a 2**(M+1) state."""
    amps = np.zeros(2 ** (tape_size + 1), dtype=complex)
    amps[0] = 1.0
    c, s = math.cos(ALPHA / 2), math.sin(ALPHA / 2)
    v = amps.reshape(-1, 2)
    for _ in range(passes):
        a0 = c * v[:, 0] - 1j * s * v[:, 1]
        v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
        v[:, 0] = a0
        np.vdot(v[:, 0], v[:, 1])
    return float(abs(amps).sum())


# Each workload's reference, and the time each reference takes on the
# reference host (the host named in README.md, in its usual state). Set-up
# is interpreter start and imports, so it is read against small_steps.
# Fixed: changing any of these changes every reading of wall_s and setup_s.
REFERENCES = {"wide_tape": wide_passes, "long_horizon": small_steps,
              "census": small_steps}
SETUP_REFERENCE = small_steps
REFERENCE_HOST_S = {wide_passes: 0.175, small_steps: 0.130}


def gauge(reference):
    """Wall seconds of one pass of a reference computation."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def at_reference_speed(reference, seconds, reference_s):
    """`seconds` measured while `reference` took `reference_s`, expressed in
    seconds at the reference host's speed."""
    return seconds * REFERENCE_HOST_S[reference] / reference_s
