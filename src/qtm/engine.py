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

import numpy as np

from .errors import ConfigurationError, NumericalValidationError
from . import _kernels_py, kernels
from .gates import (VARIANTS, VARIANT_X, apply_head_rotation, apply_qcnot,
                    rotation_coefficients)
from .state import (REDUCE_BLOCK, BlochVector, StateVector, _halves, _vdot,
                    add_tape_spin, aligned_empty, check_count, check_fits,
                    head_bloch, head_cross, make_state, normalize_tape_spec,
                    tape_amplitudes)

# the replay's accuracy budget: _run_windows replays R cycles from each
# chained cycle start only while what the replay adds to a Bloch component
# or a norm² stays within this (_chain_every)
REPLAY_BUDGET = 5e-13

# _cycle_matrix's extended rotations and its check take U in blocks of
# rows of at most this many entries (32 KiB). Up to M=4 U is one block, so
# the build makes no more kernel calls; at M=5 it is four, whose
# temporaries take 2.5 blocks (80 KiB), where the whole U's took 2 U
# (256 KiB) on top of U and the images
_BUILD_BLOCK = 1024


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
        """MachineConfig(*args, **kwargs): the same constructor, kept
        under this name for its one remaining caller,
        perfbench/test_checks.py."""
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
    only, and goes on by one of three paths, picked by one rule: the
    first of them whose working set fits in one reduction block of
    REDUCE_BLOCK amplitudes.

    - Windows (_run_windows), when the cycle matrix of 4**(M+1) entries
      fits (M <= 5): every R-th cycle start is chained in extended
      precision by U^R, and the gates replay R cycles from each, R >= 1
      set by a rounding bound and the window size, the stack reduced by
      one np.vecdot call after each flip and two at each cycle end.
    - The ring (_run_ring), when the cycle's M states of 2**(M+1)
      amplitudes fit (M = 6-8): rotate-and-flip pairs write out of place
      around a ring of M states, and each cycle is reduced once, by three
      np.vecdot calls.
    - In-place pairs (_run_pairs) otherwise (M >= 9): rotate-and-flip
      pairs on the state, each returning its cross term, and the head
      reduced at each cycle end.

    Each of the three reduces only the cross term of every flip and the z
    and norm² of every cycle end, and fills in the carried Bloch vector by
    columns after its last step (_fill_columns).

    The state norm² is checked at the end of every cycle, after a last
    partial cycle, and at every cycle start a window chains, by one check
    (_check_norms) per path: once for the first cycle, once per window,
    once per run of the ring or the pairs. Every rotation made with the
    double cos and sin of alpha/2 scales norm² by q = c² + s², so after r
    of them a correct run's norm² is q^r up to the rounding that
    _norm_bound derives gate by gate. A norm² further from q^r, or one
    that is not a number, raises NumericalValidationError for the
    earliest step that shows it. The norm is never re-imposed: a drifting
    norm means a broken kernel, and renormalizing would hide it.
    """
    initial = config.resolved_initial()
    num = config.num_tape_spins
    # complex amplitudes held at once: the state, the half-size state it
    # grows from (check_state_fits), the scratch of its pairs and the
    # temporaries of a rotation, each min(size, BLOCK) of them (a two-block
    # scratch, or the two half states of a one-block rotation); then a
    # trajectory row of 3 doubles per step, the temporaries of the column
    # fill, three doubles per cycle, and what the path after the first
    # cycle holds: the matrices and the stack of _run_windows, or the norm²
    # of every cycle end with its step and its share of their check, 64
    # bytes a cycle (tracemalloc: 59-64 at 2,000-20,000 cycles), and the pair
    # callables with the views they bind, 1.5 KiB per spin (tracemalloc of
    # kernels.pair_kernels less its scratch read 0.66-1.28 KB per spin at
    # M = 6-14, either variant; up to 8.4 KB at M = 18, where the freed
    # half-size state leaves far more room); _run_ring adds its ring of M
    # states, the state and a half of its pairs' scratch, and 1 KiB per
    # spin more for its pairs (tracemalloc of kernels.ring_kernels less
    # its scratch: 1.5 KB per spin for x, 2.0 KB for iy, at M = 6-8, and
    # up to 5 KB more while a pair runs)
    size = 2 ** (num + 1)
    held = size + size // 2 + 2 * min(size, _kernels_py.BLOCK)
    windows = 4 ** (num + 1) <= REDUCE_BLOCK
    # the ring's cut-off is a working-set choice, not a bits one: vecdot
    # gives _vdot's bits on rows of up to REDUCE_BLOCK amplitudes, and with
    # the ring forced on at M = 9 and 10 every trajectory bit stayed the
    # same and engine.run over 20,000 steps ran faster than the in-place
    # pairs (2-core host, one BLAS thread, best of 9: M=9 50 against 56-58
    # ms, M=10 72-74 against 77-80 ms, plain flip), so M = 8 is not shown
    # to be the best last M for the ring
    ring = num * size <= REDUCE_BLOCK
    cycle = 2 * num
    later = 24 * (config.steps // cycle)
    if windows:
        later += _windows_bytes(config, size)
    else:
        later += 64 * (config.steps // cycle) + 1536 * num
        if ring:
            later += 16 * (num * size + 3 * size // 2) + 1024 * num
    check_fits(16 * held + 24 * (config.steps + 1) + later,
               f"{config.steps} steps of {num} tape spins")
    state = make_state(config.phi0,
                       initial[:1] if isinstance(initial, str) else initial)
    bloch = np.empty((config.steps + 1, 3), dtype=float)
    x, y, z = head_bloch(state)
    bloch[0] = x, y, z
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
        bloch[m] = x, y, z
    drift = _check_norms(config, np.array([state.norm_sq()]),
                         np.array([(min(config.steps, cycle) + 1) // 2]))
    if config.steps > cycle:
        later = (_run_windows if windows else _run_ring if ring
                 else _run_pairs)
        drift = max(drift, later(config, state, bloch))
    return Trajectory(bloch, config.num_tape_spins, drift)


def _run_pairs(config, state, bloch):
    """Steps 2M+1 onwards of a run too large for the cycle matrix and the
    ring (M >= 9), from the full state at the end of the first cycle;
    returns the norm drift.

    Each rotation and the flip after it are one call of a pair callable
    that kernels.pair_kernels binds to the state and to the cos and sin of
    the half angle once per run. The loop only calls the pairs, cycle by
    cycle, writing each cross term into the x and y of its flip's row, and
    at every cycle end writes the head's z, p1 - p0 as head_bloch forms
    it, and the norm² into the run's norms. An odd last step
    is a rotation alone, and a last partial cycle ends with one norm²
    more. The norms are checked once, and the carried Bloch vector is then
    filled in by columns (_fill_columns).
    """
    cycle, last = 2 * config.num_tape_spins, config.steps
    pairs = tuple(kernels.pair_kernels(
        state.amplitudes, config.variant,
        *rotation_coefficients(config.alpha)).values())
    a0, a1 = _halves(state.amplitudes)
    crosses = _crosses(config, bloch)
    steps = np.minimum(np.arange(2 * cycle, last + cycle, cycle), last)
    norms = np.empty(len(steps))
    for k in range(0, len(crosses), len(pairs)):
        row = crosses[k:k + len(pairs)]
        for j in range(len(row)):
            row[j] = pairs[j]()
        end = 2 * (cycle + k)
        if end <= last:
            bloch[end, 2] = _vdot(a1, a1).real - _vdot(a0, a0).real
            norms[k // len(pairs)] = state.norm_sq()
    # the pairs' scratch, a state at M <= 14, is freed before a last
    # rotation takes its temporaries, another state
    del pairs
    if last % 2:
        apply_head_rotation(state, config.alpha)
    norms[-1] = state.norm_sq()  # again, if the run ends on a cycle end
    _fill_columns(config, bloch)
    return _check_norms(config, norms, (steps + 1) // 2)


def _run_ring(config, state, bloch):
    """Steps 2M+1 onwards of a run whose M states of a cycle fit in one
    reduction block, M * 2**(M+1) <= REDUCE_BLOCK (M = 6-8), from the full
    state at the end of the first cycle; returns the norm drift.

    The pairs run out of place around a ring of M states, bound once per
    run by kernels.ring_kernels: the pair of spin mu reads row mu-2 (row
    M-1 for mu = 1) and writes row mu-1, so once a cycle's pairs are done
    row j holds the state after its pair j+1, and row M-1 the cycle end,
    which the next cycle's first pair reads. Then three np.vecdot calls
    reduce the cycle:

    - the rows' head-0 halves with their head-1 halves: the cycle's cross
      terms, written into the x and y of their flip rows;
    - the last row's halves with themselves: its p0 and p1;
    - the last row with itself: its norm².

    vecdot sums each row by BLAS zdotc, as np.vdot does, so these are the
    bits of _vdot, once _fill_columns adds 0j to the cross terms as _vdot
    adds it: of head_cross, of head_bloch's z and of norm_sq. At every
    cycle end the loop writes the head's z, p1 - p0, and the norm² into
    the run's norms, as _run_pairs does.

    A last partial cycle reduces the rows it wrote, and an odd last step
    rotates the row of the last pair; then the norm² of that row is the
    last of the norms. The norms are checked once, and the carried Bloch
    vector is then filled in by columns (_fill_columns).
    """
    num = config.num_tape_spins
    cycle, last = 2 * num, config.steps
    half = state.amplitudes.size // 2
    ring = aligned_empty((num, 2 * half))
    ring[-1] = state.amplitudes
    pairs = tuple(kernels.ring_kernels(
        ring, config.variant, *rotation_coefficients(config.alpha)).values())
    heads = ring.reshape(num, 2, half)
    crosses = _crosses(config, bloch)
    cycles, left = divmod(len(crosses), num)
    # (p0, p1) of a cycle end and its real parts, and the cycle ends' norms²
    p = np.empty(2, dtype=complex)
    p_re = p.real
    h0, h1, end_row, end_state = heads[:, 0], heads[:, 1], heads[-1], ring[-1:]
    steps = np.minimum(np.arange(2 * cycle, last + cycle, cycle), last)
    norms = np.empty(len(steps), dtype=complex)
    vecdot = np.vecdot
    for k, row in enumerate(crosses[:cycles * num].reshape(cycles, num)):
        for pair in pairs:
            pair()
        vecdot(h0, h1, row)
        vecdot(end_row, end_row, p)
        vecdot(end_state, end_state, norms[k:k + 1])
        bloch[steps[k], 2] = p_re[1] - p_re[0]
    for pair in pairs[:left]:
        pair()
    vecdot(h0[:left], h1[:left], crosses[cycles * num:])
    # the row of the last pair; the cycle end again if the run ends on one
    i = (len(crosses) - 1) % num
    final = ring[i:i + 1]
    if last % 2:
        apply_head_rotation(StateVector(num, final[0]), config.alpha)
    vecdot(final, final, norms[-1:])
    _fill_columns(config, bloch)
    return _check_norms(config, norms.real, (steps + 1) // 2)


def _crosses(config, bloch):
    """x and y of every flip row of bloch after the first cycle, as one
    complex each: where the cross terms go for _fill_columns."""
    return bloch[2 * config.num_tape_spins + 2::2, :2].view(complex)[:, 0]


def _fill_columns(config, bloch):
    """Fill in the carried head Bloch vector after the first cycle, from
    the cross term in the x and y of every flip row and the z of every
    cycle end.

    First 0j is added to every cross term, as _vdot adds it: that turns a
    -0.0 part into +0.0 and changes nothing else, so the in-place pairs'
    terms, which have it already, keep their bits. Then every flip row's
    x and y become 2 Re and -2 Im of its cross term.
    Then the rows are filled by columns, one step of the cycle at a time
    over every cycle: a flip row's z inside a cycle is the row before's; a
    rotation row's x is the row before's and its (y, z) that row's turned
    by alpha. These are the scalar carry's operations on the same values,
    and at a cycle end head_bloch's, so they give their bits. Their
    temporaries, at most three columns of a double per cycle, are what
    run's memory estimate counts beside bloch.
    """
    cycle = 2 * config.num_tape_spins
    c, s = math.cos(config.alpha), math.sin(config.alpha)
    crosses = _crosses(config, bloch)
    np.add(crosses, 0j, out=crosses)
    flips = bloch[cycle + 2::2]  # one column at a time takes no temporary
    flips[:, 0] *= 2.0
    flips[:, 1] *= -2.0
    for n in range(1, cycle):
        rows = bloch[cycle + n::cycle]
        x, y, z = bloch[cycle + n - 1::cycle][:len(rows)].T
        if n % 2:
            rows[:, 0] = x
            rows[:, 1] = y * c - z * s
            rows[:, 2] = y * s + z * c
        else:
            rows[:, 2] = z


def _run_windows(config, state, bloch):
    """Steps 2M+1 onwards of a small-tape run, from the full state at the
    end of the first cycle; returns the norm drift.

    Every cycle applies the same unitary U, so the start of cycle k + R is
    U^R times the start of cycle k. Every R-th cycle start, from cycle 1
    on, is chained in extended precision and rounded to double one by
    one: psi_1 is the state, psi_(1+jR) = U^R psi_(1+(j-1)R), with U built
    by _cycle_matrix and U^R by squaring it in extended precision. A window
    stacks up to REDUCE_BLOCK // 2**(M+1) chained starts, and the gates
    replay R cycles over the whole stack at once, one kernel call per step
    (_replay), reducing the rows' cross terms after each flip and their z
    and norm² at each cycle end; a rotation reduces nothing. The last
    row's replay stops at the run's last step. After the last window the
    carried Bloch vector is filled in by columns (_fill_columns), as after
    the ring and the in-place pairs.

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

    - eps(R) <= REPLAY_BUDGET, 5e-13: the replay's accuracy budget, what
      replaying may move a row off the run that chains every start; and
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

    The norms² of a window, of every chained start, of every replayed
    row at every cycle end of its R cycles and of a last row that stops
    inside a cycle, are checked in one _check_norms call once the window
    is replayed, which raises for the earliest step that fails. U is
    unitary to extended rounding only, so each chained cycle counts as its
    M rotations in extended precision, and a row's norm² is expected to
    be q^r for the r rotations it made in double: the first cycle's M and
    M per cycle replayed since its start (U divides q out). A last row
    that stops early is checked at its last step as if it had gone on to
    the cycle ends after it: each rotation it did not make adds 2 sqrt(2)
    gamma_2 to the bound and moves q^r by |q - 1| <= 4u, which is less,
    so the check is looser there by at most M rotations, never tighter.
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
    drift = 0.0
    for i in range(0, len(chained), window):
        ks = chained[i:i + window]
        rows = stack[:len(ks)]
        for k, row in zip(ks, rows):
            if k > 1:
                psi = np.dot(psi, leap)
            row[:] = psi
        norms = _replay(config, rows, every, ks[0] * cycle, bloch)
        # column j of the row of cycle k's start: M (1 + j) rotations in
        # double, M (k - 1) chained
        drift = max(drift, _check_norms(
            config, norms, cycle // 2 * np.arange(1, every + 2),
            cycle // 2 * (np.array(ks)[:, None] - 1)))
    _fill_columns(config, bloch)
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
    stays within REPLAY_BUDGET and whose first window of `starts` cycle
    starts is at least half full."""
    every = 1
    while (every * window <= starts
           and _replay_bound(config, 2 * every) <= REPLAY_BUDGET):
        every *= 2
    return every


def _replay_bound(config, cycles):
    """eps of _run_windows: what `cycles` cycles replayed in double add, to
    first order, to a Bloch component or the norm² of a row, 2 R M sqrt(2)
    gamma_2 + |q^(RM) - 1| (_rotation_error, _growth)."""
    rotations = cycles * config.num_tape_spins
    return (2.0 * rotations * _rotation_error(float)
            + abs(float(_growth(config, rotations))))


def _windows_bytes(config, size):
    """Bytes _run_windows holds at once beyond the state and the
    trajectory: the larger of what building U^R and what replaying takes.

    The build holds one and a half extended matrices of size² entries,
    _cycle_matrix's exact product and the images of the basis states in
    double, and on top of them the larger of the images' rotation
    temporaries (one more) and those of the extended rotations and the
    check, which take a block of _BUILD_BLOCK entries at a time: two and
    a half blocks (measured: 2.52 matrices at M=5, 3.57 at M=4, where the
    block is the whole matrix). Squaring holds two matrices. The replay
    holds U^R, the extended chained start, the stack, temporaries of two
    stacks, within which the one-block rotate_head's three half stacks
    (its new halves and numpy's buffer of a strided half) stay, ten
    doubles per row of np.vecdot's outputs and their differences
    (tracemalloc of a replay beyond its stack: 1.55 stacks at M=5, 2.04
    at M=1, whose rows are 4 amplitudes), and the R + 1 norms² of every
    row with their share of the window's check, 40 bytes each
    (tracemalloc: 32 at 20,000 norms², 43 at 2,000). The column fill after
    the last window is counted by run."""
    starts, window, every = _windows_schedule(config)
    if starts < 1:
        return 0
    rows = min(window, -(-starts // every))
    extended = np.dtype(np.clongdouble).itemsize
    matrix = extended * size * size if starts > every else 0  # U is built
    block = min(matrix, extended * max(size, _BUILD_BLOCK))
    build = 3 * matrix // 2 + max(matrix, 5 * block // 2)
    # per row: its amplitudes in three stacks, ten doubles, and 40 bytes
    # for each of its R + 1 norms²
    replay = matrix + extended * size + rows * (48 * size + 40 * every + 120)
    return max(build, replay)


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
    rows = max(1, _BUILD_BLOCK // size)
    blocks = range(0, size, rows)
    for n in range(1, 2 * num + 1):
        if n % 2:
            apply_head_rotation(images, config.alpha)
            for i in blocks:
                _kernels_py.rotate_head(exact[i:i + rows], c, s)
            scale *= c * c + s * s
        else:
            apply_qcnot(images, n // 2, config.variant)
            flip(exact, n // 2)
    dev = float(np.max([
        np.abs(images.amplitudes[i:i + rows] - exact[i:i + rows]).max()
        for i in blocks]))
    bound = num * (_rotation_error(float) + _rotation_error(np.longdouble))
    if not dev <= bound:  # a NaN fails this test too
        raise NumericalValidationError(
            f"gate kernels build the cycle matrix {dev:.3e} off its exact "
            f"product (rounding allows {bound:.3e}) by step {2 * num}")
    exact /= np.sqrt(scale)
    return exact


def _replay(config, stack, every, first, bloch):
    """Run `every` cycles on every row of stack, row i starting at step
    first + i * every * cycle; the last row stops at the run's last step.

    A rotation reduces nothing. After a flip one np.vecdot of the rows'
    head halves writes each row's cross term into the x and y of its flip
    row, and at a cycle end np.vecdot gives each row's p0 and p1, whose
    p1 - p0 is written into its z, and its norm².

    Returns the rows' norms², one row each: its start's, then that at
    each of its cycle ends; a last row that stops early repeats the
    norm² of its last step from there on."""
    cycle = 2 * config.num_tape_spins
    span = every * cycle
    last_t = len(bloch) - 1 - first - (len(stack) - 1) * span
    norms = np.empty((len(stack), every + 1))
    norms[:, 0] = np.vecdot(stack, stack).real
    for t in range(1, span + 1):
        live = stack if t <= last_t else stack[:-1]
        if not len(live):
            break
        states = StateVector(config.num_tape_spins, live)
        n = (t - 1) % cycle + 1
        if n % 2:
            apply_head_rotation(states, config.alpha)
            continue
        apply_qcnot(states, n // 2, config.variant)
        rows = slice(first + t, first + t + len(live) * span, span)
        np.vecdot(*_halves(live), bloch[rows, :2].view(complex)[:, 0])
        if n == cycle:
            heads = live.reshape(len(live), 2, -1)
            p = np.vecdot(heads, heads).real
            bloch[rows, 2] = p[:, 1] - p[:, 0]
            norms[:len(live), t // cycle] = np.vecdot(live, live).real
    # a last row that stopped early: its norm² from its last step on
    norms[-1, -(-last_t // cycle):] = np.vecdot(stack[-1], stack[-1]).real
    return norms


def _check_norms(config, norm_sq, rotations, chained=0):
    """Check the norms² norm_sq of states after `rotations` rotations made
    in double and `chained` chained in extended precision by _run_windows
    (both broadcast to norm_sq), in step order; returns the norm drift,
    the largest |norm² - 1|.

    A norm² further from q^r, r the rotations made in double (_growth),
    than _norm_bound allows, or one that is not a number, raises
    NumericalValidationError for the earliest step that shows it, with
    norm² - 1 signed. A norm² taken after r + chained rotations is at
    step 2 (r + chained), or at the run's last step if that comes first:
    a run ending inside a cycle, or on a rotation, is checked there."""
    off = norm_sq - 1.0 - _growth(config, rotations)
    bound = _norm_bound(config, rotations, chained)
    # the first norm² past its bound, if any; a NaN fails this test too
    i = np.unravel_index(np.argmin(np.abs(off, out=off) <= bound), off.shape)
    if not off[i] <= bound[i]:
        r, e = (np.broadcast_to(a, off.shape)[i] for a in (rotations, chained))
        raise NumericalValidationError(
            f"state norm² is {off[i]:.3e} off q^r, where rounding allows "
            f"{bound[i]:.3e}: drifted to 1{norm_sq[i] - 1.0:+.3e} by step "
            f"{min(2 * (r + e), config.steps)}")
    return float(max(norm_sq.max() - 1.0, 1.0 - norm_sq.min()))


def _norm_bound(config, rotations, chained=0):
    """What rounding allows |norm² - q^r| after `rotations` rotations made
    in double and `chained` chained in extended precision (_check_norms),
    to first order, relative to the norm² (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3).

    - Each rotation moves the state by at most _rotation_error of the
      precision it ran in, so it moves norm² by at most twice that. The
      flips are exact.
    - Building the state counts as M + 1 rotations in double. The
      head's cos and sin move its norm² by at most 4u, and each tape
      spin's product with its site rounds every amplitude once, 2u of
      norm², plus 1.4e-16 for a '+' or '-' site; an amplitude tape's
      division by its norm and product with the head round it 5u in all.
      That tape's norm is itself a sum, whose rounding is not counted:
      up to the reduction term below in the worst case, a few 1e-16 in a
      typical one.
    - norm² itself is summed over 2 * 2**(M+1) squares, by blocks of
      REDUCE_BLOCK amplitudes, as _vdot sums it: gamma_n of the double,
      n the terms of one block's sum and the additions of the blocks."""
    num, size = config.num_tape_spins, 2 ** (config.num_tape_spins + 1)
    terms = 2 * min(size, REDUCE_BLOCK) + (size - 1) // REDUCE_BLOCK
    # the terms that vary with a window's row are added last, so a window
    # makes one array of its norms²' size here
    return (2.0 * _rotation_error(float) * (rotations + num + 1)
            + _gamma(terms, float)
            + 2.0 * _rotation_error(np.longdouble) * chained)


def _growth(config, rotations):
    """q^r - 1 for r `rotations` made with the double cos and sin of
    alpha/2: each scales norm² by q = c² + s², taken once in extended
    precision, whose q - 1 is exact; expm1 and log1p carry q^r - 1 to a
    few units of its own last place."""
    c, s = (np.longdouble(v) for v in rotation_coefficients(config.alpha))
    return np.expm1(rotations * math.log1p(float(c * c + s * s - 1)))


def _rotation_error(dtype):
    """sqrt(2) gamma_2 of dtype: how far one rotation made in dtype may
    move a state, relative to its norm. It rounds every real component
    once per product and once per sum, |err| <= gamma_2 (|c x| + |s y|),
    which is at most sqrt(2) gamma_2 of the norm of (x, y)."""
    return math.sqrt(2.0) * _gamma(2, dtype)


def _gamma(n, dtype):
    """gamma_n = n u / (1 - n u) for the unit roundoff u of dtype: the
    relative error bound of n rounded operations in a row, such as a sum
    of n products in any order."""
    u = float(np.finfo(dtype).eps) / 2.0
    return n * u / (1.0 - n * u)
