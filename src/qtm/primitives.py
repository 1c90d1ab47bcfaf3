"""Angle-space evolution of the 2**M primitive trajectories.

A primitive initial state has every tape spin in an lx eigenstate |+> or
|->. Such a tape never entangles with the head: the controlled flip leaves
|+> invariant and acts on |-> like lz on the head. The head therefore stays
pure and moves on the circle x = 0, so a single angle phi (Bloch vector
(0, sin phi, -cos phi)) carries the whole state:

    odd step (rotation)        : phi -> phi + alpha
    even step, tape sign '+'   : phi unchanged
    even step, tape sign '-'   : phi -> -phi

Any product tape decomposes over the 2**M sign patterns, and the head Bloch
vector of the full machine is the weight-square sum of the primitive
trajectories. That is the quantum parallelism this module exploits: cost
O(2**M) scalars per step instead of O(2**(M+1)) amplitudes, and for a single
primitive O(1).

Pattern order is lexicographic with '+' < '-', pattern character 0 (tape
spin 1) most significant. decompose() and superpose() both use this order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import MachineConfig, Trajectory
from .errors import ConfigurationError
from .gates import VARIANT_X
from .state import (check_fits, normalize_tape_spec, spelled_over,
                    tape_amplitudes)

PERIODIC = "periodic"
APERIODIC = "aperiodic"

CENSUS_WINDOW = 1 << 15  # angles held per period_census window


def normalize_pattern(pattern: str) -> str:
    return spelled_over(pattern, "+-", "sign pattern", "+ and -")


def all_patterns(num_tape_spins: int) -> list[str]:
    """The 2**M sign patterns in canonical (lexicographic) order."""
    if num_tape_spins < 1:
        raise ConfigurationError("need at least one tape spin")
    # a string object of 49 + M bytes and about 64 bytes of list and dict
    # slots around it: the census holds 125 bytes per pattern at M=16
    check_fits((num_tape_spins + 113) << num_tape_spins,
               f"the sign patterns of {num_tape_spins} tape spins")
    return ["".join(p) for p in itertools.product("+-", repeat=num_tape_spins)]


def _pattern_signs(pats):
    """+-1 spin signs of sign-pattern strings, one int8 row per pattern."""
    return np.array([[-1 if c == "-" else 1 for c in p] for p in pats], np.int8)


def _signs(index, num):
    """+-1 int8 spin signs of the canonical pattern numbers in index:
    bit num-1-i of a pattern's number is 1 when spin i+1 is '-'."""
    bits = (index[:, None] >> np.arange(num)[::-1]) & 1
    return (1 - 2 * bits).astype(np.int8)


def _cycle_table(signs):
    """Integer form of one cycle: j = 0..2M steps after a cycle start at
    angle phi, row b is at sign[b, j]*phi + offset[b, j]*alpha. With c_i
    the product of the first i spin signs, step 2i leaves sign c_i and
    offset c_i*(c_0 + ... + c_{i-1}), and step 2i-1 adds one to the offset
    of step 2i-2. The last column is the cycle map phi -> S*phi + K*alpha.
    sign keeps the dtype of signs (int8); offset, whose partial sums reach
    M+1, is summed in int64 and held as float64, exact below 2**53, so the
    products that build angles from it need no casts.
    """
    prods = np.cumprod(np.insert(signs, 0, 1, axis=1), axis=1, dtype=signs.dtype)
    sign = np.repeat(prods, 2, axis=1)[:, :-1]
    offset = np.repeat(prods * np.cumsum(prods, axis=1) - 1, 2, axis=1)[:, :-1]
    offset[:, 1::2] += 1
    return sign, offset.astype(float)


def _run_table(signs, phi0, alpha, steps):
    """_cycle_table of signs for steps 0..steps of a run, refused when
    |phi0| + |kappa|*|alpha| at one of them overflows a double. kappa =
    s*k_p + offset is linear in k_p, which is p*K or alternates 0 and K,
    so |kappa| peaks in cycle 0, 1 or last-1, or in the last, partial one;
    _angles at phi0 = 0 and alpha = 1 gives kappa."""
    sign, offset = _cycle_table(signs)
    last, part = divmod(steps, sign.shape[1] - 1)
    top = max(float(np.abs(_angles(sign, offset, 0.0, 1.0, p, p + 1)[
        :, :part + 1 if p == last else None]).max())
        for p in {0, min(1, last), max(last - 1, 0), last})
    if not math.isfinite(abs(float(phi0)) + top * abs(float(alpha))):
        raise ConfigurationError(
            f"head angles of the primitive path reach |phi0| + "
            f"{top:.0f}*|alpha|, which overflows a double")
    return sign, offset


def _cycle_starts(sign, offset, first, stop):
    """(sigma, k) of cycle starts first..stop-1: S = +1 gives k = p*K, and
    S = -1 alternates phi0 with -phi0 + K*alpha."""
    p = np.arange(first, stop)
    flips = sign[:, -1:] < 0
    return (np.where(flips, 1 - 2 * (p & 1), 1),
            offset[:, -1:] * np.where(flips, p & 1, p))


def _angles(sign, offset, phi0, alpha, first, stop):
    """Head angle sigma*phi0 + kappa*alpha at every step of cycles
    first..stop-1, shape (rows, (stop-first)*2M). kappa is built in exact
    integers and multiplied by alpha once. At phi0 = 0 the phi0 term is
    +0.0, so a zero angle is +0.0 and its sine prints as 0.0."""
    sigma_p, k_p = _cycle_starts(sign, offset, first, stop)
    s = sign[:, None, :-1]
    phis = k_p[:, :, None] * s
    phis += offset[:, None, :-1]
    phis *= alpha
    phis += (sigma_p * phi0)[:, :, None] * s if phi0 else 0.0
    return phis.reshape(len(sign), -1)


def evolve_angles(patterns, phi0: float, alpha: float, steps: int) -> np.ndarray:
    """Head angle at every step for a batch of patterns.

    Returns an array of shape (len(patterns), steps+1) holding
    sigma*phi0 + kappa*alpha for the exact integers of each step. All
    patterns must share one tape size.
    """
    pats = [normalize_pattern(p) for p in patterns]
    if not pats:
        raise ConfigurationError("empty pattern batch")
    if any(len(p) != len(pats[0]) for p in pats):
        raise ConfigurationError("patterns in a batch must share one tape size")
    if steps < 0:
        raise ConfigurationError("step count must be >= 0")
    sign, offset = _run_table(_pattern_signs(pats), phi0, alpha, steps)
    cycles = steps // (sign.shape[1] - 1) + 1
    return _angles(sign, offset, phi0, alpha, 0, cycles)[:, :steps + 1]


def run_primitive(pattern: str, phi0: float, alpha: float, steps: int) -> Trajectory:
    """Trajectory of a single primitive; every point is pure with x = 0."""
    pattern = normalize_pattern(pattern)
    phis = evolve_angles([pattern], phi0, alpha, steps)[0]
    bloch = np.zeros((steps + 1, 3))
    bloch[:, 1] = np.sin(phis)
    bloch[:, 2] = -np.cos(phis)
    return Trajectory(bloch, len(pattern))


@dataclass(frozen=True)
class PeriodicityClass:
    kind: str  # PERIODIC or APERIODIC
    q: int  # number of '-' signs
    gaps: tuple  # run lengths of '+' around the '-' signs, q+1 entries

    @property
    def periodic(self) -> bool:
        return self.kind == PERIODIC


def classify(pattern: str) -> PeriodicityClass:
    """Decide periodicity of a primitive orbit from the sign pattern alone.

    Write the pattern as plus-runs n_0 .. n_q separated by the q minus
    signs. Each '-' reflects the head angle, each cycle adds a fixed set of
    rotations, so one full cycle acts as phi -> (-1)**q phi + c with

        c = alpha * (sum of even-index gaps - sum of odd-index gaps).

    Odd q: two cycles restore phi exactly, for every alpha. Even q: the
    orbit closes for all alpha only when c vanishes, i.e. when the
    even-index gaps sum to (M - q)/2. Anything else drifts (aperiodic for
    generic alpha). The all-plus pattern (q = 0) is aperiodic for every
    M >= 1 since the single gap n_0 = M can never equal (M - 0)/2.
    """
    pattern = normalize_pattern(pattern)
    gaps = tuple(len(plus) for plus in pattern.split("-"))
    q = len(gaps) - 1
    if q % 2 == 1:
        return PeriodicityClass(PERIODIC, q, gaps)
    if 2 * sum(gaps[0::2]) == len(pattern) - q:
        return PeriodicityClass(PERIODIC, q, gaps)
    return PeriodicityClass(APERIODIC, q, gaps)


def detect_period_numeric(pattern: str, phi0: float, alpha: float,
                          max_cycles: int, tol: float = 1e-9):
    """Smallest period of the angle sequence, found by brute force.

    Looks for the smallest s <= 2M*max_cycles such that the trajectory
    repeats from s on: every point of the following full cycle must match
    the corresponding point from 0 (angles compared on the unit circle with
    tolerance tol). Matching a single point is not enough, reflections can
    revisit the starting angle without the orbit being closed. Returns the
    period in steps, or None.
    """
    signs = _pattern_signs([normalize_pattern(pattern)])
    return _find_periods(signs, phi0, alpha, max_cycles, tol)[0]


def _find_periods(signs, phi0, alpha, max_cycles, tol):
    """detect_period_numeric for rows of +-1 spin signs of one tape size.

    The chord test 2*|sin(d/2)| < tol is |w| < 2*asin(tol/2) for d wrapped
    to w = d - 2*pi*rint(d/(2*pi)), so no transcendental is taken per step.
    Only the steps that match step 0 are candidates, and a candidate s is
    the period when steps s..s+2M match steps 0..2M. The horizon is walked
    in windows of whole cycles, each holding at most CENSUS_WINDOW angles
    of the rows still without a period: its candidates are the steps of
    all but its last cycle, which it holds for their check. A row leaves at
    its first checked candidate."""
    if max_cycles < 2:
        raise ConfigurationError("need max_cycles >= 2")
    cycle = 2 * signs.shape[1]
    # a check of the last candidate, step horizon, reads one cycle past it
    sign, offset = _run_table(signs, phi0, alpha, cycle * (max_cycles + 1))
    horizon = cycle * max_cycles
    limit = math.asin(min(tol / 2, 1.0)) / math.pi  # in turns

    def match(d):  # overwrites d
        d *= 0.5 / math.pi
        d -= np.rint(d)
        return np.abs(d, out=d) < limit

    ref = _angles(sign, offset, phi0, alpha, 0, 2)[:, :cycle + 1].copy()
    span = np.arange(cycle + 1)
    per_check = max(1, CENSUS_WINDOW // (cycle + 1))  # candidates at once
    periods = np.zeros(len(sign), dtype=int)
    live = np.arange(len(sign))  # sign, offset and ref hold these rows
    first = 0
    while first <= max_cycles and live.size:
        n = min(max(1, CENSUS_WINDOW // (live.size * cycle) - 1),
                max_cycles + 1 - first)
        phis = _angles(sign, offset, phi0, alpha, first, first + n + 1)
        base = first * cycle
        lo, hi = max(base, 1) - base, min(base + n * cycle, horizon + 1) - base
        rows, at = np.divmod(np.flatnonzero(match(phis[:, lo:hi] - ref[:, :1])),
                             hi - lo)
        at += lo
        ok = np.empty(rows.size, dtype=bool)
        for i in range(0, rows.size, per_check):
            r = rows[i:i + per_check]
            d = phis[r[:, None], at[i:i + per_check, None] + span]
            d -= ref[r]
            ok[i:i + per_check] = match(d).all(axis=1)
        del phis  # free the window before the next is built
        first += n
        found, pick = np.unique(rows[ok], return_index=True)
        if found.size:
            periods[live[found]] = base + at[ok][pick]
            live, sign, offset, ref = (np.delete(a, found, axis=0)
                                       for a in (live, sign, offset, ref))
    return [int(p) if p else None for p in periods]


def period_census(num_tape_spins: int, phi0: float, alpha: float,
                  max_cycles: int, tol: float = 1e-9) -> dict:
    """detect_period_numeric for every pattern of a tape size at once.

    Patterns go through in batches that fill a window of two cycles, so
    no more than CENSUS_WINDOW angles are held at a time. Returns
    {pattern: period or None} in canonical order.
    """
    pats = all_patterns(num_tape_spins)
    batch = max(1, CENSUS_WINDOW // (4 * num_tape_spins))
    periods = []
    for lo in range(0, len(pats), batch):
        index = np.arange(lo, min(lo + batch, len(pats)))
        periods += _find_periods(_signs(index, num_tape_spins), phi0, alpha,
                                 max_cycles, tol)
    return dict(zip(pats, periods))


def decompose(tape) -> np.ndarray:
    """Weights |a_j|² of a tape state over the 2**M sign patterns.

    For a spec string the expansion is per site: '0' and '1' spread as
    (1 +- 1)/sqrt(2) over (+, -), '+' and '-' are already basis states. An
    explicit tape amplitude array is projected onto each pattern instead
    (a sign-basis transform). Either way the weights come back in canonical
    pattern order and sum to 1.
    """
    if isinstance(tape, str):
        tape = normalize_tape_spec(tape)
        # 8-byte weights, plus the half-size vector the last kron reads
        check_fits(12 << len(tape), f"the weights of {len(tape)} tape spins")
        per_site = {"0": [0.5, 0.5], "1": [0.5, 0.5], "+": [1.0, 0.0],
                    "-": [0.0, 1.0]}
        w = np.ones(1)
        for ch in tape:
            w = np.kron(w, per_site[ch])
        return w
    amps, nrm = tape_amplitudes(tape)
    num = amps.size.bit_length() - 1
    w = np.abs(_sign_basis_transform(amps, num)) ** 2 / nrm
    # canonical order puts tape spin 1 in the most significant position,
    # while the amplitude index keeps it in bit 0: reverse the bits
    return w.reshape((2,) * num).T.ravel()


def _sign_basis_transform(amps, num):
    """Coefficients of a tape amplitude array in the sign-pattern basis,
    in amplitude order: entry t holds the pattern with '-' at spin mu when
    bit mu-1 of t is set. A butterfly over each tape bit, the same
    recursive halving as a Walsh transform.
    """
    v = amps.astype(complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(num):
        w = v.reshape(-1, 2, 1 << k)
        a = w[:, 0].copy()
        w[:, 0] += w[:, 1]
        np.subtract(a, w[:, 1], out=w[:, 1])
        w *= inv_sqrt2
        del a  # so no two half-size copies are ever live
    return v


def superpose(weights, phi0: float, alpha: float, steps: int) -> Trajectory:
    """Head trajectory of a product state from its primitive weights.

    Sums the Bloch vectors of all 2**M primitives with the given weights at
    every step. Exact for any product initial state because relative
    phases between primitives never reach the head observable. A primitive
    at s*theta + o*alpha, theta a cycle start, has sin and cos linear in
    those of theta, so a block of cycles is one matrix product and memory
    is O(2**M * (2M + cycles per block)).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 2 or weights.size & (weights.size - 1):
        raise ConfigurationError("weight vector must have length 2**M, M >= 1")
    if not (weights.min() >= -1e-15 and abs(weights.sum() - 1.0) <= 1e-12):
        raise ConfigurationError("weights must be nonnegative and sum to 1")
    if steps < 0:
        raise ConfigurationError("step count must be >= 0")
    num = weights.size.bit_length() - 1
    used = np.flatnonzero(weights)
    sign, offset = _run_table(_signs(used, num), phi0, alpha, steps)
    offset[:, :-1] *= alpha  # o; _cycle_starts reads only the last column
    # y = sum w*(s*sin(theta)*cos(o) + cos(theta)*sin(o)) and
    # z = sum w*(s*sin(theta)*sin(o) - cos(theta)*cos(o)): one table, its
    # sin(theta) rows [s*w*cos o | s*w*sin o], cos(theta) rows [w*sin o | -w*cos o]
    coef = np.empty((2, len(used), 2, 2 * num))
    np.sin(offset[:, :-1], out=coef[1, :, 0])
    np.cos(offset[:, :-1], out=coef[1, :, 1])
    coef[1] *= weights[used, None, None]
    np.multiply(sign[:, None, :-1], coef[1, :, ::-1], out=coef[0])
    np.negative(coef[1, :, 1], out=coef[1, :, 1])
    coef = coef.reshape(2 * len(used), 4 * num)
    cycles = steps // (2 * num) + 1
    per_block = max(1, (1 << 18) // len(used))  # ~8 live 2 MiB arrays a block
    yz = np.empty((cycles, 4 * num))
    for lo in range(0, cycles, per_block):
        sigma, k = _cycle_starts(sign, offset, lo, min(lo + per_block, cycles))
        theta = sigma * phi0 + k * alpha
        yz[lo:lo + per_block] = np.vstack([np.sin(theta), np.cos(theta)]).T @ coef
    bloch = np.zeros((steps + 1, 3))
    yz = yz.reshape(-1, 2, 2 * num).transpose(0, 2, 1).reshape(-1, 2)
    bloch[:, 1:] = yz[:steps + 1]
    return Trajectory(bloch, num)


def run(config: MachineConfig) -> Trajectory:
    """Primitive superposition for a MachineConfig, as a drop-in for the
    state-vector engine. Valid only for uniform alpha and the plain flip
    variant; any tape, spec string or amplitude array, is decomposed."""
    if config.variant != VARIANT_X:
        raise ConfigurationError(
            "the primitives engine covers the plain flip variant only")
    # per pattern: superpose's two table rows of 4M floats, as much again
    # for the cycle table and per-step rows, and 12 bytes of weights; one
    # step peaks at 4.39 MB (M=12) and 20.2 MB (M=14) under tracemalloc
    num = config.num_tape_spins
    check_fits((2 * 2 * 4 * num * 8 + 12) << num,
               f"the primitive superposition of {num} tape spins")
    return superpose(decompose(config.resolved_initial()), config.phi0,
                     config.uniform_alpha(), config.steps)
