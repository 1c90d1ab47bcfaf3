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
trajectories. That is the quantum parallelism this module exploits. A
cycle maps a primitive's angle by phi -> S*phi + K*alpha, and the 2**M
patterns fall into at most 2M such (S, K) classes, whose members share
their cycle starts: after one pass over the weights the sum costs O(M)
per step instead of O(2**(M+1)) amplitudes, and a single primitive O(1).

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
from .state import (check_count, check_fits, normalize_tape_spec,
                    spelled_over, tape_amplitudes)

PERIODIC = "periodic"
APERIODIC = "aperiodic"

CENSUS_WINDOW = 1 << 15  # angles held per period_census window
BATCH = 1 << 12  # superpose holds BATCH // M patterns or ~BATCH steps


def normalize_pattern(pattern: str) -> str:
    return spelled_over(pattern, "+-", "sign pattern", "+ and -")


def all_patterns(num_tape_spins: int) -> list[str]:
    """The 2**M sign patterns in canonical (lexicographic) order."""
    check_count(num_tape_spins, 1, "need at least one tape spin")
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


def _run_table(signs, phi0, alpha, steps, most=math.inf):
    """_cycle_table of signs for steps 0..steps of a run, refused unless
    |phi0| + |kappa|*|alpha| stays below most at each of them; most is
    infinite by default, so that only an overflow is refused.

    kappa = s*k_p + offset, with |s| = 1 and k_p either p*K or alternating
    0 and K. Step 2i's offset is c_i times a sum of i spin signs and step
    2i-1's is one more than step 2i-2's, so |offset| <= M, and K, the
    offset of step 2M, has |K| <= M: up to cycle last, |kappa| <=
    M*(last + 1). A run whose |phi0| + (M*(last + 1) + 1)*|alpha| is below
    most is taken on that bound alone. Any other is scanned: |kappa| is
    linear in k_p, so it peaks in cycle 0, 1 or last-1, or in the last,
    partial one, and the run is refused on that peak."""
    sign, offset = _cycle_table(signs)
    last, part = divmod(steps, sign.shape[1] - 1)
    if (abs(float(phi0)) + (signs.shape[1] * (last + 1) + 1)
            * abs(float(alpha)) < most):
        return sign, offset
    top = max(float(np.abs(_keys(sign, offset, np.arange(p, p + 1))[1][
        :, :part + 1 if p == last else None]).max())
        for p in {0, min(1, last), max(last - 1, 0), last})
    reach = abs(float(phi0)) + top * abs(float(alpha))
    if not reach < most:
        raise ConfigurationError(
            f"head angles of the primitive path reach |phi0| + "
            f"{top:.0f}*|alpha|, which " + (
                "overflows a double" if math.isinf(reach) else
                f"is {reach:.3g}, past {most:.3g}, where their rounding "
                f"cannot resolve the period test's tolerance"))
    return sign, offset


def _cycle_starts(sign, offset, p):
    """(sigma, k) of the starts of cycles p, an integer array broadcast
    against the rows: S = +1 gives k = p*K, and S = -1 alternates phi0
    with -phi0 + K*alpha."""
    flips = sign[:, -1:] < 0
    return (np.where(flips, 1 - 2 * (p & 1), 1),
            offset[:, -1:] * np.where(flips, p & 1, p))


def _keys(sign, offset, p):
    """Integer key (tot, kappa) of every step of cycles p (as in
    _cycle_starts), each of shape (rows, len(p)*2M): the head angle there
    is tot*phi0 + kappa*alpha, with tot = +-1 and kappa an integer held
    exactly in a float64."""
    sigma, k = _cycle_starts(sign, offset, p)
    s = sign[:, None, :-1]
    kappa = k[:, :, None] * s
    kappa += offset[:, None, :-1]
    return ((sigma.astype(np.int8)[:, :, None] * s).reshape(len(sign), -1),
            kappa.reshape(len(sign), -1))


def _angles(tot, kappa, phi0, alpha):
    """Head angle fl(kappa*alpha) + tot*phi0 of integer keys: kappa is
    multiplied by alpha once, and at phi0 = 0 the phi0 term is +0.0, so a
    zero angle is +0.0 and its sine prints as 0.0."""
    phis = kappa * alpha
    phis += tot * phi0 if phi0 else 0.0
    return phis


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
    check_count(steps, 0, "step count must be >= 0")
    # per pattern and step, a float64 kappa, its angle and the tot*phi0
    # term _angles adds, and an int8 tot: 25 bytes; run_primitive then holds
    # the angles, its trajectory row of 3 doubles and a sine or cosine: 40
    check_fits(40 * len(pats) * (steps + 1),
               f"{steps} steps of the primitive angles, {len(pats)} per step,")
    sign, offset = _run_table(_pattern_signs(pats), phi0, alpha, steps)
    tot, kappa = _keys(sign, offset,
                       np.arange(steps // (sign.shape[1] - 1) + 1))
    return _angles(tot[:, :steps + 1], kappa[:, :steps + 1], phi0, alpha)


def run_primitive(pattern: str, phi0: float, alpha: float, steps: int) -> Trajectory:
    """Trajectory of a single primitive; every point is pure with x = 0."""
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


def gap_rule(signs):
    """classify's rule for rows of +-1 spin signs, from the '-' positions
    alone: (q, gaps, periodic) with q the '-' count of each row, gaps a
    (rows, M+1) array of the smallest unsigned type that holds M (uint8
    below M = 256), 0 past gap q, and periodic a bool per row. A '+'
    belongs to the gap numbered by the '-' signs before it."""
    rows, num = signs.shape
    minus = signs < 0
    q = minus.sum(axis=1)
    # at a '+', the number of its gap, counted on from row to row
    at = np.cumsum(minus, axis=1) + (num + 1) * np.arange(rows)[:, None]
    gaps = np.bincount(at[~minus], minlength=rows * (num + 1))
    gaps = gaps.reshape(rows, num + 1).astype(np.min_scalar_type(num))
    return q, gaps, (q % 2 == 1) | (2 * gaps[:, ::2].sum(axis=1) == num - q)


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
    M >= 1 since the single gap n_0 = M can never equal (M - 0)/2. This is
    one row of gap_rule.
    """
    q, gaps, periodic = gap_rule(_pattern_signs([normalize_pattern(pattern)]))
    return PeriodicityClass(PERIODIC if periodic[0] else APERIODIC, int(q[0]),
                            tuple(gaps[0, :q[0] + 1].tolist()))


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
    return _find_periods(signs, phi0, alpha, max_cycles, tol)[0][0]


def _find_periods(signs, phi0, alpha, max_cycles, tol, codes=None):
    """detect_period_numeric for rows of +-1 spin signs of one tape size,
    and the codes that match step 0 (see below) for the next batch of a
    census: (periods, codes).

    The chord test 2*|sin(d/2)| < tol is |w| < 2*asin(tol/2) for d wrapped
    to w = d - 2*pi*rint(d/(2*pi)), so no transcendental is taken per step.
    Only the steps that match step 0 are candidates, and a candidate s is
    the period when steps s..s+2M match steps 0..2M.

    The candidates are solved for, not scanned. Steps 1..4M are matched
    from one table of the angles of steps 0..6M, one cycle at a time.
    After them, a row with S = -1 repeats every angle bit for bit each two
    cycles and a row with K = 0 each cycle, so only the rows that drift
    (S = +1, K != 0) go on. A step's angle is a function of its _keys
    alone, so it matches step 0 by its code 2*kappa + (tot < 0), and each
    code those rows reach is matched once: codes, (hits, low, high), holds
    the sorted codes low..high-1 that match, from earlier batches of a
    census, and only the codes of this batch's range outside low..high-1
    are matched and added. Codes outside a batch's range leave every count of
    its classes unchanged. A cycle moves the codes by 2*K*s_j, so the
    steps b + 2M*r of a class b = 1..2M have codes a + d*r, and a class's
    candidates are the r whose code is among the sorted codes that match.
    Classes without one drop out; the rest are expanded in windows of
    steps that double, unless one check batch holds them all. A row leaves
    at the smallest candidate that passes, checked in batches of at most
    CENSUS_WINDOW angles.

    Angles are doubles, so the test rounds. With u = 2**-53 and A the
    largest |phi0| + |kappa|*|alpha| of the run, an angle
    fl(fl(kappa*alpha) + tot*phi0) is within 2uA of its exact value, and a
    difference of two within 6uA: 4uA carried and 2uA from its own
    rounding. Scaling it by fl(0.5/pi) rounds twice more, by at most
    u*2A/(2*pi) each, and the wrap is exact, so w is within 5uA/pi turns of
    its exact value, to first order in u. While that is below limit, a
    step whose exact angle is step 0's passes, so no period of the exact
    orbit is missed. Past it the test cannot resolve limit (beyond
    A = 2**52*2*pi every difference is a whole number of turns and every
    step matches), so a run whose A is not below pi*limit/(5u), about
    9e5 at tol = 1e-9, is refused; so is a horizon past int64."""
    check_count(max_cycles, 2, "need max_cycles >= 2")
    cycle = 2 * signs.shape[1]
    # a check of the last candidate, step horizon, reads one cycle past it
    steps = cycle * (int(max_cycles) + 1)
    if steps > np.iinfo(np.int64).max:
        raise ConfigurationError(
            f"max_cycles {max_cycles} puts the last step checked, "
            f"2M*(max_cycles + 1) = {steps}, past the range of int64")
    limit = math.asin(min(tol / 2, 1.0)) / math.pi  # in turns
    sign, offset = _run_table(signs, phi0, alpha, steps,
                              math.pi * limit / (5 * 2.0 ** -53))
    horizon = cycle * max_cycles

    def match(d):  # overwrites d
        d *= 0.5 / math.pi
        d -= np.rint(d)
        return np.abs(d, out=d) < limit

    # steps 0..6M, all that the checks of steps 1..4M read
    tot, kappa = (k[:, :3 * cycle + 1] for k in _keys(sign, offset,
                                                      np.arange(4)))
    phis = _angles(tot, kappa, phi0, alpha)
    span = np.arange(cycle + 1)
    ref = phis[:, span]
    per_check = max(1, CENSUS_WINDOW // (cycle + 1))
    best = np.full(len(sign), horizon + 1)

    def leave(r, at):
        """Rows r leave at the candidates at whose steps at..at+2M match
        steps 0..2M, checked per_check at a time."""
        for i in range(0, len(r), per_check):
            r_, at_ = r[i:i + per_check], at[i:i + per_check]
            if at_[-1] <= 2 * cycle:  # steps 1..4M, never mixed with
                diff = phis[r_[:, None], at_[:, None] + span]  # solved ones
            else:  # the keys of the two cycles the steps lie in, and the
                # angles of those steps only
                p, j = np.divmod(at_, cycle)
                tot, kappa = _keys(sign[r_], offset[r_], p[:, None] + [0, 1])
                cols = np.arange(len(r_))[:, None], j[:, None] + span
                diff = _angles(tot[cols], kappa[cols], phi0, alpha)
            diff -= ref[r_]
            ok = match(diff).all(axis=1)
            np.minimum.at(best, r_[ok], at_[ok])

    for start in (1, cycle + 1):  # one cycle of steps 1..4M each
        r, at = np.nonzero(match(phis[:, start:start + cycle] - ref[0, 0])
                           & (best[:, None] > horizon))
        leave(r, at + start)
    drift = np.flatnonzero((sign[:, -1] > 0) & (offset[:, -1] != 0)
                           & (best > horizon))
    code = (2 * kappa[drift, 1:2 * cycle + 1]
            + (tot[drift, 1:2 * cycle + 1] < 0)).astype(np.int64)
    a, d = code[:, :cycle], code[:, cycle:] - code[:, :cycle]
    top = int(np.abs([a, a + d * ((horizon - span[1:]) // cycle)]).max(
        initial=0)) // 2
    chunk = max(4 * cycle, CENSUS_WINDOW // 4)  # codes matched at a time
    hits, low, high = codes or (np.empty(0, np.int64), 0, 0)

    def matched(start, stop):
        """The codes start..stop-1 that match, sorted, chunk at a time."""
        return [c[match(_angles(1 - 2 * (c & 1), c // 2, phi0, alpha)
                        - ref[0, 0])]
                for c in (np.arange(s, min(s + chunk, stop))
                          for s in range(start, stop, chunk))]

    hits = np.concatenate([*matched(-2 * top, low), hits,
                           *matched(high, 2 * top + 2)])
    codes = hits, min(low, -2 * top), max(high, 2 * top + 2)

    def count(base, a, d, lo, hi):
        """First r, first hit and hits of classes in steps lo..hi-1."""
        ra, rb = -((base - lo) // cycle), -((base - hi) // cycle)
        e0, e1 = a + d * ra, a + d * (rb - 1)
        first = np.searchsorted(hits, np.minimum(e0, e1))
        n = np.searchsorted(hits, np.maximum(e0, e1), "right") - first
        return ra, first, n

    lo = 2 * cycle + 1
    n = count(span[1:], a, d, lo, horizon + 1)[2]
    i, b = np.nonzero(n)
    cls = np.stack([drift[i], b + 1, a[i, b], d[i, b]])
    hi = horizon + 1 if n.sum() <= per_check else lo + cycle
    while lo <= horizon and cls.size:
        row, base, a, d = cls
        ra, first, n = count(base, a, d, lo, hi)
        cum = np.cumsum(n)
        for i in range(0, cum[-1], per_check):
            at = np.arange(i, min(i + per_check, cum[-1]))
            c = np.searchsorted(cum, at, "right")  # the classes of hits at
            h = hits[at - cum[c] + n[c] + first[c]] - a[c] - d[c] * ra[c]
            c, h = c[h % d[c] == 0], h[h % d[c] == 0]
            leave(row[c], base[c] + cycle * (ra[c] + h // d[c]))
        cls = cls[:, best[row] > horizon]
        lo, hi = hi, min(3 * hi - 2 * lo, horizon + 1)
    return [int(p) if p <= horizon else None for p in best], codes


def period_census(num_tape_spins: int, phi0: float, alpha: float,
                  max_cycles: int, tol: float = 1e-9) -> dict:
    """detect_period_numeric for every pattern of a tape size at once.

    Patterns go through in batches whose keys of four cycles, the most
    _find_periods holds per pattern, fill CENSUS_WINDOW, and each batch
    passes the codes that match on to the next. Returns {pattern: period
    or None} in canonical order.
    """
    pats = all_patterns(num_tape_spins)
    batch = max(1, CENSUS_WINDOW // (8 * num_tape_spins))
    periods, codes = [], None
    for lo in range(0, len(pats), batch):
        index = np.arange(lo, min(lo + batch, len(pats)))
        # the slice extends periods, so no batch's list outlives its call
        periods[len(periods):], codes = _find_periods(
            _signs(index, num_tape_spins), phi0, alpha, max_cycles, tol, codes)
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


def _classes(weights, num, phi0, alpha, steps):
    """The (S, K) classes of the patterns of nonzero weight of M = num tape
    spins and their weighted rows: (S, K, coef), S and K of shape (G, 1)
    like the last column of _cycle_table, and coef of shape (2G, width, 2),
    width = min(2M, steps + 1) the steps of a cycle the run reaches. K is a
    sum of M spin signs times S and the first sign is +1, so each S has at
    most M values of K, and G <= 2M.

    Every pattern of a class starts its cycles at the same angle theta,
    and is at s*theta + o*alpha at step j of a cycle, s and o its column j
    of _cycle_table. So y = sum w*(s*sin(theta)*cos(o) + cos(theta)*sin(o))
    and z = sum w*(s*sin(theta)*sin(o) - cos(theta)*cos(o)) are, per class,
    sin(theta) times its row [sum s*w*cos o | sum s*w*sin o] plus
    cos(theta) times its row [sum w*sin o | -sum w*cos o], both held as
    (y, z) pairs per step j. The weights are binned by (S, K, j, s, o),
    about BATCH // M patterns at a time, and each bin meets the sin and cos
    of its offset o once.
    """
    width, span = min(2 * num, steps + 1), 2 * num + 1  # |K|, |o| <= M
    bins = np.zeros((2, span, width, 2, span))  # (S, K + M, j, s, o + M)
    used = np.flatnonzero(weights)
    for index in np.array_split(used, len(used) * num // BATCH + 1):
        sign, offset = _run_table(_signs(index, num), phi0, alpha, steps)
        flip, at = (1 - sign) // 2, offset.astype(int) + num
        np.add.at(bins, (flip[:, -1:], at[:, -1:], np.arange(width),
                         flip[:, :width], at[:, :width]), weights[index, None])
    # an offset no step of the run reaches may overflow at a huge alpha
    o = np.where(bins.any(axis=(0, 1, 2, 3)), np.arange(span) - num, 0) * alpha
    flips, k = np.nonzero(bins.any(axis=(2, 3, 4)))
    part = (bins @ np.stack([np.cos(o), np.sin(o)], axis=1))[flips, k]
    return 1 - 2 * flips[:, None], k[:, None] - float(num), np.concatenate([
        part[:, :, 0] - part[:, :, 1],  # part: class, j, s, (cos o, sin o)
        (part[:, :, 0] + part[:, :, 1]) @ [[0, -1], [1, 0]]])


def superpose(weights, phi0: float, alpha: float, steps: int) -> Trajectory:
    """Head trajectory of a product state from its primitive weights.

    Sums the Bloch vectors of all 2**M primitives with the given weights at
    every step. Exact for any product initial state because relative
    phases between primitives never reach the head observable. The
    patterns of one (S, K) class share their cycle starts theta (see
    _classes), so sin and cos are taken once per class and cycle start,
    and a block of cycles is one (cycles x 2G) @ (2G x 4M) product, written
    into the trajectory in step order. Memory is O(2**M) for the weights,
    O(M**3) for the bins of _classes and O(steps) for the trajectory.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 2 or weights.size & (weights.size - 1):
        raise ConfigurationError("weight vector must have length 2**M, M >= 1")
    if not (weights.min() >= -1e-15 and abs(weights.sum() - 1.0) <= 1e-12):
        raise ConfigurationError("weights must be nonnegative and sum to 1")
    check_count(steps, 0, "step count must be >= 0")
    num = weights.size.bit_length() - 1
    big_s, big_k, coef = _classes(weights, num, phi0, alpha, steps)
    # a row is a cycle, unless the run ends inside its first one
    bloch = np.zeros((steps // (2 * num) + 1, coef.shape[1], 3))
    for p in np.array_split(np.arange(len(bloch)), steps // BATCH + 1):
        theta = _angles(*_cycle_starts(big_s, big_k, p), phi0, alpha)
        bloch[p, :, 1:] = np.tensordot(
            np.vstack([np.sin(theta), np.cos(theta)]), coef, (0, 0))
    return Trajectory(bloch.reshape(-1, 3)[:steps + 1], num)


def run(config: MachineConfig) -> Trajectory:
    """Primitive superposition for a MachineConfig, as a drop-in for the
    state-vector engine. Valid only for the plain flip variant; any tape,
    spec string or amplitude array, is decomposed."""
    if config.variant != VARIANT_X:
        raise ConfigurationError(
            "the primitives engine covers the plain flip variant only")
    # per pattern its weight and, if nonzero, its index (16 bytes); the bins
    # of _classes, 4*width*(2M + 1)**2 doubles; 160 bytes per BATCH for the
    # larger of a batch, BATCH // M patterns of 2M + 1 entries at 64 bytes
    # an entry (measured: at most 46), and a block of about BATCH steps at
    # 80 bytes a step (measured: 66-68), as each is freed before the other;
    # per step the trajectory row of 3 doubles (24) and at most 4 bytes of
    # the cycle numbers of the blocks. A few tens of KiB of fixed overhead
    # are left out.
    num, steps = config.num_tape_spins, config.steps
    check_fits((16 << num) + 32 * min(2 * num, steps + 1) * (2 * num + 1) ** 2
               + 160 * BATCH + 28 * (steps + 1), f"{steps} steps of the "
               f"primitive superposition of {num} tape spins")
    return superpose(decompose(config.resolved_initial()), config.phi0,
                     config.alpha, steps)
