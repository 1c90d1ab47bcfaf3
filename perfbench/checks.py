"""Output checks for the benchmark, computed apart from the program.

Nothing here compares against a stored copy of earlier output. Each check
either recomputes the expected values by an independent method or tests a
property the method must have:

* a dense-matrix oracle: every gate is a full 2**(M+1) square matrix built
  by tensoring single-site operators, the state evolves by plain
  matrix-vector products and the head Bloch vector is an expectation value
  of a dense operator (small M only);
* an exact angle-rule oracle for computational tapes: every sign pattern
  carries its head angle as sign*phi0 + k*alpha with integer k, so nothing
  accumulates rounding (+alpha on odd steps, reflection on a '-' site);
* the gap rule and the exact angle rule for the periodicity census;
* Parseval's identity for the spectrum and circle membership for the
  invariant circles.

A failed check raises CheckFailed; the caller counts the operation as
failed and the run as incorrect.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# head observables in the repository's convention: |0> has Bloch (0, 0, -1)
LX = np.array([[0, 1], [1, 0]], dtype=complex)
LY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
LZ = np.array([[-1, 0], [0, 1]], dtype=complex)
FLIP = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
        "iy": np.array([[0, -1], [1, 0]], dtype=complex)}
SITE = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2.0),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2.0),
}

# agreement demanded between two computation paths of one trajectory
PATH_TOL = 1e-9
# the engine refuses drift beyond this, so an accepted run must be within it
NORM_TOL = 1e-12
# fit_invariant_circles' own residual bound: a point must lie this close
CIRCLE_TOL = 1e-6
PARSEVAL_RTOL = 1e-9


class CheckFailed(Exception):
    """An output disagreed with its independent expectation."""


# what reading a missing, truncated or malformed output file raises; such
# an output fails its check like a wrong number does
MALFORMED = (OSError, ValueError, LookupError)


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- reading


def read_csv(path, columns):
    """Numeric CSV read with numpy, header checked against `columns`."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    require(header == columns, f"{path}: header {header!r}, expected {columns!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_trajectory(path):
    """(m, n, p, bloch) from a trajectory CSV or JSON file on disk."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            pts = np.array(json.load(fh)["points"], dtype=float)
        return pts[:, 0], None, None, pts[:, 1:]
    rows = read_csv(path, "m,n,p,lambda_x,lambda_y,lambda_z")
    return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:]


def check_labels(m, n, p, tape_size, steps):
    """Step labels follow the schedule m = n + 2M(p-1), row 0 is (0, 0, 0)."""
    expect = np.arange(steps + 1)
    require(len(m) == steps + 1, f"{len(m)} rows, expected {steps + 1}")
    require(np.array_equal(m, expect), "step column m is not 0..steps")
    if n is None:
        return
    cycle = 2 * tape_size
    en = np.where(expect == 0, 0, (expect - 1) % cycle + 1)
    ep = np.where(expect == 0, 0, (expect - 1) // cycle + 1)
    require(np.array_equal(n, en) and np.array_equal(p, ep),
            "schedule labels n, p disagree with m = n + 2M(p-1)")


def check_close(got, want, tol, what):
    err = float(np.abs(got - want).max())
    require(err <= tol, f"{what}: max deviation {err:.3e} exceeds {tol:.1e}")
    return err


# ---------------------------------------------------------- dense oracle


def _embed(u, bit, nbits):
    op = np.ones((1, 1), dtype=complex)
    for b in range(nbits):
        op = np.kron(u if b == bit else np.eye(2, dtype=complex), op)
    return op


def dense_trajectory(tape_size, alpha, phi0, tape, variant, steps):
    """Head Bloch vector at every step by dense matrices; tape is a spec
    over 0 1 + - with character k the tape spin k+1."""
    nbits = tape_size + 1
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    rot = c * np.eye(2 ** nbits) - 1j * s * _embed(LX, 0, nbits)
    p0 = _embed(np.diag([1, 0]).astype(complex), 0, nbits)
    p1 = _embed(np.diag([0, 1]).astype(complex), 0, nbits)
    gates = []
    for mu in range(1, tape_size + 1):
        gates.append(rot)
        gates.append(p0 @ _embed(FLIP[variant], mu, nbits) + p1)
    obs = [_embed(L, 0, nbits) for L in (LX, LY, LZ)]
    psi = np.array([math.cos(phi0 / 2.0), -1j * math.sin(phi0 / 2.0)])
    for ch in tape:
        psi = np.kron(SITE[ch], psi)
    states = np.empty((steps + 1, 2 ** nbits), dtype=complex)
    states[0] = psi
    for m in range(1, steps + 1):
        psi = gates[(m - 1) % len(gates)] @ psi
        states[m] = psi
    out = np.empty((steps + 1, 3))
    for j, op in enumerate(obs):
        out[:, j] = np.einsum("mi,mi->m", states.conj(), states @ op.T).real
    return out


# ------------------------------------------------------ exact angle rule


def patterns(tape_size):
    """All sign patterns in the canonical order ('+' < '-', spin 1 first)."""
    return ["".join(p) for p in itertools.product("+-", repeat=tape_size)]


def _minus_sites(pats):
    return np.array([[ch == "-" for ch in p] for p in pats])


def _angle_step(sign, k, minus, n):
    """Step n of a cycle: odd n adds alpha; even n reflects the angle on
    every pattern whose site n/2 reads '-'."""
    if n % 2:
        return sign, k + 1
    flip = np.where(minus[:, n // 2 - 1], -1, 1)
    return sign * flip, k * flip


def angle_rule(pats, steps):
    """Exact head angle sign*phi0 + k*alpha of each pattern at steps 0..steps,
    as integer arrays (sign, k) of shape (len(pats), steps+1)."""
    minus = _minus_sites(pats)
    cycle = 2 * minus.shape[1]
    sign = np.ones((len(pats), steps + 1), dtype=np.int64)
    k = np.zeros((len(pats), steps + 1), dtype=np.int64)
    for m in range(1, steps + 1):
        sign[:, m], k[:, m] = _angle_step(sign[:, m - 1], k[:, m - 1], minus,
                                          (m - 1) % cycle + 1)
    return sign, k


def computational_trajectory(tape_size, alpha, phi0, steps, block=1024):
    """Head trajectory of any computational tape from the exact angle rule.

    |0> and |1> both spread with weight 1/2 over '+' and '-', so every
    pattern carries weight 2**-M and the head is their Bloch average.
    """
    minus = _minus_sites(patterns(tape_size))
    cycle = 2 * tape_size
    sign = np.ones(len(minus), dtype=np.int64)
    k = np.zeros(len(minus), dtype=np.int64)
    out = np.zeros((steps + 1, 3))
    buf_s = np.empty((block, len(minus)), dtype=np.int64)
    buf_k = np.empty_like(buf_s)
    for lo in range(0, steps + 1, block):
        hi = min(steps + 1, lo + block)
        for m in range(lo, hi):
            if m:
                sign, k = _angle_step(sign, k, minus, (m - 1) % cycle + 1)
            buf_s[m - lo], buf_k[m - lo] = sign, k
        phi = buf_s[:hi - lo] * phi0 + buf_k[:hi - lo] * alpha
        out[lo:hi, 1] = np.sin(phi).mean(axis=1)
        out[lo:hi, 2] = -np.cos(phi).mean(axis=1)
    return out


def primitive_path_tol(alpha, phi0, steps):
    """Bound for the primitive engine, whose angles grow without reduction:
    steps/2 additions, each rounded by at most half an ulp of the largest
    angle, move sin and cos by at most their sum."""
    largest = abs(phi0) + (steps + 1) // 2 * abs(alpha)
    return max(PATH_TOL, steps * math.ulp(largest))


# ---------------------------------------------------------- census rules


def gap_rule_periodic(pattern):
    """Periodic for every alpha iff q is odd, or the even-index plus-runs
    sum to (M - q)/2."""
    gaps = [len(run) for run in pattern.split("-")]
    q = len(gaps) - 1
    return q % 2 == 1 or 2 * sum(gaps[0::2]) == len(pattern) - q


def census_periods(tape_size):
    """Smallest period in steps of each pattern, None when not periodic.

    A periodic pattern returns after two cycles, so its smallest period is
    the smallest divisor d of 4M under which the exact (sign, k) sequence
    repeats over a full 4M window.
    """
    pats = patterns(tape_size)
    two = 4 * tape_size
    sign, k = angle_rule(pats, 2 * two)
    divisors = [d for d in range(1, two + 1) if two % d == 0]
    out = {}
    for row, pat in enumerate(pats):
        if not gap_rule_periodic(pat):
            out[pat] = None
            continue
        for d in divisors:
            if (np.array_equal(sign[row, d:d + two], sign[row, :two])
                    and np.array_equal(k[row, d:d + two], k[row, :two])):
                out[pat] = d
                break
        else:
            raise CheckFailed(f"gap rule calls {pat} periodic but no period "
                              f"divides 4M = {two}")
    return out


def check_census(path, tape_size, expected):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    require(lines[0] == "pattern,kind,q,gaps,period",
            f"census header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    pats = patterns(tape_size)
    require([r[0] for r in rows] == pats,
            "census rows are not all patterns in canonical order")
    for pat, kind, q, gaps, period in rows:
        periodic = gap_rule_periodic(pat)
        require(kind == ("periodic" if periodic else "aperiodic"),
                f"{pat}: kind {kind}, gap rule says periodic={periodic}")
        runs = [len(run) for run in pat.split("-")]
        require(int(q) == len(runs) - 1 and gaps == ";".join(map(str, runs)),
                f"{pat}: q/gaps {q}/{gaps} disagree with the pattern")
        require((period != "") == periodic,
                f"{pat}: period {period!r} but gap rule says "
                f"periodic={periodic}")
        if periodic:
            require(int(period) == expected[pat],
                    f"{pat}: period {period}, the angle rule repeats first "
                    f"after {expected[pat]} steps")


# ------------------------------------------------ spectrum and invariants


def check_spectrum(path, traj):
    rows = read_csv(path, "frequency,magnitude_y,magnitude_z")
    n = len(traj)
    require(len(rows) == n, f"{len(rows)} spectrum rows for {n} points")
    require(np.array_equal(rows[:, 0], np.fft.fftfreq(n)),
            "frequency column is not the DFT grid")
    for col, what in ((1, "y"), (2, "z")):
        energy = float((traj[:, col] ** 2).sum())
        spec = float((rows[:, col] ** 2).sum())
        require(abs(spec - energy) <= PARSEVAL_RTOL * energy,
                f"Parseval fails on {what}: {spec!r} vs {energy!r}")
        mags = np.abs(np.fft.fft(traj[:, col])) / math.sqrt(n)
        check_close(rows[:, col], mags, PATH_TOL, f"{what} magnitude")


def check_invariants(path, traj, max_circles):
    with open(path, encoding="utf-8") as fh:
        fit = json.load(fh)
    centers = np.array(fit["centers"], dtype=float)
    require(1 <= len(centers) == fit["num_circles"] <= max_circles,
            f"{fit['num_circles']} circles reported, at most {max_circles}")
    dist = np.hypot(traj[:, None, 1] - centers[None, :, 0],
                    traj[:, None, 2] - centers[None, :, 1])
    worst = float(np.abs(dist - fit["radius"]).min(axis=1).max())
    require(worst <= CIRCLE_TOL,
            f"a trajectory point lies {worst:.3e} off every reported circle")
