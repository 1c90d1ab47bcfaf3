"""The benchmark's workloads: qtm command lines made from a seed, each with
the check its output must pass.

One round is a fixed list of operations; every run repeats whole rounds,
so the share of failed operations is the same in every run. The seed
picks tape contents and head angles only. Tape sizes and step counts are
fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
from checks import PATH_TOL, check_close, require

ALPHA_EXPR = "pi/sqrt(3)"
ALPHA = math.pi / math.sqrt(3.0)


@dataclass
class Op:
    """One CLI call. `check(op, traj)` raises CheckFailed on a wrong output;
    traj is the Trajectory that engine.run returned during the call, if
    any. Operations with timed=False stay out of wall_s."""

    name: str
    argv: list
    out: str
    check: Callable
    timed: bool = True

    @property
    def outputs(self):
        return [self.out, self.out + ".manifest.json"]


@dataclass
class Workload:
    ops: list
    warmup: list = field(default_factory=list)

    @property
    def ops_timed(self):
        return [op for op in self.ops if op.timed]


class Oracles:
    """Expected values computed once per run, on first use, so their cost
    lands neither in set-up nor in a timed operation."""

    def __init__(self):
        self._cache = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _simulate(out, tape_size, steps, initial, phi0="0", engine="statevector",
              variant="x"):
    fmt = "json" if out.endswith(".json") else "csv"
    return ["simulate", "--tape-size", str(tape_size), "--alpha", ALPHA_EXPR,
            f"--phi0={phi0}", "--steps", str(steps), f"--initial={initial}",
            "--variant", variant, "--engine", engine, "--out", out,
            "--format", fmt]


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _angle(rng):
    # a generic head angle, written so the CLI parses exactly this double
    return f"{rng.uniform(0.05, 3.1):.6f}"


def _trajectory_check(tape_size, steps, expected, tol=PATH_TOL,
                      x_zero=False):
    """Check of a written trajectory: schedule labels, the three components
    against expected() within tol, lambda_x = 0 where the theory says so,
    and a state-vector run's norm drift within the engine's own bound."""

    def check(op, traj):
        m, n, p, bloch = checks.read_trajectory(op.out)
        checks.check_labels(m, n, p, tape_size, steps)
        if x_zero:
            check_close(bloch[:, 0], 0.0, PATH_TOL, "lambda_x")
        check_close(bloch, expected(), tol, op.name)
        if traj is not None:
            require(traj.norm_drift <= checks.NORM_TOL,
                    f"norm drift {traj.norm_drift:.3e}")

    return check


def wide_tape(seed, outdir, oracles):
    """State vector at M = 18 and 20 for tens to a hundred steps."""
    rng = random.Random(f"wide_tape:{seed}")
    ops = []

    def recursion_ref(tape_size, steps):
        from qtm.recursion import HeadRecursion
        return lambda: oracles.get(
            ("recursion", tape_size, steps),
            lambda: HeadRecursion(ALPHA).trajectory(steps, tape_size))

    for name, tape_size, steps, initial in (
            ("sv18_zeros", 18, 100, "zeros"),
            ("sv18_random", 18, 100, _bits(rng, 18)),
            ("sv20_random", 20, 20, _bits(rng, 20))):
        out = os.path.join(outdir, name + ".csv")
        # every computational tape of one size has the same trajectory,
        # so one recursion reference serves all of them
        ops.append(Op(name, _simulate(out, tape_size, steps, initial), out,
                      _trajectory_check(tape_size, steps,
                                        recursion_ref(tape_size, steps),
                                        x_zero=True)))
    warm = os.path.join(outdir, "warmup.csv")
    warmup = [_simulate(warm, 10, 20, "zeros")]
    return Workload(ops, warmup)


def long_horizon(seed, outdir, oracles):
    """Small tapes, 20k-step trajectories through every engine and the
    analysis commands, plus one run past the norm guard."""
    rng = random.Random(f"long_horizon:{seed}")
    ops = []
    steps = 20000

    def dense(tape_size, phi0, tape, variant, n):
        key = ("dense", tape_size, phi0, tape, variant, n)
        return lambda: oracles.get(key, lambda: checks.dense_trajectory(
            tape_size, ALPHA, float(phi0), tape, variant, n))

    # shared config A: M=3, all three simulate engines, CSV and JSON
    tape_a = _bits(rng, 3)
    phi_a = rng.choice(["0", "pi"])
    phi_a_val = 0.0 if phi_a == "0" else math.pi
    ref_a = dense(3, phi_a_val, tape_a, "x", steps)
    prim_tol = checks.primitive_path_tol(ALPHA, phi_a_val, steps)
    for engine, ext, tol in (("statevector", "csv", PATH_TOL),
                             ("recursion", "json", PATH_TOL),
                             ("primitives", "csv", prim_tol)):
        out = os.path.join(outdir, f"a_{engine}.{ext}")
        ops.append(Op(f"a_{engine}",
                      _simulate(out, 3, steps, tape_a, phi_a, engine), out,
                      _trajectory_check(3, steps, ref_a, tol, x_zero=True)))

    # shared config B: M=8; the primitive engine stores 2**8 x 20001 angles
    tape_b = _bits(rng, 8)

    def ref_b():
        return oracles.get(("angles", 8, steps), lambda: (
            checks.computational_trajectory(8, ALPHA, 0.0, steps)))

    prim_tol = checks.primitive_path_tol(ALPHA, 0.0, steps)
    for engine, tol in (("statevector", PATH_TOL), ("primitives", prim_tol)):
        out = os.path.join(outdir, f"b_{engine}.csv")
        ops.append(Op(f"b_{engine}", _simulate(out, 8, steps, tape_b, "0",
                                               engine), out,
                      _trajectory_check(8, steps, ref_b, tol, x_zero=True)))

    # signed flip on a tape that is not computational
    tape_c = "".join(rng.choice("01+-") for _ in range(4))
    phi_c = _angle(rng)
    out = os.path.join(outdir, "c_iy.json")
    ops.append(Op("c_iy", _simulate(out, 4, steps, tape_c, phi_c,
                                    variant="iy"), out,
                  _trajectory_check(4, steps,
                                    dense(4, phi_c, tape_c, "iy", steps))))

    # spectrum at M=3: Parseval against the dense trajectory
    tape_d, phi_d, n_d = _bits(rng, 3), _angle(rng), 4095
    out = os.path.join(outdir, "d_spectrum.csv")
    ref_d = dense(3, phi_d, tape_d, "x", n_d)
    ops.append(Op("d_spectrum", [
        "spectrum", "--tape-size", "3", "--alpha", ALPHA_EXPR,
        f"--phi0={phi_d}", "--steps", str(n_d), f"--initial={tape_d}",
        "--out", out], out, lambda op, _: checks.check_spectrum(op.out, ref_d())))

    # invariant circles at M=2: every dense-oracle point on a reported circle
    tape_e, phi_e, n_e = _bits(rng, 2), _angle(rng), 3000
    out = os.path.join(outdir, "e_invariants.json")
    ref_e = dense(2, phi_e, tape_e, "x", n_e)
    ops.append(Op("e_invariants", [
        "invariants", "--tape-size", "2", "--alpha", ALPHA_EXPR,
        f"--phi0={phi_e}", "--steps", str(n_e), f"--initial={tape_e}",
        "--out", out], out,
        lambda op, _: checks.check_invariants(op.out, ref_e(), 8)))

    # Past the norm guard: the flat 1e-12 bound is crossed at step 65,140 by
    # rounding drift that grows with the number of rotations, so this run
    # ends with exit 3. Fixed inputs, whatever the seed; kept out of wall_s.
    out = os.path.join(outdir, "f_past_guard.csv")
    ops.append(Op("f_past_guard", _simulate(out, 2, 66000, "zeros"), out,
                  _trajectory_check(2, 66000, dense(2, 0.0, "00", "x", 66000),
                                    x_zero=True),
                  timed=False))

    warm = os.path.join(outdir, "warmup")
    warmup = [
        _simulate(warm + ".csv", 3, 200, "zeros"),
        _simulate(warm + ".json", 3, 200, "zeros", engine="recursion"),
        _simulate(warm + ".csv", 3, 200, "zeros", engine="primitives"),
        _simulate(warm + ".json", 3, 200, "+-0", variant="iy"),
        ["spectrum", "--tape-size", "2", "--alpha", ALPHA_EXPR,
         "--steps", "63", "--out", warm + ".csv"],
        ["invariants", "--tape-size", "2", "--alpha", ALPHA_EXPR,
         "--steps", "200", "--out", warm + ".json"],
    ]
    return Workload(ops, warmup)


def census(seed, outdir, oracles):
    """classify --all at M=12: every one of the 4096 sign patterns."""
    rng = random.Random(f"census:{seed}")
    tape_size, max_cycles = 12, 200
    out = os.path.join(outdir, "census.csv")

    def check(op, _):
        checks.check_census(op.out, tape_size, oracles.get(
            ("census", tape_size), lambda: checks.census_periods(tape_size)))

    op = Op("census", ["classify", "--all", "--tape-size", str(tape_size),
                       "--alpha", ALPHA_EXPR, f"--phi0={_angle(rng)}",
                       "--max-cycles", str(max_cycles), "--out", out],
            out, check)
    warmup = [["classify", "--all", "--tape-size", "4", "--max-cycles", "10",
               "--out", os.path.join(outdir, "warmup.csv")]]
    return Workload([op], warmup)


WORKLOADS = {"wide_tape": wide_tape, "long_horizon": long_horizon,
             "census": census}
