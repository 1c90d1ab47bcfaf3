"""Timing comparison of the gate kernel backends.

Runs the head rotation, the controlled flip of spin 1 (runs of one
amplitude) and of spin M (runs of a quarter of the state), the M flips of
one cycle (spins 1..M) in each variant, plain and signed, and a machine
cycle over a range of tape sizes for every available backend (compiled
extension, numpy fallback) and prints per-call times plus the speedup.
The two backends must agree numerically, so the benchmark also
cross-checks the final state. At M=8, where a pair's cost is its calls,
and at M=16 and 18, a pair row per backend times one cycle of the
rotate-and-flip pairs of kernels.pair_kernels (fused on the numpy
kernels) against rotate_head, the flip and head_cross called one after
the other, in each variant, and checks that both leave the same state
bits and cross terms; the run exits non-zero if they do not. At M=6-8,
where engine.run takes its ring of states, a ring row per backend times
one cycle of the out-of-place pairs of kernels.ring_kernels with the
cycle's three np.vecdot reductions (cross terms, p0 and p1, norm²)
against one cycle of the in-place pairs with their cross terms and the
_vdot of p0, p1 and norm², in each variant, and checks that both give
the same state, cross terms, p0, p1 and norm² bits; the run exits
non-zero if they do not. Two end-to-end rows follow: engine.run at M=6
and M=8 over 20,000 steps per backend (its first cycle gate by gate, the
rest around the ring), in steps/s, and the writers: CSV and JSON on the
M=8 run's 20,001-row trajectory and
on its first 101 rows, where a call's fixed cost shows, and the spectrum
CSV of its first 4,096 rows. Then a census row at M=12 and M=14:
primitives.period_census over CENSUS_CYCLES cycles and io.write_census on
its periods, the two halves of classify --all, each with its best time
and the minor page faults (ru_minflt) of each call. Last, a windows row
per backend at M=2-5: engine.run over WINDOW_STEPS steps on the cycle
matrix path, split into the build of U (_cycle_matrix), the replay of the
gates over the stacked cycle starts (_replay) and the chain (the rest of
_run_windows: U^R's squarings, the extended-precision products of every
R-th cycle start, each window's norm check and the column fill after the
last window), with R.

Usage: python benchmarks/bench_kernels.py [--max-tape-size 20] [--repeats 5]
"""

import argparse
import contextlib
import math
import os
import resource
import tempfile
import time

import numpy as np

from qtm import MachineConfig, analysis, engine, io, kernels, primitives, run
from qtm.engine import Trajectory
from qtm.kernels import available_backends
from qtm.state import (StateVector, _vdot, aligned_empty, head_cross,
                       make_product_state)

LOOP_TAPE = "11000011"
LOOP_STEPS = 20000
WIDE_ROWS = 101  # perfbench's wide_tape runs write 21 and 101 rows
SPECTRUM_ROWS = 4096  # as perfbench's long_horizon spectrum
CENSUS_CYCLES = 200
WINDOW_STEPS = 20000  # as perfbench's long_horizon runs at M = 3 and 4


def bench_backend(mod, num_tape_spins, repeats):
    """(rotate, flip, cycle, amps): best times of one rotation, one flip of
    spin 1 and one machine cycle on an all-zeros tape, and the state they
    leave."""
    alpha = math.pi / math.sqrt(3.0)
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    state = make_product_state(0.0, "0" * num_tape_spins)
    amps = state.amplitudes
    best_rot = math.inf
    best_flip = math.inf
    cycle_best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        mod.rotate_head(amps, c, s)
        best_rot = min(best_rot, time.perf_counter() - t0)

        t0 = time.perf_counter()
        mod.cnot_flip(amps, 1)  # worst stride: runs of one amplitude
        best_flip = min(best_flip, time.perf_counter() - t0)

        t0 = time.perf_counter()
        for mu in range(1, num_tape_spins + 1):
            mod.rotate_head(amps, c, s)
            mod.cnot_flip(amps, mu)
        cycle_best = min(cycle_best, time.perf_counter() - t0)
    return best_rot, best_flip, cycle_best, amps


def bench_top_flip(mod, num_tape_spins, repeats):
    """Best time of one flip of spin M, whose runs are a quarter of the
    state: the longest."""
    amps = make_product_state(0.0, "0" * num_tape_spins).amplitudes
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        mod.cnot_flip(amps, num_tape_spins)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cycle_flips(mod, num_tape_spins, repeats):
    """(plain, signed): best times of the flips of spins 1..M, one
    cycle's flips, with cnot_flip and with cnot_signed_flip."""
    amps = make_product_state(0.0, "0" * num_tape_spins).amplitudes
    best = [math.inf, math.inf]
    for _ in range(repeats):
        for i, flip in enumerate((mod.cnot_flip, mod.cnot_signed_flip)):
            t0 = time.perf_counter()
            for mu in range(1, num_tape_spins + 1):
                flip(amps, mu)
            best[i] = min(best[i], time.perf_counter() - t0)
    return tuple(best)


@contextlib.contextmanager
def bound(mod):
    """mod's kernels bound to the kernels module's names, as engine.run
    and kernels.pair_kernels look them up."""
    names = ("rotate_head", "cnot_flip", "cnot_signed_flip")
    saved = [getattr(kernels, name) for name in names]
    try:
        for name in names:
            setattr(kernels, name, getattr(mod, name))
        yield
    finally:
        for name, kernel in zip(names, saved):
            setattr(kernels, name, kernel)


def bench_pairs(mod, num_tape_spins, variant, repeats):
    """(paired, by_name, same): best times of one cycle of the pairs of
    kernels.pair_kernels with mod's kernels bound, and of the same cycle as
    rotate_head, the flip and head_cross one after the other, each from a
    copy of one state; same is whether both leave the same state bits and
    return the same cross terms. The binding, once per run, is not
    timed."""
    alpha = math.pi / math.sqrt(3.0)
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    start = make_product_state(0.3, ("+-01" * 5)[:num_tape_spins]).amplitudes
    flip = getattr(mod, {"x": "cnot_flip", "iy": "cnot_signed_flip"}[variant])
    spins = range(1, num_tape_spins + 1)

    def paired(amps):
        pair = kernels.pair_kernels(amps, variant, c, s)
        return lambda: [pair[mu]() for mu in spins]

    def by_name(amps):
        def cycle():
            crosses = []
            for mu in spins:
                mod.rotate_head(amps, c, s)
                flip(amps, mu)
                crosses.append(head_cross(StateVector(num_tape_spins, amps)))
            return crosses
        return cycle

    best, out = [math.inf, math.inf], []
    with bound(mod):
        for i, bind in enumerate((paired, by_name)):
            for _ in range(repeats):
                amps = start.copy()
                cycle = bind(amps)
                t0 = time.perf_counter()
                crosses = cycle()
                best[i] = min(best[i], time.perf_counter() - t0)
            out.append(amps.tobytes() + np.array(crosses).tobytes())
    return best[0], best[1], out[0] == out[1]


def bench_ring(mod, num_tape_spins, variant, repeats):
    """(ring, in_place, same): best times of one cycle of engine._run_ring's
    work, the pairs of kernels.ring_kernels around a ring of states with
    mod's kernels bound and the cycle's three np.vecdot reductions (cross
    terms, p0 and p1 of the cycle end, its norm²), and of
    engine._run_pairs' work on the same cycle, the in-place pairs of
    kernels.pair_kernels returning their cross terms and the _vdot of p0,
    p1 and the norm², each from one state; same is whether both give the
    same bits of the state and of those values. The binding, once per
    run, is not timed."""
    alpha = math.pi / math.sqrt(3.0)
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    start = make_product_state(
        0.3, ("+-01" * 2)[:num_tape_spins]).amplitudes
    size, half = start.size, start.size // 2
    spins = range(1, num_tape_spins + 1)

    def ring_cycle():
        ring = aligned_empty((num_tape_spins, size))
        ring[-1] = start
        pair = kernels.ring_kernels(ring, variant, c, s)
        heads = ring.reshape(num_tape_spins, 2, half)
        crosses = np.empty(num_tape_spins, complex)
        p, norm = np.empty(2, complex), np.empty(1, complex)

        def cycle():
            for mu in spins:
                pair[mu]()
            np.vecdot(heads[:, 0], heads[:, 1], crosses)
            np.vecdot(heads[-1], heads[-1], p)
            np.vecdot(ring[-1:], ring[-1:], norm)
            return ring[-1], crosses + 0j, p.real, norm.real
        return cycle

    def in_place_cycle():
        amps = aligned_empty(size)
        amps[:] = start
        pair = kernels.pair_kernels(amps, variant, c, s)
        a0, a1 = amps[:half], amps[half:]

        def cycle():
            crosses = [pair[mu]() for mu in spins]
            p = [_vdot(a0, a0).real, _vdot(a1, a1).real]
            return amps, crosses, p, [_vdot(amps, amps).real]
        return cycle

    best, out = [math.inf, math.inf], []
    with bound(mod):
        for i, bind in enumerate((ring_cycle, in_place_cycle)):
            for _ in range(repeats):
                cycle = bind()
                t0 = time.perf_counter()
                result = cycle()
                best[i] = min(best[i], time.perf_counter() - t0)
            out.append(b"".join(np.asarray(v).tobytes() for v in result))
    return best[0], best[1], out[0] == out[1]


def bench_loop(mod, tape, repeats):
    """(best time, trajectory) of engine.run on tape over LOOP_STEPS steps,
    a run too large for the cycle matrix, with mod's kernels: at M = 6-8
    it goes around a ring of states after its first cycle, in the fused
    pairs of _kernels_py.ring_pairs with the numpy kernels."""
    cfg = MachineConfig(len(tape), math.pi / math.sqrt(3.0), initial=tape,
                        steps=LOOP_STEPS)
    best = math.inf
    with bound(mod):
        for _ in range(repeats):
            t0 = time.perf_counter()
            traj = run(cfg)
            best = min(best, time.perf_counter() - t0)
    return best, traj


def bench_writers(traj, repeats):
    """{case: best time} of the table writers into a temporary directory:
    write_trajectory_csv and write_trajectory_json on traj's rows and on
    its first WIDE_ROWS, the size of a wide-tape run's file, where the
    fixed cost of a call shows, and write_table on the spectrum of its
    first SPECTRUM_ROWS rows, as the spectrum command writes it."""
    short = Trajectory(traj.bloch[:WIDE_ROWS], traj.num_tape_spins)
    spec = analysis.spectrum(Trajectory(traj.bloch[:SPECTRUM_ROWS],
                                        traj.num_tape_spins))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t")
        writers = {
            f"csv, {len(traj.bloch):,} rows":
                lambda: io.write_trajectory_csv(traj, path),
            f"json, {len(traj.bloch):,} rows":
                lambda: io.write_trajectory_json(traj, {}, path),
            f"csv, {WIDE_ROWS} rows":
                lambda: io.write_trajectory_csv(short, path),
            f"json, {WIDE_ROWS} rows":
                lambda: io.write_trajectory_json(short, {}, path),
            f"spectrum csv, {SPECTRUM_ROWS:,} rows":
                lambda: io.write_table(
                    path, "frequency,magnitude_y,magnitude_z",
                    [spec.frequencies, spec.magnitude_y, spec.magnitude_z])}
        best = dict.fromkeys(writers, math.inf)
        for _ in range(repeats):
            for name, write in writers.items():
                t0 = time.perf_counter()
                write()
                best[name] = min(best[name], time.perf_counter() - t0)
    return best


def bench_census(num_tape_spins, repeats):
    """((census, writer), (census faults, writer faults)): best times of
    period_census(M, 0.3, pi/sqrt(3), CENSUS_CYCLES) and of write_census
    on its periods into a temporary directory, as classify --all calls
    them, and the minor page faults of every call."""
    alpha = math.pi / math.sqrt(3.0)
    best, faults = [math.inf, math.inf], ([], [])

    def timed(i, call):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = call()
        best[i] = min(best[i], time.perf_counter() - t0)
        faults[i].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return result

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census.csv")
        for _ in range(repeats):
            periods = timed(0, lambda: primitives.period_census(
                num_tape_spins, 0.3, alpha, CENSUS_CYCLES))
            timed(1, lambda: io.write_census(path, periods))
    return tuple(best), faults


def bench_windows(mod, num_tape_spins, repeats):
    """(R, {phase: best time}) of engine.run at M=num_tape_spins <= 5 on a
    mixed tape over WINDOW_STEPS steps with mod's kernels: the whole run,
    and within it U's build (_cycle_matrix), the replay (_replay) and the
    chain, the rest of _run_windows (with its norm checks and its column
    fill)."""
    cfg = MachineConfig(num_tape_spins, math.pi / math.sqrt(3.0), phi0=0.3,
                        initial=("+-01" * 2)[:num_tape_spins],
                        steps=WINDOW_STEPS)
    names = ("_run_windows", "_cycle_matrix", "_replay")
    saved = {name: getattr(engine, name) for name in names}
    spent = {}

    def timed(name):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return saved[name](*args)
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
        return call

    best = {}
    try:
        for name in names:
            setattr(engine, name, timed(name))
        with bound(mod):
            for _ in range(repeats):
                spent.clear()
                t0 = time.perf_counter()
                run(cfg)
                phases = {"run": time.perf_counter() - t0,
                          "U": spent["_cycle_matrix"],
                          "chain": spent["_run_windows"]
                          - spent["_cycle_matrix"] - spent["_replay"],
                          "replay": spent["_replay"]}
                for phase, took in phases.items():
                    best[phase] = min(best.get(phase, math.inf), took)
    finally:
        for name, fn in saved.items():
            setattr(engine, name, fn)
    return engine._windows_schedule(cfg)[2], best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-tape-size", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    backends = available_backends()
    print(f"backends: {', '.join(backends)}")
    for m in sorted({m for m in (8, 12, 16, args.max_tape_size)
                     if m <= args.max_tape_size}):
        row = {}
        finals = {}
        for name, mod in backends.items():
            rot, flip, cyc, amps = bench_backend(mod, m, args.repeats)
            row[name] = (rot, flip, bench_top_flip(mod, m, args.repeats), cyc,
                         *bench_cycle_flips(mod, m, args.repeats))
            finals[name] = amps
        print(f"\nM={m} ({2 ** (m + 1)} amplitudes)")
        for name, (rot, flip, top, cyc, plain, signed) in row.items():
            print(f"  {name:>8}: rotate {rot * 1e6:9.1f} us   "
                  f"flip mu=1 {flip * 1e6:9.1f} us   "
                  f"flip mu=M {top * 1e6:9.1f} us   cycle {cyc * 1e3:8.2f} ms")
            print(f"  {'':>8}  flips mu=1..M {plain * 1e3:8.3f} ms   "
                  f"signed flips mu=1..M {signed * 1e3:8.3f} ms")
        if len(row) == 2:
            a, b = (row["numpy"], row["compiled"])
            print(f"  speedup : rotate {a[0] / b[0]:9.2f} x   "
                  f"flip mu=1 {a[1] / b[1]:9.2f} x   "
                  f"flip mu=M {a[2] / b[2]:9.2f} x   cycle {a[3] / b[3]:8.2f} x")
            print(f"  {'':>8}  flips mu=1..M {a[4] / b[4]:8.2f} x   "
                  f"signed flips mu=1..M {a[5] / b[5]:8.2f} x")
            diff = float(np.abs(finals["numpy"] - finals["compiled"]).max())
            print(f"  backend disagreement: {diff:.3e}")

    unequal = []
    for m in (8, 16, 18):
        print(f"\nrotate-and-flip pairs, one cycle, M={m}")
        for name, mod in backends.items():
            for variant in ("x", "iy"):
                paired, by_name, same = bench_pairs(mod, m, variant,
                                                    args.repeats)
                print(f"  {name:>8} {variant:>2}: pairs {paired * 1e3:8.3f} ms"
                      f"   rotate+flip+head_cross {by_name * 1e3:8.3f} ms"
                      f"   {by_name / paired:5.2f} x   bit-equal: {same}")
                if not same:
                    unequal.append(f"{name} {variant} M={m}")

    for m in (6, 7, 8):
        print(f"\nring of states against in-place pairs, one cycle with its"
              f" reductions, M={m}")
        for name, mod in backends.items():
            for variant in ("x", "iy"):
                ring, in_place, same = bench_ring(mod, m, variant,
                                                  args.repeats)
                print(f"  {name:>8} {variant:>2}: ring {ring * 1e3:8.3f} ms"
                      f"   in place {in_place * 1e3:8.3f} ms"
                      f"   {in_place / ring:5.2f} x   bit-equal: {same}")
                if not same:
                    unequal.append(f"ring {name} {variant} M={m}")

    for tape in (LOOP_TAPE[:6], LOOP_TAPE):
        print(f"\nengine.run, M={len(tape)} on {tape}, {LOOP_STEPS:,} steps")
        trajs = {}
        for name, mod in backends.items():
            best, trajs[name] = bench_loop(mod, tape, args.repeats)
            print(f"  {name:>8}: {best * 1e3:9.1f} ms   "
                  f"{LOOP_STEPS / best:12,.0f} steps/s")
        same = len({t.bloch.tobytes() for t in trajs.values()}) == 1
        print(f"  trajectories bit-equal across backends: {same}")
    print("\nwriters")
    for name, best in bench_writers(trajs["numpy"], args.repeats).items():
        print(f"  {name:>26}: {best * 1e3:7.2f} ms")

    print(f"\ncensus over {CENSUS_CYCLES} cycles, classify --all's two halves,"
          " minor page faults per call")
    for m in (12, 14):
        (census_s, write_s), faults = bench_census(m, args.repeats)
        print(f"  M={m}: period_census {census_s * 1e3:7.1f} ms "
              f"(faults {faults[0]})   write_census {write_s * 1e3:6.1f} ms "
              f"(faults {faults[1]})")
    print(f"\nwindows path, engine.run over {WINDOW_STEPS:,} steps: U's "
          "build, the chain of every R-th cycle start with the norm "
          "checks and the column fill, the replay")
    for m in range(2, 6):
        for name, mod in backends.items():
            every, best = bench_windows(mod, m, args.repeats)
            print(f"  M={m} {name:>8}: R={every:<3} "
                  + "   ".join(f"{phase} {took * 1e3:6.2f} ms"
                               for phase, took in best.items()))
    if unequal:
        raise SystemExit("pairs differ in bits from rotate+flip+head_cross"
                         " or from the ring: " + ", ".join(unequal))


if __name__ == "__main__":
    main()
