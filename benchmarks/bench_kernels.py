"""Timing comparison of the gate kernel backends.

Runs the head rotation, the controlled flip of spin 1 (runs of one
amplitude) and of spin M (runs of a quarter of the state), the M flips of
one cycle (spins 1..M) in each variant, plain and signed, and a machine
cycle over a range of tape sizes for every available backend (compiled
extension, numpy fallback) and prints per-call times plus the speedup.
The two backends must agree numerically, so the benchmark also
cross-checks the final state. At M=16 and 18 a pair row per backend
times one cycle of the rotate-and-flip pairs of kernels.pair_kernels
(fused on the numpy kernels) against rotate_head, the flip and head_cross
called one after the other, in each variant, and checks that both leave
the same state bits and cross terms. Two end-to-end rows follow:
engine.run at M=8 over 20,000 steps per backend (its first cycle gate by
gate, the rest in rotate-and-flip pairs), in steps/s, and the CSV and
JSON writers on its 20,001-row trajectory.

Usage: python benchmarks/bench_kernels.py [--max-tape-size 20] [--repeats 5]
"""

import argparse
import contextlib
import math
import os
import tempfile
import time

import numpy as np

from qtm import MachineConfig, io, kernels, run
from qtm.kernels import available_backends
from qtm.state import StateVector, head_cross, make_product_state

LOOP_TAPE = "11000011"
LOOP_STEPS = 20000


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
    return the same cross terms."""
    alpha = math.pi / math.sqrt(3.0)
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    start = make_product_state(0.3, ("+-01" * 5)[:num_tape_spins]).amplitudes
    flip = getattr(mod, {"x": "cnot_flip", "iy": "cnot_signed_flip"}[variant])
    spins = range(1, num_tape_spins + 1)

    def paired(amps):
        pair = kernels.pair_kernels(amps, variant)
        return [pair[mu](c, s) for mu in spins]

    def by_name(amps):
        crosses = []
        for mu in spins:
            mod.rotate_head(amps, c, s)
            flip(amps, mu)
            crosses.append(head_cross(StateVector(num_tape_spins, amps)))
        return crosses

    best, out = [math.inf, math.inf], []
    with bound(mod):
        for i, cycle in enumerate((paired, by_name)):
            for _ in range(repeats):
                amps = start.copy()
                t0 = time.perf_counter()
                crosses = cycle(amps)
                best[i] = min(best[i], time.perf_counter() - t0)
            out.append(amps.tobytes() + np.array(crosses).tobytes())
    return best[0], best[1], out[0] == out[1]


def bench_loop(mod, repeats):
    """(best time, trajectory) of engine.run at M=8 on LOOP_TAPE over
    LOOP_STEPS steps, a run too large for the cycle matrix, with mod's
    kernels: the numpy ones make it take the fused pairs of
    _kernels_py.pairs after its first cycle."""
    cfg = MachineConfig.uniform(len(LOOP_TAPE), math.pi / math.sqrt(3.0),
                                initial=LOOP_TAPE, steps=LOOP_STEPS)
    best = math.inf
    with bound(mod):
        for _ in range(repeats):
            t0 = time.perf_counter()
            traj = run(cfg)
            best = min(best, time.perf_counter() - t0)
    return best, traj


def bench_writers(traj, repeats):
    """Best times of write_trajectory_csv and write_trajectory_json on
    traj, written into a temporary directory."""
    best = [math.inf, math.inf]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t")
        writers = (lambda: io.write_trajectory_csv(traj, path),
                   lambda: io.write_trajectory_json(traj, {}, path))
        for _ in range(repeats):
            for i, write in enumerate(writers):
                t0 = time.perf_counter()
                write()
                best[i] = min(best[i], time.perf_counter() - t0)
    return tuple(best)


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

    for m in (16, 18):
        print(f"\nrotate-and-flip pairs, one cycle, M={m}")
        for name, mod in backends.items():
            for variant in ("x", "iy"):
                paired, by_name, same = bench_pairs(mod, m, variant,
                                                    args.repeats)
                print(f"  {name:>8} {variant:>2}: pairs {paired * 1e3:7.2f} ms"
                      f"   rotate+flip+head_cross {by_name * 1e3:7.2f} ms"
                      f"   {by_name / paired:5.2f} x   bit-equal: {same}")

    print(f"\nengine.run, M={len(LOOP_TAPE)} on {LOOP_TAPE}, "
          f"{LOOP_STEPS:,} steps")
    trajs = {}
    for name, mod in backends.items():
        best, trajs[name] = bench_loop(mod, args.repeats)
        print(f"  {name:>8}: {best * 1e3:9.1f} ms   "
              f"{LOOP_STEPS / best:12,.0f} steps/s")
    same = len({t.bloch.tobytes() for t in trajs.values()}) == 1
    print(f"  trajectories bit-equal across backends: {same}")
    csv_s, json_s = bench_writers(trajs["numpy"], args.repeats)
    print(f"\nwriters, {LOOP_STEPS + 1:,} rows: csv {csv_s * 1e3:.1f} ms   "
          f"json {json_s * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
