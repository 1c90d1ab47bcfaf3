"""Benchmark of qtm's trajectory paths, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {wide_tape,long_horizon,census}
                             --seed N --seconds S --trace {0,1}

The run pins numpy's BLAS and OpenMP pools to one thread, times set-up in
fresh processes, then calls qtm.cli.main in this process for whole rounds
of the workload's operations until S seconds have passed, checking every
output. Times are read against a reference computation gauged around each
operation (reference.py). The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end ones with
--trace 0, per-layer ones with --trace 1). See perfbench/README.md for the
metrics and the statistics behind them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
KERNEL_ROW_TAPE_SIZE = 18
KERNEL_ROW_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "kernels.rotate_s": "s", "kernels.flip_s": "s", "kernels.flip_iy_s": "s",
    "kernels.calls": "count", "kernels.bytes_computed": "B",
    "kernels.gbps_computed": "GB/s", "kernels.alloc_peak_mib": "MiB",
    "kernels.numpy.rotate_s": "s", "kernels.numpy.flip_s": "s",
    "kernels.numpy.cycle_s": "s",
    "state.prep_s": "s", "state.head_bloch_s": "s",
    "state.head_bloch_per_step": "1/step", "state.norm_s": "s",
    "state.norm_calls": "count",
    "gates.self_s": "s", "engine.self_s": "s", "engine.steps_per_s": "1/s",
    "primitives.evolve_s": "s", "primitives.census_self_s": "s",
    "primitives.patterns_per_s": "1/s", "primitives.classify_s": "s",
    "primitives.superpose_self_s": "s", "primitives.angles_stored": "count",
    "primitives.alloc_peak_mib": "MiB",
    "recursion.run_s": "s", "analysis.fit_s": "s", "analysis.spectrum_s": "s",
    "io.write_s": "s", "io.bytes": "B", "cli.self_s": "s",
    "setup.import_s": "s", "trace.overhead_s": "s",
    "host.reference_s": "s", "wall_raw_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("wide_tape", "long_horizon", "census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the time the first operation would "
                    "start, and exit (used to time set-up in fresh processes)")
    return ap.parse_args(argv)


def pin_threads():
    """One core per run: numpy's vdot reductions would otherwise split over
    OpenBLAS threads and make both timing and trajectory bits depend on the
    thread count. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QTM_THREADS", None)  # classify --all stays single-threaded


def import_program():
    """Import numpy and qtm from this checkout's src/; returns seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import qtm.cli

    took = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(qtm.__file__))
    if where != os.path.join(ROOT, "src", "qtm"):
        raise ImportError(f"qtm was imported from {where}, not from {ROOT}/src")
    return took


def call_cli(argv):
    """qtm.cli.main(argv) with its stderr captured; returns (exit code,
    stderr text)."""
    from qtm import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
    return rc, err.getvalue()


class EngineTap:
    """Keeps the Trajectory engine.run returns, so a check can read the
    norm drift the CLI does not write out."""

    def __init__(self):
        from qtm import engine

        self.last = None
        orig = engine.run

        def run(config):
            self.last = orig(config)
            return self.last

        engine.run = run


def time_setup(args):
    """Set-up time of SETUP_PROBES fresh benchmark processes, one after
    another, each setting up exactly as a run does and reporting when its
    first timed operation would start. The host is gauged before the first
    process and after each. Returns per process (seconds from spawn to that
    moment read against the host's speed around it, the same in raw
    seconds, the process's import time)."""
    import reference

    ref = reference.SETUP_REFERENCE
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    probes = []
    before = reference.gauge(ref)
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        raw = probe["ready"] - t0
        after = reference.gauge(ref)
        probes.append((reference.at_reference_speed(ref, raw,
                                                    (before + after) / 2),
                       raw, probe["import_s"]))
        before = after
    return probes


def kernel_rows():
    """One bench_backend row per kernel backend at the wide_tape size; the
    backends' final states must agree exactly."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from bench_kernels import bench_backend
    from qtm.kernels import available_backends

    rows, finals = {}, {}
    for name, mod in available_backends().items():
        rot, flip, cycle, amps = bench_backend(mod, KERNEL_ROW_TAPE_SIZE,
                                               KERNEL_ROW_REPEATS)
        rows[name] = {"rotate_s": rot, "flip_s": flip, "cycle_s": cycle}
        finals[name] = amps
    ref = finals["numpy"]
    agree = all(bool((amps == ref).all()) for amps in finals.values())
    return rows, agree


def run_rounds(args, workload, tracer, tap, log):
    """Whole rounds until `args.seconds` have passed since the first timed
    operation. With a tracer, rounds alternate untraced / traced, and one
    last round measures allocation peaks instead of time."""
    state = {"attempted": 0, "failed": 0, "correct": True}
    kinds = ["plain"] if tracer is None else ["plain", "traced"]
    rounds = []
    t_start = time.perf_counter()
    while True:
        kind = kinds[len(rounds) % len(kinds)]
        rounds.append(one_round(args.workload, workload, kind, tracer, tap,
                                state, log))
        if (time.perf_counter() - t_start >= args.seconds
                and len(rounds) >= len(kinds)):
            break
    if tracer is not None:
        rounds.append(one_round(args.workload, workload, "alloc", tracer, tap,
                                state, log))
    return rounds, state


def one_round(name, workload, kind, tracer, tap, state, log):
    """Run and check every operation once. Untraced rounds gauge the host
    before each timed operation and after the last one. Traced rounds trace
    the timed operations only, so the layers add up to what wall_s
    measures."""
    import checks
    import reference

    ref = reference.REFERENCES[name]
    timed_ops = workload.ops_timed
    times, gauges = {}, []
    if kind != "plain":
        tracer.reset()
        tracer.keep_spans = kind == "traced" and not tracer.spans
        tracer.measure_alloc = kind == "alloc"
    for op in workload.ops:
        state["attempted"] += 1
        tap.last = None
        if kind == "plain" and op.timed:
            gauges.append(reference.gauge(ref))
        traced = kind != "plain" and op.timed
        if traced:
            tracer.install()
            frame = tracer.enter("cli.main")
        t0 = time.perf_counter()
        try:
            rc, err = call_cli(op.argv)
        finally:
            times[op.name] = time.perf_counter() - t0
            if traced:
                tracer.exit(frame)
                tracer.uninstall()
        if kind == "plain" and op is timed_ops[-1]:
            gauges.append(reference.gauge(ref))
        if traced:
            tracer.counters["io.bytes"] += sum(
                os.path.getsize(p) for p in op.outputs if os.path.exists(p))
        if rc != 0:
            state["failed"] += 1
            log.append({"op": op.name, "exit": rc, "stderr": err.strip()})
            continue
        try:
            op.check(op, tap.last)
        except (checks.CheckFailed, *checks.MALFORMED) as exc:
            state["failed"] += 1
            state["correct"] = False
            log.append({"op": op.name, "check_failed": str(exc)})
            print(f"perfbench: {op.name}: {exc}", file=sys.stderr)
        for path in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    scaled = None
    if kind == "plain":
        # each timed operation is read against the mean of the gauges
        # taken right before and right after it
        scaled = {op.name: reference.at_reference_speed(
                      ref, times[op.name], (gauges[i] + gauges[i + 1]) / 2)
                  for i, op in enumerate(timed_ops)}
    return {"kind": kind, "times": times, "scaled": scaled, "gauges": gauges,
            "layers": tracer.layers() if kind == "traced" else None,
            "allocs": tracer.alloc_layers() if kind == "alloc" else None}


def op_medians(rounds, kind, timed_ops, key="times"):
    """Median over rounds of each timed operation's wall time."""
    return {name: statistics.median(r[key][name] for r in rounds
                                    if r["kind"] == kind)
            for name in timed_ops}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_threads()
    import_s = import_program()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        oracles = workloads.Oracles()
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir, oracles)
        for argv_ in workload.warmup:
            rc, err = call_cli(argv_)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv_} exited {rc}: {err}")
        if args.setup_probe:
            print(json.dumps({"ready": time.time(), "import_s": import_s}))
            return 0

        tap = EngineTap()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        log = []
        probes = time_setup(args)
        rounds, state = run_rounds(args, workload, tracer, tap, log)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    timed = [op.name for op in workload.ops_timed]
    raw = op_medians(rounds, "plain", timed)
    scaled = op_medians(rounds, "plain", timed, key="scaled")
    wall_s = sum(scaled.values())
    setup_s, setup_raw_s, import_s = (statistics.median(p[i] for p in probes)
                                      for i in range(3))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "rounds": rounds, "setup_probes": probes,
              "log": log, "op_median_s": raw, "op_median_scaled_s": scaled,
              "wall_raw_s": sum(raw.values()), "setup_raw_s": setup_raw_s}
    if args.trace:
        traced = op_medians(rounds, "traced", timed)
        rows, agree = kernel_rows()
        state["correct"] = state["correct"] and agree
        layer_rounds = [r["layers"] for r in rounds if r["kind"] == "traced"]
        metrics = {name: statistics.median(lr[name] for lr in layer_rounds)
                   for name in layer_rounds[0]}
        metrics.update(next(r["allocs"] for r in rounds if r["kind"] == "alloc"))
        for field, value in rows["numpy"].items():
            metrics[f"kernels.numpy.{field}"] = value
        metrics["setup.import_s"] = import_s
        metrics["trace.overhead_s"] = sum(traced.values()) - sum(raw.values())
        metrics["host.reference_s"] = statistics.median(
            g for r in rounds for g in r["gauges"])
        metrics["wall_raw_s"] = sum(raw.values())
        units = PER_LAYER_UNITS
        record.update(kernel_rows=rows, spans=tracer.spans)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": wall_s, "peak_rss_mib": peak_kib / 1024.0,
                   "setup_s": setup_s}
        units = END_TO_END_UNITS
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": state["correct"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
