"""Write the output of every CLI subcommand for a fixed list of configs.

Covers simulate with each engine (csv, json and svg, both flip variants),
primitives, classify --pattern and --all, decompose, spectrum and
invariants, at the benchmark's shapes (M=3, 4 and 8 over 20,000 steps, the
M=12 census over 200 cycles, M=18 over 100 steps), at M=7 over 3,000 steps,
M=14 (the largest state of one kernel block) over 100, M=16 (four blocks,
signed flips) over 101, and at a few small ones,
censuses at angles where most steps match step 0 (alpha = 0, 2*pi/3 and
pi/50), plus configurations and angle spellings the CLI refuses.
Every command runs in this process from inside OUTDIR with a relative
--out name, so the manifests, which record the command line, do not depend
on where OUTDIR is. Exit codes and stderr go to OUTDIR/exit_codes.txt.

Two checkouts that must give the same outputs are compared by running this
script against each and diffing the directories:

    PYTHONPATH=src python3 benchmarks/cli_outputs.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B
"""

import argparse
import contextlib
import io
import os
import sys

import qtm
from qtm import cli

ALPHA = "--alpha=pi/sqrt(3)"
# the last of two --alpha flags wins, so these override ALPHA
ANGLES_ACCEPTED = ("--alpha=2*pi/7", "--phi0=-pi/6", "--phi0= pi / 2 ",
                   "--phi0=007")
ANGLES_REFUSED = ("1e309", "2**3", "pi+1", "sqrt(-1)", "0x10", "pi # c")


def _simulate(name, tape_size, steps, initial, engine="statevector",
              variant="x", phi0="0", formats=("csv",)):
    for fmt in formats:
        yield (f"{name}.{fmt}",
               ["simulate", "--tape-size", str(tape_size), ALPHA,
                f"--phi0={phi0}", "--steps", str(steps),
                f"--initial={initial}", "--variant", variant,
                "--engine", engine, "--format", fmt])


def commands():
    """(output name, argv without --out) for every command, in order."""
    every = ("csv", "json", "svg")
    for engine in ("statevector", "recursion", "primitives"):
        yield from _simulate(f"sim_m3_{engine}", 3, 20000, "011", engine,
                             phi0="pi", formats=every)
    yield from _simulate("sim_m3_iy", 3, 20000, "+-0", variant="iy",
                         phi0="0.7", formats=every)
    yield from _simulate("sim_m3_prim_signs", 3, 2000, "-+0", "primitives",
                         phi0="0.3")
    # a negative alpha at phi0 = 0: the signed zeros of the cycle starts
    yield ("sim_m3_prim_negative_alpha.csv",
           ["simulate", "--tape-size", "3", "--alpha=-pi/sqrt(3)",
            "--phi0=0", "--steps", "2000", "--initial=0+-", "--engine",
            "primitives"])
    yield from _simulate("sim_m4_iy", 4, 20000, "+-01", variant="iy",
                         phi0="1.234567", formats=("json",))
    yield from _simulate("sim_m4_x", 4, 20000, "0110", phi0="0.5")
    for engine in ("statevector", "primitives"):
        yield from _simulate(f"sim_m8_{engine}", 8, 20000, "01101001", engine)
    # after their first cycle, steps go in rotate-and-flip pairs, fused
    # with the numpy kernels: on one block (M <= 14), and on four with
    # partner blocks for the top spins, ending on an odd step
    yield from _simulate("sim_m7_iy", 7, 3000, "+-01+-0", variant="iy",
                         phi0="0.9", formats=("json",))
    yield from _simulate("sim_m14_mixed", 14, 100, "+-01+-01+-01+-")
    yield from _simulate("sim_m16_iy", 16, 101, "+-01" * 4, variant="iy",
                         phi0="0.9")
    yield from _simulate("sim_m18_zeros", 18, 100, "zeros")
    yield from _simulate("sim_m18_bits", 18, 100, "011010011100101101")
    yield from _simulate("sim_m1_ones", 1, 7, "ones", "recursion")
    for fmt in every:
        yield (f"prim_plus.{fmt}", ["primitives", "--pattern=+-+", ALPHA,
                                    "--phi0=0.3", "--steps", "2000",
                                    "--format", fmt])
    yield ("prim_minus.csv", ["primitives", "--pattern=-+", ALPHA,
                              "--steps", "500"])
    yield ("classify_pattern.csv", ["classify", "--pattern=+-+-", ALPHA,
                                    "--max-cycles", "50"])
    yield ("classify_aperiodic.csv", ["classify", "--pattern=++-", "--tape-size",
                                      "3", "--max-cycles", "50"])
    yield ("census_m4.csv", ["classify", "--all", "--tape-size", "4",
                             "--max-cycles", "10"])
    yield ("census_m12.csv", ["classify", "--all", "--tape-size", "12", ALPHA,
                              "--phi0=0.3", "--max-cycles", "200"])
    # censuses at angles where most steps match step 0, and a drifting
    # pattern over the default 1000 cycles
    for name, tape_size, angle, phi0, max_cycles in (
            ("census_m6_alpha0", 6, "0", "0.3", 200),
            ("census_m7_2pi3", 7, "2*pi/3", "0.3", 150),
            ("census_m8_pi50", 8, "pi/50", "0", 100)):
        yield (f"{name}.csv", ["classify", "--all", "--tape-size",
                               str(tape_size), f"--alpha={angle}",
                               f"--phi0={phi0}", "--max-cycles",
                               str(max_cycles)])
    yield ("classify_pattern_default.csv", ["classify", "--pattern=+--+",
                                            ALPHA, "--phi0=0.3"])
    yield ("decompose_mixed.csv", ["decompose", "--initial=+-01",
                                   "--tape-size", "4"])
    yield ("decompose_zeros.csv", ["decompose", "--initial", "zeros",
                                   "--tape-size", "6"])
    yield ("spectrum_m3.csv", ["spectrum", "--tape-size", "3", ALPHA,
                               "--phi0=0.4", "--steps", "4095",
                               "--initial=011"])
    yield ("spectrum_pattern.csv", ["spectrum", "--pattern=-+", ALPHA,
                                    "--steps", "255"])
    yield ("invariants_m2.json", ["invariants", "--tape-size", "2", ALPHA,
                                  "--phi0=0.9", "--steps", "3000",
                                  "--initial=01"])
    yield ("invariants_m1.json", ["invariants", "--tape-size", "1", ALPHA,
                                  "--steps", "400"])
    # configurations the CLI refuses: the exit code and message are output
    yield from _simulate("refused_prim_iy", 3, 10, "000", "primitives",
                         variant="iy")
    yield from _simulate("refused_recursion_plus", 2, 10, "+0", "recursion")
    yield ("refused_invariants_m3.json", ["invariants", "--tape-size", "3",
                                          ALPHA, "--steps", "600"])
    # angles the primitive path cannot hold in a double (2 * 1e308 is not)
    for name, argv in (
            ("simulate", ["simulate", "--engine", "primitives",
                          "--tape-size", "2", "--steps", "6"]),
            ("primitives", ["primitives", "--pattern=+-", "--steps", "6"]),
            ("spectrum", ["spectrum", "--pattern=+-", "--steps", "7"]),
            ("classify", ["classify", "--pattern=+-"]),
            ("census", ["classify", "--all", "--tape-size", "2"])):
        yield (f"refused_overflow_{name}.csv", argv + ["--alpha=1e308"])
    # the flat norm guard stops this correct run at step 64,020 (exit 3)
    yield ("refused_norm_m6.csv", ["simulate", "--tape-size", "6", ALPHA,
                                   "--steps", "70000"])
    for name, extra in (("iy", ["--variant", "iy"]),
                        ("initial", ["--initial=01"]),
                        ("tape_size", ["--tape-size", "3"])):
        yield (f"refused_spectrum_pattern_{name}.csv",
               ["spectrum", "--pattern=-+", ALPHA, "--steps", "255"] + extra)
    # angle spellings: argparse refuses a bad one with SystemExit(2)
    for i, angle in enumerate(ANGLES_ACCEPTED):
        yield (f"angle_{i}.csv", ["simulate", "--tape-size", "2", ALPHA,
                                  angle, "--steps", "50"])
    for i, alpha in enumerate(ANGLES_REFUSED):
        yield (f"refused_angle_{i}.csv", ["simulate", "--tape-size", "2",
                                          f"--alpha={alpha}", "--steps", "50"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    os.chdir(args.outdir)
    print(f"qtm from {os.path.dirname(qtm.__file__)}", file=sys.stderr)
    with open("exit_codes.txt", "w", encoding="utf-8") as log:
        for out, argv in commands():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--out", out])
                except SystemExit as exc:  # argparse refusing a flag value
                    code = exc.code
            log.write(f"{out}\t{code}\t{err.getvalue().strip()}\n")


if __name__ == "__main__":
    main()
