"""Each output check of the benchmark rejects a wrong output.

Run from the root of the repository:  python3 -m pytest perfbench

Every test writes a correct output through qtm's CLI, shows that the check
accepts it, then damages it slightly and shows that the check rejects it.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from run import call_cli  # noqa: E402

ALPHA = workloads.ALPHA


def cli(argv):
    rc, err = call_cli(argv)
    assert rc == 0, err


def rewrite_csv(path, row, col, delta):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row + 1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


PHI0 = {"0": 0.0, "pi": math.pi, "0.4": 0.4}


def trajectory_op(tmp_path, ext, tape, phi0, variant="x", engine="statevector",
                  steps=400):
    out = str(tmp_path / f"traj.{ext}")
    argv = workloads._simulate(out, len(tape), steps, tape, phi0, engine,
                               variant)

    def expected():
        return checks.dense_trajectory(len(tape), ALPHA, PHI0[phi0], tape,
                                       variant, steps)

    return workloads.Op("t", argv, out,
                        workloads._trajectory_check(len(tape), steps, expected))


@pytest.mark.parametrize("ext,tape,phi0,variant,engine", [
    ("csv", "101", "0", "x", "statevector"),
    ("json", "01", "pi", "x", "recursion"),
    ("csv", "-+0", "0.4", "iy", "statevector"),
])
def test_trajectory_check_catches_one_perturbed_step(tmp_path, ext, tape, phi0,
                                                     variant, engine):
    op = trajectory_op(tmp_path, ext, tape, phi0, variant, engine)
    cli(op.argv)
    op.check(op, None)
    if ext == "csv":
        rewrite_csv(op.out, 137, 4, 1e-6)
    else:
        with open(op.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["points"][137][2] += 1e-6
        with open(op.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with pytest.raises(CheckFailed, match="max deviation"):
        op.check(op, None)


def test_trajectory_check_catches_wrong_labels_and_lambda_x(tmp_path):
    out = str(tmp_path / "traj.csv")
    argv = workloads._simulate(out, 2, 100, "10")
    op = workloads.Op("t", argv, out, workloads._trajectory_check(
        2, 100, lambda: checks.dense_trajectory(2, ALPHA, 0.0, "10", "x", 100),
        x_zero=True))
    cli(argv)
    op.check(op, None)
    rewrite_csv(out, 50, 3, 1e-6)
    with pytest.raises(CheckFailed, match="lambda_x"):
        op.check(op, None)
    cli(argv)
    rewrite_csv(out, 50, 1, 1)
    with pytest.raises(CheckFailed, match="labels"):
        op.check(op, None)


def test_trajectory_check_catches_norm_drift(tmp_path):
    from qtm import engine

    op = trajectory_op(tmp_path, "csv", "11", "0")
    cli(op.argv)
    traj = engine.run(engine.MachineConfig.uniform(2, ALPHA, initial="11",
                                                   steps=400))
    op.check(op, traj)
    traj.norm_drift = 2e-12
    with pytest.raises(CheckFailed, match="norm drift"):
        op.check(op, traj)


def test_angle_rule_oracle_matches_dense_oracle():
    dense = checks.dense_trajectory(4, ALPHA, math.pi, "0110", "x", 600)
    exact = checks.computational_trajectory(4, ALPHA, math.pi, 600, block=128)
    assert np.abs(dense - exact).max() < 1e-12


def test_primitive_path_tol_is_tight_at_short_horizons():
    assert checks.primitive_path_tol(ALPHA, 0.0, 400) == checks.PATH_TOL
    assert checks.primitive_path_tol(ALPHA, 0.0, 20000) < 1e-6


def census_file(tmp_path, tape_size=4):
    out = str(tmp_path / "census.csv")
    cli(["classify", "--all", "--tape-size", str(tape_size), "--phi0=0.713",
         "--max-cycles", "30", "--out", out])
    with open(out, encoding="utf-8") as fh:
        return out, fh.read().splitlines()


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_census_check_catches_a_period_off_by_one_cycle(tmp_path):
    out, lines = census_file(tmp_path)
    expected = checks.census_periods(4)
    checks.check_census(out, 4, expected)
    for row, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[4]:
            fields[4] = str(int(fields[4]) + 2 * 4)
            lines[row] = ",".join(fields)
            break
    write_lines(out, lines)
    with pytest.raises(CheckFailed, match="angle rule repeats first"):
        checks.check_census(out, 4, expected)


def test_census_check_catches_a_missing_period_and_a_wrong_kind(tmp_path):
    out, lines = census_file(tmp_path)
    expected = checks.census_periods(4)
    periodic = next(i for i, line in enumerate(lines[1:], start=1)
                    if line.split(",")[4])
    fields = lines[periodic].split(",")
    write_lines(out, lines[:periodic] + [",".join(fields[:4] + [""])]
                + lines[periodic + 1:])
    with pytest.raises(CheckFailed, match="gap rule says periodic=True"):
        checks.check_census(out, 4, expected)
    fields[1] = "aperiodic"
    write_lines(out, lines[:periodic] + [",".join(fields)]
                + lines[periodic + 1:])
    with pytest.raises(CheckFailed, match="kind aperiodic"):
        checks.check_census(out, 4, expected)


def test_census_periods_follow_the_cycle_map():
    # '-' alone: two reflections per two cycles close a 4-step orbit; '+'
    # alone only rotates, so it never closes for irrational alpha/pi
    assert checks.census_periods(1) == {"+": None, "-": 4}
    assert all(checks.gap_rule_periodic(p) == (p.count("-") % 2 == 1)
               for p in checks.patterns(3) if p.count("-") != 2)


def test_spectrum_check_catches_a_broken_parseval(tmp_path):
    out = str(tmp_path / "spec.csv")
    cli(["spectrum", "--tape-size", "2", "--alpha", "pi/sqrt(3)",
         "--phi0=0.3", "--steps", "255", "--initial=10", "--out", out])
    traj = checks.dense_trajectory(2, ALPHA, 0.3, "10", "x", 255)
    checks.check_spectrum(out, traj)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("frequency,magnitude_y,magnitude_z\n")
        for f, my, mz in rows.tolist():
            fh.write(f"{f!r},{my * (1 + 1e-6)!r},{mz!r}\n")
    with pytest.raises(CheckFailed, match="Parseval fails on y"):
        checks.check_spectrum(out, traj)


def test_spectrum_check_catches_one_wrong_magnitude(tmp_path):
    out = str(tmp_path / "spec.csv")
    cli(["spectrum", "--tape-size", "2", "--alpha", "pi/sqrt(3)",
         "--phi0=0.3", "--steps", "255", "--initial=10", "--out", out])
    traj = checks.dense_trajectory(2, ALPHA, 0.3, "10", "x", 255)
    rewrite_csv(out, 17, 2, 1e-6)
    with pytest.raises(CheckFailed, match="z magnitude"):
        checks.check_spectrum(out, traj)


def test_invariants_check_catches_a_point_off_the_circles(tmp_path):
    out = str(tmp_path / "inv.json")
    cli(["invariants", "--tape-size", "2", "--alpha", "pi/sqrt(3)",
         "--phi0=0.9", "--steps", "1000", "--initial=01", "--out", out])
    traj = checks.dense_trajectory(2, ALPHA, 0.9, "01", "x", 1000)
    checks.check_invariants(out, traj, 8)
    with open(out, encoding="utf-8") as fh:
        fit = json.load(fh)
    fit["radius"] += 1e-5
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(fit, fh)
    with pytest.raises(CheckFailed, match="off every reported circle"):
        checks.check_invariants(out, traj, 8)


def test_a_truncated_or_garbled_output_counts_as_a_failed_check(tmp_path):
    op = trajectory_op(tmp_path, "csv", "10", "0")
    cli(op.argv)
    with open(op.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    write_lines(op.out, lines[:200])
    with pytest.raises(CheckFailed, match="rows"):
        op.check(op, None)
    write_lines(op.out, lines[:200] + ["201,1,51,0.0,nan?,x"] + lines[201:])
    with pytest.raises(checks.MALFORMED):
        op.check(op, None)
