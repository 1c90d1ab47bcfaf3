"""Acceptance gate: the nine headline checks, one test per criterion.

Each test prints a single "criterion N (...): PASS/FAIL" line (visible with
pytest -s, and in the captured output on failure) and then asserts. The
tolerances and runtime budgets are part of the contract; do not loosen them
here without loosening the documented guarantees.
"""

import math
import time

import numpy as np
import pytest

import helpers
from helpers import m1_closed_form, purity, run_mixed
from qtm import (
    HeadRecursion,
    MachineConfig,
    all_patterns,
    classify,
    decompose,
    fit_invariant_circles,
    head_bloch,
    period_census,
    run,
    run_primitive,
    superpose,
)
from qtm.gates import apply_head_rotation, apply_qcnot
from qtm.state import make_state

ALPHA = helpers.ALPHA
ALPHAS = (ALPHA, 1.0)


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_three_path_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for num in range(1, 7):
        for alpha in ALPHAS:
            sv = run(MachineConfig(num, alpha, steps=2000)).bloch
            ps = superpose(decompose("0" * num), 0.0, alpha, 2000).bloch
            rc = HeadRecursion(alpha).trajectory(2000, num)
            worst = max(
                worst,
                float(np.abs(sv - ps).max()),
                float(np.abs(sv - rc).max()),
                float(np.abs(ps - rc).max()),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, "three-path agreement", ok,
            f"max deviation {worst:.3e} over M=1..6, both angles, "
            f"m<=2000; {elapsed:.1f}s")


def test_criterion_2_single_spin_closed_forms():
    phi0 = math.pi / 6
    worst = 0.0
    for kind, tape in (("aperiodic", "+"), ("periodic", "-")):
        cfg = MachineConfig(1, ALPHA, phi0=phi0, initial=tape, steps=6)
        traj = run(cfg)
        for m in range(7):
            expected = np.asarray(m1_closed_form(kind, m, phi0, ALPHA))
            worst = max(worst, float(np.abs(traj.bloch[m] - expected).max()))
    ok = worst <= 1e-12
    _report(2, "single-spin table values", ok,
            f"max deviation {worst:.3e} at m=0..6, phi0=pi/6")


def test_criterion_3_x_component_stays_zero():
    t0 = time.perf_counter()
    worst = 0.0
    for num in (1, 2, 3, 10):
        traj = run(MachineConfig(num, ALPHA, steps=3000))
        worst = max(worst, float(np.abs(traj.bloch[:, 0]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    _report(3, "in-plane evolution", ok,
            f"max |lambda_x| {worst:.3e} over M in {{1,2,3,10}}, 3000 steps; "
            f"{elapsed:.1f}s")


def test_criterion_4_periodicity_census():
    mismatches = []
    for alpha in ALPHAS:
        for num in range(1, 11):
            census = period_census(num, 0.3, alpha, max_cycles=12)
            for pattern, period in census.items():
                if classify(pattern).periodic != (period is not None):
                    mismatches.append((alpha, pattern))
                if period is not None and period > 4 * num:
                    mismatches.append((alpha, pattern, period))
    three = period_census(3, 0.3, ALPHA, max_cycles=12)
    found = sum(1 for v in three.values() if v is not None)
    labels_ok = (
        not classify("+").periodic and classify("-").periodic
        and not classify("++").periodic
        and all(classify(p).periodic for p in ("+-", "-+", "--"))
    )
    ok = not mismatches and found == 4 and labels_ok
    _report(4, "periodicity census", ok,
            f"{len(mismatches)} classifier/numeric mismatches over M<=10 at "
            f"both angles; M=3 periodic count {found}/4")


def test_criterion_5_circle_invariants():
    details = []
    ok = True
    for num in (1, 2):
        for phi0 in (0.0, math.pi / 6):
            traj = run(MachineConfig(num, ALPHA, phi0=phi0, steps=3000))
            circles = fit_invariant_circles(traj, max_circles=2 ** (num + 1))
            merged = max(len(r) for r in circles.residues)
            details.append(
                f"M={num} phi0={phi0:.3f}: {len(circles)} circles "
                f"r={circles.radius:.3f} res={circles.residual:.1e}"
            )
            ok = ok and len(circles) <= 2 ** (num + 1)
            ok = ok and circles.residual <= 1e-6
            if phi0 == 0.0:
                ok = ok and merged >= 2 and len(circles) < 4 * num
    _report(5, "circle invariants", ok, "; ".join(details))


def test_criterion_6_head_flip_symmetry():
    worst = 0.0
    worst_mix = 0.0
    for num in (1, 2, 3):
        up = MachineConfig(num, ALPHA, phi0=0.0, steps=500)
        down = MachineConfig(num, ALPHA, phi0=math.pi, steps=500)
        worst = max(worst, float(
            np.abs(run(down).bloch + run(up).bloch).max()
        ))
        mixed = run_mixed([(0.5, up), (0.5, down)])
        worst_mix = max(worst_mix, float(np.abs(mixed.bloch).max()))
    ok = worst <= 1e-12 and worst_mix <= 1e-12
    _report(6, "head-flip symmetry", ok,
            f"negation deviation {worst:.3e}, balanced mixture "
            f"residual {worst_mix:.3e}, M=1..3, m<=500")


def test_criterion_7_purity():
    worst = 0.0
    for pattern in ("+", "-", "+-", "-++", "--+-"):
        traj = run_primitive(pattern, 0.25, ALPHA, 300)
        lengths = (traj.bloch ** 2).sum(axis=1)
        worst = max(worst, float(np.abs(lengths - 1.0).max()))
    state = make_state(0.0, "000")
    apply_head_rotation(state, ALPHA)
    apply_qcnot(state, 1, "x")
    entangled = purity(head_bloch(state))
    ok = worst <= 1e-12 and entangled <= 1.0 - 1e-3
    _report(7, "purity and entanglement onset", ok,
            f"primitive |bloch|-1 max {worst:.3e}; engine head purity "
            f"{entangled:.4f} at m=2 for the all-zeros tape")


def test_criterion_8_orbit_containment():
    def contained(small, big):
        d = np.linalg.norm(
            small.yz()[:, None, :] - big.yz()[None, :, :], axis=2
        )
        return float(d.min(axis=1).max())

    worst = 0.0
    for sign in ("+", "-"):
        small = run_primitive(sign, 0.3, ALPHA, 400)
        for reps in (2, 3):
            big = run_primitive(sign * reps, 0.3, ALPHA, 1200)
            worst = max(worst, contained(small, big))
    ok = worst <= 1e-9
    _report(8, "orbit containment", ok,
            f"max nearest-point distance {worst:.3e} embedding M=1 "
            f"orbits into M=2,3")


def test_criterion_9_performance_smoke():
    num = 20
    t0 = time.perf_counter()
    traj = run(MachineConfig(num, ALPHA, steps=2 * num))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0 and traj.norm_drift <= 1e-12
    _report(9, "large-tape cycle", ok,
            f"one M=20 cycle in {elapsed:.2f}s, norm drift "
            f"{traj.norm_drift:.2e}")
