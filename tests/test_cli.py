"""End-to-end command line checks, driven through cli.main with exit-code
assertions, plus one real subprocess smoke test."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import qtm
from qtm import MachineConfig, cli, run
from qtm import io as qio
from qtm.cli import main
from qtm.state import REDUCE_BLOCK, normalize_tape_spec

ALPHA = helpers.ALPHA
ALPHA_SRC = "pi/sqrt(3)"


def test_simulate_csv_with_sidecar(tmp_path):
    out = tmp_path / "run.csv"
    argv = ["simulate", "--tape-size", "2", "--alpha", ALPHA_SRC,
            "--steps", "40", "--out", str(out)]
    assert main(argv) == 0
    m, n, p, bloch = helpers.read_trajectory_csv(str(out))
    expected = run(MachineConfig(2, ALPHA, steps=40)).bloch
    np.testing.assert_array_equal(bloch, expected)

    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["command"] == "qtm " + " ".join(argv)
    assert manifest["config"]["tape_size"] == 2
    assert manifest["outputs"] == [str(out)]
    assert "tool_version" in manifest


def test_simulate_zero_steps(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--tape-size", "1", "--alpha", "1.0",
                 "--steps", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_simulate_stdout_default(capsys):
    assert main(["simulate", "--tape-size", "1", "--alpha", "1.0",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(qio.CSV_HEADER)
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize("alt", ["recursion", "primitives"])
def test_alternate_engines_agree_with_statevector(alt, tmp_path):
    common = ["--tape-size", "3", "--alpha", ALPHA_SRC, "--steps", "120"]
    ref, other = tmp_path / "sv.csv", tmp_path / "alt.csv"
    assert main(["simulate", *common, "--out", str(ref)]) == 0
    assert main(["simulate", *common, "--engine", alt, "--out", str(other)]) == 0
    *_, ref_bloch = helpers.read_trajectory_csv(str(ref))
    *_, alt_bloch = helpers.read_trajectory_csv(str(other))
    np.testing.assert_allclose(alt_bloch, ref_bloch, atol=1e-9)


def test_primitives_engine_handles_sign_tapes(tmp_path):
    ref, other = tmp_path / "sv.csv", tmp_path / "p.csv"
    common = ["--tape-size", "2", "--alpha", "1.0", "--phi0", "0.4",
              "--steps", "60", "--initial", "0+"]
    assert main(["simulate", *common, "--out", str(ref)]) == 0
    assert main(["simulate", *common, "--engine", "primitives",
                 "--out", str(other)]) == 0
    *_, ref_bloch = helpers.read_trajectory_csv(str(ref))
    *_, alt_bloch = helpers.read_trajectory_csv(str(other))
    np.testing.assert_allclose(alt_bloch, ref_bloch, atol=1e-10)


def test_simulate_json_embeds_manifest(tmp_path):
    out = tmp_path / "run.json"
    assert main(["simulate", "--tape-size", "1", "--alpha", "1.0",
                 "--steps", "8", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["config"]["steps"] == 8
    assert len(doc["points"]) == 9
    assert not (tmp_path / "run.json.manifest.json").exists()


def test_simulate_svg_deterministic(tmp_path):
    argv = ["simulate", "--tape-size", "1", "--alpha", ALPHA_SRC,
            "--steps", "30", "--format", "svg"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.svg.manifest.json").exists()


def test_primitives_subcommand(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["primitives", "--pattern=-+", "--alpha", ALPHA_SRC,
                 "--steps", "20", "--out", str(out)]) == 0
    *_, bloch = helpers.read_trajectory_csv(str(out))
    assert bloch.shape == (21, 3)
    assert np.all(bloch[:, 0] == 0.0)


def test_classify_all_three_spins(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["classify", "--all", "--tape-size", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,kind,q,gaps,period"
    assert len(lines) == 9
    rows = [line.split(",") for line in lines[1:]]
    periodic = {r[0] for r in rows if r[1] == "periodic"}
    assert periodic == {"-++", "+-+", "++-", "---"}
    for r in rows:
        # numeric detection and the analytic label must agree
        assert (r[1] == "periodic") == (r[4] != "")
        if r[4]:
            assert int(r[4]) <= 12


def test_classify_single_pattern(capsys):
    assert main(["classify", "--pattern=--+"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "--+,aperiodic,2,0;0;1,"


def _classify_row(pat, period):
    """A classify row as the CLI wrote it one pattern at a time, its gap
    rule read off the pattern's text."""
    gaps = [len(plus) for plus in pat.split("-")]
    q = len(gaps) - 1
    periodic = q % 2 == 1 or 2 * sum(gaps[0::2]) == len(pat) - q
    return (f"{pat},{'periodic' if periodic else 'aperiodic'},{q},"
            f"{';'.join(map(str, gaps))},{'' if period is None else period}\n")


@pytest.mark.parametrize("alpha, max_cycles", [
    ("pi/sqrt(3)", 20), ("0", 20), ("pi/50", 120)],
    ids=["pi-sqrt3", "zero", "pi-50"])
@pytest.mark.parametrize("num", range(1, 11))
def test_census_bytes_are_the_per_pattern_rows(num, alpha, max_cycles,
                                               tmp_path):
    # the census is written in blocks of uint8 text; its bytes are those
    # of one formatted row per pattern (pi/50: periods of 3 digits)
    out = tmp_path / "c.csv"
    assert main(["classify", "--all", "--tape-size", str(num),
                 f"--alpha={alpha}", "--max-cycles", str(max_cycles),
                 "--out", str(out)]) == 0
    census = qtm.period_census(num, 0.3, qtm.parse_angle(alpha), max_cycles)
    assert out.read_bytes() == ("pattern,kind,q,gaps,period\n" + "".join(
        _classify_row(p, v) for p, v in census.items())).encode()


@pytest.mark.parametrize("rows", [1, 3, 32])
def test_census_blocks_join_without_a_seam(rows, monkeypatch, capsys):
    # blocks of 1, 3 and all 32 rows of M=5, written to stdout
    monkeypatch.setattr(qio, "CENSUS_ROWS", rows)
    assert main(["classify", "--all", "--tape-size", "5",
                 "--max-cycles", "30"]) == 0
    census = qtm.period_census(5, 0.3, ALPHA, 30)
    assert capsys.readouterr().out == "pattern,kind,q,gaps,period\n" + "".join(
        _classify_row(p, v) for p, v in census.items())


@pytest.mark.parametrize("pattern", [
    "+" * 255, "+" * 254 + "-", "+" * 300, "-+" * 150],
    ids=["gap-255", "gap-254", "gap-300", "q-150"])
def test_classify_row_of_a_long_pattern(pattern, capsys):
    # gaps and q past one byte, and digits past the table of one-digit M
    assert main(["classify", f"--pattern={pattern}", "--max-cycles", "2"]) == 0
    period = qtm.detect_period_numeric(pattern, 0.3, ALPHA, 2)
    assert capsys.readouterr().out.splitlines()[1] == _classify_row(
        pattern, period)[:-1]


def test_an_angle_past_the_cheap_bound_is_scanned_exactly(tmp_path, capsys):
    # over 1,001 cycles of M=1 the bound (M*(last + 1) + 1)*|alpha|
    # overflows at alpha = 1e306, so the exact scan decides: '-' turns
    # back each cycle, its |kappa| stays at most 1, and its trajectory
    # runs; '+' drifts to |kappa| = 1,001 and is refused
    out = tmp_path / "c.csv"
    argv = ["primitives", "--alpha=1e306", "--steps", "2002"]
    assert main(argv + ["--pattern=-", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2004
    assert main(argv + ["--pattern=+"]) == 2
    assert "overflows a double" in capsys.readouterr().err
    # classify scans the same way, but refuses '-' too: angles of 1e306
    # are whole turns apart, so every step used to match step 0
    argv = ["classify", "--alpha=1e306", "--max-cycles", "1000"]
    assert main(argv + ["--pattern=+"]) == 2
    assert "overflows a double" in capsys.readouterr().err
    assert main(argv + ["--pattern=-"]) == 2
    assert "cannot resolve" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["1e306", "1e308"])
def test_classify_refuses_angles_too_coarse_for_its_tolerance(alpha, capsys):
    # '-' keeps |kappa| <= 1, so nothing overflows, but at these angles
    # every difference is whole turns: 1e306 printed period 1 and 1e308
    # overflowed in the wrap with RuntimeWarnings, both with exit 0
    assert main(["classify", "--pattern=-", f"--alpha={alpha}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cannot resolve" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pattern, max_cycles, code", [
    ("-+", "10000000000000000000", 2),
    # 2M*(max_cycles + 1) at 2**63 - 4 and at 2**63
    ("--", str(2 ** 61 - 2), 0), ("--", str(2 ** 61 - 1), 2)])
def test_classify_horizon_past_int64_is_a_usage_error(pattern, max_cycles,
                                                      code, capsys):
    # it used to end in an OverflowError traceback, exit 1
    assert main(["classify", f"--pattern={pattern}",
                 "--max-cycles", max_cycles]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "past the range of int64" in err
    else:
        assert out.splitlines()[1] == "--,periodic,2,0;0;0,4"


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["primitives", "--alpha", "1", "--steps", "5"],
    ["spectrum", "--alpha", "1", "--steps", "8"],
], ids=["classify", "primitives", "spectrum"])
def test_pattern_of_two_minus_signs_in_the_equals_form(argv, capsys):
    # argparse of Python 3.10-3.12 hands over [] for --pattern=--, which
    # ended in an AttributeError traceback; it is the pattern spelled
    # with unicode minus signs
    assert main(argv + ["--pattern=--"]) == 0
    out = capsys.readouterr().out
    assert main(argv + ["--pattern=\u2212\u2212"]) == 0
    assert out and capsys.readouterr().out == out


def test_a_flag_that_cannot_be_two_dashes_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--tape-size", "1", "--alpha=--", "--steps", "2"])
    assert info.value.code == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("max_cycles", ["1", "0", "-3"])
def test_classify_all_needs_two_cycles(max_cycles, capsys):
    assert main(["classify", "--all", "--tape-size", "3",
                 "--max-cycles", max_cycles]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "max_cycles >= 2" in err


def test_primitives_negative_steps_is_a_usage_error(capsys):
    assert main(["primitives", "--pattern=-+", "--alpha", "1",
                 "--steps", "-2"]) == 2
    assert "step count" in capsys.readouterr().err


def test_spectrum_pattern_negative_steps_is_a_usage_error(capsys):
    assert main(["spectrum", "--pattern=-+", "--alpha", "1",
                 "--steps", "-2"]) == 2
    assert "step count" in capsys.readouterr().err


def test_classify_pattern_size_conflict():
    assert main(["classify", "--pattern", "+-", "--tape-size", "3"]) == 2


def test_classify_all_needs_tape_size():
    assert main(["classify", "--all"]) == 2


@pytest.mark.parametrize("size", ["-1", "0"])
def test_classify_all_rejects_empty_tape(size, capsys):
    assert main(["classify", "--all", "--tape-size", size]) == 2
    assert "need at least one tape spin" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["-1", "0"])
def test_decompose_rejects_empty_tape(size, capsys):
    assert main(["decompose", "--initial", "zeros", "--tape-size", size]) == 2
    err = capsys.readouterr().err
    assert "need at least one tape spin" in err
    assert "tape spec" not in err


def test_decompose_zeros(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["decompose", "--initial", "zeros", "--tape-size", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,weight"
    assert len(lines) == 17
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0625


@pytest.mark.parametrize("initial, num", [
    ("zeros", 1), ("ones", 3), ("+-01", 4), ("0+1-0+", 6), ("-", 1)])
def test_decompose_bytes_are_the_per_row_form(initial, num, tmp_path):
    # the rows are laid out in blocks of uint8 text; their bytes are those
    # of one f-string per pattern
    out = tmp_path / "d.csv"
    assert main(["decompose", f"--initial={initial}", "--tape-size",
                 str(num), "--out", str(out)]) == 0
    weights = qtm.primitives.decompose(normalize_tape_spec(initial, num))
    assert out.read_bytes() == ("pattern,weight\n" + "".join(
        f"{pat},{w!r}\n" for pat, w in zip(qtm.all_patterns(num),
                                          weights.tolist()))).encode()


@pytest.mark.parametrize("source, steps", [
    (["--tape-size", "1"], 300), (["--tape-size", "2", "--initial=+1"], 300),
    (["--tape-size", "3", "--variant", "iy", "--initial=0+1"], 255),
    (["--tape-size", "4", "--phi0=0.4"], 400),
    (["--pattern=-+"], 255), (["--tape-size", "1"], REDUCE_BLOCK + 10)],
    ids=["m1", "m2", "m3-iy", "m4", "pattern", "m1-two-blocks"])
def test_spectrum_bytes_are_the_per_row_form(source, steps, tmp_path):
    out = tmp_path / "s.csv"
    argv = ["spectrum", "--alpha", ALPHA_SRC, "--steps", str(steps), *source]
    assert main(argv + ["--out", str(out)]) == 0
    args = cli.build_parser().parse_args(argv)
    if args.pattern:
        traj = qtm.primitives.run_primitive(args.pattern, args.phi0,
                                            args.alpha, args.steps)
    else:
        traj = run(MachineConfig(
            args.tape_size, args.alpha, phi0=args.phi0, variant=args.variant,
            initial=args.initial, steps=args.steps))
    spec = qtm.analysis.spectrum(traj)
    rows = zip(spec.frequencies.tolist(), spec.magnitude_y.tolist(),
               spec.magnitude_z.tolist())
    expected = "frequency,magnitude_y,magnitude_z\n" + "".join(
        f"{f!r},{my!r},{mz!r}\n" for f, my, mz in rows)
    assert out.read_bytes() == expected.encode()


def test_spectrum_pattern(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--pattern", "-", "--alpha", ALPHA_SRC,
                 "--steps", "127", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency,magnitude_y,magnitude_z"
    assert len(lines) == 129


@pytest.mark.parametrize("extra,message", [
    (["--variant", "iy"], "--variant iy"),
    (["--initial=01"], "--initial"),
    (["--tape-size", "3"], "disagrees with --tape-size"),
], ids=["variant-iy", "initial", "tape-size"])
def test_spectrum_pattern_refuses_flags_it_cannot_honour(extra, message,
                                                         capsys):
    # these flags used to be dropped: --variant iy printed the plain-flip
    # spectrum
    assert main(["spectrum", "--pattern=+-", "--alpha", "1", "--steps", "7"]
                + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_spectrum_pattern_keeps_flags_it_honours(capsys):
    base = ["spectrum", "--pattern=+-", "--alpha", "1", "--steps", "7"]
    assert main(base) == 0
    plain = capsys.readouterr().out
    assert main(base + ["--tape-size", "2", "--initial=zeros",
                        "--variant", "x"]) == 0
    assert capsys.readouterr().out == plain


def test_spectrum_needs_a_source():
    assert main(["spectrum", "--alpha", "1.0", "--steps", "10"]) == 2


def test_invariants_single_spin(tmp_path):
    out = tmp_path / "i.json"
    assert main(["invariants", "--tape-size", "1", "--alpha", ALPHA_SRC,
                 "--steps", "2000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["num_circles"] == 3
    assert doc["radius"] == pytest.approx(0.5, abs=1e-9)
    assert doc["residual"] <= 1e-6
    assert len(doc["centers"]) == 3


def test_invariants_three_spins_fails_numerically(tmp_path, capsys):
    code = main(["invariants", "--tape-size", "3", "--alpha", ALPHA_SRC,
                 "--steps", "1500", "--out", str(tmp_path / "i.json")])
    assert code == 3
    assert "numeric validation" in capsys.readouterr().err


@pytest.mark.parametrize("max_circles", ["0", "-1"])
def test_invariants_circle_budget_must_be_positive(max_circles, capsys):
    assert main(["invariants", "--tape-size", "1", "--alpha", "1",
                 "--steps", "10", "--max-circles", max_circles]) == 2
    assert "max_circles must be >= 1" in capsys.readouterr().err


def test_recursion_engine_rejects_sign_tape():
    assert main(["simulate", "--tape-size", "2", "--alpha", "1.0",
                 "--steps", "5", "--initial", "+-",
                 "--engine", "recursion"]) == 2
    # a leading-minus spec parses in the = form and reaches the same check
    assert main(["simulate", "--tape-size", "2", "--alpha", "1.0",
                 "--steps", "5", "--initial=-+",
                 "--engine", "recursion"]) == 2


def test_primitives_engine_rejects_signed_flip():
    assert main(["simulate", "--tape-size", "2", "--alpha", "1.0",
                 "--steps", "5", "--variant", "iy",
                 "--engine", "primitives"]) == 2


def test_bad_angle_expression_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--tape-size", "1", "--alpha", "pi+1",
              "--steps", "5"])
    assert info.value.code == 2


@pytest.mark.parametrize("alpha", [
    pytest.param("(" * 1000 + "1" + ")" * 1000, id="1000-nested-parens"),
    pytest.param("-" * 2000 + "1", id="2000-unary-minus"),
])
def test_deeply_nested_angle_is_a_usage_error(alpha, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--tape-size", "1", "--alpha=" + alpha,
              "--steps", "5"])
    assert info.value.code == 2
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--tape-size", "1", "--alpha", "1e309", "--steps", "5"],
    ["simulate", "--tape-size", "1", "--alpha", "1", "--phi0", "1e309",
     "--steps", "5"],
    ["simulate", "--tape-size", "1", "--alpha", "1e308*10", "--steps", "5"],
    ["classify", "--all", "--tape-size", "3", "--alpha", "1e309"],
], ids=["alpha-literal", "phi0-literal", "alpha-product", "classify-all"])
def test_overflowing_angle_is_a_usage_error(argv, capsys):
    # an infinite angle used to die in math.cos (exit 1) or, in the census,
    # write a table with no period at all (exit 0)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "overflows a double" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["simulate", "--engine", "primitives", "--tape-size", "2", "--steps", "6"],
    ["primitives", "--pattern=+-", "--steps", "6"],
    ["spectrum", "--pattern=+-", "--steps", "7"],
    ["classify", "--pattern=+-"],
    ["classify", "--all", "--tape-size", "2"],
], ids=["simulate", "primitives", "spectrum", "classify", "classify-all"])
def test_primitive_angles_a_double_cannot_hold_are_a_usage_error(
        argv, tmp_path, capsys):
    # alpha = 1e308 is a double, but 2*alpha is not: these runs used to
    # write NaN rows or leave the period empty, with exit 0
    out = tmp_path / "out.csv"
    assert main(argv + ["--alpha", "1e308", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "overflows a double" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, engine_argv", [
    (["primitives", "--pattern=+-", "--steps", "0"], None),
    (["simulate", "--engine", "primitives", "--tape-size", "2", "--steps",
      "1"], ["simulate", "--tape-size", "2", "--steps", "1"]),
], ids=["primitives", "simulate"])
def test_no_angle_is_computed_past_the_last_step(argv, engine_argv, tmp_path):
    # alpha = 1e308 holds every angle these runs return, but not the
    # angles of the rest of their first cycle, which used to be computed
    # and cut off with an overflow warning
    out = tmp_path / "out.csv"
    assert main(argv + ["--alpha", "1e308", "--out", str(out)]) == 0
    bloch = helpers.read_trajectory_csv(out)[3]
    if engine_argv is None:
        np.testing.assert_array_equal(bloch, [[0.0, 0.0, -1.0]])
    else:
        ref = tmp_path / "ref.csv"
        assert main(engine_argv + ["--alpha", "1e308", "--out", str(ref)]) == 0
        np.testing.assert_array_equal(
            bloch, helpers.read_trajectory_csv(ref)[3])


def test_state_vector_takes_an_angle_the_primitive_path_refuses(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--tape-size", "2", "--steps", "6", "--alpha",
                 "1e308", "--out", str(out)]) == 0
    assert np.isfinite(helpers.read_trajectory_csv(out)[3]).all()


def test_state_too_large_for_memory_is_a_usage_error(capsys):
    # 16 * 2**41 bytes, the half-size state before the last spin and 1 MiB
    # of kernel scratch: refused on the estimate, before any allocation
    assert main(["simulate", "--tape-size", "40", "--alpha", "1",
                 "--steps", "1"]) == 2
    assert "need 50,331,649 MiB" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["classify", "--all", "--tape-size", "60"], "the sign patterns"),
    (["decompose", "--initial", "zeros", "--tape-size", "60"],
     "the weights"),
    (["simulate", "--tape-size", "60", "--alpha", "1", "--steps", "1",
      "--engine", "primitives"], "the primitive superposition"),
], ids=["classify-all", "decompose", "simulate-primitives"])
def test_primitive_path_too_large_for_memory_is_a_usage_error(argv, what,
                                                              capsys):
    # 2**60 patterns: refused on the estimate, before any allocation
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{what} of 60 tape spins need" in err
    assert "MiB of physical memory" in err


def test_primitive_guards_use_their_estimates(monkeypatch, tmp_path):
    # with 1 MiB available: 2**13 patterns of 62+64 bytes (0.98 MiB) fit and
    # 2**14 of 63+64 bytes (1.98 MiB) do not; the superposition of M=9
    # needs (3*64*9 + 12) * 2**9 bytes (0.85 MiB) and fits, M=10 does not
    helpers.one_mib_available(monkeypatch)
    out = str(tmp_path / "o.csv")
    assert main(["classify", "--all", "--tape-size", "13",
                 "--max-cycles", "2", "--out", out]) == 0
    assert main(["classify", "--all", "--tape-size", "14",
                 "--max-cycles", "2", "--out", out]) == 2
    sim = ["simulate", "--alpha", "1", "--steps", "1", "--engine",
           "primitives", "--out", out, "--tape-size"]
    assert main(sim + ["9"]) == 0
    assert main(sim + ["10"]) == 2


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--tape-size", "3", "--steps", "100000"],
     "100000 steps of 3 tape spins"),
    (["simulate", "--engine", "primitives", "--tape-size", "3", "--steps",
      "100000"],
     "100000 steps of the primitive superposition of 3 tape spins"),
    (["primitives", "--pattern=+-", "--steps", "100000"],
     "100000 steps of the primitive angles, 1 per step,"),
    (["simulate", "--engine", "recursion", "--tape-size", "3", "--steps",
      "100000"], "100000 steps of the recursion of 3 tape spins"),
    (["spectrum", "--pattern=+-", "--steps", "10000"],
     "the spectrum of 10001 points"),
], ids=["statevector", "primitives-engine", "primitives", "recursion",
        "spectrum"])
def test_run_longer_than_memory_is_a_usage_error(argv, what, monkeypatch,
                                                  tmp_path, capsys):
    # with 1 MiB available every path refuses its step count on its
    # estimate before allocating the trajectory; the spectrum's 10,001
    # points fit as a trajectory (40 bytes each) but not as a transform
    helpers.one_mib_available(monkeypatch)
    out = tmp_path / "o.csv"
    assert main(argv + ["--alpha", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qtm: error: {what} need ")
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


def test_module_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qtm.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qtm.cli", "simulate", "--tape-size", "1",
         "--alpha", "1.0", "--steps", "4", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.skipif(shutil.which("qtm") is None,
                    reason="console script not on PATH")
def test_console_script_installed():
    proc = subprocess.run(["qtm", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_console_script_entry_point_resolves(monkeypatch, capsys):
    # the [project.scripts] target, resolved as an installed script would
    # resolve it, so a moved or renamed entry point fails without an install
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qtm"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", ["qtm", "--version"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == qtm.__version__
