"""File-format round trips and determinism of the writers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from qtm import ConfigurationError, MachineConfig, run
from qtm import io as qio
from qtm.engine import Trajectory
from qtm.state import REDUCE_BLOCK

ALPHA = helpers.ALPHA


@pytest.fixture
def traj():
    return run(MachineConfig.uniform(2, ALPHA, phi0=0.3, steps=25))


def test_step_labels_schedule():
    n, p = qio.step_labels(10, 2)
    assert (n[0], p[0]) == (0, 0)
    np.testing.assert_array_equal(n[1:], [1, 2, 3, 4, 1, 2, 3, 4, 1])
    np.testing.assert_array_equal(p[1:], [1, 1, 1, 1, 2, 2, 2, 2, 3])


def test_csv_round_trip_bit_exact(traj, tmp_path):
    path = tmp_path / "t.csv"
    qio.write_trajectory_csv(traj, str(path))
    m, n, p, bloch = helpers.read_trajectory_csv(str(path))
    np.testing.assert_array_equal(m, np.arange(26))
    np.testing.assert_array_equal(bloch, traj.bloch)
    # labels reproduce the engine schedule
    for step in (1, 7, 25):
        assert step == n[step] + 4 * (p[step] - 1)


def test_csv_header_and_sentinel(traj, tmp_path):
    path = tmp_path / "t.csv"
    qio.write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "m,n,p,lambda_x,lambda_y,lambda_z"
    assert lines[1].startswith("0,0,0,")
    assert len(lines) == 27


def test_csv_floats_are_plain_reprs(traj, tmp_path):
    path = tmp_path / "t.csv"
    qio.write_trajectory_csv(traj, str(path))
    body = path.read_text()
    assert "np.float" not in body and "(" not in body


def test_csv_reader_rejects_foreign_files(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError):
        helpers.read_trajectory_csv(str(bad))
    truncated = tmp_path / "y.csv"
    truncated.write_text(qio.CSV_HEADER + "\n0,0,0,0.0,0.0\n")
    with pytest.raises(ConfigurationError):
        helpers.read_trajectory_csv(str(truncated))


def test_json_schema(traj, tmp_path):
    path = tmp_path / "t.json"
    qio.write_trajectory_json(traj, {"purpose": "test"}, str(path))
    doc = json.loads(path.read_text())
    assert doc["manifest"] == {"purpose": "test"}
    assert len(doc["points"]) == 26
    first = doc["points"][0]
    assert first[0] == 0 and isinstance(first[0], int)
    assert doc["points"][5][1:] == traj.bloch[5].tolist()


def _json_dump_bytes(traj, manifest, path):
    # the layout write_trajectory_json reproduces without json's encoder
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump({"manifest": manifest,
                   "points": [[m, *row] for m, row in
                              enumerate(traj.bloch.tolist())]}, fh, indent=1)
        fh.write("\n")
    return path.read_bytes()


# -0.0, subnormals and extremes, and NaN and infinities, which json
# spells NaN/Infinity
FINITE_SALT = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
               1.7976931348623157e308, 1 / 3]
SPECIAL_SALT = [float("nan"), float("inf"), float("-inf")]


def _salted_rows(rows, pool, rng):
    """rows random rows, about 30% of their values, and one row of each
    pool value (where rows allow), drawn from pool."""
    bloch = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300,
                                                             (rows, 3))
    salt = rng.random((rows, 3)) < 0.3
    bloch[salt] = rng.choice(pool, size=salt.sum())
    whole = rng.permutation(rows)[:len(pool)]
    bloch[whole] = np.array(pool)[:len(whole), None]
    return bloch


@pytest.mark.parametrize("rows", [1, 2, 500, REDUCE_BLOCK + 1])
@pytest.mark.parametrize("special", [False, True])
def test_json_points_equal_json_dump(rows, special, tmp_path):
    # a single row is a 0-step trajectory; REDUCE_BLOCK + 1 rows are two
    # blocks of the writer
    rng = np.random.default_rng(rows)
    traj = Trajectory(_salted_rows(
        rows, FINITE_SALT + SPECIAL_SALT * special, rng), 2)
    manifest = {"command": "qtm simulate --alpha 'pi/3'", "config": {
        "alpha": 1 / 3, "initial": "+-\u2212", "nested": [[], {}, [1, "x"]]},
        "outputs": [], "tool_version": "0"}
    path = tmp_path / "t.json"
    qio.write_trajectory_json(traj, manifest, str(path))
    assert path.read_bytes() == _json_dump_bytes(traj, manifest,
                                                 tmp_path / "ref.json")


def _per_row_csv(traj):
    """The CSV bytes formatted one row at a time."""
    rows = traj.bloch.tolist()
    n, p = qio.step_labels(len(rows), traj.num_tape_spins)
    fmt = "{},{},{},{!r},{!r},{!r}\n".format
    return (qio.CSV_HEADER + "\n" + "".join(
        fmt(m, n[m], p[m], *r) for m, r in enumerate(rows))).encode()


@pytest.mark.parametrize("rows", [0, 1, REDUCE_BLOCK - 1, REDUCE_BLOCK,
                                  REDUCE_BLOCK + 1])
def test_block_wise_writers_equal_one_pass(rows, tmp_path):
    # the writers format REDUCE_BLOCK rows at a time; rows salted with
    # signed zeros, subnormals, NaN and infinities must come out as the
    # per-row CSV and SVG forms and as json.dump gives them, byte for
    # byte, also for 0 rows, where json.dump writes "points": [] on one
    # line; the SVG's scaling overflows the largest double to inf, which
    # both SVG forms print
    rng = np.random.default_rng(rows + 7)
    traj = Trajectory(_salted_rows(rows, FINITE_SALT + SPECIAL_SALT, rng), 3)
    manifest = {"purpose": "test"}
    qio.write_trajectory_csv(traj, str(tmp_path / "t.csv"))
    qio.write_trajectory_json(traj, manifest, str(tmp_path / "t.json"))
    assert (tmp_path / "t.csv").read_bytes() == _per_row_csv(traj)
    assert (tmp_path / "t.json").read_bytes() == _json_dump_bytes(
        traj, manifest, tmp_path / "ref.json")
    with np.errstate(over="ignore"):
        qio.write_trajectory_svg(traj, str(tmp_path / "t.svg"))
        assert (tmp_path / "t.svg").read_bytes() == helpers.per_row_svg(
            traj).encode()


def test_csv_blocks_equal_per_row_form_on_special_values(tmp_path):
    # one %-format per block of rows gives the bytes of the per-row form,
    # for signed zeros, NaN, infinities and the floats whose
    # repr switches to exponent form (1e-05, 1e16), across a block boundary
    values = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-05,
              1e16, -1e16, 0.0001, 1e15, 1 / 3]
    rows = REDUCE_BLOCK + 5
    bloch = np.resize(values, rows * 3).reshape(rows, 3)
    traj = Trajectory(bloch, 4)
    path = tmp_path / "t.csv"
    qio.write_trajectory_csv(traj, str(path))
    assert path.read_bytes() == _per_row_csv(traj)
    assert b",nan," in path.read_bytes() and b",1e-05," in path.read_bytes()


def _spelled(values, nonfinite=repr):
    """The text io._ascii lays out for each of values, one float a row."""
    return qio._ascii([], [(b"\n", np.asarray(values, float))],
                      nonfinite).split("\n")[1:]


@given(st.lists(st.floats(), max_size=40))
def test_float_text_is_repr_for_every_double(values):
    assert _spelled(values) == list(map(repr, values))


@given(st.lists(st.floats(1e-4, 1, exclude_max=True)
                | st.floats(-1, -1e-4, exclude_min=True), max_size=40))
def test_float_text_is_repr_in_the_computed_range(values):
    assert _spelled(values) == list(map(repr, values))


@given(st.lists(st.builds(lambda e, sign: sign * 10.0 ** e,
                          st.floats(-8, 17, exclude_max=True),
                          st.sampled_from([1.0, -1.0])), max_size=40))
def test_float_text_is_repr_log_uniform_around_the_computed_range(values):
    # [1e-8, 1e17): exponent form below 2**-21 and from 1e16 through repr,
    # the rest computed
    assert _spelled(values) == list(map(repr, values))


def _ties():
    """Up to 2,000 doubles from the foot of each binade [2**(e-1), 2**e)
    of [2**-21, 1e16) where they exist, of the form (2j+1)*2**-(q+1) with
    q the writer's decimal scale there: x*10**q ends in exactly .5, so
    where the digits stop at the units of x*10**q, two decimals are
    equally near. From e = 52 on, the ulp of x exceeds 2**-(q+1)."""
    for e in range(-20, 52):
        q = math.ceil((53 - e) * math.log10(2))
        j = 2 ** (q + e - 1) + np.arange(min(2000, 2 ** (q + e - 1)))
        yield np.ldexp(2 * j + 1.0, -(q + 1))


RANGE_ENDS = np.array([2.0 ** -21, 1e-7, 1e-6, 1e-5, 1.0, 2.0 ** 53,
                       9999999999999998.0, 1e16])
SHORT = np.array([float(f"{i}e-{k}") for k in range(1, 7)
                  for i in range(1, 10 ** min(k, 4))])
EDGES = {
    "powers-of-two": 2.0 ** np.arange(-1074, 1024),
    "power-of-two-neighbours": np.nextafter(2.0 ** np.arange(-30, 5),
                                            [[0.0], [np.inf]]).ravel(),
    "short-decimals": SHORT,
    "below-short-decimals": np.nextafter(SHORT, 0),
    "above-short-decimals": np.nextafter(SHORT, 1),
    "1e-4-and-1": np.array([1e-4, np.nextafter(1e-4, 0),
                            np.nextafter(1e-4, 1), np.nextafter(1.0, 0),
                            1.0, np.nextafter(1.0, 2)]),
    # where the computed range, the exponent form and the integers begin
    # and end, and both neighbours of each
    "range-ends": np.concatenate([RANGE_ENDS, *np.nextafter(
        RANGE_ENDS, [[0.0], [np.inf]])]),
    "ties": np.concatenate(list(_ties())),
}


@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_float_text_is_repr_on_edges(values):
    for signed in (values, -values):
        assert _spelled(signed) == list(map(repr, signed.tolist()))


def test_float_text_spells_nonfinite_values_as_asked():
    special = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0]
    assert _spelled(special) == ["nan", "inf", "-inf", "0.0", "-0.0"]
    assert _spelled(special, json.dumps) == [
        "NaN", "Infinity", "-Infinity", "0.0", "-0.0"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_equals_a_file(fmt, tmp_path, capsys):
    # two blocks, salted with every kind of double
    rng = np.random.default_rng(11)
    traj = Trajectory(_salted_rows(REDUCE_BLOCK + 3,
                                   FINITE_SALT + SPECIAL_SALT, rng), 3)
    write = {"csv": qio.write_trajectory_csv,
             "json": lambda t, p: qio.write_trajectory_json(t, {}, p)}[fmt]
    write(traj, "-")
    write(traj, str(tmp_path / "t"))
    assert capsys.readouterr().out.encode() == (tmp_path / "t").read_bytes()


def test_svg_deterministic_and_bounded(traj, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    qio.write_trajectory_svg(traj, str(a))
    qio.write_trajectory_svg(traj, str(b))
    assert a.read_bytes() == b.read_bytes()
    body = a.read_text()
    assert body.count("<circle") == 26
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")


def test_stdout_writer(traj, capsys):
    qio.write_trajectory_csv(traj, "-")
    out = capsys.readouterr().out
    assert out.startswith(qio.CSV_HEADER)
    assert len(out.splitlines()) == 27


def test_manifest_sidecar(tmp_path):
    target = tmp_path / "run.csv"
    sidecar = qio.write_manifest({"alpha": 1.0}, str(target))
    assert sidecar == str(target) + ".manifest.json"
    assert json.loads((tmp_path / "run.csv.manifest.json").read_text()) == {
        "alpha": 1.0
    }
