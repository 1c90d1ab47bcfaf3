"""Trajectory export: CSV, JSON, SVG scatter, the classify table, and run
manifests.

Floats are serialized with repr(), the shortest representation that parses
back to the identical double, so a written file re-read equals the
in-memory trajectory bit for bit. All writers are pure functions of their
inputs; writing the same trajectory twice produces identical bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys

import numpy as np

from .primitives import gap_rule
from .state import REDUCE_BLOCK

CSV_HEADER = "m,n,p,lambda_x,lambda_y,lambda_z"
CENSUS_HEADER = "pattern,kind,q,gaps,period"
CENSUS_ROWS = 1024  # classify rows laid out at a time
SVG_SIZE = 600
SVG_SPAN = 1.1  # the viewport covers [-1.1, 1.1]² in the yz plane
_CSV_ROW = "%d,%d,%d,%r,%r,%r\n"
# a point of the "points" list of json.dump(..., indent=1), comma first;
# %s spells a float as its repr, and passes json's NaN and Infinity through
_JSON_POINT = ",\n  [\n   %d,\n   %s,\n   %s,\n   %s\n  ]"
_SVG_POINT = '<circle cx="%.3f" cy="%.3f" r="2"/>\n'


def step_labels(num_points: int, tape_size: int):
    """(n, p) schedule labels for steps 0..num_points-1; the m=0 row gets
    the sentinel (0, 0) since no gate produced it."""
    m = np.arange(num_points)
    cycle = 2 * tape_size
    n = (m - 1) % cycle + 1
    p = (m - 1) // cycle + 1
    n[:1] = 0
    p[:1] = 0
    return n, p


@contextlib.contextmanager
def _open_out(path):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_csv(path, header: str, lines) -> None:
    """A header line, then one line per row, to path ("-" for stdout)."""
    with _open_out(path) as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(payload, path) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _row_blocks(bloch, template, columns):
    """template filled in for every row of bloch, as one string per block
    of REDUCE_BLOCK rows: columns(s, block) gives the columns of the block
    that starts at row s as sequences of Python numbers, and one %-format
    of template repeated once per row takes them row by row. Rows are
    converted one block at a time, so a long trajectory never exists as
    Python objects or text all at once."""
    for s in range(0, len(bloch), REDUCE_BLOCK):
        block = bloch[s:s + REDUCE_BLOCK]
        cols = columns(s, block)
        flat = [0] * (len(cols) * len(block))
        for j, col in enumerate(cols):
            flat[j::len(cols)] = col
        yield template * len(block) % tuple(flat)


def write_trajectory_csv(traj, path) -> None:
    """The header, then one row m,n,p,x,y,z per step (floats by repr),
    written with one %-format per block of REDUCE_BLOCK rows."""
    n, p = step_labels(len(traj.bloch), traj.num_tape_spins)
    with _open_out(path) as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(_row_blocks(traj.bloch, _CSV_ROW, lambda s, b: [
            range(s, s + len(b)), n[s:s + len(b)].tolist(),
            p[s:s + len(b)].tolist(), *b.T.tolist()]))


def write_trajectory_json(traj, manifest: dict, path) -> None:
    """Write {"manifest": manifest, "points": [[m, x, y, z], ...]} in the
    exact bytes of write_json. json lays out the manifest; the points,
    where json's pure-Python indenting encoder would spend its time, are
    written here with one %-format per block of rows in the same layout,
    floats by float.__repr__ and non-finite ones as json spells them
    (NaN, Infinity)."""
    head = json.dumps({"manifest": manifest, "points": []}, indent=1)
    spell = ((lambda col: col) if np.isfinite(traj.bloch).all()
             else (lambda col: map(json.dumps, col)))
    with _open_out(path) as fh:
        if not len(traj.bloch):  # json spells an empty list []
            fh.write(head + "\n")
            return
        blocks = _row_blocks(traj.bloch, _JSON_POINT, lambda s, b: [
            range(s, s + len(b)), *map(spell, b.T.tolist())])
        # the first point has no comma before it
        fh.write(head[:-len("[]\n}")] + "[" + next(blocks)[1:])
        fh.writelines(blocks)
        fh.write("\n ]\n}\n")


def write_trajectory_svg(traj, path) -> None:
    """Scatter of the yz trajectory on a fixed square canvas, one circle
    per step, written with one %-format per block of REDUCE_BLOCK rows.

    Minimal on purpose: enough to eyeball the generated pattern, not
    publication graphics. Deterministic for a given trajectory.
    """
    scale = SVG_SIZE / (2.0 * SVG_SPAN)
    with _open_out(path) as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
            f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
            f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
            '<g fill="#1f4e79" fill-opacity="0.75">\n')
        # bloch z points up, svg y points down
        fh.writelines(_row_blocks(traj.bloch, _SVG_POINT, lambda s, b: [
            ((b[:, 1] + SVG_SPAN) * scale).tolist(),
            ((SVG_SPAN - b[:, 2]) * scale).tolist()]))
        fh.write("</g>\n</svg>\n")


def _digits(values):
    """ASCII decimal digits of integers >= 0, one row each, right-aligned
    in the width of the largest: 0 bytes stand before the leading digit,
    and a value 0 is 0 bytes only."""
    tens = 10 ** np.arange(len(str(max(int(values.max(initial=0)), 1))))[::-1]
    out = (values[:, None] // tens % 10 + ord("0")).astype(np.uint8)
    out[values[:, None] < tens] = 0
    return out


def write_census(path, periods) -> None:
    """The classify table: CENSUS_HEADER, then one row
    pattern,kind,q,gaps,period per entry of periods, a {pattern: period
    in steps, or None for an empty field} mapping of patterns of one tape
    size, in its order.

    CENSUS_ROWS rows at a time are laid out as ASCII in one uint8 array,
    each field in fixed columns with 0 bytes where a row's text is
    shorter, and written with the 0 bytes dropped by one mask. The
    pattern is its own bytes; kind, q and the gaps are those of
    primitives.gap_rule on the +-1 signs the bytes spell ('+' is 43, '-'
    45). q and the gaps take their digits from a table of 0..M: a gap
    slot is a gap's digits and ';', blank past gap q, and the slot of gap
    q ends in the ',' before the period instead. The only Python work per
    row is reading its pattern and its period."""
    num = len(next(iter(periods), ""))  # the tape size all patterns share
    kinds = np.array([b"aperiodic", b"periodic"]).view(np.uint8).reshape(2, -1)
    digits = _digits(np.arange(num + 1))
    digits[0, -1] = ord("0")
    # a gap slot by gap + 1: row 0 blank, row g + 1 the digits of g and ';'
    slots = np.zeros((num + 2, digits.shape[1] + 1), np.uint8)
    slots[1:, :-1], slots[1:, -1] = digits, ord(";")
    pats, values = iter(periods), iter(periods.values())
    with _open_out(path) as fh:
        fh.write(CENSUS_HEADER + "\n")
        for lo in range(0, len(periods), CENSUS_ROWS):
            rows = min(CENSUS_ROWS, len(periods) - lo)
            pattern = np.frombuffer("".join(itertools.islice(pats, rows))
                                    .encode("ascii"), np.uint8)
            pattern = pattern.reshape(rows, num)
            # ',' - '+' is 1 and ',' - '-' is 255, -1 as int8
            q, gaps, periodic = gap_rule((ord(",") - pattern).view(np.int8))
            # in intp, so that gap + 1 does not wrap where a uint8 gap is 255
            field = np.take(slots, (gaps + np.intp(1))
                            * (np.arange(num + 1) <= q[:, None]), axis=0)
            field[np.arange(rows), q, -1] = ord(",")
            comma = np.full((rows, 1), ord(","), np.uint8)
            text = np.hstack([
                pattern, comma, kinds[periodic.view(np.uint8)], comma,
                digits[q], comma, field.reshape(rows, -1),
                _digits(np.fromiter((p or 0 for p in itertools.islice(
                    values, rows)), np.int64, rows)),
                np.full((rows, 1), ord("\n"), np.uint8)])
            fh.write(text[text != 0].tobytes().decode("ascii"))


def write_manifest(manifest: dict, out_path: str) -> str:
    """Drop a manifest JSON next to a data file; returns the sidecar path."""
    sidecar = f"{out_path}.manifest.json"
    write_json(manifest, sidecar)
    return sidecar
