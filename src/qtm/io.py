"""Trajectory export: CSV, JSON, SVG scatter, the classify table, and run
manifests.

Floats are written as repr() spells them, the shortest representation
that parses back to the identical double, so a written file re-read equals
the in-memory trajectory bit for bit. Trajectory CSV and JSON are laid out
a block of rows at a time as ASCII in numpy: the digits of every |x| in
[1e-4, 1), nearly all Bloch components, are computed exactly (_shortest),
and the rest go through repr. All writers are pure functions of their
inputs; writing the same trajectory twice produces identical bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys

import numpy as np

from .primitives import gap_rule
from .state import REDUCE_BLOCK

CSV_HEADER = "m,n,p,lambda_x,lambda_y,lambda_z"
CENSUS_HEADER = "pattern,kind,q,gaps,period"
CENSUS_ROWS = 1024  # classify rows laid out at a time
SVG_SIZE = 600
SVG_SPAN = 1.1  # the viewport covers [-1.1, 1.1]² in the yz plane
# the text around the fields of a trajectory row (_ascii): a CSV row, and
# a point of the "points" list of json.dump(..., indent=1), comma first
_CSV_GLUE = (b"", b",", b",", b",", b",", b",", b"\n")
_JSON_GLUE = (b",\n  [\n   ", b",\n   ", b",\n   ", b",\n   ", b"\n  ]")
_FLOAT_WIDTH = 24  # the longest repr of a double: -2.2250738585072014e-308
_POW10 = np.cumprod(np.full(21, 10.0)) / 10  # 10**0 .. 10**20, all exact
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


def _ascii(glue, fields):
    """Lines of ASCII, one per row of the fields: glue[0], field 0,
    glue[1], field 1, ..., glue[-1]. A field is a (rows, width) uint8 array
    with 0 bytes where a row's text is shorter; they are dropped in one
    pass over the block's bytes."""
    rows = len(fields[0])
    parts = [np.frombuffer(g * rows, np.uint8).reshape(rows, len(g))
             for g in glue]
    text = np.hstack([a for pair in zip(parts, fields) for a in pair]
                     + parts[len(fields):])
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _digits(values):
    """ASCII decimal digits of integers >= 0, one row each, right-aligned
    in the width of the largest: 0 bytes stand before the leading digit,
    and a value 0 is 0 bytes only."""
    width = len(str(max(int(values.max(initial=0)), 1)))
    out = np.empty((len(values), width), np.uint8)
    for j in range(width - 1, -1, -1):
        rest = values // 10
        out[:, j] = np.where(values, values - 10 * rest + ord("0"),
                             0).astype(np.uint8)
        values = rest
    return out


def _shortest(mag):
    """repr's digits of doubles x in [1e-4, 1): (d, s), where repr(x) is
    '0.' and then d in s digits, leading zeros included (s as doubles).

    Write x = m*2**e with m in [2**52, 2**53) and e in [-66, -53]
    (np.frexp), and let q = ceil(-e*log10(2)), in [16, 20]: 10**q is an
    exact double and 2**e*10**q lies in [1, 10). Dekker's exact product
    (1971) splits x*10**q into hi + lo with no rounding: hi >= 2**52 is an
    integer, and lo is a multiple of 2**(e+q) with |lo| <= 8.

    A decimal D*10**-q reads back as x when it lies within half an ulp of
    x, that is, when D lies within w = 2**(e-1)*10**q, in (1/2, 5), of
    x*10**q: D is an integer in hi + [lo - w, lo + w]. lo - w and lo + w
    are multiples of 2**(e+q-1) below 16, so exact doubles. Neither is an
    integer: a midpoint (2m +- 1)*2**(e-1) between doubles, times 10**q,
    is an odd number times 2**(e+q-1) < 1. So whether the interval is
    closed (m even) or open (m odd) changes nothing, and its integers are
    low + 1 .. high, with low = hi + floor(lo - w) and high = hi +
    floor(lo + w). At m = 2**52 the double below is only a quarter-ulp
    away, but then x = 2**-j is the exact decimal 5**j*10**-j, j <= 13,
    q - j >= 7, and the nearest multiple of 10**(q-j+1) is 5*10**(q-j)
    away: its digits are 5**j either way. The interval is wider than 1,
    so it holds an integer, and narrower than 10, so it holds at most one
    multiple of 10**k for k >= 1: high//10**k - low//10**k counts it.

    repr's digits are the multiple of the largest such 10**k: most values
    stop at k <= 1, and only the rest loops on. At k = 0 they are the
    integer nearest x*10**q, ties to the even digit, which lies inside as
    w > 1/2. It is hi + rint(lo): lo is a half-integer only when hi's ulp
    is 1 and |lo| = 1/2, where the product rounded hi to even, or when
    hi's ulp is 2 or more, and hi is even. These are the bounds of Ryu
    (Adams, PLDI 2018); d is the multiple over 10**k, and s = q - k."""
    # mag = frac*2**e: the m and e above are frac*2**53 and e - 53
    frac, e = np.frexp(mag)
    s = np.ceil((53.0 - e) * math.log10(2))  # q, then q - k
    scale = _POW10[s.astype(np.intp)]
    hi = mag * scale
    # Dekker's product: each factor split into halves of 26 bits
    (mh, ml), (sh, sl) = map(_halves, (mag, scale))
    lo = ((mh * sh - hi) + mh * sl + ml * sh) + ml * sl
    w = scale * (mag / frac) * 2.0 ** -54  # mag/frac is 2**e exactly
    hi = hi.astype(np.int64)
    low, high = (hi + np.floor(lo + t).astype(np.int64) for t in (-w, w))
    d = hi + np.rint(lo).astype(np.int64)
    rest, ten = np.flatnonzero(high // 10 - low // 10), 10
    while rest.size:
        s[rest] -= 1
        d[rest] = high[rest] // ten
        ten *= 10
        rest = rest[np.flatnonzero(high[rest] // ten - low[rest] // ten)]
    return d, s


def _halves(v):
    """Dekker's (Veltkamp's) split of doubles v into hi + lo, each of at
    most 26 significant bits, so that products of halves are exact."""
    t = v * (2.0 ** 27 + 1)
    hi = t - (t - v)
    return hi, v - hi


def _floats(x, nonfinite):
    """ASCII of float.__repr__ of every double of x, one row each, in
    _FLOAT_WIDTH columns with 0 bytes where a text is shorter; nonfinite
    spells NaN and the infinities. Finite |x| in [1e-4, 1) is laid out from
    _shortest's digits as an optional '-', '0.', up to 3 zeros and the
    digits, and 0.0 and -0.0 as '0.' and a 0 digit; every other double
    goes through repr."""
    mag = np.fabs(x)
    fast = (mag >= 1e-4) & (mag < 1)
    d, s = _shortest(mag[fast])
    digits = np.full((len(d), 20), ord("0"), np.uint8)  # d < 10**17
    for j in range(19, 2, -1):
        rest = d // 10
        digits[:, j] = (d - 10 * rest + ord("0")).astype(np.uint8)
        d = rest
    digits[np.arange(19.0, -1, -1) >= s[:, None]] = 0  # all but the last s
    out = np.zeros((len(x), _FLOAT_WIDTH), np.uint8)
    out[np.signbit(x), 0] = ord("-")
    out[:, 1:3] = np.frombuffer(b"0.", np.uint8)
    out[fast, 3:23] = digits
    out[x == 0, 22] = ord("0")
    finite = np.isfinite(x)
    for text, spell in ((~fast & finite & (x != 0), repr),
                        (~finite, nonfinite)):
        if text.any():
            out[text] = np.array(list(map(spell, x[text].tolist())),
                                 f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(
                                     -1, _FLOAT_WIDTH)
    return out


def _trajectory_text(bloch, labels, glue, nonfinite):
    """The rows of bloch with glue around their fields (_ascii), one
    string per block of REDUCE_BLOCK rows: first the integer columns of
    labels, then x, y and z by _floats, non-finite ones by nonfinite."""
    for s in range(0, len(bloch), REDUCE_BLOCK):
        block = bloch[s:s + REDUCE_BLOCK]
        ints = [_digits(c[s:s + REDUCE_BLOCK]) for c in labels]
        if s == 0:  # step 0 is labelled 0
            for field in ints:
                field[0, -1] = ord("0")
        # the three columns in one call, x's rows first
        floats = _floats(block.T.ravel(), nonfinite)
        yield _ascii(glue, ints + list(floats.reshape(3, len(block), -1)))


def write_trajectory_csv(traj, path) -> None:
    """The header, then one row m,n,p,x,y,z per step, floats as
    float.__repr__ spells them (_floats), a block of rows at a time."""
    steps = len(traj.bloch)
    labels = np.arange(steps), *step_labels(steps, traj.num_tape_spins)
    with _open_out(path) as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(_trajectory_text(traj.bloch, labels, _CSV_GLUE, repr))


def write_trajectory_json(traj, manifest: dict, path) -> None:
    """Write {"manifest": manifest, "points": [[m, x, y, z], ...]} in the
    exact bytes of write_json. json lays out the manifest; the points,
    where json's pure-Python indenting encoder would spend its time, are
    laid out a block at a time as json would, floats by _floats and
    non-finite ones as json spells them (NaN, Infinity)."""
    head = json.dumps({"manifest": manifest, "points": []}, indent=1)
    with _open_out(path) as fh:
        if not len(traj.bloch):  # json spells an empty list []
            fh.write(head + "\n")
            return
        blocks = _trajectory_text(traj.bloch, [np.arange(len(traj.bloch))],
                                  _JSON_GLUE, json.dumps)
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


def write_census(path, periods) -> None:
    """The classify table: CENSUS_HEADER, then one row
    pattern,kind,q,gaps,period per entry of periods, a {pattern: period
    in steps, or None for an empty field} mapping of patterns of one tape
    size, in its order.

    CENSUS_ROWS rows at a time are laid out as ASCII in one uint8 array,
    each field in fixed columns with 0 bytes where a row's text is
    shorter, and written with the 0 bytes dropped (_ascii). The
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
            fh.write(_ascii((b"", b",", b",", b",", b"", b"\n"), [
                pattern, kinds[periodic.view(np.uint8)], digits[q],
                field.reshape(rows, -1),
                _digits(np.fromiter((p or 0 for p in itertools.islice(
                    values, rows)), np.int64, rows))]))


def write_manifest(manifest: dict, out_path: str) -> str:
    """Drop a manifest JSON next to a data file; returns the sidecar path."""
    sidecar = f"{out_path}.manifest.json"
    write_json(manifest, sidecar)
    return sidecar
