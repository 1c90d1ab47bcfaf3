"""Trajectory export: CSV, JSON, SVG scatter, the classify, spectrum and
decompose tables, and run manifests.

Floats are written as repr() spells them, the shortest representation
that parses back to the identical double, so a written file re-read equals
the in-memory trajectory bit for bit. Every table of floats (trajectory
CSV and JSON, spectrum, decompose) is laid out a block of rows at a time
as ASCII in one numpy array (_ascii): the digits of every |x| in
[2**-21, 1e16), fixed notation from 1e-4 up and exponent notation below,
are computed exactly (_shortest), 0.0 and -0.0 are written directly, and
only smaller and larger magnitudes, NaN and the infinities go through
repr. All writers are pure functions of their inputs; writing the same
data twice produces identical bytes.
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
_SVG_POINT = '<circle cx="%.3f" cy="%.3f" r="2"/>\n'


def _group_text():
    """The 4 ASCII digits of 0..9999 as little-endian uint32, in three
    rows: row 0 with 0 bytes for leading zeros (0 is four 0 bytes), row 1
    zero-padded, and row 2 as row 0 but 0 as '0'."""
    c = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    padded = (c[:, None, None, None] | c[:, None, None] << 8
              | c[:, None] << 16 | c << 24).ravel()
    lead = padded & np.repeat(np.array(
        [0, 255 << 24, 65535 << 16, 2 ** 24 - 1 << 8, 2 ** 32 - 1],
        np.uint32), [1, 9, 90, 900, 9000])
    units = lead.copy()
    units[0] = ord("0") << 24
    return np.concatenate([lead, padded, units])


_GROUPS = _group_text()  # v + 10000 * row
_PADDED = _GROUPS[10000:20000].astype(np.uint64)  # in the low half of a word


def _binade_tables():
    """Per biased exponent be of a double x in [2**-21, 1e16), the
    constants of _shortest: q, 10**q as an exact double and as Dekker's
    halves, and half an ulp of x times 10**q. Entries outside the range
    repeat its ends."""
    e = np.arange(2048) - 1022  # x in [2**(e-1), 2**e)
    e = np.where(e < -20, -20, np.where(e > 54, 54, e))
    q = -np.floor((e - 53) * math.log10(2)).astype(np.int64)
    scale = np.array([float(10 ** k) for k in range(23)])[q]  # all exact
    # 2**(e-54) from its bits
    half_ulp = scale * ((e - 54 + 1023) << 52).view(np.float64)
    return q, scale, *_halves(scale), half_ulp


def _halves(v):
    """Dekker's (Veltkamp's) split of doubles v into hi + lo, each of at
    most 26 significant bits, so that products of halves are exact."""
    t = v * (2.0 ** 27 + 1)
    hi = t - (t - v)
    return hi, v - hi


_Q, _SCALE, _SCALE_HI, _SCALE_LO, _HALF_ULP = _binade_tables()
# the (decpt, s) pairs _floats lays out: x in [2**-21, 1e16) has decpt in
# -6..16, and s = q - k in -16..22
_DECPT_LOW, _S_LOW, _S_SPAN = -6, -16, 39


def _frame_tables():
    """Per (decpt, s) pair of a double d*10**-s written by _floats, then a
    pair for 0.0, and all of them again for negative doubles: the words
    of its 32-byte frame as uint64 masks and text of shape (words, pairs),
    per pair whether the part before the point holds digits of d, and the
    power of ten d is multiplied by first, so that fixed notation has a
    digit after the point (0 for 0.0).

    The masks keep the bytes of words 1-3 of d's digits shifted down one
    byte (the part before the point, where it holds digits of d) and in
    place (the part after the point). The text holds the point, the
    exponent, the '-', and the '0' before the point of 0.0 and of a
    number below 1."""
    pair = np.arange(23 * _S_SPAN + 1)
    decpt = pair // _S_SPAN + _DECPT_LOW
    s = pair - (decpt - _DECPT_LOW) * _S_SPAN + _S_LOW
    decpt[-1], s[-1] = 0, 1  # 0.0 is laid out as 0.5 with d = 0
    expo = decpt <= -4
    # digits after the point, t, and before it, a; the exponent is 1-decpt
    after = np.where(expo, decpt + s - 1, np.where(s > 1, s, 1))
    before = np.where(expo | (decpt < 1), 1, decpt)
    lead = expo | (decpt > 0)
    point = 27 - after
    first = point - before  # the first digit's byte

    # the frame's words with every byte from the sign's, the first digit's,
    # the byte after it, the point's, the byte after it, and byte 28 on set
    bits = (8 * np.stack([first - 1, first, first + 1, point, point + 1,
                          np.full_like(point, 28)])[:, None]
            - 64 * np.arange(4)[:, None])
    bits = np.where(bits < 0, 0, np.where(bits > 64, 64, bits))
    sign, digit, second, dot, after_dot, end = np.uint64(
        2 ** 64 - 1) << bits.astype(np.uint64)

    def char(text):
        return np.uint64(ord(text) * 0x0101010101010101)
    shifted = np.where(lead, digit & ~dot, 0)[1:]
    placed = (after_dot & ~end)[1:]
    text = (np.where(after > 0, dot & ~after_dot & char("."), 0)
            | np.where(lead, 0, digit & ~second & char("0")))
    text[3] |= np.where(expo, int.from_bytes(b"\0\0\0\0e-0", "little")
                        + (ord("0") + 1 - decpt << 56), 0).astype(np.uint64)
    scale = 10 ** np.where(expo | (s > 0), 0, 1 - s)
    scale[-1] = 0
    return (np.concatenate([shifted, shifted], axis=1),
            np.concatenate([placed, placed], axis=1),
            np.concatenate([text, text | sign & ~digit & char("-")], axis=1),
            np.concatenate([lead, lead]), np.concatenate([scale, scale]))


_SHIFTED, _PLACED, _TEXT, _LEAD, _UPSCALE = _frame_tables()
_ZERO_PAIR = _UPSCALE.size // 2 - 1  # and the negative pairs follow it
_STAND_IN = 0.1 + 0.2  # 0.30000000000000004, 17 digits


def _sign_tables():
    """Per biased exponent with the sign bit, 0..4095, of a double x: the
    pair of x is its s plus _PAIR, plus _S_SPAN where |x| is at least
    _TEN, the double nearest the power of ten inside x's binade (inf where
    there is none): 1 + the largest j with the double 10**j at most |x|
    is the decpt of the binade's foot, or one more. The pair of 0.0 and of
    every double outside [2**-21, 1e16), all of which stand in as
    _STAND_IN, with s = 17, is the pair of 0.0."""
    pair = np.full(2048, _ZERO_PAIR - (len(repr(_STAND_IN)) - len("0.")))
    ten = np.full(2048, np.inf)
    tens = [float(f"1e{j}") for j in range(-7, 18)]
    for be in range(1023 - 21, 1023 + 54):
        foot = 2.0 ** (be - 1023)
        decpt = next(j for j, t in enumerate(tens, -7) if t > foot)
        pair[be] = (decpt - _DECPT_LOW) * _S_SPAN - _S_LOW
        if tens[decpt + 7] < 2 * foot:
            ten[be] = tens[decpt + 7]
    return (np.concatenate([pair, pair + _ZERO_PAIR + 1]),
            np.concatenate([ten, ten]))


_PAIR, _TEN = _sign_tables()


@contextlib.contextmanager
def _open_out(path):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


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


def _ascii(head, columns=(), nonfinite=repr):
    """Lines of ASCII, one per row: for each (glue, field) of head its
    glue and the field, a (rows, width) uint8 array of text with 0 bytes
    where a row's text is shorter, or integers >= 0 (_number_words); then
    for each (glue, floats) of columns its glue and the float.__repr__ of
    the row's value (_floats; nonfinite spells NaN and the infinities).
    The writers begin each row with the line end before it.

    The rows are laid out in one preallocated (rows, width) uint8 block,
    integers and floats in uint64 words, each float in the 32-byte frame
    of _floats with up to 5 bytes of text before it inside, and written
    with the 0 bytes dropped in one pass. A column of 0.0 only, as
    lambda_x is on a computational tape, is text like glue."""
    rows = len(head[0][1]) if head else len(columns[0][1])
    at, parts, pending = 0, [], b""  # pending: text not laid out yet
    for glue, field in head:
        if field.ndim == 1:
            at = -(-at // 8) * 8
            field = _number_words(field, glue)
            parts.append((at, field))
            at += 8 * len(field)
        else:
            parts.append((at, glue))
            parts.append((at + len(glue), field))
            at += len(glue) + field.shape[1]
    live, glues = [], []
    for glue, values in columns:
        pending += glue
        if not values.view(np.uint64).any():
            pending += repr(0.0).encode()
            continue
        if len(pending) > 5:  # what stands before glue goes first
            parts.append((at, pending[:len(pending) - len(glue)]))
            at, pending = at + len(pending) - len(glue), glue
        at = -(-at // 8) * 8
        parts.append((at, len(live)))
        live.append(values)
        glues.append(pending)
        at, pending = at + 32, b""
    parts.append((at, pending))
    block = np.zeros((rows, -(-(at + len(pending)) // 8) * 8), np.uint8)
    words = block.view(np.uint64)
    if live:
        frames = _floats(np.array(live), glues, nonfinite)
    for at, part in parts:
        if isinstance(part, bytes):
            block[:, at:at + len(part)] = np.frombuffer(part, np.uint8)
        elif isinstance(part, int):
            for i, word in enumerate(frames[:, part]):
                words[:, at // 8 + i] = word
        elif part.dtype == np.uint8:
            block[:, at:at + part.shape[1]] = part
        else:
            for i, word in enumerate(part):
                words[:, at // 8 + i] = word
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _digits(values):
    """ASCII decimal digits of integers >= 0, one row each, right-aligned
    in the width of the largest, with 0 bytes before the leading digit
    (_number_words)."""
    width = len(str(max(int(values.max(initial=0)), 1)))
    return np.ascontiguousarray(_number_words(values, b"").T).view(
        np.uint8)[:, -width:]


def _number_words(values, glue):
    """Integers >= 0 as ASCII in whole uint64 words, shape (words, rows):
    glue from the first byte, then 0 bytes, then the digits, ending at
    the last byte, 0 as '0'. Four digits at a time come from _GROUPS,
    padded where more digits stand before them."""
    width = len(str(max(int(values.max(initial=0)), 1)))
    size = -(-(len(glue) + width) // 8)
    words = np.empty((size, len(values)), np.uint64)
    words[:] = np.frombuffer(glue.ljust(8 * size, b"\0"), np.uint64)[:, None]
    for j in range(-(-width // 4)):  # the group of 10**(4j)
        row = 2 if j == 0 else 0  # where no digits stand before it
        if 4 * j + 4 < width:
            rest = values // 10000
            group = values - 10000 * rest
            group += np.where(rest > 0, 10000, 10000 * row)
            values = rest
        else:
            group = values + 10000 * row
        text = _GROUPS[group].astype(np.uint64)
        if j % 2 == 0:  # the last 4 bytes of the word
            text <<= np.uint64(32)
        words[size - 1 - j // 2] |= text
    return words


def _shortest(mag, be):
    """repr's digits of doubles x in [2**-21, 1e16): (d, s), where x
    reads back from the decimal d*10**-s and d has no trailing zero (int64
    arrays); be is x's biased exponent.

    Write x = m*2**E with m an integer in [2**52, 2**53), and let
    q = ceil(-E*log10(2)), so that r = 2**E*10**q lies in [1, 10). On
    [2**-21, 1e16), E runs from -73 to 1 and q from 22 down to 0 (the
    tables _Q, _SCALE, _HALF_ULP, by be): 10**q is an exact double there
    (5**22 < 2**53), and Dekker's exact product (1971) splits
    X = x*10**q into hi + lo with no rounding. hi, the double nearest X,
    is an integer, as X >= 2**52; X < r*2**53 <= 2**(c+53) with
    c = ceil(log2(r)), so |lo| <= 2**(c-1) < r.

    A decimal D*10**-q reads back as x when D lies within w = 2**(E-1)*
    10**q = r/2 of X: D is an integer in hi + [lo - w, lo + w]. lo - w and
    lo + w are multiples of 2**(E+q-1) = r/(2*5**q) below 3r/2 in
    magnitude, so fewer than 3*5**q of them; 3*5**22 < 2**53 makes both
    exact doubles. 10**23 is no double, and 3*5**23 > 2**53: that is why
    q stops at 22 and x at 2**-21. Where E + q <= 0 the ends are odd
    multiples of 2**(E+q-1) < 1, never integers, so whether the interval
    is closed (m even) or open (m odd) changes nothing. Where E + q >= 1,
    x in [2**53, 1e16), q = 0 and the ends are x - 1 and x + 1, odd around
    the even x: they are no multiple of 10, and at k = 0 below x itself
    is nearest. Either way the integers are low + 1 .. high, with
    low = hi + floor(lo - w) and high = hi + floor(lo + w), width =
    high - low of them.

    At m = 2**52 the double below is only a quarter-ulp away; then
    x = 2**j. For j < 0, X = 5**-j*10**(q+j) with q + j >= 1: its digit
    at 10**(q+j) is 5, so the nearest multiple of 10**(q+j+1) is 50 or
    more away. For j >= 0, X = 2**j*10**q, and the nearest multiple of
    10**(q+1) is at least 2*10**q away, more than w (w <= 1 where q = 0).
    Either way X is the multiple of the largest power of ten in both
    intervals, and its digits are 2**j's either way.

    repr's digits are the multiple of the largest 10**k inside. The
    interval is at least 1 wide, so it holds an integer, and narrower
    than 10, so it holds at most one multiple of 10**k for k >= 1, and
    it holds one when high mod 10**k < width. For k = 1 that is the units
    digit of high; for k > 1 it also takes the k - 1 digits above the
    units to be 0, as 10 >= width. So k is 0 where high mod 10 >= width,
    and otherwise 1 + the trailing zeros of high//10: one where 10
    divides it, and then 8, 4, 2 and 1 more where 10**8, 10**4, 10**2 and
    10 divide what is left (high < 10**17, so at most 15 zeros); the
    digits are then high//10**k. At k = 0 they are the integer nearest X,
    ties to the even digit, which lies inside as w >= 1/2. It is
    hi + rint(lo): lo is a half-integer only when hi's ulp is 1 and
    |lo| = 1/2, where the product rounded hi to even, or when hi's ulp is
    2 or more, and hi is even. These are the bounds of Ryu (Adams, PLDI
    2018); d is the multiple over 10**k, and s = q - k."""
    s = _Q[be]
    scale_hi, scale_lo = _SCALE_HI[be], _SCALE_LO[be]
    hi = mag * _SCALE[be]
    # Dekker's product: each factor split into halves of 26 bits
    mag_hi, mag_lo = _halves(mag)
    lo = mag_hi * scale_hi
    lo -= hi
    lo += np.multiply(mag_hi, scale_lo, out=mag_hi)
    lo += mag_lo * scale_hi
    lo += np.multiply(mag_lo, scale_lo, out=mag_lo)
    w = _HALF_ULP[be]
    hi = hi.astype(np.int64)
    up = np.floor(lo + w)
    width = (up - np.floor(np.subtract(lo, w, out=w), out=w)).astype(np.int64)
    high = up.astype(np.int64)
    high += hi
    d = np.rint(lo, out=lo).astype(np.int64)
    d += hi
    # k >= 1: the units of high below width
    tens = high // 10
    rest = np.flatnonzero(high - 10 * tens < width)
    s[rest] -= 1
    d[rest] = digits = tens[rest]
    # k >= 2: digits ends in 0; then 8, 4, 2 and 1 more zeros
    tens = digits // 10
    more = np.flatnonzero(digits == 10 * tens)
    rest, digits, k = rest[more], tens[more], 1
    for p in (8, 4, 2, 1):
        quotient = digits // 10 ** p
        divides = digits == quotient * 10 ** p
        np.copyto(digits, quotient, where=divides)
        k = k + divides * p
    s[rest] -= k
    d[rest] = digits
    return d, s


def _floats(x, glue, nonfinite):
    """float.__repr__ of every double of x, a (columns, rows) array, as
    the (4, columns, rows) uint64 words of 32-byte ASCII frames: glue[i],
    at most 5 bytes, ends at byte 4 of column i's frames, and 0 bytes
    stand where a text is shorter.

    Finite |x| in [2**-21, 1e16) is laid out from _shortest's d*10**-s.
    repr puts the point decpt digits after d's first: decpt is 1 + the
    largest j with the double 10**j at most |x| (a decimal below 10**j
    reads back below that double, or as it, whose digits are 10**j's), so
    one power of ten per binade sets it (_PAIR, _TEN). d's 20 digits,
    zero-padded from a table of 4-digit groups, fill bytes 8-27 (words 1
    to 3); the same digits shifted down one byte give the part before the
    point where it holds digits of d (from 1 up, and in exponent
    notation), those in place the part after it, and per (decpt, s) and
    sign a table gives both masks, the point, the exponent, the sign and
    word 0 (_frame_tables): '-' just before the first digit, then fixed
    notation from 1e-4 up, d zero-padded to s + 1 digits around the
    point, or 'd.ddde-0X' below. Fixed notation needs a digit after the
    point, so an s < 1 first multiplies d by 10**(1 - s). 0.0 and -0.0
    have pairs of their own, with d = 0. Every other double is laid out
    from byte 5 as repr spells it, or NaN and the infinities as nonfinite
    does; these and 0.0 stand in as _STAND_IN, whose 17 digits end
    _shortest's search at once."""
    shape = x.shape
    x = x.ravel()
    mag = np.fabs(x)
    fast = (mag >= 2.0 ** -21) & (mag < 1e16)
    mag = np.where(fast, mag, _STAND_IN)
    d, pair = _shortest(mag, mag.view(np.int64) >> 52)
    signed = x.view(np.int64) >> 52 & 4095
    pair += _PAIR[signed]
    pair += (mag >= _TEN[signed]) * _S_SPAN
    d *= _UPSCALE[pair]
    # d's 20 digits, four at a time: words 1, 2 and 3
    words = np.empty((4, len(x)), np.uint64)
    rest = d // 10 ** 4
    d -= rest * 10 ** 4
    np.take(_PADDED, d, out=words[3], mode="clip")
    top = rest // 10 ** 8
    rest -= top * 10 ** 8
    for word, value in ((1, top), (2, rest)):
        g = value // 10 ** 4
        value -= g * 10 ** 4
        np.take(_PADDED, value, out=words[word], mode="clip")
        words[word] <<= np.uint64(32)
        words[word] |= _PADDED[g]
    placed = words[1:]
    lead = np.flatnonzero(_LEAD[pair])
    if lead.size:
        digits = placed[:, lead]
        shifted = digits >> np.uint64(8)
        shifted[:-1] |= digits[1:] << np.uint64(56)
        shifted &= np.take(_SHIFTED, pair[lead], axis=1)
    placed &= np.take(_PLACED, pair, axis=1)
    placed |= np.take(_TEXT[1:], pair, axis=1)
    if lead.size:
        placed[:, lead] |= shifted
    np.take(_TEXT[0], pair, out=words[0], mode="clip")
    rare = np.flatnonzero(~fast & (x != 0))
    if rare.size:
        text = np.zeros((rare.size, 32), np.uint8)
        text[:, 5:29] = np.array([
            repr(v) if math.isfinite(v) else nonfinite(v)
            for v in x[rare].tolist()], "S24").view(np.uint8).reshape(-1, 24)
        words[:, rare] = text.view(np.uint64).T
    words = words.reshape(4, *shape)
    # each glue ends at byte 4
    words[0] |= np.array([int.from_bytes(g.rjust(5, b"\0"), "little")
                          for g in glue], np.uint64)[:, None]
    return words




def _float_blocks(head, columns, nonfinite):
    """_ascii of REDUCE_BLOCK rows at a time: head(s, rows) gives the head
    fields of the rows from s on, and columns the float columns whole."""
    rows = len(columns[0][1])
    for s in range(0, rows, REDUCE_BLOCK):
        yield _ascii(head(s, min(REDUCE_BLOCK, rows - s)), [
            (glue, values[s:s + REDUCE_BLOCK]) for glue, values in columns],
            nonfinite=nonfinite)


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


def _trajectory_text(bloch, labels, glue, nonfinite):
    """The rows of bloch, one string per block of REDUCE_BLOCK rows: the
    integer columns of labels, then x, y and z, each after its glue: the
    first label's is glue[0], which begins the row, the next ones'
    glue[1], and each float's glue[2]."""
    def head(s, rows):
        return list(zip([glue[0]] + [glue[1]] * (len(labels) - 1),
                        [c[s:s + rows] for c in labels]))
    return _float_blocks(head, [(glue[2], c) for c in bloch.T],
                         nonfinite)


def write_trajectory_csv(traj, path) -> None:
    """The header, then one row m,n,p,x,y,z per step, floats as
    float.__repr__ spells them, a block of rows at a time (_ascii). Each
    row begins with the line end before it."""
    steps = len(traj.bloch)
    labels = np.arange(steps), *step_labels(steps, traj.num_tape_spins)
    with _open_out(path) as fh:
        fh.write(CSV_HEADER)
        fh.writelines(_trajectory_text(traj.bloch, labels,
                                       (b"\n", b",", b","), repr))
        fh.write("\n")


def write_trajectory_json(traj, manifest: dict, path) -> None:
    """Write {"manifest": manifest, "points": [[m, x, y, z], ...]} in the
    exact bytes of write_json. json lays out the manifest; the points,
    where json's pure-Python indenting encoder would spend its time, are
    laid out a block at a time as json would (_ascii), non-finite floats
    as json spells them (NaN, Infinity). Each point begins with the end
    of the one before it."""
    head = json.dumps({"manifest": manifest, "points": []}, indent=1)
    with _open_out(path) as fh:
        if not len(traj.bloch):  # json spells an empty list []
            fh.write(head + "\n")
            return
        between = "\n  ],"
        blocks = _trajectory_text(
            traj.bloch, [np.arange(len(traj.bloch))],
            (between.encode() + b"\n  [\n   ", None, b",\n   "), json.dumps)
        fh.write(head[:-len("[]\n}")] + "[" + next(blocks)[len(between):])
        fh.writelines(blocks)
        fh.write("\n  ]\n ]\n}\n")


def write_table(path, header: str, columns, labels=None) -> None:
    """A CSV table: header, then one row per value of the float columns,
    each as float.__repr__ spells it, after the row's label, where labels
    gives one string per row, all of one length, a block of rows at a
    time (_ascii). Each row begins with the line end before it."""
    def head(s, rows):
        if labels is None:
            return []
        text = "".join(labels[s:s + rows]).encode("ascii")
        return [(b"\n", np.frombuffer(text, np.uint8).reshape(rows, -1))]
    glue = [b"," if labels is not None or i else b"\n"
            for i in range(len(columns))]
    with _open_out(path) as fh:
        fh.write(header)
        fh.writelines(_float_blocks(head, list(zip(glue, columns)), repr))
        fh.write("\n")


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
    # a gap slot by gap + 1: row 0 blank, row g + 1 the digits of g and ';'
    slots = np.zeros((num + 2, digits.shape[1] + 1), np.uint8)
    slots[1:, :-1], slots[1:, -1] = digits, ord(";")
    pats, values = iter(periods), iter(periods.values())
    with _open_out(path) as fh:
        fh.write(CENSUS_HEADER)
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
            # a period of None is 0 here, and an empty field
            period = np.fromiter((p or 0 for p in itertools.islice(
                values, rows)), np.int64, rows)
            period_digits = _digits(period)
            period_digits[period == 0] = 0
            fh.write(_ascii(list(zip((b"\n", b",", b",", b",", b""), [
                pattern, kinds[periodic.view(np.uint8)], digits[q],
                field.reshape(rows, -1), period_digits]))))
        fh.write("\n")


def write_manifest(manifest: dict, out_path: str) -> str:
    """Drop a manifest JSON next to a data file; returns the sidecar path."""
    sidecar = f"{out_path}.manifest.json"
    write_json(manifest, sidecar)
    return sidecar
