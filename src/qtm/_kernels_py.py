"""Numpy gate kernels: the kernels of every step when the compiled
extension is unavailable, and with either backend the ones
engine._cycle_matrix builds the cycle matrix U with in extended precision
(np.clongdouble, which the compiled kernels do not take).

All kernels mutate amps in place and must match the compiled versions
(_kernels_c.c) bit for bit. The last axis of amps is one state, and any
leading axes are a stack of states the kernel treats alike. A state of M
tape spins is head-major: amplitude t + h * 2**M is head h, tape t, with
tape spin mu at bit mu-1 of t. So the first half of a state holds its
head-0 amplitudes and the second half its head-1 amplitudes.

Each kernel applies its elementwise formula one block of at most BLOCK
amplitudes at a time, so the scratch a block needs stays in cache instead
of streaming state-sized arrays through memory. Blocking only regroups
independent elementwise work; every amplitude gets the same operations as
in one whole-array pass. A flip has one body for every size: an array
that fits in one block is its own only block. So has pairs, which fuses a
rotation, the flip after it and the head cross term into one sweep over
the blocks of one state, with the rotation's coefficients and every view
bound once per run, so a call of a mid-size state's pair is a handful of
ufunc calls and no other work. ring_pairs makes the same rotation and
flip out of place, from one row of a ring of states into the next, in
five ufunc calls for the plain flip and seven for the signed one.
"""

import numpy as np

from .state import REDUCE_BLOCK, aligned_empty

# amplitudes per block: 512 KiB of state, so a block and its scratch fit
# in a core's L2 cache
BLOCK = 1 << 15


def _blocks(v):
    """v, a (rows, groups, 2, width) view, as blocks of at most BLOCK
    amplitudes: v itself when it fits, else whole rows while a row fits,
    whole groups of one row while a group fits, and slices of one group's
    width otherwise."""
    if v.size <= BLOCK:
        return (v,)
    rows, groups, _, width = v.shape
    r = max(1, BLOCK // (2 * width * groups))
    g = max(1, BLOCK // (2 * width))
    w = min(width, BLOCK // 2)
    return (v[i:i + r, k:k + g, :, j:j + w] for i in range(0, rows, r)
            for k in range(0, groups, g) for j in range(0, width, w))


def rotate_head(amps, c, s):
    # (a0, a1) -> (c a0 - 1j s a1, -1j s a0 + c a1), a0 and a1 the two
    # halves of every state: the same complex-scalar products as the
    # whole-array formula, which a larger array writes block by block into
    # scratch of amps.dtype
    w, u = 1j * s, -1j * s
    half = amps.shape[-1] // 2
    # an array that fits in a block skips the block loop: one body for all
    # sizes took 11-27% longer per call at 16-4,096 amplitudes, and 8-10%
    # at 2**16-2**19 amplitudes with fresh temporaries per block
    if amps.size <= BLOCK:
        a0, a1 = amps[..., :half], amps[..., half:]
        t = np.multiply(w, a1)
        r = np.multiply(u, a0)
        np.multiply(c, amps, out=amps)
        if amps.ndim == 1:
            np.subtract(a0, t, out=a0)
            np.add(r, a1, out=a1)
            return
        # the halves of a stack are strided, and a ufunc whose output is
        # one of its strided inputs copies both (a (128, 64) stack: 132
        # against 66 KB and 16.1 against 8.1 us per subtract), so the new
        # halves go into the contiguous t and r and are copied back
        np.subtract(a0, t, out=t)
        np.add(r, a1, out=r)
        np.copyto(a0, t)
        np.copyto(a1, r)
        return
    scratch = None
    for b in _blocks(amps.reshape(-1, 1, 2, half)):
        a0, a1 = b[:, :, 0], b[:, :, 1]
        if scratch is None:
            scratch = np.empty((2,) + a0.shape, amps.dtype)
        t, r = scratch[0, :len(a0)], scratch[1, :len(a0)]
        np.multiply(w, a1, out=t)
        np.multiply(u, a0, out=r)
        np.multiply(c, a0, out=a0)
        np.subtract(a0, t, out=a0)
        np.multiply(c, a1, out=a1)
        np.add(r, a1, out=a1)


def _flip_view(amps, mu):
    """The head-0 half of every state, viewed as (rows, groups, 2, run)
    with axis 2 the tape bit mu-1 and run = 2**(mu-1)."""
    run = 1 << (mu - 1)
    return amps.reshape(-1, 2, amps.shape[-1] // (4 * run), 2, run)[:, 0]


# A flip assigns each block from its view with the tape bit's axis
# reversed (numpy reads the overlapping source through a block-sized
# copy); the signed flip swaps each block through a copy of one run,
# negated on the way. Neither rounds, so the blocking moves no bit.

def _reals(v):
    """v, a complex view whose last axis is contiguous, as the real and
    imaginary parts it holds, of v's own precision (longdouble for
    _cycle_matrix's clongdouble): numpy 2.4 negates complex128 2-4.5x
    slower than the same memory as float64, with the same bits. Runs of
    one amplitude stay complex: numpy walks them in one strided loop, but
    their real views in loops of two, 1.7-2.4x slower (spin 1 of a state
    of 2**19 amplitudes, and of a 256-state stack at M=4)."""
    return v if v.shape[-1] == 1 else v.view(v.real.dtype)


def cnot_flip(amps, mu):
    # swap the runs of every head-0 half that differ in spin mu
    for b in _blocks(_flip_view(amps, mu)):
        b[...] = b[:, :, ::-1]


def cnot_signed_flip(amps, mu):
    # signed variant: (t0, t1) -> (-t1, t0) on the head-0 half
    for b in _blocks(_flip_view(amps, mu)):
        t = b[:, :, 0].copy()
        np.negative(_reals(b[:, :, 1]), out=_reals(b[:, :, 0]))
        b[:, :, 1] = t


def pairs(amps, signed, c, s):
    """{mu: pair} for the tape spins mu = 1..M of one state amps: pair() is
    rotate_head(amps, c, s) and then cnot_flip(amps, mu), or
    cnot_signed_flip when signed, with their bits, and returns the cross
    term sum(conj(a0) a1) of the new state with state.head_cross's bits.

    A pair walks the state one block of BLOCK // 2 tape indices at a time
    (all of them, if fewer), a block being that stretch of the head-0 half
    a0 and of the head-1 half a1. While spin mu's runs are shorter than a
    block, a block holds both sides of every swap its flip makes; from
    there up each block goes with its flip partner, the block whose tape
    indices differ in bit mu-1. For each block a pair makes rotate_head's
    five ufunc calls while the block is in cache, leaving the new a1 in
    place and the new a0 in scratch, and writes the new a0 from scratch
    straight to its flipped place (for the signed flip, negating the run
    that lands on bit 0 as its real and imaginary parts). Once a block is
    final it takes np.vdot of each REDUCE_BLOCK-sized chunk of (a0, a1),
    and the pair adds those sums in chunk order starting from 0j, as
    state._vdot does.

    Scratch is two blocks, as rotate_head's is: a partner pair forms its
    second block's head-1 products in the first block's head-0 stretch,
    whose new values are already in scratch. The coefficients c, 1j*s and
    -1j*s are bound once, as 0-d arrays, which a ufunc call takes faster
    than Python scalars, and so is every view a call uses.
    """
    half = amps.size // 2
    width = min(half, BLOCK // 2)
    step = min(width, REDUCE_BLOCK)
    scratch = aligned_empty((2, width), amps.dtype)
    t, r = scratch
    sums = [0j] * (half // step)
    c, w, u = (np.array(v, amps.dtype) for v in (c, 1j * s, -1j * s))
    # per block: its rotation, as (a0 and a1 as one (2, width) view, a0,
    # a1, where the new a0 goes, where the head-0 products go), and its
    # chunks, as (index, a0 chunk, a1 chunk)
    blocks = [((ab, ab[0], ab[1], t, r),
               tuple((k * width // step + i // step, ab[0, i:i + step],
                      ab[1, i:i + step]) for i in range(0, width, step)))
              for k, ab in enumerate(amps.reshape(2, -1, width)
                                     .swapaxes(0, 1))]

    def job(rotations, parts, dst, src):
        # (rotations, negated moves, copied moves, chunks): the new a0 in
        # src goes to its flipped place dst, both (groups, 2, run) with the
        # tape bit on axis 1, in moves (from, to)
        if not signed:
            return rotations, (), ((src[:, ::-1], dst),), parts
        return (rotations, ((_reals(src[:, 1]), _reals(dst[:, 0])),),
                ((src[:, 0], dst[:, 1]),), parts)

    def jobs(mu):
        run = 1 << (mu - 1)
        if run < width:
            # each block's flip stays in it: rotation[1] is its a0
            src = t.reshape(-1, 2, run)
            return [job((rotation,), parts, rotation[1].reshape(-1, 2, run),
                        src) for rotation, parts in blocks]
        # block k goes with block k + run // width, whose tape indices
        # differ from its own in bit mu-1; the second one forms its head-1
        # products in the first one's a0, whose new values are in t
        heads = amps[:half].reshape(-1, 2, run)
        paired = []
        for k in range(len(blocks)):
            if k * width & run:
                continue
            g, at = divmod(k * width, 2 * run)
            (first, parts), (second, more) = (blocks[k],
                                              blocks[k + run // width])
            paired.append(job((first, second[:3] + (r, first[1])),
                              parts + more, heads[g:g + 1, :, at:at + width],
                              scratch[None]))
        return paired

    def pair(mu):
        work = jobs(mu)

        # the numpy functions are bound as defaults, which saves a global
        # and an attribute lookup per call of each, and every out is
        # passed positionally
        def rotate_and_flip(multiply=np.multiply, add=np.add,
                            subtract=np.subtract, negative=np.negative,
                            copyto=np.copyto, vdot=np.vdot):
            for rotations, negated, copied, parts in work:
                for ab, a0, a1, new0, tmp in rotations:
                    multiply(w, a1, new0)
                    multiply(u, a0, tmp)
                    multiply(c, ab, ab)
                    add(tmp, a1, a1)
                    subtract(a0, new0, new0)
                for x, out in negated:
                    negative(x, out)
                for x, out in copied:
                    copyto(out, x)
                for j, x, y in parts:
                    sums[j] = vdot(x, y)
            total = 0j
            for part in sums:
                total += part
            return complex(total)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, half.bit_length())}


def ring_pairs(ring, signed, c, s):
    """{mu: pair} for the tape spins mu = 1..M over a ring of M >= 2
    states, ring an (M, 2**(M+1)) array: pair()
    writes into row mu-1 what rotate_head(., c, s) and then cnot_flip(.,
    mu), or cnot_signed_flip when signed, make of row mu-2 (row M-1 for
    mu = 1), with their bits, and leaves row mu-2 as it was. So a cycle
    of pairs in spin order carries a state once around the ring, and no
    row is copied.

    A pair is rotate_head's five ufunc calls out of place: the new a1
    goes straight to the destination row, and c times the source and w
    times its a1 go to scratch of a state and a half. For the plain flip
    the last call forms the new a0 straight into its flipped place. For
    the signed flip it forms the new a0 in the scratch the new a1 is done
    with, from where the run that lands on tape bit 0 is negated as its
    real and imaginary parts into place and the other run copied: one
    contiguous subtract and two moves took 3.5-4.5 us a pair at M=8,
    against 5.1-7.2 us for two strided subtracts into place (timeit, best
    of 7, spins 2-6, one process). The coefficients are bound once, as
    0-d arrays, and so is every view a call uses.
    """
    rows, size = ring.shape
    half = size // 2
    scratch = aligned_empty((3, half), ring.dtype)
    t, scaled, ca1 = scratch[0], scratch[1:], scratch[2]
    c, w, u = (np.array(v, ring.dtype) for v in (c, 1j * s, -1j * s))

    def pair(mu):
        run = 1 << (mu - 1)
        src, dst = ring[mu - 2], ring[mu - 1]
        a0, a1, new1 = src[:half], src[half:], dst[half:]
        # the new a0's place, with the tape bit on axis 1
        to = dst[:half].reshape(-1, 2, run)
        if not signed:
            new0, negated, copied = to[:, ::-1], (), ()
        else:
            new0 = ca1.reshape(-1, 2, run)
            negated = ((_reals(new0[:, 1]), _reals(to[:, 0])),)
            copied = ((to[:, 1], new0[:, 0]),)
        ca0, wa1 = (v.reshape(new0.shape) for v in (scaled[0], t))

        def rotate_and_flip(multiply=np.multiply, add=np.add,
                            subtract=np.subtract, negative=np.negative,
                            copyto=np.copyto, whole=src.reshape(2, half)):
            multiply(w, a1, t)
            multiply(u, a0, new1)
            multiply(c, whole, scaled)
            add(new1, ca1, new1)
            subtract(ca0, wa1, new0)
            for x, out in negated:
                negative(x, out)
            for out, x in copied:
                copyto(out, x)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, rows + 1)}
