"""Numpy gate kernels, used when the compiled extension is unavailable.

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
the blocks of one state.
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
        np.subtract(a0, t, out=a0)
        np.add(r, a1, out=a1)
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

def cnot_flip(amps, mu):
    # swap the runs of every head-0 half that differ in spin mu
    for b in _blocks(_flip_view(amps, mu)):
        b[...] = b[:, :, ::-1]


def cnot_signed_flip(amps, mu):
    # signed variant: (t0, t1) -> (-t1, t0) on the head-0 half
    for b in _blocks(_flip_view(amps, mu)):
        t = b[:, :, 0].copy()
        np.negative(b[:, :, 1], out=b[:, :, 0])
        b[:, :, 1] = t


def pairs(amps, signed):
    """{mu: pair} for the tape spins mu = 1..M of one state amps: pair(c, s)
    is rotate_head(amps, c, s) and then cnot_flip(amps, mu), or
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
    that lands on bit 0). Once a block is final it takes np.vdot of each
    REDUCE_BLOCK-sized chunk of (a0, a1), and the pair adds those sums in
    chunk order starting from 0j, as state._vdot does.

    Scratch is two blocks, as rotate_head's is: a partner pair forms its
    second block's head-1 products in the first block's head-0 stretch,
    whose new values are already in scratch. Every view a call uses is
    bound here, once.
    """
    half = amps.size // 2
    width = min(half, BLOCK // 2)
    step = min(width, REDUCE_BLOCK)
    scratch = aligned_empty((2, width), amps.dtype)
    t, r = scratch
    sums = [0j] * (half // step)
    # per block: its rotation, as (a0 and a1 as one (2, width) view, a0,
    # a1, where the new a0 goes, where the head-0 products go), and its
    # chunks, as (index, a0 chunk, a1 chunk)
    blocks = [(((ab, ab[0], ab[1], t, r),),
               tuple((k * width // step + i // step, ab[0, i:i + step],
                      ab[1, i:i + step]) for i in range(0, width, step)))
              for k, ab in enumerate(amps.reshape(2, -1, width)
                                     .swapaxes(0, 1))]

    def sources(src):
        # the views of the new a0 in src (tape bit on axis -2) that move
        # to bit 0 and to bit 1 of their flipped place; the plain flip
        # moves all of src at once, with the bit reversed
        if signed:
            return src[..., 1, :], src[..., 0, :]
        return src[..., ::-1, :], None

    def job(rotations, parts, dst, moved):
        # (rotations, chunks, to bit 0, from, to bit 1, from), dst the
        # flipped place (tape bit on axis -2) and moved its sources
        if signed:
            return (rotations, parts, dst[..., 0, :], moved[0],
                    dst[..., 1, :], moved[1])
        return rotations, parts, dst, moved[0], None, None

    partnered = sources(scratch)

    def jobs(mu):
        run = 1 << (mu - 1)
        if run < width:
            # each block's flip stays in it: rotation[0][1] is its a0
            moved = sources(t.reshape(-1, 2, run))
            return [job(rotation, parts, rotation[0][1].reshape(-1, 2, run),
                        moved) for rotation, parts in blocks]
        # block k goes with block k + run // width, whose tape indices
        # differ from its own in bit mu-1; the second one forms its head-1
        # products in the first one's a0, whose new values are in t
        heads = amps[:half].reshape(-1, 2, run)
        paired = []
        for k in range(len(blocks)):
            if k * width & run:
                continue
            g, at = divmod(k * width, 2 * run)
            ((first,), parts), ((second,), more) = (
                blocks[k], blocks[k + run // width])
            paired.append(job((first, second[:3] + (r, first[1])),
                              parts + more, heads[g, :, at:at + width],
                              partnered))
        return paired

    def pair(mu):
        work = jobs(mu)

        # the numpy functions are bound as defaults, which saves a global
        # and an attribute lookup per call of each
        def rotate_and_flip(c, s, multiply=np.multiply, add=np.add,
                            subtract=np.subtract, negative=np.negative,
                            copyto=np.copyto, vdot=np.vdot):
            w, u = 1j * s, -1j * s
            for rotations, parts, to0, from0, to1, from1 in work:
                for ab, a0, a1, new0, tmp in rotations:
                    multiply(w, a1, out=new0)
                    multiply(u, a0, out=tmp)
                    multiply(c, ab, out=ab)
                    add(tmp, a1, out=a1)
                    subtract(a0, new0, out=new0)
                if signed:
                    negative(from0, out=to0)
                    copyto(to1, from1)
                else:
                    copyto(to0, from0)
                for j, x, y in parts:
                    sums[j] = vdot(x, y)
            total = 0j
            for part in sums:
                total += part
            return complex(total)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, half.bit_length())}
