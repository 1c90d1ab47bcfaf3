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
that fits in one block is its own only block.
"""

import numpy as np

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
    """{mu: pair} for amps of at most BLOCK amplitudes: pair(c, s) is
    rotate_head(amps, c, s) and then cnot_flip(amps, mu), or
    cnot_signed_flip when signed, with their bits.

    The halves of amps, scratch of its shape and each spin's flip views of
    both are bound once. A pair makes rotate_head's five one-block ufunc
    calls, but forms the new head-0 half c a0 - (i s) a1 in scratch and
    writes it from there straight to its flipped place, so the flip makes
    no pass and no copy of its own."""
    half = amps.shape[-1] // 2
    scratch = np.empty_like(amps)
    a0, a1 = amps[..., :half], amps[..., half:]
    t, r = scratch[..., :half], scratch[..., half:]

    def pair(mu):
        dst, src = _flip_view(amps, mu), _flip_view(scratch, mu)
        dst0, dst1 = dst[:, :, 0], dst[:, :, 1]
        src0, src1 = src[:, :, 0], src[:, :, 1]
        swapped = src[:, :, ::-1]

        def rotate_and_flip(c, s):
            np.multiply(1j * s, a1, out=t)
            np.multiply(-1j * s, a0, out=r)
            np.multiply(c, amps, out=amps)
            np.add(r, a1, out=a1)
            np.subtract(a0, t, out=t)
            if signed:
                np.negative(src1, out=dst0)
                np.copyto(dst1, src0)
            else:
                np.copyto(dst, swapped)
        return rotate_and_flip

    return {mu: pair(mu) for mu in range(1, amps.shape[-1].bit_length() - 1)}
