"""Numpy gate kernels, used when the compiled extension is unavailable.

All kernels mutate the flat amplitude array in place and must match the
compiled versions (_kernels_c.c) bit for bit. Head is index bit 0, tape spin
mu is index bit mu.

Each kernel applies its elementwise formula one block of at most BLOCK
amplitudes at a time, so the temporaries numpy makes for a block stay in
cache instead of streaming state-sized arrays through memory. Blocking only
regroups independent elementwise work; every amplitude gets the same
operations as in one whole-array pass.
"""

import numpy as np

# amplitudes per block: 512 KiB of state, so a block and its temporaries fit
# in a core's L2 cache
BLOCK = 1 << 15


def rotate_head(amps, c, s):
    # head pairs are contiguous (stride 1): view as (pairs, 2)
    pairs = amps.reshape(-1, 2)
    for i in range(0, len(pairs), BLOCK // 2):
        v = pairs[i:i + BLOCK // 2]
        a0 = c * v[:, 0] - 1j * s * v[:, 1]
        v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
        v[:, 0] = a0


def _flip_blocks(amps, mu):
    """The head-0 amplitudes of amps, viewed as (groups, 2, k) with axis 1
    the tape bit mu, one block at a time.

    Amplitudes come in groups of 2**(mu+1); even offsets within a group are
    head-0. A block holds whole groups while a group fits in BLOCK, and a
    slice of the inner axis of every group otherwise.
    """
    half = 1 << mu
    v = amps.reshape(-1, 2, half)
    groups = max(1, BLOCK // (2 * half))
    width = min(half, BLOCK // 2)
    for g in range(0, v.shape[0], groups):
        for j in range(0, half, width):
            yield v[g:g + groups, :, j:j + width:2]


def cnot_flip(amps, mu):
    # swap the tape-bit-mu pair wherever the head bit is 0
    for h0 in _flip_blocks(amps, mu):
        t = h0[:, 0].copy()
        h0[:, 0] = h0[:, 1]
        h0[:, 1] = t


def cnot_signed_flip(amps, mu):
    # signed variant: (t0, t1) -> (-t1, t0) on the head-0 block
    for h0 in _flip_blocks(amps, mu):
        t = h0[:, 0].copy()
        np.negative(h0[:, 1], out=h0[:, 0])
        h0[:, 1] = t
