"""Numpy gate kernels, used when the compiled extension is unavailable.

All kernels mutate the flat amplitude array in place and must match the
compiled versions (_kernels_c.c) bit for bit. Head is index bit 0, tape spin
mu is index bit mu.
"""

import numpy as np


def rotate_head(amps, c, s):
    # head pairs are contiguous (stride 1): view as (pairs, 2)
    v = amps.reshape(-1, 2)
    a0 = c * v[:, 0] - 1j * s * v[:, 1]
    v[:, 1] = -1j * s * v[:, 0] + c * v[:, 1]
    v[:, 0] = a0


def cnot_flip(amps, mu):
    # swap the tape-bit-mu pair wherever the head bit is 0; blocks of
    # 2**(mu+1) amplitudes, even offsets within a block are head-0
    v = amps.reshape(-1, 2, 1 << mu)
    h0 = v[:, :, 0::2]
    t = h0[:, 0].copy()
    h0[:, 0] = h0[:, 1]
    h0[:, 1] = t


def cnot_signed_flip(amps, mu):
    # signed variant: (t0, t1) -> (-t1, t0) on the head-0 block
    v = amps.reshape(-1, 2, 1 << mu)
    h0 = v[:, :, 0::2]
    t = h0[:, 0].copy()
    h0[:, 0] = -h0[:, 1]
    h0[:, 1] = t
