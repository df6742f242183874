"""Vectorized NumPy enumeration of the theta-independent count table.

Splits each support vector into low/high bit halves; syndrome index, coset
bit and weight are all additive (XOR / sum) across the split, so the low
half is precomputed once and each high-half value contributes one
``bincount`` pass.  Counts are exact integers.
"""

import numpy as np

_LO_BITS = 18


def count_table(n, check_masks, xbar_mask):
    """Count support vectors by (syndrome index, coset bit, weight).

    Returns an int64 array of shape ``(2**r, 2, n + 1)`` where ``r`` is the
    number of X checks.
    """
    if n < 0 or n > 25:
        raise ValueError(f"kernel supports 0 <= n <= 25, got {n}")
    masks = [int(m) for m in check_masks]
    r = len(masks)
    xbar = int(xbar_mask)

    nlo = min(n, _LO_BITS)
    lo_mask = (1 << nlo) - 1
    lo = np.arange(1 << nlo, dtype=np.uint64)
    w_lo = np.bitwise_count(lo).astype(np.int64)
    s_lo = np.zeros(1 << nlo, dtype=np.int64)
    for k, m in enumerate(masks):
        par = (np.bitwise_count(lo & np.uint64(m & lo_mask)) & 1).astype(np.int64)
        s_lo |= par << k
    b_lo = (np.bitwise_count(lo & np.uint64(xbar & lo_mask)) & 1).astype(np.int64)

    size = (1 << (r + 1)) * (n + 1)
    counts = np.zeros(size, dtype=np.int64)
    for hi in range(1 << (n - nlo)):
        v_hi = hi << nlo
        s_hi = 0
        for k, m in enumerate(masks):
            s_hi |= ((v_hi & m).bit_count() & 1) << k
        b_hi = (v_hi & xbar).bit_count() & 1
        w_hi = v_hi.bit_count()
        key = ((s_lo ^ s_hi) << 1 | (b_lo ^ b_hi)) * (n + 1) + (w_lo + w_hi)
        counts += np.bincount(key, minlength=size)
    return counts.reshape(1 << r, 2, n + 1)
