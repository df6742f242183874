"""The theta-independent count table, built from the dual code.

``counts[s, b, w]`` counts the weight-w supports with X-check syndrome s and
logical-X parity b.  For the r+1 generators (logical X, then the r checks;
dependent ones included) the MacWilliams identity (MacWilliams & Sloane,
*The Theory of Error-Correcting Codes*, ch. 5) gives

    counts[s, b, w] = 2**-(r+1) * sum_a (-1)**(a . (s, b)) * K_w(|u_a|),

with u_a the XOR of the generators a selects and K_w(x) = [z^w]
(1-z)**x (1+z)**(n-x) a Krawtchouk polynomial.  Bit 0 of a is logical X and
bit k+1 is check k, so the sum is one Walsh-Hadamard transform indexed by
``s << 1 | b``: cost O((r+1) 2**(r+1) (n+1)).  Intermediates are integers
of magnitude at most 2**(r+1) C(n, w) (<= 2**50 for independent generators,
n <= 25; < 2**53 for any table below 300 GB), so float64 sums are exact.
"""

import functools
import math

import numpy as np


@functools.cache
def _krawtchouk(n):
    """``K[x, w] = [z^w] (1-z)**x (1+z)**(n-x)`` as exact float64 integers."""
    return np.array([[sum((-1) ** j * math.comb(x, j) * math.comb(n - x, w - j)
                          for j in range(max(0, w - n + x), min(x, w) + 1))
                      for w in range(n + 1)] for x in range(n + 1)], dtype=np.float64)


def count_table(n, check_masks, xbar_mask):
    """Exact float64 counts of supports by (syndrome index, coset bit, weight),
    of shape ``(2**r, 2, n + 1)`` for r X checks."""
    if n < 0 or n > 25:
        raise ValueError(f"kernel supports 0 <= n <= 25, got {n}")
    gens = [int(xbar_mask)] + [int(m) for m in check_masks]
    size = 1 << len(gens)
    u = np.zeros(size, dtype=np.uint64)
    for k, g in enumerate(gens):
        u[1 << k:2 << k] = u[:1 << k] ^ np.uint64(g)
    table = _krawtchouk(n).take(np.bitwise_count(u), axis=0)
    for k in range(len(gens)):
        pairs = table.reshape(-1, 2, 1 << k, n + 1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2.0  # hi <- lo - hi without a temporary
        hi += lo
    table *= 1.0 / size
    return table.reshape(size >> 1, 2, n + 1)
