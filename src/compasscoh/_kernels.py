"""The theta-independent count table: exact counts in a narrow integer dtype.

``counts[s, b, w]`` counts the weight-w supports with X-check syndrome s and
logical-X parity b.  The supports orthogonal to all r+1 generators (logical
X, then the r checks; dependent ones included) form a kernel K of dimension
n - rank, and every reachable (s, b) row is one coset v0 ^ K.  So each entry
is at most 2**(n - rank), and the table is returned in the smallest unsigned
dtype that holds that.  ``count_table`` builds it one of two exact ways,
whichever its cost rule estimates cheaper:

* Dual: the MacWilliams identity (MacWilliams & Sloane, *The Theory of
  Error-Correcting Codes*, ch. 5) gives

      counts[s, b, w] = 2**-(r+1) * sum_a (-1)**(a . (s, b)) * K_w(|u_a|),

  with u_a the XOR of the generators a selects and K_w(x) = [z^w]
  (1-z)**x (1+z)**(n-x) a Krawtchouk polynomial.  Bit 0 of a is logical X
  and bit k+1 is check k, so the sum is one Walsh-Hadamard transform indexed
  by ``s << 1 | b``: about (r+1) 2**(r+1) (n+1) float64 updates, cheap when
  r is small.  Intermediates are integers of magnitude at most
  2**(r+1) C(n, w) (<= 2**50 for independent generators, n <= 25), so the
  float64 sums are exact; the float64 array is a transient of
  2**(r+1) (n+1) * 8 bytes.
* Coset: Gaussian elimination on the qubits' generator columns gives, for
  every reachable row, one particular support v0 on the pivot qubits, and a
  basis of K.  The row is the weight histogram of v0 ^ k over all k in K:
  2**n popcounts in all, cheap when n - rank is small (X-Shor-like codes).
"""

import functools
import math

import numpy as np

# Supports histogrammed per np.bincount call in the coset build.
_COSET_BLOCK = 1 << 16


@functools.cache
def _krawtchouk(n):
    """``K[x, w] = [z^w] (1-z)**x (1+z)**(n-x)`` as exact float64 integers."""
    return np.array([[sum((-1) ** j * math.comb(x, j) * math.comb(n - x, w - j)
                          for j in range(max(0, w - n + x), min(x, w) + 1))
                      for w in range(n + 1)] for x in range(n + 1)], dtype=np.float64)


def _span(vectors):
    """All 2**k XORs of k bit masks, as uint64; bit j of the index selects vector j."""
    out = np.zeros(1 << len(vectors), dtype=np.uint64)
    for k, g in enumerate(vectors):
        out[1 << k:2 << k] = out[:1 << k] ^ np.uint64(g)
    return out


def _dual_table(n, gens):
    size = 1 << len(gens)
    table = _krawtchouk(n).take(np.bitwise_count(_span(gens)), axis=0)
    for k in range(len(gens)):
        pairs = table.reshape(-1, 2, 1 << k, n + 1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2.0  # hi <- lo - hi without a temporary
        hi += lo
    table *= 1.0 / size
    # row 0 is the kernel itself: 2**(n - rank) supports
    return table.astype(np.min_scalar_type(int(table[0].sum())))


def _coset_table(n, gens):
    pivots = {}  # leading generator bit -> (row index, support mapping onto it)
    kernel = []
    for q in range(n):
        row = sum((g >> q & 1) << i for i, g in enumerate(gens))
        v = 1 << q
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, v)
                break
            row ^= pivots[top][0]
            v ^= pivots[top][1]
        else:
            kernel.append(v)
    rows = _span([row for row, _ in pivots.values()]).astype(np.intp)
    v0 = _span([v for _, v in pivots.values()])
    ker = _span(kernel)
    table = np.zeros((1 << len(gens), n + 1), np.min_scalar_type(len(ker)))
    block = max(1, _COSET_BLOCK // len(ker))
    offsets = np.arange(0, block * (n + 1), n + 1)[:, None]
    for start in range(0, len(v0), block):
        part = v0[start:start + block, None]
        weights = np.bitwise_count(part ^ ker) + offsets[:len(part)]
        hist = np.bincount(weights.ravel(), minlength=len(part) * (n + 1))
        table[rows[start:start + block]] = hist.reshape(-1, n + 1)
    return table


def count_table(n, check_masks, xbar_mask):
    """Exact counts of supports by (syndrome index, coset bit, weight), of
    shape ``(2**r, 2, n + 1)`` for r X checks, in the smallest unsigned dtype
    that holds 2**(n - rank).

    Cost rule, in units of one dual update: the dual costs
    (r+1) 2**(r+1) (n+1), the coset build 3 * 2**n plus 2**14 for its fixed
    set-up (elimination and a dozen extra NumPy calls, about 50 us); the
    cheaper one runs.  Both give the same table.
    """
    if n < 0 or n > 25:
        raise ValueError(f"kernel supports 0 <= n <= 25, got {n}")
    gens = [int(xbar_mask)] + [int(m) for m in check_masks]
    if 3 * (1 << n) + (1 << 14) < (len(gens) << len(gens)) * (n + 1):
        table = _coset_table(n, gens)
    else:
        table = _dual_table(n, gens)
    return table.reshape(1 << len(check_masks), 2, n + 1)
