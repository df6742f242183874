"""The theta-independent count rows, built one block of syndromes at a time
and grouped into classes as they are built.

``counts[s, w]`` counts the weight-w supports with X-check syndrome s.  The
supports orthogonal to all r checks (dependent ones included) form a
kernel K of dimension n - rank, and every reachable row s is one coset
v0 ^ K.  So each entry is at most 2**(n - rank), and rows are held in the
smallest unsigned dtype that holds that.  Rows are produced in blocks of
consecutive syndromes, one of three exact ways, whichever the cost rule of
``count_table`` estimates cheaper:

* Dual: the MacWilliams identity (MacWilliams & Sloane, *The Theory of
  Error-Correcting Codes*, ch. 5) gives

      counts[s, w] = 2**-r * sum_a (-1)**(a . s) * K_w(|u_a|),

  with u_a the XOR of the checks a selects and K_w(x) = [z^w]
  (1-z)**x (1+z)**(n-x) a Krawtchouk polynomial.  Bit k of a is check k,
  so the sum is one Walsh-Hadamard transform indexed by the syndrome:
  about r 2**r (n+1) int64 updates, cheap when r is small.  Intermediates
  have magnitude at most 2**r C(n, w) < 2**(r+n), and the cost rule runs
  the dual only while 2**r < 2**(n+2) + 2**14, so at n <= 25 they stay
  below 2**52, far inside int64; the final division by 2**r is an exact
  shift.  The whole table is transformed at once, an int64 transient of
  2**r (n+1) * 8 bytes, and then handed out in blocks.
* Coset: Gaussian elimination on the qubits' check columns, reduced so
  that each pivot bit of a syndrome appears in one pivot row only, makes
  the particular support v0 of syndrome t, and the syndrome t' = t that it
  reaches, a linear function of t's bits: XORs of per-byte lookup tables.
  The row is the weight histogram of v0 ^ k over all k in K, or zero when
  t' != t (t unreachable): 2**(n + r - rank) popcounts in all, cheap when
  n - rank is small (X-Shor-like codes).
* Factored: when the X checks split the qubits into parts that share no
  check (X-Shor d x d into d rows of d qubits), a support is a disjoint
  union of one support per part.  Its syndrome concatenates the parts'
  syndromes and its weight is the sum of their weights, so ``counts[s]``
  is the convolution over the parts of their rows.  Each part is built by
  one of the two ways above (2**4 syndromes a part for X-Shor 5x5, not
  2**20), and a syndrome's row is a function of its parts' classes: the
  rows are convolved once per distinct combination, never per syndrome.

Each block's rows are grouped, and its class indices written, as soon as
it is built (see ``_group``), so the full ``(2**r, n + 1)`` table is never
held by the coset or factored build.  Only ``rows[classes]``, the full
table, is promised, not a class numbering.  A row also holds its
syndrome's minimum correction weight, the lowest w with a nonzero count,
so a class fixes the recovery parity of its syndromes and no decoder
table is needed beside the rows.
"""

import functools
import math

import numpy as np

from . import gf2

# Largest n built; it also bounds the error of the cancelling per-theta sums
# (Z-Shor channels miss their closed forms by 1.2e-13 at n=25, 2.5e-10 at 49).
MAX_QUBITS = 25

# Supports histogrammed (coset) or count entries handed out (dual) per block,
# at least one syndrome each.  Every transient of a block is a small
# multiple of it, bounded by _BLOCK_BYTES.
_BLOCK = 1 << 17
_BLOCK_BYTES = 40 * _BLOCK

# Odd multiplier of the row hash (2**64 / golden ratio); any constant gives
# an exact grouping, since every syndrome is checked against its class (0
# puts every syndrome under one key).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


@functools.cache
def _krawtchouk(n):
    """``K[x, w] = [z^w] (1-z)**x (1+z)**(n-x)`` as int64."""
    return np.array([[sum((-1) ** j * math.comb(x, j) * math.comb(n - x, w - j)
                          for j in range(max(0, w - n + x), min(x, w) + 1))
                      for w in range(n + 1)] for x in range(n + 1)], dtype=np.int64)


def _span(vectors):
    """All 2**k XORs of k bit masks, as uint64; bit j of the index selects vector j."""
    out = np.zeros(1 << len(vectors), dtype=np.uint64)
    for k, g in enumerate(vectors):
        out[1 << k:2 << k] = out[:1 << k] ^ np.uint64(g)
    return out


def _syndromes_per_block(n, row_supports):
    """Syndromes per block: one row each, of ``row_supports`` supports and
    n + 1 count entries, about ``_BLOCK`` of the larger in all."""
    return max(1, _BLOCK // max(row_supports, n + 1))


def _dual_table(n, checks):
    """The whole ``(2**r, n + 1)`` count table by the MacWilliams sum over
    the r checks: one Walsh-Hadamard transform in int64, r levels."""
    table = _krawtchouk(n).take(np.bitwise_count(_span(checks)), axis=0)
    for k in range(len(checks)):
        pairs = table.reshape(-1, 2, 1 << k, n + 1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi
        hi *= -2  # hi <- lo - hi without a temporary
        hi += lo
    table >>= len(checks)
    # row 0 is the kernel itself: 2**(n - rank) supports
    return table.astype(np.min_scalar_type(int(table[0].sum())))


def _dual_blocks(n, checks):
    """The count rows of consecutive syndrome blocks, ``(syndromes, n + 1)``
    each, from one transform of the whole table (its int64 transient is
    freed before the first block)."""
    table = _dual_table(n, checks)
    block = _syndromes_per_block(n, 1)
    for start in range(0, len(table), block):
        yield table[start:start + block]


def _coset_blocks(n, checks):
    """The count rows of consecutive syndrome blocks, ``(syndromes, n + 1)``
    each, histogrammed from the cosets of the checks' kernel."""
    # qubit q's syndrome row above bit n, and 1 << q: a vector keyed below n
    # is in the kernel, one above pairs a pivot row with a support onto it
    basis = gf2.reduce_basis(sum((g >> q & 1) << i for i, g in enumerate(checks)) << n | 1 << q
                             for q in range(n))
    pivots = {top - n: b for top, b in basis.items() if top >= n}
    kernel = [b for top, b in basis.items() if top < n]
    # reduce: each pivot bit is set in its own pivot row only, so row t
    # combines the pivot rows of the pivot bits t has
    for low in sorted(pivots):
        for top in pivots:
            if top > low and pivots[top] >> (n + low) & 1:
                pivots[top] ^= pivots[low]
    by_bit = [pivots.get(bit, 0) for bit in range(len(checks))]
    luts = [(_span([b >> n for b in by_bit[i:i + 8]]),
             _span([b & ((1 << n) - 1) for b in by_bit[i:i + 8]]))
            for i in range(0, len(checks), 8)]
    ker = _span(kernel)
    dtype = np.min_scalar_type(len(ker))
    block = _syndromes_per_block(n, len(ker))
    offsets = np.arange(0, block * (n + 1), n + 1)[:, None]
    for start in range(0, 1 << len(checks), block):
        t = np.arange(start, min(start + block, 1 << len(checks)), dtype=np.uint64)
        reached, v0 = np.zeros_like(t), np.zeros_like(t)
        for i, (row_lut, v_lut) in enumerate(luts):
            byte = (t >> np.uint64(8 * i)) & np.uint64(0xFF)
            reached ^= row_lut.take(byte)
            v0 ^= v_lut.take(byte)
        weights = np.bitwise_count(v0[:, None] ^ ker) + offsets[:len(t)]
        hist = np.bincount(weights.ravel(), minlength=len(t) * (n + 1)).reshape(-1, n + 1)
        hist[reached != t] = 0  # unreachable rows: v0 is the support of another row
        yield hist.astype(dtype)


def _group(blocks, size):
    """Group ``size`` syndromes into classes of equal count rows, one block
    of rows at a time.

    ``blocks`` yields the count rows of consecutive syndromes.  Returns the
    class rows and the class of every syndrome in the smallest unsigned
    dtype.

    Each syndrome is keyed by a uint64 hash of its row, read as packed
    words (the last one overlapping the one before when the row is not a
    whole number of words).  The registry holds the key and row of each
    class and finds a key at the first registered class with it (a stable
    sort); every syndrome is compared with that class, and one that
    differs (a stray) becomes a class of its own, so the grouping is exact
    whatever the hash does.  Each block's new keys and then its strays are
    registered after the classes already held.  A block's class indices
    are written as soon as it is grouped, widening their dtype only when
    the classes outgrow it.
    """
    classes = np.empty(size, np.uint8)
    stop = 0
    for table in blocks:
        start, stop = stop, stop + len(table)
        syn = table.view(np.uint8)  # each syndrome's row as bytes
        width = syn.shape[1]
        word = min(8, 1 << (width.bit_length() - 1))
        key = np.zeros(len(syn), np.uint64)
        for offset in sorted({*range(0, width - word + 1, word), width - word}):
            key ^= syn[:, offset:offset + word].view(f"u{word}")[:, 0]
            key *= _HASH_MULT
        if start == 0:  # every key of the first block is new
            reg_keys, reg_rows, unseen = key[:0], table[:0], np.arange(len(key))
        else:
            cls = sorter.take(np.searchsorted(reg_keys, key, sorter=sorter), mode="clip")
            unseen = np.flatnonzero(reg_keys.take(cls) != key)
        new = unseen[np.unique(key[unseen], return_index=True)[1]]
        if len(new):  # register each new key, sort the registry and look the block up again
            reg_keys = np.concatenate([reg_keys, key[new]])
            reg_rows = np.concatenate([reg_rows, table[new]])
            sorter = np.argsort(reg_keys, kind="stable")
            cls = sorter.take(np.searchsorted(reg_keys, key, sorter=sorter))
        differ = np.flatnonzero(table != reg_rows.take(cls, axis=0))
        if len(differ):  # each stray becomes a class of its own
            stray = np.unique(differ // table.shape[1])
            cls[stray] = len(reg_rows) + np.arange(len(stray))
            reg_rows = np.concatenate([reg_rows, table[stray]])
            reg_keys = np.concatenate([reg_keys, key[stray]])
            sorter = np.argsort(reg_keys, kind="stable")
        classes = classes.astype(np.min_scalar_type(len(reg_rows) - 1), copy=False)
        classes[start:stop] = cls
    return reg_rows, classes


def _costs(n, r):
    """The (dual, coset) whole-code build costs in units of one dual update:
    the dual over r checks costs r 2**r (n+1), the coset build 3 * 2**n
    plus 2**14 for its fixed set-up (elimination and a few dozen extra
    NumPy calls)."""
    return (r << r) * (n + 1), 3 * (1 << n) + (1 << 14)


def _use_coset(n, r):
    """Whether the coset build is the cheaper whole-code build; both give
    the same rows."""
    dual, coset = _costs(n, r)
    return coset < dual


def _components(n, check_masks):
    """The (qubit mask, check indices) of each part of the qubits that no X
    check joins to another part: first the qubits in no check, together as
    one part without checks, then each connected component of the
    qubit-X-check graph, by first check."""
    parts = []
    for k, m in enumerate(map(int, check_masks)):
        joined = [p for p in parts if p[0] & m]
        parts = [p for p in parts if not p[0] & m]
        parts.append((m | sum(p[0] for p in joined),
                      sorted([k, *(i for p in joined for i in p[1])])))
    free = ((1 << n) - 1) & ~sum(p[0] for p in parts)
    return [(free, [])] * bool(free) + sorted(parts, key=lambda p: p[1][0])


def _split(n, check_masks):
    """The parts ``count_table`` builds apart, or None when the cheaper
    whole-code build is estimated cheaper still, as it always is when the
    qubits do not split.  The factored estimate, in the units of
    ``_costs``, is the sum of the parts' whole-code costs, 16 a syndrome
    for the tuple index and merge (20-35 ns a syndrome), and 2**22 for
    the fixed set-up: folds, groupings and a few hundred NumPy calls,
    1-3 ms, rounded up so that dual builds at r <= 12 (Z-stacked 5x5 h=2)
    keep their route."""
    r = len(check_masks)
    whole, overhead = min(_costs(n, r)), (16 << r) + (1 << 22)
    if whole <= overhead:  # no split can be cheaper: skip finding the parts
        return None
    parts = _components(n, check_masks)
    factored = sum(min(_costs(m.bit_count(), len(ks))) for m, ks in parts) + overhead
    return parts if len(parts) > 1 and factored < whole else None


def _whole_held_bytes(n, r):
    index = np.min_scalar_type((1 << r) - 1).itemsize
    dual = 0 if _use_coset(n, r) else (1 << r) * (n + 1) * (8 + 4)
    return ((index + index // 2) << r) + _BLOCK_BYTES + dual


def held_bytes(n, check_masks):
    """Upper bound on the bytes ``count_table`` holds for n qubits and these
    X checks, besides its arguments.

    The whole-code build holds every syndrome's class index (at most
    2**r - 1) and the copy it widens from, one block, and, when the dual
    runs, its int64 transient and narrow table of 2**r rows (12 bytes an
    entry).  The factored build holds the largest part's own whole-code
    build; each part's int64 tuple digit of every part syndrome, its copy
    while a fold rescales it and the part's class (24 bytes a part
    syndrome); one block; and the class of every tuple, at most 2**r of
    them.  While a fold grows the tuple classes it also holds the previous
    ones, half as many and widened to int64, and the fold's class of every
    pair with its widening copy; the per-syndrome pass holds every
    syndrome's class index instead, in a dtype fixed before the pass.  Like
    the class rows of every build, what grows with the classes (a few
    hundred bytes a class: rows, keys and their lookups) is not counted:
    the class count is known only after the build.
    """
    r = len(check_masks)
    parts = _split(n, check_masks)
    if parts is None:
        return _whole_held_bytes(n, r)
    index = np.min_scalar_type((1 << r) - 1).itemsize
    own = max(_whole_held_bytes(m.bit_count(), len(ks)) for m, ks in parts)
    digits = sum(24 << len(ks) for _, ks in parts)
    return own + digits + ((3 * index + 4) << r) + _BLOCK_BYTES


def _compress(mask, qubits):
    """The bits of ``mask`` at ``qubits``, packed in that order."""
    return sum((mask >> q & 1) << j for j, q in enumerate(qubits))


def _convolve(prefix, rows):
    """The rows of every (prefix class i, part class j), in the order
    i * len(rows) + j: the supports lie on disjoint qubits, so weights add."""
    m = prefix.shape[-1]
    out = np.zeros((len(prefix), len(rows), m + rows.shape[-1] - 1), np.int64)
    for w in range(rows.shape[-1]):
        out[..., w:w + m] += prefix[:, None] * rows[:, w, None]
    return out.reshape(-1, out.shape[-1])


def _factored(n, parts, checks):
    """``count_table`` of a code whose X checks split its qubits into
    ``parts``, from the parts' own count rows: the whole-code route's table
    ``rows[classes]``, row dtype and class dtype.

    Each part is built by the whole-code route and its syndromes grouped
    into part classes of equal rows.  A syndrome's tuple is the mixed-radix
    number of its parts' classes, the first part's digit the most
    significant.  The parts are folded in one at a time: the rows of every
    (prefix class, part class) pair are convolved (``_convolve``) and
    grouped again, so a fold holds only distinct rows, and ``tuples`` maps
    each tuple to its class.  Every pair is some syndrome's tuple, so every
    class after the last fold is some syndrome's, and a syndrome's class is
    its tuple's, written one block of syndromes at a time.
    """
    r = len(checks)
    prefix = np.ones((1, 1), np.int64)  # no qubits: the empty support
    tuples = np.zeros(1, np.uint8)
    digits, order = [], []  # order: the checks, part by part
    for qubits, part_checks in parts:
        qs = [q for q in range(n) if qubits >> q & 1]
        sub = [_compress(checks[k], qs) for k in part_checks]
        build = _coset_blocks if _use_coset(len(qs), len(sub)) else _dual_blocks
        rows, part_classes = _group(build(len(qs), sub), 1 << len(sub))
        step = max(1, _syndromes_per_block(n, 1) // len(rows))
        prefix, merged = _group((_convolve(prefix[i:i + step], rows)
                                 for i in range(0, len(prefix), step)),
                                len(prefix) * len(rows))
        tuples = merged.reshape(-1, len(rows)).take(tuples, axis=0).ravel()
        digits = [(at, width, digit * len(rows)) for at, width, digit in digits]
        digits.append((len(order), len(sub), part_classes.astype(np.intp)))
        order += part_checks
    classes = np.empty(1 << r, np.min_scalar_type(len(prefix) - 1))
    # check k moves to bit position[k], so each part's checks are contiguous.
    # A block is 2**low syndromes, so its moved syndromes are one lookup
    # table of the low bits XOR one value of the high bits
    position = np.empty(r, np.intp)
    position[order] = np.arange(r)
    block = 1 << (max(1, _BLOCK // 2).bit_length() - 1)
    low = min(r, block.bit_length() - 1)
    low_bits = _span([1 << int(p) for p in position[:low]]).astype(np.intp)
    for start in range(0, 1 << r, block):
        s = low_bits ^ sum(1 << int(position[k]) for k in range(low, r) if start >> k & 1)
        t = np.zeros_like(s)
        for at, width, digit in digits:
            t += digit.take(s >> at & ((1 << width) - 1))
        classes[start:start + len(s)] = tuples.take(t)
    # syndrome 0 is tuple 0, whose row is the checks' kernel
    return prefix.astype(np.min_scalar_type(int(prefix[tuples[0]].sum()))), classes


def count_table(n, check_masks):
    """Exact counts of supports by (syndrome, weight), grouped into classes
    of syndromes as they are built.

    Returns ``(rows, classes)``: the class rows, of shape ``(classes, n +
    1)`` in the smallest unsigned dtype that holds 2**(n - rank), and the
    class of every syndrome in the smallest unsigned dtype, so that
    ``rows[classes]`` is the full table.  No class numbering is promised.
    When the X checks split the qubits and the estimate of ``_split``
    favours it, the rows come from the parts (``_factored``), with the
    same full table and dtypes.  At most ``held_bytes(n, check_masks)``
    bytes are held besides the arguments.
    """
    if n < 0 or n > MAX_QUBITS:
        raise ValueError(f"kernel supports 0 <= n <= {MAX_QUBITS}, got {n}")
    checks = [int(m) for m in check_masks]
    parts = _split(n, checks)
    if parts is not None:
        return _factored(n, parts, checks)
    build = _coset_blocks if _use_coset(n, len(checks)) else _dual_blocks
    return _group(build(n, checks), 1 << len(checks))
