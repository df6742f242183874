"""Exact minimum-weight Z-error decoding from X syndromes.

Every qubit of a valid compass code touches at most two X checks, so
qubits are edges of a matching graph over the checks plus one boundary
node.  Decoding a syndrome is an exact minimum-weight perfect matching of
the flagged checks (each may also match to the boundary), solved by dynamic
programming over subsets of flagged nodes; greedy or approximate matching
is deliberately avoided because minimality is asserted against a brute
force.

Ties between equal-weight corrections go to the one containing the lowest
differing qubit.  Correction c of weight w has the integer key
``w << n | (full ^ bitrev(c))`` (full = 2**n - 1; qubit q is bit n-1-q of
bitrev(c)), so that rule is integer order, and appending a disjoint path
of key P to a correction of key K gives ``K + P - full``.  A path meeting
the correction in o qubits leaves a correction of weight w_K + w_P - 2o
for the same syndrome, so such a sum (which a borrow lowers by at most one
weight) never wins.  Witness paths, the subset DP and the brute force all
minimize this key, so ``decode_mwpm`` equals the brute force in
``tests/oracles.py``.

The DP matches the lowest node a of a subset to the boundary or to a
higher node, so one NumPy level per check, from the highest index down,
fills all 2^r syndromes in O(r 2^r) work and 8 bytes each; one decode
runs the same levels over the subsets of its flagged checks.  Keys are int64
while ``n + n.bit_length() < 63`` and Python ints beyond.
"""

from __future__ import annotations

import sys

import numpy as np

from . import exact
from .codes import CompassCode, InvalidCodeError, PauliSupport, qubit_checks


def syndrome_to_mask(syndrome, num_checks: int) -> int:
    """Normalize a syndrome (int mask, bit string, or 0/1 sequence; check 0 first)."""
    if isinstance(syndrome, (int, np.integer)):
        mask = int(syndrome)
    elif isinstance(syndrome, str):
        bits = [ch for ch in syndrome if not ch.isspace()]
        if len(bits) != num_checks or any(ch not in "01" for ch in bits):
            raise ValueError(f"syndrome string must be {num_checks} bits of 0/1")
        mask = sum(1 << i for i, ch in enumerate(bits) if ch == "1")
    else:
        bits = list(syndrome)
        if len(bits) != num_checks:
            raise ValueError(f"syndrome must have {num_checks} bits")
        mask = sum(1 << i for i, bit in enumerate(bits) if bit)
    if not 0 <= mask < (1 << num_checks):
        raise ValueError("syndrome out of range")
    return mask


def syndrome_of(code: CompassCode, z_mask: int) -> int:
    """X-syndrome of a Z support: bit k flips iff overlap with check k is odd."""
    s = 0
    for k, stab in enumerate(code.x_stabilizers):
        s |= ((z_mask & stab.mask).bit_count() & 1) << k
    return s


def bit_reverse(mask: int, n: int) -> int:
    """Mirror an n-bit mask: bit q moves to bit n-1-q."""
    return int(f"{mask:0{n}b}"[::-1], 2) if n else 0


def _min_weight_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Best correction key of every subset of the checks of ``MatchingGraph.keys``."""
    k = len(keys)
    step = keys - ((1 << n) - 1)  # adding step[i, j] appends the i-j path
    best = np.empty(1 << k, dtype=keys.dtype)
    best[0] = (1 << n) - 1  # the empty correction
    for a in range(k - 1, -1, -1):
        above = best[0::2 << a]  # subsets of the checks above a
        level = best[1 << a::2 << a]  # the same subsets plus a
        np.add(above, step[a, a], out=level)  # a to the boundary
        for i in range(k - 1 - a):  # a to check a+1+i, if flagged
            src = above.reshape(-1, 2, 1 << i)[:, 0]
            dst = level.reshape(-1, 2, 1 << i)[:, 1]
            np.minimum(dst, src + step[a, a + 1 + i], out=dst)
    return best


class MatchingGraph:
    """Checks-plus-boundary graph with all-pairs tie-broken shortest paths.

    ``keys[i, j]`` is the key of the witness path (the shortest, then
    lexicographically smallest) between checks i and j, and ``keys[i, i]``
    that of check i to the boundary, node ``num_checks``.  Immutable; no
    decode result is stored.
    """

    def __init__(self, code: CompassCode):
        n = code.n
        num_checks = boundary = len(code.x_stabilizers)
        # of parallel edges, the lowest qubit has the smallest key and wins
        adj: list[list[tuple[int, int]]] = [[] for _ in range(num_checks + 1)]
        for q, cs in enumerate(qubit_checks(n, code.x_stabilizers)):
            if len(cs) > 2:
                raise InvalidCodeError(
                    f"qubit {q} lies in {len(cs)} X checks; not a compass code")
            if cs:
                u, v = (cs + [boundary])[:2]
                step = (1 << n) - (1 << (n - 1 - q))  # key of edge q, minus full
                adj[u].append((v, step))
                adj[v].append((u, step))
        # breadth-first from every check: a node's key is final before it is
        # expanded, and a longer path has a larger key, so one pass suffices
        full, inf = (1 << n) - 1, (n + 1) << n
        keys = []
        for src in range(num_checks):
            row = [inf] * (num_checks + 1)
            row[src] = full  # the empty path
            queue = [src]
            for u in queue:
                for v, step in adj[u]:
                    if row[u] + step < row[v]:
                        if row[v] == inf:
                            queue.append(v)
                        row[v] = row[u] + step
            if row[boundary] == inf:
                raise InvalidCodeError(f"X check {src} has no path to the boundary")
            row[src] = row.pop()  # the boundary path on the diagonal
            keys.append(row)

        self.code = code
        self.n = n
        self.num_checks = num_checks
        self.boundary = boundary
        self.keys = np.array(keys, dtype=np.int64 if n + n.bit_length() < 63 else object
                             ).reshape(num_checks, num_checks)

    def support(self, key: int) -> int:
        """Qubit mask of the correction a key encodes."""
        full = (1 << self.n) - 1
        return bit_reverse(full ^ (key & full), self.n)

    def table(self) -> np.ndarray:
        """Best correction key of every syndrome, indexed by syndrome mask."""
        return _min_weight_keys(self.keys, self.n)

    def match(self, flagged_mask: int) -> tuple[int, int]:
        """Minimum matching cost and tie-broken correction mask for a syndrome.

        The DP over k flagged checks holds 2**k keys and temporaries of at
        most half as many (1.11x the keys at k = 17, tracemalloc), a key
        being 8 bytes as int64, or a pointer plus the largest key's int
        object.  Over ``exact.MAX_HELD_BYTES``, TooLargeError before it runs.
        """
        flagged = [k for k in range(self.num_checks) if flagged_mask >> k & 1]
        key_bytes = 8 + (self.keys.dtype == object) * sys.getsizeof((self.n + 1) << self.n)
        exact.check_budget((3 << len(flagged)) // 2 * key_bytes,
                           f"decoding {len(flagged)} flagged checks of n={self.n} qubits holds",
                           f" of {key_bytes}-byte keys")
        key = int(_min_weight_keys(self.keys[np.ix_(flagged, flagged)], self.n)[-1])
        return key >> self.n, self.support(key)


def build_matching_graph(code: CompassCode) -> MatchingGraph:
    return MatchingGraph(code)


def decode_mwpm(graph: MatchingGraph, syndrome) -> PauliSupport:
    """Exact min-weight Z correction reproducing the syndrome."""
    mask = syndrome_to_mask(syndrome, graph.num_checks)
    _, corr = graph.match(mask)
    return PauliSupport("Z", graph.n, corr)

