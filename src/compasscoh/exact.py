"""Exact syndrome distribution of a compass code under uniform Z rotation.

The rotation expands as sum_v c_v Z(v) over all 2**n supports with
c_v = cos(theta/2)**(n-|v|) * (-i sin(theta/2))**|v|.  Supports sharing a
syndrome and a Z-stabilizer coset add coherently, so the channel is fully
determined by the theta-independent table counting supports per (syndrome,
coset, weight), which ``_kernels`` builds as exact integers, from the dual
code when r (the number of X checks) is small or from the cosets of the
check kernel when n - r is.  Per theta, each amplitude is the sum of count *
weight term in ascending weight order, taken with elementwise IEEE
operations, so the outputs do not depend on the BLAS build or its thread
count.  Because stabilizers have even weight and the logical Z odd weight,
the two coset amplitudes of a syndrome carry opposite real/imaginary parity;
they are stored as signed reals S with the phase (-i)**parity implied, which
makes the logical action

    A0 * I + A1 * Zbar  ->  exp(-i(theta_s/2) Zbar),
    theta_s = (-1)**p0 * 2*atan(S1/S0)         (pi when S0 = 0)

with p0 the recovery-weight parity.  Coset membership is read off the
logical-X overlap parity: logical X commutes with every Z stabilizer and
anticommutes with logical Z, so it is exactly the indicator functional of
the logical coset (equivalent to classifying against an F2 basis of the
Z-stabilizer row space, but O(1) per support).  The recovery of every
syndrome comes from the decoder's table of 2**r correction keys
(``MatchingGraph.table``): p0 is the key's lowest weight bit and the
recovery's coset the overlap parity of the key's support, both read for
all syndromes in a few array operations.

Every per-syndrome output is an elementwise function of the syndrome's count
column and recovery parity.  The columns are coset weight enumerators
(MacWilliams & Sloane, ch. 5), which symmetric codes share: the 5x5 X-Shor
code has 21 distinct (column, parity) pairs among its 2**20 syndromes.  So
the backend groups syndromes into classes of equal pairs straight from the
count table's rows and lays out one column per class; each theta is
evaluated once per class and every output array gathered once per
syndrome, with the same bits as evaluating every syndrome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .codes import CompassCode, InvalidCodeError
from .decoder import bit_reverse, build_matching_graph
from .ptm import LogicalPTM

# Also bounds the per-theta float error, not only the table cost: amplitudes
# are cancelling sums of counts * cos^(n-w) sin^w.  With exact tables, Z-Shor
# channels miss their closed forms by <= 1.2e-13 at n=25, 2.5e-10 at n=49.
MAX_QUBITS = 25
# Budget on 2**(r+1) * (n+1) * 8 bytes, the float64 transient of the dual
# build; the integer table kept is at most half of that.  At n <= 25 only the
# 1x25 grid (r = 24, 7.0 GB) exceeds it.
MAX_TABLE_BYTES = 2 << 30

# Columns per add.accumulate of the ascending-weight sum, and syndromes per
# block of the grouping's exact check: each block's transients stay near
# 3 MB, whatever the number of syndromes or classes.
_SUM_BLOCK = 1 << 14

MIN_WEIGHT = "minweight"
ML = "ml"
_RECOVERIES = (MIN_WEIGHT, ML)


class TooLargeError(RuntimeError):
    """Exact backend rejected: n over MAX_QUBITS or count table over MAX_TABLE_BYTES."""


def reduce_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]; the physical channel has period 2*pi.

    Raises ValueError for a non-finite angle, which has no channel.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    t = math.remainder(theta, 2.0 * math.pi)
    return math.pi if t == -math.pi else t


def _check_recovery(recovery: str) -> str:
    if recovery not in _RECOVERIES:
        raise ValueError(f"recovery must be one of {_RECOVERIES}, got {recovery!r}")
    return recovery


def _per_syndrome(column_field: str) -> cached_property:
    """A per-syndrome array of a SyndromeDistribution, gathered from its
    ``column_field`` when first read."""
    def gather(self) -> np.ndarray:
        return getattr(self, column_field).take(self.columns)
    return cached_property(gather)


@dataclass(frozen=True, eq=False)
class SyndromeDistribution:
    """Per-syndrome probabilities and logical angles at a physical angle.

    Zero-probability syndromes (exact zeros, e.g. at theta=0) are dropped.
    ``amp_identity``/``amp_logical`` are the signed real amplitude parts,
    with the complex phases (-i)**parity and (-i)**(1 - parity) implied by
    ``recovery_parity``.

    The values are held once per backend class (``column_*``), with
    ``columns`` the class of each kept syndrome.  The per-syndrome arrays
    ``syndromes``, ``p``, ``theta_s``, ``amp_identity``, ``amp_logical`` and
    ``recovery_parity`` are gathered when first read (up to 2**r entries
    each), and ``theta_s_at`` reads angles at a few syndromes without
    gathering them.
    """

    theta: float
    num_checks: int
    column_p: np.ndarray
    column_theta_s: np.ndarray
    column_amp_identity: np.ndarray
    column_amp_logical: np.ndarray
    column_parity: np.ndarray
    columns: np.ndarray
    kept: np.ndarray | None  # the kept syndromes; None when every one is kept

    @cached_property
    def syndromes(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.uint32) if self.kept is None else self.kept

    p = _per_syndrome("column_p")
    theta_s = _per_syndrome("column_theta_s")
    amp_identity = _per_syndrome("column_amp_identity")
    amp_logical = _per_syndrome("column_amp_logical")
    recovery_parity = _per_syndrome("column_parity")

    def theta_s_at(self, idx: np.ndarray) -> np.ndarray:
        """``theta_s[idx]``, read through ``columns`` without gathering
        ``theta_s`` whole."""
        return self.column_theta_s.take(self.columns.take(idx))

    def __len__(self) -> int:
        return len(self.columns)

    def syndrome_bits(self, i: int) -> str:
        s = int(self.syndromes[i])
        return "".join("1" if s >> k & 1 else "0" for k in range(self.num_checks))

    @property
    def entries(self) -> list[tuple[str, float, float]]:
        return [(self.syndrome_bits(i), float(self.p[i]), float(self.theta_s[i]))
                for i in range(len(self))]

    def channel(self) -> LogicalPTM:
        """Logical channel from the amplitudes: eps = 2 sum A1^2,
        delta = 2 sum (-1)**parity A0 A1."""
        eps = float(2.0 * np.sum(self.amp_logical ** 2))
        sign = 1.0 - 2.0 * self.recovery_parity
        delta = float(2.0 * np.sum(sign * self.amp_identity * self.amp_logical))
        return LogicalPTM(eps, delta)


class ExactBackend:
    """Caches the theta-independent count and recovery tables of a code.

    Every Z stabilizer has even weight and logical Z odd weight, so the
    all-ones support lies in span(X checks, logical X) with logical X in the
    sum: a support's weight parity is fixed by its (syndrome, coset) row,
    and the two cosets of a syndrome have opposite parities.  Syndromes are
    grouped into classes of equal even-weight coset row, odd-weight coset
    row and recovery parity, straight from the count table's rows, and only
    each class's first syndrome is laid out: weight-major, split by weight
    parity, in the count table's narrow dtype.  ``_table[j, q, c]`` counts
    the weight-(2j+q) supports of class c's coset of weight parity q (the
    half of the weights that is always zero is dropped); the identity coset
    is the one with the recovery's weight parity.  ``_classes[s]`` is the
    class of syndrome s in the smallest unsigned dtype; the count table is
    freed once the backend is built (the 5x5 X-Shor code keeps 21 columns
    and 1 MB of class indices).
    """

    def __init__(self, code: CompassCode):
        self.code = code
        self.n = code.n
        self.num_checks = len(code.x_stabilizers)
        table_bytes = (2 << self.num_checks) * (self.n + 1) * 8
        if self.n > MAX_QUBITS or table_bytes > MAX_TABLE_BYTES:
            raise TooLargeError(
                f"exact backend supports n <= {MAX_QUBITS} and count tables of at most "
                f"{MAX_TABLE_BYTES} bytes; n={self.n}, r={self.num_checks} needs {table_bytes}")
        masks = [s.mask for s in code.x_stabilizers]
        counts = _kernels.count_table(self.n, masks, code.logical_x.mask).reshape(-1, self.n + 1)
        self.graph = build_matching_graph(code)
        # a key holds the weight from bit n up, below it the mirrored support complemented
        keys = self.graph.table()
        xbar = bit_reverse(code.logical_x.mask, self.n)
        parity = keys >> self.n & 1
        coset = np.bitwise_count(~keys & xbar) & 1
        # the row of each syndrome's even-weight coset; the odd one is its ^ 1
        even_rows = np.arange(0, len(counts), 2) | (coset ^ parity)
        del keys, coset  # freed before the grouping's transients
        reps, self._classes = _group_rows(counts, even_rows, parity)
        even, odd = counts[even_rows[reps]], counts[even_rows[reps] ^ 1]
        # every row equals its class's first row, so checking those checks all
        if even[:, 1::2].any() or odd[:, 0::2].any():
            raise InvalidCodeError("a (syndrome, coset) row holds supports of both weight "
                                   "parities: some Z stabilizer or logical Z has the wrong "
                                   "weight parity")
        self._table = np.zeros((self.n // 2 + 1, 2, len(reps)), counts.dtype)
        self._table[:, 0] = even[:, 0::2].T
        self._table[:(self.n + 1) // 2, 1] = odd[:, 1::2].T
        parity = parity[reps]
        self._id_odd = parity.astype(bool)
        self._rec_parity = parity
        self._rec_parity.setflags(write=False)  # shared by the distributions

    def _amplitudes(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Signed real identity and logical coset amplitudes of every table
        column at a reduced angle, each summed over ascending weight."""
        n = self.n
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        wvec = [(-1.0) ** (w // 2) * c ** (n - w) * s ** w for w in range(n + 1)]
        if n % 2 == 0:
            wvec.append(0.0)  # the odd half has no weight n + 1
        even, odd = _ascending_sum(self._table, np.array(wvec).reshape(-1, 2, 1))
        return np.where(self._id_odd, odd, even), np.where(self._id_odd, even, odd)

    def distribution(self, theta: float, recovery: str = MIN_WEIGHT) -> SyndromeDistribution:
        _check_recovery(recovery)
        theta = reduce_angle(theta)
        s_id, s_log = self._amplitudes(theta)
        parity = self._rec_parity
        if recovery == ML:
            swap = np.abs(s_log) > np.abs(s_id)
            s_id, s_log = np.where(swap, s_log, s_id), np.where(swap, s_id, s_log)
            parity = parity ^ swap

        p = s_id ** 2 + s_log ** 2
        sign = 1.0 - 2.0 * parity
        nonzero = s_id != 0.0
        ratio = s_log / np.where(nonzero, s_id, 1.0)
        theta_s = np.where(nonzero, sign * 2.0 * np.arctan(ratio), math.pi)
        keep = p > 0.0
        columns, kept = self._classes, None  # the class of each kept syndrome
        if not keep.all():
            kept = np.flatnonzero(keep[columns]).astype(np.uint32)
            columns = columns.take(kept)
        return SyndromeDistribution(
            theta=theta, num_checks=self.num_checks,
            column_p=p, column_theta_s=theta_s, column_amp_identity=s_id,
            column_amp_logical=s_log, column_parity=parity,
            columns=columns, kept=kept)

    def channel(self, theta: float, recovery: str = MIN_WEIGHT) -> LogicalPTM:
        return self.distribution(theta, recovery).channel()


def _ascending_sum(table: np.ndarray, wvec: np.ndarray) -> np.ndarray:
    """``sum_j table[j] * wvec[j]`` over the first axis, added in ascending j.

    Each block of ``_SUM_BLOCK`` columns takes one multiply and one
    ``add.accumulate``, which is defined as r[j] = r[j-1] + x[j]: the same
    elementwise IEEE operations in the same order for every column, so the
    bits depend neither on the BLAS build and its threads nor on the table
    size or the block boundaries.
    """
    out = np.empty(table.shape[1:])
    for start in range(0, out.shape[-1], _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        terms = table[..., block] * wvec
        out[..., block] = np.add.accumulate(terms, out=terms)[-1]
    return out


# Odd multiplier of the row hash (2**64 / golden ratio); any constant gives
# an exact grouping, since every syndrome is checked against its class (0
# puts every syndrome under one key).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _group_rows(counts: np.ndarray, even_rows: np.ndarray, parity: np.ndarray):
    """Group syndromes s into classes of equal even-weight coset row
    ``counts[even_rows[s]]``, odd-weight coset row ``counts[even_rows[s] ^ 1]``
    and recovery ``parity[s]``.

    Returns the first syndrome of each class and the class of every
    syndrome, in the smallest unsigned dtype.  Classes come from a uint64
    hash of each syndrome's two rows and parity, the rows read as packed
    words (the last one overlapping the one before when the rows are not a
    whole number of words).  Syndromes with equal keys share a class only if
    they are equal: each is compared with its class's first syndrome, and
    one that differs becomes a class of its own.  Both passes run in blocks
    of ``_SUM_BLOCK`` syndromes.
    """
    def rows(even):  # the even-weight, then the odd-weight coset row, as bytes
        pair = counts.take(even[:, None] ^ (0, 1), axis=0)
        return pair.reshape(len(even), -1).view(np.uint8)

    size = 2 * counts.shape[1] * counts.itemsize
    word = min(8, 1 << (size.bit_length() - 1))
    offsets = sorted({*range(0, size - word + 1, word), size - word})
    keys = parity.astype(np.uint64)
    for start in range(0, len(keys), _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        raw, key = rows(even_rows[block]), keys[block]
        for offset in offsets:
            key ^= raw[:, offset:offset + word].view(f"u{word}")[:, 0]
            key *= _HASH_MULT
    # np.unique's sorted keys, from a sort: the hash path of recent NumPy's
    # np.unique is slower here and imports numpy.ma
    unique = np.sort(keys)
    first = np.empty(len(unique), bool)
    first[:1] = True
    np.not_equal(unique[1:], unique[:-1], out=first[1:])
    unique = unique[first]
    classes = np.searchsorted(unique, keys)
    reps = np.full(len(unique), len(keys))
    np.minimum.at(reps, classes, np.arange(len(keys)))  # first syndrome of each class
    stray = []
    for start in range(0, len(classes), _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        rep = reps.take(classes[block])
        same = (rows(even_rows[block]) == rows(even_rows.take(rep))).all(axis=1)
        same &= parity[block] == parity.take(rep)
        stray.append(start + np.flatnonzero(~same))
    stray = np.concatenate(stray)
    if len(stray):
        classes[stray] = len(reps) + np.arange(len(stray))
        reps = np.concatenate([reps, stray])
    return reps, classes.astype(np.min_scalar_type(len(reps) - 1))


_CACHE: dict[CompassCode, ExactBackend] = {}


def get_backend(code: CompassCode) -> ExactBackend:
    backend = _CACHE.get(code)
    if backend is None:
        backend = ExactBackend(code)
        if len(_CACHE) >= 8:
            _CACHE.clear()
        _CACHE[code] = backend
    return backend


def syndrome_distribution(code: CompassCode, theta: float,
                          recovery: str = MIN_WEIGHT) -> SyndromeDistribution:
    """Exact (syndrome, p_s, theta_s) distribution from the cached count table."""
    return get_backend(code).distribution(theta, recovery)


def logical_channel(code: CompassCode, theta: float,
                    recovery: str = MIN_WEIGHT) -> LogicalPTM:
    """Exact logical channel: eps = sum p_s (1 - cos theta_s), delta = sum p_s sin theta_s."""
    return get_backend(code).channel(theta, recovery)
