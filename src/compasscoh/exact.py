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
code has 21 distinct (column, parity) pairs among its 2**20 syndromes.  So a
table of more than one sum block (2**r > 2**14) keeps one column per class
of equal pairs; each theta is evaluated once per class and every output
array gathered once per syndrome, with the same bits as evaluating every
syndrome.
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

# The ascending-weight sum: tables of at most _SMALL_SUM entries per weight
# in one add.accumulate, larger ones in blocks of _SUM_BLOCK columns.  A
# table of more than one block keeps its narrow dtype and one column per
# class; grouping a smaller one costs more than it saves.
_SMALL_SUM = 1 << 9
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
        values = getattr(self, column_field)
        return values if self.columns is None else values.take(self.columns)
    return cached_property(gather)


@dataclass(frozen=True, eq=False)
class SyndromeDistribution:
    """Per-syndrome probabilities and logical angles at a physical angle.

    Zero-probability syndromes (exact zeros, e.g. at theta=0) are dropped.
    ``amp_identity``/``amp_logical`` are the signed real amplitude parts
    (complex phase implied by ``recovery_parity``), kept for invariant
    tests and Monte Carlo scoring.

    The values are held once per backend table column (``column_*``), with
    ``columns`` the column of each kept syndrome, or None while syndrome i
    is column i.  The per-syndrome arrays ``syndromes``, ``p``, ``theta_s``,
    ``amp_identity``, ``amp_logical`` and ``recovery_parity`` are gathered
    when first read (2**r entries each on a classed table), and
    ``theta_s_at`` reads angles at a few syndromes without gathering them.
    """

    theta: float
    num_checks: int
    column_p: np.ndarray
    column_theta_s: np.ndarray
    column_amp_identity: np.ndarray
    column_amp_logical: np.ndarray
    column_parity: np.ndarray
    columns: np.ndarray | None
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
        return self.column_theta_s.take(idx if self.columns is None else self.columns.take(idx))

    def __len__(self) -> int:
        if self.kept is not None:
            return len(self.kept)
        return len(self.column_p) if self.columns is None else len(self.columns)

    def syndrome_bits(self, i: int) -> str:
        s = int(self.syndromes[i])
        return "".join("1" if s >> k & 1 else "0" for k in range(self.num_checks))

    @property
    def entries(self) -> list[tuple[str, float, float]]:
        return [(self.syndrome_bits(i), float(self.p[i]), float(self.theta_s[i]))
                for i in range(len(self))]

    def amplitudes(self, i: int) -> tuple[complex, complex]:
        """Complex (A0, A1) of entry i, phases restored from the parity."""
        par = int(self.recovery_parity[i])
        ph0 = 1.0 if par == 0 else -1.0j
        ph1 = 1.0 if par == 1 else -1.0j
        return ph0 * float(self.amp_identity[i]), ph1 * float(self.amp_logical[i])

    def channel(self) -> LogicalPTM:
        """Logical channel from the amplitudes: eps = 2 sum A1^2,
        delta = 2 sum (-1)**parity A0 A1."""
        eps = float(2.0 * np.sum(self.amp_logical ** 2))
        sign = 1.0 - 2.0 * self.recovery_parity
        delta = float(2.0 * np.sum(sign * self.amp_identity * self.amp_logical))
        return LogicalPTM(eps, delta)


class ExactBackend:
    """Caches the theta-independent count and recovery tables of a code.

    The count table is kept weight-major and split by weight parity.  Every
    Z stabilizer has even weight and logical Z odd weight, so the all-ones
    support lies in span(X checks, logical X) with logical X in the sum: a
    support's weight parity is fixed by its (syndrome, coset) row, and the
    two cosets of a syndrome have opposite parities.  ``_table[j, q, s]``
    counts the weight-(2j+q) supports of syndrome s's coset of weight parity
    q; the identity coset is the one with the recovery's weight parity.  This
    drops the half of the weights that are always zero; a large table keeps
    its narrow dtype.

    A table of more than one sum block is grouped after it is laid out: the
    count table is freed, and only the columns of the class representatives
    are kept, with ``_classes[s]`` the column of syndrome s in the smallest
    unsigned dtype (the 5x5 X-Shor code keeps 21 columns and 1 MB of class
    indices instead of a 27 MB table).  Otherwise ``_classes`` is None and
    column s is syndrome s.
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
        even_rows = np.arange(0, len(counts), 2) | (coset ^ parity)
        # a table of one sum block is kept as float64 (at most 3.4 MB), which
        # saves each term a cast; a larger one keeps the narrow dtype
        dtype = np.float64 if len(even_rows) <= _SUM_BLOCK else counts.dtype
        self._table = np.zeros((self.n // 2 + 1, 2, len(even_rows)), dtype)
        self._table[:, 0] = counts[even_rows, 0::2].T
        self._table[:(self.n + 1) // 2, 1] = counts[even_rows ^ 1, 1::2].T
        if int(self._table.sum()) != 1 << self.n:
            raise InvalidCodeError("a (syndrome, coset) row holds supports of both weight "
                                   "parities: some Z stabilizer or logical Z has the wrong "
                                   "weight parity")
        self._classes = None
        if len(even_rows) > _SUM_BLOCK:
            del counts, keys, coset, even_rows  # freed before the grouping's transients
            self._table, parity, self._classes = _group_columns(self._table, parity)
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
        # the column of each kept syndrome; None while syndrome s is column s
        columns, kept = self._classes, None
        if not keep.all():
            kept = np.flatnonzero(keep if columns is None else keep[columns]).astype(np.uint32)
            columns = kept if columns is None else columns.take(kept)
        return SyndromeDistribution(
            theta=theta, num_checks=self.num_checks,
            column_p=p, column_theta_s=theta_s, column_amp_identity=s_id,
            column_amp_logical=s_log, column_parity=parity,
            columns=columns, kept=kept)

    def channel(self, theta: float, recovery: str = MIN_WEIGHT) -> LogicalPTM:
        return self.distribution(theta, recovery).channel()


def _ascending_sum(table: np.ndarray, wvec: np.ndarray) -> np.ndarray:
    """``sum_j table[j] * wvec[j]`` over the first axis, added in ascending j.

    Both branches do the same elementwise IEEE multiplies and adds in the same
    order (``add.accumulate`` is defined as r[j] = r[j-1] + x[j]), so the bits
    depend neither on the BLAS build and its threads nor on the table size.
    A small table takes O(1) NumPy calls; a large one is summed over blocks
    of columns that stay in cache, because ``add.accumulate`` along the first
    axis runs strided.
    """
    if table[0].size <= _SMALL_SUM:
        terms = table * wvec
        return np.add.accumulate(terms, out=terms)[-1]
    out = np.empty(table.shape[1:])
    term = np.empty(table.shape[1:-1] + (_SUM_BLOCK,))
    for start in range(0, out.shape[-1], _SUM_BLOCK):
        acc = out[..., start:start + _SUM_BLOCK]
        tmp = term[..., :acc.shape[-1]]
        np.multiply(table[0, ..., start:start + _SUM_BLOCK], wvec[0], out=acc)
        for j in range(1, len(table)):
            np.multiply(table[j, ..., start:start + _SUM_BLOCK], wvec[j], out=tmp)
            acc += tmp
    return out


# Odd multiplier of the column hash (2**64 / golden ratio); any odd constant
# gives an exact grouping, since every column is checked against its class.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _column_keys(table: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """A uint64 polynomial hash (mod 2**64) of each column of ``table`` (its
    last axis) together with its ``parity``."""
    keys = parity.astype(np.uint64)
    for row in table.reshape(-1, len(keys)):
        keys *= _HASH_MULT
        keys += row
    return keys


def _group_columns(table: np.ndarray, parity: np.ndarray):
    """Group the columns of ``table`` (its last axis) into classes of equal
    column and equal ``parity``.

    Returns the representatives' columns, their parities and the class index
    of every column, in the smallest unsigned dtype.  Columns with equal hash
    keys share a class only if they are equal: each is compared with its
    class representative, in blocks, and one that differs becomes a class
    of its own.
    """
    keys = _column_keys(table, parity)
    # np.unique's sorted keys, from a sort: the hash path of recent NumPy's
    # np.unique is slower here and imports numpy.ma
    unique = np.sort(keys)
    first = np.empty(len(unique), bool)
    first[:1] = True
    np.not_equal(unique[1:], unique[:-1], out=first[1:])
    unique = unique[first]
    classes = np.searchsorted(unique, keys)
    reps = np.full(len(unique), len(keys))
    np.minimum.at(reps, classes, np.arange(len(keys)))  # first column of each class
    rep_table, rep_parity = table[..., reps], parity[reps]
    stray = []
    for start in range(0, len(classes), _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        cls = classes[block]
        same = (table[..., block] == rep_table.take(cls, axis=-1)).all(axis=(0, 1))
        same &= parity[block] == rep_parity.take(cls)
        stray.append(start + np.flatnonzero(~same))
    stray = np.concatenate(stray)
    if len(stray):
        classes[stray] = len(reps) + np.arange(len(stray))
        reps = np.concatenate([reps, stray])
        rep_table, rep_parity = table[..., reps], parity[reps]
    return rep_table, rep_parity, classes.astype(np.min_scalar_type(len(reps) - 1))


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
