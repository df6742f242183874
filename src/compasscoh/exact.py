"""Exact syndrome distribution of a compass code under uniform Z rotation.

The rotation expands as sum_v c_v Z(v) over all 2**n supports with
c_v = cos(theta/2)**(n-|v|) * (-i sin(theta/2))**|v|.  Supports sharing a
syndrome and a Z-stabilizer coset add coherently.  Every Z stabilizer has
even weight and the logical Z odd weight, so the all-ones support plus
logical X lies in the span of the X checks (checked before a build): a
support's weight parity is its logical-X parity plus a fixed function of
its syndrome.  A syndrome's two cosets are therefore its even-weight and
its odd-weight supports, and the channel is fully determined by the
theta-independent table counting supports per (syndrome, weight), which
``_kernels`` builds as exact integers, from the dual code when r (the
number of X checks) is small, from the cosets of the check kernel when
n - r is, or, when the X checks split the qubits into parts that share no
check (X-Shor), from each part's own table, since independent parts'
weights add.  Per theta, each amplitude is the sum of count * weight term
in ascending weight order, taken with elementwise IEEE operations, so the
outputs do not depend on the BLAS build or its thread count.  The two
coset amplitudes of a syndrome carry opposite real/imaginary parity; they
are stored as signed reals S with the phase (-i)**parity implied, which
makes the logical action

    A0 * I + A1 * Zbar  ->  exp(-i(theta_s/2) Zbar),
    theta_s = (-1)**p0 * 2*atan(S1/S0)         (pi when S0 = 0)

with p0 the recovery-weight parity: the identity coset holds the weights
of parity p0, the logical coset the others.  A minimum-weight correction
of a syndrome is one of its lowest-weight supports, so p0 is the parity of
the lowest weight its count row holds, and no decoder runs; which
minimum-weight correction the decoder would pick does not matter, since
they all have that parity.

Every per-syndrome output is therefore an elementwise function of the
syndrome's count column.  The columns are coset weight enumerators
(MacWilliams & Sloane, ch. 5), which symmetric codes share: the 5x5 X-Shor
code has 21 distinct columns among its 2**20 syndromes.  So
``_kernels.count_table`` groups syndromes into classes of equal columns as
it builds their rows, one block at a time, and the backend lays out one
column per class; each theta is evaluated once per class, and each
per-syndrome array or sum is a gather of class values, with the same bits
as evaluating every syndrome, whatever the class numbering.  A sum over a
gather (``blocked_sum``) gathers ``_LEAF`` entries at a time and adds them
as ``np.sum`` adds the whole gather.
That is the one distribution type, ``AngleDistribution``: a probability
and an angle per class, and each entry's class.  The backend's
``SyndromeDistribution`` adds the amplitudes and has one entry per
syndrome at every angle, those of probability 0 included, so an
evaluation holds no per-syndrome array; the closed-form families
return the base type, one entry per class, whose class index is the
identity.  A build first checks n, then that the bytes it and one
evaluation hold fit ``MAX_HELD_BYTES``.  The backend keeps its last
evaluation, so callers asking for one (theta, recovery) in turn, such as
the equal codes of an ensemble cell, share one distribution and its
``InverseCDF``, which keeps every ``stride``-th entry of the inverse CDF
and recomputes the blocks each sampler's draws land in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, gf2
from ._kernels import MAX_QUBITS
from .codes import CompassCode, InvalidCodeError
from .ptm import LogicalPTM

# Budget on the bytes one step holds (a backend build, a decode, ...),
# checked by ``check_budget`` before anything is allocated.
MAX_HELD_BYTES = 1 << 30

# Columns per add.accumulate of the ascending-weight sum: each block's
# transients stay near 3 MB, whatever the number of classes.
_SUM_BLOCK = 1 << 14
# Entries gathered at a time: a leaf of ``blocked_sum``, a chunk of the
# inverse CDF's running sum, and at most the entries one chunk of draws
# recomputes.  At least 128, NumPy's largest unsplit pairwise block.
_LEAF = 1 << 15
# Bytes one evaluation holds whatever its size: array headers and a dozen
# small temporaries, about 5 KB when r is small (tracemalloc).
_EVALUATION_FIXED = 16 << 10

MIN_WEIGHT = "minweight"
ML = "ml"
_RECOVERIES = (MIN_WEIGHT, ML)


class TooLargeError(RuntimeError):
    """Every size refused before work starts: n (``check_qubits``), bytes
    (``check_budget``), a product distribution over ``families.MAX_CLASSES``
    or a grid over ``cli.MAX_THETAS``."""


def check_qubits(n: int, detail: str = "") -> None:
    """Refuse n over MAX_QUBITS; ``detail`` follows n in the message."""
    if n > MAX_QUBITS:
        raise TooLargeError(f"exact backend supports n <= {MAX_QUBITS}, got n={n}{detail}")


def check_budget(held: int, subject: str, detail: str = "") -> None:
    """Refuse ``held`` bytes over MAX_HELD_BYTES, read at call time, with the
    message "{subject} {held} bytes{detail}, over the budget of ... bytes"."""
    if held > MAX_HELD_BYTES:
        raise TooLargeError(
            f"{subject} {held} bytes{detail}, over the budget of {MAX_HELD_BYTES} bytes")


def _held_bytes(n: int, masks: list[int]) -> int:
    """Upper bound on the bytes a backend holds for n qubits and these X
    check masks: its build (what the count rows' build and grouping hold),
    then one evaluation, which the backend keeps until it is asked for
    another (theta, recovery)."""
    return _kernels.held_bytes(n, masks) + _evaluation_bytes(n, len(masks))


def _evaluation_bytes(n: int, r: int) -> int:
    """Upper bound on the bytes one ``distribution``, its ``channel``, its
    ``diamond_avg`` and its ``cdf`` hold beyond the backend, which holds
    the class of each syndrome: no per-syndrome array, but the inverse
    CDF's two float64 entries per block of ``_stride(2**r)`` syndromes,
    kept until the next (theta, recovery); one leaf of ``_LEAF`` gathered
    entries, each with its intp index and, in a draw, its class index (24
    bytes an entry); one float64 block of the ascending sum's terms; and
    ``_EVALUATION_FIXED`` per call.  The class values, a few dozen bytes a
    class, are not counted: the class count is known only after the build."""
    size = 1 << r
    cdf = 16 * (-(-size // _stride(size)) + 1)
    leaf = 24 * min(size, _LEAF)
    block = 8 * 2 * (n // 2 + 1) * min(size, _SUM_BLOCK)
    return cdf + leaf + block + _EVALUATION_FIXED


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


def blocked_sum(column_values: np.ndarray, columns: np.ndarray) -> np.float64:
    """``np.sum(column_values[columns])`` bit for bit, gathering at most
    ``_LEAF`` entries at a time.

    NumPy adds a contiguous float64 array pairwise: it splits a length n
    over 128 at n2 = n // 2 - (n // 2) % 8 and adds the two halves' sums.
    This splits the same way, recursing on views of ``columns``, down to
    nodes of at most ``_LEAF`` entries, and adds each node's gather with
    ``np.add.reduce``, which splits it as the whole sum would."""
    size = len(columns)
    if size <= _LEAF:
        return np.add.reduce(column_values.take(columns))
    half = size // 2 - size // 2 % 8
    return blocked_sum(column_values, columns[:half]) + blocked_sum(column_values, columns[half:])


def _stride(size: int) -> int:
    """Entries per block of an inverse CDF of ``size`` entries: 1 up to
    2**12 entries, then the power of two near sqrt(size / 2**12), 16 at
    2**20, so that the kept entries and a draw's recomputed blocks both
    grow as sqrt(size)."""
    return 1 << max(0, (size - 1).bit_length() - 11) // 2


# Generator.choice's tolerance on the sum of normalised probabilities
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


class InverseCDF:
    """``Generator.choice``'s inverse CDF c of probabilities given per class
    and gathered through the class index ``columns``, held as the last
    entry of each block of ``stride`` entries.  Searching c with uniforms
    from ``rng.random`` draws the indices of
    ``rng.choice(len(p), n, p=p / p.sum())``, and ``search`` returns that
    search's result.

    Choice takes c = cumsum(p / p.sum()) / its last entry.  Here the sum
    is ``blocked_sum``'s, the division is made per class (``column_q``, the
    bits of dividing the gather), and the running sum is taken one
    ``_LEAF``-entry gather at a time, each chunk's first entry adding the
    sum so far, so every entry has choice's bits.  Each block's end is kept
    raw (``_before`` holds the running sum before each block, -0.0 before
    the first, since x + -0.0 is x) and normalised (``ends``).  Every held
    array is read-only, since samplers share it.

    Like choice, raises ValueError for probabilities that are not finite,
    are negative, sum to zero, or do not sum to 1 once normalised.
    """

    def __init__(self, column_p: np.ndarray, columns: np.ndarray):
        self.columns = columns
        size = len(columns)
        total = blocked_sum(column_p, columns)
        if not (math.isfinite(total) and total != 0.0):
            raise ValueError(f"probabilities must have a finite, nonzero sum, got {total}")
        self.column_q = column_q = column_p / total
        if column_q.min() < 0.0:
            raise ValueError("probabilities must be non-negative")
        self.stride = stride = _stride(size)
        sums = np.empty(-(-size // stride) + 1)  # sums[b + 1]: the running sum at block b's end
        sums[0] = last = -0.0
        for start in range(0, size, _LEAF):
            chunk = column_q.take(columns[start:start + _LEAF])
            chunk[0] += last
            np.cumsum(chunk, out=chunk)
            first = start // stride + 1
            sums[first:first + len(chunk) // stride] = chunk[stride - 1::stride]
            last = chunk[-1]
        sums[-1] = last
        if abs(last - 1.0) > _SUM_ATOL:
            raise ValueError(f"probabilities sum to {last}, not 1, once normalised")
        self._last = last
        self.ends = sums[1:] / last
        for array in (column_q, sums, self.ends):
            array.setflags(write=False)
        self._before = sums[:-1]  # a view of a read-only array is read-only

    def search(self, u: np.ndarray) -> np.ndarray:
        """``c.searchsorted(u, side="right")`` for uniforms u in [0, 1): the
        number of entries of c at most each draw.

        A draw's block is the number of block ends at most u, and its index
        that block's first entry plus the count of the block's entries at
        most u.  A chunk of draws recomputes its blocks at once, entry i of
        every block in row i, so the running sums run down the rows.  The
        last block's entries past the last entry read the last entry again,
        so their running sums are at least 1, above every draw.
        """
        idx = self.ends.searchsorted(u, side="right")
        stride = self.stride
        if stride == 1:
            return idx
        offsets = np.arange(stride)[:, None]
        per_chunk = _LEAF // stride
        for start in range(0, len(idx), per_chunk):
            draws = slice(start, start + per_chunk)
            first = idx[draws]
            before = self._before.take(first)
            first *= stride
            cdf = self.column_q.take(self.columns.take(offsets + first, mode="clip"))
            cdf[0] += before
            for above, row in zip(cdf, cdf[1:]):  # cumsum's bits; np.cumsum(axis=0) is 3x slower
                np.add(above, row, out=row)
            cdf /= self._last
            first += (cdf <= u[draws]).sum(axis=0)
        return idx


@dataclass(frozen=True, kw_only=True, eq=False)
class AngleDistribution:
    """Probabilities and logical angles, held once per class (``column_p``,
    ``column_theta_s``), with ``columns`` the class of each entry.  A
    distribution built without ``columns`` has one entry per class, entry
    k class k, and gets that identity index here.  The per-entry ``p`` and
    ``theta_s`` are gathered on every read and never kept, and a sum over a
    gather is taken a leaf at a time (``gathered_sum``); the inverse CDF of
    ``p``, ``cdf``, is built when first read, and kept.  A distribution may
    be shared, so every array it holds is read-only."""

    column_p: np.ndarray
    column_theta_s: np.ndarray
    columns: np.ndarray | None = None

    def __post_init__(self):
        if self.columns is None:
            object.__setattr__(self, "columns", np.arange(len(self.column_p), dtype=np.uint32))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def gather(self, column_values: np.ndarray,
               entries: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The class value of each of ``entries``, a slice or an index array
        (every entry by default), in a fresh array; fancy indexing, unlike
        ``take``, does not first widen all the class indices to intp."""
        return column_values[self.columns[entries]]

    def gathered_sum(self, column_values: np.ndarray) -> np.float64:
        """``np.sum(self.gather(column_values))`` bit for bit, a leaf at a time."""
        return blocked_sum(column_values, self.columns)

    @property
    def p(self) -> np.ndarray:
        return self.gather(self.column_p)

    @property
    def theta_s(self) -> np.ndarray:
        return self.gather(self.column_theta_s)

    @functools.cached_property
    def cdf(self) -> InverseCDF:
        """The inverse CDF of ``p``, built when first read; every sampler of
        this distribution then searches it."""
        return InverseCDF(self.column_p, self.columns)

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, kw_only=True, eq=False)
class SyndromeDistribution(AngleDistribution):
    """The exact backend's distribution at a physical angle: entry s is
    syndrome s, at every angle, even where p_s is 0 (at theta = 0 every
    syndrome but 0), and ``columns`` is the backend's class of each
    syndrome.  ``column_amp_*`` are the signed real amplitude parts, their
    phases (-i)**parity and (-i)**(1 - parity) implied by the recovery's
    weight parity ``column_parity`` (bool)."""

    column_amp_identity: np.ndarray
    column_amp_logical: np.ndarray
    column_parity: np.ndarray

    @property
    def syndromes(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.uint32)

    def channel(self) -> LogicalPTM:
        """Logical channel from the amplitudes: eps = 2 sum A1^2, delta =
        2 sum (-1)**parity A0 A1, each summand taken per class, then summed
        over its gather."""
        a0, a1 = self.column_amp_identity, self.column_amp_logical
        eps = float(2.0 * self.gathered_sum(a1 ** 2))
        sign = 1.0 - 2.0 * self.column_parity
        delta = float(2.0 * self.gathered_sum(sign * a0 * a1))
        return LogicalPTM(eps, delta)


class ExactBackend:
    """Caches the theta-independent count table of a code.

    Every Z stabilizer has even weight and logical Z odd weight, so the
    all-ones support plus logical X lies in span(X checks): a syndrome's
    coset of the recovery is the supports with the recovery's weight
    parity, and its logical coset the supports of the other parity.
    Syndromes are grouped into classes of equal count rows as the rows are
    built, and only each class's row is laid out: weight-major, split by
    weight parity, in the rows' narrow dtype.  ``_table[j, q, c]`` counts
    class c's weight-(2j+q) supports; the identity coset is the half of
    weight parity ``_parity[c]``, that of the row's lowest weight, which
    every minimum-weight recovery has.  ``_classes[s]`` is the class of
    syndrome s in the smallest unsigned dtype (the 5x5 X-Shor code keeps 21
    columns, 1 MB of indices).  Every output gathers class values per
    syndrome, so no output depends on how the classes are numbered.

    ``distribution`` keeps its last result, keyed by the reduced angle's
    bits and the recovery: asked again for that key, it returns the same
    (read-only) distribution, whose inverse CDF is then built once for
    every sampler of it; asked for another key, it drops the kept one
    first, so a backend holds at most one evaluation.
    """

    _last: tuple | None = None  # ((theta bits, recovery), distribution)

    def __init__(self, code: CompassCode):
        self.code = code
        self.n = n = code.n
        self.num_checks = r = len(code.x_stabilizers)
        check_qubits(n, f", r={r}")
        masks = [s.mask for s in code.x_stabilizers]
        check_budget(_held_bytes(n, masks), f"exact backend build of n={n}, r={r} holds")
        if not gf2.in_span(((1 << n) - 1) ^ code.logical_x.mask, gf2.reduce_basis(masks)):
            raise InvalidCodeError("a syndrome's cosets hold supports of both weight "
                                   "parities: some Z stabilizer or logical Z has the wrong "
                                   "weight parity")
        rows, self._classes = _kernels.count_table(n, masks)
        self._table = np.zeros((n // 2 + 1, 2, len(rows)), rows.dtype)
        self._table[:, 0] = rows[:, 0::2].T
        self._table[:(n + 1) // 2, 1] = rows[:, 1::2].T
        # a minimum-weight recovery has its row's lowest weight
        self._parity = (rows != 0).argmax(axis=1) % 2 == 1
        self._parity.setflags(write=False)  # shared by the distributions

    def _amplitudes(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """Signed real identity and logical coset amplitudes of every table
        column at a reduced angle, each summed over ascending weight."""
        n = self.n
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        wvec = [(-1.0) ** (w // 2) * c ** (n - w) * s ** w for w in range(n + 1)]
        if n % 2 == 0:
            wvec.append(0.0)  # the odd half has no weight n + 1
        even, odd = _ascending_sum(self._table, np.array(wvec).reshape(-1, 2, 1))
        return np.where(self._parity, odd, even), np.where(self._parity, even, odd)

    def distribution(self, theta: float, recovery: str = MIN_WEIGHT) -> SyndromeDistribution:
        _check_recovery(recovery)
        theta = reduce_angle(theta)
        key = theta.hex(), recovery  # 0.0 and -0.0 stay apart
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None
        s_id, s_log = self._amplitudes(theta)
        parity = self._parity
        if recovery == ML:
            swap = np.abs(s_log) > np.abs(s_id)
            s_id, s_log = np.where(swap, s_log, s_id), np.where(swap, s_id, s_log)
            parity = parity ^ swap

        p = s_id ** 2 + s_log ** 2
        sign = 1.0 - 2.0 * parity
        nonzero = s_id != 0.0
        ratio = s_log / np.where(nonzero, s_id, 1.0)
        theta_s = np.where(nonzero, sign * 2.0 * np.arctan(ratio), math.pi)
        dist = SyndromeDistribution(
            column_p=p, column_theta_s=theta_s, column_amp_identity=s_id,
            column_amp_logical=s_log, column_parity=parity, columns=self._classes)
        self._last = key, dist
        return dist

    def channel(self, theta: float, recovery: str = MIN_WEIGHT) -> LogicalPTM:
        return self.distribution(theta, recovery).channel()


def _ascending_sum(table: np.ndarray, wvec: np.ndarray) -> np.ndarray:
    """``sum_j table[j] * wvec[j]`` over the first axis, added in ascending j.

    Each block of ``_SUM_BLOCK`` columns is cast exactly into one float64
    block, multiplied there and summed by one ``add.accumulate``, defined as
    r[j] = r[j-1] + x[j]: the same elementwise IEEE operations in the same
    order for every column, so the bits depend neither on the BLAS build
    and its threads nor on the table size or the block boundaries.
    """
    out = np.empty(table.shape[1:])
    terms = np.empty(table.shape[:-1] + (min(table.shape[-1], _SUM_BLOCK),))
    for start in range(0, out.shape[-1], _SUM_BLOCK):
        block = slice(start, start + _SUM_BLOCK)
        t = terms[..., :out[..., block].shape[-1]]
        t[...] = table[..., block]
        t *= wvec
        out[..., block] = np.add.accumulate(t, out=t)[-1]
    return out


_CACHE: dict[CompassCode, ExactBackend] = {}


def get_backend(code: CompassCode) -> ExactBackend:
    """The cached backend of ``code``, built on a miss; the cache drops all
    its 8 entries when a ninth arrives.  It is keyed by the code, so the
    lookup hashes the code's coloring and compares every field: a code
    built by hand with another code's coloring but other stabilizers gets
    its own backend, and the same code object, which ``build_code`` hands
    out for equal colorings, is found by identity."""
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
