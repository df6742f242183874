"""Exact syndrome distribution of a compass code under uniform Z rotation.

The rotation expands as sum_v c_v Z(v) over all 2**n supports with
c_v = cos(theta/2)**(n-|v|) * (-i sin(theta/2))**|v|.  Supports sharing a
syndrome and a Z-stabilizer coset add coherently, so the channel is fully
determined by the theta-independent table counting supports per (syndrome,
coset, weight), which ``_kernels`` builds from the dual code in
O((r+1) 2**(r+1) (n+1)) for r X checks, not 2**n.  Because stabilizers have
even weight and the logical Z odd weight, the two coset amplitudes of a
syndrome carry opposite real/imaginary parity; they are stored as signed
reals S with the phase (-i)**parity implied, which makes the logical action

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .codes import CompassCode
from .decoder import bit_reverse, build_matching_graph
from .ptm import LogicalPTM

# Also bounds the per-theta float error, not only the table cost: amplitudes
# are cancelling sums of counts * cos^(n-w) sin^w.  With exact tables, Z-Shor
# channels miss their closed forms by <= 1.2e-13 at n=25, 2.5e-10 at n=49.
MAX_QUBITS = 25
MAX_TABLE_BYTES = 2 << 30  # at n <= 25 only the 1x25 grid (r = 24, 7.0 GB) exceeds it

MIN_WEIGHT = "minweight"
ML = "ml"
_RECOVERIES = (MIN_WEIGHT, ML)


class TooLargeError(RuntimeError):
    """Exact backend rejected: n over MAX_QUBITS or count table over MAX_TABLE_BYTES."""


def reduce_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]; the physical channel has period 2*pi."""
    t = math.remainder(float(theta), 2.0 * math.pi)
    return math.pi if t == -math.pi else t


def _check_recovery(recovery: str) -> str:
    if recovery not in _RECOVERIES:
        raise ValueError(f"recovery must be one of {_RECOVERIES}, got {recovery!r}")
    return recovery


@dataclass(frozen=True, eq=False)
class SyndromeDistribution:
    """Per-syndrome probabilities and logical angles at a physical angle.

    Zero-probability syndromes (exact zeros, e.g. at theta=0) are dropped.
    ``amp_identity``/``amp_logical`` are the signed real amplitude parts
    (complex phase implied by ``recovery_parity``), kept for invariant
    tests and Monte Carlo scoring.
    """

    theta: float
    num_checks: int
    syndromes: np.ndarray
    p: np.ndarray
    theta_s: np.ndarray
    amp_identity: np.ndarray
    amp_logical: np.ndarray
    recovery_parity: np.ndarray

    def __len__(self) -> int:
        return len(self.syndromes)

    def syndrome_bits(self, i: int) -> str:
        s = int(self.syndromes[i])
        return "".join("1" if s >> k & 1 else "0" for k in range(self.num_checks))

    @property
    def entries(self) -> list[tuple[str, float, float]]:
        return [(self.syndrome_bits(i), float(self.p[i]), float(self.theta_s[i]))
                for i in range(len(self.syndromes))]

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
    """Caches the theta-independent count and recovery tables of a code."""

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
        self.counts = _kernels.count_table(self.n, masks, code.logical_x.mask)
        self.graph = build_matching_graph(code)
        # a key holds the weight from bit n up, below it the mirrored support complemented
        keys = self.graph.table()
        xbar = bit_reverse(code.logical_x.mask, self.n)
        self._rec_parity = keys >> self.n & 1
        self._rec_coset = np.bitwise_count(~keys & xbar) & 1

    def _amplitudes(self, theta: float) -> np.ndarray:
        """Signed real coset amplitudes S[s, b] at a reduced angle."""
        n = self.n
        w = np.arange(n + 1)
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        wvec = (-1.0) ** (w // 2) * c ** (n - w) * s ** w
        return (self.counts.reshape(-1, n + 1) @ wvec).reshape(-1, 2)

    def distribution(self, theta: float, recovery: str = MIN_WEIGHT) -> SyndromeDistribution:
        _check_recovery(recovery)
        theta = reduce_angle(theta)
        S = self._amplitudes(theta)
        idx = np.arange(S.shape[0])
        s_id = S[idx, self._rec_coset]
        s_log = S[idx, 1 - self._rec_coset]
        parity = self._rec_parity.copy()
        if recovery == ML:
            swap = np.abs(s_log) > np.abs(s_id)
            s_id, s_log = np.where(swap, s_log, s_id), np.where(swap, s_id, s_log)
            parity ^= swap.astype(np.int64)

        p = s_id ** 2 + s_log ** 2
        keep = p > 0.0
        s_id, s_log, parity, p = s_id[keep], s_log[keep], parity[keep], p[keep]
        sign = 1.0 - 2.0 * parity
        with np.errstate(divide="ignore"):
            ratio = np.where(s_id != 0.0, s_log / np.where(s_id != 0.0, s_id, 1.0), np.inf)
        theta_s = np.where(s_id != 0.0, sign * 2.0 * np.arctan(ratio), math.pi)
        return SyndromeDistribution(
            theta=theta, num_checks=self.num_checks,
            syndromes=idx[keep].astype(np.uint32), p=p, theta_s=theta_s,
            amp_identity=s_id, amp_logical=s_log, recovery_parity=parity)

    def channel(self, theta: float, recovery: str = MIN_WEIGHT) -> LogicalPTM:
        return self.distribution(theta, recovery).channel()


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
