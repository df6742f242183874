"""Closed-form logical channels for repetition-based compass code families.

The length-l phase-flip repetition code admits exact per-syndrome-class
sums: the class whose minimum-weight correction has weight w (multiplicity
C(l, w), w = 0..(l-1)/2) carries signed coset amplitudes

    S0 = (-1)**(w//2)     * cos(t/2)**(l-w) * sin(t/2)**w
    S1 = (-1)**((l-w)//2) * cos(t/2)**w     * sin(t/2)**(l-w)

(sin(t/2)**0 is 1 at t = 0 too, where the w = 0 class has probability 1).
Each class has its own channel, a point of the unit circle, and its own
angle.  The repetition channel is the probability-weighted mean of the
class channels, the weights scaled from their logs, so it is contractive
at any l.  Z-Shor codes zip onto the repetition code at angle d_x * theta;
X-Shor codes are d_x column channels composed, i.e. a PTM power; Z-stacked
codes compose block channels at angle h * theta with leftover single rows
at theta.  Every distribution is an ``exact.AngleDistribution``, the exact
backend's type, with one entry per class.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exact import (_LEAF, MIN_WEIGHT, ML, AngleDistribution, TooLargeError, _check_recovery,
                    check_budget, reduce_angle)
from .ptm import IDENTITY, LogicalPTM, compose, power

REPETITION = "repetition"
Z_SHOR = "zshor"
X_SHOR = "xshor"
Z_STACKED = "zstacked"

MAX_CLASSES = 200_000  # largest merged class count convolved exactly
# Bytes a repetition channel or distribution holds per class of
# ``_rep_classes`` (tracemalloc at l = 2*10**5 + 1 and 2*10**6 + 1: 64 for
# a channel and for an ML distribution, 56 for a minimum-weight one; about
# 8 more below 32,768 classes, whose arrays are too small for NumPy to
# reuse temporaries in place).
_REP_CLASS_BYTES = 64


# Each family's parameter rule, run by its channel, its distribution and
# closed_form_threshold.  A Shor row is a length-d_z repetition code.

def _check_repetition(l) -> None:
    if l < 1 or l % 2 == 0:
        raise ValueError(f"l must be an odd positive integer, got {l}")


def _check_shor(d_x, d_z) -> None:
    if d_x < 1:
        raise ValueError(f"d_x must be >= 1, got {d_x}")
    _check_repetition(d_z)


def _check_stacked(l, h) -> None:
    _check_repetition(l)
    if not 1 <= h <= l:
        raise ValueError(f"need 1 <= h <= l, got h={h}")


def check_classes(l: int) -> int:
    """The length-l repetition code's class count, within the budget."""
    classes = (l + 1) // 2
    check_budget(classes * _REP_CLASS_BYTES, f"{classes} classes of the length-{l} "
                 "repetition code hold", f" ({_REP_CLASS_BYTES} a class)")
    return classes


def _rep_classes(l: int, theta: float, recovery: str):
    """Class data for the repetition code at angle theta, its whole input
    rule checked first.

    Returns (ln_p, x, sg, sign) over the min-weight classes w of nonzero
    probability, w = 0..(l-1)/2 (w = 0 alone at theta = 0): ln_p is the log
    of the class probability C(l, w) * (S0**2 + S1**2); x = ln|S1/S0|, with
    S0 the coset amplitude the recovery keeps; sg is the sign of S0 * S1
    and sign that of the class angle.  A class's channel is
    (2 / (1 + exp(-2x)), sign * sg / cosh x), a point of the unit circle,
    and its angle is sign * 2 * arctan(sg * exp(x)).
    """
    _check_repetition(l)
    _check_recovery(recovery)
    theta = reduce_angle(theta)
    classes = check_classes(l)
    a = abs(theta)
    c, s = math.cos(a / 2.0), math.sin(a / 2.0)
    w = np.arange(classes if s else 1)  # at s = 0 every other class has p = 0
    with np.errstate(divide="ignore"):
        ln_c, ln_s = np.log(c), np.log(s)
    ln_l = math.lgamma(l + 1)
    lnC = np.array([ln_l - math.lgamma(k + 1) - math.lgamma(l - k + 1) for k in w])
    ln0 = (l - w) * ln_c
    ln0[1:] += w[1:] * ln_s  # s**0 is 1, also at s = 0
    ln1 = w * ln_c + (l - w) * ln_s
    ln_p = lnC + np.logaddexp(2 * ln0, 2 * ln1)
    del lnC
    x = np.subtract(ln1, ln0, out=ln1)
    del ln0
    sg = (-1.0) ** (w // 2) * (-1.0) ** ((l - w) // 2)
    parity = w & 1
    if recovery == ML:  # keep the likelier coset: S0 and S1 swap where x > 0
        parity ^= x > 0
        x = -np.abs(x)
    sign = (1.0 if theta >= 0 else -1.0) * (1.0 - 2.0 * parity)
    return ln_p, x, sg, sign


def repetition_exact(l: int, theta: float, recovery: str = MIN_WEIGHT) -> LogicalPTM:
    """Exact repetition-code logical channel: the probability-weighted mean
    of the classes' own channels, so it is contractive at every l.  Each
    sum is ``np.sum``'s, in one pairwise order, and fl(q * eps_w) <= 2q, so
    eps <= 2 holds in floats too (``np.dot`` would keep neither that nor
    the bits from one BLAS to another)."""
    ln_p, x, sg, sign = _rep_classes(l, theta, recovery)
    q = np.exp(ln_p - np.max(ln_p))
    with np.errstate(over="ignore"):
        eps_w = 2.0 / (1.0 + np.exp(-2.0 * x))
        del_w = sign * sg / np.cosh(x)
    total = np.sum(q)
    return LogicalPTM(np.sum(q * eps_w) / total, np.sum(q * del_w) / total)


def repetition_distribution(l: int, theta: float,
                            recovery: str = MIN_WEIGHT) -> AngleDistribution:
    """Class-aggregated angle distribution of the repetition channel."""
    ln_p, x, sg, sign = _rep_classes(l, theta, recovery)
    with np.errstate(over="ignore"):
        theta_s = sign * 2.0 * np.arctan(sg * np.exp(x))
    return AngleDistribution(column_p=np.exp(ln_p), column_theta_s=theta_s)


def repetition_stirling(l: int, theta: float) -> LogicalPTM:
    """Stirling-formula approximation of the repetition channel.

    Valid for |theta| < pi/2 (rejected outside); the O(1/l) error can leave
    the contractive regime at small l near the edge, which raises.
    """
    _check_repetition(l)
    theta = reduce_angle(theta)
    if abs(theta) >= math.pi / 2:
        raise ValueError(f"Stirling form requires |theta| < pi/2, got {theta}")
    if theta == 0.0:
        return IDENTITY
    eps = math.sqrt(2.0 / (math.pi * l)) * math.sin(theta) ** (l + 1) / math.cos(theta)
    delta = math.cos(theta) / math.sin(theta) * eps
    return LogicalPTM(eps, delta)


def z_shor_channel(d_x: int, d_z: int, theta: float,
                   recovery: str = MIN_WEIGHT) -> LogicalPTM:
    """Z-Shor channel: weight-2 ZZ stabilizers zip the rotation column-wise,
    giving the length-d_z repetition channel at angle d_x * theta."""
    _check_shor(d_x, d_z)
    return repetition_exact(d_z, d_x * theta, recovery)


def z_shor_distribution(d_x: int, d_z: int, theta: float,
                        recovery: str = MIN_WEIGHT) -> AngleDistribution:
    _check_shor(d_x, d_z)
    return repetition_distribution(d_z, d_x * theta, recovery)


def x_shor_channel(d_x: int, d_z: int, theta: float) -> LogicalPTM:
    """X-Shor channel: d_x repetition-row channels composed (PTM power)."""
    _check_shor(d_x, d_z)
    return power(repetition_exact(d_z, theta, MIN_WEIGHT), d_x)


def z_stacked_channel(l: int, h: int, theta: float) -> LogicalPTM:
    """Z-stacked Shor channel C_{l,h}: floor(l/h) block channels at h*theta
    composed with (l mod h) single-row channels at theta."""
    _check_stacked(l, h)
    l_h, t_h = divmod(l, h)
    blocks = power(repetition_exact(l, h * theta, MIN_WEIGHT), l_h)
    rows = power(repetition_exact(l, theta, MIN_WEIGHT), t_h)
    return compose(blocks, rows)


def _round12(x: np.ndarray) -> np.ndarray:
    """Elementwise ``round(v, 12)``, bit-identical to Python's.

    Python rounds the exact binary value of v to the nearest multiple of
    1e-12 (ties to even) and returns the double nearest to that decimal.
    ``rint(v * 1e12) / 1e12`` gives the same double whenever ``rint`` picks
    the same integer, because 1e12 is exact and the division is correctly
    rounded.  Rounding is monotonic and every k + 1/2 is a double for
    |y| < 2**46, so y = fl(v * 1e12) lies on the same side of k + 1/2 as
    v * 10**12, or on it: only exact ties of y (``|y - rint(y)| == 0.5``,
    exact there), and larger entries, can round differently; those go
    through ``round``.  Beside x, it holds two float arrays of its length.
    """
    y = x * 1e12
    out = np.rint(y)
    big = ~((y > -2.0 ** 46) & (y < 2.0 ** 46))
    slow = np.flatnonzero(big | (np.abs(np.subtract(y, out, out=y), out=y) == 0.5))
    out /= 1e12
    out[slow] = [round(float(v), 12) for v in x[slow]]
    return out


def _pair_keys(angles: np.ndarray, part: AngleDistribution) -> np.ndarray:
    """The rounded angle sum of each (accumulated class, part class) pair."""
    return _round12((angles[:, None] + part.column_theta_s).ravel())


def _regroup(angles: np.ndarray, part: AngleDistribution):
    """Group one fold step's pairs by one sort of their rounded keys.

    A run of equal sorted keys (-0.0 == 0.0) is a class, numbered by how
    many runs start at or before its least pair; its key is that pair's.
    Returns the step's plan entry (each pair's class, in the smallest
    unsigned dtype that fits the class count, or None when no pairs
    merge), the class keys in class order, and the classes in ascending
    key order.  Three pair-length arrays are held at once at most; the
    keys are made here so that they are freed here.
    """
    keys = _pair_keys(angles, part)
    perm = np.argsort(keys)
    sorted_keys = keys[perm]
    runs = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    del sorted_keys  # each pair-length array is freed before the next is made
    first = np.minimum.reduceat(perm, np.flatnonzero(runs))
    if len(first) > MAX_CLASSES:
        raise TooLargeError("product distribution too large for exact convolution")
    sorted_angles = keys[first]
    del keys
    marks = np.zeros(len(perm), dtype=bool)
    marks[first] = True
    ascending = np.cumsum(marks, dtype=np.int32)[first] - 1  # <= MAX_CLASSES runs
    del marks, first
    class_keys = np.empty(len(ascending))
    class_keys[ascending] = sorted_angles
    if len(ascending) == len(perm):
        return None, class_keys, ascending
    sorted_class = ascending[np.cumsum(runs, dtype=np.int32) - 1]
    pair_class = np.empty(len(perm), dtype=np.min_scalar_type(len(ascending) - 1))
    pair_class[perm] = sorted_class
    return pair_class, class_keys, ascending


def _follow_plan(entry, angles: np.ndarray, part: AngleDistribution, last: bool):
    """The class keys and, on the last step, their ascending order if the
    step's rounded keys group into the classes of plan entry ``entry``;
    None if they do not.  The entry is that of a call whose earlier steps
    had these class counts, so it holds a class for each pair here."""
    keys = _pair_keys(angles, part)
    if entry is None:
        class_keys = keys
    else:
        # a class's first pair is where the running maximum of the classes rises
        reached = np.maximum.accumulate(entry)
        first = np.empty(len(entry), dtype=bool)
        first[0] = True
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        del reached
        class_keys = keys[first]
        del first
        for start in range(0, len(keys), _LEAF):  # (a) each pair has its class's key
            if not np.array_equal(keys[start:start + _LEAF],
                                  class_keys[entry[start:start + _LEAF]]):
                return None
        del keys
    order = np.argsort(class_keys) if last else None
    ordered = class_keys[order] if last else np.sort(class_keys)
    if np.any(ordered[1:] == ordered[:-1]):  # (b) the class keys are distinct
        return None
    return class_keys, order


_plan: dict[tuple[int, ...], list] = {}  # one entry: the last call's shape and steps


def product_distribution(parts: list[AngleDistribution]) -> AngleDistribution:
    """Convolve independent one-entry-per-class distributions (angles add, probs multiply).

    Supports the exact diamond metric for product-form families at small
    sizes; rejects upfront when the merged class count must exceed
    ``MAX_CLASSES`` (multiset bound: identical parts commute).

    Each factor folds in as one outer sum of angles and one outer product
    of probabilities over (accumulated class, part class) pairs.  Pairs
    merge into one class when their angle sums agree after
    ``round(angle, 12)``; the class keeps the first such rounded key,
    classes stay in first-insertion order, and each class sums its
    probabilities in pair order (``np.bincount``).  The result is
    bit-identical to folding the pairs one at a time into a dict keyed by
    the rounded angle.

    A sweep calls this once per angle with parts of one shape (their class
    counts), and the rounded keys nearly always merge into the same
    classes from one angle to the next.  So the last call's grouping is
    kept as a plan: for each step, the class of each pair, in the smallest
    unsigned dtype that fits the class count, or None for a step where no
    pairs merge.  A step of a call with the plan's shape checks its keys
    against the plan without sorting its pairs: (a) every pair's key
    equals its class's key, the key of the class's first pair (``_LEAF``
    pairs at a time), and (b) the class keys are pairwise distinct (one
    sort of the class keys; on the last step, the argsort that orders the
    result).  Then key equality partitions the pairs into exactly the
    plan's classes, so the classes, their first pairs, their keys (-0.0 or
    0.0 included) and their numbering are those a sort would give, and
    the sums are the same bits.  A step that fails either check, and every
    later step of its call, is grouped by one sort of its pair keys
    (``_regroup``), which replaces the plan from there on; so is each step
    of the first call of a new shape.

    A step holds ``MAX_CLASSES * k`` pairs at most for a part with k
    classes, and three arrays of that length at once.  The plan holds at
    most 4 bytes per pair of each step where pairs merge: 0.2 to 0.3 MB on
    the criterion-7 Z-stacked shapes (2 bytes a pair there).
    """
    bound = 1
    for part, run in itertools.groupby(parts):  # runs of one object: eq is identity
        k = len(part)
        bound *= math.comb(len(list(run)) + k - 1, k - 1)
        if bound > MAX_CLASSES:
            raise TooLargeError("product distribution too large for exact convolution")
    shape = tuple(len(part) for part in parts)
    steps = _plan.pop(shape, [])  # left empty if this call raises
    _plan.clear()
    angles = np.zeros(1)  # the class keys, in class order
    probs = np.ones(1)
    order = np.zeros(1, dtype=np.intp)  # the classes in ascending key order
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        planned = _follow_plan(steps[i], angles, part, last) if i < len(steps) else None
        if planned is None:
            del steps[i:]
            entry, angles, order = _regroup(angles, part)
            steps.append(entry)
        else:
            entry = steps[i]
            angles, order = planned
            del planned  # it would keep the class keys alive past the wrap
        weights = (probs[:, None] * part.column_p).ravel()
        if entry is None:  # one pair a class: bincount's 0.0 + w
            probs = np.add(weights, 0.0, out=weights)
        else:  # bincount adds the weights in pair order, like the dict fold
            probs = np.bincount(entry, weights=weights, minlength=len(angles))
        del weights
    _plan[shape] = steps
    sorted_angles = angles[order]
    del angles
    sorted_probs = probs[order]
    del probs, order
    wrapped = np.sin(sorted_angles)
    np.arctan2(wrapped, np.cos(sorted_angles), out=wrapped)
    return AngleDistribution(column_p=sorted_probs, column_theta_s=wrapped)


def x_shor_distribution(d_x: int, d_z: int, theta: float) -> AngleDistribution:
    _check_shor(d_x, d_z)
    part = repetition_distribution(d_z, theta, MIN_WEIGHT)
    return product_distribution([part] * d_x)


def z_stacked_distribution(l: int, h: int, theta: float) -> AngleDistribution:
    _check_stacked(l, h)
    l_h, t_h = divmod(l, h)
    parts = ([repetition_distribution(l, h * theta, MIN_WEIGHT)] * l_h
             + [repetition_distribution(l, theta, MIN_WEIGHT)] * t_h)
    return product_distribution(parts)


def closed_form_threshold(kind: str, **params) -> float:
    """Threshold angle of an analytic family, e.g.
    ``closed_form_threshold("zstacked", l=9, h=2)``; the coherence and the
    infidelity thresholds coincide.

    Repetition and X-Shor sit at pi/2, Z-Shor at pi/(2 d_x), the Z-stacked
    family C_{l,h} at pi/(2h); suppression below threshold is exponential
    in the growing code dimension.
    """
    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown family kind {kind!r}")
    if set(params) != set(family.params):
        raise ValueError(f"{kind} takes parameters {', '.join(family.params)}, "
                         f"got {', '.join(sorted(params)) or 'none'}")
    values = [params[name] for name in family.params]
    family.check(*values)
    return family.threshold(*values)


@dataclass(frozen=True)
class Family:
    """One analytic family.  ``params`` name the parameters taken, in order,
    by ``check``, ``threshold`` and ``channel``/``distribution`` (then theta
    and a recovery, checked first); each CLI flag is its name without the
    underscore.  Entries look family functions up as globals at call time.
    """

    kind: str
    alias: str
    params: tuple[str, ...]
    has_ml: bool
    dims: Callable[[int], tuple[int, int]]
    check: Callable[..., None]
    threshold: Callable[..., float]
    _channel: Callable[..., LogicalPTM]
    _distribution: Callable[..., AngleDistribution]

    def check_recovery(self, recovery: str) -> str:
        if _check_recovery(recovery) == ML and not self.has_ml:
            raise ValueError(f"{self.kind} has no maximum-likelihood form; "
                             f"use recovery {MIN_WEIGHT!r}")
        return recovery

    def channel(self, *args) -> LogicalPTM:
        return self._channel(*args[:-1], self.check_recovery(args[-1]))

    def distribution(self, *args) -> AngleDistribution:
        return self._distribution(*args[:-1], self.check_recovery(args[-1]))


FAMILIES = {family.kind: family for family in (
    Family(REPETITION, "rep", ("l",), True, lambda d: (1, d), _check_repetition,
           lambda l: math.pi / 2,
           lambda l, t, rec: repetition_exact(l, t, rec),
           lambda l, t, rec: repetition_distribution(l, t, rec)),
    Family(Z_SHOR, "zshor", ("d_x", "d_z"), True, lambda d: (d, d), _check_shor,
           lambda d_x, d_z: math.pi / (2 * d_x),
           lambda d_x, d_z, t, rec: z_shor_channel(d_x, d_z, t, rec),
           lambda d_x, d_z, t, rec: z_shor_distribution(d_x, d_z, t, rec)),
    Family(X_SHOR, "xshor", ("d_x", "d_z"), False, lambda d: (d, d), _check_shor,
           lambda d_x, d_z: math.pi / 2,
           lambda d_x, d_z, t, _: x_shor_channel(d_x, d_z, t),
           lambda d_x, d_z, t, _: x_shor_distribution(d_x, d_z, t)),
    Family(Z_STACKED, "zstacked", ("l", "h"), False, lambda d: (d, d), _check_stacked,
           lambda l, h: math.pi / (2 * h),
           lambda l, h, t, _: z_stacked_channel(l, h, t),
           lambda l, h, t, _: z_stacked_distribution(l, h, t)),
)}
