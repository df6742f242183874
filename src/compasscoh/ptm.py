"""Algebra of single-qubit Z-rotation-type logical channels.

The logical channel of interest acts trivially on I and Z and rotates and
shrinks the XY block of the Pauli transfer matrix:

    [[1-eps, delta], [-delta, 1-eps]]

so it is fully described by ``(epsilon, delta)`` or by the log-polar pair
``(lam, phi)`` with ``1 - eps +/- i*delta = exp(lam +/- i*phi)``.
Composition adds lam's and phi's, which makes channel powers exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ATOL = 1e-12


@dataclass(frozen=True)
class LogicalPTM:
    """XY-block channel parameters; must stay contractive."""

    epsilon: float
    delta: float

    def __post_init__(self):
        eps, delta = float(self.epsilon), float(self.delta)
        if eps < 0:
            if eps < -_ATOL:
                raise ValueError(f"epsilon must be >= 0, got {eps}")
            eps = 0.0
        if (1 - eps) ** 2 + delta ** 2 > 1 + _ATOL:
            raise ValueError(f"non-contractive XY block: eps={eps}, delta={delta}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class PolarPTM:
    """Log-magnitude and rotation angle of the XY block; lam <= 0."""

    lam: float
    phi: float


IDENTITY = LogicalPTM(0.0, 0.0)


def pure_rotation(theta: float) -> LogicalPTM:
    """Channel of a perfectly coherent logical Z rotation by ``theta``."""
    return LogicalPTM(1.0 - math.cos(theta), math.sin(theta))


def to_polar(p: LogicalPTM) -> PolarPTM:
    """Polar form; the zero-magnitude block saturates to lam = -inf."""
    mag2 = (1.0 - p.epsilon) ** 2 + p.delta ** 2
    if mag2 == 0.0:
        return PolarPTM(-math.inf, 0.0)
    return PolarPTM(0.5 * math.log(mag2), math.atan2(p.delta, 1.0 - p.epsilon))


def from_polar(q: PolarPTM) -> LogicalPTM:
    m = math.exp(q.lam)
    return LogicalPTM(1.0 - m * math.cos(q.phi), m * math.sin(q.phi))


def compose(a: LogicalPTM, b: LogicalPTM) -> LogicalPTM:
    qa, qb = to_polar(a), to_polar(b)
    return from_polar(PolarPTM(qa.lam + qb.lam, qa.phi + qb.phi))


def power(a: LogicalPTM, m: int) -> LogicalPTM:
    if m < 0:
        raise ValueError(f"power requires m >= 0, got {m}")
    if m == 0:
        return IDENTITY
    q = to_polar(a)
    return from_polar(PolarPTM(m * q.lam, m * q.phi))


def r1(a: LogicalPTM) -> float:
    """Single-use average infidelity, epsilon / 3."""
    return a.epsilon / 3.0


def rm_exact(a: LogicalPTM, m: int) -> float:
    """Average infidelity after m applications, from exact PTM powering.

    Haar-averaging the state fidelity of a powered XY-block channel gives
    r_m = (1 - exp(m*lam) * cos(m*phi)) / 3; the tests verify this closed
    form against direct Bloch-sphere quadrature.
    """
    if m < 0:
        raise ValueError(f"rm_exact requires m >= 0, got {m}")
    if m == 0:
        return 0.0
    q = to_polar(a)
    if math.isinf(q.lam):
        return 1.0 / 3.0
    return (1.0 - math.exp(m * q.lam) * math.cos(m * q.phi)) / 3.0


def kappa(a: LogicalPTM) -> float:
    """Coherence measure delta^2 / epsilon.

    Zero for the identity; a coherent channel with epsilon = 0 but
    delta != 0 reports infinite coherence.
    """
    if a.epsilon == 0.0:
        return 0.0 if a.delta == 0.0 else math.inf
    return a.delta ** 2 / a.epsilon


def diamond_avg(dist) -> float:
    """Average diamond-distance proxy sum(p_s * 2|sin(theta_s)|) of an
    ``exact.AngleDistribution``: each summand is taken per class and summed
    over its gather, the bits of taking it per entry.  It holds two
    class-length arrays at once beside the distribution's."""
    terms = np.sin(dist.column_theta_s)
    np.abs(terms, out=terms)
    np.multiply(dist.column_p * 2.0, terms, out=terms)
    return float(dist.gathered_sum(terms))
