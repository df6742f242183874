import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compasscoh import (IDENTITY, LogicalPTM, compose, diamond_avg,
                        from_polar, kappa, power, pure_rotation, r1, rm_exact,
                        to_polar)
from compasscoh.families import AngleDistribution

from oracles import haar_average_infidelity


def valid_ptms():
    """Channels drawn inside the contractive disk."""
    return st.tuples(st.floats(0, 1), st.floats(0, 2 * math.pi)).map(
        lambda rt: LogicalPTM(1 - rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


class TestPolar:
    def test_identity(self):
        q = to_polar(IDENTITY)
        assert q.lam == 0.0 and q.phi == 0.0

    def test_pure_rotation_polar(self):
        theta = 0.23 * math.pi
        q = to_polar(pure_rotation(theta))
        assert q.lam == pytest.approx(0.0, abs=1e-15)
        assert q.phi == pytest.approx(theta, abs=1e-15)

    def test_round_trip_example(self):
        p = LogicalPTM(0.01, 0.02)
        back = from_polar(to_polar(p))
        assert back.epsilon == pytest.approx(0.01, abs=1e-14)
        assert back.delta == pytest.approx(0.02, abs=1e-14)

    def test_zero_block_saturates(self):
        q = to_polar(LogicalPTM(1.0, 0.0))
        assert q.lam == -math.inf
        back = from_polar(q)
        assert back.epsilon == 1.0 and back.delta == 0.0

    @given(valid_ptms())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, p):
        back = from_polar(to_polar(p))
        assert back.epsilon == pytest.approx(p.epsilon, abs=1e-12)
        assert back.delta == pytest.approx(p.delta, abs=1e-12)

    def test_contractivity_enforced(self):
        with pytest.raises(ValueError):
            LogicalPTM(-0.5, 0.0)
        with pytest.raises(ValueError):
            LogicalPTM(0.0, 1.1)


class TestComposePower:
    def test_compose_identity(self):
        a = LogicalPTM(0.1, 0.05)
        c = compose(a, IDENTITY)
        assert c.epsilon == pytest.approx(a.epsilon, abs=1e-15)
        assert c.delta == pytest.approx(a.delta, abs=1e-15)

    def test_power_zero_is_identity(self):
        assert power(LogicalPTM(0.3, 0.2), 0) == IDENTITY

    def test_power_of_rotation_adds_angles(self):
        theta = 0.07 * math.pi
        p = power(pure_rotation(theta), 5)
        assert p.epsilon == pytest.approx(1 - math.cos(5 * theta), abs=1e-12)
        assert p.delta == pytest.approx(math.sin(5 * theta), abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power(IDENTITY, -1)

    @given(valid_ptms(), valid_ptms(), valid_ptms())
    @settings(max_examples=60, deadline=None)
    def test_compose_associative(self, a, b, c):
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.epsilon == pytest.approx(right.epsilon, abs=1e-12)
        assert left.delta == pytest.approx(right.delta, abs=1e-12)

    @given(valid_ptms(), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_power_additive(self, a, m1, m2):
        whole = power(a, m1 + m2)
        split = compose(power(a, m1), power(a, m2))
        assert whole.epsilon == pytest.approx(split.epsilon, abs=1e-12)
        assert whole.delta == pytest.approx(split.delta, abs=1e-12)

    def test_compose_matches_matrix_product(self):
        a, b = LogicalPTM(0.2, 0.1), LogicalPTM(0.05, -0.3)
        got = compose(a, b)
        blk = lambda p: np.array([[1 - p.epsilon, p.delta], [-p.delta, 1 - p.epsilon]])
        want = blk(a) @ blk(b)
        assert got.epsilon == pytest.approx(1 - want[0, 0], abs=1e-14)
        assert got.delta == pytest.approx(want[0, 1], abs=1e-14)


class TestInfidelity:
    def test_r1_examples(self):
        assert r1(LogicalPTM(0.03, 0.0)) == pytest.approx(0.01)
        assert r1(IDENTITY) == 0.0

    def test_r1_single_qubit_vs_haar_average(self):
        for theta in [0.1, 0.4, 1.0]:
            ch = pure_rotation(theta)
            assert r1(ch) == pytest.approx((1 - math.cos(theta)) / 3, abs=1e-14)
            assert r1(ch) == pytest.approx(
                haar_average_infidelity(ch.epsilon, ch.delta, 1), abs=1e-12)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (0.05, 0.1), (0.3, -0.2),
                                           (1.0, 0.0), (0.9, 0.43)])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 17])
    def test_rm_exact_vs_haar_quadrature(self, eps, delta, m):
        """The closed form must match direct averaging of the powered PTM."""
        got = rm_exact(LogicalPTM(eps, delta), m)
        want = haar_average_infidelity(eps, delta, m)
        assert got == pytest.approx(want, abs=1e-12)

    def test_rm_pure_rotation(self):
        theta = 0.11
        for m in [0, 1, 3, 10]:
            got = rm_exact(pure_rotation(theta), m)
            assert got == pytest.approx((1 - math.cos(m * theta)) / 3, abs=1e-12)

    def test_rm_periodicity(self):
        a = pure_rotation(0.3)
        q = to_polar(a)
        m = 7
        val = rm_exact(a, m)
        shifted = (1 - math.exp(m * q.lam) * math.cos(m * q.phi + 2 * math.pi)) / 3
        assert val == pytest.approx(shifted, abs=1e-12)

    def test_rm_small_parameter_regime(self):
        """eps=1e-4, delta=1e-3, m=10: within 10% of eps*m/3 + m^2 delta^2/6."""
        a = LogicalPTM(1e-4, 1e-3)
        approx = 1e-4 * 10 / 3 + 10 ** 2 * 1e-6 / 6
        assert rm_exact(a, 10) == pytest.approx(approx, rel=0.1)

    @given(valid_ptms(), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_rm_bounds(self, a, m):
        val = rm_exact(a, m)
        assert -1e-12 <= val <= 2 / 3 + 1e-12


class TestKappa:
    def test_identity_zero(self):
        assert kappa(IDENTITY) == 0.0

    def test_pure_rotation(self):
        theta = 0.3 * math.pi
        expect = math.sin(theta) ** 2 / (1 - math.cos(theta))
        assert kappa(pure_rotation(theta)) == pytest.approx(expect, abs=1e-14)

    def test_coherent_with_zero_eps_is_infinite(self):
        # only reachable inside the contractivity tolerance band
        assert kappa(LogicalPTM(0.0, 1e-7)) == math.inf


class TestDiamond:
    def test_identity_distribution(self):
        dist = AngleDistribution(column_p=np.array([1.0]), column_theta_s=np.array([0.0]))
        assert diamond_avg(dist) == 0.0

    def test_single_qubit(self):
        theta = 0.1 * math.pi
        dist = AngleDistribution(column_p=np.array([1.0]), column_theta_s=np.array([theta]))
        assert diamond_avg(dist) == pytest.approx(2 * math.sin(theta), abs=1e-15)
