import math
import tracemalloc

import numpy as np
import pytest

from compasscoh import (Coloring, TooLargeError, build_code, closed_form_threshold,
                        diamond_avg, kappa, logical_channel, power,
                        repetition_distribution, repetition_exact,
                        repetition_stirling, syndrome_distribution,
                        x_shor_channel, z_shor_channel, z_stacked_channel)
from compasscoh import exact, families
from compasscoh.cli import _parse_thetas
from compasscoh.experiments import SampleEstimate, sample_distribution
from compasscoh.families import (AngleDistribution, _round12, product_distribution,
                                 x_shor_distribution, z_shor_distribution,
                                 z_stacked_distribution)

from oracles import (diamond_reference, inverse_cdf_reference, product_distribution_reference,
                     repetition_reference)

THETAS = [k * 0.05 * math.pi for k in range(1, 10)]  # 0.05pi .. 0.45pi


def assert_channels_close(a, b, atol=1e-10):
    assert abs(a.epsilon - b.epsilon) <= atol, (a, b)
    assert abs(a.delta - b.delta) <= atol, (a, b)


class TestLengthBudget:
    # l = 2001 has 1001 classes; the budget admits 1000
    @pytest.mark.parametrize("call", [
        lambda: repetition_exact(2001, 0.3 * math.pi, "ml"),
        lambda: repetition_distribution(2001, -0.3 * math.pi),
        lambda: z_shor_channel(3, 2001, 0.3 * math.pi),
        lambda: x_shor_channel(3, 2001, 0.3 * math.pi),
        lambda: z_stacked_channel(2001, 2, 0.3 * math.pi),
        lambda: z_stacked_distribution(2001, 2, 0.3 * math.pi)])
    def test_classes_over_budget_rejected_before_any_array(self, monkeypatch, call):
        b = families._REP_CLASS_BYTES
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 1000 * b)
        monkeypatch.setattr(np, "arange", lambda *args: pytest.fail("classes made"))
        with pytest.raises(TooLargeError) as info:
            call()
        assert str(info.value) == (
            f"1001 classes of the length-2001 repetition code hold {1001 * b} bytes "
            f"({b} a class), over the budget of {1000 * b} bytes")

    @pytest.mark.parametrize("recovery", ["minweight", "ml"])
    def test_classes_hold_at_most_their_bytes(self, recovery):
        for call in (repetition_exact, repetition_distribution):
            tracemalloc.start()
            try:
                call(100_001, 0.37 * math.pi, recovery)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # plus about 4 KB whatever l is, once the arrays are large enough
            # (256 KiB) for NumPy to reuse temporaries in place
            assert peak <= 50_001 * families._REP_CLASS_BYTES + (8 << 10)


class TestRepetitionExact:
    def test_l1_is_single_qubit(self):
        for theta in [0.0, 0.3 * math.pi, 0.9 * math.pi, -0.4 * math.pi]:
            ch = repetition_exact(1, theta)
            assert ch.epsilon == pytest.approx(1 - math.cos(theta), abs=1e-14)
            assert ch.delta == pytest.approx(math.sin(theta), abs=1e-14)

    @pytest.mark.parametrize("l", [3, 5, 7])
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration(self, l, theta):
        exact = logical_channel(build_code(Coloring(1, l, ())), theta)
        assert_channels_close(repetition_exact(l, theta), exact)

    @pytest.mark.parametrize("l", [3, 5])
    @pytest.mark.parametrize("theta", [0.3 * math.pi, 0.6 * math.pi])
    def test_ml_matches_enumeration(self, l, theta):
        exact = logical_channel(build_code(Coloring(1, l, ())), theta, "ml")
        assert_channels_close(repetition_exact(l, theta, "ml"), exact)

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            repetition_exact(4, 0.1)

    def test_large_l_ratio_tracks_sin_squared(self):
        theta = 0.45 * math.pi
        e41 = repetition_exact(41, theta).epsilon
        e43 = repetition_exact(43, theta).epsilon
        assert e43 / e41 == pytest.approx(math.sin(theta) ** 2, rel=0.1)

    def test_log_domain_reaches_l_1001(self):
        ch = repetition_exact(1001, 0.3 * math.pi)
        assert 0 < ch.epsilon < 1e-50
        assert 0 < ch.delta < 1e-50
        assert math.isfinite(kappa(ch))

    # LogicalPTM raises on a non-contractive block; each class channel lies
    # on the unit circle, so their weighted mean stays inside it at any l
    @pytest.mark.parametrize("recovery", ["minweight", "ml"])
    @pytest.mark.parametrize("l", [1001, 10_001, 100_001])
    def test_contractive_far_above_threshold(self, l, recovery):
        for k in range(-10, 11):
            assert repetition_exact(l, k / 10 * math.pi, recovery).epsilon <= 2.0

    @pytest.mark.parametrize("l", [101, 1001])
    @pytest.mark.parametrize("theta_over_pi", [0.3, 0.6, 0.9])
    def test_matches_integer_reference(self, l, theta_over_pi):
        theta = theta_over_pi * math.pi
        for recovery, want in repetition_reference(l, theta).items():
            ch = repetition_exact(l, theta, recovery)
            for got, ref in zip((ch.epsilon, ch.delta), want):
                if abs(ref) > 1e-300:  # below, the reference itself is rounded
                    assert got == pytest.approx(ref, rel=1e-11, abs=0), recovery

    def test_periodicity_and_parity(self):
        for l in [3, 7]:
            a = repetition_exact(l, 0.22 * math.pi)
            b = repetition_exact(l, 0.22 * math.pi + 2 * math.pi)
            assert_channels_close(a, b, atol=1e-12)
            c = repetition_exact(l, -0.22 * math.pi)
            assert c.epsilon == pytest.approx(a.epsilon, abs=1e-14)
            assert c.delta == pytest.approx(-a.delta, abs=1e-14)

    def test_distribution_sums_to_channel(self):
        l, theta = 7, 0.31 * math.pi
        dist = repetition_distribution(l, theta)
        assert float(np.sum(dist.p)) == pytest.approx(1.0, abs=1e-12)
        ch = repetition_exact(l, theta)
        eps = float(np.sum(dist.p * (1 - np.cos(dist.theta_s))))
        delta = float(np.sum(dist.p * np.sin(dist.theta_s)))
        assert eps == pytest.approx(ch.epsilon, abs=1e-12)
        assert delta == pytest.approx(ch.delta, abs=1e-12)


class TestThetaZero:
    """At theta = 0 every family is the identity: one class of probability
    1 at angle 0, whose channel is (0.0, 0.0)."""

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    @pytest.mark.parametrize("kind,params", [
        ("repetition", (1,)), ("repetition", (7,)), ("zshor", (3, 3)),
        ("xshor", (3, 5)), ("zstacked", (7, 2)), ("zstacked", (9, 3))])
    def test_one_class_of_probability_one(self, kind, params, theta):
        family = families.FAMILIES[kind]
        for recovery in ("minweight", "ml") if family.has_ml else ("minweight",):
            dist = family.distribution(*params, theta, recovery)
            assert dist.p.tolist() == [1.0] and dist.theta_s.tolist() == [0.0]
            assert sample_distribution(dist, 10, 1) == SampleEstimate(0.0, 0.0, 0.0, 0.0)
            ch = family.channel(*params, theta, recovery)
            assert (repr(ch.epsilon), repr(ch.delta)) == ("0.0", "0.0")


class TestKappaApproximation:
    def test_l5_within_band(self):
        """kappa ~ (cos/sin)^2 * eps holds up to the O(1/l) band at l=5."""
        theta = 0.3 * math.pi
        ch = repetition_exact(5, theta)
        approx = (math.cos(theta) / math.sin(theta)) ** 2 * ch.epsilon
        assert 1.0 <= kappa(ch) / approx <= 2.5

    def test_ratio_converges_to_one(self):
        theta = 0.3 * math.pi
        ratios = []
        for l in (5, 21, 81, 201):
            ch = repetition_exact(l, theta)
            approx = (math.cos(theta) / math.sin(theta)) ** 2 * ch.epsilon
            ratios.append(kappa(ch) / approx)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=0.05)


class TestStirling:
    def test_within_ten_percent_at_l51(self):
        theta = 0.3 * math.pi
        approx = repetition_stirling(51, theta)
        exact = repetition_exact(51, theta)
        assert approx.epsilon == pytest.approx(exact.epsilon, rel=0.1)
        assert approx.delta == pytest.approx(exact.delta, rel=0.1)

    def test_error_shrinks_with_l(self):
        theta = 0.3 * math.pi
        errs = []
        for l in [11, 21, 41, 81]:
            approx = repetition_stirling(l, theta)
            exact = repetition_exact(l, theta)
            errs.append(abs(approx.epsilon - exact.epsilon) / exact.epsilon)
        assert all(b < a for a, b in zip(errs, errs[1:])), errs

    def test_vanishes_at_small_theta(self):
        assert repetition_stirling(11, 1e-6).epsilon < 1e-60

    def test_gated_outside_validity(self):
        with pytest.raises(ValueError):
            repetition_stirling(11, 0.5 * math.pi)
        with pytest.raises(ValueError):
            repetition_stirling(11, -0.6 * math.pi)


class TestZShor:
    def test_dx1_is_repetition(self):
        for theta in THETAS:
            assert_channels_close(z_shor_channel(1, 5, theta),
                                  repetition_exact(5, theta), atol=1e-15)

    @pytest.mark.parametrize("dims", [(3, 3), (3, 5)])
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration(self, dims, theta):
        from compasscoh import family_z_shor
        d_x, d_z = dims
        exact = logical_channel(build_code(family_z_shor(d_x, d_z)), theta)
        assert_channels_close(z_shor_channel(d_x, d_z, theta), exact)

    def test_kappa_zipping_identity(self):
        for d_x, d_z, theta in [(3, 3, 0.04 * math.pi), (5, 7, 0.02 * math.pi)]:
            k_z = kappa(z_shor_channel(d_x, d_z, theta))
            k_rep = kappa(repetition_exact(d_z, d_x * theta))
            assert k_z == k_rep  # identical by construction

    def test_ml_vs_minweight_split_at_zipped_pi_over_2(self):
        # zipped angle 3*theta crosses pi/2 at theta = pi/6
        below, above = 0.15 * math.pi, 0.2 * math.pi
        assert_channels_close(z_shor_channel(3, 5, below, "ml"),
                              z_shor_channel(3, 5, below, "minweight"), atol=1e-14)
        ml = z_shor_channel(3, 5, above, "ml")
        mw = z_shor_channel(3, 5, above, "minweight")
        assert ml.epsilon < mw.epsilon


class TestXShor:
    def test_dx1_is_repetition(self):
        assert_channels_close(x_shor_channel(1, 7, 0.3 * math.pi),
                              repetition_exact(7, 0.3 * math.pi), atol=1e-15)

    @pytest.mark.parametrize("dims", [(3, 3), (3, 5)])
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration(self, dims, theta):
        from compasscoh import family_x_shor
        d_x, d_z = dims
        exact = logical_channel(build_code(family_x_shor(d_x, d_z)), theta)
        assert_channels_close(x_shor_channel(d_x, d_z, theta), exact)

    def test_power_identity_cross_module(self):
        theta = 0.2 * math.pi
        per_row = repetition_exact(3, theta)
        from compasscoh import family_x_shor
        exact = logical_channel(build_code(family_x_shor(3, 3)), theta)
        assert_channels_close(power(per_row, 3), exact)

    def test_kappa_scales_linearly_in_dx(self):
        theta = 0.2 * math.pi
        k_col = kappa(repetition_exact(21, theta))
        k_x = kappa(x_shor_channel(21, 21, theta))
        assert k_x == pytest.approx(21 * k_col, rel=0.05)


class TestZStacked:
    def test_h1_is_square_x_shor(self):
        for theta in [0.1 * math.pi, 0.3 * math.pi]:
            assert_channels_close(z_stacked_channel(5, 1, theta),
                                  x_shor_channel(5, 5, theta), atol=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration_3_2(self, theta):
        from compasscoh import family_z_stacked
        exact = logical_channel(build_code(family_z_stacked(3, 2)), theta)
        assert_channels_close(z_stacked_channel(3, 2, theta), exact)

    @pytest.mark.parametrize("l,h", [(5, 2), (5, 3), (5, 4)])
    def test_matches_enumeration_25_qubits(self, l, h):
        """Covers leftover single rows: t_h = l mod h is 1, 2 and 1 here."""
        from compasscoh import family_z_stacked
        code = build_code(family_z_stacked(l, h))
        for top in (0.1, 0.3):
            exact = logical_channel(code, top * math.pi)
            assert_channels_close(z_stacked_channel(l, h, top * math.pi), exact)

    def test_kappa_low_noise_scaling(self):
        l, h, theta = 21, 3, 0.08 * math.pi
        k = kappa(z_stacked_channel(l, h, theta))
        k_block = kappa(repetition_exact(l, h * theta))
        assert k == pytest.approx((l / h) * k_block, rel=0.05)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            z_stacked_channel(5, 0, 0.1)
        with pytest.raises(ValueError):
            z_stacked_channel(5, 7, 0.1)


class TestParameterChecks:
    """A family's distribution rejects exactly what its channel rejects."""

    @pytest.mark.parametrize("channel,distribution,params", [
        (x_shor_channel, x_shor_distribution, (0, 3)),
        (z_stacked_channel, z_stacked_distribution, (9, 11)),
        (z_stacked_channel, z_stacked_distribution, (9, 0)),
        (z_shor_channel, z_shor_distribution, (0, 3)),
        (z_shor_channel, z_shor_distribution, (3, 4)),
        (x_shor_channel, x_shor_distribution, (3, 4)),
        (z_stacked_channel, z_stacked_distribution, (4, 1)),
        (repetition_exact, repetition_distribution, (4,)),
    ])
    def test_distribution_rejects_like_channel(self, channel, distribution, params):
        with pytest.raises(ValueError) as from_channel:
            channel(*params, 0.1)
        with pytest.raises(ValueError) as from_distribution:
            distribution(*params, 0.1)
        assert str(from_distribution.value) == str(from_channel.value)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family,params", [
        (repetition_exact, (5,)), (repetition_distribution, (5,)),
        (repetition_stirling, (5,)), (z_shor_channel, (3, 5)),
        (z_shor_distribution, (3, 5)), (x_shor_channel, (3, 5)),
        (x_shor_distribution, (3, 5)), (z_stacked_channel, (5, 2)),
        (z_stacked_distribution, (5, 2)),
    ])
    def test_non_finite_angle_rejected(self, family, params, theta):
        with pytest.raises(ValueError, match=f"angle must be finite, got {theta!r}"):
            family(*params, theta)

    # the CLI and AnalyticFamilySource check first, but an entry called
    # directly must refuse what its family cannot do too
    @pytest.mark.parametrize("kind,params", [
        ("repetition", (5,)), ("zshor", (3, 3)), ("xshor", (3, 3)), ("zstacked", (5, 2))])
    def test_entries_check_the_recovery(self, kind, params):
        family = families.FAMILIES[kind]
        for recovery in ("bogus",) + (() if family.has_ml else ("ml",)):
            with pytest.raises(ValueError) as want:
                family.check_recovery(recovery)
            for method in (family.channel, family.distribution):
                with pytest.raises(ValueError) as got:
                    method(*params, 0.3 * math.pi, recovery)
                assert str(got.value) == str(want.value)

    # one input rule for the repetition channel and distribution, in order:
    # l, the recovery, the angle, then the class budget
    @pytest.mark.parametrize("function", [repetition_exact, repetition_distribution])
    def test_repetition_input_rule_in_order(self, monkeypatch, function):
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 3 * families._REP_CLASS_BYTES - 1)
        with pytest.raises(ValueError, match="l must be an odd positive integer, got 4"):
            function(4, math.nan, "bogus")
        with pytest.raises(ValueError, match="recovery must be one of"):
            function(5, math.nan, "bogus")
        with pytest.raises(ValueError, match="angle must be finite"):
            function(5, math.nan)
        with pytest.raises(TooLargeError, match="^3 classes of the length-5 repetition code"):
            function(5, 0.1)
        assert families.check_classes(3) == 2
        with pytest.raises(TooLargeError, match="^3 classes of the length-5 repetition code"):
            families.check_classes(5)


class TestThresholds:
    def test_closed_forms(self):
        assert closed_form_threshold("repetition", l=11) == math.pi / 2
        # no class is made: a length far over the class budget is fine
        assert closed_form_threshold("zstacked", l=2 * 10**9 + 1, h=2) == math.pi / 4
        assert closed_form_threshold("zshor", d_x=3, d_z=3) == pytest.approx(math.pi / 6)
        assert closed_form_threshold("xshor", d_x=9, d_z=9) == math.pi / 2
        assert closed_form_threshold("zstacked", l=9, h=2) == pytest.approx(math.pi / 4)
        assert closed_form_threshold("zstacked", l=9, h=3) == pytest.approx(math.pi / 6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            closed_form_threshold("repetition", l=4)
        with pytest.raises(ValueError):
            closed_form_threshold("zstacked", l=5, h=9)
        with pytest.raises(ValueError):
            closed_form_threshold("donut", l=5)

    @pytest.mark.parametrize("kind,params,match", [
        ("zshor", {"d_x": 0, "d_z": 3}, "d_x must be >= 1"),
        ("xshor", {"d_x": 3, "d_z": 4}, "odd positive"),
        ("zstacked", {"l": 5, "h": 0}, "1 <= h <= l"),
        ("zstacked", {"l": 5}, "takes parameters l, h, got l"),
        ("repetition", {"l": 5, "h": 1}, "takes parameters l, got h, l"),
        ("zshor", {}, "got none"),
    ])
    def test_rejects_bad_missing_and_extra_parameters(self, kind, params, match):
        with pytest.raises(ValueError, match=match):
            closed_form_threshold(kind, **params)

    def test_suppression_below_threshold(self):
        """ln(eps) decreasing, asymptotically linear, below threshold."""
        for build, theta in [
            (lambda l: repetition_exact(l, 0.45 * math.pi), None),
            (lambda l: z_shor_channel(3, l, 0.15 * math.pi), None),
            (lambda l: x_shor_channel(3, l, 0.45 * math.pi), None),
        ]:
            ls = list(range(11, 102, 10))
            logs = [math.log(build(l).epsilon) for l in ls]
            assert all(b < a for a, b in zip(logs, logs[1:]))
            slopes = [(b - a) / 10 for a, b in zip(logs, logs[1:])]
            assert slopes[-1] < 0
            assert slopes[-1] == pytest.approx(slopes[-2], rel=0.2)

    def test_growth_above_threshold(self):
        es = [repetition_exact(l, 0.55 * math.pi).epsilon for l in range(21, 62, 10)]
        assert all(b >= a for a, b in zip(es, es[1:]))


class TestProductDistributions:
    def test_x_shor_diamond_matches_enumeration(self):
        from compasscoh import family_x_shor
        theta = 0.22 * math.pi
        code = build_code(family_x_shor(3, 3))
        exact = diamond_avg(syndrome_distribution(code, theta))
        analytic = diamond_avg(x_shor_distribution(3, 3, theta))
        assert analytic == pytest.approx(exact, abs=1e-10)

    def test_z_stacked_diamond_matches_enumeration(self):
        from compasscoh import family_z_stacked
        theta = 0.17 * math.pi
        code = build_code(family_z_stacked(3, 2))
        exact = diamond_avg(syndrome_distribution(code, theta))
        analytic = diamond_avg(z_stacked_distribution(3, 2, theta))
        assert analytic == pytest.approx(exact, abs=1e-10)

    def test_z_shor_diamond_matches_enumeration(self):
        from compasscoh import family_z_shor
        theta = 0.11 * math.pi
        code = build_code(family_z_shor(3, 5))
        exact = diamond_avg(syndrome_distribution(code, theta))
        analytic = diamond_avg(z_shor_distribution(3, 5, theta))
        assert analytic == pytest.approx(exact, abs=1e-10)

    def test_repetition_diamond_matches_enumeration(self):
        theta = 0.2 * math.pi
        code = build_code(Coloring(1, 3, ()))
        exact = diamond_avg(syndrome_distribution(code, theta))
        analytic = diamond_avg(repetition_distribution(3, theta))
        assert analytic == pytest.approx(exact, abs=1e-12)

    def test_too_large_convolution_raises(self):
        with pytest.raises(TooLargeError, match="^product distribution too large"):
            x_shor_distribution(21, 21, 0.2 * math.pi)


class TestOneDistributionType:
    """The closed-form families return the exact backend's distribution
    type, with one entry per class."""

    def test_syndrome_distribution_is_an_angle_distribution(self):
        assert issubclass(exact.SyndromeDistribution, exact.AngleDistribution)
        assert AngleDistribution is exact.AngleDistribution

    # theta = 0 and angles on both sides of each threshold
    @pytest.mark.parametrize("kind,params", [
        ("repetition", (1,)), ("repetition", (9,)), ("zshor", (3, 5)), ("xshor", (3, 5)),
        ("zstacked", (9, 2)), ("zstacked", (7, 3))])
    def test_diamond_and_arrays(self, kind, params):
        family = families.FAMILIES[kind]
        factors = (0.0, -1.3, -0.7, 0.5, 0.9, 0.99, 1.01, 1.1, 1.6)
        for theta in (f * family.threshold(*params) for f in factors):
            for recovery in ("minweight", "ml") if family.has_ml else ("minweight",):
                dist = family.distribution(*params, theta, recovery)
                assert type(dist) is AngleDistribution
                # one entry per class: the identity index, shared and read-only
                assert np.array_equal(dist.columns, np.arange(len(dist)))
                assert not dist.columns.flags.writeable
                assert repr(diamond_avg(dist)) == repr(diamond_reference(dist)), theta
                # the class arrays, the index and, once built, the whole
                # inverse CDF, which holds the index too
                held = [v for obj in (dist, dist.cdf) for v in vars(obj).values()
                        if isinstance(v, np.ndarray)]
                assert len(held) == 7 and not any(a.flags.writeable for a in held)
                assert dist.cdf.stride == 1
                assert dist.cdf.ends.tobytes() == inverse_cdf_reference(dist.p).tobytes()
                for name in ("p", "theta_s"):
                    column = getattr(dist, "column_" + name)
                    first, second = getattr(dist, name), getattr(dist, name)
                    assert first is not second and first.flags.writeable
                    assert not np.shares_memory(first, column)
                    assert np.array_equal(first, column) and len(first) == len(dist)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestRound12:
    def test_matches_python_round_near_ties(self):
        ks = np.concatenate([np.arange(-40, 40),
                             np.random.default_rng(3).integers(-2**45, 2**45, 200)])
        xs = []
        for k in ks:
            centre = (float(k) + 0.5) * 1e-12
            xs += [centre + j * float(np.spacing(centre)) for j in range(-4, 5)]
        xs = np.array(xs)
        want = [round(float(x), 12) for x in xs]
        # fl(v * 1e12) lands exactly on k + 1/2 for some v whose exact product
        # is no tie: rint picks the even integer there, Python rounds v
        y = xs * 1e12
        tie = np.abs(y - np.rint(y)) == 0.5
        assert np.count_nonzero(tie & (np.rint(y) / 1e12 != want)) > 100
        assert np.array_equal(_bits(_round12(xs)), _bits(want))

    def test_signed_zeros_and_tiny_values(self):
        xs = np.array([0.0, -0.0, 1e-15, -1e-15, 4e-13, -4e-13, 5e-13, -5e-13, 6e-13])
        assert np.array_equal(_bits(_round12(xs)), _bits([round(float(x), 12) for x in xs]))

    def test_around_the_fast_path_cutoff(self):
        cut = 2.0 ** 46 * 1e-12
        xs = []
        for base in (cut, -cut, 2 * cut, 0.999 * cut, 1e3 + 0.1234567890125):
            xs += [base + j * float(np.spacing(base)) for j in range(-6, 7)]
        xs += list(np.random.default_rng(4).uniform(-3 * cut, 3 * cut, 500))
        xs = np.array(xs)
        assert np.array_equal(_bits(_round12(xs)), _bits([round(float(x), 12) for x in xs]))

    def test_angle_scale_values(self):
        xs = np.random.default_rng(5).uniform(-4 * math.pi, 4 * math.pi, 20000)
        assert np.array_equal(_bits(_round12(xs)), _bits([round(float(x), 12) for x in xs]))


class TestProductMatchesReference:
    """The vectorized convolution gives the dict fold's bits."""

    @staticmethod
    def _assert_identical(parts, fast):
        ref = product_distribution_reference(parts)
        assert np.array_equal(fast.p, ref.p) and np.array_equal(fast.theta_s, ref.theta_s)
        assert _bits(fast.p).tobytes() == _bits(ref.p).tobytes()
        assert _bits(fast.theta_s).tobytes() == _bits(ref.theta_s).tobytes()
        assert diamond_avg(fast) == diamond_avg(ref)

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("top", [0.07, 0.22, 0.25, 0.41])
    def test_x_shor(self, d, top):
        theta = top * math.pi
        parts = [repetition_distribution(d, theta)] * d
        self._assert_identical(parts, x_shor_distribution(d, d, theta))

    @pytest.mark.parametrize("l", [9, 13, 17])
    @pytest.mark.parametrize("h,top", [(2, 0.20), (2, 0.245), (2, 0.30),
                                       (3, 0.13), (3, 0.168), (3, 0.21)])
    def test_z_stacked_in_criterion_7_bands(self, l, h, top):
        theta = top * math.pi
        l_h, t_h = divmod(l, h)
        parts = ([repetition_distribution(l, h * theta)] * l_h
                 + [repetition_distribution(l, theta)] * t_h)
        self._assert_identical(parts, z_stacked_distribution(l, h, theta))

    @pytest.mark.parametrize("top", [0.13, 0.168, 0.21])
    def test_z_stacked_largest_criterion_7_fold(self, top):
        # seven parts of 11 classes: 88,088 pairs merge into 19,448 classes
        theta = top * math.pi
        parts = [repetition_distribution(21, 3 * theta)] * 7
        self._assert_identical(parts, z_stacked_distribution(21, 3, theta))

    def test_mixed_parts_and_empty_product(self):
        parts = [repetition_distribution(5, 0.3), repetition_distribution(7, -1.1),
                 repetition_distribution(5, 0.3), repetition_distribution(3, 2.9)]
        self._assert_identical(parts, product_distribution(parts))
        self._assert_identical([], product_distribution([]))

    def test_classes_keep_first_key_and_merge_signed_zeros(self):
        # the rounded pair sums put -0.0 before 0.0 in both folds, and the
        # zero class of the first sums to another double in reverse order
        tiny = 1e-15
        first = AngleDistribution(column_p=np.array([0.05, 0.1, 0.05, 0.2, 0.3, 0.3]),
                                  column_theta_s=np.array([0.5, -tiny, 0.5, tiny, -1.0, -tiny]))
        second = AngleDistribution(column_p=np.array([0.3, 0.6, 0.1]),
                                   column_theta_s=np.array([-0.5 - 2 * tiny, tiny, 0.5]))
        for parts in ([first], [first, second]):
            got = product_distribution(parts)
            self._assert_identical(parts, got)
            zero = np.flatnonzero(got.theta_s == 0.0)
            assert len(zero) == 1 and np.signbit(got.theta_s[zero[0]])
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        assert product_distribution([first]).p.tolist() == [0.3, 0.1 + 0.2 + 0.3, 0.05 + 0.05]


def test_largest_criterion_7_fold_peak():
    """The l=21, h=3 fold holds at most three float64-sized arrays of its
    last step's 88,088 pairs (0.7 MB each) at once, beside the accumulated
    classes: 2.6 MB.  Rounding through five temporaries of that length
    peaked at 4.95 MB; keeping the sorted keys and their permutation alive
    through the step, at 3.3 MB."""
    theta = 0.15 * math.pi
    tracemalloc.start()
    try:
        z_stacked_distribution(21, 3, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6


def _z_stacked_parts(l, h, theta):
    l_h, t_h = divmod(l, h)
    return ([repetition_distribution(l, h * theta)] * l_h
            + [repetition_distribution(l, theta)] * t_h)


def _count_regroups(monkeypatch):
    """A fresh plan, and a list that grows by one per regrouped fold step."""
    monkeypatch.setattr(families, "_plan", {})
    regroup, calls = families._regroup, []

    def counted(*args):
        calls.append(len(args[0]))
        return regroup(*args)
    monkeypatch.setattr(families, "_regroup", counted)
    return calls


class TestProductPlan:
    """A call keeps its grouping as the plan for the next call of its shape;
    the next call follows it where its keys fall into the same classes and
    regroups where they do not, with the dict fold's bits either way."""

    _assert_identical = staticmethod(TestProductMatchesReference._assert_identical)

    # each sweep of acceptance criterion 7, in its order of calls; at
    # h*theta = pi/2 the h = 2 classes collapse (115,830 to 81 at l = 17) and
    # come back, and at l = 17, h = 3 a class of the last step splits
    @pytest.mark.parametrize("h,l,grid,regrouped", [
        (2, 9, "0.20:0.30:0.005", (0.25, 0.255)),
        (2, 13, "0.20:0.30:0.005", (0.25, 0.255)),
        (2, 17, "0.20:0.30:0.005", (0.25, 0.255)),
        (3, 17, "0.13:0.21:0.004", (0.154, 0.158)),
        (3, 21, "0.13:0.21:0.004", ()),
    ])
    def test_sweep_order(self, monkeypatch, h, l, grid, regrouped):
        regroups = _count_regroups(monkeypatch)
        tops = _parse_thetas(grid)
        assert set(regrouped) <= set(tops)
        for top in tops:
            before = len(regroups)
            got = z_stacked_distribution(l, h, top * math.pi)
            self._assert_identical(_z_stacked_parts(l, h, top * math.pi), got)
            if top == tops[0] or top in regrouped:
                assert len(regroups) > before, top
            else:
                assert len(regroups) == before, top

    def test_interleaved_shapes(self, monkeypatch):
        regroups = _count_regroups(monkeypatch)
        calls = [(x_shor_distribution, (5, 5), 0.22), (x_shor_distribution, (5, 5), 0.23),
                 (z_stacked_distribution, (9, 2), 0.22),
                 (x_shor_distribution, (5, 5), 0.24), (x_shor_distribution, (5, 5), 0.25)]
        counts = []
        for function, params, top in calls:
            before = len(regroups)
            got = function(*params, top * math.pi)
            parts = ([repetition_distribution(5, top * math.pi)] * 5
                     if function is x_shor_distribution
                     else _z_stacked_parts(*params, top * math.pi))
            self._assert_identical(parts, got)
            counts.append(len(regroups) - before)
        # every step of each new shape's first call regroups; the plan holds
        # one shape only, so X-Shor regroups again after Z-stacked
        assert counts == [5, 0, 5, 5, 0]

    @staticmethod
    def _parts(p_angles, q_angles):
        return [AngleDistribution(column_p=np.array([0.25, 0.75]),
                                  column_theta_s=np.array(p_angles)),
                AngleDistribution(column_p=np.array([0.5, 0.3, 0.2]),
                                  column_theta_s=np.array(q_angles))]

    def test_planned_class_splits(self, monkeypatch):
        regroups = _count_regroups(monkeypatch)
        # pairs 0 and 4 round to 0.3 and merge; then they round to 0.3 and 0.4
        first = self._parts([0.1, 0.2], [0.2, 0.1, 0.5])
        second = self._parts([0.1, 0.3], [0.2, 0.1, 0.5])
        self._assert_identical(first, product_distribution(first))
        assert families._plan[(2, 3)][1].tolist() == [0, 1, 2, 3, 0, 4]
        before = len(regroups)
        got = product_distribution(second)
        assert len(regroups) == before + 1 and len(got) == 6
        self._assert_identical(second, got)

    @pytest.mark.parametrize("p_angles,q_angles,zero", [
        # pairs 2 and 4 are planned classes that round to 0.4 both
        ([0.1, 0.2], [0.1, 0.2, 0.3], False),
        # pairs 0 and 5 are planned classes that round to -0.0 and 0.0: they
        # merge, and the class keeps its first pair's -0.0
        ([0.0, 0.2], [-1e-15, 0.2, -0.2], True),
    ])
    def test_planned_classes_merge(self, monkeypatch, p_angles, q_angles, zero):
        regroups = _count_regroups(monkeypatch)
        # pairs 1 and 3 round to 0.3 and merge; the other four classes differ
        first = self._parts([0.1, 0.3], [0.0, 0.2, -0.3])
        self._assert_identical(first, product_distribution(first))
        assert families._plan[(2, 3)][1].tolist() == [0, 1, 2, 1, 3, 4]
        second = self._parts(p_angles, q_angles)
        before = len(regroups)
        got = product_distribution(second)
        assert len(regroups) == before + 1 and len(got) == 4
        self._assert_identical(second, got)
        if zero:
            at = np.flatnonzero(got.theta_s == 0.0)
            assert len(at) == 1 and np.signbit(got.theta_s[at[0]])

    def test_plan_holds_its_stated_bytes(self, monkeypatch):
        # at most 4 bytes a pair of each merging step: 0.21, 0.22 and 0.27 MB
        monkeypatch.setattr(families, "_plan", {})
        for l, h in ((17, 2), (17, 3), (21, 3)):
            z_stacked_distribution(l, h, 0.16 * math.pi)
            (shape, steps), = families._plan.items()
            assert len(steps) == len(shape)
            assert all(step is None or step.itemsize <= 4 for step in steps)
            assert sum(step.nbytes for step in steps if step is not None) < 3e5

    def test_reuse_peaks_no_higher_than_regroup(self, monkeypatch):
        def peak(top):
            tracemalloc.start()
            try:
                z_stacked_distribution(17, 2, top * math.pi)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        regroups = _count_regroups(monkeypatch)
        x_shor_distribution(5, 5, 0.22 * math.pi)
        regrouped = peak(0.22)
        before = len(regroups)
        reused = peak(0.225)
        assert len(regroups) == before
        assert reused <= regrouped


@pytest.mark.parametrize("plan", ["fresh", "same shape"])
def test_largest_criterion_7_fold_peak_with_either_plan(monkeypatch, plan):
    monkeypatch.setattr(families, "_plan", {})
    if plan == "same shape":
        z_stacked_distribution(21, 3, 0.16 * math.pi)
    test_largest_criterion_7_fold_peak()
