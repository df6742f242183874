import concurrent.futures
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from compasscoh import (AnalyticFamilySource, CodeSource, EnsembleSource,
                        build_code, ensemble_estimate, family_rotated_surface,
                        family_x_shor, random_coloring,
                        find_crossings, interpolation_curve, read_csv,
                        sample_distribution, sweep, syndrome_distribution,
                        write_csv, z_shor_channel)
from compasscoh.experiments import (CSV_COLUMNS, PairCrossing, SweepRow,
                                    SweepTable, source_for_rows, table_to_json)
from compasscoh import exact, experiments, families
from compasscoh.exact import TooLargeError
from compasscoh.families import AngleDistribution, repetition_exact
from compasscoh import family_z_stacked

from oracles import sample_distribution_reference


def rep_source():
    return AnalyticFamilySource("repetition")


def diamond_table(thetas, low, high):
    """A sampled table whose d=3 and d=5 curves take these diamond values."""
    return SweepTable(tuple(
        SweepRow(family="random", dx=d, dz=d, h=None, q_shor=0.5, seed=0,
                 theta_over_pi=top, provenance="sampled", epsilon=0.0, delta=0.0,
                 kappa=0.0, r1=0.0, r1_stderr=None, diamond=dia, diamond_stderr=None,
                 n_codes=4, n_samples=16)
        for d, curve in ((3, low), (5, high)) for top, dia in zip(thetas, curve)))


class TestAnalyticFamilySource:
    @pytest.mark.parametrize("family,h", [("xshor", None), ("zstacked", 2)])
    def test_rejects_ml_without_ml_form(self, family, h):
        with pytest.raises(ValueError, match="no maximum-likelihood form"):
            AnalyticFamilySource(family, "ml", h)

    @pytest.mark.parametrize("family", ["repetition", "zshor", "xshor"])
    def test_rejects_h_without_block_height(self, family):
        with pytest.raises(ValueError, match=f"^{family} source takes no block height h$"):
            AnalyticFamilySource(family, h=3)

    def test_rows_with_a_stray_h_rebuild_their_source(self):
        # sweeps written before h was refused stamped it on every X-Shor row
        table = sweep(AnalyticFamilySource("xshor"), [0.45, 0.5, 0.55], [3, 5])
        stamped = SweepTable(tuple(dataclasses.replace(row, h=3) for row in table.rows))
        source = source_for_rows(stamped)
        assert (source.family, source.h) == ("xshor", None)
        assert find_crossings(stamped, "diamond", source) == find_crossings(
            table, "diamond", source_for_rows(table))

    def test_only_a_refused_product_has_no_distribution(self):
        src = AnalyticFamilySource("xshor")
        assert src.distribution(21, 0.2 * math.pi) is None  # over MAX_CLASSES
        with pytest.raises(ValueError, match="l must be an odd positive integer, got 4"):
            src.distribution(4, 0.2 * math.pi)
        with pytest.raises(TooLargeError, match="diamond refinement unavailable"):
            experiments._metric_fn(src, "diamond")(21, 0.2)

    # every length's class budget comes before any family parameter
    def test_check_refuses_every_size_before_any_parameter(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 10 * families._REP_CLASS_BYTES)
        src = AnalyticFamilySource("repetition")
        with pytest.raises(TooLargeError, match="^11 classes of the length-21 repetition"):
            src.check([4, 21])
        with pytest.raises(ValueError, match="l must be an odd positive integer, got 4"):
            src.check([19, 4])

    def test_calls_family_functions_at_call_time(self, monkeypatch):
        # wrappers installed on the families module after import see the calls
        calls = []
        real = families.x_shor_channel
        monkeypatch.setattr(families, "x_shor_channel",
                            lambda *a: calls.append(a) or real(*a))
        src = AnalyticFamilySource("xshor")
        assert src.channel(3, 0.2 * math.pi) == real(3, 3, 0.2 * math.pi)
        assert calls == [(3, 3, 0.2 * math.pi)]


class TestSweep:
    def test_one_row_per_cell(self):
        thetas = [0.3, 0.35, 0.4]
        table = sweep(rep_source(), thetas, [3, 5])
        assert len(table.rows) == 6
        assert {r.distance for r in table.rows} == {3, 5}
        assert all(r.provenance == "analytic" for r in table.rows)

    def test_rows_match_direct_evaluation(self):
        table = sweep(rep_source(), [0.2], [5])
        row = table.rows[0]
        ch = repetition_exact(5, 0.2 * math.pi)
        assert row.epsilon == pytest.approx(ch.epsilon, abs=1e-15)
        assert row.r1 == pytest.approx(ch.epsilon / 3, abs=1e-15)
        assert row.diamond is not None

    def test_exact_code_source(self):
        src = CodeSource("rsc", lambda l: build_code(family_rotated_surface(l)))
        table = sweep(src, [0.1, 0.2], [3])
        assert all(r.provenance == "exact" for r in table.rows)
        dist = syndrome_distribution(build_code(family_rotated_surface(3)),
                                     0.1 * math.pi)
        expect = float(np.sum(dist.p * 2 * np.abs(np.sin(dist.theta_s))))
        assert table.rows[0].diamond == pytest.approx(expect, abs=1e-12)

    def test_code_source_metric_fn_matches_rows(self):
        src = CodeSource("rsc", lambda l: build_code(family_rotated_surface(l)))
        row = sweep(src, [0.15], [3]).rows[0]
        assert experiments._metric_fn(src, "r1")(3, 0.15) == row.r1
        assert experiments._metric_fn(src, "diamond")(3, 0.15) == row.diamond

    def test_code_source_looks_its_backend_up_once_per_distance(self, monkeypatch):
        calls = []
        real = experiments.get_backend
        monkeypatch.setattr(experiments, "get_backend",
                            lambda code: calls.append(code.n) or real(code))
        src = CodeSource("rsc", lambda l: build_code(family_rotated_surface(l)))
        table = sweep(src, [0.1, 0.2, 0.3], [3, 5])
        assert len(table.rows) == 6
        assert calls == [9, 25]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(rep_source(), [], [3])

    def test_distances_may_be_an_iterator(self):
        table = sweep(rep_source(), [0.2], iter([3, 5]))
        assert [r.distance for r in table.rows] == [3, 5]


class TestFindCrossings:
    def test_repetition_crossing_brackets_half_pi(self):
        thetas = [round(0.3 + 0.025 * k, 10) for k in range(13)]  # 0.3..0.6
        table = sweep(rep_source(), thetas, [11, 21])
        est = find_crossings(table, "r1", source=rep_source())
        assert not est.one_sided
        assert len(est.crossings) == 1  # the two series cross once, at pi/2
        assert 0.45 < est.lower_over_pi <= 0.5 <= est.upper_over_pi < 0.55
        for c in est.crossings:
            assert c.hi_over_pi - c.lo_over_pi <= 0.001 + 1e-12

    def test_refinement_is_bracketed(self):
        thetas = [round(0.3 + 0.05 * k, 10) for k in range(7)]
        src = rep_source()
        table = sweep(src, thetas, [5, 9])
        est = find_crossings(table, "r1", source=src)
        fn = experiments._metric_fn(src, "r1")
        for c in est.crossings:
            lo = fn(9, c.lo_over_pi) - fn(5, c.lo_over_pi)
            hi = fn(9, c.hi_over_pi) - fn(5, c.hi_over_pi)
            assert lo * hi <= 0

    def test_single_distance_rejected(self):
        table = sweep(rep_source(), [0.3, 0.4], [5])
        with pytest.raises(ValueError):
            find_crossings(table, "r1")

    def test_one_sided_above_window(self):
        # far below threshold: larger distance is strictly better everywhere
        table = sweep(rep_source(), [0.1, 0.15, 0.2], [5, 9])
        est = find_crossings(table, "r1", source=rep_source())
        assert est.one_sided
        assert est.lower_over_pi == 0.2 and est.upper_over_pi is None

    def test_one_sided_below_window(self):
        # z-shor square crossings live near 0.02pi; a window at 0.1pi is above
        src = AnalyticFamilySource("zshor")
        table = sweep(src, [0.1, 0.12, 0.14], [3, 5])
        est = find_crossings(table, "r1", source=src)
        assert est.one_sided
        assert est.upper_over_pi == 0.1 and est.lower_over_pi is None

    def test_diamond_metric_crossing_on_table(self):
        # the repetition diamond touches 2 at pi/2, where rounding decides the
        # sign (g = +4.4e-16 at d = 3, 5), so exercise the diamond path on a
        # synthetic sampled table instead
        est = find_crossings(diamond_table((0.2, 0.3), (0.5, 0.6), (0.4, 0.7)), "diamond")
        assert not est.one_sided
        assert est.crossings == (PairCrossing(3, 5, 0.2, 0.3),)

    # every channel is the identity at theta = 0, and X-Shor and repetition
    # r1 tie at pi: a tie carries no sign, so it sets no bound
    @pytest.mark.parametrize("thetas,low,high,trim", [
        ((0.0, 0.1, 0.2), (0.0, 0.5, 0.6), (0.0, 0.6, 0.7), slice(1, None)),  # all rise
        ((0.0, 0.1, 0.2), (0.0, 0.5, 0.6), (0.0, 0.4, 0.7), slice(1, None)),  # cross
        ((0.8, 0.9, 1.0), (0.5, 0.6, 1.0), (0.4, 0.5, 1.0), slice(None, -1)),  # all fall
        ((0.8, 0.9, 1.0), (0.5, 0.6, 1.0), (0.4, 0.7, 1.0), slice(None, -1)),  # cross
    ], ids=["first-rise", "first-cross", "last-fall", "last-cross"])
    def test_a_tie_at_a_grid_end_sets_no_bound(self, thetas, low, high, trim):
        est = find_crossings(diamond_table(thetas, low, high), "diamond")
        assert est == find_crossings(
            diamond_table(thetas[trim], low[trim], high[trim]), "diamond")

    @pytest.mark.parametrize("thetas,low,high,crossings,bounds", [
        # g = +1e-200 then -1e-200: their product underflows to 0
        ((0.1, 0.2), (1e-200, 2e-200), (2e-200, 1e-200), ((0.1, 0.2),), (0.1, 0.2)),
        # g touches 0 without changing sign: one-sided, never a crossing
        ((0.1, 0.2, 0.3), (0.5, 0.5, 0.5), (0.4, 0.5, 0.4), (), (0.3, None)),
        # an exact interior zero between opposite signs: bracketed by its neighbours
        ((0.1, 0.2, 0.3), (0.5, 0.5, 0.5), (0.4, 0.5, 0.6), ((0.1, 0.3),), (0.1, 0.3)),
    ], ids=["underflow", "touch", "interior-zero"])
    def test_crossing_is_a_sign_change_where_the_curves_differ(
            self, thetas, low, high, crossings, bounds):
        est = find_crossings(diamond_table(thetas, low, high), "diamond")
        assert est.crossings == tuple(PairCrossing(3, 5, lo, hi) for lo, hi in crossings)
        assert (est.lower_over_pi, est.upper_over_pi) == bounds

    # two curves at one distance: the error names the field their rows
    # differ in; a theta one curve repeats keeps the grid message
    @pytest.mark.parametrize("field,value,shown", [
        ("family", "zshor", "'random' and 'zshor'"), ("h", 2, "None and 2"),
        ("q_shor", 1.0, "0.5 and 1.0"), ("seed", 1, "0 and 1")])
    def test_several_curves_per_distance_name_the_field(self, field, value, shown):
        table = diamond_table((0.1, 0.2), (0.5, 0.6), (0.4, 0.7))
        other = tuple(dataclasses.replace(row, **{field: value}) for row in table.rows)
        with pytest.raises(ValueError, match=re.escape(
                f"distance 3 has two curves at theta/pi 0.1: {field} {shown}")):
            find_crossings(SweepTable(table.rows + other), "diamond")
        with pytest.raises(ValueError, match="^theta grid must be strictly increasing"):
            find_crossings(SweepTable(table.rows + table.rows), "diamond")

    def test_interior_zero_is_bisected_with_a_source(self):
        # repetition r1 at d=3, 5 ties at pi/2 exactly, a grid point here: the
        # bracket of its neighbours is bisected, and its first midpoint is pi/2
        src = rep_source()
        fn = experiments._metric_fn(src, "r1")
        assert fn(5, 0.5) == fn(3, 0.5)
        est = find_crossings(sweep(src, [0.45, 0.5, 0.55], [3, 5]), "r1", source=src)
        assert est.crossings == (PairCrossing(3, 5, 0.5, 0.5),)

    def test_repetition_diamond_touches_at_half_pi(self):
        # both sides of pi/2 suppress the diamond metric with distance
        src = rep_source()
        fn = experiments._metric_fn(src, "diamond")
        for top in (0.45, 0.55):
            assert fn(9, top) < fn(5, top)
        assert fn(5, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert fn(9, 0.5) == pytest.approx(2.0, abs=1e-12)


class TestSampling:
    def test_sample_matches_exact_within_4_sigma(self):
        code = build_code(family_z_stacked(3, 2))
        theta = 0.2 * math.pi
        dist = syndrome_distribution(code, theta)
        exact_r1 = float(np.sum(dist.p * (1 - np.cos(dist.theta_s)))) / 3
        est = sample_distribution(dist, 10_000, seed=42)
        assert abs(est.mean_r1 - exact_r1) <= 4 * est.r1_stderr

    def test_stderr_scales_with_samples(self):
        code = build_code(family_z_stacked(3, 2))
        dist = syndrome_distribution(code, 0.2 * math.pi)
        ses_n = [sample_distribution(dist, 2000, seed=s).r1_stderr
                 for s in range(8)]
        ses_2n = [sample_distribution(dist, 4000, seed=s).r1_stderr
                  for s in range(8)]
        ratio = np.mean(ses_2n) / np.mean(ses_n)
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.25)

    # X-Shor 5x5 and the random 5x5 code have 21 classes among 2**20
    # syndromes; at theta = 0 only the trivial syndrome has nonzero p
    @pytest.mark.parametrize("make", [
        lambda: syndrome_distribution(build_code(family_rotated_surface(3)), 0.37 * math.pi),
        lambda: syndrome_distribution(build_code(family_z_stacked(3, 2)), 0.2 * math.pi),
        lambda: syndrome_distribution(build_code(family_x_shor(5, 5)), 0.46 * math.pi),
        lambda: syndrome_distribution(build_code(random_coloring(5, 5, 0.9, 2)), 0.3 * math.pi),
        lambda: families.z_stacked_distribution(5, 2, 0.2 * math.pi),
        lambda: syndrome_distribution(build_code(family_rotated_surface(3)), 0.0),
        lambda: families.repetition_distribution(9, 0.4 * math.pi, "ml"),
        lambda: families.z_shor_distribution(3, 7, 0.1 * math.pi),
        lambda: families.x_shor_distribution(5, 5, 0.46 * math.pi),
    ], ids=["rsc3", "zstacked3-h2", "xshor5", "random5-0.9", "zstacked5-h2-family",
            "theta0", "rep9-ml-family", "zshor3x7-family", "xshor5-family"])
    @pytest.mark.parametrize("n_samples", [2, 400, 10_000])
    def test_draws_bit_identical_to_choice(self, make, n_samples):
        dist = make()
        for seed in range(20):
            want_idx, want = sample_distribution_reference(dist, n_samples, seed)
            uniforms = np.random.default_rng(seed).random(n_samples)
            idx = dist.cdf.search(uniforms)
            assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
            assert sample_distribution(dist, n_samples, seed) == want

    def test_peak_is_within_its_sample_bytes(self):
        code = build_code(family_rotated_surface(3))
        # any one-off set-up happens outside, on another distribution: this
        # one's CDF is built by the traced call
        sample_distribution(syndrome_distribution(code, 0.36 * math.pi), 1000, 1)
        dist = syndrome_distribution(code, 0.37 * math.pi)
        tracemalloc.start()
        try:
            sample_distribution(dist, 1 << 16, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the distribution's inverse CDF is a term of the evaluation's bound
        assert peak <= (experiments._SAMPLE_BYTES << 16) + exact._evaluation_bytes(9, 4)

    def test_reads_angles_only_where_it_draws(self):
        backend = exact.get_backend(build_code(family_x_shor(5, 5)))
        dist = backend.distribution(0.46 * math.pi)
        sample_distribution(dist, 400, 1)
        # neither p nor theta_s is kept, and the inverse CDF keeps one entry
        # in 16: the backend's class indices are the one 2**20-entry array
        # that the distribution and its CDF hold
        assert "theta_s" not in vars(dist) and "p" not in vars(dist)
        held = [value for obj in (dist, dist.cdf) for value in vars(obj).values()
                if isinstance(value, np.ndarray)]
        per_syndrome = [value for value in held if value.size == 1 << 20]
        assert per_syndrome and all(value is backend._classes for value in per_syndrome)
        assert max(value.size for value in held if value is not backend._classes) == 1 << 16

    def test_one_gather_of_p_for_every_sampler_at_one_angle(self, monkeypatch):
        # p is gathered a chunk at a time by the one CDF build, never whole
        builds = []
        build = exact.InverseCDF.__init__
        monkeypatch.setattr(exact.InverseCDF, "__init__",
                            lambda cdf, *args: builds.append(cdf) or build(cdf, *args))
        p = exact.AngleDistribution.p
        monkeypatch.setattr(exact.AngleDistribution, "p",
                            property(lambda dist: pytest.fail("p gathered whole")))
        backend = exact.ExactBackend(build_code(family_x_shor(5, 5)))
        estimates = [sample_distribution(backend.distribution(0.46 * math.pi), 400, seed)
                     for seed in range(6)]
        assert len(builds) == 1 and backend.distribution(0.46 * math.pi).cdf is builds[0]
        assert len(set(estimates)) == 6  # each code keeps its own draws
        monkeypatch.setattr(exact.AngleDistribution, "p", p)
        fresh = exact.ExactBackend(build_code(family_x_shor(5, 5)))
        assert estimates == [sample_distribution(fresh.distribution(0.46 * math.pi), 400, seed)
                             for seed in range(6)]

    @pytest.mark.parametrize("p", [[0.5, math.nan, 0.5], [0.5, math.inf], [0.6, -0.1, 0.5],
                                   [0.0, 0.0], [], [1.0, -1.0]])
    def test_bad_probabilities_raise_value_error_like_choice(self, p):
        dist = AngleDistribution(column_p=np.array(p), column_theta_s=np.zeros(len(p)))
        with pytest.raises(ValueError), np.errstate(invalid="ignore", divide="ignore"):
            sample_distribution_reference(dist, 10, 0)
        with pytest.raises(ValueError, match="probabilities"):
            sample_distribution(dist, 10, 0)

    def test_deterministic(self):
        code = build_code(family_z_stacked(3, 2))
        dist = syndrome_distribution(code, 0.2 * math.pi)
        a = sample_distribution(dist, 500, seed=7)
        b = sample_distribution(dist, 500, seed=7)
        assert a == b


class TestEnsemble:
    def test_degenerate_density_zero_variance(self):
        res = ensemble_estimate(3, 3, 0.0, n_codes=5, theta=0.2 * math.pi, seed=1)
        assert res.r1_stderr == 0.0  # all codes are the Z-Shor code
        expect = z_shor_channel(3, 3, 0.2 * math.pi).epsilon / 3
        assert res.mean_r1 == pytest.approx(expect, abs=1e-12)

    def test_endpoint_ordering(self):
        kw = dict(n_codes=3, theta=0.2 * math.pi, seed=5)
        assert (ensemble_estimate(3, 3, 1.0, **kw).mean_r1
                < ensemble_estimate(3, 3, 0.0, **kw).mean_r1)

    def test_bitwise_determinism(self):
        a = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9, n_samples=100)
        b = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9, n_samples=100)
        assert a == b

    def test_jobs_do_not_change_results(self):
        a = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            b = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9, run=pool.map)
        assert a == b


    @pytest.mark.parametrize("q_shor,n_samples", [(0.5, None), (0.5, 30), (0.75, 30)])
    def test_seeds_are_the_spawned_children(self, q_shor, n_samples):
        # code i's seeds are made from (seed, i) alone; they equal the words
        # of SeedSequence(seed).spawn(n_codes)[i], as the codes once got them
        from compasscoh.exact import get_backend
        from compasscoh.ptm import diamond_avg, r1

        def spawned(seed, n_codes):
            r1s, dias = [], []
            for child in np.random.SeedSequence(seed).spawn(n_codes):
                code_seed, sample_seed = (int(x) for x in child.generate_state(2))
                dist = get_backend(build_code(random_coloring(3, 3, q_shor, code_seed))
                                   ).distribution(0.3 * math.pi)
                if n_samples is None:
                    r1s.append(r1(dist.channel()))
                    dias.append(diamond_avg(dist))
                else:
                    est = sample_distribution(dist, n_samples, sample_seed)
                    r1s.append(est.mean_r1)
                    dias.append(est.mean_diamond)
            return r1s, dias

        for seed in (0, 7, 2**40 + 3):
            got = []
            ensemble_estimate(3, 3, q_shor, 24, 0.3 * math.pi, seed, n_samples=n_samples,
                              run=lambda task, indices: got.extend(map(task, indices)) or got)
            assert [list(col) for col in zip(*got)] == list(spawned(seed, 24))

    def test_codes_hold_at_most_their_bytes(self):
        # in-process the results are all a code holds (192 to 202 bytes at
        # 10**4 to 10**5 codes); a pool adds a future per chunk of codes
        kw = dict(theta=0.3 * math.pi, seed=5, n_samples=None)
        ensemble_estimate(3, 3, 1.0, 4, **kw)
        tracemalloc.start()
        try:
            ensemble_estimate(3, 3, 1.0, 5000, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5000 * experiments._CODE_BYTES


class TestInterpolation:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_distance_over_n_rejected_before_any_cell(self, monkeypatch, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was started")
        monkeypatch.setattr(experiments, "ensemble_estimate", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        with pytest.raises(TooLargeError, match=r"^exact backend supports n <= 25, "
                                                r"got n=49 \(d=7\)$"):
            interpolation_curve([3, 7], [0.0, 0.5, 1.0], [0.1], n_codes=2, seed=0, jobs=jobs)

    def test_endpoints_and_monotone_trend(self):
        table, estimates = interpolation_curve(
            [3], [0.0, 0.5, 1.0], [0.2], n_codes=8, seed=3)
        by_q = {row.q_shor: row for row in table.rows}
        assert by_q[0.0].r1 >= by_q[0.5].r1 >= by_q[1.0].r1
        assert estimates == {}  # single distance: no crossings

    def test_endpoint_threshold_estimates(self):
        # q=1 collapses onto the X-Shor code: the sampled d=3 vs d=5 curves
        # cross near pi/2 even at modest sample counts
        _, est1 = interpolation_curve([3, 5], [1.0], [0.42, 0.46, 0.5, 0.54, 0.58],
                                      n_codes=6, seed=11, n_samples=400)
        e = est1[1.0]
        assert not e.one_sided
        assert 0.42 <= e.lower_over_pi <= 0.5 <= e.upper_over_pi <= 0.58
        # q=0 collapses onto Z-Shor, whose vanishing pseudo-threshold sits far
        # below any fixed window: strictly growing with distance, one-sided
        _, est0 = interpolation_curve([3, 5], [0.0], [0.10, 0.12, 0.14],
                                      n_codes=4, seed=11, n_samples=400)
        e = est0[0.0]
        assert e.one_sided
        assert e.upper_over_pi == 0.10 and e.lower_over_pi is None

    def test_distances_may_be_an_iterator(self):
        args = ([0.0, 1.0], [0.3, 0.4], 2, 3)
        got = interpolation_curve(iter([3, 5]), *args, n_samples=50)
        assert got == interpolation_curve([3, 5], *args, n_samples=50)
        assert len(got[0].rows) == 8 and set(got[1]) == {0.0, 1.0}

    def test_one_pool_per_run(self, monkeypatch):
        pools, maps = [], []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                maps.append(self)
                return super().map(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        args = ([3], [0.25, 0.75], [0.2, 0.3])
        kw = dict(n_codes=4, seed=6, n_samples=20)
        pooled, _ = interpolation_curve(*args, **kw, jobs=2)
        assert len(pools) == 1 and maps == pools * 4  # four cells, one pool
        in_process, _ = interpolation_curve(*args, **kw)
        assert len(pools) == 1 and len(maps) == 4
        values = lambda table: [(r.r1, r.r1_stderr, r.diamond, r.diamond_stderr)
                                for r in table.rows]
        assert len(pooled.rows) == 4 and values(pooled) == values(in_process)

    def test_samples_over_budget_rejected_before_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a code was built")
        monkeypatch.setattr(experiments, "build_code", no_build)
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 1000 * experiments._SAMPLE_BYTES)
        with pytest.raises(TooLargeError, match=(
                f"1001 samples hold {1001 * experiments._SAMPLE_BYTES} bytes .*"
                f"budget of {1000 * experiments._SAMPLE_BYTES} bytes")):
            interpolation_curve([3], [0.5], [0.1], n_codes=2, seed=0, n_samples=1001, jobs=2)

    def test_codes_over_budget_rejected_before_seeds(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("the codes were run")
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 10 * experiments._CODE_BYTES - 1)
        monkeypatch.setattr(np.random, "SeedSequence", no_run)
        with pytest.raises(TooLargeError, match=f"10 codes hold {10 * experiments._CODE_BYTES} "):
            experiments.ensemble_estimate(3, 3, 0.5, 10, 0.3, seed=0, n_samples=2, run=no_run)

    def test_includes_rsc_coloring_at_half(self):
        # the checkerboard is a realizable q=1/2 coloring (seed 29 draws it)
        from compasscoh import family_rotated_surface, random_coloring
        assert random_coloring(3, 3, 0.5, 29) == family_rotated_surface(3)
        table, _ = interpolation_curve([3], [0.5], [0.1], n_codes=4, seed=0,
                                       n_samples=64)
        assert all(row.q_shor == 0.5 for row in table.rows)
        assert all(row.n_samples == 64 for row in table.rows)


class TestSerialization:
    def _table(self):
        return sweep(rep_source(), [0.2, 0.3], [3, 5])

    def test_csv_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "sweep.csv"
        write_csv(table, path, config={"tool": "test"})
        back = read_csv(path)
        assert back.rows == table.rows

    def test_csv_header_and_config_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(self._table(), path, config={"a": 1})
        lines = path.read_text().splitlines()
        assert lines[0] == '# {"a": 1}'
        assert lines[1] == ",".join(CSV_COLUMNS)

    def test_csv_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(self._table(), p1, config={"a": 1})
        write_csv(self._table(), p2, config={"a": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirrors_csv_columns(self):
        import json
        payload = json.loads(table_to_json(self._table(), config={"x": 2}))
        assert payload["config"] == {"x": 2}
        assert set(payload["rows"][0]) == set(CSV_COLUMNS)

    def test_source_reconstruction(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(self._table(), path)
        src = source_for_rows(read_csv(path))
        assert isinstance(src, AnalyticFamilySource)
        assert src.family == "repetition"

    def test_exact_rows_round_trip(self, tmp_path):
        src = CodeSource("rsc", lambda l: build_code(family_rotated_surface(l)))
        table = sweep(src, [0.1, 0.2], [3])
        assert table.rows[0].h is None and isinstance(table.rows[0].q_shor, float)
        path = tmp_path / "exact.csv"
        write_csv(table, path)
        assert read_csv(path).rows == table.rows

    def test_sampled_rows_round_trip(self, tmp_path):
        src = EnsembleSource(0.5, n_codes=3, seed=1, n_samples=32)
        table = sweep(src, [0.2], [3])
        path = tmp_path / "s.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.rows[0].r1 == table.rows[0].r1
        assert back.rows[0].n_samples == 32
        assert math.isnan(back.rows[0].kappa)
        assert source_for_rows(back) is None
