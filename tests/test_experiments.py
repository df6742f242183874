import math

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
from compasscoh import experiments, families
from compasscoh.families import AngleDistribution, repetition_exact
from compasscoh import family_z_stacked

from oracles import sample_distribution_reference


def rep_source():
    return AnalyticFamilySource("repetition")


class TestAnalyticFamilySource:
    @pytest.mark.parametrize("family,h", [("xshor", None), ("zstacked", 2)])
    def test_rejects_ml_without_ml_form(self, family, h):
        with pytest.raises(ValueError, match="no maximum-likelihood form"):
            AnalyticFamilySource(family, "ml", h)

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
        assert src.metric_fn("r1")(3, 0.15) == row.r1
        assert src.metric_fn("diamond")(3, 0.15) == row.diamond

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(rep_source(), [], [3])


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
        fn = src.metric_fn("r1")
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
        # the repetition diamond only touches 2 at pi/2 (no sign change), so
        # exercise the diamond path on a synthetic sampled table instead
        def row(d, top, dia):
            return SweepRow(family="random", dx=d, dz=d, h=None, q_shor=0.5,
                            seed=0, theta_over_pi=top, provenance="sampled",
                            epsilon=0.0, delta=0.0, kappa=0.0, r1=0.0,
                            r1_stderr=None, diamond=dia, diamond_stderr=None,
                            n_codes=4, n_samples=16)
        table = SweepTable((row(3, 0.2, 0.5), row(3, 0.3, 0.6),
                            row(5, 0.2, 0.4), row(5, 0.3, 0.7)))
        est = find_crossings(table, "diamond")
        assert not est.one_sided
        assert est.crossings == (PairCrossing(3, 5, 0.2, 0.3),)

    def test_repetition_diamond_touches_at_half_pi(self):
        # both sides of pi/2 suppress the diamond metric with distance
        src = rep_source()
        fn = src.metric_fn("diamond")
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
    # syndromes; at theta = 0 only the trivial syndrome is kept
    @pytest.mark.parametrize("make", [
        lambda: syndrome_distribution(build_code(family_rotated_surface(3)), 0.37 * math.pi),
        lambda: syndrome_distribution(build_code(family_z_stacked(3, 2)), 0.2 * math.pi),
        lambda: syndrome_distribution(build_code(family_x_shor(5, 5)), 0.46 * math.pi),
        lambda: syndrome_distribution(build_code(random_coloring(5, 5, 0.9, 2)), 0.3 * math.pi),
        lambda: families.z_stacked_distribution(5, 2, 0.2 * math.pi),
        lambda: syndrome_distribution(build_code(family_rotated_surface(3)), 0.0),
    ], ids=["rsc3", "zstacked3-h2", "xshor5", "random5-0.9", "zstacked5-h2-family",
            "theta0"])
    @pytest.mark.parametrize("n_samples", [2, 400, 10_000])
    def test_draws_bit_identical_to_choice(self, make, n_samples):
        dist = make()
        for seed in range(20):
            want_idx, want = sample_distribution_reference(dist, n_samples, seed)
            idx = experiments._draw(dist.p, n_samples, np.random.default_rng(seed))
            assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
            assert sample_distribution(dist, n_samples, seed) == want

    def test_reads_angles_only_where_it_draws(self):
        dist = syndrome_distribution(build_code(family_x_shor(5, 5)), 0.46 * math.pi)
        sample_distribution(dist, 400, 1)
        assert "theta_s" not in vars(dist)  # the 2**20-entry array is never gathered

    @pytest.mark.parametrize("p", [[0.5, math.nan, 0.5], [0.5, math.inf], [0.6, -0.1, 0.5],
                                   [0.0, 0.0], [], [1.0, -1.0]])
    def test_bad_probabilities_raise_value_error_like_choice(self, p):
        dist = AngleDistribution(theta=0.0, p=np.array(p), theta_s=np.zeros(len(p)))
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
        a = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9, jobs=1)
        b = ensemble_estimate(3, 3, 0.5, 6, 0.2 * math.pi, seed=9, jobs=2)
        assert a == b

    def test_shot_component_reported(self):
        res = ensemble_estimate(3, 3, 0.5, 4, 0.2 * math.pi, seed=2, n_samples=50)
        assert res.shot_r1_variance > 0
        exact = ensemble_estimate(3, 3, 0.5, 4, 0.2 * math.pi, seed=2)
        assert exact.shot_r1_variance == 0.0


class TestInterpolation:
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
