import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from compasscoh import (Coloring, InvalidCodeError, TooLargeError, _kernels,
                        build_code, build_matching_graph, decoder, diamond_avg, exact,
                        experiments, family_rotated_surface, family_x_shor, family_z_shor,
                        family_z_stacked, gf2, logical_channel, random_coloring,
                        sample_distribution, syndrome_distribution, x_shor_channel)
from compasscoh.cli import main
from compasscoh.exact import AngleDistribution, ExactBackend, get_backend, reduce_angle
from compasscoh.families import x_shor_distribution

from oracles import (channel_reference, count_table_reference,
                     coset_count_table_reference, diamond_reference, inverse_cdf_reference,
                     per_syndrome_backend, sample_distribution_reference,
                     statevector_channel, statevector_distribution)

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_CODES = [
    Coloring(1, 1, ()),
    Coloring(1, 3, ()),
    Coloring(3, 1, ()),
    family_z_shor(3, 3),
    family_x_shor(3, 3),
    family_rotated_surface(3),
    family_z_stacked(3, 2),
]


class TestAgainstStatevectorOracle:
    @pytest.mark.parametrize("coloring", SMALL_CODES)
    @pytest.mark.parametrize("theta", [0.1 * math.pi, 0.3 * math.pi, -0.25 * math.pi])
    def test_distribution_matches(self, coloring, theta):
        code = build_code(coloring)
        dist = syndrome_distribution(code, theta)
        oracle = statevector_distribution(code, theta)
        assert len(dist) == len(oracle)
        for s, p, theta_s in zip(dist.syndromes, dist.p, dist.theta_s):
            p_o, th_o, _, _ = oracle[int(s)]
            assert p == pytest.approx(p_o, abs=1e-12)
            assert theta_s == pytest.approx(th_o, abs=1e-12)

    @pytest.mark.parametrize("coloring", SMALL_CODES)
    def test_ml_channel_matches(self, coloring):
        code = build_code(coloring)
        theta = 0.35 * math.pi
        ch = logical_channel(code, theta, "ml")
        eps_o, delta_o = statevector_channel(code, theta, "ml")
        assert ch.epsilon == pytest.approx(eps_o, abs=1e-12)
        assert ch.delta == pytest.approx(delta_o, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_3x3_codes(self, seed):
        code = build_code(random_coloring(3, 3, 0.5, seed))
        theta = 0.22 * math.pi
        ch = logical_channel(code, theta)
        eps_o, delta_o = statevector_channel(code, theta)
        assert ch.epsilon == pytest.approx(eps_o, abs=1e-12)
        assert ch.delta == pytest.approx(delta_o, abs=1e-12)


class TestKnownChannels:
    def test_single_qubit_is_physical_rotation(self):
        code = build_code(Coloring(1, 1, ()))
        for theta in [0.0, 0.17 * math.pi, 0.45 * math.pi, -0.3 * math.pi]:
            dist = syndrome_distribution(code, theta)
            assert len(dist) == 1
            assert dist.p[0] == pytest.approx(1.0, abs=1e-15)
            assert dist.theta_s[0] == pytest.approx(theta, abs=1e-15)
            ch = logical_channel(code, theta)
            assert ch.epsilon == pytest.approx(1 - math.cos(theta), abs=1e-15)
            assert ch.delta == pytest.approx(math.sin(theta), abs=1e-15)

    def test_theta_zero_identity(self):
        # every syndrome is an entry; only the trivial one has nonzero p
        code = build_code(family_rotated_surface(3))
        dist = syndrome_distribution(code, 0.0)
        assert len(dist) == 1 << len(code.x_stabilizers) == 16
        assert np.flatnonzero(dist.p).tolist() == [0]
        assert dist.p[0] == 1.0 and dist.theta_s[0] == 0.0
        ch = logical_channel(code, 0.0)
        assert ch.epsilon == 0.0 and ch.delta == 0.0

    def test_repetition3_class_structure(self):
        """p_w = c^(2(l-w)) s^(2w) + c^(2w) s^(2(l-w)) with multiplicity C(3, w)."""
        theta = 0.3 * math.pi
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        dist = syndrome_distribution(build_code(Coloring(1, 3, ())), theta)
        p0 = c ** 6 + s ** 6
        p1 = c ** 4 * s ** 2 + c ** 2 * s ** 4
        probs = sorted(float(x) for x in dist.p)
        assert probs == pytest.approx(sorted([p0, p1, p1, p1]), abs=1e-15)

    def test_z_shor_zipping_entry_by_entry(self):
        """Z-Shor 3x3 at theta == repetition 3 at 3*theta, same syndromes."""
        theta = 0.1 * math.pi
        z33 = syndrome_distribution(build_code(family_z_shor(3, 3)), theta)
        rep = syndrome_distribution(build_code(Coloring(1, 3, ())), 3 * theta)
        assert np.array_equal(z33.syndromes, rep.syndromes)
        np.testing.assert_allclose(z33.p, rep.p, atol=1e-12)
        np.testing.assert_allclose(z33.theta_s, rep.theta_s, atol=1e-12)

    def test_single_column_code_zips_fully(self):
        """A d_x x 1 code has one (empty) syndrome and logical angle d_x*theta."""
        code = build_code(Coloring(3, 1, ()))
        theta = 0.12 * math.pi
        dist = syndrome_distribution(code, theta)
        assert len(dist) == 1
        assert dist.theta_s[0] == pytest.approx(reduce_angle(3 * theta), abs=1e-14)


class TestInvariants:
    @pytest.mark.parametrize("coloring", SMALL_CODES)
    @pytest.mark.parametrize("theta", [0.05 * math.pi, 0.3 * math.pi, 0.49 * math.pi])
    def test_normalization(self, coloring, theta):
        dist = syndrome_distribution(build_code(coloring), theta)
        assert float(np.sum(dist.p)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.p >= 0)

    @pytest.mark.parametrize("coloring", SMALL_CODES)
    def test_parity_symmetry(self, coloring):
        code = build_code(coloring)
        for theta in [0.21 * math.pi, 0.4 * math.pi]:
            plus = logical_channel(code, theta)
            minus = logical_channel(code, -theta)
            assert plus.epsilon == pytest.approx(minus.epsilon, abs=1e-14)
            assert plus.delta == pytest.approx(-minus.delta, abs=1e-14)

    @pytest.mark.parametrize("coloring", SMALL_CODES)
    def test_amplitude_ratio_purely_imaginary(self, coloring):
        """The identity/logical amplitude pair is I-phase vs Z-phase split."""
        dist = syndrome_distribution(build_code(coloring), 0.3 * math.pi)
        for odd, amp_identity, amp_logical in zip(
                *map(dist.gather, (dist.column_parity, dist.column_amp_identity,
                                   dist.column_amp_logical))):
            # phases (-i)**parity, (-i)**(1 - parity)
            a0 = (-1.0j if odd else 1.0) * float(amp_identity)
            a1 = (1.0 if odd else -1.0j) * float(amp_logical)
            prod = a1 * np.conj(a0)
            assert abs(prod.real) <= 1e-12 * max(abs(a0) * abs(a1), 1e-30)

    def test_coarse_graining_invariance(self):
        """Merging equal-(p, theta_s) syndromes leaves (eps, delta) unchanged."""
        code = build_code(family_z_shor(3, 5))
        theta = 0.07 * math.pi
        dist = syndrome_distribution(code, theta)
        merged: dict[tuple, float] = {}
        for p, theta_s in zip(dist.p.tolist(), dist.theta_s.tolist()):
            key = (round(p, 14), round(theta_s, 14))
            merged[key] = merged.get(key, 0.0) + p
        assert len(merged) < len(dist)
        # recompute from merged classes using the class angle
        eps_m = sum(p_tot * (1 - math.cos(ts)) for (p, ts), p_tot in merged.items())
        delta_m = sum(p_tot * math.sin(ts) for (p, ts), p_tot in merged.items())
        ch = logical_channel(code, theta)
        assert eps_m == pytest.approx(ch.epsilon, abs=1e-12)
        assert delta_m == pytest.approx(ch.delta, abs=1e-12)

    def test_ml_never_worse_per_syndrome(self):
        """Above theta = pi/6 the zipped Z-Shor 3x3 angle passes pi/2 and the
        min-weight recovery picks the smaller-amplitude coset on some
        syndromes; ML fixes exactly those."""
        code = build_code(family_z_shor(3, 3))
        for theta_over_pi in [0.10, 0.17, 0.2, 0.3]:
            theta = theta_over_pi * math.pi
            mw = syndrome_distribution(code, theta, "minweight")
            ml = syndrome_distribution(code, theta, "ml")
            assert np.array_equal(mw.syndromes, ml.syndromes)
            infid_mw = 1 - np.cos(mw.theta_s)
            infid_ml = 1 - np.cos(ml.theta_s)
            assert np.all(infid_ml <= infid_mw + 1e-14)
            if theta_over_pi < 1 / 6:
                np.testing.assert_allclose(infid_ml, infid_mw, atol=1e-14)
            else:
                assert np.any(infid_ml < infid_mw - 1e-6)


class TestGuards:
    def test_too_large_rejected(self):
        with pytest.raises(TooLargeError):
            ExactBackend(build_code(family_z_shor(3, 9)))  # 27 qubits

    def test_table_over_budget_rejected_before_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("count table built")
        monkeypatch.setattr(_kernels, "count_table", no_build)
        # the 1x25 grid (2**24 syndromes) is bounded by 0.11 GB, within the
        # budget but over 64 MiB
        grid = build_code(family_z_shor(1, 25))
        held = exact._held_bytes(25, [s.mask for s in grid.x_stabilizers])
        assert 64 << 20 < held <= exact.MAX_HELD_BYTES
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 64 << 20)
        with pytest.raises(TooLargeError, match=r"n=25, r=24 holds \d+ bytes"):
            ExactBackend(build_code(family_z_shor(1, 25)))

    def test_n_refused_before_the_byte_estimate(self, monkeypatch):
        # RSC 171's byte count has over 4,300 digits: it must never be made
        monkeypatch.setattr(exact, "_held_bytes", lambda *args: pytest.fail("bytes estimated"))
        fake = type("Code", (), {"n": 29241, "x_stabilizers": [None] * 14620})()
        with pytest.raises(TooLargeError) as info:
            ExactBackend(fake)
        assert str(info.value) == "exact backend supports n <= 25, got n=29241, r=14620"

    def test_one_qubit_bound(self):
        assert exact.MAX_QUBITS is _kernels.MAX_QUBITS == 25
        exact.check_qubits(25)
        with pytest.raises(TooLargeError, match=r"^exact backend supports n <= 25, got n=26 x$"):
            exact.check_qubits(26, " x")

    def test_budget_message_and_edge(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 100)  # read at call time
        exact.check_budget(100, "never")
        with pytest.raises(TooLargeError) as info:
            exact.check_budget(101, "7 things hold", " (13 a thing)")
        assert str(info.value) == ("7 things hold 101 bytes (13 a thing), "
                                   "over the budget of 100 bytes")
        with pytest.raises(TooLargeError, match="^it holds 101 bytes, over the budget of 100"):
            exact.check_budget(101, "it holds")

    def test_mixed_weight_parity_rows_rejected(self, monkeypatch):
        # without its second check the all-ones support plus Xbar leaves
        # span(checks); rejected before the count table is built
        def no_build(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(_kernels, "count_table", no_build)
        code = build_code(Coloring(1, 3, ()))
        broken = dataclasses.replace(code, x_stabilizers=code.x_stabilizers[:1])
        with pytest.raises(InvalidCodeError, match="both weight parities"):
            ExactBackend(broken)

    # channel(0.37 pi) of each code, (minweight, ml), as the decoder's
    # minimum weights once gave it
    @pytest.mark.parametrize("coloring,want", [
        (family_x_shor(5, 5), [(1.0323593276746839, 0.18160407102231746),
                               (0.3595083567160919, 0.10500478673119168)]),
        (family_rotated_surface(5), [(0.8446447898168556, -0.04449871466783146),
                                     (0.36594148926260894, 0.0221827131978743)]),
        (random_coloring(3, 3, 0.5, 1), [(1.7075359346724321, -0.15685066981262774),
                                         (0.059119231045774705, 1.6653345369377348e-16)])])
    def test_build_runs_no_decoder(self, monkeypatch, coloring, want):
        # the recovery parity is read off the count rows
        def no_decoder(*args):
            raise AssertionError("the decoder ran")
        monkeypatch.setattr(decoder, "MatchingGraph", no_decoder)
        monkeypatch.setattr(decoder, "_min_weight_keys", no_decoder)
        backend = ExactBackend(build_code(coloring))
        for recovery, (eps, delta) in zip(("minweight", "ml"), want):
            ch = backend.channel(0.37 * math.pi, recovery)
            assert (repr(ch.epsilon), repr(ch.delta)) == (repr(eps), repr(delta)), recovery

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        code = build_code(family_rotated_surface(3))
        with pytest.raises(ValueError, match=f"angle must be finite, got {theta!r}"):
            reduce_angle(theta)
        with pytest.raises(ValueError, match="angle must be finite"):
            logical_channel(code, theta)

    def test_bad_recovery_rejected(self):
        code = build_code(Coloring(1, 3, ()))
        with pytest.raises(ValueError):
            syndrome_distribution(code, 0.1, "majority")

    def test_backend_cache_reuses(self):
        code = build_code(family_rotated_surface(3))
        assert get_backend(code) is get_backend(code)


@pytest.mark.parametrize("coloring", [
    Coloring(1, 3, ()), family_rotated_surface(3), family_x_shor(3, 3), family_z_shor(3, 3),
    family_z_stacked(3, 2), family_z_stacked(5, 2),
    *(random_coloring(3, 5, q, seed) for q in (0.25, 0.5, 0.9) for seed in range(2))])
def test_cosets_are_the_even_and_odd_weight_supports(coloring):
    # the backend reads a syndrome's two logical-X cosets off its row of the
    # checks alone as its even- and odd-weight supports
    code = build_code(coloring)
    n, masks = code.n, [s.mask for s in code.x_stabilizers]
    assert gf2.in_span(((1 << n) - 1) ^ code.logical_x.mask, gf2.reduce_basis(masks))
    cosets = coset_count_table_reference(n, masks, code.logical_x.mask)
    odd = np.arange(n + 1) % 2 == 1
    holds_even, holds_odd = cosets[..., ~odd].any(axis=-1), cosets[..., odd].any(axis=-1)
    # each coset holds one weight parity, the two of a syndrome opposite ones
    assert np.all(holds_even != holds_odd)
    assert np.all(holds_even[:, 0] != holds_even[:, 1])
    assert np.array_equal(cosets.sum(axis=1), count_table_reference(n, masks))


def test_channel_consistency_with_distribution():
    code = build_code(random_coloring(3, 5, 0.6, 3))
    theta = 0.18 * math.pi
    dist = syndrome_distribution(code, theta)
    ch = logical_channel(code, theta)
    eps = float(np.sum(dist.p * (1 - np.cos(dist.theta_s))))
    delta = float(np.sum(dist.p * np.sin(dist.theta_s)))
    assert ch.epsilon == pytest.approx(eps, abs=1e-12)
    assert ch.delta == pytest.approx(delta, abs=1e-12)


def _python_amplitudes(code, theta):
    """Identity and logical coset amplitudes of every syndrome, each a plain
    Python sum of count * weight term over ascending weight."""
    n = code.n
    masks = [s.mask for s in code.x_stabilizers]
    counts = coset_count_table_reference(n, masks, code.logical_x.mask)
    graph = build_matching_graph(code)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    wvec = [(-1.0) ** (w // 2) * c ** (n - w) * s ** w for w in range(n + 1)]
    out = []
    for syndrome in range(1 << len(masks)):
        _, correction = graph.match(syndrome)
        coset = (correction & code.logical_x.mask).bit_count() & 1
        pair = []
        for b in (coset, 1 - coset):
            acc = 0.0
            for w in range(n + 1):
                acc += int(counts[syndrome, b, w]) * wvec[w]
            pair.append(acc)
        out.append(pair)
    return np.array(out).T


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("theta_over_pi", [0.01, 0.37, 0.5, 1.0])
@pytest.mark.parametrize("coloring", [family_rotated_surface(3), family_x_shor(3, 3),
                                      random_coloring(3, 5, 0.5, 4)])
def test_amplitudes_bit_exact_against_ascending_python_sum(
        monkeypatch, coloring, theta_over_pi, blocked):
    if blocked:  # several sum blocks, the last one short on two of the codes
        monkeypatch.setattr(exact, "_SUM_BLOCK", 3)
    code = build_code(coloring)
    theta = reduce_angle(theta_over_pi * math.pi)
    backend = ExactBackend(code)
    s_id, s_log = backend._amplitudes(theta)
    assert not blocked or backend._table.shape[-1] > 3
    ref_id, ref_log = _python_amplitudes(code, theta)
    classes = backend._classes  # the columns are classes: read each syndrome's
    assert np.array_equal(s_id[classes], ref_id) and np.array_equal(s_log[classes], ref_log)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_same_distributions(backend, ref, thetas_over_pi):
    for theta_over_pi in thetas_over_pi:
        for recovery in ("minweight", "ml"):
            got = _per_syndrome_arrays(backend.distribution(theta_over_pi * math.pi, recovery))
            want = _per_syndrome_arrays(ref.distribution(theta_over_pi * math.pi, recovery))
            for name, a in got.items():
                b = want[name]
                assert a.dtype == b.dtype and np.array_equal(a, b), (
                    theta_over_pi, recovery, name)


def _assert_same_classes(backend, ref):
    """Each syndrome's class holds its column and recovery parity, there is
    one class for each distinct column, and the class indices are in the
    smallest unsigned dtype: what ``count_table`` promises, whatever its
    class numbering."""
    assert np.array_equal(backend._table[..., backend._classes], ref._table)
    assert np.array_equal(backend._parity[backend._classes], ref._parity)
    # one void item per column, so np.unique compares whole columns at once
    columns = np.ascontiguousarray(ref._table.reshape(-1, ref._table.shape[-1]).T)
    distinct = len(np.unique(columns.view(np.dtype((np.void, columns[0].nbytes)))))
    assert backend._table.shape[-1] == distinct
    assert backend._classes.dtype == np.min_scalar_type(distinct - 1)


def _permuted(rows, classes):
    """``count_table``'s class rows permuted and its class indices remapped
    to match, in their own dtype: the same full table under another class
    numbering."""
    perm = np.random.default_rng(len(rows)).permutation(len(rows))
    renumber = np.empty_like(perm)
    renumber[perm] = np.arange(len(perm))
    assert not np.array_equal(perm, np.arange(len(perm)))
    return rows[perm], renumber[classes].astype(classes.dtype)


class TestColumnClasses:
    """The backend keeps one table column per class of syndromes with equal
    count column, which also fixes their recovery parity."""

    @pytest.mark.parametrize("coloring", [family_x_shor(5, 5), random_coloring(5, 5, 0.9, 2)])
    def test_bit_exact_at_full_size(self, coloring):
        code = build_code(coloring)
        backend = ExactBackend(code)
        assert backend.num_checks == 20 and backend._table.shape[-1] == 21
        ref = per_syndrome_backend(code)
        _assert_same_classes(backend, ref)
        _assert_same_distributions(backend, ref, [0.0, 0.01, 0.37, 0.5, 1.0])

    # X-Shor 5x5 takes the factored build, RSC 5x5 the dual
    @pytest.mark.parametrize("coloring", [family_x_shor(5, 5), family_rotated_surface(5)])
    def test_class_numbering_is_not_observable(self, monkeypatch, coloring):
        code = build_code(coloring)
        backend = ExactBackend(code)
        count_table = _kernels.count_table
        monkeypatch.setattr(_kernels, "count_table",
                            lambda n, masks: _permuted(*count_table(n, masks)))
        permuted = ExactBackend(code)
        assert not np.array_equal(permuted._classes, backend._classes)
        for theta_over_pi in (0.0, 0.37, 0.5):
            for recovery in ("minweight", "ml"):
                want, got = (each.distribution(theta_over_pi * math.pi, recovery)
                             for each in (backend, permuted))
                for name in ("syndromes", "p", "theta_s"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                assert got.cdf.stride == want.cdf.stride
                assert got.cdf.ends.tobytes() == want.cdf.ends.tobytes()
                uniforms = np.random.default_rng(1).random(10_000)
                assert np.array_equal(got.cdf.search(uniforms), want.cdf.search(uniforms))
                assert got.channel() == want.channel()
                assert diamond_avg(got) == diamond_avg(want)
                assert sample_distribution(got, 400, 1) == sample_distribution(want, 400, 1)

    def test_rsc5_holds_fewer_columns_than_syndromes(self):
        backend = ExactBackend(build_code(family_rotated_surface(5)))
        assert backend._table.shape[-1] == 645 < 1 << backend.num_checks == 4096
        assert backend._classes.dtype == np.uint16

    # X-Shor 5x5 (n=25, r=20) and the two random 5x5 codes (r=18) take the
    # factored build, RSC 5x5 and Z-stacked 5x5 h=2 (r=12) the dual, the
    # 1x21 grid (r=20) the coset build
    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), family_rotated_surface(5), family_rotated_surface(3),
        family_z_shor(3, 3), family_x_shor(3, 3), family_z_stacked(3, 2),
        random_coloring(3, 3, 0.5, 1), family_z_stacked(5, 2),
        random_coloring(5, 5, 0.75, 3), random_coloring(5, 5, 0.9, 5),
        *(family_z_shor(1, l) for l in range(1, 22, 2))])
    def test_build_peak_is_within_its_held_bytes(self, coloring):
        code = build_code(coloring)
        ExactBackend(build_code(family_x_shor(3, 3)))  # one-off set-up happens outside
        peak = _traced_peak(lambda: ExactBackend(code))
        n, masks = code.n, [s.mask for s in code.x_stabilizers]
        assert peak <= exact._held_bytes(n, masks) - exact._evaluation_bytes(n, len(masks))

    def test_xshor5_build_peak_is_bounded(self):
        code = build_code(family_x_shor(5, 5))
        ExactBackend(build_code(family_x_shor(3, 3)))  # one-off set-up happens outside
        peak = _traced_peak(lambda: ExactBackend(code))
        # the factored build's blocks and a uint8 class index per syndrome
        # (3.7 MB in all); neither a decode table (1 MB of uint8 weights or
        # 8 MB of int64 keys) nor the whole count table (26 MB) is held
        assert peak < 8 << 20

    # blocks of a few syndromes for the small codes; X-Shor 4x5 takes the
    # coset build and has 2**16 syndromes in blocks of 97
    @pytest.mark.parametrize("coloring,block", [
        (family_rotated_surface(3), 80), (family_x_shor(3, 3), 80),
        (random_coloring(3, 5, 0.5, 4), 80), (family_x_shor(4, 5), 1 << 12)])
    def test_colliding_keys_are_split_by_the_check(self, monkeypatch, coloring, block):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        code = build_code(coloring)
        ref = per_syndrome_backend(code)
        pairs = np.vstack([ref._table.reshape(-1, ref._table.shape[-1]), ref._parity])
        distinct = np.unique(pairs, axis=1).shape[1]
        backend = ExactBackend(code)
        assert backend._table.shape[-1] == distinct < pairs.shape[1]
        _assert_same_classes(backend, ref)
        monkeypatch.setattr(_kernels, "_HASH_MULT", np.uint64(0))  # every key 0
        backend = ExactBackend(code)
        assert backend._table.shape[-1] > distinct
        assert np.array_equal(backend._table[..., backend._classes], ref._table)
        assert np.array_equal(backend._parity[backend._classes], ref._parity)
        _assert_same_distributions(backend, ref, [0.0, 0.37])

    @pytest.mark.parametrize("mult,count", [
        (None, 4),
        (0, 6),  # every key 0: each syndrome unlike 0 is a stray
        # the key is the low bit of the row's middle entry: only c's differs
        (1 << 63, 6)])
    def test_colliding_rows_stay_apart(self, monkeypatch, mult, count):
        # rows of real codes collide only under a synthetic hash
        collide = mult is not None
        if collide:
            monkeypatch.setattr(_kernels, "_HASH_MULT", np.uint64(mult))
        a, b, c, d = [1, 1, 0], [0, 1, 1], [1, 2, 0], [0, 1, 0]
        counts = np.array([a, d, a, b, d, a, b, c], np.uint8)
        blocks = [counts[i:i + 3] for i in range(0, len(counts), 3)]  # blocks of 3
        rows, classes = _kernels._group(iter(blocks), len(counts))
        assert classes[0] == classes[2] == classes[5]
        assert len({classes[0], classes[1], classes[3], classes[7]}) == 4
        # a syndrome that fails the check against its class becomes a class of its own
        assert (classes[1] == classes[4]) != collide and (classes[3] == classes[6]) != collide
        assert len(rows) == count and classes.dtype == np.uint8
        assert np.array_equal(np.unique(classes), np.arange(count))  # every class is used
        assert np.array_equal(rows[classes], counts)

    @pytest.mark.parametrize("theta_over_pi", [0.02, 0.1, 0.37, 0.46, 0.5, 0.75])
    def test_xshor5_matches_closed_form(self, theta_over_pi):
        theta = theta_over_pi * math.pi
        dist = get_backend(build_code(family_x_shor(5, 5))).distribution(theta)
        ch, ref = dist.channel(), x_shor_channel(5, 5, theta)
        assert abs(ch.epsilon - ref.epsilon) <= 1e-12
        assert abs(ch.delta - ref.delta) <= 1e-12
        assert abs(diamond_avg(dist) - diamond_avg(x_shor_distribution(5, 5, theta))) <= 1e-10


def _per_syndrome_arrays(dist):
    """Every per-syndrome array of ``dist``, each read once."""
    return {"syndromes": dist.syndromes, "p": dist.p, "theta_s": dist.theta_s,
            **{name: dist.gather(getattr(dist, "column_" + name))
               for name in ("amp_identity", "amp_logical", "parity")}}


def _eager_arrays(backend, dist):
    """The per-syndrome arrays as ``distribution`` once built them eagerly:
    every syndrome, then one take of the backend's classes per column array."""
    arrays = (dist.column_p, dist.column_theta_s, dist.column_amp_identity,
              dist.column_amp_logical, dist.column_parity)
    syndromes = np.arange(len(backend._classes), dtype=np.uint32)
    arrays = tuple(a.take(backend._classes) for a in arrays)
    names = ("syndromes", "p", "theta_s", "amp_identity", "amp_logical", "parity")
    return dict(zip(names, (syndromes, *arrays)))


class TestLazyArrays:
    """Per-syndrome arrays are gathered from the class values when read, and
    never kept."""

    # at full size and with blocks of 4; at theta = 0 and pi some syndromes
    # have probability 0 and stay entries
    @pytest.mark.parametrize("coloring,block", [
        (family_x_shor(5, 5), None), (family_rotated_surface(3), None),
        (family_rotated_surface(3), 4), (random_coloring(3, 5, 0.5, 4), None),
        (random_coloring(3, 5, 0.5, 4), 4)])
    def test_equal_to_eager_gathers(self, monkeypatch, coloring, block):
        if block is not None:
            monkeypatch.setattr(exact, "_SUM_BLOCK", block)
        backend = ExactBackend(build_code(coloring))
        rng = np.random.default_rng(0)
        for theta_over_pi in (0.0, 0.37, 1.0):
            for recovery in ("minweight", "ml"):
                dist = backend.distribution(theta_over_pi * math.pi, recovery)
                want = _eager_arrays(backend, dist)
                assert len(dist) == len(want["p"]) == 1 << backend.num_checks
                idx = rng.integers(len(dist), size=50)
                assert np.array_equal(dist.gather(dist.column_theta_s, idx),
                                      want["theta_s"][idx])
                for name, got in _per_syndrome_arrays(dist).items():
                    array = want[name]
                    assert got.dtype == array.dtype and np.array_equal(got, array), (
                        theta_over_pi, recovery, name)
                # each read gathers afresh: writing to one leaves the next intact
                for name in ("syndromes", "p", "theta_s"):
                    getattr(dist, name)[:] = 0
                    assert np.array_equal(getattr(dist, name), want[name]), name

    def test_xshor5_distribution_allocates_no_per_syndrome_array(self):
        backend = get_backend(build_code(family_x_shor(5, 5)))
        # any one-off set-up happens outside, at another angle, which the
        # backend would otherwise hand back without evaluating
        backend.distribution(0.45 * math.pi)
        # every syndrome is kept; a per-syndrome float64 array is 8 MiB
        assert _traced_peak(lambda: backend.distribution(0.46 * math.pi)) < 1 << 20

    def test_xshor5_channel_peaks_at_one_leaf(self):
        backend = get_backend(build_code(family_x_shor(5, 5)))
        backend.channel(0.36 * math.pi)
        # one leaf of 2**15 gathered syndromes and their intp class indices
        # (512 KiB) at a time; a float64 gather of all 2**20 is 8 MiB
        assert _traced_peak(lambda: backend.channel(0.37 * math.pi)) < 1 << 20

    def test_rsc5_evaluation_holds_no_float_copy_of_the_table(self):
        backend = get_backend(build_code(family_rotated_surface(5)))
        backend.channel(0.36 * math.pi)
        # the terms of 645 classes x 2 x 13 weights take 134 KB; a float64
        # copy of the uint16 table beside them took the peak to 270 KB
        assert _traced_peak(lambda: backend.channel(0.37 * math.pi)) < 240_000

    # X-Shor 5x5 has syndromes of probability 0 at theta = 0 and pi; RSC
    # 5x5 has 645 classes among 4,096 syndromes.  At small r the fixed
    # per-call term dominates: RSC 3x3 peaks near 5 KB against 1.6 KB of
    # per-syndrome terms, and the Lx1 grids have a single syndrome.
    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), family_rotated_surface(5), family_rotated_surface(3),
        family_z_shor(3, 3), family_x_shor(3, 3), family_z_stacked(3, 2),
        random_coloring(3, 3, 0.5, 1), family_z_shor(21, 1),
        *(family_z_shor(1, l) for l in range(1, 22, 2))])
    def test_evaluation_peak_is_within_its_held_bytes(self, coloring):
        backend = get_backend(build_code(coloring))

        def evaluate(theta, recovery):
            dist = backend.distribution(theta, recovery)
            dist.channel()
            diamond_avg(dist)

        evaluate(0.37 * math.pi, "ml")  # any one-off set-up happens outside
        bound = exact._evaluation_bytes(backend.n, backend.num_checks)
        for theta_over_pi in (0.0, 0.37, 0.5, 1.0):
            for recovery in ("minweight", "ml"):
                peak = _traced_peak(lambda: evaluate(theta_over_pi * math.pi, recovery))
                assert peak <= bound, (theta_over_pi, recovery)


    # X-Shor 5x5 keeps every 16th entry of its 2**20-entry CDF, at theta =
    # 0 and pi too, where some syndromes have probability 0
    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), family_rotated_surface(5), family_rotated_surface(3)])
    def test_kept_evaluation_and_peak_are_within_its_held_bytes(self, coloring):
        backend = get_backend(build_code(coloring))
        n_samples = 400

        def evaluate(theta):
            sample_distribution(backend.distribution(theta), n_samples, 1)

        evaluate(0.36 * math.pi)  # any one-off set-up happens outside
        # the draws are budgeted apart, at _SAMPLE_BYTES a sample
        bound = (exact._evaluation_bytes(backend.n, backend.num_checks)
                 + n_samples * experiments._SAMPLE_BYTES)
        for theta_over_pi in (0.0, 0.37, 0.5, 1.0):
            tracemalloc.start()
            try:
                evaluate(theta_over_pi * math.pi)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # what the backend keeps until the next angle, plus this call's
            # peak: room for the next evaluation while a caller holds this one
            assert "cdf" in vars(backend._last[1])
            assert held + peak <= bound, theta_over_pi

    def test_xshor5_sampled_evaluation_holds_under_2_mib(self):
        backend = get_backend(build_code(family_x_shor(5, 5)))
        # any one-off set-up happens outside, at another angle
        sample_distribution(backend.distribution(0.45 * math.pi), 400, 1)

        def evaluate():
            dist = backend.distribution(0.46 * math.pi)
            for seed in range(6):
                sample_distribution(dist, 400, seed)
        # the inverse CDF keeps 2 x 2**16 float64 block ends (1 MiB) and its
        # build gathers one leaf at a time; the whole CDF alone would be 8 MiB
        assert _traced_peak(evaluate) < 2 << 20


class TestKeptDistribution:
    """A backend hands back its last distribution when asked for the same
    reduced angle, bit for bit, and recovery, and keeps no other."""

    def test_same_key_same_object(self):
        backend = ExactBackend(build_code(family_rotated_surface(3)))
        dist = backend.distribution(0.37 * math.pi)
        assert backend.distribution(0.37 * math.pi) is dist
        assert backend.distribution(0.37 * math.pi, "minweight") is dist
        zero = backend.distribution(0.0)
        assert backend.distribution(0.0) is zero
        others = [backend.distribution(-0.0), backend.distribution(0.0, "ml"),
                  backend.distribution(math.nextafter(0.0, 1.0), "ml"),
                  backend.distribution(0.37 * math.pi)]
        assert len({id(d) for d in [dist, zero, *others]}) == 6
        assert backend.distribution(0.37 * math.pi) is others[-1]

    def test_drops_the_kept_distribution_before_the_next(self):
        backend = ExactBackend(build_code(family_rotated_surface(3)))
        real = backend._amplitudes
        seen = []

        def spy(theta):
            seen.append(backend._last)
            return real(theta)
        backend._amplitudes = spy
        backend.distribution(0.37 * math.pi)
        backend.distribution(0.37 * math.pi, "ml")
        assert seen == [None, None]

    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), family_rotated_surface(5), random_coloring(3, 3, 0.5, 1)])
    def test_hit_is_bit_equal_to_a_fresh_backend(self, coloring):
        code = build_code(coloring)
        backend = ExactBackend(code)
        for theta_over_pi in (0.0, 0.37, 1.0):
            for recovery in ("minweight", "ml"):
                theta = theta_over_pi * math.pi
                dist = backend.distribution(theta, recovery)
                hit = backend.distribution(theta, recovery)
                fresh = ExactBackend(code).distribution(theta, recovery)
                assert hit is dist
                for name in ("p", "theta_s"):
                    a, b = getattr(hit, name), getattr(fresh, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                want = fresh.channel()
                for ch in (hit.channel(), backend.channel(theta, recovery)):
                    assert (repr(ch.epsilon), repr(ch.delta)) == (
                        repr(want.epsilon), repr(want.delta))

    # at theta = 0 every syndrome but one has probability 0, and the
    # distribution still holds only the backend's classes; RSC 3x3 keeps
    # its whole inverse CDF, X-Shor 5x5 every 16th entry
    @pytest.mark.parametrize("theta_over_pi", [0.0, 0.37])
    def test_shared_arrays_are_read_only(self, theta_over_pi):
        def held(dist):
            return {**{f.name: getattr(dist, f.name) for f in dataclasses.fields(dist)},
                    **{"cdf." + name: value for name, value in vars(dist.cdf).items()}}

        for coloring in (family_rotated_surface(3), family_x_shor(5, 5)):
            backend = get_backend(build_code(coloring))
            theta = theta_over_pi * math.pi
            dist = backend.distribution(theta)
            names = [name for name, value in held(dist).items() if isinstance(value, np.ndarray)]
            assert {"columns", "column_p", "cdf.columns", "cdf.column_q", "cdf.ends"} <= set(names)
            assert "kept" not in names and dist.columns is backend._classes
            want = {name: held(dist)[name].copy() for name in names}
            for name in names:
                with pytest.raises(ValueError, match="read-only"):
                    held(dist)[name][...] = 0
            again = backend.distribution(theta)
            assert again is dist and again.cdf is dist.cdf
            for name in names:
                assert held(again)[name].tobytes() == want[name].tobytes(), name


class TestChannelPerClass:
    """``channel`` sums the gather of per-class products a leaf at a time,
    split as NumPy splits the whole gather: the same bits as summing
    products of whole per-syndrome gathers."""

    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), random_coloring(5, 5, 0.9, 2), family_rotated_surface(5),
        family_z_stacked(5, 2)])
    def test_bit_identical_to_per_syndrome_sums(self, coloring):
        backend = get_backend(build_code(coloring))
        for theta_over_pi in (0.0, 0.01, 0.37, 0.5, 1.0):
            for recovery in ("minweight", "ml"):
                dist = backend.distribution(theta_over_pi * math.pi, recovery)
                ch = dist.channel()
                assert (repr(ch.epsilon), repr(ch.delta)) == tuple(
                    map(repr, channel_reference(dist))), (theta_over_pi, recovery)
                assert repr(diamond_avg(dist)) == repr(diamond_reference(dist)), (
                    theta_over_pi, recovery)

    def test_xshor5_diamond_peaks_at_one_leaf(self):
        dist = get_backend(build_code(family_x_shor(5, 5))).distribution(0.37 * math.pi)
        diamond_avg(dist)
        # one leaf of the per-class summand's gather at a time, as in channel
        assert _traced_peak(lambda: diamond_avg(dist)) < 1 << 20


def _nonzero_entries_only(dist):
    """The (eps, delta), diamond proxy and drawing distribution of ``dist``
    as they were when the syndromes of probability 0 were dropped: each
    summed over the gathered entries of nonzero p alone."""
    keep = np.flatnonzero(dist.p > 0.0)
    p, theta_s, a0, a1, parity = (dist.gather(values)[keep] for values in (
        dist.column_p, dist.column_theta_s, dist.column_amp_identity,
        dist.column_amp_logical, dist.column_parity))
    sign = 1.0 - 2.0 * parity
    channel = float(2.0 * np.sum(a1 ** 2)), float(2.0 * np.sum(sign * a0 * a1))
    diamond = float(np.sum(p * 2.0 * np.abs(np.sin(theta_s))))
    return keep, channel, diamond, AngleDistribution(column_p=p, column_theta_s=theta_s)


class TestZeroProbabilityEntries:
    """Every syndrome is an entry, those of probability 0 included.  Adding
    zeros to a pairwise sum moves its last bits only where p underflows,
    at 0 < |theta| <= about 1e-21 pi; at these angles, from theta = 0 to
    pi, every output has the bits of summing the nonzero entries alone."""

    @pytest.mark.parametrize("coloring", [
        family_x_shor(5, 5), random_coloring(5, 5, 0.9, 2), family_rotated_surface(5),
        family_z_stacked(5, 2), family_rotated_surface(3)])
    def test_bits_of_the_nonzero_entries_alone(self, coloring):
        backend = get_backend(build_code(coloring))
        for theta_over_pi in (0.0, 2.5e-21, 1e-16, 1e-8, 0.37, 1.0 - 1e-15, 1.0):
            for recovery in ("minweight", "ml"):
                case = theta_over_pi, recovery
                dist = backend.distribution(theta_over_pi * math.pi, recovery)
                assert len(dist) == 1 << backend.num_checks, case
                keep, channel, diamond, nonzero = _nonzero_entries_only(dist)
                ch = dist.channel()
                assert (repr(ch.epsilon), repr(ch.delta)) == tuple(map(repr, channel)), case
                assert repr(diamond_avg(dist)) == repr(diamond), case
                want_idx, want = sample_distribution_reference(nonzero, 500, 3)
                uniforms = np.random.default_rng(3).random(500)
                assert np.array_equal(dist.cdf.search(uniforms), keep[want_idx]), case
                assert sample_distribution(dist, 500, 3) == want, case


def _wide_class_values(rng, count):
    """Class values of both signs over forty decades, 1e-30 to 1e10."""
    return rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-30, 10, count)


def _assert_blocked_sum_bits(column_values, columns):
    want = np.sum(column_values[columns])
    got = exact.blocked_sum(column_values, columns)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), len(columns)


class TestBlockedSum:
    """``blocked_sum`` adds a gather a leaf at a time with the bits of
    ``np.sum`` over the whole gather."""

    # the smallest leaf NumPy's pairwise split allows, so short lengths
    # split into several leaves, and the package's own leaf
    @pytest.mark.parametrize("leaf", [128, None])
    def test_every_length_to_300(self, monkeypatch, leaf):
        if leaf is not None:
            monkeypatch.setattr(exact, "_LEAF", leaf)
        rng = np.random.default_rng(0)
        for length in range(1, 301):
            values = _wide_class_values(rng, 37)
            _assert_blocked_sum_bits(values, rng.integers(0, 37, length).astype(np.uint8))

    @pytest.mark.parametrize("length", [
        *(exact._LEAF + k for k in range(-9, 10) if k), 3 * exact._LEAF + 5,
        1 << 20, (1 << 20) - 37])
    def test_lengths_about_the_leaf_and_at_2_20(self, length):
        rng = np.random.default_rng(length)
        for count, dtype in ((21, np.uint8), (645, np.uint16)):
            values = _wide_class_values(rng, count)
            _assert_blocked_sum_bits(values, rng.integers(0, count, length).astype(dtype))
        # through the identity index, the values are the entries
        values = _wide_class_values(rng, length)
        identity = np.arange(length, dtype=np.uint32)
        assert exact.blocked_sum(values, identity).tobytes() == np.sum(values).tobytes()

    # the recursion holds no closure, which would be a reference cycle
    # keeping the class values and the index alive until the cyclic GC ran
    @pytest.mark.parametrize("length", [100, 3 * exact._LEAF + 5])
    def test_leaves_no_reference_cycle(self, length):
        values = np.ones(10)
        alive = weakref.ref(values)
        gc.disable()
        try:
            exact.blocked_sum(values, np.zeros(length, np.uint8))
            del values
            assert alive() is None
        finally:
            gc.enable()

    # at theta = 0 only the trivial syndrome has nonzero p, at theta = pi
    # 948,576 of X-Shor 5x5's 2**20; random q=0.9 seed 2 splits into five
    # parts.  Every syndrome is an entry, so the gathers hold zeros
    @pytest.mark.parametrize("coloring", [family_x_shor(5, 5), random_coloring(5, 5, 0.9, 2)])
    def test_gathers_with_zero_probabilities(self, coloring):
        backend = get_backend(build_code(coloring))
        rng = np.random.default_rng(1)
        for theta_over_pi in (0.0, 1.0):
            for recovery in ("minweight", "ml"):
                dist = backend.distribution(theta_over_pi * math.pi, recovery)
                assert len(dist) == 1 << 20 and (dist.column_p == 0.0).any()
                for values in (dist.column_p, _wide_class_values(rng, len(dist.column_p))):
                    _assert_blocked_sum_bits(values, dist.columns)
                    assert dist.gathered_sum(values).tobytes() == np.sum(
                        dist.gather(values)).tobytes()


def _cdf_distributions():
    """Distributions whose inverse CDFs have strides 1 to 16, some with a
    last block shorter than the stride, and some whose first entry is -0.0,
    which choice's running sum keeps."""
    rng = np.random.default_rng(4)
    lengths = (1000, 4097, 32769, 70001, 300_007)
    synthetic = []
    for size in lengths:
        p = np.where(rng.random(size) < 0.3, -0.0, rng.random(size) ** 8)
        p[0] = -0.0
        synthetic.append(AngleDistribution(column_p=p, column_theta_s=np.zeros(size)))
    classes = [AngleDistribution(column_p=10.0 ** rng.uniform(-12, 3, 37),
                                 column_theta_s=np.zeros(37),
                                 columns=rng.integers(0, 37, size).astype(np.uint8))
               for size in lengths]
    xshor = get_backend(build_code(family_x_shor(5, 5)))
    return [*synthetic, *classes,
            syndrome_distribution(build_code(family_rotated_surface(5)), 0.37 * math.pi),
            xshor.distribution(0.46 * math.pi, "ml"), xshor.distribution(math.pi)]


class TestInverseCDF:
    """The inverse CDF keeps every ``stride``-th entry of choice's whole
    inverse CDF and searches as the whole one does."""

    def test_stride_grows_as_the_square_root(self):
        strides = {size: exact._stride(size) for size in (1, 2, 4096, 4097, 1 << 16,
                                                          1 << 20, 1 << 24)}
        # every n = 9 code (at most 2**8 syndromes) keeps its whole CDF
        assert strides == {1: 1, 2: 1, 4096: 1, 4097: 2, 1 << 16: 4, 1 << 20: 16,
                           1 << 24: 64}
        # the kept bytes at 2**r bound those of every shorter CDF
        kept = [-(-size // exact._stride(size)) for size in range(1, (1 << 16) + 1)]
        assert all(max(kept[:(1 << r)]) == kept[(1 << r) - 1] for r in range(17))

    def test_kept_entries_and_search_equal_the_whole_cdf(self):
        for dist in _cdf_distributions():
            cdf, whole = dist.cdf, inverse_cdf_reference(dist.p)
            stride = cdf.stride
            ends = np.append(whole[stride - 1::stride], whole[-1])[:-(-len(whole) // stride)]
            assert ends.tobytes() == cdf.ends.tobytes(), (len(dist), stride)
            # uniforms at, just under and just over every entry below 1
            below = whole[whole < 1.0]
            uniforms = np.concatenate([below, np.nextafter(below, 0.0), np.nextafter(below, 1.0),
                                       np.random.default_rng(0).random(10_000)])
            idx = cdf.search(uniforms)
            assert idx.dtype == np.intp and np.array_equal(
                idx, whole.searchsorted(uniforms, side="right")), (len(dist), stride)

    def test_draws_are_chunked(self, monkeypatch):
        # 128 entries a chunk: 8 draws of 16-entry blocks at a time
        monkeypatch.setattr(exact, "_LEAF", 128)
        dist = get_backend(build_code(family_x_shor(5, 5))).distribution(0.3 * math.pi)
        whole = inverse_cdf_reference(dist.p)
        cdf = exact.InverseCDF(dist.column_p, dist.columns)
        assert cdf.stride == 16
        uniforms = np.random.default_rng(2).random(1001)
        assert np.array_equal(cdf.search(uniforms), whole.searchsorted(uniforms, side="right"))


@pytest.mark.parametrize("gen,extra", [
    (("--family", "rsc", "--dx", "5"), ("--theta-over-pi", "0.37")),
    # exact identity/logical ties: ML's choice used to follow the BLAS rounding
    (("--family", "zstacked", "--dx", "5", "--h", "2"),
     ("--theta-over-pi", "0.1", "--recovery", "ml")),
])
def test_channel_exact_bytes_do_not_depend_on_blas_kernel(tmp_path, capsys, gen, extra):
    code = tmp_path / "code.json"
    assert main(["code", "gen", *gen, "--out", str(code)]) == 0
    capsys.readouterr()
    outputs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-m", "compasscoh.cli", "channel", "exact",
             "--code", str(code), *extra],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
