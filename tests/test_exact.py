import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from compasscoh import (Coloring, InvalidCodeError, TooLargeError, _kernels,
                        build_code, build_matching_graph, diamond_avg, exact,
                        family_rotated_surface, family_x_shor, family_z_shor,
                        family_z_stacked, logical_channel, random_coloring,
                        syndrome_distribution, x_shor_channel)
from compasscoh.cli import main
from compasscoh.exact import ExactBackend, get_backend, reduce_angle
from compasscoh.families import x_shor_distribution

from oracles import (count_table_reference, per_syndrome_backend,
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
        for i, s in enumerate(dist.syndromes):
            p_o, th_o, _, _ = oracle[int(s)]
            assert dist.p[i] == pytest.approx(p_o, abs=1e-12)
            assert dist.theta_s[i] == pytest.approx(th_o, abs=1e-12)

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
        code = build_code(family_rotated_surface(3))
        dist = syndrome_distribution(code, 0.0)
        assert len(dist) == 1
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
        for i in range(len(dist)):
            odd = int(dist.recovery_parity[i])  # phases (-i)**parity, (-i)**(1 - parity)
            a0 = (-1.0j if odd else 1.0) * float(dist.amp_identity[i])
            a1 = (1.0 if odd else -1.0j) * float(dist.amp_logical[i])
            prod = a1 * np.conj(a0)
            assert abs(prod.real) <= 1e-12 * max(abs(a0) * abs(a1), 1e-30)

    def test_coarse_graining_invariance(self):
        """Merging equal-(p, theta_s) syndromes leaves (eps, delta) unchanged."""
        code = build_code(family_z_shor(3, 5))
        theta = 0.07 * math.pi
        dist = syndrome_distribution(code, theta)
        merged: dict[tuple, float] = {}
        for i in range(len(dist)):
            key = (round(float(dist.p[i]), 14), round(float(dist.theta_s[i]), 14))
            merged[key] = merged.get(key, 0.0) + float(dist.p[i])
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
        with pytest.raises(TooLargeError, match=r"n=25, r=24"):
            ExactBackend(build_code(family_z_shor(1, 25)))  # 7.0 GB table

    def test_mixed_weight_parity_rows_rejected(self):
        # without its second check the all-ones support leaves span(checks, Xbar)
        code = build_code(Coloring(1, 3, ()))
        broken = dataclasses.replace(code, x_stabilizers=code.x_stabilizers[:1])
        with pytest.raises(InvalidCodeError, match="both weight parities"):
            ExactBackend(broken)

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
    counts = count_table_reference(n, masks, code.logical_x.mask)
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


def _assert_same_distributions(backend, ref, thetas_over_pi):
    for theta_over_pi in thetas_over_pi:
        for recovery in ("minweight", "ml"):
            got = backend.distribution(theta_over_pi * math.pi, recovery)
            want = ref.distribution(theta_over_pi * math.pi, recovery)
            for name in ("syndromes", "p", "theta_s", "amp_identity", "amp_logical",
                         "recovery_parity"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (
                    theta_over_pi, recovery, name)


class TestColumnClasses:
    """The backend keeps one table column per class of syndromes with equal
    count column and recovery parity."""

    @pytest.mark.parametrize("coloring", [family_x_shor(5, 5), random_coloring(5, 5, 0.9, 2)])
    def test_bit_exact_at_full_size(self, coloring):
        code = build_code(coloring)
        backend = ExactBackend(code)
        assert backend.num_checks == 20 and backend._table.shape[-1] == 21
        ref = per_syndrome_backend(code)
        assert np.array_equal(backend._table[..., backend._classes], ref._table)
        _assert_same_distributions(backend, ref, [0.0, 0.01, 0.37, 0.5, 1.0])

    def test_rsc5_holds_fewer_columns_than_syndromes(self):
        backend = ExactBackend(build_code(family_rotated_surface(5)))
        assert backend._table.shape[-1] == 645 < 1 << backend.num_checks == 4096
        assert backend._classes.dtype == np.uint16

    def test_xshor5_build_peak_is_bounded(self):
        code = build_code(family_x_shor(5, 5))
        ExactBackend(build_code(family_x_shor(3, 3)))  # one-off set-up happens outside
        tracemalloc.start()
        try:
            ExactBackend(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the count table alone holds 52 MB and its coset build peaks at 86 MB
        assert peak < 110 << 20

    @pytest.mark.parametrize("coloring", [family_rotated_surface(3), family_x_shor(3, 3),
                                          random_coloring(3, 5, 0.5, 4)])
    def test_colliding_keys_are_split_by_the_check(self, monkeypatch, coloring):
        monkeypatch.setattr(exact, "_SUM_BLOCK", 4)  # hashed and checked in blocks of 4
        code = build_code(coloring)
        ref = per_syndrome_backend(code)
        pairs = np.vstack([ref._table.reshape(-1, ref._table.shape[-1]), ref._rec_parity])
        distinct = np.unique(pairs, axis=1).shape[1]
        assert ExactBackend(code)._table.shape[-1] == distinct < pairs.shape[1]
        monkeypatch.setattr(exact, "_HASH_MULT", np.uint64(0))  # every key 0
        backend = ExactBackend(code)
        assert backend._table.shape[-1] > distinct
        assert np.array_equal(backend._table[..., backend._classes], ref._table)
        assert np.array_equal(backend._rec_parity[backend._classes], ref._rec_parity)
        _assert_same_distributions(backend, ref, [0.0, 0.37])

    @pytest.mark.parametrize("collide", [False, True])
    def test_equal_columns_of_different_parity_stay_apart(self, monkeypatch, collide):
        # a min-weight recovery's parity is that of the column's lowest weight,
        # so only synthetic rows show the parity in the class key
        monkeypatch.setattr(exact, "_SUM_BLOCK", 3)
        if collide:
            monkeypatch.setattr(exact, "_HASH_MULT", np.uint64(0))
        a, b, c = [1, 0, 1], [0, 2, 0], [0, 1, 0]
        # per syndrome: (coset 0 row, coset 1 row), even-weight coset, parity
        syndromes = [((a, b), 0, 0), ((a, b), 0, 1), ((a, b), 0, 0), ((a, c), 0, 0),
                     ((a, b), 0, 1), ((b, a), 1, 0), ((a, b), 1, 0), ((a, c), 0, 0)]
        counts = np.array([row for rows, _, _ in syndromes for row in rows], np.uint8)
        even_rows = np.array([2 * s + e for s, (_, e, _) in enumerate(syndromes)])
        parity = np.array([p for _, _, p in syndromes])
        reps, classes = exact._group_rows(counts, even_rows, parity)
        # syndrome 5 has syndrome 0's rows with the cosets swapped, 6 does not
        assert classes[0] == classes[2] == classes[5]
        assert len({classes[0], classes[1], classes[3], classes[6]}) == 4
        # a syndrome that fails the check against its class becomes a class of its own
        assert (classes[1] == classes[4]) != collide and (classes[3] == classes[7]) != collide
        assert len(reps) == (6 if collide else 4)
        rep = reps[classes]
        assert np.all(rep <= np.arange(len(syndromes)))
        for flip in (0, 1):
            assert np.array_equal(counts[even_rows[rep] ^ flip], counts[even_rows ^ flip])
        assert np.array_equal(parity[rep], parity)

    @pytest.mark.parametrize("theta_over_pi", [0.02, 0.1, 0.37, 0.46, 0.5, 0.75])
    def test_xshor5_matches_closed_form(self, theta_over_pi):
        theta = theta_over_pi * math.pi
        dist = get_backend(build_code(family_x_shor(5, 5))).distribution(theta)
        ch, ref = dist.channel(), x_shor_channel(5, 5, theta)
        assert abs(ch.epsilon - ref.epsilon) <= 1e-12
        assert abs(ch.delta - ref.delta) <= 1e-12
        assert abs(diamond_avg(dist) - diamond_avg(x_shor_distribution(5, 5, theta))) <= 1e-10


_PER_SYNDROME = ("syndromes", "p", "theta_s", "amp_identity", "amp_logical",
                 "recovery_parity")


def _eager_arrays(backend, dist):
    """The per-syndrome arrays as ``distribution`` once built them eagerly:
    a mask over every syndrome, then one take per column array."""
    arrays = (dist.column_p, dist.column_theta_s, dist.column_amp_identity,
              dist.column_amp_logical, dist.column_parity)
    columns = backend._classes
    syndromes = np.arange(len(columns), dtype=np.uint32)
    keep = arrays[0] > 0.0
    if not keep.all():
        syndromes = syndromes[keep[columns]]
        columns = columns[syndromes]
    arrays = tuple(a.take(columns) for a in arrays)
    return dict(zip(_PER_SYNDROME, (syndromes, *arrays)))


class TestLazyArrays:
    """Per-syndrome arrays are gathered from the column arrays when first read."""

    # at full size and with blocks of 4; theta = 0 and pi drop every
    # syndrome but one
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
                assert len(dist) == len(want["p"])
                idx = rng.integers(len(dist), size=50)
                assert np.array_equal(dist.theta_s_at(idx), want["theta_s"][idx])
                for name, array in want.items():
                    got = getattr(dist, name)
                    assert got.dtype == array.dtype and np.array_equal(got, array), (
                        theta_over_pi, recovery, name)

    def test_xshor5_distribution_allocates_under_a_quarter_until_read(self):
        backend = get_backend(build_code(family_x_shor(5, 5)))
        backend.distribution(0.46 * math.pi)  # any one-off set-up happens outside
        tracemalloc.start()
        try:
            dist = backend.distribution(0.46 * math.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        eager = sum(getattr(dist, name).nbytes for name in _PER_SYNDROME)
        assert eager > 40 << 20 and peak < eager / 4


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
