import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compasscoh import (Coloring, build_code, build_matching_graph, decode_mwpm,
                        family_rotated_surface, family_x_shor, family_z_shor,
                        family_z_stacked, random_coloring, syndrome_of)
from compasscoh import decoder, exact
from compasscoh._kernels import count_table
from compasscoh.codes import XCUT, ZCUT
from compasscoh.decoder import syndrome_to_mask
from oracles import (brute_table, decode_bruteforce, graph_dist, graph_edges, graph_path,
                     match_reference, shortest_paths_reference, stabilizer_free)


def rep_code(l):
    return build_code(Coloring(1, l, ()))


class TestMatchingGraph:
    def test_repetition_chain(self):
        graph = build_matching_graph(rep_code(3))
        assert graph.num_checks == 2
        b = graph.boundary
        assert graph_edges(graph) == ((0, b), (0, 1), (1, b))
        assert stabilizer_free(graph) == ()

    def test_z_shor_parallel_edges(self):
        graph = build_matching_graph(build_code(family_z_shor(3, 3)))
        assert graph.num_checks == 2
        pairs = [e for e in graph_edges(graph) if e == (0, 1)]
        assert len(pairs) == 3  # one edge per middle-column qubit
        # lowest-index witness qubit on the collapsed parallel bundle
        assert graph_path(graph)[0][1] == 1 << 1

    def test_x_shor_disjoint_rows(self):
        graph = build_matching_graph(build_code(family_x_shor(3, 3)))
        assert graph.num_checks == 6
        # checks 0 and 3 share qubit 1 (row 0); rows connect only via boundary
        dist = graph_dist(graph)
        assert dist[0][3] == 1
        assert dist[0][1] == dist[0][graph.boundary] + dist[1][graph.boundary]

    def test_distances_symmetric_triangle(self):
        graph = build_matching_graph(build_code(family_rotated_surface(5)))
        dist = graph_dist(graph)
        nodes = range(graph.num_checks + 1)
        for a in nodes:
            for b in nodes:
                assert dist[a][b] == dist[b][a]
                for c in nodes:
                    assert dist[a][b] <= dist[a][c] + dist[c][b]

    def test_single_column_code_has_no_checks(self):
        graph = build_matching_graph(build_code(Coloring(4, 1, ())))
        assert graph.num_checks == 0
        assert len(stabilizer_free(graph)) == 4


class TestDecodeExamples:
    def test_zero_syndrome_empty(self):
        graph = build_matching_graph(rep_code(5))
        assert decode_mwpm(graph, 0).mask == 0
        assert decode_bruteforce(rep_code(5), 0).mask == 0

    def test_repetition5_boundary_flag(self):
        graph = build_matching_graph(rep_code(5))
        corr = decode_mwpm(graph, "10000"[: graph.num_checks])
        assert corr.qubits == (0,)

    def test_repetition5_inner_pair(self):
        graph = build_matching_graph(rep_code(5))
        corr = decode_mwpm(graph, [0, 1, 1, 0])
        assert corr.qubits == (2,)

    def test_rsc3_corner_check(self):
        code = build_code(family_rotated_surface(3))
        corner = next(k for k, s in enumerate(code.x_stabilizers)
                      if s.weight == 2 and 0 in s.qubits)
        corr = decode_mwpm(build_matching_graph(code), 1 << corner)
        assert corr.qubits == (0,)

    def test_syndrome_string_and_sequence_agree(self):
        graph = build_matching_graph(rep_code(5))
        assert decode_mwpm(graph, "0110").mask == decode_mwpm(graph, [0, 1, 1, 0]).mask

    def test_bad_syndrome_rejected(self):
        graph = build_matching_graph(rep_code(5))
        with pytest.raises(ValueError):
            decode_mwpm(graph, "01")
        with pytest.raises(ValueError):
            decode_mwpm(graph, "01x0")


def _all_syndrome_comparison(code):
    graph = build_matching_graph(code)
    num = 1 << graph.num_checks
    for s in range(num):
        mwpm = decode_mwpm(graph, s)
        brute = decode_bruteforce(code, s)
        assert syndrome_of(code, mwpm.mask) == s
        assert mwpm.weight == brute.weight, (code.coloring, s)
        assert mwpm.mask == brute.mask, (code.coloring, s)


EXHAUSTIVE = [
    family_z_shor(3, 3), family_x_shor(3, 3), family_rotated_surface(3),
    family_z_stacked(3, 2), Coloring(1, 7, ()),
]


@pytest.mark.parametrize("coloring", EXHAUSTIVE)
def test_mwpm_matches_bruteforce_exhaustively(coloring):
    _all_syndrome_comparison(build_code(coloring))


@pytest.mark.parametrize("seed", range(6))
def test_mwpm_matches_bruteforce_random_3x5(seed):
    _all_syndrome_comparison(build_code(random_coloring(3, 5, 0.5, seed)))


# the brute force enumerates n <= 15 here; at n = 25 the decoder's table is
# the reference.  Random 5x5 codes at q = 0.75 seed 3 and q = 0.9 seed 5
# split their qubits, so their rows come from their parts
LOWEST_WEIGHT_CASES = [
    *(Coloring(3, 3, (cells[:2], cells[2:]))
      for cells in itertools.product((XCUT, ZCUT), repeat=4)),
    *(random_coloring(*shape, q, seed) for shape in ((3, 5), (5, 3))
      for q in (0.25, 0.5, 0.75) for seed in range(2)),
    *(Coloring(1, l, ()) for l in range(1, 16, 2)),
    *(Coloring(l, 1, ()) for l in range(1, 16)),
    family_x_shor(5, 5), family_rotated_surface(5), family_z_stacked(5, 2),
    random_coloring(5, 5, 0.75, 3), random_coloring(5, 5, 0.9, 5)]


@pytest.mark.parametrize("coloring", LOWEST_WEIGHT_CASES)
def test_count_rows_lowest_weight_is_the_minimum_correction_weight(coloring):
    # the exact backend reads each syndrome's recovery parity off its row
    code = build_code(coloring)
    n, masks = code.n, [s.mask for s in code.x_stabilizers]
    rows, classes = count_table(n, masks)
    lowest = (rows != 0).argmax(axis=1)[classes]
    if n <= 15:
        want = brute_table(code)[0]
    else:
        want = build_matching_graph(code).table() >> n
    assert len(lowest) == 1 << len(masks) and np.array_equal(lowest, want)


def test_determinism_across_instances():
    code = build_code(random_coloring(3, 5, 0.4, 11))
    g1, g2 = build_matching_graph(code), build_matching_graph(code)
    for s in range(1 << g1.num_checks):
        assert decode_mwpm(g1, s).mask == decode_mwpm(g2, s).mask


@given(st.integers(1, 4), st.sampled_from([1, 3, 5]),
       st.floats(0, 1), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_weight_minimality_random(d_x, d_z, q, seed, syndrome_seed):
    code = build_code(random_coloring(d_x, d_z, q, seed))
    graph = build_matching_graph(code)
    s = syndrome_seed % (1 << graph.num_checks)
    corr = decode_mwpm(graph, s)
    brute = decode_bruteforce(code, s)
    assert syndrome_of(code, corr.mask) == s
    assert corr.weight == brute.weight <= code.n
    assert corr.mask == brute.mask


def test_syndrome_to_mask_bit_order():
    # check 0 is the leftmost character
    assert syndrome_to_mask("100", 3) == 0b001
    assert syndrome_to_mask("001", 3) == 0b100


# ---------------------------------------------------------------------------
# Integer keys against the scalar (length, lex) reference

def _assert_table_matches_reference(code, syndromes):
    graph = build_matching_graph(code)
    keys = graph.table()
    assert keys.dtype == np.int64 and len(keys) == 1 << graph.num_checks
    for s in syndromes:
        key = int(keys[s])
        assert (key >> code.n, graph.support(key)) == match_reference(code, s), s


def test_table_matches_reference_rsc5_every_syndrome():
    # n = 25 is above the brute force's n <= 20
    code = build_code(family_rotated_surface(5))
    _assert_table_matches_reference(code, range(1 << len(code.x_stabilizers)))


def test_table_matches_reference_xshor5_sample():
    code = build_code(family_x_shor(5, 5))
    r = len(code.x_stabilizers)
    assert r == 20
    rng = random.Random(2018)
    _assert_table_matches_reference(code, [rng.randrange(1 << r) for _ in range(5000)])


def test_decode_rsc9_python_int_keys_match_reference():
    code = build_code(family_rotated_surface(9))
    graph = build_matching_graph(code)
    assert code.n == 81 and graph.keys.dtype == object
    rng = random.Random(81)
    for _ in range(30):
        error = sum(1 << q for q in rng.sample(range(code.n), rng.randint(1, 5)))
        s = syndrome_of(code, error)
        corr = decode_mwpm(graph, s)
        assert syndrome_of(code, corr.mask) == s
        assert (corr.weight, corr.mask) == match_reference(code, s)


@pytest.mark.parametrize("d,key_bytes", [(5, 8), (9, 8 + sys.getsizeof(82 << 81))])
def test_match_over_budget_raises_before_the_dp(monkeypatch, d, key_bytes):
    # RSC 5x5 holds int64 keys, RSC 9x9 (n=81) Python ints
    graph = build_matching_graph(build_code(family_rotated_surface(d)))
    monkeypatch.setattr(exact, "MAX_HELD_BYTES", (3 << 6) // 2 * key_bytes)
    assert graph.match(0b111111)[0] > 0  # six flagged checks fit the budget
    monkeypatch.setattr(decoder, "_min_weight_keys", lambda *args: pytest.fail("DP ran"))
    with pytest.raises(exact.TooLargeError, match=(
            rf"^decoding 7 flagged checks of n={d * d} qubits holds {(3 << 7) // 2 * key_bytes} "
            rf"bytes of {key_bytes}-byte keys")):
        graph.match(0b1111111)


@pytest.mark.parametrize("colorings", [
    [random_coloring(*shape, q, seed) for q in (0.25, 0.5, 0.75) for seed in range(4)]
    for shape in ((3, 3), (3, 5), (5, 5))
] + [[family_x_shor(5, 5), family_z_shor(5, 5), family_rotated_surface(7)]])
def test_key_shortest_paths_match_reference(colorings):
    for coloring in colorings:
        code = build_code(coloring)
        graph = build_matching_graph(code)
        assert (graph_dist(graph), graph_path(graph)) == shortest_paths_reference(code)


@pytest.mark.parametrize("coloring", [family_rotated_surface(3), family_x_shor(3, 5),
                                      random_coloring(3, 5, 0.5, 3)])
def test_match_equals_table_entry(coloring):
    # one decode runs the table levels over the flagged checks only
    graph = build_matching_graph(build_code(coloring))
    keys = graph.table()
    for s in range(1 << graph.num_checks):
        assert graph.match(s) == (int(keys[s]) >> graph.n, graph.support(int(keys[s])))

