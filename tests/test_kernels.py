import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compasscoh import (KERNEL_BACKEND, _kernels, build_code, family_rotated_surface,
                        family_x_shor, family_z_shor, family_z_stacked, gf2,
                        random_coloring)
from compasscoh._kernels import count_table

from oracles import count_table_reference


def _full_table(n, masks, build=None, route=count_table):
    """Every syndrome's row from ``route``'s class rows (``_group`` over
    ``build``'s blocks when given): row s is ``rows[classes[s]]``.  Also
    checks that the class indices are in the smallest unsigned dtype, that
    every class holds a syndrome and that classes are distinct."""
    if build is None:
        rows, classes = route(n, masks)
    else:
        rows, classes = _kernels._group(build(n, masks), 1 << len(masks))
    assert classes.dtype == np.min_scalar_type(len(rows) - 1)
    assert np.array_equal(np.unique(classes), np.arange(len(rows)))
    assert len(np.unique(rows, axis=0)) == len(rows)
    return rows[classes]


def _code_table(code):
    masks = [s.mask for s in code.x_stabilizers]
    return _full_table(code.n, masks), count_table_reference(code.n, masks)


def test_weight_marginals_are_binomial():
    n = 10
    counts = _full_table(n, [])
    assert counts.shape == (1, n + 1)
    assert counts[0].tolist() == [math.comb(n, w) for w in range(n + 1)]


def test_total_is_two_to_n():
    code = build_code(family_rotated_surface(3))
    counts = _full_table(code.n, [s.mask for s in code.x_stabilizers])
    assert counts.sum() == 1 << code.n
    assert counts.shape == (1 << len(code.x_stabilizers), code.n + 1)


def test_one_bit_check_splits_halves():
    n = 8
    counts = _full_table(n, [0b1])
    # conditioning on one bit splits weights binomially over n-1 qubits
    assert counts[0].tolist() == [math.comb(n - 1, w) for w in range(n)] + [0]
    assert counts[1].tolist() == [0] + [math.comb(n - 1, w) for w in range(n)]


def test_rejects_oversized():
    with pytest.raises(ValueError):
        count_table(26, [])


def test_rsc3_matches_reference():
    table, ref = _code_table(build_code(family_rotated_surface(3)))
    assert table.dtype == np.uint8  # entries <= 2**(n - r) = 32
    assert np.array_equal(table, ref)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("d_x", [3, 4])
def test_random_codes_match_reference(d_x, seed):
    code = build_code(random_coloring(d_x, 5, 0.5, seed))
    table, ref = _code_table(code)
    assert np.array_equal(table, ref)


def _generators(case):
    """(n, check masks) for the regimes the dual transform newly covers."""
    if case == "r=n-1":
        code = build_code(family_z_shor(1, 13))
    elif case == "n20-r16":
        code = build_code(family_x_shor(4, 5))
    else:
        code = build_code(family_rotated_surface(3))
    masks = [s.mask for s in code.x_stabilizers]
    if case == "duplicate-check":  # a dependent check: half the rows unreachable
        return code.n, masks + masks[:1]
    return code.n, masks


REGIMES = ["r=n-1", "n20-r16", "duplicate-check"]


@pytest.mark.parametrize("case", REGIMES)
def test_dual_regimes_match_reference(case):
    n, masks = _generators(case)
    assert np.array_equal(_full_table(n, masks), count_table_reference(n, masks))


def _rows(build, n, checks):
    return np.concatenate(list(build(n, checks)))


BUILD_CASES = REGIMES + ["rsc3", "random3x5", "empty", "one-bit-check"]


def _build_case(case):
    """(n, check masks) of a case of ``BUILD_CASES``."""
    if case == "random3x5":
        code = build_code(random_coloring(3, 5, 0.5, 1))
        return code.n, [s.mask for s in code.x_stabilizers]
    if case == "empty":
        return 10, []
    if case == "one-bit-check":
        return 8, [0b1]
    return _generators(case)


# small enough for several blocks, the last one short on most cases
@pytest.mark.parametrize("block", [None, 100])
@pytest.mark.parametrize("build", [_kernels._dual_blocks, _kernels._coset_blocks])
@pytest.mark.parametrize("case", BUILD_CASES)
def test_each_build_matches_reference(monkeypatch, build, case, block):
    if block is not None:
        monkeypatch.setattr(_kernels, "_BLOCK", block)
    n, masks = _build_case(case)
    ref = count_table_reference(n, masks)
    rank = len(gf2.reduce_basis(masks))
    table = _rows(build, n, masks)
    assert table.dtype == np.min_scalar_type(1 << (n - rank))
    assert np.array_equal(table, ref)
    grouped = _full_table(n, masks, build=build)
    assert grouped.dtype == table.dtype and np.array_equal(grouped, ref)


@pytest.mark.parametrize("case", BUILD_CASES)
def test_coset_kernel_is_the_null_space(monkeypatch, case):
    # the kernel vectors are the last ones _coset_blocks spans before its
    # first block; they must be a basis of the brute-force null space
    n, masks = _build_case(case)
    spans = []
    span = _kernels._span
    monkeypatch.setattr(_kernels, "_span", lambda vectors: spans.append(vectors) or span(vectors))
    next(_kernels._coset_blocks(n, masks))
    kernel = spans[-1]
    v = np.arange(1 << n, dtype=np.uint64)
    even = np.ones(len(v), bool)
    for m in masks:
        even &= np.bitwise_count(v & np.uint64(m)) % 2 == 0
    assert len(kernel) == n - len(gf2.reduce_basis(masks))
    assert set(span(kernel).tolist()) == set(v[even].tolist())


def test_cost_rule_picks_the_coset_build_for_xshor_like_codes(monkeypatch):
    coset_calls = []
    build = _kernels._coset_blocks
    monkeypatch.setattr(_kernels, "_coset_blocks",
                        lambda n, checks: coset_calls.append(n) or build(n, checks))
    for coloring in (family_rotated_surface(3), family_x_shor(3, 3),
                     family_rotated_surface(5), family_x_shor(4, 5)):
        code = build_code(coloring)
        _full_table(code.n, [s.mask for s in code.x_stabilizers])
    assert coset_calls == [20]


def test_xshor5_table_is_exact():
    # the largest code the exact backend builds from the coset build (n=25, r=20)
    code = build_code(family_x_shor(5, 5))
    n, r = code.n, len(code.x_stabilizers)
    rows, classes = count_table(n, [s.mask for s in code.x_stabilizers])
    assert rows.dtype == np.uint8 and classes.dtype == np.uint8  # exact integers
    counts = rows[classes]
    assert np.all(counts.sum(axis=1) == 1 << (n - r))
    assert counts.sum(axis=0).tolist() == [math.comb(n, w) for w in range(n + 1)]


def test_xshor5_coset_build_equals_dual():
    # the largest code the coset build is claimed for; the dual is the reference
    code = build_code(family_x_shor(5, 5))
    masks = [s.mask for s in code.x_stabilizers]
    assert np.array_equal(_rows(_kernels._coset_blocks, code.n, masks),
                          _rows(_kernels._dual_blocks, code.n, masks))


def _assert_factored_equals_whole_code_route(n, masks):
    """``_factored`` and ``count_table`` return the whole-code route's full
    table ``rows[classes]``, class count and dtypes."""
    build = _kernels._coset_blocks if _kernels._use_coset(n, len(masks)) else _kernels._dual_blocks
    want_rows, want_classes = _kernels._group(build(n, masks), 1 << len(masks))
    for rows, classes in (_factored(n, masks), count_table(n, masks)):
        assert rows.dtype == want_rows.dtype and classes.dtype == want_classes.dtype
        assert len(rows) == len(want_rows)
        assert np.array_equal(rows[classes], want_rows[want_classes])


def _factored(n, masks):
    return _kernels._factored(n, _kernels._components(n, masks), masks)


def _split_5x5():
    """X-Shor 5x5, Z-stacked 5x5 h=2, and every random 5x5 coloring among
    seeds 0-11 at q = 0.5, 0.75 and 0.9 whose X checks split the qubits."""
    colorings = {"xshor": family_x_shor(5, 5), "zstacked-h2": family_z_stacked(5, 2)}
    for q in (0.5, 0.75, 0.9):
        for seed in range(12):
            code = build_code(random_coloring(5, 5, q, seed))
            if len(_kernels._components(code.n, [s.mask for s in code.x_stabilizers])) > 1:
                colorings[f"random-q{q}-seed{seed}"] = code.coloring
    return colorings


SPLIT_5X5 = _split_5x5()


@pytest.mark.parametrize("name", SPLIT_5X5)
def test_factored_route_equals_whole_code_route(name):
    code = build_code(SPLIT_5X5[name])
    n, masks = code.n, [s.mask for s in code.x_stabilizers]
    assert len(_kernels._components(n, masks)) > 1
    _assert_factored_equals_whole_code_route(n, masks)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([1, 3, 5]), st.floats(0.0, 1.0),
       st.integers(0, 2**31 - 1))
def test_factored_route_equals_whole_code_route_on_random_colorings(d_x, d_z, q, seed):
    code = build_code(random_coloring(d_x, d_z, q, seed))
    masks = [s.mask for s in code.x_stabilizers]
    _assert_factored_equals_whole_code_route(code.n, masks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=7))))
def test_factored_route_matches_reference_on_any_generators(case):
    # zero, repeated and dependent checks, qubits in no check; checked
    # against the primal count, with the class properties of _full_table
    n, masks = case
    table = _full_table(n, masks, route=_factored)
    assert np.array_equal(table, count_table_reference(n, masks))


def test_components_split_on_shared_checks_only():
    # checks 0 and 2 share qubit 1, check 1 stands alone, qubits 5-7 are in none
    parts = _kernels._components(8, [0b0000011, 0b0011000, 0b0000110])
    assert parts == [(0b11100000, []), (0b111, [0, 2]), (0b11000, [1])]
    xshor = build_code(family_x_shor(5, 5))
    parts = _kernels._components(xshor.n, [s.mask for s in xshor.x_stabilizers])
    assert parts == [(0b11111 << 5 * i, list(range(i, 20, 5))) for i in range(5)]


def test_cost_rule_factors_only_expensive_split_codes():
    def split(coloring):
        code = build_code(coloring)
        return _kernels._split(code.n, [s.mask for s in code.x_stabilizers]) is not None
    # one part, or a split code whose whole-code build is cheap: n = 9, or
    # Z-stacked 5x5 h=2 on the dual at r = 12
    for coloring in (family_rotated_surface(5), family_z_shor(5, 5), family_z_shor(1, 25),
                     family_x_shor(3, 3), family_z_stacked(3, 2), family_z_stacked(5, 2),
                     *(random_coloring(3, 3, q, seed) for q in (0.5, 1.0) for seed in range(8))):
        assert not split(coloring), coloring
    assert split(family_x_shor(5, 5)) and split(random_coloring(5, 5, 0.75, 3))


def test_backend_label():
    assert KERNEL_BACKEND == "fallback"
