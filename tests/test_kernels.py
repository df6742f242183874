import math

import numpy as np
import pytest

from compasscoh import (KERNEL_BACKEND, _kernels, build_code,
                        family_rotated_surface, family_x_shor, family_z_shor,
                        gf2, random_coloring)
from compasscoh._kernels import count_table

from oracles import count_table_reference


def _code_table(code):
    masks = [s.mask for s in code.x_stabilizers]
    return (count_table(code.n, masks, code.logical_x.mask),
            count_table_reference(code.n, masks, code.logical_x.mask))


def test_weight_marginals_are_binomial():
    n = 10
    counts = count_table(n, [], 0)
    assert counts.shape == (1, 2, n + 1)
    per_weight = counts[0, 0]
    assert per_weight.tolist() == [math.comb(n, w) for w in range(n + 1)]
    assert counts[0, 1].sum() == 0


def test_total_is_two_to_n():
    code = build_code(family_rotated_surface(3))
    counts = count_table(code.n, [s.mask for s in code.x_stabilizers],
                         code.logical_x.mask)
    assert counts.sum() == 1 << code.n
    assert counts.shape == (1 << len(code.x_stabilizers), 2, code.n + 1)


def test_xbar_split_halves():
    n = 8
    counts = count_table(n, [], 0b1)
    # conditioning on one bit splits weights binomially over n-1 qubits
    assert counts[0, 0].tolist() == [math.comb(n - 1, w) if w <= n - 1 else 0
                                     for w in range(n + 1)]
    assert counts[0, 1, 0] == 0


def test_rejects_oversized():
    with pytest.raises(ValueError):
        count_table(26, [], 0)


def test_rsc3_matches_reference():
    table, ref = _code_table(build_code(family_rotated_surface(3)))
    assert table.dtype == np.uint8  # entries <= 2**(n - r - 1) = 16
    assert np.array_equal(table, ref)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("d_x", [3, 4])
def test_random_codes_match_reference(d_x, seed):
    code = build_code(random_coloring(d_x, 5, 0.5, seed))
    table, ref = _code_table(code)
    assert np.array_equal(table, ref)


def _generators(case):
    """(n, check masks, xbar mask) for the regimes the dual transform newly covers."""
    if case == "r+1=n":
        code = build_code(family_z_shor(1, 13))
    elif case == "n20-r16":
        code = build_code(family_x_shor(4, 5))
    else:
        code = build_code(family_rotated_surface(3))
    masks = [s.mask for s in code.x_stabilizers]
    if case == "duplicate-check":
        return code.n, masks + masks[:1], code.logical_x.mask
    if case == "xbar-is-check":
        return code.n, masks, masks[1]
    return code.n, masks, code.logical_x.mask


REGIMES = ["r+1=n", "n20-r16", "duplicate-check", "xbar-is-check"]


@pytest.mark.parametrize("case", REGIMES)
def test_dual_regimes_match_reference(case):
    n, masks, xbar = _generators(case)
    assert np.array_equal(count_table(n, masks, xbar),
                          count_table_reference(n, masks, xbar))


@pytest.mark.parametrize("build", [_kernels._dual_table, _kernels._coset_table])
@pytest.mark.parametrize("case", REGIMES + ["rsc3", "random3x5", "empty", "xbar-one-bit"])
def test_each_build_matches_reference(build, case):
    if case == "random3x5":
        code = build_code(random_coloring(3, 5, 0.5, 1))
        n, masks, xbar = code.n, [s.mask for s in code.x_stabilizers], code.logical_x.mask
    elif case == "empty":
        n, masks, xbar = 10, [], 0
    elif case == "xbar-one-bit":
        n, masks, xbar = 8, [], 0b1
    else:
        n, masks, xbar = _generators(case)
    table = build(n, [xbar] + masks)
    ref = count_table_reference(n, masks, xbar)
    rank = len(gf2.reduce_basis([xbar] + masks))
    assert table.dtype == np.min_scalar_type(1 << (n - rank))
    assert np.array_equal(table.reshape(ref.shape), ref)


def test_cost_rule_picks_the_coset_build_for_xshor_like_codes(monkeypatch):
    coset_calls = []
    build = _kernels._coset_table
    monkeypatch.setattr(_kernels, "_coset_table",
                        lambda n, gens: coset_calls.append(n) or build(n, gens))
    for coloring in (family_rotated_surface(3), family_x_shor(3, 3),
                     family_rotated_surface(5), family_x_shor(4, 5)):
        code = build_code(coloring)
        count_table(code.n, [s.mask for s in code.x_stabilizers], code.logical_x.mask)
    assert coset_calls == [20]


def test_xshor5_table_is_exact():
    # the largest table the exact backend builds (n=25, r=20)
    code = build_code(family_x_shor(5, 5))
    n, r = code.n, len(code.x_stabilizers)
    counts = count_table(n, [s.mask for s in code.x_stabilizers], code.logical_x.mask)
    assert counts.shape == (1 << r, 2, n + 1)
    assert np.all(counts.sum(axis=2) == 1 << (n - r - 1))
    assert counts.sum(axis=(0, 1)).tolist() == [math.comb(n, w) for w in range(n + 1)]
    assert counts.dtype == np.uint8  # exact integers, 55 MB


def test_xshor5_coset_build_equals_dual():
    # the largest code the coset build is claimed for; the dual is the reference
    code = build_code(family_x_shor(5, 5))
    gens = [code.logical_x.mask] + [s.mask for s in code.x_stabilizers]
    assert np.array_equal(_kernels._coset_table(code.n, gens),
                          _kernels._dual_table(code.n, gens))


def test_backend_label():
    assert KERNEL_BACKEND == "fallback"
