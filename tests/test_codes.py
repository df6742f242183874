import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compasscoh import (Coloring, InvalidCodeError, PauliSupport, build_code,
                        family_rotated_surface, family_x_shor, family_z_shor,
                        family_z_stacked, load_coloring, random_coloring,
                        save_coloring, validate)
from compasscoh import codes
from compasscoh.codes import XCUT, ZCUT, CompassCode, coloring_from_dict, coloring_to_dict
from compasscoh.exact import get_backend

from oracles import validate_reference


def colorings(max_d=5):
    """Random colorings with odd d_z."""
    return st.tuples(
        st.integers(1, max_d),
        st.sampled_from([1, 3, 5]),
        st.randoms(use_true_random=False),
    ).map(lambda t: Coloring(
        t[0], t[1],
        tuple(tuple(XCUT if t[2].random() < 0.5 else ZCUT for _ in range(t[1] - 1))
              for _ in range(t[0] - 1))))


class TestColoring:
    def test_rejects_even_dz(self):
        with pytest.raises(InvalidCodeError):
            Coloring(3, 4, tuple(tuple(ZCUT for _ in range(3)) for _ in range(2)))
        with pytest.raises(InvalidCodeError):
            family_z_shor(3, 4)

    def test_rejects_malformed_cells(self):
        with pytest.raises(InvalidCodeError):
            Coloring(3, 3, ((ZCUT, ZCUT),))  # missing a row
        with pytest.raises(InvalidCodeError):
            Coloring(3, 3, ((ZCUT,), (ZCUT,)))  # short row
        with pytest.raises(InvalidCodeError):
            Coloring(3, 3, (("Q", ZCUT), (ZCUT, ZCUT)))

    def test_empty_grid_for_one_dimensional_codes(self):
        assert family_z_shor(1, 3).cells == ()
        assert family_rotated_surface(1).cells == ()


class TestFamilies:
    def test_z_shor_5x5_all_zcut(self):
        col = family_z_shor(5, 5)
        assert all(cell == ZCUT for row in col.cells for cell in row)
        assert len(col.cells) == 4 and len(col.cells[0]) == 4

    def test_x_shor_5x5_all_xcut(self):
        col = family_x_shor(5, 5)
        assert all(cell == XCUT for row in col.cells for cell in row)

    def test_rotated_surface_checkerboard(self):
        col = family_rotated_surface(3)
        assert col.cells == ((XCUT, ZCUT), (ZCUT, XCUT))
        assert col.x_fraction == 0.5

    def test_rotated_surface_rejects_even(self):
        with pytest.raises(InvalidCodeError):
            family_rotated_surface(4)

    @pytest.mark.parametrize("l,h,frac", [(7, 2, 0.5), (7, 3, 1 / 3)])
    def test_z_stacked_xcut_fraction(self, l, h, frac):
        assert family_z_stacked(l, h).x_fraction == pytest.approx(frac)

    def test_z_stacked_h1_is_x_shor(self):
        assert family_z_stacked(5, 1) == family_x_shor(5, 5)

    def test_z_stacked_hl_is_z_shor(self):
        assert family_z_stacked(5, 5) == family_z_shor(5, 5)

    def test_z_stacked_rejects_bad_h(self):
        with pytest.raises(InvalidCodeError):
            family_z_stacked(5, 0)
        with pytest.raises(InvalidCodeError):
            family_z_stacked(5, 6)

    def test_random_endpoints(self, monkeypatch):
        def no_rng(*args):
            raise AssertionError("an RNG was seeded")
        monkeypatch.setattr(np.random, "SeedSequence", no_rng)
        assert random_coloring(3, 3, 0.0, 7) == family_z_shor(3, 3)
        assert random_coloring(3, 3, 1.0, 7) == family_x_shor(3, 3)

    def test_random_deterministic(self):
        a = random_coloring(5, 5, 0.4, 123)
        b = random_coloring(5, 5, 0.4, 123)
        assert a == b
        assert random_coloring(5, 5, 0.4, 124) != a

    def test_random_rejects_bad_density(self):
        with pytest.raises(InvalidCodeError):
            random_coloring(3, 3, 1.5, 0)

    @pytest.mark.parametrize("q_shor", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d_x,d_z", [(0, 3), (3, 0), (-1, 3), (3, -1), (3, 4)])
    def test_random_rejects_bad_grid_before_drawing(self, d_x, d_z, q_shor):
        # with and without the RNG, Coloring's own message, not NumPy's
        with pytest.raises(InvalidCodeError) as want:
            Coloring(d_x, d_z, ())
        with pytest.raises(InvalidCodeError) as got:
            random_coloring(d_x, d_z, q_shor, 1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("q_shor", [0.0, 0.5, 1.0])
    def test_random_rejects_negative_seed(self, q_shor):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            random_coloring(3, 3, q_shor, -1)

    @pytest.mark.parametrize("q_shor", [0.0, 1.0])
    @pytest.mark.parametrize("d_x,d_z", [(3, 3), (3, 5), (1, 5), (5, 1)])
    def test_random_edges_equal_the_drawn_coloring(self, d_x, d_z, q_shor):
        def drawn(seed):  # every cell compared with its own draw
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            draws = rng.random((d_x - 1, d_z - 1))
            cells = tuple(tuple(XCUT if draws[r, c] < q_shor else ZCUT
                                for c in range(d_z - 1)) for r in range(d_x - 1))
            return Coloring(d_x, d_z, cells)

        for seed in range(100):
            assert random_coloring(d_x, d_z, q_shor, seed) == drawn(seed)


class TestBuildCode:
    def test_z_shor_3x3_structure(self):
        code = build_code(family_z_shor(3, 3))
        assert sorted(s.weight for s in code.z_stabilizers) == [2] * 6
        assert sorted(s.weight for s in code.x_stabilizers) == [6, 6]
        assert {s.qubits for s in code.x_stabilizers} == {
            (0, 1, 3, 4, 6, 7), (1, 2, 4, 5, 7, 8)}

    def test_x_shor_3x3_structure(self):
        code = build_code(family_x_shor(3, 3))
        assert sorted(s.weight for s in code.x_stabilizers) == [2] * 6
        assert sorted(s.weight for s in code.z_stabilizers) == [6, 6]

    def test_repetition_code_from_single_row(self):
        code = build_code(Coloring(1, 3, ()))
        assert {s.qubits for s in code.x_stabilizers} == {(0, 1), (1, 2)}
        assert code.z_stabilizers == ()
        assert code.logical_z.qubits == (0, 1, 2)

    def test_z_stacked_glueing_stabilizers(self):
        code = build_code(family_z_stacked(7, 2))
        weights = sorted(s.weight for s in code.z_stabilizers)
        assert weights.count(2 * 7) == 3  # one weight-2l glue per block boundary

    @pytest.mark.parametrize("coloring", [
        Coloring(1, 1, ()), Coloring(1, 5, ()), Coloring(5, 1, ()), family_z_shor(3, 7),
        family_x_shor(5, 3), family_rotated_surface(7), family_z_stacked(9, 2),
        *(random_coloring(4, 5, q, seed) for q in (0.3, 0.7) for seed in range(3))])
    def test_x_check_count_without_a_build(self, coloring):
        assert coloring.num_x_checks == len(build_code.__wrapped__(coloring).x_stabilizers)

    def test_logicals(self):
        code = build_code(family_rotated_surface(5))
        assert code.logical_z.qubits == (0, 1, 2, 3, 4)
        assert code.logical_x.qubits == (0, 5, 10, 15, 20)
        assert not code.logical_z.commutes_with(code.logical_x)


def _copy(coloring: Coloring) -> Coloring:
    """An equal coloring that is another object, down to its cell rows."""
    return Coloring(coloring.d_x, coloring.d_z, tuple(list(row) for row in coloring.cells))


class TestBuildMemo:
    @pytest.mark.parametrize("coloring", [
        *(Coloring(3, 3, (cells[:2], cells[2:]))
          for cells in itertools.product((XCUT, ZCUT), repeat=4)),
        family_rotated_surface(5), family_x_shor(5, 5), family_z_stacked(5, 2)])
    def test_equal_colorings_share_one_code(self, coloring):
        code = build_code(coloring)
        assert build_code(_copy(coloring)) is code
        fresh = build_code.__wrapped__(_copy(coloring))
        assert fresh is not code and fresh == code and hash(fresh) == hash(code)

    def test_same_coloring_other_stabilizers_is_another_code(self):
        code = build_code(family_rotated_surface(3))
        # the same checks in another order: a valid code, with its own syndromes
        other = CompassCode(code.coloring, code.x_stabilizers[::-1],
                            code.z_stabilizers, code.logical_z, code.logical_x)
        assert validate(other).passed
        assert other != code and hash(other) == hash(code) == hash(code.coloring)
        backend = get_backend(code)
        other_backend = get_backend(other)
        assert other_backend is not backend
        assert other_backend.code is other and backend.code is code

    def test_memo_stays_within_its_bound(self):
        seeds = itertools.count()
        seen = set()
        while len(seen) <= codes.BUILD_CACHE_SIZE:
            coloring = random_coloring(5, 5, 0.5, next(seeds))
            seen.add(coloring)
            build_code(coloring)
            assert build_code.cache_info().currsize <= codes.BUILD_CACHE_SIZE
        assert build_code.cache_info().currsize == codes.BUILD_CACHE_SIZE


class TestValidate:
    @pytest.mark.parametrize("coloring", [
        family_z_shor(3, 3), family_x_shor(3, 5), family_rotated_surface(3),
        family_rotated_surface(5), family_z_stacked(5, 2), family_z_stacked(7, 3),
        Coloring(1, 5, ()), Coloring(4, 1, ()),
    ])
    def test_named_codes_pass(self, coloring):
        report = validate(build_code(coloring))
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_rsc3_counts(self):
        code = build_code(family_rotated_surface(3))
        report = validate(code)
        assert report.passed
        assert len(code.x_stabilizers) + len(code.z_stabilizers) == 8
        assert code.n == 9

    def test_z_stacked_5_2_counts(self):
        code = build_code(family_z_stacked(5, 2))
        assert len(code.x_stabilizers) + len(code.z_stabilizers) == 24
        assert code.n == 25

    def test_detects_commutation_violation(self):
        code = build_code(family_z_shor(3, 3))
        bad = code.__class__(
            coloring=code.coloring,
            x_stabilizers=code.x_stabilizers,
            z_stabilizers=(PauliSupport("Z", 9, 0b11),) + code.z_stabilizers[1:],
            logical_z=code.logical_z, logical_x=code.logical_x)
        report = validate(bad)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "X/Z stabilizers commute" in failed


def _reference_codes():
    """Every family at d = 3 to 41, 1 x d and d x 1 grids, and random 13x13
    colorings."""
    codes_ = {}
    for d in (3, 5, 9, 15, 21, 31, 41):
        codes_.update({f"rsc{d}": family_rotated_surface(d), f"xshor{d}": family_x_shor(d, d),
                       f"zshor{d}": family_z_shor(d, d), f"zstacked{d}-h2": family_z_stacked(d, 2),
                       f"zstacked{d}-h3": family_z_stacked(d, 3),
                       f"1x{d}": family_z_shor(1, d), f"{d}x1": family_z_shor(d, 1)})
    for q in (0.2, 0.5, 0.9):
        for seed in range(3):
            codes_[f"random13-q{q}-seed{seed}"] = random_coloring(13, 13, q, seed)
    return codes_


REFERENCE_CODES = _reference_codes()


def _replace(code, kind, i, mask):
    """``code`` with its i-th ``kind`` check's mask replaced, or appended at
    i = len."""
    stabs = list(code.x_stabilizers if kind == "X" else code.z_stabilizers)
    stabs[i:i + 1] = [PauliSupport(kind, code.n, mask)]
    field = "x_stabilizers" if kind == "X" else "z_stabilizers"
    return CompassCode(**{**vars(code), field: tuple(stabs)})


@st.composite
def broken_codes(draw):
    """A small code broken one of four ways: one bit of an X check flipped,
    one Z check XORed into another, an X check over random qubits added (so
    that a qubit may lie in three or more), or logical Z added to a Z check."""
    code = build_code(draw(colorings(max_d=7)))
    xs, zs, n = code.x_stabilizers, code.z_stabilizers, code.n
    ways = ["add-x"] + ["flip-x"] * bool(xs) + ["xor-z"] * (len(zs) > 1) + ["logical-z"] * bool(zs)
    way = draw(st.sampled_from(ways))
    if way == "flip-x":
        i = draw(st.integers(0, len(xs) - 1))
        return _replace(code, "X", i, xs[i].mask ^ 1 << draw(st.integers(0, n - 1)))
    if way == "xor-z":
        i, j = draw(st.lists(st.integers(0, len(zs) - 1), min_size=2, max_size=2, unique=True))
        return _replace(code, "Z", i, zs[i].mask ^ zs[j].mask)
    if way == "logical-z":
        i = draw(st.integers(0, len(zs) - 1))
        return _replace(code, "Z", i, zs[i].mask ^ code.logical_z.mask)
    return _replace(code, "X", len(xs), draw(st.integers(0, (1 << n) - 1)))


class TestValidateReference:
    """``validate`` gives the report of the all-pairs reference, check for
    check, on valid and broken codes."""

    @pytest.mark.parametrize("name", REFERENCE_CODES)
    def test_family_codes(self, name):
        code = build_code(REFERENCE_CODES[name])
        assert validate(code) == validate_reference(code)

    @given(broken_codes())
    @settings(max_examples=300, deadline=None)
    def test_broken_codes(self, code):
        assert validate(code) == validate_reference(code)

    def test_qubit_in_three_checks(self):
        # qubit 0 lies in X checks 0, 1 and 2
        code = build_code(family_z_shor(3, 3))
        bad = _replace(_replace(code, "X", 0, 0b11), "X", 1, 0b101)
        bad = _replace(bad, "X", 2, 0b1001)
        report = validate(bad)
        assert report == validate_reference(bad)
        assert not dict((c.name, c.passed) for c in report.checks)["each qubit in <= 2 X checks"]


@given(colorings())
@settings(max_examples=60, deadline=None)
def test_stabilizer_counts_from_coloring(coloring):
    code = build_code(coloring)
    n_xcut = sum(row.count(XCUT) for row in coloring.cells)
    n_zcut = sum(row.count(ZCUT) for row in coloring.cells)
    assert len(code.x_stabilizers) == (coloring.d_z - 1) + n_xcut
    assert len(code.z_stabilizers) == (coloring.d_x - 1) + n_zcut
    assert len(code.x_stabilizers) + len(code.z_stabilizers) == code.n - 1


@given(colorings())
@settings(max_examples=60, deadline=None)
def test_random_codes_validate(coloring):
    assert validate(build_code(coloring)).passed


@given(colorings())
@settings(max_examples=40, deadline=None)
def test_hadamard_duality(coloring):
    """Transposing the grid and swapping cut types swaps the X/Z structure."""
    if coloring.d_x % 2 == 0:
        return  # the dual grid needs odd d_z, i.e. odd original d_x
    dual = Coloring(
        coloring.d_z, coloring.d_x,
        tuple(tuple(XCUT if coloring.cells[r][c] == ZCUT else ZCUT
                    for r in range(coloring.d_x - 1))
              for c in range(coloring.d_z - 1)))
    code = build_code(coloring)
    dual_code = build_code(dual)

    def transpose(support, d_x, d_z):
        return frozenset((q % d_z) * d_x + q // d_z for q in support.qubits)

    x_sets = {transpose(s, coloring.d_x, coloring.d_z) for s in code.x_stabilizers}
    dual_z_sets = {frozenset(s.qubits) for s in dual_code.z_stabilizers}
    assert x_sets == dual_z_sets


def test_duality_named_pair():
    assert family_z_shor(5, 5).cells == tuple(
        tuple(ZCUT if c == XCUT else XCUT for c in row)
        for row in family_x_shor(5, 5).cells)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        col = random_coloring(4, 5, 0.5, 99)
        path = tmp_path / "code.json"
        save_coloring(col, path)
        assert load_coloring(path) == col

    def test_format_shape(self, tmp_path):
        path = tmp_path / "code.json"
        save_coloring(family_rotated_surface(3), path)
        data = json.loads(path.read_text())
        assert data["d_x"] == 3 and data["d_z"] == 3
        assert data["cells"] == [["X", "Z"], ["Z", "X"]]

    def test_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_coloring(family_z_stacked(5, 2), p1, meta={"seed": 1})
        save_coloring(family_z_stacked(5, 2), p2, meta={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_round_trip(self):
        col = family_x_shor(3, 5)
        assert coloring_from_dict(coloring_to_dict(col)) == col

    def test_malformed_dict(self):
        with pytest.raises(InvalidCodeError):
            coloring_from_dict({"d_x": 3})

    # sizes are taken as JSON integers and rows as lists, never converted:
    # int() read 3.7 as 3 and true as 1, and tuple() split a string row
    @pytest.mark.parametrize("data", [
        {"d_x": 3.7, "d_z": 3, "cells": [["X", "Z"], ["Z", "X"]]},
        {"d_x": True, "d_z": 3, "cells": []},
        {"d_x": 3, "d_z": 3, "cells": ["XZ", "ZX"]}])
    def test_malformed_file_refused(self, tmp_path, data):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidCodeError, match="^malformed code file: d_x and d_z must be "
                                                   "integers and cells a list of lists$"):
            load_coloring(path)
        # what save_coloring writes still loads
        col = family_z_stacked(5, 2)
        save_coloring(col, path, meta={"seed": 1})
        assert load_coloring(path) == col
