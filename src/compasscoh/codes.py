"""2D compass codes from cell colorings.

A compass code on a ``d_x`` x ``d_z`` qubit grid is specified by coloring
each cell of the ``(d_x-1) x (d_z-1)`` dual grid either XCut or ZCut.  An
XCut cell severs the vertical X-check strip passing through it (between its
two qubit columns), a ZCut cell severs the horizontal Z-check strip.  The
named families (Z-Shor, X-Shor, rotated surface, Z-stacked Shor, random
colorings of X-check density ``q_shor``) are all specific colorings.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import gf2

XCUT = "X"
ZCUT = "Z"

# Codes ``build_code`` keeps, the least recently used dropped first.  A 3x3
# grid has 16 colorings, so nearly every code of a d=3 ensemble cell is a
# hit.  A 5x5 code and its coloring hold about 4.2 KB (tracemalloc), so a
# memo full of them holds about 1.1 MB.
BUILD_CACHE_SIZE = 256


class InvalidCodeError(ValueError):
    """Raised for malformed colorings or corrupt code data."""


def _check_grid(d_x: int, d_z: int) -> None:
    if d_x < 1 or d_z < 1:
        raise InvalidCodeError(f"grid must be >= 1x1, got {d_x}x{d_z}")
    if d_z % 2 == 0:
        raise InvalidCodeError(f"d_z must be odd, got {d_z}")


def qubit_index(r: int, c: int, d_z: int) -> int:
    """Row-major qubit index of grid position ``(r, c)``."""
    return r * d_z + c


@dataclass(frozen=True)
class Coloring:
    """Cell coloring of the dual grid; rejects even ``d_z``."""

    d_x: int
    d_z: int
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        _check_grid(self.d_x, self.d_z)
        cells = tuple(tuple(row) for row in self.cells)
        if self.d_x == 1 or self.d_z == 1:  # empty grid, canonically ()
            if any(row for row in cells):
                raise InvalidCodeError("1-row/1-column grids have no cells")
            cells = ()
        object.__setattr__(self, "cells", cells)
        if cells == () and (self.d_x == 1 or self.d_z == 1):
            return
        if len(cells) != self.d_x - 1:
            raise InvalidCodeError(
                f"expected {self.d_x - 1} cell rows, got {len(cells)}")
        for row in cells:
            if len(row) != self.d_z - 1:
                raise InvalidCodeError(
                    f"expected {self.d_z - 1} cells per row, got {len(row)}")
            for cell in row:
                if cell not in (XCUT, ZCUT):
                    raise InvalidCodeError(f"cell must be {XCUT!r} or {ZCUT!r}, got {cell!r}")

    @property
    def n(self) -> int:
        return self.d_x * self.d_z

    @property
    def num_x_checks(self) -> int:
        """r, the X checks ``build_code`` makes: a strip per pair of adjacent
        qubit columns, split once more by each XCut cell."""
        return self.d_z - 1 + sum(row.count(XCUT) for row in self.cells)

    @property
    def num_cells(self) -> int:
        return (self.d_x - 1) * (self.d_z - 1)

    @property
    def x_fraction(self) -> float:
        """Realized XCut fraction (the code's q_shor); 0.0 for an empty grid."""
        if self.num_cells == 0:
            return 0.0
        return sum(row.count(XCUT) for row in self.cells) / self.num_cells


@dataclass(frozen=True)
class PauliSupport:
    """Single-type Pauli operator as a qubit bit mask."""

    kind: str
    n: int
    mask: int

    def __post_init__(self):
        if self.kind not in ("X", "Z"):
            raise InvalidCodeError(f"kind must be 'X' or 'Z', got {self.kind!r}")
        if not 0 <= self.mask < (1 << self.n):
            raise InvalidCodeError("support mask out of range")

    @classmethod
    def from_qubits(cls, kind: str, n: int, qubits: Iterable[int]) -> "PauliSupport":
        mask = 0
        for q in qubits:
            mask |= 1 << q
        return cls(kind, n, mask)

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def commutes_with(self, other: "PauliSupport") -> bool:
        if self.kind == other.kind:
            return True
        return (self.mask & other.mask).bit_count() % 2 == 0

    def to_bits(self) -> str:
        """Bit string, qubit 0 leftmost."""
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.n))


@dataclass(frozen=True)
class CompassCode:
    """A coloring's stabilizers and logicals, as ``build_code`` makes them.

    Equality compares every field, so a hand-built code with another
    code's coloring but other stabilizers is a different code.  The hash is
    the coloring's alone: equal codes have equal colorings, so it agrees
    with equality, and a lookup (``exact.get_backend``) hashes a few cells
    instead of every support.
    """

    coloring: Coloring
    x_stabilizers: tuple[PauliSupport, ...]
    z_stabilizers: tuple[PauliSupport, ...]
    logical_z: PauliSupport
    logical_x: PauliSupport

    @property
    def n(self) -> int:
        return self.coloring.n

    @property
    def d_x(self) -> int:
        return self.coloring.d_x

    @property
    def d_z(self) -> int:
        return self.coloring.d_z

    def __hash__(self) -> int:
        return hash(self.coloring)


def _segments(length: int, cut_after: set[int]) -> list[tuple[int, int]]:
    """Maximal uncut runs of 0..length-1; a cut sits between i and i+1."""
    segs = []
    start = 0
    for i in range(length - 1):
        if i in cut_after:
            segs.append((start, i))
            start = i + 1
    segs.append((start, length - 1))
    return segs


@functools.lru_cache(maxsize=BUILD_CACHE_SIZE)
def build_code(coloring: Coloring) -> CompassCode:
    """Construct the compass code of a coloring.

    X stabilizers live on vertical strips between adjacent qubit columns,
    split into segments wherever an XCut cell sits; Z stabilizers are the
    row/column mirror image with ZCut cells.  The logical Z acts on qubit
    row 0, the logical X on qubit column 0.

    Memoised: equal colorings get the same code object, kept for the last
    ``BUILD_CACHE_SIZE`` colorings asked for.  The code and its supports
    are frozen, so every caller can share it; ``build_code.__wrapped__``
    builds a fresh one.
    """
    d_x, d_z = coloring.d_x, coloring.d_z
    n = coloring.n
    cells = coloring.cells

    x_stabs = []
    for c in range(d_z - 1):
        cuts = {r for r in range(d_x - 1) if cells[r][c] == XCUT}
        for r1, r2 in _segments(d_x, cuts):
            qubits = [qubit_index(r, cc, d_z)
                      for r in range(r1, r2 + 1) for cc in (c, c + 1)]
            x_stabs.append(PauliSupport.from_qubits("X", n, qubits))

    z_stabs = []
    for r in range(d_x - 1):
        cuts = {c for c in range(d_z - 1) if cells[r][c] == ZCUT}
        for c1, c2 in _segments(d_z, cuts):
            qubits = [qubit_index(rr, c, d_z)
                      for c in range(c1, c2 + 1) for rr in (r, r + 1)]
            z_stabs.append(PauliSupport.from_qubits("Z", n, qubits))

    logical_z = PauliSupport.from_qubits("Z", n, [qubit_index(0, c, d_z) for c in range(d_z)])
    logical_x = PauliSupport.from_qubits("X", n, [qubit_index(r, 0, d_z) for r in range(d_x)])
    return CompassCode(coloring, tuple(x_stabs), tuple(z_stabs), logical_z, logical_x)


# ---------------------------------------------------------------------------
# Named families

def _uniform(d_x: int, d_z: int, cell: str) -> Coloring:
    cells = tuple(tuple(cell for _ in range(d_z - 1)) for _ in range(d_x - 1))
    return Coloring(d_x, d_z, cells)


def family_z_shor(d_x: int, d_z: int) -> Coloring:
    """All-ZCut coloring: weight-2 Z checks, full-strip X checks."""
    return _uniform(d_x, d_z, ZCUT)


def family_x_shor(d_x: int, d_z: int) -> Coloring:
    """All-XCut coloring: weight-2 X checks, full-strip Z checks."""
    return _uniform(d_x, d_z, XCUT)


def family_rotated_surface(l: int) -> Coloring:
    """Checkerboard coloring on an l x l grid, XCut anchored at cell (0, 0)."""
    if l % 2 == 0:
        raise InvalidCodeError(f"rotated surface size must be odd, got {l}")
    cells = tuple(tuple(XCUT if (r + c) % 2 == 0 else ZCUT for c in range(l - 1))
                  for r in range(l - 1))
    return Coloring(l, l, cells)


def family_z_stacked(l: int, h: int) -> Coloring:
    """Z-stacked Shor coloring C_{l,h} on an l x l grid.

    Qubit rows split into floor(l/h) blocks of height h followed by
    ``l mod h`` single rows; cell rows on block boundaries are all-XCut
    (leaving the glueing full-row Z stabilizers of weight 2l uncut) and
    rows inside a block are all-ZCut.  h=1 recovers the square X-Shor
    code, h=l the square Z-Shor code.
    """
    if l % 2 == 0:
        raise InvalidCodeError(f"l must be odd, got {l}")
    if not 1 <= h <= l:
        raise InvalidCodeError(f"block height must satisfy 1 <= h <= l, got {h}")
    full_rows = (l // h) * h

    def boundary(r: int) -> bool:
        if r + 1 < full_rows:
            return (r + 1) % h == 0
        return True  # boundaries around and between the leftover single rows

    cells = tuple(tuple(XCUT if boundary(r) else ZCUT for _ in range(l - 1))
                  for r in range(l - 1))
    return Coloring(l, l, cells)


def _check_draw(q_shor: float, seed: int) -> None:
    """Refuse a density outside [0, 1] or a seed ``SeedSequence`` would refuse."""
    if not 0.0 <= q_shor <= 1.0:
        raise InvalidCodeError(f"q_shor must be in [0, 1], got {q_shor}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def random_coloring(d_x: int, d_z: int, q_shor: float, seed: int) -> Coloring:
    """IID coloring: each cell is XCut with probability ``q_shor``.

    Cell (r, c) is XCut when the (r, c) entry of ``rng.random((d_x - 1,
    d_z - 1))``, from an RNG seeded by ``SeedSequence(seed)``, is below
    ``q_shor``.  Every draw lies in [0, 1), so at q_shor 0 or 1 the coloring
    is all-ZCut or all-XCut whatever the seed, and no RNG is made; the seed
    is still checked, as ``SeedSequence`` would check it.
    """
    _check_draw(q_shor, seed)
    _check_grid(d_x, d_z)
    if q_shor in (0.0, 1.0):
        return _uniform(d_x, d_z, XCUT if q_shor else ZCUT)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.random((d_x - 1, d_z - 1))
    cells = tuple(tuple(XCUT if draws[r, c] < q_shor else ZCUT for c in range(d_z - 1))
                  for r in range(d_x - 1))
    return Coloring(d_x, d_z, cells)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def qubit_checks(n: int, supports: Iterable[PauliSupport]) -> list[list[int]]:
    """Per qubit, the indices of the ``supports`` that hold it, ascending."""
    checks = [[] for _ in range(n)]
    for k, support in enumerate(supports):
        mask = support.mask
        while mask:
            checks[(mask & -mask).bit_length() - 1].append(k)
            mask &= mask - 1
    return checks


def validate(code: CompassCode) -> ValidationReport:
    """Check every structural invariant of a compass code over exact F2 arithmetic."""
    checks = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    n = code.n
    stabs = code.x_stabilizers + code.z_stabilizers
    add("d_z odd", code.d_z % 2 == 1, f"d_z={code.d_z}")
    add("stabilizer count is n-1", len(stabs) == n - 1,
        f"{len(stabs)} generators on {n} qubits")
    add("stabilizer supports nonempty", all(s.mask for s in stabs))
    add("stabilizer weights even", all(s.weight % 2 == 0 for s in stabs))
    add("logical Z weight odd", code.logical_z.weight % 2 == 1,
        f"weight {code.logical_z.weight}")
    add("logical supports nonempty", code.logical_z.mask and code.logical_x.mask)
    # a pair toggles at each qubit it shares: those left share an odd number
    x_of, z_of = qubit_checks(n, code.x_stabilizers), qubit_checks(n, code.z_stabilizers)
    odd = set()
    for xs, zs in zip(x_of, z_of):
        odd.symmetric_difference_update((x, z) for x in xs for z in zs)
    add("X/Z stabilizers commute", not odd)
    add("logical Z commutes with X checks",
        all(code.logical_z.commutes_with(x) for x in code.x_stabilizers))
    add("logical X commutes with Z checks",
        all(code.logical_x.commutes_with(z) for z in code.z_stabilizers))
    add("logicals anticommute", not code.logical_z.commutes_with(code.logical_x))

    add("each qubit in <= 2 X checks", max(map(len, x_of), default=0) <= 2)
    add("each qubit in <= 2 Z checks", max(map(len, z_of), default=0) <= 2)

    x_basis = gf2.reduce_basis([s.mask for s in code.x_stabilizers])
    z_basis = gf2.reduce_basis([s.mask for s in code.z_stabilizers])
    add("X stabilizers independent", len(x_basis) == len(code.x_stabilizers))
    add("Z stabilizers independent", len(z_basis) == len(code.z_stabilizers))
    add("logical Z outside Z-stabilizer span",
        not gf2.in_span(code.logical_z.mask, z_basis))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# File format

def coloring_to_dict(coloring: Coloring) -> dict:
    return {"d_x": coloring.d_x, "d_z": coloring.d_z,
            "cells": [list(row) for row in coloring.cells]}


def coloring_from_dict(data: dict) -> Coloring:
    """The coloring a code file's JSON object holds, taken as written:
    ``d_x`` and ``d_z`` integers (not booleans), ``cells`` a list of lists."""
    try:
        d_x, d_z, cells = data["d_x"], data["d_z"], data["cells"]
        if not (type(d_x) is type(d_z) is int and type(cells) is list
                and all(type(row) is list for row in cells)):
            raise TypeError("d_x and d_z must be integers and cells a list of lists")
        return Coloring(d_x, d_z, tuple(map(tuple, cells)))
    except (KeyError, TypeError) as exc:
        raise InvalidCodeError(f"malformed code file: {exc}") from exc


def save_coloring(coloring: Coloring, path, meta: dict | None = None) -> None:
    data = coloring_to_dict(coloring)
    if meta is not None:
        data["meta"] = meta
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_coloring(path) -> Coloring:
    with open(path) as fh:
        return coloring_from_dict(json.load(fh))
