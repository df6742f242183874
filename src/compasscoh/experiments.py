"""Threshold-estimation harness: sweeps, crossing detection, ensembles.

A sweep evaluates a channel source over a (distance, theta) grid and emits
plot-ready rows.  A source has ``check(distances)``, which raises on a
distance it cannot evaluate, and ``rows(distance, thetas_over_pi)``;
``sweep`` checks the whole distance list before the first row, so a bad
last distance fails fast; every size comes before any other rule, so an
oversized distance exits 2.  The exact sources also have ``channel`` and
``distribution`` at (distance, theta), from which crossings are refined.

``find_crossings`` automates the bounding procedure of reading threshold
estimates off intersecting distance curves: every sign change of
metric(d_next) - metric(d) between grid points where the two curves differ
is a crossing (a tie carries no sign), refined by bisection when the source
can be re-evaluated exactly, and the overall (lower, upper) bounds bracket
every per-pair crossing.  Angles are exchanged as theta/pi everywhere at
this interface.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from . import exact, families
from .codes import _check_draw, _check_grid, build_code, random_coloring
from .exact import MIN_WEIGHT, TooLargeError, _check_recovery, get_backend
from .ptm import LogicalPTM, diamond_avg, kappa, r1

REFINE_TOL_OVER_PI = 0.001


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One (distance, theta) sweep cell; the fields are the CSV columns, in
    order, and those defaulting to None are optional (an empty cell)."""

    family: str
    dx: int
    dz: int
    h: int | None = None
    q_shor: float | None = None
    seed: int | None = None
    theta_over_pi: float
    provenance: str
    epsilon: float
    delta: float
    kappa: float
    r1: float
    r1_stderr: float | None = None
    diamond: float | None = None
    diamond_stderr: float | None = None
    n_codes: int | None = None
    n_samples: int | None = None

    @property
    def distance(self) -> int:
        """Series-ordering parameter: the grown dimension of the family."""
        return self.dz if self.family == families.REPETITION else self.dx

    def metric(self, name: str) -> float:
        if name == "r1":
            return self.r1
        if name == "diamond":
            if self.diamond is None:
                raise ValueError("row has no diamond value")
            return self.diamond
        raise ValueError(f"metric must be 'r1' or 'diamond', got {name!r}")


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def series(self) -> dict[int, list[SweepRow]]:
        """Rows per distance, by theta.  A theta may not repeat within one
        distance; rows that repeat it and differ in family, h, q_shor or
        seed are two curves, and the error names the first such field."""
        out: dict[int, list[SweepRow]] = {}
        for row in self.rows:
            out.setdefault(row.distance, []).append(row)
        for d, rows in out.items():
            rows.sort(key=lambda r: r.theta_over_pi)
            for a, b in zip(rows, rows[1:]):
                if b.theta_over_pi <= a.theta_over_pi:
                    for name in ("family", "h", "q_shor", "seed"):
                        if getattr(a, name) != getattr(b, name):
                            raise ValueError(f"distance {d} has two curves at theta/pi "
                                             f"{a.theta_over_pi!r}: {name} "
                                             f"{getattr(a, name)!r} and {getattr(b, name)!r}")
                    raise ValueError("theta grid must be strictly increasing per series")
        return out


@dataclass(frozen=True)
class PairCrossing:
    d_low: int
    d_high: int
    lo_over_pi: float
    hi_over_pi: float


@dataclass(frozen=True)
class ThresholdEstimate:
    """Crossing-derived threshold bounds; one-sided when the swept window
    saw no intersections (the nearest grid point where the curves differ
    bounds the threshold instead)."""

    metric: str
    crossings: tuple[PairCrossing, ...]
    lower_over_pi: float | None
    upper_over_pi: float | None

    @property
    def one_sided(self) -> bool:
        return not self.crossings


# ---------------------------------------------------------------------------
# Channel sources

def _exact_rows(provenance: str, thetas_over_pi, cell, **labels) -> list[SweepRow]:
    """Rows of exactly evaluated cells: ``cell(theta)`` gives a cell's channel
    and its distribution, and without a distribution diamond stays empty."""
    out = []
    for top in thetas_over_pi:
        ch, dist = cell(top * math.pi)
        out.append(SweepRow(theta_over_pi=top, provenance=provenance, epsilon=ch.epsilon,
                            delta=ch.delta, kappa=kappa(ch), r1=r1(ch),
                            diamond=None if dist is None else diamond_avg(dist), **labels))
        del dist  # so that the next cell's product is built without this one's arrays
    return out


def _check_distances(distances, size, rule) -> None:
    """Refuse every distance d that ``size(d)`` refuses, then every one that
    ``rule(d)`` refuses: an input with both faults exits 2, as an oversized
    one must."""
    for d in distances:
        size(d)
    for d in distances:
        rule(d)


def _square_qubits(d: int) -> None:
    exact.check_qubits(d * d, f" (d={d})")


def _metric_fn(source, metric: str):
    """``(distance, theta_over_pi) -> metric`` from the source's exact
    ``channel``/``distribution``; refines crossings."""
    def value(distance: int, theta_over_pi: float) -> float:
        theta = theta_over_pi * math.pi
        if metric == "r1":
            return r1(source.channel(distance, theta))
        dist = source.distribution(distance, theta)
        if dist is None:  # the product form was refused
            raise TooLargeError("diamond refinement unavailable for this family size")
        return diamond_avg(dist)
    return value


class AnalyticFamilySource:
    """Closed-form family evaluated at square (or 1 x l) distances."""

    def __init__(self, family: str, recovery: str = MIN_WEIGHT, h: int | None = None):
        self.family = family
        self.h = h
        self.entry = families.FAMILIES.get(family)
        if self.entry is None:
            raise ValueError(f"unknown analytic family {family!r}")
        if ("h" in self.entry.params) != (h is not None):
            raise ValueError(f"{family} source needs a block height h" if h is None
                             else f"{family} source takes no block height h")
        self.recovery = self.entry.check_recovery(recovery)

    def _params(self, distance: int) -> tuple[int, ...]:
        return tuple(self.h if name == "h" else distance for name in self.entry.params)

    def channel(self, distance: int, theta: float) -> LogicalPTM:
        return self.entry.channel(*self._params(distance), theta, self.recovery)

    def distribution(self, distance: int, theta: float):
        try:
            return self.entry.distribution(*self._params(distance), theta, self.recovery)
        except TooLargeError:
            return None  # product form too large for exact convolution

    def check(self, distances) -> None:
        """Refuse every distance whose repetition code's classes are over
        the budget, then every one the family refuses."""
        _check_distances(distances, families.check_classes,
                         lambda d: self.entry.check(*self._params(d)))

    def rows(self, distance: int, thetas_over_pi) -> list[SweepRow]:
        dx, dz = self.entry.dims(distance)
        return _exact_rows("analytic", thetas_over_pi,
                           lambda theta: (self.channel(distance, theta),
                                          self.distribution(distance, theta)),
                           family=self.family, dx=dx, dz=dz, h=self.h)


class CodeSource:
    """Exact-backend source over the d x d codes ``builder(d)`` builds."""

    def __init__(self, name: str, builder, recovery: str = MIN_WEIGHT):
        self.family = name
        self.builder = builder
        self.recovery = _check_recovery(recovery)

    def channel(self, distance: int, theta: float) -> LogicalPTM:
        return get_backend(self.builder(distance)).channel(theta, self.recovery)

    def distribution(self, distance: int, theta: float):
        return get_backend(self.builder(distance)).distribution(theta, self.recovery)

    def check(self, distances) -> None:
        """Refuse every oversized d x d code, then every one the builder
        refuses, with the builder's own message."""
        _check_distances(distances, _square_qubits, self.builder)

    def rows(self, distance: int, thetas_over_pi) -> list[SweepRow]:
        code = self.builder(distance)
        backend = get_backend(code)  # once per distance, not per row

        def cell(theta):
            dist = backend.distribution(theta, self.recovery)
            return dist.channel(), dist
        return _exact_rows("exact", thetas_over_pi, cell, family=self.family, dx=code.d_x,
                           dz=code.d_z, q_shor=code.coloring.x_fraction)


def sweep(source, thetas_over_pi, distances) -> SweepTable:
    """One row per (distance, theta), each distance checked by the source
    before the first row; deterministic given the source seeds."""
    thetas = [float(t) for t in thetas_over_pi]
    distances = list(distances)  # read once: it may be an iterator
    if not thetas or not distances:
        raise ValueError("sweep needs a non-empty theta grid and distance list")
    source.check(distances)
    return SweepTable(tuple(row for d in distances for row in source.rows(d, thetas)))


# ---------------------------------------------------------------------------
# Crossing detection

def _bisect_crossing(diff, lo: float, hi: float, f_lo: float,
                     tol: float) -> tuple[float, float]:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid, mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


def find_crossings(table: SweepTable, metric: str = "r1",
                   source=None) -> ThresholdEstimate:
    """Locate metric crossings between consecutive distance curves.

    For each pair of curves, g = metric(d_high) - metric(d_low) is read only
    at the grid points where g != 0: a tie (every channel is the identity at
    theta = 0) carries no sign.  A crossing is each pair of consecutive such
    points whose signs differ.  With a ``source`` to re-evaluate (``channel``
    and ``distribution``) it is refined by bisection to width <=
    REFINE_TOL_OVER_PI; sampled tables keep the two points as the crossing
    interval.  Bounds are the (min, max) over every crossing.  Without any
    crossing the estimate is one-sided from the points where the curves
    differ: the smallest theta is the upper bound when g > 0 at all of them,
    the largest the lower bound when g < 0 at all of them, and there is no
    bound otherwise.
    """
    series = table.series()
    distances = sorted(series)
    if len(distances) < 2:
        raise ValueError("crossing detection needs at least two distances")
    grids = [tuple(r.theta_over_pi for r in series[d]) for d in distances]
    if len(set(grids)) != 1:
        raise ValueError("all distance series must share one theta grid")

    refine = _metric_fn(source, metric) if source is not None else None
    crossings: list[PairCrossing] = []
    kept: list[tuple[float, float]] = []  # (theta, g) wherever a pair differs
    for d1, d2 in zip(distances, distances[1:]):
        g = [b.metric(metric) - a.metric(metric) for a, b in zip(series[d1], series[d2])]
        points = [(t, x) for t, x in zip(grids[0], g) if x != 0.0]
        for (lo, f_lo), (hi, f_hi) in zip(points, points[1:]):
            if (f_lo < 0.0) != (f_hi < 0.0):
                if refine is not None:
                    diff = lambda t: refine(d2, t) - refine(d1, t)
                    lo, hi = _bisect_crossing(diff, lo, hi, f_lo, REFINE_TOL_OVER_PI)
                crossings.append(PairCrossing(d1, d2, lo, hi))
        kept += points

    if crossings:
        return ThresholdEstimate(metric, tuple(crossings),
                                 min(c.lo_over_pi for c in crossings),
                                 max(c.hi_over_pi for c in crossings))
    if kept and all(x > 0.0 for _, x in kept):  # worse with distance: threshold below
        return ThresholdEstimate(metric, (), None, min(t for t, _ in kept))
    if kept and all(x < 0.0 for _, x in kept):  # suppressed: threshold above
        return ThresholdEstimate(metric, (), max(t for t, _ in kept), None)
    return ThresholdEstimate(metric, (), None, None)


# ---------------------------------------------------------------------------
# Monte Carlo estimators

@dataclass(frozen=True)
class SampleEstimate:
    mean_r1: float
    r1_stderr: float
    mean_diamond: float
    diamond_stderr: float


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1) / sqrt(len(x))`` of at least two
    values, with NumPy's bits (the same pairwise sums and IEEE operations)
    but without its per-call overhead."""
    n = len(x)
    mean = np.add.reduce(x) / n
    dev = x - mean
    dev *= dev
    return float(mean), math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)


# Bytes ``sample_distribution`` holds per sample beyond the distribution's
# inverse CDF (tracemalloc, 32.0 at 2**16 and 2**20 samples on codes with
# r = 4 to 20, strides 1 and 16): the uniforms and the drawn indices, then
# the angles at those indices and the scores' temporaries.  The blocks a
# chunk of draws recomputes are one leaf, a term of the evaluation's bytes.
_SAMPLE_BYTES = 32
# Bytes ``ensemble_estimate`` holds per code of a cell, in-process or
# through a pool (tracemalloc at 10**4 and 10**5 codes: 192 to 202
# in-process, the per-code results; 318 to 331 through a 2-worker pool,
# which also holds a future per chunk of codes).  No seed is held: each
# task makes its own from (cell seed, code index).
_CODE_BYTES = 332


def _check_ensemble_size(n_codes: int, n_samples: int | None) -> None:
    """Raise TooLargeError when one cell's ``n_codes`` or one code's
    ``n_samples`` draws would hold more than ``exact.MAX_HELD_BYTES``."""
    for count, what, each in ((n_samples, "samples", _SAMPLE_BYTES),
                              (n_codes, "codes", _CODE_BYTES)):
        if count is not None:
            exact.check_budget(count * each, f"{count} {what} hold", f" ({each} a {what[:-1]})")


def sample_distribution(dist, n_samples: int, seed) -> SampleEstimate:
    """Monte Carlo estimate of (r1, diamond) from an exact distribution.

    Draws syndromes with probability p_s and scores (1 - cos theta_s)/3 and
    2|sin theta_s|; reports sample means and standard errors of the mean.
    ``dist`` is an ``exact.AngleDistribution``, from the exact backend or a
    closed-form family; angles are read only at the drawn indices.  Its
    ``cdf`` is the kept ``exact.InverseCDF``, which raises ValueError where
    ``Generator.choice`` does: built by its first sampler and searched by
    every sampler with its own uniforms from ``rng.random``, so the draws
    are those of ``rng.choice(len(p), n_samples, p=p / p.sum())``.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    rng = np.random.default_rng(seed)
    idx = dist.cdf.search(rng.random(n_samples))
    theta_s = np.asarray(dist.gather(dist.column_theta_s, idx), dtype=float)
    mean_r1, r1_stderr = _mean_stderr((1.0 - np.cos(theta_s)) / 3.0)
    mean_diamond, diamond_stderr = _mean_stderr(2.0 * np.abs(np.sin(theta_s)))
    return SampleEstimate(mean_r1, r1_stderr, mean_diamond, diamond_stderr)


def _ensemble_task(d_x, d_z, q_shor, theta, recovery, n_samples, seed, i):
    """Code i of a cell: its code and sample seeds are the two words of
    ``SeedSequence(seed).spawn(i + 1)[i]``, made from (seed, i) alone."""
    words = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2)
    code_seed, sample_seed = words.tolist()
    backend = get_backend(build_code(random_coloring(d_x, d_z, q_shor, code_seed)))
    dist = backend.distribution(theta, recovery)
    if n_samples is None:
        return r1(dist.channel()), diamond_avg(dist)
    est = sample_distribution(dist, n_samples, sample_seed)
    return est.mean_r1, est.mean_diamond


def ensemble_estimate(d_x: int, d_z: int, q_shor: float, n_codes: int,
                      theta: float, seed: int, recovery: str = MIN_WEIGHT,
                      n_samples: int | None = None, run=map) -> SampleEstimate:
    """Mean logical metrics over random colorings of density ``q_shor``.

    Code i gets its own seed stream, the i-th child of ``SeedSequence(seed)``,
    made by its task from (seed, i) alone, so results do not depend on
    execution order and no seed is held per code; ``run(task, indices)``
    maps the per-code task, which holds the cell's constants once, over the
    code indices and yields the results in order, like the builtin ``map``
    (in-process, one at a time) or a process pool's ``map``.  Per-code
    metrics are exact when ``n_samples`` is None, otherwise Monte Carlo;
    the reported stderr is the ensemble standard error of the per-code
    means.  Raises TooLargeError before any seed is made when the codes
    (``_CODE_BYTES`` each) or one code's draws would hold more than
    ``exact.MAX_HELD_BYTES``.
    """
    _check_recovery(recovery)
    if n_codes < 1:
        raise ValueError("need at least one code")
    _check_ensemble_size(n_codes, n_samples)
    task = functools.partial(_ensemble_task, d_x, d_z, q_shor, theta, recovery, n_samples, seed)
    r1s, dias = (np.array(col) for col in zip(*run(task, range(n_codes))))

    def sem(vals):
        if len(vals) < 2 or vals.max() == vals.min():
            return 0.0
        return _mean_stderr(vals)[1]

    return SampleEstimate(float(r1s.mean()), sem(r1s), float(dias.mean()), sem(dias))


class EnsembleSource:
    """Sampled random-coloring source for sweeps (square d x d grids); its
    codes run through its ``run``, ``map`` unless set to a pool's ``map``,
    as in ``ensemble_estimate``."""

    def __init__(self, q_shor: float, n_codes: int, seed: int,
                 recovery: str = MIN_WEIGHT, n_samples: int | None = None):
        self.q_shor = q_shor
        self.n_codes = n_codes
        self.seed = seed
        self.recovery = _check_recovery(recovery)
        self.n_samples = n_samples
        self.run = map

    def check(self, distances) -> None:
        """Refuse every oversized d x d grid, then every invalid one, then
        the density or seed, with the messages of ``random_coloring``."""
        _check_distances(distances, _square_qubits, lambda d: _check_grid(d, d))
        _check_draw(self.q_shor, self.seed)

    def rows(self, distance: int, thetas_over_pi) -> list[SweepRow]:
        out = []
        for top in thetas_over_pi:
            # cell seed derived from (seed, distance, theta) so any row can be
            # regenerated in isolation from its own fields
            cell_seed = int(np.random.SeedSequence(
                self.seed,
                spawn_key=(distance, int(round(top * 1e9)) & 0xFFFFFFFF),
            ).generate_state(1)[0])
            res = ensemble_estimate(distance, distance, self.q_shor, self.n_codes,
                                    top * math.pi, cell_seed, self.recovery,
                                    self.n_samples, self.run)
            out.append(SweepRow(
                family="random", dx=distance, dz=distance,
                q_shor=self.q_shor, seed=self.seed, theta_over_pi=top,
                provenance="sampled", epsilon=3.0 * res.mean_r1, delta=math.nan,
                kappa=math.nan, r1=res.mean_r1, r1_stderr=res.r1_stderr,
                diamond=res.mean_diamond, diamond_stderr=res.diamond_stderr,
                n_codes=self.n_codes, n_samples=self.n_samples))
        return out


def interpolation_curve(distances, q_shors, thetas_over_pi, n_codes: int,
                        seed: int, recovery: str = MIN_WEIGHT,
                        n_samples: int | None = None, jobs: int | None = None):
    """Ensemble sweeps per q_shor with grid-level threshold estimates.

    ``jobs`` > 1 runs the codes of every cell in one pool of that many
    worker processes, kept for the whole run, so each worker's backend
    cache carries over from cell to cell; otherwise they run in-process.
    Before any pool opens or seed is drawn, it raises ValueError on an
    empty ``q_shors`` or ``distances`` and TooLargeError when one cell's
    ``n_codes`` or one code's ``n_samples`` draws would hold more than
    ``exact.MAX_HELD_BYTES``, and every density's source checks every
    distance, the density and the seed (``EnsembleSource.check``).
    """
    q_shors, distances = list(q_shors), list(distances)  # read once: either may be an iterator
    if not q_shors:
        raise ValueError("interpolation needs at least one q_shor")
    if not distances:
        raise ValueError("interpolation needs at least one distance")
    _check_ensemble_size(n_codes, n_samples)
    sources = [EnsembleSource(q, n_codes, seed, recovery, n_samples) for q in q_shors]
    for source in sources:
        source.check(distances)
    rows: list[SweepRow] = []
    estimates: dict[float, ThresholdEstimate] = {}
    with contextlib.ExitStack() as stack:
        run = map
        if jobs is not None and jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # only here: loads multiprocessing
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            run = functools.partial(pool.map, chunksize=8)
        for source in sources:
            source.run = run
            tab = sweep(source, thetas_over_pi, distances)
            rows.extend(tab.rows)
            if len(distances) >= 2:
                estimates[source.q_shor] = find_crossings(tab, "r1")
    return SweepTable(tuple(rows)), estimates


# ---------------------------------------------------------------------------
# CSV / JSON serialization

def write_csv(table: SweepTable, path, config: dict | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in table.rows:
            # csv writes None as an empty cell and a float as its repr
            writer.writerow([getattr(row, col) for col in CSV_COLUMNS])


def read_csv(path) -> SweepTable:
    """Rows of a sweep CSV; each cell is parsed as its SweepRow field type,
    and only an optional field (default None) reads an empty cell as None."""
    hints = get_type_hints(SweepRow)

    def parse(f, text: str):
        if f.default is None:
            return None if text == "" else get_args(hints[f.name])[0](text)
        return hints[f.name](text)

    with open(path) as fh:
        # a short row's missing cells read as empty
        reader = csv.DictReader((line for line in fh if not line.startswith("#")),
                                restval="")
        for name in CSV_COLUMNS:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no {name!r} column in the sweep table")
        return SweepTable(tuple(
            SweepRow(**{f.name: parse(f, rec[f.name]) for f in fields(SweepRow)})
            for rec in reader))


def _json_value(value):
    """JSON has no NaN or infinity: a non-finite float is written as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def table_to_json(table: SweepTable, config: dict | None = None) -> str:
    payload = {"rows": [{col: _json_value(getattr(row, col)) for col in CSV_COLUMNS}
                        for row in table.rows]}
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def read_csv_config(path) -> dict:
    """The config a sweep CSV embeds on its ``# {json}`` first line; {} if none."""
    with open(path) as fh:
        first = fh.readline()
    return json.loads(first[2:]) if first.startswith("# {") else {}


def source_for_rows(table: SweepTable, recovery: str = MIN_WEIGHT):
    """Rebuild an analytic source from named-family rows, for refinement
    with the ``recovery`` the rows were made with."""
    families_present = {row.family for row in table.rows}
    if len(families_present) != 1:
        return None
    fam = families_present.pop()
    if fam not in families.FAMILIES:
        return None
    if any(row.provenance != "analytic" for row in table.rows):
        return None
    hs = {row.h for row in table.rows} if "h" in families.FAMILIES[fam].params else set()
    return AnalyticFamilySource(fam, recovery, hs.pop() if len(hs) == 1 else None)
