"""Threshold-estimation harness: sweeps, crossing detection, ensembles.

A sweep evaluates a channel source over a (distance, theta) grid and emits
plot-ready rows; ``find_crossings`` automates the bounding procedure of
reading threshold estimates off intersecting distance curves: every sign
change of metric(d_next) - metric(d) across the swept grid is a crossing,
refined by bisection when the source can be re-evaluated exactly, and the
overall (lower, upper) bounds bracket every per-pair crossing.  Angles are
exchanged as theta/pi everywhere at this interface.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from . import families
from .codes import build_code, random_coloring
from .exact import MIN_WEIGHT, _check_recovery, get_backend
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
        out: dict[int, list[SweepRow]] = {}
        for row in self.rows:
            out.setdefault(row.distance, []).append(row)
        for rows in out.values():
            rows.sort(key=lambda r: r.theta_over_pi)
            thetas = [r.theta_over_pi for r in rows]
            if any(b <= a for a, b in zip(thetas, thetas[1:])):
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
    saw no intersections (the bracketing grid edge is reported instead)."""

    metric: str
    crossings: tuple[PairCrossing, ...]
    lower_over_pi: float | None
    upper_over_pi: float | None

    @property
    def one_sided(self) -> bool:
        return not self.crossings


# ---------------------------------------------------------------------------
# Channel sources

def _exact_row(provenance: str, top: float, ch: LogicalPTM, dist, **labels) -> SweepRow:
    """Row of an exactly evaluated cell; without ``dist`` diamond stays empty."""
    return SweepRow(theta_over_pi=top, provenance=provenance,
                    epsilon=ch.epsilon, delta=ch.delta, kappa=kappa(ch), r1=r1(ch),
                    diamond=None if dist is None else diamond_avg(dist), **labels)


def _metric_fn(source, metric: str):
    """``(distance, theta_over_pi) -> metric`` from the source's exact
    ``channel``/``distribution``; refines crossings."""
    def value(distance: int, theta_over_pi: float) -> float:
        theta = theta_over_pi * math.pi
        if metric == "r1":
            return r1(source.channel(distance, theta))
        dist = source.distribution(distance, theta)
        if dist is None:
            raise ValueError("diamond refinement unavailable for this family size")
        return diamond_avg(dist)
    return value


class AnalyticFamilySource:
    """Closed-form family evaluated at square (or 1 x l) distances."""

    metric_fn = _metric_fn

    def __init__(self, family: str, recovery: str = MIN_WEIGHT, h: int | None = None):
        self.family = family
        self.h = h
        self.entry = families.FAMILIES.get(family)
        if self.entry is None:
            raise ValueError(f"unknown analytic family {family!r}")
        if "h" in self.entry.params and h is None:
            raise ValueError(f"{family} source needs a block height h")
        self.recovery = self.entry.check_recovery(recovery)

    def _params(self, distance: int) -> tuple[int, ...]:
        return tuple(self.h if name == "h" else distance for name in self.entry.params)

    def channel(self, distance: int, theta: float) -> LogicalPTM:
        return self.entry.channel(*self._params(distance), theta, self.recovery)

    def distribution(self, distance: int, theta: float):
        try:
            return self.entry.distribution(*self._params(distance), theta, self.recovery)
        except ValueError:
            return None  # product form too large for exact convolution

    def rows(self, distance: int, thetas_over_pi) -> list[SweepRow]:
        dx, dz = self.entry.dims(distance)
        out = []
        for top in thetas_over_pi:
            # a loop, not a comprehension: holding the last distribution until
            # the next is built made Z-stacked sweeps ~4% faster
            ch = self.channel(distance, top * math.pi)
            dist = self.distribution(distance, top * math.pi)
            out.append(_exact_row("analytic", top, ch, dist,
                                  family=self.family, dx=dx, dz=dz, h=self.h))
        return out


class CodeSource:
    """Exact-backend source over codes built per distance."""

    metric_fn = _metric_fn

    def __init__(self, name: str, builder, recovery: str = MIN_WEIGHT):
        self.family = name
        self.builder = builder
        self.recovery = _check_recovery(recovery)

    def channel(self, distance: int, theta: float) -> LogicalPTM:
        return get_backend(self.builder(distance)).channel(theta, self.recovery)

    def distribution(self, distance: int, theta: float):
        return get_backend(self.builder(distance)).distribution(theta, self.recovery)

    def rows(self, distance: int, thetas_over_pi) -> list[SweepRow]:
        code = self.builder(distance)
        backend = get_backend(code)
        out = []
        for top in thetas_over_pi:
            dist = backend.distribution(top * math.pi, self.recovery)
            out.append(_exact_row("exact", top, dist.channel(), dist,
                                  family=self.family, dx=code.d_x, dz=code.d_z,
                                  q_shor=code.coloring.x_fraction))
        return out


def sweep(source, thetas_over_pi, distances) -> SweepTable:
    """One row per (distance, theta); deterministic given the source seeds."""
    thetas = [float(t) for t in thetas_over_pi]
    if not thetas or not list(distances):
        raise ValueError("sweep needs a non-empty theta grid and distance list")
    rows: list[SweepRow] = []
    for d in distances:
        rows.extend(source.rows(d, thetas))
    return SweepTable(tuple(rows))


# ---------------------------------------------------------------------------
# Crossing detection

def _bisect_crossing(diff, lo: float, hi: float, f_lo: float, f_hi: float,
                     tol: float) -> tuple[float, float]:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid, mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, hi


def find_crossings(table: SweepTable, metric: str = "r1",
                   source=None) -> ThresholdEstimate:
    """Locate metric crossings between consecutive distance curves.

    With a ``source`` to re-evaluate (``channel`` and ``distribution``) each
    grid sign change is refined by bisection to width <= REFINE_TOL_OVER_PI;
    sampled tables keep the grid cell as the crossing interval.  Bounds are
    the (min, max) over every crossing; without any crossing the estimate is
    one-sided at the grid edge that bounds the threshold.
    """
    series = table.series()
    distances = sorted(series)
    if len(distances) < 2:
        raise ValueError("crossing detection needs at least two distances")
    grids = [tuple(r.theta_over_pi for r in series[d]) for d in distances]
    if len(set(grids)) != 1:
        raise ValueError("all distance series must share one theta grid")
    thetas = grids[0]

    refine = _metric_fn(source, metric) if source is not None else None
    crossings: list[PairCrossing] = []
    all_positive = True
    all_negative = True
    for d1, d2 in zip(distances, distances[1:]):
        v1 = [row.metric(metric) for row in series[d1]]
        v2 = [row.metric(metric) for row in series[d2]]
        g = [b - a for a, b in zip(v1, v2)]
        all_positive &= all(x > 0 for x in g)
        all_negative &= all(x < 0 for x in g)
        for i in range(len(thetas) - 1):
            if g[i] == 0.0:
                crossings.append(PairCrossing(d1, d2, thetas[i], thetas[i]))
            elif g[i] * g[i + 1] < 0.0:
                lo, hi = thetas[i], thetas[i + 1]
                if refine is not None:
                    diff = lambda t: refine(d2, t) - refine(d1, t)
                    lo, hi = _bisect_crossing(diff, lo, hi, g[i], g[i + 1],
                                              REFINE_TOL_OVER_PI)
                crossings.append(PairCrossing(d1, d2, lo, hi))
        if g[-1] == 0.0:
            crossings.append(PairCrossing(d1, d2, thetas[-1], thetas[-1]))

    if crossings:
        return ThresholdEstimate(metric, tuple(crossings),
                                 min(c.lo_over_pi for c in crossings),
                                 max(c.hi_over_pi for c in crossings))
    if all_positive:  # increasing with distance everywhere: threshold below grid
        return ThresholdEstimate(metric, (), None, thetas[0])
    if all_negative:  # suppressed everywhere: threshold above grid
        return ThresholdEstimate(metric, (), thetas[-1], None)
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


# Generator.choice's tolerance on the sum of normalised probabilities
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _draw(p: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Indices drawn with probabilities ``p``: those of
    ``rng.choice(len(p), n_samples, p=p / p.sum())``, by choice's own inverse
    CDF (the normalised probabilities' running sum, divided by its last
    entry, searched with uniforms from ``rng.random``), in one buffer.

    Like choice, raises ValueError for probabilities that are not finite,
    are negative, sum to zero, or do not sum to 1 once normalised.
    """
    total = p.sum()
    if not (math.isfinite(total) and total != 0.0):
        raise ValueError(f"probabilities must have a finite, nonzero sum, got {total}")
    cdf = np.divide(p, total)
    if cdf.min() < 0.0:
        raise ValueError("probabilities must be non-negative")
    np.cumsum(cdf, out=cdf)
    if abs(cdf[-1] - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {cdf[-1]}, not 1, once normalised")
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n_samples), side="right")


def sample_distribution(dist, n_samples: int, seed) -> SampleEstimate:
    """Monte Carlo estimate of (r1, diamond) from an exact distribution.

    Draws syndromes with probability p_s and scores (1 - cos theta_s)/3 and
    2|sin theta_s|; reports sample means and standard errors of the mean.
    ``dist`` needs ``p`` and ``theta_s_at``: the cost is one sum and one
    cumulative sum of ``p``, and angles are read only at the drawn indices.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    idx = _draw(np.asarray(dist.p, dtype=float), n_samples, np.random.default_rng(seed))
    theta_s = np.asarray(dist.theta_s_at(idx), dtype=float)
    mean_r1, r1_stderr = _mean_stderr((1.0 - np.cos(theta_s)) / 3.0)
    mean_diamond, diamond_stderr = _mean_stderr(2.0 * np.abs(np.sin(theta_s)))
    return SampleEstimate(mean_r1, r1_stderr, mean_diamond, diamond_stderr)


@dataclass(frozen=True)
class EnsembleResult:
    mean_r1: float
    r1_stderr: float
    mean_diamond: float
    diamond_stderr: float
    shot_r1_variance: float
    shot_diamond_variance: float
    n_codes: int
    n_samples: int | None


def _ensemble_task(args):
    d_x, d_z, q_shor, theta, recovery, n_samples, code_seed, sample_seed = args
    backend = get_backend(build_code(random_coloring(d_x, d_z, q_shor, code_seed)))
    dist = backend.distribution(theta, recovery)
    if n_samples is None:
        return r1(dist.channel()), diamond_avg(dist), 0.0, 0.0
    est = sample_distribution(dist, n_samples, sample_seed)
    return est.mean_r1, est.mean_diamond, est.r1_stderr ** 2, est.diamond_stderr ** 2


def ensemble_estimate(d_x: int, d_z: int, q_shor: float, n_codes: int,
                      theta: float, seed: int, recovery: str = MIN_WEIGHT,
                      n_samples: int | None = None,
                      jobs: int | None = 1) -> EnsembleResult:
    """Mean logical metrics over random colorings of density ``q_shor``.

    Each code gets its own seed stream (split per code index, so results do
    not depend on execution order or ``jobs``); ``jobs`` > 1 runs the codes
    in that many worker processes, otherwise they run in-process.  Per-code
    metrics are exact when ``n_samples`` is None, otherwise Monte Carlo; the
    reported stderr is the ensemble standard error of the per-code means,
    with the shot contribution also exposed separately.
    """
    _check_recovery(recovery)
    if n_codes < 1:
        raise ValueError("need at least one code")
    # (code_seed, sample_seed) per code
    tasks = [(d_x, d_z, q_shor, theta, recovery, n_samples,
              *(int(x) for x in child.generate_state(2)))
             for child in np.random.SeedSequence(seed).spawn(n_codes)]
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_ensemble_task, tasks, chunksize=8))
    else:
        results = [_ensemble_task(t) for t in tasks]

    r1s, dias, shot_r1s, shot_dias = (np.array(col) for col in zip(*results))

    def sem(vals):
        if len(vals) < 2 or vals.max() == vals.min():
            return 0.0
        return _mean_stderr(vals)[1]

    return EnsembleResult(
        mean_r1=float(r1s.mean()), r1_stderr=sem(r1s),
        mean_diamond=float(dias.mean()), diamond_stderr=sem(dias),
        shot_r1_variance=float(shot_r1s.mean()),
        shot_diamond_variance=float(shot_dias.mean()),
        n_codes=n_codes, n_samples=n_samples)


class EnsembleSource:
    """Sampled random-coloring source for sweeps (square d x d grids)."""

    def __init__(self, q_shor: float, n_codes: int, seed: int,
                 recovery: str = MIN_WEIGHT, n_samples: int | None = None,
                 jobs: int | None = 1):
        self.q_shor = q_shor
        self.n_codes = n_codes
        self.seed = seed
        self.recovery = _check_recovery(recovery)
        self.n_samples = n_samples
        self.jobs = jobs

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
                                    self.n_samples, self.jobs)
            out.append(SweepRow(
                family="random", dx=distance, dz=distance,
                q_shor=self.q_shor, seed=self.seed, theta_over_pi=top,
                provenance="sampled", epsilon=3.0 * res.mean_r1, delta=math.nan,
                kappa=math.nan, r1=res.mean_r1, r1_stderr=res.r1_stderr,
                diamond=res.mean_diamond, diamond_stderr=res.diamond_stderr,
                n_codes=res.n_codes, n_samples=res.n_samples))
        return out


def interpolation_curve(distances, q_shors, thetas_over_pi, n_codes: int,
                        seed: int, recovery: str = MIN_WEIGHT,
                        n_samples: int | None = None, jobs: int | None = 1):
    """Ensemble sweeps per q_shor with grid-level threshold estimates."""
    tables: list[SweepTable] = []
    estimates: dict[float, ThresholdEstimate] = {}
    for q in q_shors:
        src = EnsembleSource(q, n_codes, seed, recovery, n_samples, jobs)
        tab = sweep(src, thetas_over_pi, distances)
        tables.append(tab)
        if len(list(distances)) >= 2:
            estimates[q] = find_crossings(tab, "r1")
    merged = SweepTable(tuple(row for tab in tables for row in tab.rows))
    return merged, estimates


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


def table_to_json(table: SweepTable, config: dict | None = None) -> str:
    payload = {"rows": [{col: getattr(row, col) for col in CSV_COLUMNS}
                        for row in table.rows]}
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)


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
    hs = {row.h for row in table.rows}
    return AnalyticFamilySource(fam, recovery, hs.pop() if len(hs) == 1 else None)
