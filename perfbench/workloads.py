"""The four benchmark workloads: fixed lists of CLI invocations with gates.

Each workload maps a seed to a list of ``Op``s.  An op is one call of
``compasscoh.cli.main(argv)``; its gate reads the op's stdout and output
files and returns a failure message, or None when the output is right.
Every reference below holds for any seed, so a gate failure is a defect.
Paths are relative: the child runs in its own work directory, and the
output bytes must not depend on where that is.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path, str], str | None]


def _op(argv: str, check, outputs=()) -> Op:
    # --jobs defaults to os.cpu_count() and is echoed into every output
    return Op(tuple(argv.split()) + ("--jobs", "1"), tuple(outputs), check)


def _rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _no_check(workdir, stdout):
    return None


def _sampled_rows_match(rows, closed_form, distribution) -> str | None:
    """Each sampled row's r1 is within 5 standard errors of the closed form.

    The standard error is the exact one, sqrt(var / (codes * samples)), with
    the per-shot variance taken from the closed-form angle distribution.
    The row's own r1_stderr is estimated from as few as 6 code means (a
    Student t with 5 degrees of freedom exceeds 5 in 0.4% of rows), so it
    would fail correct output on some seeds.
    """
    from compasscoh.ptm import r1
    for row in rows:
        theta = float(row["theta_over_pi"]) * math.pi
        d = int(row["dx"])
        ref = r1(closed_form(d, theta))
        dist = distribution(d, theta)
        scores = (1.0 - np.cos(dist.theta_s)) / 3.0
        var = float(np.sum(dist.p * (scores - ref) ** 2))
        se = math.sqrt(var / (int(row["n_codes"]) * int(row["n_samples"])))
        dev = abs(float(row["r1"]) - ref)
        if not dev <= 5.0 * se + 1e-12:
            return (f"d={d} theta/pi={row['theta_over_pi']}: r1 {row['r1']} is "
                    f"{dev:.3g} from the closed form {ref!r} (se {se:.3g})")
        if not float(row["r1_stderr"]) >= 0.0:
            return f"bad r1_stderr {row['r1_stderr']}"
    return None


# ---------------------------------------------------------------------------
# rsc-exact

THETA_OVER_PI = 0.1
RANDOM_R = 12


def _random_code_seeds(seed: int, count: int = 2) -> list[int]:
    """Seeds of random 5x5 q=0.5 codes, drawn from ``seed``, with r = 12 X checks.

    The draw is conditioned on r so that every seed costs the same 2^r
    decode table (r ranges 6..19 unconditioned, a 2^13 spread in work);
    the 2^25 count table is the same for every code.
    """
    from compasscoh.codes import build_code, random_coloring
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        s = rng.randrange(2 ** 31)
        if len(build_code(random_coloring(5, 5, 0.5, s)).x_stabilizers) == RANDOM_R:
            out.append(s)
    return out


def _check_rsc_sweep(workdir, stdout):
    rows = _rows(workdir / "rsc.csv")
    if len(rows) != 98 or {r["provenance"] for r in rows} != {"exact"}:
        return f"expected 98 exact rows, got {len(rows)}"
    if not all(0.0 <= float(r["r1"]) <= 2.0 / 3.0 for r in rows):
        return "r1 outside [0, 2/3]"
    return None


def _check_rsc_threshold(workdir, stdout):
    # grid-level crossings of the seed-free RSC 3/5 sweep
    out = json.loads(stdout)
    got = (out["lower_over_pi"], out["upper_over_pi"], len(out["crossings"]))
    return None if got == (0.15, 0.27, 2) else f"RSC crossings {got} != (0.15, 0.27, 2)"


def _check_validate(workdir, stdout):
    out = json.loads(stdout)
    return None if out["passed"] and out["n"] == 25 else f"validate: {stdout.strip()}"


def _check_zstacked_channel(workdir, stdout):
    from compasscoh.families import z_stacked_channel
    out = json.loads(stdout)
    ref = z_stacked_channel(5, 2, THETA_OVER_PI * math.pi)
    err = max(abs(out["epsilon"] - ref.epsilon), abs(out["delta"] - ref.delta))
    return None if err <= 1e-10 else f"Z-stacked 5x5 h=2 channel off by {err:.3g}"


def _check_ml_dump(workdir, stdout):
    from compasscoh.families import z_stacked_channel
    dist = json.loads((workdir / "zs-ml.json").read_text())
    total = math.fsum(entry["p"] for entry in dist)
    if abs(total - 1.0) > 1e-12:
        return f"dumped sum p_s = {total!r}"
    # ML never does worse than min-weight, which matches the closed form
    ref = z_stacked_channel(5, 2, THETA_OVER_PI * math.pi)
    eps = json.loads(stdout)["epsilon"]
    return None if eps <= ref.epsilon + 1e-12 else f"ML eps {eps} > min-weight {ref.epsilon}"


def _check_channel_consistent(workdir, stdout):
    out = json.loads(stdout)
    eps, delta = out["epsilon"], out["delta"]
    if not (0.0 <= eps <= 2.0 and (1 - eps) ** 2 + delta ** 2 <= 1 + 1e-12):
        return f"non-physical channel eps={eps} delta={delta}"
    if abs(out["r1"] - eps / 3.0) > 1e-15:
        return f"r1 {out['r1']} != eps/3"
    return None


def rsc_exact(seed: int) -> list[Op]:
    theta = f"--theta-over-pi {THETA_OVER_PI}"
    ops = [
        _op("sweep --family rsc --distances 3,5 --thetas 0.01:0.49:0.01 --out rsc.csv",
            _check_rsc_sweep, ["rsc.csv"]),
        _op("threshold --in rsc.csv", _check_rsc_threshold),
        _op("code gen --family zstacked --dx 5 --h 2 --out zs.json", _no_check, ["zs.json"]),
        _op("code validate zs.json", _check_validate),
        _op(f"channel exact --code zs.json {theta} --recovery minweight",
            _check_zstacked_channel),
        _op(f"channel exact --code zs.json {theta} --recovery ml "
            "--dump-distribution zs-ml.json", _check_ml_dump, ["zs-ml.json"]),
    ]
    for k, code_seed in enumerate(_random_code_seeds(seed)):
        ops += [
            _op(f"code gen --family random --dx 5 --dz 5 --q-shor 0.5 --seed {code_seed} "
                f"--out rand{k}.json", _no_check, [f"rand{k}.json"]),
            _op(f"channel exact --code rand{k}.json {theta}", _check_channel_consistent),
        ]
    return ops


# ---------------------------------------------------------------------------
# xshor-interpolate

def _check_xshor_interpolate(workdir, stdout):
    from compasscoh.families import x_shor_channel, x_shor_distribution
    est = json.loads(stdout)["estimates"]["1.0"]
    lo, hi = est["lower_over_pi"], est["upper_over_pi"]
    if not (lo is not None and hi is not None and 0.42 <= lo <= 0.5 <= hi <= 0.58):
        return f"X-Shor bounds ({lo}, {hi}) do not bracket 0.5 inside [0.42, 0.58]"
    rows = _rows(workdir / "xs.csv")
    if len(rows) != 10:
        return f"expected 10 rows, got {len(rows)}"
    return _sampled_rows_match(rows, lambda d, t: x_shor_channel(d, d, t),
                               lambda d, t: x_shor_distribution(d, d, t))


def xshor_interpolate(seed: int) -> list[Op]:
    return [_op(f"interpolate --q-shors 1 --d 3,5 --thetas 0.42:0.58:0.04 --codes 6 "
                f"--samples 400 --seed {seed} --out xs.csv",
                _check_xshor_interpolate, ["xs.csv"])]


# ---------------------------------------------------------------------------
# zstacked-threshold (acceptance criterion 7 through the CLI; no seed)

def _check_zstacked_sweep(h):
    def check(workdir, stdout):
        from compasscoh.families import z_stacked_channel
        from compasscoh.ptm import r1
        rows = _rows(workdir / f"zs{h}.csv")
        if len(rows) != 84:
            return f"expected 84 rows, got {len(rows)}"
        for row in rows:
            ref = r1(z_stacked_channel(int(row["dx"]), h,
                                       float(row["theta_over_pi"]) * math.pi))
            if abs(float(row["r1"]) - ref) > 1e-12:
                return f"h={h} row {row['dx']}/{row['theta_over_pi']}: r1 {row['r1']} != {ref!r}"
        return None
    return check


def _check_zstacked_threshold(h, band):
    def check(workdir, stdout):
        out = json.loads(stdout)
        lo, hi = out["lower_over_pi"], out["upper_over_pi"]
        if out["one_sided"] or not band[0] <= lo <= hi <= band[1]:
            return f"h={h} bounds ({lo}, {hi}) outside {band}"
        if not lo < 1 / (2 * h) < hi:
            return f"h={h} bounds ({lo}, {hi}) do not bracket 1/(2h)"
        return None
    return check


def zstacked_threshold(seed: int) -> list[Op]:
    ops = []
    for h, band, step in ((2, (0.20, 0.30), 0.005), (3, (0.13, 0.21), 0.004)):
        ops += [
            _op(f"sweep --family zstacked --h {h} --thetas {band[0]}:{band[1]}:{step} "
                f"--distances 9,13,17,21 --out zs{h}.csv",
                _check_zstacked_sweep(h), [f"zs{h}.csv"]),
            _op(f"threshold --in zs{h}.csv --metric r1", _check_zstacked_threshold(h, band)),
        ]
    return ops


# ---------------------------------------------------------------------------
# random-ensemble

def _check_random_ensemble(workdir, stdout):
    from compasscoh.families import (x_shor_channel, x_shor_distribution,
                                     z_shor_channel, z_shor_distribution)
    rows = _rows(workdir / "ens.csv")
    if len(rows) != 45:
        return f"expected 45 rows, got {len(rows)}"
    # q=0 colorings are all Z-Shor, q=1 all X-Shor
    zshor = [r for r in rows if float(r["q_shor"]) == 0.0]
    xshor = [r for r in rows if float(r["q_shor"]) == 1.0]
    return (_sampled_rows_match(zshor, lambda d, t: z_shor_channel(d, d, t),
                                lambda d, t: z_shor_distribution(d, d, t))
            or _sampled_rows_match(xshor, lambda d, t: x_shor_channel(d, d, t),
                                   lambda d, t: x_shor_distribution(d, d, t)))


def random_ensemble(seed: int) -> list[Op]:
    return [_op(f"interpolate --q-shors 0,0.25,0.5,0.75,1 --d 3 --codes 200 "
                f"--samples 200 --seed {seed} --out ens.csv",
                _check_random_ensemble, ["ens.csv"])]


WORKLOADS = {
    "rsc-exact": rsc_exact,
    "xshor-interpolate": xshor_interpolate,
    "zstacked-threshold": zstacked_threshold,
    "random-ensemble": random_ensemble,
}
