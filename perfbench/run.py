"""Benchmark of the compasscoh command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are in ``workloads.py``.  Each iteration runs the workload's CLI
invocations in one fresh process with no warm-up, because a CLI user pays
for the import on every invocation.  Iterations repeat while the next one
is expected to end within ``--seconds``; at least one runs, so a run lasts
about ``--seconds`` or one iteration, whichever is longer.

``--trace 0`` reports the end-to-end metrics, medians over the run:

* ``wall_s``: from the end of set-up to the last output written.
* ``setup_s``: from process spawn until ``import compasscoh.cli`` returns;
  taken from several import-only processes plus every iteration.
* ``peak_rss_mb``: peak resident set of the iteration's own process, from
  ``os.wait4`` on it (10^6 bytes).

``error_rate`` (failed over attempted operations; one operation is one
invocation plus its gate) is printed and carried in ``attempted`` and
``failed`` of the result line.  An operation fails on a nonzero exit, a
failed gate, or output bytes that differ from the first iteration's.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``tracing.py``, plus ``trace.overhead_s`` (traced
minus untraced median wall_s) and ``trace.gap_s`` (wall_s not covered by
the top-level ``cli.main`` spans: spec loading, hook installation and
stdout redirection).  Traced outputs must be byte-identical to untraced
ones and the counts must repeat exactly across traced iterations.

The children run with a pinned environment (``PYTHONPATH=src``, one BLAS
thread, fixed hash seed).  Each run writes its samples and environment to
``.perfbench/results/``; ``compare.py`` compares two such files.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Child:
    status: int
    peak_rss_mb: float
    setup_s: float | None = None
    wall_s: float | None = None
    result: dict = field(default_factory=dict)


def spawn(workdir: Path, invocations, trace: bool, deadline: float) -> Child:
    """Run child.py in ``workdir``; wait for it with os.wait4 to get its own peak RSS."""
    shutil.rmtree(workdir, ignore_errors=True)  # left by an earlier run with this pid
    workdir.mkdir(parents=True)
    (workdir / "spec.json").write_text(json.dumps(
        {"invocations": [list(a) for a in invocations], "trace": trace}))
    with open(workdir / "child.err", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "spec.json"],
                                cwd=workdir, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(proc.returncode, usage.ru_maxrss * 1024 / 1e6)
    result_path = workdir / "result.json"
    if proc.returncode == 0 and result_path.exists():
        child.result = json.loads(result_path.read_text())
        child.setup_s = child.result["setup_end"] - t_spawn
        child.wall_s = child.result["end"] - child.result["setup_end"]
    return child


def _digest(workdir: Path, i: int, op) -> str:
    h = hashlib.sha256((workdir / f"stdout_{i}.txt").read_bytes())
    for name in op.outputs:
        h.update(b"\0" + (workdir / name).read_bytes())
    return h.hexdigest()


@dataclass
class Iteration:
    child: Child
    digests: list
    failures: list[str]


def gate(ops, workdir: Path, child: Child, reference) -> Iteration:
    """Check every op's exit code, gate and output bytes."""
    if not child.result:
        err = (workdir / "child.err").read_text()[-2000:]
        return Iteration(child, [None] * len(ops),
                         [f"child exited {child.status}: {err}"] * len(ops))
    digests, failures = [], []
    for i, (op, code) in enumerate(zip(ops, child.result["exit_codes"])):
        if code != 0:
            err = (workdir / f"stderr_{i}.txt").read_text()[-2000:]
            digests.append(None)
            failures.append(f"{' '.join(op.argv)}: exit {code}: {err}")
            continue
        stdout = (workdir / f"stdout_{i}.txt").read_text()
        try:
            digests.append(_digest(workdir, i, op))
            msg = op.check(workdir, stdout)
        except Exception as exc:  # a gate that cannot read the output fails the op
            msg = f"gate raised {exc!r}"
        if msg is None and reference is not None and digests[-1] != reference[i]:
            msg = "output bytes differ from the first iteration"
        if msg is not None:
            failures.append(f"{' '.join(op.argv)}: {msg}")
    return Iteration(child, digests, failures)


class Runner:
    def __init__(self, ops, tag: str):
        self.ops = ops
        self.tag = tag
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.backend = None
        self.reference = None
        self.iterations: list[Iteration] = []
        self.traced: list[Iteration] = []
        self.setups: list[float] = []

    def _workdir(self) -> Path:
        self.count += 1
        return WORK / "work" / f"{self.tag}-{os.getpid()}-{self.count}"

    def _check_child(self, child: Child) -> None:
        if not child.result:
            return
        package = Path(child.result["package"]).resolve()
        if SRC.resolve() not in package.parents:
            raise BenchError(f"child imported compasscoh from {package}, not {SRC}")
        if self.backend is None:
            self.backend = child.result["kernel_backend"]
        elif child.result["kernel_backend"] != self.backend:
            raise BenchError("kernel backend changed between processes")

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            workdir = self._workdir()
            child = spawn(workdir, [], False, self.deadline)
            if child.setup_s is None:
                err = (workdir / "child.err").read_text()[-2000:]
                raise BenchError(f"set-up failed (exit {child.status}): {err}")
            self._check_child(child)
            self.setups.append(child.setup_s)
            shutil.rmtree(workdir)

    def iterate(self, trace: bool) -> Iteration:
        workdir = self._workdir()
        child = spawn(workdir, [op.argv for op in self.ops], trace, self.deadline)
        self._check_child(child)
        it = gate(self.ops, workdir, child, self.reference)
        if self.reference is None and not it.failures:
            self.reference = it.digests
        if child.setup_s is not None:
            self.setups.append(child.setup_s)
        (self.traced if trace else self.iterations).append(it)
        if it.failures:
            sys.stderr.write(f"kept failing work directory {workdir}\n")
        else:
            shutil.rmtree(workdir)
        return it

    def run(self, seconds: float, trace: bool) -> None:
        """Iterate (untraced, or untraced+traced pairs) while the next fits in ``seconds``."""
        self.probe_setup()
        t0 = time.monotonic()
        while True:
            t_iter = time.monotonic()
            self.iterate(False)
            if trace:
                self.iterate(True)
            now = time.monotonic()
            last = now - t_iter
            if now - t0 + last > seconds or now + 2 * last > self.deadline:
                break


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _env_record(backend) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"kernel_backend": backend, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": 1, "jobs": 1}


def _layer_metrics(runner: Runner, notes: list[str]):
    import tracing
    per_iter = []
    unavailable = set()
    for it in runner.traced:
        if it.child.result:
            res = it.child.result
            unavailable |= set(res["unavailable"])
            notes.extend(n for n in res["notes"] if n not in notes)
    for it in runner.traced:
        if not it.child.result:
            continue
        spans = it.child.result["spans"]
        metrics = tracing.layer_metrics(spans, unavailable)
        metrics["trace.gap_s"] = (it.child.wall_s - tracing.SpanView(spans).top_level_time(),
                                  "s")
        per_iter.append(metrics)
    if not per_iter:
        return {}, {}, False
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in per_iter]
    repeat = all(c == counts[0] for c in counts)
    out = {name: (statistics.median(m[name][0] for m in per_iter), unit)
           for name, (_, unit) in per_iter[0].items()}
    walls = [it.child.wall_s for it in runner.iterations if it.child.wall_s]
    traced_walls = [it.child.wall_s for it in runner.traced if it.child.wall_s]
    if walls and traced_walls:
        out["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(walls), "s")
    shapes = tracing.code_shapes(runner.traced[-1].child.result.get("spans", []))
    return out, shapes, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compasscoh" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no compasscoh sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))  # the gates use the closed forms of this checkout

    trace = bool(args.trace)
    runner = Runner(WORKLOADS[args.workload](args.seed),
                    f"{args.workload}-s{args.seed}-t{args.trace}")
    try:
        runner.run(args.seconds, trace)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    iterations = runner.iterations + runner.traced
    attempted = len(runner.ops) * len(iterations)
    failures = [f for it in iterations for f in it.failures]
    for f in failures:
        sys.stderr.write(f"FAILED {f}\n")
    walls = [it.child.wall_s for it in runner.iterations if it.child.wall_s is not None]
    samples = {"wall_s": walls, "setup_s": runner.setups,
               "peak_rss_mb": [it.child.peak_rss_mb for it in runner.iterations
                               if it.child.result]}
    if not walls:
        sys.stderr.write("perfbench: no iteration completed\n")
        return 1

    notes: list[str] = []
    correct = not failures
    print(f"{args.workload} seed {args.seed}: {len(iterations)} iterations "
          f"({len(runner.traced)} traced), {attempted} operations, {len(failures)} failed")
    print(f"error_rate {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    for name, unit in END_TO_END.items():
        vals = samples[name]
        q1, q3 = _quartiles(vals)
        print(f"{name} median {statistics.median(vals):.6g} {unit} "
              f"q1 {q1:.6g} q3 {q3:.6g} n {len(vals)}")
    if trace:
        metrics, shapes, repeat = _layer_metrics(runner, notes)
        if not repeat:
            correct = False
            notes.append("counts differ between traced iterations of one seed")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for name, shape in shapes.items():
            print(f"shapes {name}: {shape}")
        if "trace.gap_s" in metrics:
            print(f"top-level cli.main spans leave {metrics['trace.gap_s'][0]:.4g} s "
                  "of traced wall_s uncovered")
    else:
        metrics = {name: (statistics.median(samples[name]), unit)
                   for name, unit in END_TO_END.items()}
        shapes = {}
    for note in notes:
        print(f"note: {note}")

    env = _env_record(runner.backend)
    print("env " + json.dumps(env, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{runner.tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "env": env, "samples": samples, "shapes": shapes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": len(failures), "notes": notes},
        indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # a terminated run still stops and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
