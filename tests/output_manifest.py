"""Output hashes of the benchmark workloads' ops and of the README's CLI
examples, and the manifest that pins them.

Each run is one workload of ``perfbench/workloads.py`` at one seed, or the
README's CLI examples, its ops called through ``compasscoh.cli.main`` in
order, in one process and in a work directory of its own.  An op's hash is
the sha256 of its exit code, stdout, stderr and every output file it
declares, each prefixed by its length.  ``xshor-interpolate`` also runs
once under ``--jobs 2``.

``output_manifest.json`` records one list of accepted hashes per op.  Ops
whose bytes depend on NumPy's AVX-512 loops (ROADMAP item 9) list two: one
with those loops and one without.  Regenerate it, on a CPU that has them,
with::

    python tests/output_manifest.py

which computes every hash in two child processes, one with the loops
disabled through ``NPY_DISABLE_CPU_FEATURES``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "output_manifest.json"
# the AVX-512 targets NumPy may dispatch to, as CI's tier1.yml names them
AVX512 = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR".split()


def _workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "_manifest_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads().WORKLOADS
# the README's CLI examples in order, each with the files it writes, all but
# the slow ``interpolate`` (200 d=5 codes per cell)
README_OPS = [
    ("code gen --family rsc --dx 5 --out rsc5.json", ("rsc5.json",)),
    ("code gen --family random --dx 3 --dz 3 --q-shor 0.5 --seed 7 --out r.json", ("r.json",)),
    ("code validate rsc5.json", ()),
    ("decode --code rsc5.json --syndrome 000100000000", ()),
    ("channel exact --code rsc5.json --theta-over-pi 0.1 --recovery minweight "
     "--dump-distribution dist.json", ("dist.json",)),
    ("channel analytic --family zstacked --l 21 --h 2 --theta-over-pi 0.2", ()),
    ("sweep --family xshor --thetas 0.45:0.55:0.005 --distances 9,13,17,21 --out sweep.csv",
     ("sweep.csv",)),
    ("threshold --in sweep.csv --metric r1", ()),
]


def _workload_ops(name: str, seed: int, extra=()):
    return lambda: [((*op.argv, *extra), op.outputs) for op in WORKLOADS[name](seed)]


# manifest key -> its ops, each (argv, the output files it declares)
RUNS = {f"{name} seed {seed}": _workload_ops(name, seed) for name in WORKLOADS for seed in (1, 2)}
RUNS["xshor-interpolate seed 1 --jobs 2"] = _workload_ops("xshor-interpolate", 1, ("--jobs", "2"))
RUNS["README CLI examples"] = lambda: [(tuple(argv.split()), outputs)
                                       for argv, outputs in README_OPS]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def run_ops(key: str, workdir: Path) -> list[tuple[str, str]]:
    """(argv, hash) of each op of run ``key``, called in ``workdir``."""
    from compasscoh.cli import main
    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, outputs in RUNS[key]():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(list(argv))
            parts = [str(rc).encode(), stdout.getvalue().encode(), stderr.getvalue().encode()]
            for path in outputs:
                parts += [path.encode(), Path(path).read_bytes()]
            out.append((" ".join(argv), _digest(parts)))
    finally:
        os.chdir(cwd)
    return out


def hashes() -> dict:
    """Every run's (argv, hash) pairs, each run in a temporary directory."""
    out = {}
    for key in RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            out[key] = run_ops(key, Path(workdir))
    return out


def _child_hashes(env: dict) -> dict:
    child = subprocess.run([sys.executable, __file__, "--hashes"], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def regenerate() -> dict:
    from numpy._core._multiarray_umath import __cpu_dispatch__
    disabled = " ".join(name for name in AVX512 if name in __cpu_dispatch__)
    if not disabled:
        sys.exit("no AVX-512 loops on this CPU: the second hash of a CPU-dependent "
                 "op cannot be recorded here")
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    on = _child_hashes(env)
    off = _child_hashes({**env, "NPY_DISABLE_CPU_FEATURES": disabled})
    # the hash with the AVX-512 loops first, then the one without if it differs
    return {key: [{"argv": argv, "sha256": list(dict.fromkeys([digest, off[key][i][1]]))}
                  for i, (argv, digest) in enumerate(ops)]
            for key, ops in on.items()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--hashes"]:
        print(json.dumps(hashes()))
        sys.exit()
    manifest = regenerate()
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    two = sum(len(op["sha256"]) == 2 for ops in manifest.values() for op in ops)
    print(f"wrote {MANIFEST.name}: {sum(map(len, manifest.values()))} ops, "
          f"{two} with two hashes")
