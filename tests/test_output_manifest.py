"""Every op of the benchmark workloads and of the README's CLI examples
keeps the output bytes that ``output_manifest.json`` records (see
``output_manifest.py``)."""

import json

import pytest

import output_manifest

MANIFEST = json.loads(output_manifest.MANIFEST.read_text())


@pytest.mark.parametrize("key", list(output_manifest.RUNS))
def test_workload_outputs_match_the_manifest(key, tmp_path):
    want = MANIFEST.get(key)
    assert want is not None, f"no manifest entry for {key}: regenerate the manifest"
    got = output_manifest.run_ops(key, tmp_path)
    assert [argv for argv, _ in got] == [op["argv"] for op in want]
    moved = []
    for (argv, digest), op in zip(got, want):
        if digest in op["sha256"]:
            continue
        moved.append(f"{argv}: sha256 {digest}" + (
            ", neither of its two recorded hashes: its bytes depend on NumPy's "
            "AVX-512 loops (ROADMAP item 9)" if len(op["sha256"]) > 1 else ""))
    assert not moved, ("output bytes moved; a change that moves them on purpose "
                       "regenerates the manifest (python tests/output_manifest.py) and "
                       "lists each moved op in CHANGES.md:\n" + "\n".join(moved))


def test_readme_run_holds_the_readme_cli_examples():
    text = (output_manifest.ROOT / "README.md").read_text().replace("\\\n", " ")
    commands = [" ".join(line.split()[1:]) for line in text.splitlines()
                if line.startswith("compasscoh ")]
    assert [c for c in commands if not c.startswith("interpolate ")] == [
        argv for argv, _ in output_manifest.README_OPS]
