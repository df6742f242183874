"""Tests of the benchmark itself: span analysis, missing hooks, pinned counts, compare."""

import json
import subprocess
import sys
import types
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children():
    spans = [
        ["exact.backend_build", 0.0, 10.0, -1, {"syndromes": 4}],
        ["kernels.count_table", 1.0, 4.0, 0, {"supports": 8}],
        ["decoder.build_matching_graph", 4.0, 5.0, 0, None],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["decoder.table_s"] == (6.0, "s")
    assert metrics["exact.backend_s"] == (10.0, "s")
    assert metrics["kernels.supports"] == (8, "count")


def test_nested_spans_of_one_name_count_once():
    spans = [
        ["exact.channel", 0.0, 3.0, -1, None],
        ["exact.distribution", 1.0, 2.0, 0, None],
        ["exact.distribution", 5.0, 6.0, -1, None],
    ]
    assert tracing.SpanView(spans).time("exact.distribution", "exact.channel") == 4.0


def test_missing_hook_target_leaves_metric_absent(monkeypatch):
    fake = types.ModuleType("fakepkg.present")
    fake.f = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.present", fake)
    tracer = tracing.Tracer()
    missing = tracing.install(tracer, {
        "kernels.count_table": ["gone:count_table"],
        "cli.main": ["present:f", "present:no_such_attr"],
    }, package="fakepkg")
    assert missing == ["kernels.count_table"]
    assert len(tracer.notes) == 2
    assert fake.f(1) == 2 and tracer.spans[0][0] == "cli.main"
    metrics = tracing.layer_metrics(tracer.spans, missing)
    assert "kernels.count_table_s" not in metrics and "decoder.table_s" not in metrics
    assert "cli.self_s" in metrics


def test_random_ensemble_counts_at_seed_1():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "random-ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    assert counts == {
        "kernels.supports": 2695 * 2 ** 9,
        "decoder.syndromes": 54404,
        "exact.backend_builds": 2695,
        "exact.cache_hits": 6305,
        "exact.theta_evals": 9000,
        "families.product_calls": 0,
        "families.product_classes": 0,
        "families.rep_calls": 0,
        "experiments.bisect_evals": 0,
        "experiments.samples": 9000 * 200,
        "codes.builds": 9000,
    }


def test_compare_refuses_different_kernel_backends(tmp_path):
    base = {"workload": "rsc-exact", "trace": False, "env": {"kernel_backend": "fallback"},
            "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    other = dict(base, env={"kernel_backend": "compiled"})
    paths = []
    for name, payload in (("a.json", base), ("b.json", other), ("c.json", base)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(payload))
    run = lambda a, b: subprocess.run([sys.executable, str(HERE / "compare.py"), a, b],
                                      capture_output=True, text=True, timeout=60)
    refused = run(paths[0], paths[1])
    assert refused.returncode == 2 and "kernel backend" in refused.stderr
    same = run(paths[0], paths[2])
    assert same.returncode == 0 and "wall_s: 2 -> 2 s (+0.0%)" in same.stdout
