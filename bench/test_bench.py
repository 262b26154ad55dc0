"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

Each workload runs at the tiny size (a few small items at low effort), so
the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

DETERMINISTIC = ["solver.points_returned", "kernel.einsum.calls", "kernel.linsolve.rows"]


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """Two untraced and two traced tiny runs of one workload, same seed."""
    name = request.param
    return name, [result_of(bench(name, 0)) for _ in range(2)], [result_of(bench(name, 1)) for _ in range(2)]


def test_smoke_run_prints_every_metric(runs):
    name, plain, traced = runs
    for result, spec in ((plain[0], SPEC["end_to_end"]), (traced[0], SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0, name
        assert list(result["metrics"]) == [m["name"] for m in spec]
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert plain[0]["metrics"][m["name"]]["value"] > 0


def test_repeat_runs_give_identical_counts(runs):
    name, plain, traced = runs
    assert plain[0]["metrics"]["recall"] == plain[1]["metrics"]["recall"]
    assert plain[0]["metrics"]["morse_consistent_share"] == plain[1]["metrics"]["morse_consistent_share"]
    for key in DETERMINISTIC:
        assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key
    assert traced[0]["metrics"]["solver.points_returned"]["value"] > 0
    assert traced[0]["metrics"]["kernel.einsum.calls"]["value"] > 0


def test_item_self_times_sum_to_item_wall(runs):
    name = runs[0]
    path = os.path.join(HERE, "_state", "out", f"spans-{name}-tiny-s3.jsonl")
    with open(path, encoding="ascii") as fh:
        header, *spans = [json.loads(line) for line in fh]
    assert header == ["name", "start", "end", "parent", "item"]
    tracer = tracing.Tracer()
    tracer.spans = spans
    self_times = tracer.self_times()
    per_item, wall = {}, {}
    for (span_name, start, end, parent, item), s in zip(spans, self_times):
        per_item[item] = per_item.get(item, 0.0) + s
        if span_name == tracing.ITEM_SPAN:
            assert parent == -1
            wall[item] = end - start
        else:
            assert spans[parent][4] == item
    assert len(wall) > 1
    for item, total in per_item.items():
        assert total == pytest.approx(wall[item], rel=1e-9, abs=1e-12)


def test_layers_separate_as_designed(runs):
    name, _, traced = runs
    metrics = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    if name == "svd_tuples":
        assert metrics["core.symmetry_check.calls"] == 0
        assert metrics["oracle.svd_small.calls"] > 0
    if name == "circle_recall":
        assert metrics["oracle.circle.calls"] > 0
    if name == "cli_mixed":
        assert metrics["cli.main.calls"] > 0 and metrics["solver.degenerate_raised"] == 4
        assert metrics["cli.report_bytes"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_state", "__pycache__"))
    proc = bench("eig_audit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it_at_the_minimum_item_count():
    times = [float(i) for i in range(run.TAIL_MIN_ITEMS)]
    value, beyond = run.tail(times)
    assert beyond >= 10
    assert value == times[-1 - beyond]


def test_einsum_flop_from_shapes():
    assert tracing.einsum_flop("abc,Za,Zb->Zc", [(3, 4, 5), (7, 3), (7, 4)]) == 3 * 4 * 5 * 7 * 3


def test_tuple_class_is_invariant_under_even_sign_flips():
    rng = np.random.default_rng(0)
    vecs = [rng.standard_normal(n) for n in (3, 4, 5)]
    base = workloads.tuple_class(vecs)
    for signs in [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
        flipped = [s * v for s, v in zip(signs, vecs)]
        assert np.array_equal(workloads.tuple_class(flipped), base)
    assert not np.allclose(workloads.tuple_class([-vecs[0], vecs[1], vecs[2]]), base)
