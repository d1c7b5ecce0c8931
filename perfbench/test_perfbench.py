"""Tests of the benchmark harness itself: checks, seeding, spans, metric names."""

import json
import os

import pytest

import run

run.import_jcsim()

import spans  # noqa: E402
import workloads  # noqa: E402
from jcsim import cli, solver  # noqa: E402


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_self_time_subtracts_the_union_of_child_intervals():
    # A root with a nested chain and two overlapping children, in start order.
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 7.0, 8.0]
    parents = [-1, 0, 1, 0, 0]
    assert list(spans.self_times(starts, ends, parents)) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0])


def test_recorder_nests_spans_and_self_times_add_up():
    rec = spans.Recorder()
    rec.op = 7

    def leaf():
        return sum(range(20000))

    def middle():
        return rec.call("leaf", leaf) + rec.call("leaf", leaf)

    rec.call("root", rec.call, ("middle", middle))
    assert rec.names == ["root", "middle", "leaf", "leaf"]
    assert list(rec.parents) == [-1, 0, 1, 1]
    assert list(rec.ops) == [7] * 4
    own = spans.self_times(rec.starts, rec.ends, rec.parents)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(rec.ends[0] - rec.starts[0], rel=1e-9)


def test_corrupted_csv_value_counts_the_op_as_failed(tmp_path, monkeypatch):
    op = workloads.figures_ops(3, str(tmp_path))[0]
    client = run.Client(cli.main)
    good = [client.execute(op)]
    assert good[0][1] is None

    write = cli._write_atomic

    def corrupt_one_value(path, text):
        lines = text.split("\n")
        tau, value = lines[1000].split(",")
        lines[1000] = f"{tau},{float(value) + 1e-6!r}"
        write(path, "\n".join(lines))

    monkeypatch.setattr(cli, "_write_atomic", corrupt_one_value)
    bad = [client.execute(op)]
    assert bad[0][1] is not None and "closed form" in bad[0][1]
    summary = run.summarize([good, bad], [op])
    assert (summary["ops"], summary["failed"], summary["fail_frac"]) == (2, 1, 0.5)


def test_same_seed_writes_same_inputs(tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory, seed in ((first, 5), (second, 5), (other, 6)):
        directory.mkdir()
        for workload in ("figures", "thermal"):
            workloads.make_ops(workload, seed, str(directory))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and names
    contents = [[(d / n).read_text() for n in names] for d in (first, second, other)]
    assert contents[0] == contents[1] != contents[2]


def test_traced_op_records_layers_and_restores_the_package(tmp_path):
    original = solver.steady_state
    rec = spans.Recorder()
    client = run.Client(cli.main, rec)
    ops = workloads.figures_ops(4, str(tmp_path))
    with spans.traced(rec):
        assert solver.steady_state is not original
        results = [client.execute(op) for op in ops if op.label.startswith(("evolve", "steady"))]
    assert solver.steady_state is original and cli.steady_state is original
    assert all(failure is None for _, failure in results)
    names = set(rec.names)
    assert {"cli", "scenario.parse", "solver.spectral", "solver.validate",
            "hilbert.diagnostics", "observables.evaluate", "solver.steady"} <= names
    layers = spans.layer_metrics(rec, passes=1)
    assert layers["solver.samples_validated"] == 9 * workloads.STEPS
    assert layers["generators.build_useful_ratio"] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark()
    emitted = run.end_to_end([1.0], {"wall_s": 1.0, "latency_p50_s": 1.0})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: value["unit"] for name, value in emitted.items()}
    layers = spans.layer_metrics(spans.Recorder(), passes=1)
    layers["trace.overhead_frac"] = 0.0
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.unit(name) for name in layers}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
