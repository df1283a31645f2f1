"""Tests of the benchmark itself, on tiny corpora."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def tiny(workload, trace=0):
    return run.parse_args(["--workload", workload, "--seed", "7",
                           "--seconds", "0.05", "--trace", str(trace),
                           "--size", "tiny"])


def test_benchmark_json_matches_the_code():
    assert ({w["name"]: w["why"] for w in BENCHMARK["workloads"]}
            == {w.name: w.why for w in workloads.WORKLOADS.values()})
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.TRACE_METRICS


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_of_every_workload(name):
    result, meta, code = run.run(tiny(name))
    assert code == 0 and result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert meta["samples"]["positive_ref.p50"] > 0
    assert meta["samples"]["negative_ref.p50"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer(name):
    result, meta, code = run.run(tiny(name, trace=1))
    assert code == 0 and meta["absent"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == run.TRACE_METRICS
    searches = metrics["_kernels.search_solve.calls"]
    assert (searches > 0) == (name == "reduce-3col")
    assert (metrics["evaluation.candidates"] > 0) == (name == "evaluate-star")
    assert metrics["trace.overhead"] > 0


def _flip(expect):
    return not expect if isinstance(expect, bool) else expect + 1


@pytest.mark.parametrize("name", NAMES)
def test_flipped_reference_raises_failed_frac(name):
    lib = run.load_library()
    workload = workloads.WORKLOADS[name]
    corpus = workload.make(7, "tiny")
    run.prepare(lib, workload, corpus)
    clean = run.measure(lib, workload, corpus, 0.01)
    corpus[0].expect = _flip(corpus[0].expect)
    flipped = run.measure(lib, workload, corpus, 0.01)
    assert clean.failed == 0
    assert flipped.failed / flipped.attempted > 0


def test_wrong_verdicts_make_the_command_fail(monkeypatch, capsys):
    workload = workloads.WORKLOADS["gen-large"]
    monkeypatch.setitem(workloads.WORKLOADS, "gen-large", dataclasses.replace(
        workload, reference=lambda lib, inst: False))
    assert run.main(["--workload", "gen-large", "--seed", "7",
                     "--seconds", "0.05", "--size", "tiny"]) != 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_span_self_times_fit_in_the_wall_time(name):
    lib = run.load_library()
    workload = workloads.WORKLOADS[name]
    corpus = workload.make(7, "tiny")
    run.prepare(lib, workload, corpus)
    tracer = spans.Tracer()
    tracer.install()
    try:
        stats = run.measure(lib, workload, corpus, 0.01, tracer)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert all(self_s >= -1e-9 for self_s, _ in totals.values())
    assert 0 < sum(self_s for self_s, _ in totals.values()) <= sum(stats.passes)


def test_missing_function_shows_as_absent():
    lib = run.load_library()
    original = lib.fileio.parse_snf
    tracer = spans.Tracer()
    tracer.install(["fileio.no_such_function", "fileio.parse_snf"])
    try:
        assert lib.fileio.parse_snf is not original
        lib.fileio.parse_snf("operators: *\nclause: x\n")
    finally:
        tracer.uninstall()
    assert lib.fileio.parse_snf is original
    assert tracer.absent == ["fileio.no_such_function"]
    assert tracer.totals()["fileio.parse_snf"][1] == 1
    assert tracer.counts["fileio.bytes_parsed"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make
    assert make(3, "tiny") == make(3, "tiny")
    assert make(3, "tiny") != make(4, "tiny")


def test_command_line_output_and_missing_sources(tmp_path):
    argv = [sys.executable, "perfbench/run.py", "--workload", "gen-large",
            "--seed", "1", "--seconds", "0.05", "--trace", "0",
            "--size", "tiny"]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
