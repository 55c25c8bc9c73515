"""The benchmark's own tests, on tiny inputs (``--size tiny``).

Run with ``python3 -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def run_bench(*args, cwd=ROOT, run_py=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS
                                        for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def tiny_run(request):
    workload, trace = request.param
    done = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return workload, trace, lines, json.loads(lines[-1])


def test_every_declared_metric_printed_with_unit(tiny_run):
    workload, trace, lines, result = tiny_run
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = re.compile(rf"^metric {re.escape(m['name'])} \S+ "
                             rf"{re.escape(m['unit'])}(  \(.*\))?$")
        assert any(pattern.match(line) for line in lines), m["name"]
    assert any(line.startswith("metric failed_ratio 0 ") for line in lines)
    assert any(line.startswith("provenance {") for line in lines)


def test_traced_counts_read_as_predicted(tiny_run):
    workload, trace, _, result = tiny_run
    if not trace:
        pytest.skip("per-layer counts come from the traced run")
    value = {k: v["value"] for k, v in result["metrics"].items()}
    after_setup = ("counterfactual.reinforce_step_calls",
                   "embeddings.rgcn_forward_calls", "autodiff.backward_calls")
    if workload == "simulate":
        assert all(value[k] == 0 for k in after_setup)
        assert value["flm.decode_calls"] > 0
        assert value["flm.step_mask_calls"] > 0
        assert value["setup.embeddings.rgcn_forward_calls"] > 0
    else:
        assert all(value[k] > 0 for k in after_setup)
        assert value["counterfactual.rgcn_forwards_per_reinforce_step"] > 0
    assert value["trace.overhead_ratio"] > 0


def _check_nesting(tracer):
    index = spans.SpanIndex(tracer.spans)
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.id < s.id
            assert parent.start <= s.start and s.end <= parent.end
        assert index.self_time[s.id] >= -1e-9
    return {s.name: s for s in tracer.spans}


def test_spans_nest_and_cover_aliases_and_methods(tmp_path):
    from recflow import cli
    from recflow import flm as flmm
    from recflow import kg as kgm

    original = (kgm.sample_path, flmm.sample_path, flmm.FlowLM.step_mask,
                cli.HANDLERS["train"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in ("protocol", "cli_train"):
            workload = workloads.WORKLOADS[name]("tiny")
            with tracer.phase(spans.SETUP):
                state = workload.setup(4, str(tmp_path))
            with tracer.phase(spans.OP):
                workload.check(state, workload.op(state))
    finally:
        tracer.uninstall()
    assert (kgm.sample_path, flmm.sample_path, flmm.FlowLM.step_mask,
            cli.HANDLERS["train"]) == original

    by_name = _check_nesting(tracer)
    # flm imports sample_path by name; pseudo flows must still reach kg's span
    parents = {tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "kg.sample_path"}
    assert "flm.sample_pseudo_flow" in parents
    assert "flm.FlowLM.step_mask" in by_name
    assert "cli.cmd_train" in by_name  # reached through cli.HANDLERS

    path = tmp_path / "trace.jsonl"
    tracer.write(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(tracer.spans)
    assert {r["run"] for r in records} == {tracer.run_id}


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer("t")
    root = spans.Span(0, None, spans.OP)
    a = spans.Span(1, 0, "a")
    b = spans.Span(2, 1, "b")
    c = spans.Span(3, 1, "c")
    for span, (start, end) in zip((root, a, b, c),
                                  ((0, 10), (1, 9), (2, 4), (5, 8))):
        span.start, span.end = start, end
        tracer.spans.append(span)
    index = spans.SpanIndex(tracer.spans)
    assert index.self_time == [2, 3, 2, 3]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_generates_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]("full")
    first = workload.input_bytes(11, str(tmp_path / "a"))
    second = workload.input_bytes(11, str(tmp_path / "b"))
    assert first == second
    assert first != workload.input_bytes(12, str(tmp_path / "c"))


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(19))) is None
    assert workloads.tail_percentile(list(range(20)))[0] == 50.0
    assert workloads.tail_percentile(list(range(100)))[0] == 90.0
    assert workloads.tail_percentile(list(range(1000)))[0] == 99.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     run_py=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
