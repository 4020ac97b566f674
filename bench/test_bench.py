"""Self-tests of the benchmark: ``python3 -m pytest bench -q`` from the repository root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from entroscore import cli, measure  # noqa: E402

COUNTS = [name for name in tracing.PER_LAYER_UNITS
          if name.endswith("_calls") or name in ("scoring.score_calls_per_item", "trace.spans")]


def _traced_layers(workload, tracer, request=0):
    out = Path(workload.argv[1]).parent / "out.csv"
    tracer.install()
    try:
        code = tracer.call(request, cli.main, workload.argv + ["--out", str(out)])
    finally:
        tracer.restore()
    assert workloads.check_output(workload, code, out) == []
    return tracing.layer_metrics(tracer, request, workload.items)[0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    first = workloads.generate(name, 7, tmp_path / "a")
    second = workloads.generate(name, 7, tmp_path / "b")
    other = workloads.generate(name, 8, tmp_path / "c")
    assert first.inputs == second.inputs
    for file in first.inputs:
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert other.inputs != first.inputs
    assert first.items == other.items


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_benchmark_metric_is_printed_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score_narrow", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert f"{name} " in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_self_times_are_nonnegative_and_sum_to_the_traced_wall_time(tmp_path):
    workload = workloads.generate("divergence", 1, tmp_path)
    tracer = tracing.Tracer(workload.name)
    _traced_layers(workload, tracer)
    spans = tracer.spans(0)
    own = tracing.self_times(spans)
    root = np.flatnonzero(spans["parent"] < 0)
    assert root.size == 1 and tracer.names[spans["name"][root[0]]] == "cli.main"
    assert np.all(own >= 0)
    assert int(own.sum()) == int(spans["end"][root[0]] - spans["start"][root[0]])
    assert np.all(spans["end"] >= spans["start"])


def test_restore_puts_every_original_back():
    originals = (measure.pair, cli.build_rule, cli.catalog_entropy, cli.verify_propriety,
                 measure.DualVector.__init__)
    tracer = tracing.Tracer("check")
    tracer.install()
    assert cli.build_rule is not originals[1]
    tracer.restore()
    assert (measure.pair, cli.build_rule, cli.catalog_entropy, cli.verify_propriety,
            measure.DualVector.__init__) == originals
    assert "__init__" not in vars(measure.Density)


@pytest.mark.parametrize("name", ["score_narrow", "score_wide", "divergence"])
def test_corrupted_output_counts_as_a_failed_operation(tmp_path, name):
    workload = workloads.generate(name, 2, tmp_path / "inputs")

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[-1])
        rows = out.read_text().splitlines()
        cells = rows[1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
        rows[1] = ",".join(cells)
        out.write_text("\n".join(rows) + "\n")
        return code

    runner = run.Runner(workload, tmp_path, cli.main)
    runner.in_process()
    assert (runner.attempted, runner.failed) == (1, 0)
    runner.main = corrupting_main
    runner.in_process()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_items_per_s_is_scaled_to_the_reference_host_speed(monkeypatch):
    """A host at half speed doubles the calibration and the in-process call alike."""
    def metrics_at(slowdown):
        monkeypatch.setattr(run, "_calibration_loop", lambda: run.CALIBRATION_REFERENCE_S * slowdown)
        runner = object.__new__(run.Runner)
        runner.workload = SimpleNamespace(items=1000)
        runner.in_process = lambda: 0.5 * slowdown
        runner.import_time = lambda: 0.25 * slowdown
        runner.fresh = lambda: (1.5 * slowdown, 80.0)
        return runner.measure(0)[0]

    assert metrics_at(1.0) == pytest.approx(
        {"items_per_s": 2000.0, "command_s": 1.5, "setup_s": 0.25, "peak_rss_mb": 80.0})
    assert metrics_at(2.0) == pytest.approx(
        {"items_per_s": 2000.0, "command_s": 3.0, "setup_s": 0.5, "peak_rss_mb": 80.0})


def test_reference_check_catches_a_wrong_cell_and_a_wrong_verdict(tmp_path):
    workload = workloads.generate("score_narrow", 4, tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(workload.argv + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    picked = np.random.default_rng(workload.seed).choice(
        workloads.NARROW_ROWS, size=workloads.CHECKED_CELLS, replace=False)
    row = 1 + int(picked[0])
    cells = rows[row].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)  # quadratic_score
    rows[row] = ",".join(cells)
    out.write_text("\n".join(rows) + "\n")
    assert any("quadratic_score" in p for p in workloads.check_output(workload, 0, out))
    assert workloads.check_output(workload, 1, out) == ["exit code 1"]

    verify = workloads.generate("verify", 4, tmp_path / "verify")
    report = tmp_path / "report.json"
    assert cli.main(verify.argv + ["--out", str(report)]) == 0
    assert workloads.check_output(verify, 0, report) == []
    payload = json.loads(report.read_text())
    payload["probes"]["corner"]["verified"].pop()
    report.write_text(json.dumps(payload))
    assert workloads.check_output(verify, 0, report) == ["probe corner: verdicts differ from the expected ones"]
    payload["probes"]["corner"]["rejected"] = [{}]
    report.write_text(json.dumps(payload))
    assert workloads.check_output(verify, 0, report)[-1].startswith("malformed output")


@pytest.mark.parametrize("name", ["score_narrow", "score_wide"])
def test_per_layer_counts_repeat_exactly(tmp_path, name):
    workload = workloads.generate(name, 5, tmp_path)
    first = _traced_layers(workload, tracing.Tracer(name))
    second = _traced_layers(workload, tracing.Tracer(name))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["scoring.score_calls_per_item"] == 2.0
    assert (first["measure.pair_inf_calls"] > 0) == (name == "score_wide")
