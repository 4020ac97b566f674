"""entroscore benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload score_narrow --seed 1 --seconds 20 --trace 0

The workloads and their seeded inputs are defined in ``workloads.py``.  Each
run is a closed loop with a single caller: one ``entroscore`` command at a
time, in one process, with BLAS threads capped at the number of usable cores.

``--trace 0`` measures, for the workload's command,

* ``items_per_s``: items per second of one in-process ``cli.main`` call after
  a warm-up call (median over calls);
* ``command_s``: wall time of the same command in a fresh interpreter (median);
* ``setup_s``: time to ``import entroscore.cli`` in a fresh interpreter (median);
* ``peak_rss_mb``: peak resident memory of the fresh command process (median).

``items_per_s`` is given at the reference host speed.  The shared hosts this
runs on change speed by up to 1.7x for minutes at a time, and that drift
swamps a 25% bound between two runs.  So a fixed calibration loop of the same
kind of work as an in-process call (interpreter arithmetic and tiny numpy
calls) runs between the timed operations, and the median in-process time is
scaled by ``CALIBRATION_REFERENCE_S`` over the median calibration time of the
run: a host running at half speed doubles both, and the ratio stays.  The
fresh-interpreter timings (``command_s``, ``setup_s``) are raw medians: they
are mostly process start, file reads and page faults, which the calibration
does not track (over one stretch of drift it got 11% faster while these got
6-11% slower).  The raw timings and the host's median slowdown are kept in the
result record.  Three in-process calls per fresh command give the noisiest
metric the most samples, and the loop stops once the next round would end
more than half a round past ``--seconds``.

``--trace 1`` alternates untraced and traced in-process calls and reports the
per-layer metrics of ``tracing.py`` (medians over traced calls; counts are
per call and must repeat exactly).

Every command's exit code and output are checked (``workloads.check_output``)
and every output must be byte-identical to the first; a command with any
problem counts as failed.  The last line of stdout is the JSON result; a
record with the environment, the sha256 of every input and output, and all
raw samples is written under ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_REPEATS = 3
IN_PROCESS_PER_ROUND = 3
# What _calibration_loop takes on the reference host (a 2-core Xeon, CPython 3.11).
CALIBRATION_REFERENCE_S = 0.12
CALIBRATION_ROUNDS = 13000
_CALIBRATION_VECTOR = [0.1, 0.2, 0.3, 0.15, 0.25]
COMMAND_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"items_per_s": "items/s", "command_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_CHILD_COMMAND = "import sys\nfrom entroscore.cli import main\nsys.exit(main(sys.argv[1:]))"
_CHILD_IMPORT = (
    "import time\nstart = time.perf_counter()\nimport entroscore.cli\n"
    "print(repr(time.perf_counter() - start))"
)


def _calibration_loop() -> float:
    """Seconds taken by fixed work shaped like the program's: tiny numpy calls, Python arithmetic."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        vector = np.asarray(_CALIBRATION_VECTOR, dtype=float)
        acc += math.fsum((vector * vector).tolist()) + float(vector.sum())
        for j in range(40):
            acc += j * i % 7
    return time.perf_counter() - start


def _pin_blas_threads(nproc: int) -> int:
    """Cap every BLAS/OpenMP thread variable at ``nproc`` (set it to ``nproc`` if unset)."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return int(os.environ[BLAS_THREAD_VARS[0]])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _env_block(seed: int, nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": nproc, "cpu": _cpu_model(), "blas": blas, "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS}, "seed": seed,
    }


class Runner:
    """Runs one workload's command and keeps the tally of checked operations."""

    def __init__(self, workload, run_dir: Path, main):
        import workloads

        self.workload = workload
        self.run_dir = run_dir
        self.main = main
        self.check = workloads.check_output
        self.sha256 = workloads.sha256_file
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_sha256: str | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def record(self, exit_code: int, out: Path) -> None:
        problems = self.check(self.workload, exit_code, out)
        if out.is_file():
            digest = self.sha256(out)
            if self.output_sha256 is None and not problems:
                self.output_sha256 = digest
            elif digest != self.output_sha256:
                problems.append("output bytes differ from the first correct output")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def in_process(self, tracer=None, request: int = 0) -> float:
        """One checked ``cli.main`` call; returns its wall time in seconds."""
        out = self.run_dir / "out-in-process"
        out.unlink(missing_ok=True)
        argv = self.workload.argv + ["--out", str(out)]
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.main(argv) if tracer is None else tracer.call(request, self.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # counted as a failed operation, with its traceback kept
            code = -1
            self.problems.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        self.record(code, out)
        return elapsed

    def _spawn(self, code: str, args: list[str]) -> tuple[int, float, float, str]:
        """Run ``python -c code args``; returns exit code, wall s, peak RSS MB, stdout."""
        stdout_path, stderr_path = self.run_dir / "child.stdout", self.run_dir / "child.stderr"
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code, *args], env=self.env,
                                    stdout=stdout, stderr=stderr, cwd=self.run_dir)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.problems.append(stderr_path.read_text(errors="replace")[-500:])
        return proc.returncode, elapsed, usage.ru_maxrss * 1024 / 1e6, stdout_path.read_text()

    def fresh(self) -> tuple[float, float]:
        """One checked command in a fresh interpreter; returns wall s and peak RSS MB."""
        out = self.run_dir / "out-fresh"
        out.unlink(missing_ok=True)
        code, elapsed, rss, _ = self._spawn(_CHILD_COMMAND, self.workload.argv + ["--out", str(out)])
        self.record(code, out)
        return elapsed, rss

    def import_time(self) -> float:
        """Seconds to import ``entroscore.cli`` in a fresh interpreter, as the child measures it."""
        code, _, _, stdout = self._spawn(_CHILD_IMPORT, [])
        self.attempted += 1
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            return float(stdout.strip())
        except ValueError as exc:
            self.failed += 1
            self.problems.append(f"import probe failed: {exc}")
            return float("nan")

    def measure(self, seconds: float) -> tuple[dict, dict]:
        self.in_process()  # warm-up: lazy imports, allocator
        self.import_time()  # warm-up: bytecode caches
        _calibration_loop()
        # Interleaved, so that every metric and the calibration sample the
        # whole run alike: the host's speed drifts over seconds, and a metric
        # measured in one stretch of the run would see only part of that drift.
        local, fresh, setup, calibration = [], [], [], [_calibration_loop()]
        start, rounds = time.perf_counter(), 0
        while True:
            spent = time.perf_counter() - start
            if rounds >= MIN_REPEATS and spent + spent / rounds / 2 > seconds:
                break  # the next round would end more than half a round late
            setup.append(self.import_time())
            calibration.append(_calibration_loop())
            fresh.append(self.fresh())
            for _ in range(IN_PROCESS_PER_ROUND):
                calibration.append(_calibration_loop())
                local.append(self.in_process())
            rounds += 1
        slowdown = statistics.median(calibration) / CALIBRATION_REFERENCE_S
        metrics = {
            "items_per_s": self.workload.items * slowdown / statistics.median(local),
            "command_s": statistics.median(wall for wall, _ in fresh),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss for _, rss in fresh),
        }
        samples = {"host_slowdown": slowdown, "calibration_s": calibration, "in_process_s": local,
                   "fresh_s": [w for w, _ in fresh], "peak_rss_mb": [r for _, r in fresh],
                   "setup_s": setup}
        return metrics, samples

    def trace(self, seconds: float, tracer) -> tuple[dict, dict]:
        import numpy as np
        from tracing import RULE_SLUGS, layer_metrics

        deadline = time.perf_counter() + seconds
        self.in_process()  # warm-up
        untraced, traced, per_request, score_us = [], [], [], []
        while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
            untraced.append(self.in_process())
            tracer.install()
            try:
                traced.append(self.in_process(tracer, len(traced)))
            finally:
                tracer.restore()
            layers, durations = layer_metrics(tracer, len(traced) - 1, self.workload.items)
            per_request.append(layers)
            score_us.append(durations)
        metrics = {}
        for name, value in per_request[0].items():
            if isinstance(value, int) or name == "scoring.score_calls_per_item":  # counts: exact
                metrics[name] = value
                if any(m[name] != value for m in per_request):
                    self.problems.append(f"{name} differs between traced calls")
            else:
                metrics[name] = statistics.median(m[name] for m in per_request)
        for slug in RULE_SLUGS:
            pooled = np.concatenate([d[slug] for d in score_us])
            metrics[f"scoring.score_us_samples.{slug}"] = int(pooled.size)
            for stat, q in (("p50", 50), ("p99", 99)):
                metrics[f"scoring.score_us_{stat}.{slug}"] = float(np.percentile(pooled, q)) if pooled.size else 0.0
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        return metrics, {"untraced_s": untraced, "traced_s": traced}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "entroscore" / "cli.py").is_file():
        print(f"bench: no entroscore sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = _pin_blas_threads(nproc)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import workloads
    import tracing
    from entroscore import cli

    if Path(cli.__file__).resolve().parent != SRC / "entroscore":
        print(f"bench: imported entroscore from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.generate(args.workload, args.seed, run_dir / "inputs")
        runner = Runner(workload, run_dir, cli.main)
        tracer = tracing.Tracer(workload.name) if args.trace else None
        if tracer is None:
            metrics, samples = runner.measure(args.seconds)
            units = END_TO_END_UNITS
        else:
            metrics, samples = runner.trace(args.seconds, tracer)
            units = tracing.PER_LAYER_UNITS
            tracer.save(WORK / "traces" / f"{workload.name}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    error_rate = runner.failed / max(runner.attempted, 1)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": _env_block(args.seed, nproc, threads), "items_per_command": workload.items,
        "inputs_sha256": workload.inputs, "output_sha256": runner.output_sha256,
        "attempted": runner.attempted, "failed": runner.failed, "error_rate": error_rate,
        "problems": runner.problems, "metrics": metrics, "samples": samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"items/command {workload.items}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("inputs sha256 " + json.dumps(workload.inputs, sort_keys=True))
    print(f"output sha256 {runner.output_sha256}")
    if "host_slowdown" in samples:
        print(f"host slowdown {samples['host_slowdown']:.3f} (calibration median / reference); "
              "items_per_s below is multiplied by it")
    for problem in runner.problems[:10]:
        print("problem: " + problem.strip().replace("\n", " | "))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]!r} {unit}")
    print(f"  {'error_rate':40s} {error_rate!r} failed/attempted "
          f"({runner.failed}/{runner.attempted})")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
