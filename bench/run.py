"""Benchmark of the alcove package, one workload per call.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

The workload runs in a fresh interpreter (bench/worker.py) that imports
alcove from the src/ directory beside bench/.  With --trace 0 the last line
of output is one JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics from a traced run, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("census", "search", "pairs")
SETUP_PROBES = 7  # fresh interpreters timed from start to ready; the median is setup_s
TIME_LIMIT = 170.0  # seconds for the whole call

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "cartan.build_ms": "ms",
    "apartment.walk_s": "s",
    "apartment.vertices": "count",
    "apartment.vertices_per_s": "1/s",
    "apartment.candidates": "count",
    "apartment.yield_ratio": "ratio",
    "apartment.fold_s": "s",
    "apartment.folds": "count",
    "apartment.is_vertex_us": "us",
    "distance.search_s": "s",
    "distance.nodes": "count",
    "distance.nodes_per_s": "1/s",
    "distance.candidates": "count",
    "distance.wall_us": "us",
    "distance.ball_s": "s",
    "growth.self_s": "s",
    "growth.passes": "walks/op",
    "qpoly.s": "s",
    "moyprasad.concave_s": "s",
    "moyprasad.concave_calls": "count",
    "moyprasad.filtration_us": "us",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def machine_line() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "alcove").glob("*.py")))
    return (
        f"# machine: {platform.system()} {platform.machine()}, {model}, {os.cpu_count()} cpus, "
        f"Python {platform.python_version()}; src/alcove: {lines} lines"
    )


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.base = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + TIME_LIMIT

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def setup_time(self) -> float:
        """Calibrated seconds from starting a fresh interpreter to its "ready" line.

        The probe samples the calibration loop when it starts and when it is
        ready, and reports the time those samples took, which is taken out.
        """
        started = time.perf_counter_ns()
        proc = subprocess.Popen(self.base + ["--mode", "setup"], stdout=subprocess.PIPE,
                                env=self.env, text=True)
        try:
            line = proc.stdout.readline().split()
            elapsed = time.perf_counter_ns() - started
            proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if len(line) != 4 or line[0] != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        first, last, spent = (int(v) for v in line[1:])
        return (elapsed - spent) * calibration.factor(first, last) * 1e-9

    def work(self, mode: str, seconds: float, *extra: str) -> dict:
        cmd = self.base + ["--mode", mode, "--seconds", repr(seconds), *extra]
        done = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              timeout=self.remaining())
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"worker failed with exit code {done.returncode}")
        return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "alcove" / "__init__.py").is_file():
        print(f"bench: no alcove package under {SRC}", file=sys.stderr)
        return 2

    print(machine_line(), flush=True)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace == 0:
            setups = [runner.setup_time() for _ in range(SETUP_PROBES)]
            report = runner.work("run", args.seconds)
            values = {name: report[name] for name in END_TO_END_UNITS if name in report}
            values["setup_s"] = statistics.median(setups)
            units = END_TO_END_UNITS
            runs = [report]
        else:
            # half the time untraced, half traced; the difference is the overhead
            base = runner.work("run", args.seconds / 2)
            spans = HERE / "traces" / f"{args.workload}-seed{args.seed}.csv"
            spans.parent.mkdir(exist_ok=True)
            traced = runner.work("trace", args.seconds / 2, "--spans-out", str(spans))
            values = dict(traced["layers"])
            values["trace.overhead_s"] = traced["run_s"] - base["run_s"]
            units = PER_LAYER_UNITS
            runs = [base, traced]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"bench: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
