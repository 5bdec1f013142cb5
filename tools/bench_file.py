"""Write BENCH_<N>.json, the benchmark's figures for one change.

    python3 tools/bench_file.py --pr N

Runs the benchmark command that BENCHMARK.json declares (bench/run.py)
in a subprocess, on each of its workloads: one end-to-end run per seed
of SEEDS at BENCHMARK.json's run_seconds, then one --trace 1 run on
the first seed for the per-layer metrics.
The file records the runner's "# machine:" line, the seeds, each
workload's correctness and operations attempted and failed over its
end-to-end runs, each end-to-end metric's median, min and max over
those runs, the traced run's per-layer values, the code lines of each
module of src/alcove (tools/code_lines.py) with their total, and the
number of public names its modules export.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

from code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)

# (workload, seed, seconds, trace) -> the runner's stdout
Runner = Callable[[str, int, float, int], str]


def parse_output(stdout: str) -> tuple[str, dict]:
    """The runner's "# machine:" line and its closing JSON report."""
    lines = stdout.strip().splitlines()
    machine = next((line for line in lines if line.startswith("# machine:")), None)
    if machine is None or not lines[-1].startswith("{"):
        raise ValueError("runner output has no machine line or no JSON report")
    return machine, json.loads(lines[-1])


def summarize(reports: list[dict]) -> dict:
    """Each metric's unit and its median, min and max over the reports."""
    summary = {}
    for name, metric in reports[0]["metrics"].items():
        values = [report["metrics"][name]["value"] for report in reports]
        summary[name] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
        }
    return summary


def bench_file(
    pr: int, run: Runner, seconds: float, names: list[str], lines: dict, public: int
) -> dict:
    """The BENCH file's content, from run's output on each workload."""
    workloads = {}
    for name in names:
        reports = [parse_output(run(name, seed, seconds, 0))[1] for seed in SEEDS]
        # every run of one checkout prints the same machine line
        machine, traced = parse_output(run(name, SEEDS[0], seconds, 1))
        workloads[name] = {
            "correct": all(report["correct"] for report in reports + [traced]),
            "attempted": sum(report["attempted"] for report in reports),
            "failed": sum(report["failed"] for report in reports),
            "end_to_end": summarize(reports),
            "per_layer": traced["metrics"],
        }
    return {
        "pr": pr,
        "machine": machine,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": SEEDS[0],
        "code_lines": lines,
        "public_names": public,
        "workloads": workloads,
    }


def src_code_lines() -> dict:
    """Code lines of each module of src/alcove, and their total."""
    counts = {
        str(path.relative_to(ROOT)): code_lines(path.read_text())
        for path in sorted((ROOT / "src" / "alcove").rglob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def public_names() -> int:
    """Total length of the literal __all__ lists of src/alcove's
    modules, read with ast: no module is imported."""
    return sum(
        len(node.value.elts)
        for path in (ROOT / "src" / "alcove").rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.List)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pr < 1:
        parser.error("--pr must be positive")

    def run(workload: str, seed: int, seconds: float, trace: int) -> str:
        print(f"bench_file: {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        command = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
        return done.stdout

    names = [workload["name"] for workload in spec["workloads"]]
    content = bench_file(
        args.pr, run, spec["run_seconds"], names, src_code_lines(), public_names()
    )
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(content, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
