"""Runs one workload in this fresh interpreter and prints its figures as JSON.

    python3 bench/worker.py --src src --workload pairs --seed 1 --seconds 15 --mode run

--mode setup prints "ready" once set-up is done and exits; run.py times that.
--mode run repeats whole rounds for about --seconds and reports latencies.
--mode trace does the same with timing shims installed, and reports the
per-layer figures and the exact work counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration

NS = 1e-9


def run_rounds(workload, seconds: float, limit_error) -> dict:
    """Whole rounds, one operation at a time, until the next would overrun.

    Times are calibrated (see calibration.py): an operation's time is scaled
    by the calibration samples taken just before and after its item and, for
    a long operation, during it.  Latency percentiles are taken over the
    operations of a round, each represented by its median over the rounds.
    """
    per_op: list[list[float]] = []  # calibrated latencies of the k-th operation of a round
    round_wall: list[float] = []
    round_cpu: list[float] = []
    raw_total = calibrated_total = 0.0
    attempted = failed = 0
    errors: list[str] = []
    correct = True
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    deadline = clock() + int(seconds * 1e9)
    with calibration.Meter() as meter:
        while True:
            started = clock()
            wall = cpu = 0.0
            k = 0
            for item in workload.items:
                before = calibration.sample()
                measured = []  # (wall ns, cpu ns, samples taken during the call)
                results = []
                for call in item.calls:
                    first, spent = len(meter.samples), meter.spent_ns
                    c0 = cpu_clock()
                    t0 = clock()
                    meter.active = True
                    try:
                        results.append(call())
                    except Exception as err:  # counted as a failed operation
                        results.append(err)
                    meter.active = False
                    t1 = clock()
                    c1 = cpu_clock()
                    spent = meter.spent_ns - spent
                    measured.append((t1 - t0 - spent, c1 - c0 - spent, meter.samples[first:]))
                after = calibration.sample()
                for (op_wall, op_cpu, during), result in zip(measured, results):
                    scale = calibration.factor(before, after, *during)
                    raw_total += op_wall
                    calibrated_total += op_wall * scale
                    wall += op_wall * scale
                    cpu += op_cpu * scale
                    if k == len(per_op):
                        per_op.append([])
                    per_op[k].append(op_wall * scale)
                    k += 1
                    attempted += 1
                    if isinstance(result, Exception):
                        failed += 1
                        if not (item.may_fail and isinstance(result, limit_error)):
                            errors.append(f"{item.label}: {type(result).__name__}: {result}")
                del meter.samples[:]
                if not any(isinstance(result, Exception) for result in results):
                    try:
                        item.check(results)
                    except Exception as err:
                        correct = False
                        errors.append(f"{item.label}: check failed: {type(err).__name__}: {err}")
                del results, measured
            round_wall.append(wall)
            round_cpu.append(cpu)
            if len(round_wall) == 1:
                # rounds repeat the same work, so the first one shows the peak;
                # later rounds would only add the allocator's drift
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            finished = clock()
            if finished + (finished - started) > deadline:
                break
    ms = sorted(statistics.median(v) / 1e6 for v in per_op)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_wall),
        "run_s": statistics.median(round_wall) * NS,
        "cpu_s": statistics.median(round_cpu) * NS,
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0],
        "peak_rss_mib": peak_rss,
        "scale": calibrated_total / raw_total,
        "errors": errors,
    }


def _number(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def layer_metrics(tracer, mark: int, rounds: int, setup_counters: dict, scale: float) -> dict:
    """Per-layer figures for set-up plus one round (the mean of the traced rounds).

    Times are scaled by the run's mean calibration factor, so they are in the
    calibrated seconds of the end-to-end metrics.
    """
    from spans import GROWTH, Totals

    sec = NS * scale

    s, t = Totals(tracer, 0, mark), Totals(tracer, mark, len(tracer.names))
    counters = tracer.counters

    def per(get) -> float:
        return get(s) + get(t) / rounds

    def counter(name: str) -> float:
        before = setup_counters.get(name, 0)
        return before + (counters.get(name, 0) - before) / rounds

    def mean(name: str) -> float:
        return (s.time(name) + t.time(name)) / max(1, s.n(name) + t.n(name))

    walk_s = per(lambda x: x.time("apartment.walk")) * sec
    vertices = counter("apartment.vertices")
    table_s = per(lambda x: x.time("distance.table")) * sec
    nodes = counter("distance.nodes")
    figures = {
        "cartan.build_ms": mean("cartan.build") * sec * 1e3,
        "apartment.walk_s": walk_s,
        "apartment.vertices": vertices,
        "apartment.vertices_per_s": vertices / walk_s,
        "apartment.fold_s": per(lambda x: x.outer_folds_ns) * sec,
        "apartment.folds": per(lambda x: x.outer_folds),
        "apartment.is_vertex_us": mean("apartment.is_vertex") * sec * 1e6,
        "distance.search_s": per(lambda x: x.time("distance.table", "distance.point")) * sec,
        "distance.nodes": nodes,
        "distance.nodes_per_s": nodes / table_s,
        "distance.wall_us": mean("distance.wall") * sec * 1e6,
        "distance.ball_s": per(lambda x: x.time("distance.ball")) * sec,
        "growth.self_s": per(lambda x: x.self_time(*GROWTH)) * sec,
        "growth.passes": counter("cli.walks") / counter("cli.ops"),
        "qpoly.s": per(lambda x: x.outer_qpoly_ns) * sec,
        "moyprasad.concave_s": per(lambda x: x.time("moyprasad.is_concave")) * sec,
        "moyprasad.concave_calls": per(lambda x: x.n("moyprasad.is_concave")),
        "moyprasad.filtration_us": mean("moyprasad.filtration_contains") * sec * 1e6,
        "cli.emit_s": per(lambda x: x.self_time("cli.invoke")) * sec,
        "cli.output_bytes": counter("cli.output_bytes"),
    }
    return {name: _number(value) for name, value in figures.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter_ns()
    first_sample = calibration.sample()
    sampling_ns = time.perf_counter_ns() - started
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import alcove

    if Path(alcove.__file__).resolve().parent != src / "alcove":
        print(f"alcove imported from {alcove.__file__}, not from {src}", file=sys.stderr)
        return 2

    from spans import Tracer, install
    from workloads import WORKLOADS, CheckError

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[args.workload](alcove, args.seed, tracer)
    workload.setup()
    if args.mode == "setup":
        started = time.perf_counter_ns()
        last_sample = calibration.sample()
        sampling_ns += time.perf_counter_ns() - started
        # the samples ran on this process's core; the parent scales by them
        # and takes the time they took out of the set-up time
        print(f"ready {first_sample} {last_sample} {sampling_ns}", flush=True)
        return 0

    mark = len(tracer.names) if tracer else 0
    setup_counters = dict(tracer.counters) if tracer else {}
    setup_errors = []
    try:
        workload.check_setup()
    except Exception as err:
        setup_errors.append(f"set-up: check failed: {type(err).__name__}: {err}")
    report = run_rounds(workload, args.seconds, alcove.EnumerationLimitError)
    report["errors"] = setup_errors + report["errors"]
    report["correct"] = report["correct"] and not setup_errors
    if tracer is not None:
        if args.spans_out:
            tracer.write(args.spans_out)
        layers = layer_metrics(tracer, mark, report["rounds"], setup_counters, report["scale"])
        try:
            exact = workload.exact_counts()
        except CheckError as err:
            report["correct"] = False
            report["errors"].append(f"exact counts: {err}")
            exact = {"walk_candidates": 1, "walk_vertices": 0, "search_candidates": 0}
        layers["apartment.candidates"] = exact["walk_candidates"]
        layers["apartment.yield_ratio"] = exact["walk_vertices"] / exact["walk_candidates"]
        layers["distance.candidates"] = exact["search_candidates"]
        report["layers"] = layers
    for line in report["errors"][:20]:
        print(line, file=sys.stderr)
    report["errors"] = len(report["errors"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
