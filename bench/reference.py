"""Recomputes the reference figures quoted in bench/README.md.

    python3 bench/reference.py

Takes a few minutes: the candidate counts come from bisection on the public
budget arguments, which repeats each operation about twenty times.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import alcove as A  # noqa: E402

import calibration  # noqa: E402
from workloads import least_budget  # noqa: E402


def timed(fn):
    """(result, seconds, calibrated seconds) of one call."""
    with calibration.Meter() as meter:
        before = calibration.sample()
        meter.active = True
        start = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - start - meter.spent_ns
        meter.active = False
        after = calibration.sample()
    scale = calibration.factor(before, after, *meter.samples)
    return result, elapsed * 1e-9, elapsed * scale * 1e-9


def row(label: str, seconds: float, calibrated: float, detail: str) -> None:
    print(f"| {label} | {seconds:.2f} | {calibrated:.2f} | {detail} |", flush=True)


def main() -> int:
    limit = A.EnumerationLimitError
    datum = {n: A.build_root_datum(A.parse_type(n)) for n in ("D4", "E6", "E7", "E8")}
    print("| operation | s | calibrated s | work |")
    print("| --- | --- | --- | --- |")

    e8 = datum["E8"]
    report, s, c = timed(lambda: A.ball_sum(e8, 5))
    row("E8 ball_sum r=5", s, c, f"{report.vertex_count_chamber} vertices")
    walk, s, c = timed(lambda: list(A.iter_scaled_alcove_vertices(e8, 5)))
    candidates = least_budget(lambda b: list(A.iter_scaled_alcove_vertices(e8, 5, budget=b)), limit)
    row("E8 walk r=5 alone", s, c, f"{len(walk)} vertices from {candidates} candidates")

    e6 = datum["E6"]
    o6 = A.origin(e6)
    table, s, c = timed(lambda: A.simplicial_distances(e6, o6, 1))
    candidates = least_budget(lambda b: A.simplicial_distances(e6, o6, 1, candidate_budget=b), limit)
    row("E6 depth-1 table", s, c, f"{len(table) - 1} neighbours from {candidates} candidates")

    d4 = datum["D4"]
    o4 = A.origin(d4)
    table, s, c = timed(lambda: A.simplicial_distances(d4, o4, 9))
    candidates = least_budget(lambda b: A.simplicial_distances(d4, o4, 9, candidate_budget=b), limit)
    row("D4 depth-9 table", s, c, f"{len(table)} nodes from {candidates} candidates")

    e7 = datum["E7"]
    v7 = A.alcove_vertex(e7, 7)

    def budgeted():
        try:
            return A.simplicial_distance(e7, A.origin(e7), v7, 1, candidate_budget=5_000)
        except limit as err:
            return err

    result, s, c = timed(budgeted)
    row("E7 origin to v7, candidate_budget 5000", s, c, f"{type(result).__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
