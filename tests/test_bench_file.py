"""tools/bench_file.py on canned runner output: no benchmark is run."""

import importlib
import json
import subprocess
from pathlib import Path

import pytest

import alcove

TOOLS = Path(__file__).resolve().parents[1] / "tools"
MACHINE = "# machine: Linux x86_64, Test CPU, 2 cpus, Python 3.11.7; src/alcove: 3000 lines"


@pytest.fixture
def tool(monkeypatch):
    """The bench_file module, with every way of starting a process refused."""
    monkeypatch.syspath_prepend(str(TOOLS))

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    return importlib.import_module("bench_file")


def _output(correct, attempted, failed, metrics):
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return f"{MACHINE}\n{json.dumps(report)}\n"


def _canned(calls):
    """A runner whose run_s is the seed in seconds and whose trace run
    reports one per-layer metric; it records each call."""

    def run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        if trace:
            return _output(workload != "pairs", 7, 0, {"cartan.build_ms": (0.5, "ms")})
        metrics = {"run_s": (float(seed), "s"), "peak_rss_mib": (40.0 + seed % 2, "MiB")}
        return _output(True, 100, seed % 2, metrics)

    return run


def test_bench_file_summarizes_each_workload(tool):
    calls = []
    lines = {"src/alcove/cartan.py": 270, "total": 270}
    content = tool.bench_file(7, _canned(calls), 2.0, ["census", "pairs"], lines, 74)
    assert calls == [
        (name, seed, 2.0, trace)
        for name in ("census", "pairs")
        for seed, trace in [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (1, 1)]
    ]
    assert content["machine"] == MACHINE
    assert (content["pr"], content["seconds"], content["seeds"], content["trace_seed"]) == (
        7, 2.0, [1, 2, 3, 4, 5], 1
    )
    assert content["code_lines"] == lines
    assert content["public_names"] == 74
    census = content["workloads"]["census"]
    assert (census["correct"], census["attempted"], census["failed"]) == (True, 500, 3)
    assert census["end_to_end"] == {
        "run_s": {"unit": "s", "median": 3.0, "min": 1.0, "max": 5.0},
        "peak_rss_mib": {"unit": "MiB", "median": 41.0, "min": 40.0, "max": 41.0},
    }
    assert census["per_layer"] == {"cartan.build_ms": {"value": 0.5, "unit": "ms"}}
    # a trace run that reads incorrect makes the workload incorrect
    assert content["workloads"]["pairs"]["correct"] is False
    json.dumps(content)


def test_parse_output_needs_machine_line_and_report(tool):
    text = _output(True, 1, 0, {"run_s": (0.1, "s")})
    machine, report = tool.parse_output("warming up\n" + text)
    assert machine == MACHINE and report["metrics"]["run_s"]["value"] == 0.1
    for broken in (text.split("\n", 1)[1], MACHINE + "\nbench: time limit reached\n"):
        with pytest.raises(ValueError):
            tool.parse_output(broken)


def test_src_code_lines_total(tool):
    lines = tool.src_code_lines()
    assert lines["total"] == sum(v for k, v in lines.items() if k != "total")
    assert "src/alcove/apartment.py" in lines


def test_public_names_counts_the_package_exports(tool):
    assert tool.public_names() == len(alcove.__all__)


def test_public_names_reads_without_import(tool, monkeypatch, tmp_path):
    """Only literal __all__ lists count, and no module is run: one that
    would exit on import still gives its names."""
    package = tmp_path / "src" / "alcove"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from . import a\n__all__: list[str] = []\n__all__ += a.__all__\n"
    )
    (package / "a.py").write_text('raise SystemExit(1)\n__all__ = ["x", "y"]\n')
    (package / "b.py").write_text('"""No exports."""\n')
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.public_names() == 2
