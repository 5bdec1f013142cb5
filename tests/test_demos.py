"""Every demo script runs to completion from a fresh interpreter, and
prints exactly the bytes pinned for it; README's library quick start
runs as printed."""

import functools
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alcove

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def _run(script):
    """Run a demo once per session from a fresh interpreter; the
    directory holding the imported package goes first, so the child
    runs the code under test."""
    package_root = str(Path(alcove.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    return subprocess.run([sys.executable, str(script)], env=env, capture_output=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()


# sha256 of each demo's stdout; the demos print exact library results,
# so any change in them is a change in what the library computes
DEMO_STDOUT = {
    "alcove_vertex_census.py": "cd66945d75d5fc7050bbb56dd00f4c058463e0c6c2f0eeda87dce85ca1c222f4",
    "counting_polynomials.py": "d6c52007c50bcaec6223e96b840dcd0cc9bd871d5479685da356346c8f4a2352",
    "filtration_functions.py": "2b70f283e58ff06ea8c2da332ee656f89826dd60f3c133add9c358c36f163473",
    "root_data_tour.py": "17285984a45f206ba0979f179044647cfca15d4937aea1107ee500850b29e0ad",
    "two_metrics.py": "59a182761c5624ba6a0562fd229f062431e416d7314007fa8c19198f4601537e",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_stdout_pinned(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT[script.name]


def test_readme_quick_start():
    """The quick start block runs, and each result its comments state holds."""
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    notes = {}
    for line in block.splitlines():
        code, _, note = line.partition("#")
        notes[code.strip()] = note.strip()
    annotated = {
        "wall_distance(g2, o, x).d": 3,
        "simplicial_distance(g2, o, x, 10)": 4,
        "rep.max_two_rho": Fraction(20, 3),
    }
    for code, expected in annotated.items():
        assert notes[code].startswith(repr(expected)), code
        assert eval(code, scope) == expected
    assert notes["rep.max_two_rho"] == "Fraction(20, 3) == 2 * growth_exponent(g2)"
    assert eval("rep.max_two_rho == 2 * growth_exponent(g2)", scope)
