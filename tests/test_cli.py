"""Command line interface: output shapes, determinism, exit codes."""

import dataclasses
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import alcove.verify
from alcove import ball_sum
from alcove.cli import main


def _run(*args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _json(*args):
    result = _run(*args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_info_json():
    payload = _json("info", "--type", "A2")
    assert payload["schema_version"] == "1"
    assert payload["command"] == "info"
    assert payload["weyl_order"] == 6
    assert payload["marks_lcm"] == 1
    assert payload["growth_exponent"] == "2"
    assert payload["positive_root_count"] == 3


def test_info_g2():
    payload = _json("info", "--type", "G2")
    assert payload["weyl_order"] == 12
    assert payload["marks_lcm"] == 6
    assert payload["growth_exponent"] == "10/3"
    assert payload["highest_root_coeffs"] == [3, 2]


def test_info_payload_shape():
    info = _json("info", "--type", "G2")
    assert info["family"] == "G"
    assert info["rank"] == 2
    assert info["positive_root_count"] == 6
    assert info["weyl_degrees"] == [2, 6]
    assert info["highest_root_coeffs"] == [3, 2]


def test_report_payload_shapes():
    ball = _json("ball", "--type", "A2", "--radius", "1")
    assert ball["type"] == "A2"
    assert ball["lower"]["rendered"] == "3"
    assert ball["per_type_counts"] == [1, 1, 1]
    table = _json("table", "--max-rank", "2")
    assert table["rows"][0]["type"] == "A1"
    sandwich = _json("sandwich", "--type", "A2", "--R", "0", "--r", "4")
    assert sandwich["lower"]["radius"] == 2
    assert sandwich["upper"]["level"] == 5
    assert sandwich["upper"]["depth_zero_only"] is True


def test_output_is_deterministic():
    for args in (
        ("table", "--max-rank", "4"),
        ("ball", "--type", "B2", "--radius", "2"),
        ("distance", "--type", "A2", "--x", "2,0", "--y", "0,1"),
        ("sandwich", "--type", "G2", "--R", "0", "--r", "3"),
    ):
        first = _run(*args)
        second = _run(*args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert first.output.endswith("\n")


def test_table_csv():
    result = _run("table", "--max-rank", "2", "--format", "csv")
    lines = result.output.splitlines()
    assert lines[0] == "type,rank,num_positive_roots,growth_exponent,cdim_lower,cdim_upper"
    assert "G2,2,6,10/3,4,6" in lines
    assert "E8,8,120,46,46,120" in lines
    assert len(lines) == 1 + 9


def test_table_markdown():
    result = _run("table", "--max-rank", "2", "--format", "markdown")
    lines = result.output.splitlines()
    assert lines[0].startswith("| type |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert "| G2 | 2 | 6 | 10/3 | 4 | 6 |" in lines


def test_ball_json():
    payload = _json("ball", "--type", "A2", "--radius", "2", "--q-eval", "3")
    assert payload["lower"]["rendered"] == "2q^2 + q + 3"
    assert payload["vertex_count_chamber"] == 6
    assert payload["max_two_rho"] == "4"
    assert payload["q_eval"]["q"] == 3
    # counts serialize as strings so arbitrarily large values survive json
    assert payload["q_eval"]["lower"] == "24"
    gamma_at_3 = 3**8 - 3**6 - 3**5 + 3**3
    assert payload["q_eval"]["upper"] == str(24 * gamma_at_3)


@pytest.mark.parametrize("name,r", [("G2", 6), ("F4", 3), ("C4", 4), ("E8", 2)])
def test_ball_chamber_vertex_strings(data, name, r):
    # the payload's strings, one per distinct numerator of the census,
    # against str of every coordinate of the report's Fraction points
    payload = _json("ball", "--type", name, "--radius", str(r))
    report = ball_sum(data(name), r)
    assert payload["chamber_vertices"] == [[str(t) for t in p] for p in report.chamber_vertices]
    assert any("/" in t for p in payload["chamber_vertices"] for t in p)


def test_ball_level_block():
    payload = _json("ball", "--type", "A2", "--radius", "2", "--level", "1")
    assert payload["quotient"]["level"] == 1
    assert payload["quotient"]["rendered"] == "6"


def test_ball_csv_flat():
    result = _run("ball", "--type", "A2", "--radius", "1", "--format", "csv")
    lines = result.output.splitlines()
    assert lines[0] == "key,value"
    flat = dict(line.split(",", 1) for line in lines[1:])
    assert flat["lower.rendered"] == "3"
    assert flat["type"] == "A2"


def test_distance_json():
    payload = _json("distance", "--type", "G2", "--x", "0,0", "--y", "1,0")
    assert payload["wall"]["d"] == 3
    assert payload["simplicial"]["d"] == 4
    assert payload["adjacent"] is False


def test_bad_type_exits_2():
    result = _run("ball", "--type", "D3", "--radius", "1")
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["error"]["kind"] == "InvalidTypeError"
    assert "D3" in error["error"]["message"]


def test_non_vertex_exits_2():
    result = _run("distance", "--type", "B2", "--x", "0,0", "--y", "1/3,0")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["kind"] == "NotAVertexError"


def test_bad_point_string_exits_2():
    result = _run("distance", "--type", "A2", "--x", "0,0", "--y", "1,zzz")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["kind"] == "ValidationError"


def test_zero_budget_exits_2_when_x_equals_y():
    # the budget is checked before the search meets its target, even at x
    result = _run("distance", "--type", "A2", "--x", "0,0", "--y", "0,0", "--budget", "0")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["kind"] == "ValidationError"


def test_zero_budget_exits_2_for_adjacent_pair():
    result = _run("distance", "--type", "A2", "--x", "0,0", "--y", "1,0", "--budget", "0")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["kind"] == "ValidationError"


def test_e7_adjacency():
    # wall distance one is adjacency, so the search does not run
    payload = _json("distance", "--type", "E7", "--x", "0,0,0,0,0,0,0", "--y", "0,0,0,0,0,0,1")
    assert payload["simplicial"]["d"] == 1
    assert payload["adjacent"] is True


def test_small_q_eval_exits_2():
    result = _run("ball", "--type", "A2", "--radius", "1", "--q-eval", "1")
    assert result.exit_code == 2


def test_zero_level_exits_2_before_the_walk():
    # a budget of one candidate cannot finish the walk, so exit 2 shows
    # that the level is refused before it starts
    result = _run("ball", "--type", "A2", "--radius", "2", "--level", "0", "--budget", "1")
    assert result.exit_code == 2
    error = json.loads(result.stderr)["error"]
    assert error == {"kind": "ValidationError", "message": "cap level must be a positive integer"}


def test_budget_exits_3():
    result = _run("ball", "--type", "C3", "--radius", "3", "--budget", "5")
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["kind"] == "EnumerationLimitError"


def test_sandwich_budget_exits_3():
    # E6 level 1 counts its upper census by residue classes, 48,561 leaves
    # where a walk at radius 24 passes 2,054,403 chamber vertices
    args = ("sandwich", "--type", "E6", "--R", "0", "--r", "1")
    result = _run(*args, "--budget", "1000")
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["kind"] == "EnumerationLimitError"
    payload = _json(*args)
    assert payload["upper"]["radius"] == 24
    assert payload["lower"]["empty"]


def test_unexpected_error_exits_4(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("alcove.cli.ball_sum", broken)
    result = _run("ball", "--type", "A2", "--radius", "1")
    assert result.exit_code == 4
    error = json.loads(result.stderr)["error"]
    assert error == {"kind": "RuntimeError", "message": "boom"}


def test_sandwich_flag_aliases():
    short = _run("sandwich", "--type", "A2", "--R", "1", "--r", "4")
    long = _run("sandwich", "--type", "A2", "--big-radius", "1", "--level", "4")
    assert short.exit_code == 0
    assert short.output == long.output
    payload = json.loads(short.output)
    assert payload["lower"]["radius"] == 1
    assert payload["upper"]["level"] == 5


def test_verify_single_suite():
    result = _run("verify", "--suite", "table", "--format", "csv")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["suite,passed", "table,true"]


def test_verify_all_exit_0():
    result = _run("verify")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert len(payload["suites"]) == 7


def _break_metric(monkeypatch):
    wall = alcove.verify.wall_distance

    def broken(datum, x, y):
        report = wall(datum, x, y)
        if str(datum.rstype) == "B2":
            # zero one way and squared the other: neither symmetric, nor
            # definite, nor subadditive
            report = dataclasses.replace(report, d=0 if x < y else report.d**2)
        return report

    monkeypatch.setattr(alcove.verify, "wall_distance", broken)


def _break_polytope(monkeypatch):
    oracle = alcove.verify._grid_vertex_oracle

    def broken(datum, r):
        return set() if (str(datum.rstype), r) == ("A2", 2) else oracle(datum, r)

    monkeypatch.setattr(alcove.verify, "_grid_vertex_oracle", broken)


def _break_table(monkeypatch):
    count = alcove.verify.positive_root_count

    def broken(rstype):
        return count(rstype) + (str(rstype) == "B5")

    monkeypatch.setattr(alcove.verify, "positive_root_count", broken)


def _break_growth(monkeypatch):
    gamma = alcove.verify.gamma_polynomial

    def broken(datum):
        poly = gamma(datum)
        return poly * poly if str(datum.rstype) == "B2" else poly

    monkeypatch.setattr(alcove.verify, "gamma_polynomial", broken)


def _break_sandwich(monkeypatch):
    sandwich = alcove.verify.cind_sandwich

    def broken(datum, R, r, **kwargs):
        report = sandwich(datum, R, r, **kwargs)
        if (str(datum.rstype), R, r) == ("G2", 1, 4):
            report = dataclasses.replace(report, lower_divisor=report.lower_divisor + 1)
        return report

    monkeypatch.setattr(alcove.verify, "cind_sandwich", broken)


def _break_concavity(monkeypatch):
    concave = alcove.verify.is_concave

    def broken(datum, f):
        return str(datum.rstype) != "B2" and concave(datum, f)

    monkeypatch.setattr(alcove.verify, "is_concave", broken)


def _break_g2_gap(monkeypatch):
    wall = alcove.verify.wall_distance

    def broken(datum, x, y):
        # still a metric, so the metric suite passes; but no longer the
        # A2 simplicial distance, and above the G2 one on most pairs
        report = wall(datum, x, y)
        return dataclasses.replace(report, d=report.d + (x != y))

    monkeypatch.setattr(alcove.verify, "wall_distance", broken)


def _cases_failing(key, fields, *flags):
    """A check that the rows under key record each flag false where
    they match fields and true elsewhere."""

    def check(result):
        for row in result[key]:
            picked = all(row[k] == v for k, v in fields.items())
            assert all(row[flag] is not picked for flag in flags), row

    return check


def _recording(**expected):
    """A check that the suite records the expected top-level values."""

    def check(result):
        assert {k: result[k] for k in expected} == expected

    return check


# suite -> (how to break one of its inputs, a check of what the suite
# then records)
BROKEN_SUITES = {
    "metric": (
        _break_metric,
        _cases_failing("checks", {"type": "B2"}, "symmetry", "definiteness", "triangle"),
    ),
    "polytope": (_break_polytope, _cases_failing("cases", {"type": "A2", "radius": 2}, "match")),
    "table": (_break_table, _recording(mismatches=["B5"])),
    "growth": (_break_growth, _cases_failing("cases", {"type": "B2"}, "ok")),
    "sandwich": (_break_sandwich, _cases_failing("cases", {"type": "G2", "R": 1, "r": 4}, "ok")),
    "concavity": (_break_concavity, _cases_failing("cases", {"type": "B2"}, "ok")),
    "g2-gap": (_break_g2_gap, _recording(a2_equality=False, g2_monotone=False)),
}


def test_verify_sandwich_ordering(monkeypatch):
    """The sandwich suite fails a case whose lower bound over its divisor
    exceeds the upper bound at q = 2, 3, every radius field kept."""
    sandwich = alcove.verify.cind_sandwich

    def inflated(datum, R, r, **kwargs):
        report = sandwich(datum, R, r, **kwargs)
        if (str(datum.rstype), R, r) == ("B2", 0, 3):
            lower = report.upper_poly * (2 * report.lower_divisor)
            report = dataclasses.replace(report, lower_poly=lower)
        return report

    monkeypatch.setattr(alcove.verify, "cind_sandwich", inflated)
    result = _run("verify", "--suite", "sandwich")
    assert result.exit_code == 1
    payload = json.loads(result.output)["suites"]["sandwich"]
    _cases_failing("cases", {"type": "B2", "R": 0, "r": 3}, "ok")(payload)


@pytest.mark.parametrize("suite", list(BROKEN_SUITES))
def test_verify_reports_a_failing_case(monkeypatch, suite):
    brk, check = BROKEN_SUITES[suite]
    brk(monkeypatch)
    result = _run("verify")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["passed"] is False
    for name, res in payload["suites"].items():
        assert res["passed"] is (name != suite), name
    check(payload["suites"][suite])


def test_console_script_maps_to_main():
    # acceptance criterion 11 falls back to `python -m alcove.cli` when no
    # console script is installed; that is only the same program if the
    # script entry point is this very function
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts["alcove"] == "alcove.cli:main"
