"""Command line interface with deterministic json, csv, and markdown output.

Exit codes: 0 success, 1 failed verification, 2 invalid input,
3 resource budget exhausted, 4 unexpected internal error.  Every error
exit prints a JSON payload with the exception kind and message on stderr.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from fractions import Fraction
from math import prod

import click

from .apartment import as_point
from .cartan import build_root_datum, parse_type, root_datum_to_dict, weyl_degrees
from .distance import distance_report_to_dict, simplicial_distance, wall_distance
from .errors import ResourceError, ValidationError
from .growth import (
    _poly_dict,
    ball_report_to_dict,
    ball_sum,
    bounds_table_to_dict,
    cind_sandwich,
    growth_exponent,
    quotient_ball_sum,
    sandwich_report_to_dict,
    theorem_table,
)
from .verify import SUITE_NAMES, run_suites

SCHEMA_VERSION = "1"
FORMATS = ("json", "csv", "markdown")


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _flat_rows(data) -> list[list[str]]:
    """Depth-first key.path/value pairs with sorted keys."""
    rows: list[list[str]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, (list, tuple)):
            rows.append([prefix, json.dumps(value, sort_keys=True, separators=(",", ":"))])
        elif isinstance(value, bool):
            rows.append([prefix, "true" if value else "false"])
        elif value is None:
            rows.append([prefix, ""])
        else:
            rows.append([prefix, str(value)])

    walk("", data)
    return rows


def _output(data: dict, fmt: str, tabular=None) -> None:
    if fmt == "json":
        click.echo(_canonical_json(data), nl=False)
        return
    if tabular is None:
        headers, rows = ["key", "value"], _flat_rows(data)
    else:
        headers, rows = tabular
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        click.echo(buffer.getvalue(), nl=False)
        return
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    click.echo("\n".join(lines))


def _die(err: Exception, code: int) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": {"kind": type(err).__name__, "message": str(err)},
    }
    click.echo(json.dumps(payload, sort_keys=True, indent=2), err=True)
    raise SystemExit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as err:
            _die(err, 2)
        except ResourceError as err:
            _die(err, 3)
        except Exception as err:
            _die(err, 4)

    return wrapper


def _format_option(fn):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(FORMATS),
        default="json",
        show_default=True,
        help="Output format.",
    )(fn)


def _type_option(fn):
    return click.option(
        "--type",
        "type_text",
        required=True,
        help="Root system type, e.g. A2, C3, G2.",
    )(fn)


def _budget_option(fn):
    return click.option(
        "--budget",
        type=int,
        default=None,
        help="Candidate budget for enumeration and search (default 10^8).",
    )(fn)


def _parse_point(datum, text: str):
    try:
        values = [Fraction(token.strip()) for token in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise ValidationError(f"cannot parse coordinates {text!r}: {err}") from err
    return as_point(datum, values)


def _check_q(q_eval: int | None) -> None:
    if q_eval is not None and q_eval < 2:
        raise ValidationError("--q-eval must be at least 2")


@click.group()
def main() -> None:
    """Exact alcove combinatorics: root data, vertex counts, distances,
    and polynomial cardinality bounds."""


@main.command()
@_type_option
@_format_option
@_guarded
def info(type_text: str, fmt: str) -> None:
    """Root system summary: Cartan matrix, roots, degrees, exponents."""
    datum = build_root_datum(parse_type(type_text))
    degrees = weyl_degrees(datum)
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "info",
        "type": str(datum.rstype),
        **root_datum_to_dict(datum),
        "weyl_order": prod(degrees),
        "marks_lcm": datum.scale,
        "growth_exponent": str(growth_exponent(datum)),
        "simple_root_norms": [str(v) for v in datum.simple_norms],
    }
    _output(data, fmt)


@main.command()
@click.option(
    "--max-rank",
    type=int,
    default=8,
    show_default=True,
    help="Largest classical rank to include.",
)
@_format_option
@_guarded
def table(max_rank: int, fmt: str) -> None:
    """Growth exponents and dimension bounds for every irreducible type."""
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "table",
        "max_classical_rank": max_rank,
        **bounds_table_to_dict(theorem_table(max_rank)),
    }
    headers = [
        "type",
        "rank",
        "num_positive_roots",
        "growth_exponent",
        "cdim_lower",
        "cdim_upper",
    ]
    rows = [[row[h] for h in headers] for row in data["rows"]]
    _output(data, fmt, tabular=(headers, rows))


@main.command()
@_type_option
@click.option("--radius", type=int, required=True, help="Dilation factor r.")
@click.option(
    "--level",
    type=int,
    default=None,
    help="Also report the census with exponents capped at this level.",
)
@click.option("--q-eval", "q_eval", type=int, default=None, help="Evaluate at q (>= 2).")
@_budget_option
@_format_option
@_guarded
def ball(
    type_text: str,
    radius: int,
    level: int | None,
    q_eval: int | None,
    budget: int | None,
    fmt: str,
) -> None:
    """Vertex census of the dilated alcove with polynomial bounds."""
    _check_q(q_eval)
    datum = build_root_datum(parse_type(type_text))
    report = ball_sum(datum, radius, budget=budget)
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "ball",
        **ball_report_to_dict(report),
    }
    quotient = None
    if level is not None:
        quotient = quotient_ball_sum(datum, radius, level, budget=budget)
        data["quotient"] = {"level": level, **_poly_dict(quotient)}
    if q_eval is not None:
        evals = {
            "q": q_eval,
            "lower": str(report.lower_poly.evaluate(q_eval)),
            "upper": str(report.upper_poly.evaluate(q_eval)),
            "gamma": str(report.gamma_poly.evaluate(q_eval)),
        }
        if quotient is not None:
            evals["quotient"] = str(quotient.evaluate(q_eval))
        data["q_eval"] = evals
    _output(data, fmt)


@main.command()
@_type_option
@click.option("--x", "x_text", required=True, help='Coordinates "a,b,..."; fractions allowed.')
@click.option("--y", "y_text", required=True, help="Coordinates of the second vertex.")
@_budget_option
@_format_option
@_guarded
def distance(type_text: str, x_text: str, y_text: str, budget: int | None, fmt: str) -> None:
    """Wall-crossing and edge-path distances between two vertices."""
    datum = build_root_datum(parse_type(type_text))
    x = _parse_point(datum, x_text)
    y = _parse_point(datum, y_text)
    report = wall_distance(datum, x, y)
    depth = report.d + 8
    simplicial = simplicial_distance(
        datum, x, y, depth, candidate_budget=budget, check=False
    )
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "distance",
        "type": str(datum.rstype),
        "x": [str(t) for t in x],
        "y": [str(t) for t in y],
        "wall": distance_report_to_dict(report),
        "simplicial": {"d": simplicial, "max_depth": depth},
        "adjacent": report.d == 1,
    }
    _output(data, fmt)


@main.command()
@_type_option
@click.option("--R", "--big-radius", "big_radius", type=int, required=True, help="Ball radius R.")
@click.option("--r", "--level", "level", type=int, required=True, help="Filtration level r.")
@click.option("--q-eval", "q_eval", type=int, default=None, help="Evaluate at q (>= 2).")
@_budget_option
@_format_option
@_guarded
def sandwich(
    type_text: str,
    big_radius: int,
    level: int,
    q_eval: int | None,
    budget: int | None,
    fmt: str,
) -> None:
    """Two-sided polynomial bounds for the level-r index sum at radius R."""
    _check_q(q_eval)
    datum = build_root_datum(parse_type(type_text))
    report = cind_sandwich(datum, big_radius, level, budget=budget)
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "sandwich",
        **sandwich_report_to_dict(report),
    }
    if q_eval is not None:
        lower = None
        if report.lower_poly is not None:
            lower = str(
                Fraction(report.lower_poly.evaluate(q_eval), report.lower_divisor)
            )
        data["q_eval"] = {
            "q": q_eval,
            "lower_over_divisor": lower,
            "upper": str(report.upper_poly.evaluate(q_eval)),
        }
    _output(data, fmt)


@main.command()
@click.option(
    "--suite",
    "suites",
    multiple=True,
    type=click.Choice(SUITE_NAMES),
    help="Suite to run (repeatable; default all).",
)
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
@_budget_option
@_format_option
@_guarded
def verify(suites, seed: int, budget: int | None, fmt: str) -> None:
    """Run the self-check suites; exit 0 only if every check passes."""
    all_passed, results = run_suites(suites or None, seed=seed, budget=budget)
    data = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": seed,
        "passed": all_passed,
        "suites": results,
    }
    headers = ["suite", "passed"]
    rows = [[name, "true" if res["passed"] else "false"] for name, res in results.items()]
    _output(data, fmt, tabular=(headers, rows))
    if not all_passed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
