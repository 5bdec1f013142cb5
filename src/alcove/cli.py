"""Command line interface with deterministic json, csv, and markdown output.

Every command builds its payload from the data the library returns,
since the library serializes nothing, and hands it to _output, which
adds the envelope (schema_version and command) and prints it in the
chosen format.

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

from .cartan import as_point, build_root_datum, parse_type, weyl_degrees
from .distance import simplicial_distance, wall_distance
from .errors import ResourceError, ValidationError
from .growth import ball_sum, cind_sandwich, growth_exponent, theorem_table
from .qpoly import QPolynomial
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


def _output(command: str, data: dict, fmt: str, tabular: list[dict] | None = None) -> None:
    """Print data in the envelope every command shares, schema_version
    and command.  Csv and markdown print tabular, rows keyed alike,
    when given, and otherwise the envelope's key.path/value pairs."""
    data = {"schema_version": SCHEMA_VERSION, "command": command, **data}
    if fmt == "json":
        click.echo(_canonical_json(data), nl=False)
        return
    if tabular is None:
        headers, rows = ["key", "value"], _flat_rows(data)
    else:
        headers, rows = list(tabular[0]), [list(row.values()) for row in tabular]
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


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="json",
    show_default=True,
    help="Output format.",
)
_type_option = click.option(
    "--type", "type_text", required=True, help="Root system type, e.g. A2, C3, G2."
)
_budget_option = click.option(
    "--budget",
    type=int,
    default=None,
    help="Candidate budget for enumeration and search (default 10^8).",
)


def _poly(poly: QPolynomial) -> dict:
    return {"terms": poly.to_serializable(), "rendered": poly.render()}


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
        "type": str(datum.rstype),
        "family": datum.rstype.family,
        "rank": datum.rstype.rank,
        "cartan_matrix": [list(row) for row in datum.cartan],
        "positive_roots": [list(r) for r in datum.positive_roots],
        "highest_root_coeffs": list(datum.highest_root_coeffs),
        "two_rho_coeffs": list(datum.two_rho_coeffs),
        "positive_root_count": len(datum.positive_roots),
        "weyl_degrees": list(degrees),
        "weyl_order": prod(degrees),
        "marks_lcm": datum.scale,
        "growth_exponent": str(growth_exponent(datum)),
        "simple_root_norms": [str(v) for v in datum.simple_norms],
    }
    _output("info", data, fmt)


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
    rows = [
        {
            "type": str(row.rstype),
            "rank": row.rank,
            "num_positive_roots": row.num_positive_roots,
            "growth_exponent": str(row.growth_exponent),
            "cdim_lower": row.cdim_lower,
            "cdim_upper": row.cdim_upper,
        }
        for row in theorem_table(max_rank).rows
    ]
    _output("table", {"max_classical_rank": max_rank, "rows": rows}, fmt, tabular=rows)


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
    if level is not None and level < 1:
        raise ValidationError("cap level must be a positive integer")
    datum = build_root_datum(parse_type(type_text))
    report = ball_sum(datum, radius, budget=budget)
    polys = {"lower": report.lower_poly, "upper": report.upper_poly, "gamma": report.gamma_poly}
    if level is not None:
        polys["quotient"] = report.quotient_poly(level)
    data = {
        "type": str(report.rstype),
        "radius": report.radius,
        "vertex_count_chamber": report.vertex_count_chamber,
        "per_type_counts": list(report.per_type_counts),
        "max_two_rho": str(report.max_two_rho),
        "chamber_vertices": [[str(t) for t in point] for point in report.chamber_vertices],
        **{key: _poly(poly) for key, poly in polys.items()},
    }
    if level is not None:
        data["quotient"]["level"] = level
    if q_eval is not None:
        data["q_eval"] = {"q": q_eval, **{k: str(p.evaluate(q_eval)) for k, p in polys.items()}}
    _output("ball", data, fmt)


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
    x = as_point(datum, x_text.split(","))
    y = as_point(datum, y_text.split(","))
    report = wall_distance(datum, x, y)
    depth = report.d + 8
    simplicial = simplicial_distance(datum, x, y, depth, candidate_budget=budget)
    data = {
        "type": str(datum.rstype),
        "x": [str(t) for t in x],
        "y": [str(t) for t in y],
        "wall": {
            "d": report.d,
            "witness_root": list(report.witness_root) if report.witness_root else None,
            "wall_count": report.wall_count,
        },
        "simplicial": {"d": simplicial, "max_depth": depth},
        "adjacent": report.d == 1,
    }
    _output("distance", data, fmt)


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
        "type": str(report.rstype),
        "big_radius": report.big_radius,
        "level": report.level,
        "lower": {
            "radius": report.lower_radius,
            "divisor": report.lower_divisor,
            "empty": report.lower_empty,
            "poly": None if report.lower_poly is None else _poly(report.lower_poly),
        },
        "upper": {
            "radius": report.upper_radius,
            "level": report.upper_level,
            "depth_zero_only": report.upper_depth_zero_only,
            "poly": _poly(report.upper_poly),
        },
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
    _output("sandwich", data, fmt)


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
    rows = [
        {"suite": name, "passed": "true" if res["passed"] else "false"}
        for name, res in results.items()
    ]
    _output("verify", {"seed": seed, "passed": all_passed, "suites": results}, fmt, tabular=rows)
    if not all_passed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
