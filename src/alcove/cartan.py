"""Exact root-system data for the irreducible types A through G.

Roots are integer coefficient vectors in the simple-root basis, simple
roots numbered in the Bourbaki convention (see the numbering table in the
README).  Positive roots are generated by closure from the simple roots,
never read off a table; the classical closed forms live in the tests as
cross-checks.  All arithmetic is exact: Python integers and
``fractions.Fraction``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DimensionMismatchError,
    InvalidTypeError,
    NotARootError,
    _rational,
    require_int,
)

Root = tuple[int, ...]

FAMILIES = "ABCDEFG"

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_TYPE_RE = re.compile(r"^([A-G])(\d{1,3})$")


@dataclass(frozen=True, order=True)
class RootSystemType:
    """Family letter plus rank, e.g. G2 or B7."""

    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def validate_type(rstype: RootSystemType, *, allow_d3_alias: bool = False) -> None:
    """Raise InvalidTypeError unless the family/rank pair names a system.

    D3 is rejected by default; it duplicates A3 under relabeling and is
    admitted only when ``allow_d3_alias`` is set.
    """
    family, rank = rstype.family, rstype.rank
    if family not in FAMILIES:
        raise InvalidTypeError(f"unknown family {family!r}")
    if rank < 1:
        raise InvalidTypeError(f"rank must be positive, got {rank}")
    if family in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[family]:
            raise InvalidTypeError(f"{family}{rank} is not a root system")
        return
    minimum = _MIN_RANK[family]
    if family == "D" and rank == 3 and allow_d3_alias:
        return
    if rank < minimum:
        raise InvalidTypeError(
            f"{family}{rank} is not supported (family {family} needs rank >= {minimum})"
        )


def parse_type(text: str) -> RootSystemType:
    """Parse a label like "A7" or "G2" into a validated RootSystemType."""
    match = _TYPE_RE.match(text.strip())
    if match is None:
        raise InvalidTypeError(f"cannot parse root-system label {text!r}")
    rstype = RootSystemType(match.group(1), int(match.group(2)))
    validate_type(rstype)
    return rstype


def positive_root_count(rstype: RootSystemType) -> int:
    """Closed-form count of positive roots, used as a generation check."""
    d = rstype.rank
    if rstype.family == "A":
        return d * (d + 1) // 2
    if rstype.family in ("B", "C"):
        return d * d
    if rstype.family == "D":
        return d * (d - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[
        (rstype.family, rstype.rank)
    ]


def cartan_matrix(rstype: RootSystemType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j^vee>, 0-indexed."""
    d = rstype.rank
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]

    def edge(i: int, j: int, forward: int = -1, backward: int = -1) -> None:
        a[i][j] = forward
        a[j][i] = backward

    family = rstype.family
    if family in ("A", "B", "C"):
        for i in range(d - 1):
            edge(i, i + 1)
        if family == "B" and d >= 2:
            # alpha_d short: <alpha_{d-1}, alpha_d^vee> = -2
            edge(d - 2, d - 1, forward=-2, backward=-1)
        if family == "C" and d >= 2:
            # alpha_d long: <alpha_d, alpha_{d-1}^vee> = -2
            edge(d - 2, d - 1, forward=-1, backward=-2)
    elif family == "D":
        for i in range(d - 2):
            edge(i, i + 1)
        edge(d - 3, d - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        chain = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)][: d - 2]
        for i, j in chain + [(2, 4)]:
            edge(i - 1, j - 1)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, forward=-2, backward=-1)
        edge(2, 3)
    else:  # G2, alpha_1 short
        edge(0, 1, forward=-1, backward=-3)
    return tuple(tuple(row) for row in a)


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    """Closure of the simple roots under root strings, lowest height first.

    For a root b of height h and simple alpha_i, b + alpha_i is a root
    iff q = p - <b, alpha_i^vee> >= 1 where p counts how far the string
    extends downward; everything below height h is known by induction.
    """
    d = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    known: set[Root] = set(simple)
    level: list[Root] = list(simple)
    ordered: list[Root] = list(simple)
    while level:
        nxt: set[Root] = set()
        for beta in level:
            for i in range(d):
                pairing = sum(beta[j] * cartan[j][i] for j in range(d))
                p = 0
                gamma = list(beta)
                while True:
                    gamma[i] -= 1
                    if tuple(gamma) in known:
                        p += 1
                    else:
                        break
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    candidate = tuple(up)
                    if candidate not in known:
                        nxt.add(candidate)
        known.update(nxt)
        level = sorted(nxt)
        ordered.extend(level)
    ordered.sort(key=lambda r: (sum(r), r))
    return ordered


def _simple_norms(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """Squared lengths of the simple roots, normalized so long roots get 2.

    Ratios propagate along Dynkin edges: A[i][j]/A[j][i] equals
    (alpha_i,alpha_i)/(alpha_j,alpha_j).
    """
    d = len(cartan)
    norm2: list[Fraction | None] = [None] * d
    norm2[0] = Fraction(2)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(d):
            if i != j and cartan[i][j] != 0 and norm2[j] is None:
                norm2[j] = norm2[i] * Fraction(cartan[j][i], cartan[i][j])
                queue.append(j)
    if any(v is None for v in norm2):
        raise InvalidTypeError("Dynkin diagram is disconnected")
    top = max(norm2)  # type: ignore[type-var]
    scaled = tuple(Fraction(2) * v / top for v in norm2)  # type: ignore[operator]
    return scaled


def _inverse(m) -> tuple[list[list[int]], int]:
    """(rows, D) with m^-1 = rows / D and D = |det m| > 0, for an
    invertible integer matrix m, by fraction-free Gauss-Jordan
    elimination: every division is exact, the left block ends as the
    last pivot times the identity, and that pivot is +-det m."""
    d = len(m)
    rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(m)]
    prev = 1
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        for r in range(d):
            f = rows[r][col]
            if r != col:
                rows[r] = [(head * v - f * w) // prev for v, w in zip(rows[r], rows[col])]
        prev = head
    sign = 1 if prev > 0 else -1
    return [[sign * v for v in row[d:]] for row in rows], abs(prev)


@dataclass(frozen=True)
class RootDatum:
    """Everything downstream geometry needs about one irreducible system.

    positive_roots are ordered by (height, lexicographic); this is the
    canonical order used for witness tie-breaks.  highest_root_coeffs
    are the marks c_i, two_rho_coeffs the coefficients c'_i of the sum
    of all positive roots.
    """

    rstype: RootSystemType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root_coeffs: Root
    two_rho_coeffs: Root
    simple_norms: tuple[Fraction, ...]
    # <alpha_j, alpha_0^vee> for the highest root alpha_0; drives the
    # affine reflection of the folding loop.
    alpha0_coroot_row: tuple[int, ...]
    # Inverse Cartan matrix; columns of the Cartan matrix span the
    # coroot lattice in alpha-coordinates.
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    # lcm of the marks; every vertex has coordinates in (1/scale) Z^d.
    scale: int
    positive_root_set: frozenset[Root]
    root_set: frozenset[Root]

    @property
    def rank(self) -> int:
        return self.rstype.rank

    def all_roots(self) -> tuple[Root, ...]:
        negatives = tuple(tuple(-c for c in r) for r in self.positive_roots)
        return self.positive_roots + negatives

    def is_root(self, coeffs: Root) -> bool:
        return tuple(coeffs) in self.root_set


def build_root_datum(rstype: RootSystemType, *, allow_d3_alias: bool = False) -> RootDatum:
    """Generate the full datum for one type; raises InvalidTypeError first."""
    validate_type(rstype, allow_d3_alias=allow_d3_alias)
    cartan = cartan_matrix(rstype)
    d = rstype.rank
    positives = _generate_positive_roots(cartan)
    expected = positive_root_count(rstype) if not (rstype.family == "D" and d == 3) else 6
    if len(positives) != expected:
        raise AssertionError(
            f"closure produced {len(positives)} positive roots for {rstype}, expected {expected}"
        )
    highest = positives[-1]
    if not all(
        all(h >= r for h, r in zip(highest, root)) for root in positives
    ):
        raise AssertionError("highest root fails to dominate some positive root")
    two_rho = tuple(sum(root[i] for root in positives) for i in range(d))
    norms = _simple_norms(cartan)

    # Gram matrix entries (alpha_i, alpha_j) = A[i][j] * (alpha_j,alpha_j)/2.
    gram = [[Fraction(cartan[i][j]) * norms[j] / 2 for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            if gram[i][j] != gram[j][i]:
                raise AssertionError("Gram matrix is not symmetric")
    highest_norm2 = sum(
        highest[i] * highest[j] * gram[i][j] for i in range(d) for j in range(d)
    )
    alpha0_row = []
    for j in range(d):
        pairing = 2 * sum(highest[k] * gram[j][k] for k in range(d)) / highest_norm2
        if pairing.denominator != 1:
            raise AssertionError("coroot pairing with the highest root is not integral")
        alpha0_row.append(int(pairing))

    pos_tuple = tuple(positives)
    neg = tuple(tuple(-c for c in r) for r in pos_tuple)
    rows, D = _inverse(cartan)
    return RootDatum(
        rstype=rstype,
        cartan=cartan,
        positive_roots=pos_tuple,
        highest_root_coeffs=highest,
        two_rho_coeffs=two_rho,
        simple_norms=norms,
        alpha0_coroot_row=tuple(alpha0_row),
        cartan_inverse=tuple(tuple(Fraction(v, D) for v in row) for row in rows),
        scale=lcm(*highest),
        positive_root_set=frozenset(pos_tuple),
        root_set=frozenset(pos_tuple + neg),
    )


def eval_root(datum: RootDatum, root: Root, point) -> Fraction:
    """alpha(x) = sum of coefficients times coordinates t_i = alpha_i(x)."""
    if len(root) != datum.rank or len(point) != datum.rank:
        raise DimensionMismatchError(
            f"expected vectors of length {datum.rank}, got {len(root)} and {len(point)}"
        )
    coeffs = [require_int(c, "root coefficients must be integers") for c in root]
    return sum((c * _rational(t) for c, t in zip(coeffs, point)), Fraction(0))


def require_positive_root(datum: RootDatum, root: Root) -> Root:
    root = tuple(root)
    if root not in datum.positive_root_set:
        raise NotARootError(f"{root} is not a positive root of {datum.rstype}")
    return root


def weyl_degrees(datum: RootDatum) -> tuple[int, ...]:
    """Degrees of the Weyl group, ascending.

    The multiset of heights of the positive roots forms a partition
    whose dual partition is the multiset of exponents; degrees are the
    exponents plus one.
    """
    heights = [sum(root) for root in datum.positive_roots]
    max_height = max(heights)
    count_at = [0] * (max_height + 1)
    for h in heights:
        count_at[h] += 1
    exponents = []
    for j in range(1, count_at[1] + 1):
        exponents.append(sum(1 for k in range(1, max_height + 1) if count_at[k] >= j))
    exponents.sort()
    return tuple(e + 1 for e in exponents)


def root_datum_to_dict(datum: RootDatum) -> dict:
    """JSON-ready view with canonical key order handled by the emitter."""
    return {
        "family": datum.rstype.family,
        "rank": datum.rstype.rank,
        "cartan_matrix": [list(row) for row in datum.cartan],
        "positive_roots": [list(r) for r in datum.positive_roots],
        "highest_root_coeffs": list(datum.highest_root_coeffs),
        "two_rho_coeffs": list(datum.two_rho_coeffs),
        "positive_root_count": len(datum.positive_roots),
        "weyl_degrees": list(weyl_degrees(datum)),
    }
