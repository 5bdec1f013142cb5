from itertools import accumulate
from operator import mul

import pytest

from alcove import EnumerationLimitError, build_root_datum, parse_type


@pytest.fixture(scope="session")
def data():
    """Session cache of root data keyed by type name."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_root_datum(parse_type(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def assert_least_budget():
    """Check that run(least) completes and run(least - 1) runs out of
    candidates, so least is exactly the work run does."""

    def check(run, least):
        run(least)
        with pytest.raises(EnumerationLimitError):
            run(least - 1)

    return check


def _int_rank(rows, d):
    """Rank of an integer matrix by fraction-free elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(d):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            v = mat[r][col]
            if v:
                row = mat[r]
                ref = mat[rank]
                mat[r] = [head * a - v * b for a, b in zip(row, ref)]
        rank += 1
        if rank == d or rank == len(mat):
            break
    return rank


@pytest.fixture(scope="session")
def rank_is_vertex():
    """The slow reference vertex test, rank(datum, a): a / datum.scale
    is a vertex iff the positive roots taking integer values there span
    full rank.  Memoized per type by the mask of those roots."""
    memos = {}

    def test(datum, a):
        scale = datum.scale
        pos = datum.positive_roots
        mask = 0
        for i, root in enumerate(pos):
            if sum(map(mul, root, a)) % scale == 0:
                mask |= 1 << i
        memo = memos.setdefault(datum.rstype, {})
        ok = memo.get(mask)
        if ok is None:
            rows = [root for i, root in enumerate(pos) if mask >> i & 1]
            ok = memo[mask] = _int_rank(rows, datum.rank) == datum.rank
        return ok

    return test


@pytest.fixture(scope="session")
def residue_orbits():
    """Residue classes modulo the scale of the vertices, one set per
    alcove corner, in 1/scale units: corner i (scale / c_i on coordinate
    i, reduced mod scale) closed under the simple reflections,
    x_j -= x_k C[j][k] mod scale.  Translations move no class, so these
    are the vertex classes of the corner's type.  The sets overlap where
    the coweight and coroot lattices differ (on E6, v_1 is in the
    origin's class), so the vertex classes are their union.  Memoized
    per type."""
    memo = {}

    def orbits(datum):
        if datum.rstype not in memo:
            memo[datum.rstype] = _orbits(datum)
        return memo[datum.rstype]

    def _orbits(datum):
        N, d, cartan = datum.scale, datum.rank, datum.cartan
        marks = datum.highest_root_coeffs
        corners = [(0,) * d] + [
            tuple(N // marks[i] % N if j == i else 0 for j in range(d)) for i in range(d)
        ]
        result = []
        for corner in corners:
            orbit, todo = {corner}, [corner]
            while todo:
                x = todo.pop()
                for k in range(d):
                    if x[k]:
                        y = tuple((x[j] - x[k] * cartan[j][k]) % N for j in range(d))
                        if y not in orbit:
                            orbit.add(y)
                            todo.append(y)
            result.append(orbit)
        return result

    return orbits


@pytest.fixture(scope="session")
def closed_form_count():
    """Vertices of the r-fold dilated alcove in the residue classes
    given: the sum over classes rho of P(floor((r scale - marks.rho) /
    scale)), where P(m) = #{z in Z>=0^d : marks.z <= m} counts the
    vertices rho / scale + z of the class."""

    def count(datum, r, residues):
        N, marks = datum.scale, datum.highest_root_coeffs
        exact = [1] + [0] * r  # z with marks.z == m
        for c in marks:
            for m in range(c, r + 1):
                exact[m] += exact[m - c]
        at_most = list(accumulate(exact))
        levels = ((r * N - sum(map(mul, marks, rho))) // N for rho in residues)
        return sum(at_most[m] for m in levels if m >= 0)

    return count
