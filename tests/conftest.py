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
