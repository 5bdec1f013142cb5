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
