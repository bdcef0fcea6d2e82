import pytest

from tempered_atlas import RealFormDescriptor, catalog


def replace(d: RealFormDescriptor, **changes) -> RealFormDescriptor:
    """A new descriptor with d's fields except those changed, built through
    the constructor, so it starts with no memoised tables; an unknown field
    name raises TypeError."""
    fields = {name: getattr(d, name) for name in RealFormDescriptor.__match_args__}
    return RealFormDescriptor(**{**fields, **changes})


@pytest.fixture
def sp4r():
    return catalog("sp4r")


@pytest.fixture
def sl2r():
    return catalog("sl2r")


@pytest.fixture
def sl2c():
    return catalog("sl2c")


@pytest.fixture
def su21():
    return catalog("su21")
