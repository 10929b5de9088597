import pytest

from steinerkit.catalog import catalog_entry_by_name


@pytest.fixture(scope="session")
def catalog_group():
    """``catalog_group(name)`` is ``catalog_entry_by_name(name).group()``,
    built once per test session.

    A group keeps the setwise stabilizers its index tests searched, so a
    test that counts chain builds or setwise searches, or times a search,
    builds its own group instead.
    """
    groups = {}

    def group(name):
        if name not in groups:
            groups[name] = catalog_entry_by_name(name).group()
        return groups[name]

    return group
