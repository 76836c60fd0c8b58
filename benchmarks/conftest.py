"""Session-scoped datasets shared across benchmark modules."""

import pytest

from common import lwdc_like, open_like, swdc_like


@pytest.fixture(scope="session")
def open_dataset():
    return open_like()


@pytest.fixture(scope="session")
def swdc_dataset():
    return swdc_like()


@pytest.fixture(scope="session")
def lwdc_dataset():
    return lwdc_like()
