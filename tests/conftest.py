"""Fixtures shared by the test suite; the instance generators live in ``instances.py``."""

from pathlib import Path

import pytest


@pytest.fixture
def fixtures_dir():
    import coreset_unlearn

    return Path(coreset_unlearn.__file__).parent / "fixtures"
