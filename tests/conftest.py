"""Fixtures shared by the test suite.

The random instance generators the invariant suites run on live in
``coreset_unlearn.verify``; ``instances.py`` holds the seeded sample lists
only the tests use.
"""

from pathlib import Path

import pytest


@pytest.fixture
def fixtures_dir():
    import coreset_unlearn

    return Path(coreset_unlearn.__file__).parent / "fixtures"
