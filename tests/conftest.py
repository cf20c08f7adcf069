import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from _recipes import BUDGET  # noqa: E402

# Property tests draw the same examples on every run, with no time limit
# per example and no example database on disk.
settings.register_profile("skyfade", derandomize=True, deadline=None, database=None)
settings.load_profile("skyfade")


@pytest.fixture(scope="session")
def budget():
    return BUDGET
