import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))


@pytest.fixture
def repo_root() -> Path:
    return BENCH.parent
