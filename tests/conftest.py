import json
from pathlib import Path

import pytest

from degpow.search import search_extremal

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def small_oracle():
    """Frozen small-order extremal values from the independent oracle run."""
    with open(FIXTURES / "ex1_c5_small.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def n8_search():
    """One shared n=8 search over p in {1,2,3}; several tests read it."""
    return search_extremal(8, [1, 2, 3])
