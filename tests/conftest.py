import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hoffline.enumeration import (
    connected_slim_graphs,
    fat_hoffman_graphs,
    read_graph6_lines,
)
from hoffline.verify import build_catalog

#: the ``stream`` benchmark inputs of seeds 1 and 2: 200 graphs on 12-15
#: vertices, half of them line graphs
STREAM_G6 = Path(__file__).parent / "data" / "stream12_15.g6"


@pytest.fixture(scope="session")
def catalog7():
    """Catalog up to 7 vertices (2 + 28 + 7 members); fast to build."""
    return build_catalog(7)


@pytest.fixture(scope="session")
def catalog8():
    """Full desk-scale catalog up to 8 vertices (the 38 members)."""
    return build_catalog(8)


@pytest.fixture(scope="session")
def stream_graphs():
    """The 200 stream inputs on 12-15 vertices."""
    with open(STREAM_G6) as fh:
        return list(read_graph6_lines(fh))


@pytest.fixture(scope="session")
def spectral_corpus(stream_graphs):
    """All 996 connected graphs with n <= 7, then the 200 stream inputs."""
    return [g for n in range(1, 8) for g in connected_slim_graphs(n)] + stream_graphs


@pytest.fixture(scope="session")
def fat_corpus():
    """Connected fat graphs with 1-4 slim and 1-3 fat vertices."""
    return [g for s in range(1, 5) for g in fat_hoffman_graphs(s, 3)]
