import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hoffline.enumeration import connected_slim_graphs, read_graph6_lines
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
def spectral_corpus():
    """All 996 connected graphs with n <= 7, then the 200 stream inputs."""
    graphs = [g for n in range(1, 8) for g in connected_slim_graphs(n)]
    with open(STREAM_G6) as fh:
        graphs.extend(read_graph6_lines(fh))
    return graphs
