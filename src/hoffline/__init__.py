"""Hoffman graphs, line-graph recognition over the {H2, H3, H5} family,
and the catalog of minimal forbidden subgraphs for that class."""

from .core import (
    EMPTY_GRAPH,
    FatFatEdge,
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    IsolatedFat,
    canonical_form,
    find_embedding,
    isomorphic,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_GRAPH",
    "FatFatEdge",
    "HoffmanGraph",
    "HoffmanGraphError",
    "IndexOutOfRange",
    "IsolatedFat",
    "canonical_form",
    "find_embedding",
    "isomorphic",
    "__version__",
]
