"""Shared fixtures for the test suite.

Every randomized test takes explicit seeds so the suite is deterministic;
statistical assertions use chi-square / TV thresholds loose enough that a
correct implementation passes for *all* seeds we ship, while an incorrect
sampler (wrong law, off-by-one in lengths, biased stitching) fails hard.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import (
    Graph,
    barbell_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


@pytest.fixture
def torus_6x6():
    return torus_graph(6, 6)


@pytest.fixture
def torus_8x8():
    return torus_graph(8, 8)


@pytest.fixture
def cycle_24():
    return cycle_graph(24)


@pytest.fixture
def path_16():
    return path_graph(16)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def grid_5x5():
    return grid_graph(5, 5)


@pytest.fixture
def hypercube_5():
    return hypercube_graph(5)


@pytest.fixture
def star_12():
    return star_graph(12)


@pytest.fixture
def barbell_small():
    return barbell_graph(6, 3)


@pytest.fixture
def expander_64():
    return random_regular_graph(64, 4, 12345)


SMALL_FAMILIES = [
    ("cycle", lambda: cycle_graph(16)),
    ("torus", lambda: torus_graph(4, 4)),
    ("complete", lambda: complete_graph(8)),
    ("star", lambda: star_graph(10)),
    ("grid", lambda: grid_graph(4, 4)),
    ("barbell", lambda: barbell_graph(5, 2)),
]


@pytest.fixture(params=SMALL_FAMILIES, ids=[name for name, _ in SMALL_FAMILIES])
def small_graph(request):
    _name, factory = request.param
    return factory()


@pytest.fixture(scope="session")
def atlas():
    """networkx's graph atlas as ``(networkx graph, Graph)`` pairs.

    Every graph of up to 7 nodes up to isomorphism, connected or not: 1,252
    graphs once the empty one is dropped.  Atlas nodes are ``0 .. n-1``.
    """
    return [
        (h, Graph(h.number_of_nodes(), list(h.edges()), name=h.name))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes()
    ]
