"""Graph-family generators.

Every experiment in the paper is stated for *arbitrary* undirected networks,
so the benches sweep a zoo of topologies with very different diameters,
degree profiles, and mixing times:

========================  ========================================  =====================
family                    why it appears in the experiments          key parameter regime
========================  ========================================  =====================
path / cycle              Lemma 2.6 tightness (visits ~ d(x)√ℓ);     D = Θ(n)
                          slow mixing, worst-case cover time
2-D grid / torus          moderate diameter D = Θ(√n)                τ_mix = Θ(n log n)
hypercube                 low diameter, good expansion               D = log n
random regular            expanders: τ_mix = Θ(log n)                D = Θ(log n)
Erdős–Rényi               "arbitrary network" sanity family          D = Θ(log n)
random geometric          the paper's ad-hoc-network motivation      τ_mix ≫ D by ~√n
barbell / lollipop        worst-case mixing/cover time               τ_mix = Θ(n²)..Θ(n³)
complete graph            Bar-Ilan & Zernik RST special case         D = 1
binary tree               BFS/convergecast structure tests           D = Θ(log n)
star                      degree-skew stress (deg-proportional       D = 2
                          Phase-1 ablation)
========================  ========================================  =====================

All generators take an explicit ``rng`` (when randomized) and return a
:class:`~repro.graphs.graph.Graph` whose ``name`` records family+parameters.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph, pair_keys
from repro.util.arrays import sorted_unique
from repro.util.rng import make_rng

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "barbell_graph",
    "lollipop_graph",
    "edge_list_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "random_geometric_graph",
    "standard_families",
]


def path_graph(n: int) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``; diameter ``n-1``."""
    if n < 1:
        raise GraphError("path needs at least 1 node")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"path(n={n})")


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n ≥ 3`` nodes; diameter ``⌊n/2⌋``."""
    if n < 3:
        raise GraphError("cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, name=f"cycle(n={n})")


def complete_graph(n: int) -> Graph:
    """Complete graph ``K_n``; diameter 1."""
    if n < 2:
        raise GraphError("complete graph needs at least 2 nodes")
    edges = list(itertools.combinations(range(n), 2))
    return Graph(n, edges, name=f"complete(n={n})")


def star_graph(n: int) -> Graph:
    """Star: node 0 is the hub joined to ``n-1`` leaves; diameter 2."""
    if n < 2:
        raise GraphError("star needs at least 2 nodes")
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star(n={n})")


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows × cols`` 2-D grid with 4-neighbor connectivity."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    if rows * cols < 2:
        raise GraphError("grid needs at least 2 nodes")

    def nid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                edges.append((nid(r, c), nid(r + 1, c)))
    return Graph(rows * cols, edges, name=f"grid({rows}x{cols})")


def torus_graph(rows: int, cols: int) -> Graph:
    """2-D torus (grid with wraparound); vertex-transitive, diameter ``⌊r/2⌋+⌊c/2⌋``."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs both dimensions >= 3 to avoid parallel edges")

    def nid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((nid(r, c), nid(r, (c + 1) % cols)))
            edges.append((nid(r, c), nid((r + 1) % rows, c)))
    return Graph(rows * cols, edges, name=f"torus({rows}x{cols})")


def hypercube_graph(dim: int) -> Graph:
    """``dim``-dimensional hypercube: ``2^dim`` nodes, diameter ``dim``."""
    if dim < 1:
        raise GraphError("hypercube dimension must be >= 1")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph(n, edges, name=f"hypercube(d={dim})")


def binary_tree_graph(height: int) -> Graph:
    """Complete binary tree of the given height: ``2^(h+1) - 1`` nodes."""
    if height < 0:
        raise GraphError("height must be >= 0")
    n = (1 << (height + 1)) - 1
    if n < 2:
        raise GraphError("binary tree needs at least 2 nodes (height >= 1)")
    edges = []
    for v in range(n):
        for child in (2 * v + 1, 2 * v + 2):
            if child < n:
                edges.append((v, child))
    return Graph(n, edges, name=f"binary_tree(h={height})")


def barbell_graph(clique_size: int, bridge_length: int = 1) -> Graph:
    """Two ``K_k`` cliques joined by a path of ``bridge_length`` edges.

    A classic slow-mixing topology: the walk takes Θ(k²·bridge) expected time
    to cross between the bells.
    """
    if clique_size < 3:
        raise GraphError("barbell cliques need at least 3 nodes")
    if bridge_length < 1:
        raise GraphError("bridge length must be >= 1")
    k = clique_size
    n_bridge = bridge_length - 1  # interior path nodes
    n = 2 * k + n_bridge
    edges = list(itertools.combinations(range(k), 2))
    right = [k + n_bridge + i for i in range(k)]
    edges.extend((right[a], right[b]) for a, b in itertools.combinations(range(k), 2))
    chain = [k - 1] + [k + i for i in range(n_bridge)] + [right[0]]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(n, edges, name=f"barbell(k={k},bridge={bridge_length})")


def lollipop_graph(clique_size: int, tail_length: int) -> Graph:
    """``K_k`` with a path of ``tail_length`` edges attached.

    Has Θ(n³) cover time — the worst case over all graphs — so it stresses
    the RST doubling schedule.
    """
    if clique_size < 3:
        raise GraphError("lollipop clique needs at least 3 nodes")
    if tail_length < 1:
        raise GraphError("tail length must be >= 1")
    k = clique_size
    n = k + tail_length
    edges = list(itertools.combinations(range(k), 2))
    chain = [k - 1] + [k + i for i in range(tail_length)]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return Graph(n, edges, name=f"lollipop(k={k},tail={tail_length})")


def erdos_renyi_graph(n: int, p: float, rng=None, *, require_connected: bool = True, max_tries: int = 200) -> Graph:
    """``G(n, p)``; by default retries until the sample is connected."""
    if n < 2:
        raise GraphError("G(n,p) needs at least 2 nodes")
    if not 0 < p <= 1:
        raise GraphError(f"edge probability must be in (0, 1], got {p}")
    rng = make_rng(rng)
    from repro.graphs.properties import is_connected  # local import avoids a cycle

    for _ in range(max_tries):
        upper = rng.random((n, n)) < p
        iu, ju = np.triu_indices(n, k=1)
        mask = upper[iu, ju]
        edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        g = Graph(n, edges, name=f"gnp(n={n},p={p:g})")
        if not require_connected or is_connected(g):
            return g
    raise GraphError(f"no connected G({n},{p}) sample in {max_tries} tries; increase p")


def random_regular_graph(n: int, d: int, rng=None, *, max_tries: int = 500) -> Graph:
    """Random ``d``-regular simple graph via the pairing (configuration) model.

    Retries until the pairing yields a simple connected graph.  For
    ``d ≥ 3`` such graphs are expanders w.h.p., giving the Θ(log n)-mixing
    family the paper's `ℓ ≫ D` motivation talks about.
    """
    if n * d % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    if d < 2 or d >= n:
        raise GraphError(f"need 2 <= d < n, got d={d}, n={n}")
    rng = make_rng(rng)
    from repro.graphs.properties import is_connected

    stubs_template = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        stubs = rng.permutation(stubs_template)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = np.sort(pairs, axis=1)
        keys = pair_keys(canon[:, 0], canon[:, 1], n)
        if len(sorted_unique(keys)) != len(keys):
            continue
        g = Graph(n, [tuple(map(int, e)) for e in canon], name=f"random_regular(n={n},d={d})")
        if is_connected(g):
            return g
    raise GraphError(f"no simple connected {d}-regular graph on {n} nodes in {max_tries} tries")


def random_geometric_graph(n: int, radius: float, rng=None, *, max_tries: int = 200) -> Graph:
    """Random geometric graph on the unit square; the paper's ad-hoc model.

    Nodes are uniform in ``[0,1]²`` and joined when within ``radius``.  For
    radius near the connectivity threshold ``Θ(√(log n / n))`` the mixing
    time exceeds the diameter by a ``√n``-ish factor — the regime the paper
    cites (random geometric graphs, Muthukrishnan & Pandurangan) as the
    motivation for walks with ``D ≪ ℓ ≪ τ_mix``.
    """
    if n < 2:
        raise GraphError("RGG needs at least 2 nodes")
    if radius <= 0:
        raise GraphError("radius must be positive")
    rng = make_rng(rng)
    from repro.graphs.properties import is_connected

    for _ in range(max_tries):
        points = rng.random((n, 2))
        diff = points[:, None, :] - points[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        iu, ju = np.triu_indices(n, k=1)
        mask = dist2[iu, ju] <= radius * radius
        edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        g = Graph(n, edges, name=f"rgg(n={n},r={radius:g})")
        if is_connected(g):
            return g
    raise GraphError(f"no connected RGG(n={n}, r={radius}) in {max_tries} tries; increase radius")


def edge_list_graph(path, name: str | None = None) -> Graph:
    """Load a graph from a whitespace edge-list file (``u v [w]`` lines).

    The interchange format real graph corpora ship in (SNAP et al.): one
    undirected edge per line as two integer node IDs and an optional
    positive weight; blank lines and ``#`` comments are skipped.  Node
    count is ``max id + 1`` — IDs must be dense enough that isolated
    trailing nodes are intended.  Weights default to 1.0; a file that
    weights only some edges weights the rest 1.0.
    """
    path = str(path)
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    weighted = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 'u v [w]', got {raw.strip()!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from exc
            if u < 0 or v < 0:
                raise GraphError(f"{path}:{lineno}: node ids must be >= 0")
            edges.append((u, v))
            weights.append(w)
            weighted = weighted or len(parts) == 3
    if not edges:
        raise GraphError(f"{path}: no edges found")
    n = max(max(u, v) for u, v in edges) + 1
    return Graph(
        n,
        edges,
        weights=weights if weighted else None,
        name=name if name is not None else f"file({path})",
    )


def standard_families(scale: int = 1, seed: int = 0) -> list[Graph]:
    """A representative bundle of topologies at a given size scale.

    ``scale=1`` yields graphs of ~60–70 nodes, ``scale=2`` ~250, etc.; used
    by integration tests and benches that want breadth without hand-picking.
    """
    if scale < 1:
        raise GraphError("scale must be >= 1")
    side = 8 * scale
    n = side * side
    rng = make_rng(seed)
    return [
        cycle_graph(n),
        torus_graph(side, side),
        hypercube_graph(max(3, int(math.log2(n)))),
        random_regular_graph(n, 4, rng),
        barbell_graph(max(6, side), max(2, side // 2)),
        erdos_renyi_graph(n, min(1.0, 3.0 * math.log(n) / n), rng),
    ]
