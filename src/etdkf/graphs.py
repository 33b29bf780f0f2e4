"""Undirected communication graph: adjacency, Laplacian, cuts, potential sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import is_collectively_observable

# Subset enumeration guard for potential-set search.
MAX_POTENTIAL_SET_NODES = 20


@dataclass(frozen=True)
class Graph:
    """Undirected graph over nodes 1..N with no self-loops."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, node_count: int, edges):
        canon = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ConfigurationError(f"self-loop on node {a}")
            if not (1 <= a <= node_count and 1 <= b <= node_count):
                raise ConfigurationError(f"edge ({a},{b}) outside 1..{node_count}")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "edges", frozenset(canon))
        adj = {i: set() for i in range(1, self.node_count + 1)}   # for `neighbors`
        for a, b in canon:
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "_adj", adj)

    @property
    def nodes(self):
        return range(1, self.node_count + 1)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        for i, j in self.edges:
            a[i - 1, j - 1] = 1.0
            a[j - 1, i - 1] = 1.0
        return a


def neighbors(g: Graph, i: int) -> set:
    """All j with an edge (j, i)."""
    if not 1 <= i <= g.node_count:
        raise ConfigurationError(f"node {i} outside 1..{g.node_count}")
    return set(g._adj[i])


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency; symmetric PSD with zero row sums."""
    adj = g.adjacency()
    return np.diag(adj.sum(axis=1)) - adj


def connected_components(g: Graph, removed=frozenset()) -> list:
    """Components of the subgraph induced on the surviving nodes (BFS).

    Returns a list of node sets, each sorted ascending by smallest member.
    """
    seen = set(removed)
    comps = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            u = queue.pop()
            for v in g._adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return sorted(comps, key=min)


def is_vertex_cut(g: Graph, s) -> bool:
    """True iff removing the node set s splits a connected graph into >= 2 parts."""
    if len(connected_components(g)) != 1:
        raise ConfigurationError("vertex-cut test requires a connected graph")
    return len(connected_components(g, removed=set(s))) >= 2


def adjacency_csv(g: Graph) -> str:
    """Adjacency matrix as CSV text (header row/column of node ids)."""
    adj = g.adjacency()
    lines = ["node," + ",".join(str(i) for i in g.nodes)]
    for i in g.nodes:
        lines.append(str(i) + "," + ",".join(str(int(v)) for v in adj[i - 1]))
    return "\n".join(lines) + "\n"


def find_minimal_potential_sets(g: Graph, model, sensors) -> list:
    """All inclusion-minimal node sets whose removal kills collective observability.

    Brute-force over subsets by increasing size; potentiality is monotone in the
    removed set, so pruning against already-found minimal sets is sound.
    """
    n_nodes = g.node_count
    if n_nodes > MAX_POTENTIAL_SET_NODES:
        raise ConfigurationError(
            f"potential-set search limited to {MAX_POTENTIAL_SET_NODES} nodes, got {n_nodes}"
        )
    from itertools import combinations

    all_nodes = list(g.nodes)
    minimal = []

    def is_potential(removed):
        rest = [i for i in all_nodes if i not in removed]
        if not rest:
            return True
        return not is_collectively_observable(model, sensors, rest, n_nodes)

    for size in range(1, n_nodes + 1):
        for combo in combinations(all_nodes, size):
            s = set(combo)
            if any(m <= s for m in minimal):
                continue
            if is_potential(s):
                minimal.append(s)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))
