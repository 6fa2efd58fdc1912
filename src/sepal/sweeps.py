"""Deterministic enumeration of small test graphs.

The weighted sweep lists every weighted graph up to the given size, one
representative per choice of edge-endpoint multiset (edges are named
e1, e2, ... in a fixed order), skipping graphs with isolated vertices.
Every member is valid by construction (distinct names, known endpoints,
positive weights, no isolated vertex), so the sweep does not validate
what it builds; the tests check it.
The bipartite sweep combines the two-vertex multi-edge family with the
doubles of the vertex-weighted sweep members.  Both the CLI's --sweep mode
and the acceptance tests run over exactly these lists.
"""

from __future__ import annotations

import itertools

from .constructions import build_emn, separated_of_vertex_weighted
from .graphs import (
    BipartiteSeparatedGraph,
    DirectedGraph,
    WeightedGraph,
    is_vertex_weighted,
)


def weighted_sweep(max_vertices: int = 2, max_edges: int = 3,
                   max_weight: int = 2) -> list[WeightedGraph]:
    out: list[WeightedGraph] = []
    for nv in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(1, nv + 1))
        pair_pool = list(itertools.product(vertices, repeat=2))
        for ne in range(1, max_edges + 1):
            for ends in itertools.combinations_with_replacement(
                    pair_pool, ne):
                touched = {x for pair in ends for x in pair}
                if len(touched) != nv:
                    continue
                edges = [(f"e{k}", s, r)
                         for k, (s, r) in enumerate(ends, start=1)]
                graph = DirectedGraph.make(vertices, edges)
                for ws in itertools.product(range(1, max_weight + 1),
                                            repeat=ne):
                    out.append(WeightedGraph.make(
                        graph, {f"e{k}": w
                                for k, w in enumerate(ws, start=1)}))
    return out


def emn_sweep() -> list[BipartiteSeparatedGraph]:
    """E(m, n) for 1 <= m <= n <= 3."""
    return [build_emn(m, n) for n in range(1, 4) for m in range(1, n + 1)]


def bipartite_sweep() -> list[BipartiteSeparatedGraph]:
    out = emn_sweep()
    for g in weighted_sweep():
        if is_vertex_weighted(g):
            out.append(separated_of_vertex_weighted(g))
    return out
