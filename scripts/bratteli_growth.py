#!/usr/bin/env python3
"""Growth of iterated one-step resolutions.

Resolving a bipartite separated graph swaps the levels and multiplies out
the choice tuples, so layer sizes can grow brutally fast.  This prints a
per-layer table (vertices, edges, group count) for E(m, n) or a graph file,
stopping at the edge cap rather than thrashing.
"""

import argparse
import sys

from sepal.constructions import ResourceLimitError, bratteli, build_emn
from sepal.graphio import ParseError, load_graph
from sepal.graphs import GraphError, as_bipartite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", help="graph file (default: E(m, n))")
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--cap", type=int, default=200000,
                    help="stop before a layer would exceed this many edges")
    args = ap.parse_args()
    if args.depth < 0:
        ap.error("--depth must be nonnegative")
    if args.cap < 1:
        ap.error("--cap must be positive")

    try:
        if args.graph:
            g = as_bipartite(load_graph(args.graph))
        else:
            g = build_emn(args.m, args.n)
        # back off one layer at a time until the tower fits, which it does
        # at depth 0
        for depth in range(args.depth, -1, -1):
            try:
                tower = bratteli(g, depth, cap=args.cap)
                break
            except ResourceLimitError:
                continue
    except (GraphError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    capped = depth < args.depth

    print(f"{'layer':>5} {'upper':>7} {'lower':>9} {'edges':>10} "
          f"{'groups':>7}")
    for k, layer in enumerate(tower.layers):
        groups = sum(len(gs) for _, gs in layer.separation)
        print(f"{k:>5} {len(layer.upper):>7} {len(layer.lower):>9} "
              f"{len(layer.edges):>10} {groups:>7}")
    union = tower.unions[-1]
    print(f"union: {len(union.graph.vertices)} vertices, "
          f"{len(union.graph.edges)} edges")
    if capped:
        print(f"(stopped early: the next layer would exceed "
              f"{args.cap} edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
