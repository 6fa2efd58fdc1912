#!/usr/bin/env python3
"""Relation-kill sweep over a larger graph family than the test suite runs.

Checks, for every sampled weighted graph, that the four generator maps send
each defining relation to zero: phi on the vertex-weighted members, phi1 on
all of them, and phi0 / rho-tau on the bipartite doubles.  The full
(3 vertices, 4 edges, weight 3) family has ~38k members; by default a seeded
random sample keeps the run to a couple of minutes.  Exit code reflects the
failure count.
"""

import argparse
import random
import sys
import time

from sepal.constructions import (
    separated_of_vertex_weighted,
    weighted_completion,
)
from sepal.graphs import is_vertex_weighted
from sepal.homs import MAPS, relations, verify
from sepal.graphio import print_graph
from sepal.sweeps import weighted_sweep


def check(g, maps):
    failures = []
    checked = 0
    if "phi0" in maps or "rho-tau" in maps:
        double = separated_of_vertex_weighted(weighted_completion(g))
    for name, (build, families) in MAPS.items():
        if name not in maps or name == "phi" and not is_vertex_weighted(g):
            continue
        # phi and phi1 take g itself, phi0 and rho-tau its bipartite double
        arg = g if name in ("phi", "phi1") else double
        gmap = build(arg)
        for family in families:
            rep = verify(gmap, relations(family, arg))
            checked += rep.checked
            failures += [(name, family, l) for l, _ in rep.failures]
    return checked, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=3)
    ap.add_argument("--edges", type=int, default=4)
    ap.add_argument("--weight", type=int, default=3)
    ap.add_argument("--sample", type=int, default=2000,
                    help="graphs to draw (0 = the whole family)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--maps", default="phi,phi1,phi0,rho-tau")
    args = ap.parse_args()

    maps = args.maps.split(",")
    family = weighted_sweep(max_vertices=args.vertices,
                            max_edges=args.edges, max_weight=args.weight)
    print(f"family: {len(family)} weighted graphs "
          f"(<= {args.vertices} vertices, {args.edges} edges, "
          f"weight {args.weight})")
    if args.sample and args.sample < len(family):
        family = random.Random(args.seed).sample(family, args.sample)
        print(f"sampled {len(family)} with seed {args.seed}")

    t0 = time.time()
    total = 0
    bad = 0
    for k, g in enumerate(family, start=1):
        checked, failures = check(g, maps)
        total += checked
        if failures:
            bad += len(failures)
            print("FAIL on")
            print(print_graph(g))
            for item in failures[:10]:
                print("   ", *item)
        if k % 500 == 0:
            rate = k / (time.time() - t0)
            print(f"  {k}/{len(family)} graphs, {total} relations, "
                  f"{rate:.0f} graphs/s")
    print(f"done: {len(family)} graphs, {total} relation images, "
          f"{bad} failures, {time.time() - t0:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
