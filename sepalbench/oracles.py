"""Reference values the benchmark checks program outputs against.

Everything here is computed from the raw graph data (vertex names, edge
triples, weights, separation groups) by counting, never by calling
``sepal``, so a change that breaks the program cannot also break the
reference.  The relation counts follow the relation families of the source
paper: a map that silently drops relations would still send every relation
it kept to zero, so the count is checked alongside the residues.
"""

from __future__ import annotations

import math
from collections import Counter

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# weighted graphs and their companions


def weighted_shape(g):
    """(vertices, edges as (name, src, rng), weight map) of a weighted graph."""
    return g.graph.vertices, g.graph.edges, dict(g.weights)


def out_edges(vertices, edges) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {v: [] for v in vertices}
    for e, s, _ in edges:
        table[s].append(e)
    return table


def is_vertex_weighted(g) -> bool:
    vertices, edges, w = weighted_shape(g)
    outs = out_edges(vertices, edges)
    return all(w[e] == max(w[f] for f in outs[s]) for e, s, _ in edges)


def companion_size(g) -> int:
    """Vertices of the direct companion: the originals plus one slot
    vertex per unit of weight."""
    vertices, _, w = weighted_shape(g)
    return len(vertices) + sum(w.values())


def verify_small_counts(g) -> dict[str, int]:
    """Relations each map of the verify-small job must check, keyed as the
    job keys its reports, plus the shape of the bipartite double of the
    weighted completion."""
    vertices, edges, w = weighted_shape(g)
    nv, ne = len(vertices), len(edges)
    outs = out_edges(vertices, edges)
    indeg = Counter(r for _, _, r in edges)
    regular = [v for v in vertices if outs[v]]
    top = {v: max(w[e] for e in outs[v]) for v in regular}
    slots = sum(w.values())
    base = nv * nv + nv + 2 * slots
    out: dict[str, int] = {}
    if is_vertex_weighted(g):
        out["phi"] = base + sum(top[v] ** 2 + len(outs[v]) ** 2
                                for v in regular)
    out["phi1"] = (base + sum(w[e] * (w[e] - 1) for e, _, _ in edges)
                   + sum(min(w[e], w[f]) for v in regular
                         for e in outs[v] for f in outs[v] if e != f)
                   + sum(top.values()) + ne)
    # the double of the completion: upper v_0 per regular v with groups
    # {e~ : e in s^-1(v)} and {h(v,1..top)}, lower v_1 per vertex
    nr = len(regular)
    dv = nr + nv
    de = ne + sum(top.values())
    out["phi0"] = (dv * dv + dv + 2 * de
                   + sum(len(outs[v]) ** 2 + top[v] ** 2 + 2 for v in regular))
    into = {x: indeg[x] + top.get(x, 0) for x in vertices}   # |r^-1(x_1)|
    pairs = sum(k * k for k in into.values())
    tt = sum(sum(into[r] for e, s, r in edges if s == v) ** 2
             + (top[v] * into[v]) ** 2 for v in regular)
    out["lv"] = nr * nr + nr + 3 * pairs + tt + 2 * nr
    out["lw"] = (nv * nv + nv
                 + sum(6 * len(outs[v]) * top[v]
                       + len(outs[v]) ** 2 + top[v] ** 2 for v in regular))
    out["double_upper"] = nr
    out["double_lower"] = nv
    out["double_edges"] = de
    return out


# ---------------------------------------------------------------------------
# separated graphs and resolutions


def separated_relation_count(vertices, edges, separation) -> int:
    nv = len(vertices)
    return (nv * nv + nv + 2 * len(edges)
            + sum(len(grp) ** 2 + 1 for _, groups in separation
                  for grp in groups))


def resolution_shape(upper, lower, edges, separation):
    """Shape of the one-step resolution of a bipartite separated layer,
    from the product of its group sizes: (upper count, lower count, edge
    count, {new upper vertex: sorted group sizes})."""
    sep = dict(separation)
    rng = {e: r for e, _, r in edges}
    sizes = {u: [len(grp) for grp in sep[u]] for u in upper}
    tuples = {u: math.prod(sizes[u]) for u in upper}
    new_groups: dict[str, list[int]] = {w: [] for w in lower}
    for u in upper:
        for grp, n in zip(sep[u], sizes[u]):
            for x in grp:
                new_groups[rng[x]].append(tuples[u] // n)
    return (len(lower), sum(tuples.values()),
            sum(tuples[u] * len(sizes[u]) for u in upper),
            {w: sorted(gs) for w, gs in new_groups.items()})


# ---------------------------------------------------------------------------
# commutative monoids


def replay(relations, path, x: Vec, y: Vec) -> str | None:
    """Check a rewrite chain step by step: it runs from x to y and each step
    replaces one side of one relation by the other.  None when it holds."""
    if not path or tuple(path[0]) != tuple(x) or tuple(path[-1]) != tuple(y):
        return "chain does not join its endpoints"
    moves = [(l, r) for l, r in relations] + [(r, l) for l, r in relations]
    for a, b in zip(path, path[1:]):
        if not any(all(ai >= li for ai, li in zip(a, l))
                   and tuple(b) == tuple(ai - li + ri
                                         for ai, li, ri in zip(a, l, r))
                   for l, r in moves):
            return f"step {tuple(a)} -> {tuple(b)} applies no relation"
    return None


def group_name(k: int) -> str:
    """Z/k as the program prints it: Z for k = 0, 0 for k = 1."""
    if k == 0:
        return "Z"
    return "0" if k == 1 else f"Z/{k}"


def minimal_partition_expected(m: int, n: int) -> dict:
    """Invariants of the minimal partition (n, 1, ..., 1) of the source
    paper's example: group Z/(n-m), type (1, n-m) (no type when n = m, as
    a type needs q >= 1), and for the quotient by the unique proper ideal
    group and type from d = gcd(m-2, n-2).  The completed graph has one
    vertex and n loops of weight m, so its weighted relation family has
    2 + 2nm + m^2 + n^2 members."""
    d = math.gcd(m - 2, n - 2)
    return {
        "grothendieck": group_name(n - m),
        "leavitt_type": [1, n - m] if n > m else [None, None],
        "quotient_grothendieck": group_name(d),
        "quotient_leavitt_type": [1, d],
        "ideal_count": 3,
        "rose_relations": 2 + 2 * n * m + m * m + n * n,
    }
