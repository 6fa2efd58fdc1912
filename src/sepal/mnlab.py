"""Single-vertex weighted graphs classified by partitions.

A weight assignment on n loops at one vertex with top weight m is the same
data as a weakly decreasing tuple (lambda_1, ..., lambda_m) with
lambda_1 = n: lambda_i counts the loops of weight at least i, i.e. the row
lengths of the 0/1 shape matrix whose column j has weight(e_j) ones.

The module enumerates that partition lattice, builds the matching weighted
graphs, and studies the order-ideal lattice of the completed graph through
0/1 matrices: a proper ideal of slot vertices is the complement of the
support of a matrix with no zero row and no zero column, and the minimal
nonzero ideals are the matrices whose every entry is alone in its row or
alone in its column.  The two worked examples give a diagonal generator
assignment onto a rose algebra and a full invariant report for the minimal
partition (n, 1, ..., 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import constructions as cons
from . import monoids
from .graphs import (
    DirectedGraph,
    GraphError,
    SeparatedGraph,
    WeightedGraph,
)
from .homs import GeneratorMap, relations, slot_name, verify
from .staralg import StarAlgebra

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MnPartition:
    m: int
    n: int
    parts: tuple[int, ...]

    @staticmethod
    def make(m: int, n: int, parts) -> "MnPartition":
        parts = tuple(int(x) for x in parts)
        if m < 1 or n < 1:
            raise GraphError("need m >= 1 and n >= 1")
        if len(parts) != m:
            raise GraphError(f"expected {m} parts, got {len(parts)}")
        if parts[0] != n:
            raise GraphError(f"first part must be {n}, got {parts[0]}")
        if any(parts[i] < parts[i + 1] for i in range(m - 1)):
            raise GraphError("parts must be weakly decreasing")
        if parts[-1] < 1:
            raise GraphError("parts must be positive")
        return MnPartition(m, n, parts)


def partitions(m: int, n: int) -> list[MnPartition]:
    """All (m, n) partitions, in decreasing lexicographic order: n, then
    each weakly decreasing choice of m - 1 parts from n, ..., 1."""
    if m < 1 or n < 1:
        raise GraphError("need m >= 1 and n >= 1")
    return [MnPartition(m, n, (n, *rest)) for rest in
            itertools.combinations_with_replacement(range(n, 0, -1), m - 1)]


def minimal_partition(m: int, n: int) -> MnPartition:
    return MnPartition.make(m, n, (n,) + (1,) * (m - 1))


def partition_to_weighted(p: MnPartition) -> WeightedGraph:
    """One vertex, loops e1..en, weight(e_j) = number of parts >= j."""
    edges = [(f"e{j}", "v", "v") for j in range(1, p.n + 1)]
    graph = DirectedGraph.make(("v",), edges)
    weights = {f"e{j}": sum(1 for x in p.parts if x >= j)
               for j in range(1, p.n + 1)}
    return WeightedGraph.make(graph, weights)


def _slot_grid(p: MnPartition, cell, blank=None) -> tuple[tuple, ...]:
    """The m x n slot grid that the shape, refinement and generator matrices
    share: ``cell(e{j}, i)`` at (i, j) where slot i exists on edge j, that
    is j <= parts[i-1], and ``blank`` elsewhere."""
    return tuple(
        tuple(cell(f"e{j}", i) if j <= part else blank
              for j in range(1, p.n + 1))
        for i, part in enumerate(p.parts, 1))


def shape_matrix(p: MnPartition) -> Matrix:
    return _slot_grid(p, lambda e, i: 1, 0)


def refinement_matrix(p: MnPartition) -> tuple[tuple[str | None, ...], ...]:
    """Slot-vertex names arranged by (slot, edge); row i lists the terms of
    the slot relation at i, column j the terms of the edge relation of e_j."""
    return _slot_grid(p, cons.name_slot_vertex)


def generator_matrix(p: MnPartition) -> tuple[tuple[str | None, ...], ...]:
    """Indexed edge generators arranged the same way: entry (i, j) is
    e{j}.{i} when slot i exists on edge j."""
    return _slot_grid(p, slot_name)


# ---------------------------------------------------------------------------
# ideal matrices


def ideal_matrices(m: int, n: int) -> list[Matrix]:
    """All 0/1 m x n matrices without zero rows or zero columns, in row-major
    lexicographic order.  Entry (i, j) = 1 marks slot vertex v(e_j, i) of the
    completed graph staying outside the ideal."""
    if m * n > 20:
        raise cons.ResourceLimitError(
            f"enumeration over 2^{m * n} matrices refused")
    rows = [r for r in itertools.product((0, 1), repeat=n) if any(r)]
    out = []
    for mat in itertools.product(rows, repeat=m):
        if all(any(mat[i][j] for i in range(m)) for j in range(n)):
            out.append(mat)
    return out


def minimal_configurations(m: int, n: int) -> list[Matrix]:
    """Ideal matrices whose every 1 is alone in its row or in its column;
    these mark the maximal proper order ideals."""
    def lonely(mat: Matrix) -> bool:
        rows = [sum(row) for row in mat]
        cols = [sum(col) for col in zip(*mat)]
        return all(rows[i] == 1 or cols[j] == 1
                   for i, row in enumerate(mat) for j, x in enumerate(row)
                   if x)

    return [mat for mat in ideal_matrices(m, n) if lonely(mat)]


# ---------------------------------------------------------------------------
# worked examples


def rose_graph(loops: int) -> SeparatedGraph:
    """One vertex with ``loops`` loops x1..xN in a single group."""
    if loops < 1:
        raise GraphError("a rose needs at least one loop")
    edges = [(f"x{i}", "v", "v") for i in range(1, loops + 1)]
    graph = DirectedGraph.make(("v",), edges)
    return SeparatedGraph.with_trivial_separation(graph)


def example_58_map(m: int, n: int) -> GeneratorMap:
    """Diagonal assignment from the full-weight graph on (m, n) onto the
    rose with n - m + 1 loops: the first m - 1 diagonal generators go to
    the vertex, the bottom row from column m on walks the loops, and every
    other generator dies.  All defining relations map to zero."""
    if not 1 <= m <= n:
        raise GraphError("need 1 <= m <= n")
    rose = rose_graph(n - m + 1)
    alg = StarAlgebra(rose)
    images = {"v": alg.vertex("v")}
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            if i == j and i <= m - 1:
                images[slot_name(f"e{j}", i)] = alg.vertex("v")
            elif i == m and j >= m:
                images[slot_name(f"e{j}", i)] = alg.edge(f"x{j - m + 1}")
            else:
                images[slot_name(f"e{j}", i)] = alg.zero()
    return GeneratorMap("example58", alg, images)


def example_59_report(m: int, n: int,
                      budget: monoids.Budget = monoids.Budget()) -> dict:
    """Full invariant tour of the minimal partition (n, 1, ..., 1).

    Reports the slot monoid with its reduction to two generators, the
    universal group and least (p, q) pair, the order-ideal lattice with its
    unique proper nonzero member, the quotient by that ideal, and the
    diagonal assignment of the completed graph onto a rose, with every
    claim recomputed rather than assumed.
    """
    if not 3 <= m <= n:
        raise GraphError("need 3 <= m <= n")
    p0 = minimal_partition(m, n)
    g = partition_to_weighted(p0)
    pres = monoids.m1_of(g)
    slim = monoids.eliminate_identifications(pres)
    shape = monoids.grothendieck(pres)
    ltype = monoids.leavitt_type(slim, "v", budget)

    # the lattice runs from the empty set to every vertex, as no group is
    # empty; the proper nonzero ideals lie between
    ideals = monoids.order_ideals(g)
    proper = ideals[1:-1]

    quotient_data = None
    killed = proper[0].vertices if len(proper) == 1 else frozenset()
    if killed:
        q = monoids.quotient_presentation(pres, killed)
        qslim = monoids.eliminate_identifications(q)
        qshape = monoids.grothendieck(q)
        qtype = monoids.leavitt_type(qslim, "v", budget)
        quotient_data = {
            "killed": sorted(killed),
            "presentation": monoids.format_presentation(qslim),
            "generators": list(qslim.generators),
            "grothendieck": str(qshape),
            "leavitt_type": [qtype.p, qtype.q],
        }

    # a generator whose slot vertex lies in the proper ideal is zeroed
    gmat = [[name if name and slot not in killed else "0"
             for name, slot in zip(row, slots)]
            for row, slots in zip(generator_matrix(p0), refinement_matrix(p0))]

    full = weighted_completion_of(m, n)
    rose_map = example_58_map(m, n)
    rose_check = verify(rose_map, relations("weighted", full))

    return {
        "m": m,
        "n": n,
        "partition": list(p0.parts),
        "weights": {e: w for e, w in g.weights},
        "monoid": {
            "generators": list(pres.generators),
            "relations": monoids.format_presentation(pres),
            "reduced_generators": list(slim.generators),
            "reduced_relations": monoids.format_presentation(slim),
            "grothendieck": str(shape),
            "leavitt_type": [ltype.p, ltype.q],
        },
        "ideals": {
            "count": len(ideals),
            "members": [sorted(e.vertices) for e in ideals],
            "proper_nonzero": [sorted(e.vertices) for e in proper],
        },
        "quotient": quotient_data,
        "generator_matrix": gmat,
        "rose": {
            "loops": n - m + 1,
            "relations_checked": rose_check.checked,
            "relations_hold": rose_check.all_zero,
        },
    }


def weighted_completion_of(m: int, n: int) -> WeightedGraph:
    """The full-weight single-vertex graph: n loops, every weight m."""
    return cons.weighted_completion(
        partition_to_weighted(minimal_partition(m, n)))
