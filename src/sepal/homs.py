"""Relation families, generator maps, and verification of algebra maps.

A relation family is a labeled list of formal expressions in named
generators that must vanish.  Each expression is a plain term dict
``{word: coeff}``: a word is a tuple of (generator, starred) pairs, the
generator starred when the flag is true; each coefficient is an ``int`` or
a ``Fraction``, and no coefficient is zero.  A generator map assigns each
generator an element of a concrete star algebra; ``verify`` substitutes
and normalizes, reporting every nonzero residue by label.

The four bundled maps:

* ``phi_vw``      weighted generators (vertex-weighted case) into the
                  bipartite double, e.i -> h(s(e),i)* e~;
* ``phi1``        weighted generators modulo the diagonal-support ideal
                  into the direct companion, e.i -> a{i}(e) a^e(i)*;
* ``phi0``        separated-graph generators into the one-step resolution,
                  with ghost-letter sums for edges;
* ``rho_tau``     formal upper-corner pairs t(e,f) = e f* and lower-corner
                  pairs r(e,f) = e* f realized inside the algebra itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import constructions as cons
from .graphs import (
    BipartiteSeparatedGraph,
    GraphError,
    WeightedGraph,
    _is_vertex_weighted,
    _vertex_weight,
    as_bipartite,
    as_separated,
    as_weighted,
)
from .staralg import (
    AlgebraError,
    AlgElement,
    Coeff,
    StarAlgebra,
    _collect,
    as_coeff,
    normal_form,
)

GenWord = tuple[tuple[str, bool], ...]
Terms = dict[GenWord, Coeff]


@dataclass(frozen=True)
class RelationSet:
    kind: str
    generators: tuple[str, ...]
    relations: tuple[tuple[str, Terms], ...]


@dataclass
class GeneratorMap:
    kind: str
    target: StarAlgebra
    images: dict[str, AlgElement]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    all_zero: bool
    checked: int
    failures: tuple[tuple[str, AlgElement], ...]


# ---------------------------------------------------------------------------
# relation families


def slot_name(e: str, i: int) -> str:
    """The generator e.i of a weighted graph: slot i of edge e."""
    return f"{e}.{i}"


def t_name(e: str, f: str) -> str:
    return f"t({e},{f})"


def r_name(e: str, f: str) -> str:
    return f"r({e},{f})"


def p_name(v: str) -> str:
    return f"p({v})"


def _sum(words, minus: str | None = None) -> Terms:
    """The sum of distinct ``words``, less the generator ``minus``."""
    terms = dict.fromkeys(words, 1)
    if minus is not None:
        terms[((minus, False),)] = -1
    return terms


def _prod(a: str, b: str, minus: str | None = None) -> Terms:
    """a b, less the generator ``minus``."""
    return _sum((((a, False), (b, False)),), minus)


def _less(x: str, words) -> Terms:
    """The generator x less the sum of distinct ``words``."""
    return {((x, False),): 1, **dict.fromkeys(words, -1)}


def _adjoint(x: str, y: str) -> Terms:
    """x* - y."""
    return {((x, True),): 1, ((y, False),): -1}


def _vertex_family(names, out: list) -> None:
    for u in names:
        for v in names:
            out.append((f"vv:{u}.{v}", _prod(u, v, u if u == v else None)))
    for v in names:
        out.append((f"v*:{v}", _adjoint(v, v)))


def relations(kind: str, g) -> RelationSet:
    """The defining relation family of the given presentation kind over g.

    Kinds: ``separated`` (vertex and edge generators of a separated graph),
    ``weighted`` (indexed edge generators e.i), ``weighted-l1`` (same
    generators with the diagonal-support relations split out), ``lv``
    (upper-corner pair generators), ``lw`` (lower-corner pair generators).
    Each relation is a term dict of words in (generator, starred) pairs
    with nonzero ``int`` coefficients.
    """
    rels: list[tuple[str, Terms]] = []
    if kind == "separated":
        s = as_separated(g)
        d = s.graph
        _vertex_family(d.vertices, rels)
        for e, src, rng in d.edges:
            rels.append((f"src:{e}", _prod(src, e, e)))
            rels.append((f"rng:{e}", _prod(e, rng, e)))
        for v, groups in s.separation:
            for grp in groups:
                for e in grp:
                    for f in grp:
                        rels.append((f"gg:{e}.{f}",
                                     _sum((((e, True), (f, False)),),
                                          d.rng(e) if e == f else None)))
            for i, grp in enumerate(groups):
                rels.append((f"fiber:{v}.{i}",
                             _less(v, [((e, False), (e, True)) for e in grp])))
        gens = d.vertices + d.edge_names
        return RelationSet(kind, gens, tuple(rels))

    if kind in ("weighted", "weighted-l1"):
        g = as_weighted(g)
        d = g.graph
        _vertex_family(d.vertices, rels)
        slots = [(e, i) for e, _, _ in d.edges for i in range(1, g.w[e] + 1)]
        # x[e, i] is the letter e.i, y[e, i] the letter (e.i)*
        x = {(e, i): (slot_name(e, i), False) for e, i in slots}
        y = {(e, i): (slot_name(e, i), True) for e, i in slots}
        for e, i in slots:
            xi = slot_name(e, i)
            rels.append((f"src:{e}.{i}", _prod(d.src(e), xi, xi)))
            rels.append((f"rng:{e}.{i}", _prod(xi, d.rng(e), xi)))
        regular = [v for v in d.vertices if d.out_edges.get(v)]
        if kind == "weighted":
            for v in regular:
                fiber = d.out_edges[v]
                wv = _vertex_weight(g, v)
                for i in range(1, wv + 1):
                    for j in range(1, wv + 1):
                        words = [(x[e, i], y[e, j]) for e in fiber
                                 if g.w[e] >= i and g.w[e] >= j]
                        rels.append((f"rows:{v}.{i}.{j}",
                                     _sum(words, v if i == j else None)))
                for e in fiber:
                    for f in fiber:
                        words = [(y[e, i], x[f, i])
                                 for i in range(1, min(g.w[e], g.w[f]) + 1)]
                        rels.append((f"cols:{v}.{e}.{f}",
                                     _sum(words,
                                          d.rng(e) if e == f else None)))
        else:
            for e, _, _ in d.edges:
                for i in range(1, g.w[e] + 1):
                    for j in range(1, g.w[e] + 1):
                        if i != j:
                            rels.append((f"offdiag:{e}.{i}.{j}",
                                         _sum(((x[e, i], y[e, j]),))))
            for v in regular:
                fiber = d.out_edges[v]
                for e in fiber:
                    for f in fiber:
                        if e == f:
                            continue
                        for i in range(1, min(g.w[e], g.w[f]) + 1):
                            rels.append((f"offedge:{v}.{e}.{f}.{i}",
                                         _sum(((y[e, i], x[f, i]),))))
                for i in range(1, _vertex_weight(g, v) + 1):
                    words = [(x[e, i], y[e, i]) for e in fiber
                             if g.w[e] >= i]
                    rels.append((f"diag:{v}.{i}", _sum(words, v)))
            for e, _, rng in d.edges:
                words = [(y[e, i], x[e, i]) for i in range(1, g.w[e] + 1)]
                rels.append((f"full:{e}", _sum(words, rng)))
        gens = d.vertices + tuple(slot_name(e, i) for e, i in slots)
        return RelationSet(kind, gens, tuple(rels))

    if kind in ("lv", "lw"):
        g = as_bipartite(g)
        d = g.base.graph
        group_of = g.group_of
        if kind == "lv":
            ps = [p_name(v) for v in g.upper]
            _vertex_family(ps, rels)
            pairs = [(e, f) for w in g.lower
                     for e in d.in_edges.get(w, ())
                     for f in d.in_edges.get(w, ())]
            t = {pair: t_name(*pair) for pair in pairs}
            for e, f in pairs:
                tef = t[e, f]
                rels.append((f"t*:{e}.{f}", _adjoint(tef, t[f, e])))
                rels.append((f"tp:{e}.{f}", _prod(tef, p_name(d.src(f)), tef)))
                rels.append((f"pt:{e}.{f}", _prod(p_name(d.src(e)), tef, tef)))
            # t(e,f) t(g,h) is a relation exactly when f and g share a group
            starting: dict[tuple[str, ...], list] = {}
            for e, f in pairs:
                starting.setdefault(group_of[e], []).append((e, f))
            for e, f in pairs:
                for gg, h in starting[group_of[f]]:
                    rels.append((f"tt:{e}.{f}.{gg}.{h}",
                                 _prod(t[e, f], t[gg, h],
                                       t[e, h] if f == gg else None)))
            for v, groups in g.separation:
                for i, grp in enumerate(groups):
                    rels.append((f"pfull:{v}.{i}",
                                 _less(p_name(v),
                                       [((t_name(e, e), False),)
                                        for e in grp])))
            gens = tuple(ps) + tuple(t.values())
            return RelationSet(kind, gens, tuple(rels))

        ps = [p_name(w) for w in g.lower]
        _vertex_family(ps, rels)
        pairs = [(e, f) for v in g.upper
                 for e in d.out_edges.get(v, ())
                 for f in d.out_edges.get(v, ())
                 if group_of[e] != group_of[f]]
        r = {pair: r_name(*pair) for pair in pairs}
        for e, f in pairs:
            ref = r[e, f]
            rels.append((f"r*:{e}.{f}", _adjoint(ref, r[f, e])))
            rels.append((f"rp:{e}.{f}", _prod(ref, p_name(d.rng(f)), ref)))
            rels.append((f"pr:{e}.{f}", _prod(p_name(d.rng(e)), ref, ref)))
        for v, groups in g.separation:
            fiber = d.out_edges.get(v, ())
            for e in fiber:
                for h in fiber:
                    ge, gh = group_of[e], group_of[h]
                    minus = (r[e, h] if ge != gh
                             else p_name(d.rng(e)) if e == h else None)
                    # r(e,f) r(f,h) needs f away from the groups of e and h
                    for i, grp in enumerate(groups):
                        if grp in (ge, gh):
                            continue
                        words = [((r[e, f], False), (r[f, h], False))
                                 for f in grp]
                        rels.append((f"rr:{e}.{h}.{v}.{i}",
                                     _sum(words, minus)))
        gens = tuple(ps) + tuple(r.values())
        return RelationSet(kind, gens, tuple(rels))

    raise GraphError(f"unknown relation kind {kind!r}")


# ---------------------------------------------------------------------------
# generator maps


def rho_tau(g: BipartiteSeparatedGraph) -> GeneratorMap:
    """Realize the pair generators inside the algebra over g itself.

    t(e,f) = e f* for edges with a common range; r(e,f) = e* f for edges
    with a common source, extended across equal groups by r(e,f) = 0 for
    e != f and r(e,e) = r(e), so kernel words can use any pair.
    """
    g = as_bipartite(g)
    alg = StarAlgebra(g)
    d = g.base.graph
    images: dict[str, AlgElement] = {}
    for v in d.vertices:
        images[p_name(v)] = alg.vertex(v)
    for w in g.lower:
        for e in d.in_edges.get(w, ()):
            for f in d.in_edges.get(w, ()):
                images[t_name(e, f)] = alg.edge(e) * alg.ghost(f)
    group_of = g.group_of
    for v in g.upper:
        for e in d.out_edges.get(v, ()):
            for f in d.out_edges.get(v, ()):
                if group_of[e] != group_of[f]:
                    images[r_name(e, f)] = alg.ghost(e) * alg.edge(f)
                elif e == f:
                    images[r_name(e, f)] = alg.vertex(d.rng(e))
                else:
                    images[r_name(e, f)] = alg.zero()
    return GeneratorMap("rho-tau", alg, images)


def phi_vw(g: WeightedGraph) -> GeneratorMap:
    """Indexed edge generators of a vertex-weighted graph into the algebra
    of its bipartite double: v -> v_1 and e.i -> h(s(e),i)* e~."""
    alg = StarAlgebra(cons.separated_of_vertex_weighted(g))
    images: dict[str, AlgElement] = {}
    for v in g.graph.vertices:
        images[v] = alg.vertex(cons.name_lower_copy(v))
    for e, s, _ in g.graph.edges:
        for i in range(1, g.w[e] + 1):
            images[slot_name(e, i)] = (alg.ghost(cons.name_h(s, i))
                                       * alg.edge(cons.name_tilde(e)))
    return GeneratorMap("phi", alg, images)


def phi1(g: WeightedGraph) -> GeneratorMap:
    """Indexed edge generators of any weighted graph into the algebra of
    its direct companion: v -> v and e.i -> a{i}(e) a^e(i)*."""
    alg = StarAlgebra(cons.separated_of_weighted(g))
    images: dict[str, AlgElement] = {}
    for v in g.graph.vertices:
        images[v] = alg.vertex(v)
    for e, _, _ in g.graph.edges:
        for i in range(1, g.w[e] + 1):
            images[slot_name(e, i)] = (alg.edge(cons.name_slot_edge(i, e))
                                       * alg.ghost(cons.name_edge_slot(e, i)))
    return GeneratorMap("phi1", alg, images)


def phi0(g: BipartiteSeparatedGraph) -> GeneratorMap:
    """Vertex and edge generators of a bipartite separated graph into the
    algebra of its one-step resolution.

    Upper vertices go to the sum of their choice-tuple vertices, lower
    vertices stay put, and an edge x goes to the sum of the ghosts of the
    group x spawned, the x:j* over the complementary tuples.  The
    images are letter ids read off the layout of a one-step resolution that
    the ``constructions`` docstring fixes: each upper vertex's tuple
    vertices are one run of ids, after g's lower vertices and in the order
    of g's upper level, and the algebra's k-th group is the one spawned by
    the k-th edge into g's lower level, in ``in_edges`` order.
    """
    g = as_bipartite(g)
    resolved = cons.one_step_resolution(g)
    alg = StarAlgebra(resolved)
    ghosts: list[dict] = [{} for _ in g.graph.edges]  # one group per edge
    for a in range(alg.nv, alg.ghosts):
        ghosts[alg.group[a]][(alg.star_of[a],)] = 1
    images: dict[str, AlgElement] = {}
    spawned = iter(ghosts)
    for w in g.lower:
        images[w] = alg.vertex(w)
        for x, terms in zip(g.graph.in_edges[w], spawned):
            images[x] = AlgElement(alg, terms)
    start = len(g.lower)
    for u in g.upper:
        stop = start + math.prod(map(len, g.sep[u]))
        images[u] = AlgElement(alg, {(t,): 1 for t in range(start, stop)})
        start = stop
    return GeneratorMap("phi0", alg, images, {"resolution": resolved})


# each map with the relation families it sends to zero; every map and every
# family takes the same graph argument
MAPS = {
    "phi": (phi_vw, ("weighted",)),
    "phi1": (phi1, ("weighted-l1",)),
    "phi0": (phi0, ("separated",)),
    "rho-tau": (rho_tau, ("lv", "lw")),
}


# ---------------------------------------------------------------------------
# evaluation


def evaluate(terms: Terms, gmap: GeneratorMap) -> AlgElement:
    """Substitute generator images into a term dict and normalize.

    ``terms`` maps each word, a tuple of (generator, starred) pairs, to its
    coefficient; a starred generator stands for the star of its image.
    Coefficients are coerced once here, with ``as_coeff``: an ``int``
    passes through unchanged and anything else becomes an exact
    ``Fraction``.  Zero terms contribute nothing.
    """
    target = gmap.target
    out: dict = {}
    for word, coeff in terms.items():
        if not coeff:
            continue
        if not word:
            raise AlgebraError("no image for the empty generator word")
        acc: AlgElement | None = None
        for name, starred in word:
            try:
                img = gmap.images[name]
            except KeyError:
                raise AlgebraError(f"no image for generator {name!r}")
            if starred:
                img = img.star()
            acc = img if acc is None else acc * img
        if not target.same_carrier(acc.alg):
            raise AlgebraError("operands live over different graphs")
        coeff = as_coeff(coeff)
        for w, c in acc.terms.items():
            _collect(out, w, coeff * c)
    return normal_form(AlgElement(target, out))


def verify(gmap: GeneratorMap, rels: RelationSet) -> VerifyReport:
    failures = []
    for label, terms in rels.relations:
        residue = evaluate(terms, gmap)
        if not residue.is_zero:
            failures.append((label, residue))
    return VerifyReport(all_zero=not failures, checked=len(rels.relations),
                        failures=tuple(failures))


# ---------------------------------------------------------------------------
# ideal generator families


def _format_word(word: GenWord) -> str:
    return " ".join(n + "*" if s else n for n, s in word)


# The commutator family normalizes one commutator per pair of distinct range
# projections; past this many pairs it refuses rather than run for minutes.
MAX_COMMUTATOR_PAIRS = 1 << 17
# Words of unitaries never die out and give one projection, so neither the
# words nor the pairs stop by themselves: a loop alone in its group gives
# 2^L words of length L, and a one-edge graph two words of each length.
MAX_COMMUTATOR_BOUND = 32
MAX_COMMUTATOR_WORDS = 1 << 12


def _semigroup_words(names: list[str], compose, bound: int):
    """Composable sequences over direct/starred letters, up to ``bound``,
    shortest first.  They are yielded one at a time, so a caller that
    refuses part way lists no more of them."""
    letters = [(n, s) for n in names for s in (False, True)]
    layer: list[GenWord] = [(l,) for l in letters]
    for length in range(1, bound + 1):
        nxt = []
        for w in layer:
            yield w
            if length < bound:
                nxt += [w + (l,) for l in letters if compose(w[-1], l)]
        layer = nxt


def ideal_generators(kind: str, g, bound: int | None = None,
                     subset=None) -> list[tuple[str, AlgElement]]:
    """Labeled generating families for the distinguished ideals.

    ``i0``: the relations of ``weighted-l1`` beyond those of L(E,w), the
    ``offdiag`` and ``offedge`` words of a vertex-weighted graph, as images
    under phi_vw.  ``kernel``: all nonzero kernel words of the one-step
    resolution map.  ``commutator``: commutators of range projections
    u u* over semigroup words up to ``bound`` letters (indexed generators
    count as one letter and map through phi1); it raises
    ``ResourceLimitError`` for a bound above ``MAX_COMMUTATOR_BOUND`` (32)
    before any word is listed, and as soon as the words listed pass
    ``MAX_COMMUTATOR_WORDS`` (2^12) or the distinct projections found give
    more than ``MAX_COMMUTATOR_PAIRS`` (2^17) pairs.
    ``hsat``: the vertices of a hereditary group-saturated set.
    """
    if kind == "i0":
        g = as_weighted(g)
        if not _is_vertex_weighted(g):
            raise GraphError("i0 images need a vertex-weighted graph")
        gmap = phi_vw(g)
        out = []
        for label, terms in relations("weighted-l1", g).relations:
            if label.startswith("offdiag:"):
                out.append((f"i0:{label}", evaluate(terms, gmap)))
            elif label.startswith("offedge:"):
                # the one word is (e.i)* (f.i), and e may hold a "."
                (((ei, _), (fi, _)),) = terms
                e = ei.rpartition(".")[0]
                out.append((f"i0:offedge:{e}.{fi}", evaluate(terms, gmap)))
        return out

    if kind == "kernel":
        g = as_bipartite(g)
        images = rho_tau(g).images

        def r(a: str, b: str) -> AlgElement:
            return images[r_name(a, b)]

        d = g.base.graph
        out = []
        for v in g.upper:
            fiber = d.out_edges.get(v, ())
            for e, f, g2, h in itertools.product(fiber, repeat=4):
                el = normal_form(r(e, f) * r(f, g2) * r(g2, h)
                                 - r(e, g2) * r(g2, f) * r(f, h))
                if not el.is_zero:
                    out.append((f"gamma:{e}.{f}.{g2}.{h}", el))
        return out

    if kind == "commutator":
        if bound is None or bound < 1:
            raise GraphError("commutator generators need a word bound >= 1")
        if bound > MAX_COMMUTATOR_BOUND:
            raise cons.ResourceLimitError(
                f"commutator generators refused: word bound {bound:,} is "
                f"more than {MAX_COMMUTATOR_BOUND}")
        if isinstance(g, WeightedGraph):
            gmap = phi1(g)
            d = g.graph
            names = [slot_name(e, i) for e, _, _ in d.edges
                     for i in range(1, g.w[e] + 1)]
            ends = {slot_name(e, i): (d.src(e), d.rng(e))
                    for e, _, _ in d.edges for i in range(1, g.w[e] + 1)}
        else:
            s = as_separated(g)
            alg = StarAlgebra(s)
            names = list(s.graph.edge_names)
            gmap = GeneratorMap("identity", alg,
                                {n: alg.edge(n) for n in names})
            ends = {n: (s.graph.src(n), s.graph.rng(n)) for n in names}

        def letter_ends(l):
            n, starred = l
            a, b = ends[n]
            return (b, a) if starred else (a, b)

        def compose(l1, l2):
            return letter_ends(l1)[1] == letter_ends(l2)[0]

        projections: dict = {}
        for listed, w in enumerate(_semigroup_words(names, compose, bound)):
            if listed == MAX_COMMUTATOR_WORDS:
                raise cons.ResourceLimitError(
                    "commutator generators refused: more than "
                    f"{MAX_COMMUTATOR_WORDS} semigroup words")
            acc = evaluate({w: 1}, gmap)
            p = normal_form(acc * acc.star())
            if p.is_zero:
                continue
            key = frozenset(p.terms.items())
            projections.setdefault(key, (_format_word(w), p))
            # the count only grows, so refusing here refuses exactly the
            # families whose full count would exceed the cap
            k = len(projections)
            if k * (k - 1) // 2 > MAX_COMMUTATOR_PAIRS:
                raise cons.ResourceLimitError(
                    "commutator generators refused: more than "
                    f"{MAX_COMMUTATOR_PAIRS} projection pairs")
        items = list(projections.values())
        out = []
        seen = set()
        for i, (la, pa) in enumerate(items):
            for lb, pb in items[i + 1:]:
                c = normal_form(pa * pb - pb * pa)
                if c.is_zero:
                    continue
                key = frozenset(c.terms.items())
                if key in seen:
                    continue
                seen.add(key)
                out.append((f"comm:[{la} | {lb}]", c))
        return out

    if kind == "hsat":
        s = as_separated(g)
        if subset is None:
            raise GraphError("hsat generators need a vertex subset")
        rep = cons.is_hsat(s, subset)
        if not (rep.hereditary and rep.saturated):
            raise GraphError("subset is not hereditary group-saturated")
        alg = StarAlgebra(s)
        return [(f"hsat:{v}", alg.vertex(v)) for v in sorted(subset)]

    raise GraphError(f"unknown ideal kind {kind!r}")
