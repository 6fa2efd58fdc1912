"""Relation families, generator maps, and verification of algebra maps.

A relation family is a labeled list of formal expressions in named
generators that must vanish.  A generator map assigns each generator an
element of a concrete star algebra; ``verify`` substitutes and normalizes,
reporting every nonzero residue by label.

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
from dataclasses import dataclass, field

from . import constructions as cons
from .graphs import (
    BipartiteSeparatedGraph,
    GraphError,
    WeightedGraph,
    as_bipartite,
    as_separated,
    as_weighted,
    is_vertex_weighted,
    vertex_weight,
)
from .staralg import (
    AlgebraError,
    AlgElement,
    Coeff,
    GHOST,
    VERTEX,
    StarAlgebra,
    _collect,
    as_coeff,
    normal_form,
)

GenWord = tuple[tuple[str, bool], ...]


class GenExpr:
    """Formal combination of words in named generators.

    Coefficients are integers; an exact ``Fraction`` is kept when a caller
    supplies one.  They are coerced once, by the public constructor;
    ``gen``, ``word``, ``zero`` and the arithmetic build their term dicts
    from coefficients that are already coerced and drop zeros as they go.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[GenWord, Coeff] | None = None):
        self.terms = {w: as_coeff(c) for w, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: dict[GenWord, Coeff]) -> "GenExpr":
        # coefficients already coerced, no zeros
        out = object.__new__(cls)
        out.terms = terms
        return out

    @staticmethod
    def gen(name: str, starred: bool = False) -> "GenExpr":
        return GenExpr._of({((name, starred),): 1})

    @staticmethod
    def word(*items: tuple[str, bool]) -> "GenExpr":
        return GenExpr._of({tuple(items): 1})

    @staticmethod
    def zero() -> "GenExpr":
        return GenExpr._of({})

    def __add__(self, other: "GenExpr") -> "GenExpr":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _collect(terms, w, c)
        return GenExpr._of(terms)

    def __neg__(self) -> "GenExpr":
        return GenExpr._of({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GenExpr") -> "GenExpr":
        return self + (-other)

    def __mul__(self, other: "GenExpr") -> "GenExpr":
        terms: dict[GenWord, Coeff] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                _collect(terms, wa + wb, ca * cb)
        return GenExpr._of(terms)

    def star(self) -> "GenExpr":
        return GenExpr._of({tuple((n, not s) for n, s in reversed(w)): c
                            for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GenExpr) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        bits = [_format_word(w) if c == 1 else f"{c}·{_format_word(w)}"
                for w, c in self.terms.items()]
        return "<gen " + (" + ".join(bits) or "0") + ">"


@dataclass(frozen=True)
class RelationSet:
    kind: str
    generators: tuple[str, ...]
    relations: tuple[tuple[str, GenExpr], ...]


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


# Each relation is written as its term dict; a pair (x, s) in a word is the
# generator x, starred when s is true.


def _sum(words, minus: str | None = None) -> GenExpr:
    """The sum of distinct ``words``, less the generator ``minus``."""
    terms = dict.fromkeys(words, 1)
    if minus is not None:
        terms[((minus, False),)] = -1
    return GenExpr._of(terms)


def _prod(a: str, b: str, minus: str | None = None) -> GenExpr:
    """a b, less the generator ``minus``."""
    return _sum((((a, False), (b, False)),), minus)


def _less(x: str, words) -> GenExpr:
    """The generator x less the sum of distinct ``words``."""
    return GenExpr._of({((x, False),): 1, **dict.fromkeys(words, -1)})


def _adjoint(x: str, y: str) -> GenExpr:
    """x* - y."""
    return GenExpr._of({((x, True),): 1, ((y, False),): -1})


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
    """
    rels: list[tuple[str, GenExpr]] = []
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
                wv = vertex_weight(g, v)
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
                for i in range(1, vertex_weight(g, v) + 1):
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
    double = cons.separated_of_vertex_weighted(g)
    alg = StarAlgebra(double)
    images: dict[str, AlgElement] = {}
    for v in g.graph.vertices:
        images[v] = alg.vertex(cons.name_lower_copy(v))
    for e, s, _ in g.graph.edges:
        for i in range(1, g.w[e] + 1):
            images[slot_name(e, i)] = (alg.ghost(cons.name_h(s, i))
                                       * alg.edge(cons.name_tilde(e)))
    return GeneratorMap("phi", alg, images, {"companion": double})


def phi1(g: WeightedGraph) -> GeneratorMap:
    """Indexed edge generators of any weighted graph into the algebra of
    its direct companion: v -> v and e.i -> a{i}(e) a^e(i)*."""
    companion = cons.separated_of_weighted(g)
    alg = StarAlgebra(companion)
    images: dict[str, AlgElement] = {}
    for v in g.graph.vertices:
        images[v] = alg.vertex(v)
    for e, _, _ in g.graph.edges:
        for i in range(1, g.w[e] + 1):
            images[slot_name(e, i)] = (alg.edge(cons.name_slot_edge(i, e))
                                       * alg.ghost(cons.name_edge_slot(e, i)))
    return GeneratorMap("phi1", alg, images, {"companion": companion})


def phi0(g: BipartiteSeparatedGraph) -> GeneratorMap:
    """Vertex and edge generators of a bipartite separated graph into the
    algebra of its one-step resolution.

    Upper vertices go to the sum of their choice-tuple vertices, lower
    vertices stay put, and an edge x goes to the sum of the ghost letters
    a^x(...)* over the complementary tuples.  Those are the edges of the
    group x spawned in the resolution: at each lower vertex w, group j of
    the resolution is the one spawned by ``in_edges(w)[j]``.
    """
    g = as_bipartite(g)
    resolved = cons.one_step_resolution(g)
    alg = StarAlgebra(resolved)
    images: dict[str, AlgElement] = {}
    for w in g.lower:
        images[w] = alg.vertex(w)
        for x, grp in zip(g.graph.in_edges[w], resolved.sep[w]):
            images[x] = AlgElement(alg, {((a, GHOST),): 1 for a in grp})
    for u in g.upper:
        images[u] = AlgElement(alg, {
            ((cons.name_tuple_vertex(tup), VERTEX),): 1
            for tup in itertools.product(*g.sep[u])})
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


def _substitute(gmap: GeneratorMap, terms: dict, star: int,
                what: str) -> AlgElement:
    # Replace each letter by its image, starred when the letter's mark
    # equals ``star``, add the scaled products into one dict and normalize.
    target = gmap.target
    out: dict = {}
    for word, coeff in terms.items():
        if not word:
            raise AlgebraError(f"no image for the empty {what} word")
        acc: AlgElement | None = None
        for name, mark in word:
            try:
                img = gmap.images[name]
            except KeyError:
                raise AlgebraError(f"no image for {what} {name!r}")
            if mark == star:
                img = img.star()
            acc = img if acc is None else acc * img
        if not target.same_carrier(acc.alg):
            raise AlgebraError("operands live over different graphs")
        for w, c in acc.terms.items():
            _collect(out, w, coeff * c)
    return normal_form(AlgElement(target, out))


def evaluate(expr: GenExpr, gmap: GeneratorMap) -> AlgElement:
    """Substitute generator images and normalize."""
    return _substitute(gmap, expr.terms, True, "generator")


def verify(gmap: GeneratorMap, rels: RelationSet) -> VerifyReport:
    failures = []
    for label, expr in rels.relations:
        residue = evaluate(expr, gmap)
        if not residue.is_zero:
            failures.append((label, residue))
    return VerifyReport(all_zero=not failures, checked=len(rels.relations),
                        failures=tuple(failures))


def apply_map(gmap: GeneratorMap, elem: AlgElement) -> AlgElement:
    """Push an algebra element through a map whose images are keyed by the
    vertex and edge names of the element's own graph (e.g. phi0)."""
    return _substitute(gmap, elem.terms, GHOST, "letter")


def kernel_generator(g: BipartiteSeparatedGraph, e: str, f: str, g2: str,
                     h: str) -> AlgElement:
    """The lower-corner kernel word r(e,f)r(f,g)r(g,h) - r(e,g)r(g,f)r(f,h)
    for four edges with a common source, normalized."""
    g = as_bipartite(g)
    d = g.base.graph
    unknown = [x for x in (e, f, g2, h) if x not in d._ends]
    if unknown:
        raise GraphError("unknown edges: " + ", ".join(unknown))
    srcs = {d.src(x) for x in (e, f, g2, h)}
    if len(srcs) != 1:
        raise GraphError("kernel words need four edges with a common source")
    return _kernel_word(rho_tau(g), e, f, g2, h)


def _kernel_word(gmap: GeneratorMap, e: str, f: str, g2: str,
                 h: str) -> AlgElement:
    """``kernel_generator`` for four checked edges, read off ``rho_tau``."""
    def r(a: str, b: str) -> AlgElement:
        return gmap.images[r_name(a, b)]
    lhs = r(e, f) * r(f, g2) * r(g2, h)
    rhs = r(e, g2) * r(g2, f) * r(f, h)
    return normal_form(lhs - rhs)


# ---------------------------------------------------------------------------
# ideal generator families


def _format_word(word: tuple[tuple[str, bool], ...]) -> str:
    return " ".join(n + "*" if s else n for n, s in word)


def _semigroup_words(names: list[str], compose, bound: int):
    """Composable sequences over direct/starred letters, up to ``bound``."""
    layer: list[GenWord] = [((n, s),) for n in names for s in (False, True)]
    out: list[GenWord] = []
    for _ in range(bound):
        out += layer
        nxt = []
        for w in layer:
            if len(w) == bound:
                continue
            for n in names:
                for s in (False, True):
                    if compose(w[-1], (n, s)):
                        nxt.append(w + ((n, s),))
        layer = nxt
        if not layer:
            break
    return out


def ideal_generators(kind: str, g, bound: int | None = None,
                     subset=None) -> list[tuple[str, AlgElement]]:
    """Labeled generating families for the distinguished ideals.

    ``i0``: diagonal-support words of a vertex-weighted graph, as images
    under phi_vw.  ``kernel``: all nonzero kernel words of the one-step
    resolution map.  ``commutator``: commutators of range projections
    u u* over semigroup words up to ``bound`` letters (indexed generators
    count as one letter and map through phi1).  ``hsat``: the vertices of
    a hereditary group-saturated set.
    """
    if kind == "i0":
        g = as_weighted(g)
        if not is_vertex_weighted(g):
            raise GraphError("i0 images need a vertex-weighted graph")
        gmap = phi_vw(g)
        out = []
        d = g.graph
        for e, _, _ in d.edges:
            for i in range(1, g.w[e] + 1):
                for j in range(1, g.w[e] + 1):
                    if i != j:
                        el = normal_form(gmap.images[slot_name(e, i)]
                                         * gmap.images[slot_name(e, j)].star())
                        out.append((f"i0:offdiag:{e}.{i}.{j}", el))
        for v in d.vertices:
            for e in d.out_edges.get(v, ()):
                for f in d.out_edges.get(v, ()):
                    if e == f:
                        continue
                    for i in range(1, min(g.w[e], g.w[f]) + 1):
                        el = normal_form(gmap.images[slot_name(e, i)].star()
                                         * gmap.images[slot_name(f, i)])
                        out.append((f"i0:offedge:{e}.{f}.{i}", el))
        return out

    if kind == "kernel":
        g = as_bipartite(g)
        gmap = rho_tau(g)
        d = g.base.graph
        out = []
        for v in g.upper:
            fiber = d.out_edges.get(v, ())
            for e, f, g2, h in itertools.product(fiber, repeat=4):
                el = _kernel_word(gmap, e, f, g2, h)
                if not el.is_zero:
                    out.append((f"gamma:{e}.{f}.{g2}.{h}", el))
        return out

    if kind == "commutator":
        if bound is None or bound < 1:
            raise GraphError("commutator generators need a word bound >= 1")
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

        words = _semigroup_words(names, compose, bound)
        projections: dict = {}
        for w in words:
            acc = evaluate(GenExpr.word(*w), gmap)
            p = normal_form(acc * acc.star())
            if p.is_zero:
                continue
            key = frozenset(p.terms.items())
            projections.setdefault(key, (_format_word(w), p))
        out = []
        seen = set()
        items = list(projections.values())
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
