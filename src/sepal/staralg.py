"""Star algebra of a separated graph with a confluent normal form.

Elements are linear combinations of words over direct and ghost edge
letters, plus one trivial word per vertex.  Coefficients are integers:
every relation and rewrite rule has coefficients ±1, so the core works
over Z.  A rational that a caller supplies (through ``element``, ``scale``
or a parsed expression) stays an exact ``Fraction`` and mixes with the
integers through plain arithmetic.  Coefficients are coerced once, at
those public constructors; sums, products and rewrites combine
coefficients that are already coerced.

Every question about where a word starts and ends reads one table,
``StarAlgebra.ends``, which maps each letter to its (source, range): a
vertex letter to (v, v), a direct letter e to (s(e), r(e)) and a ghost
letter e* to (r(e), s(e)).  ``element`` accepts only words whose letters
meet, and a product groups its right operand by source vertex once and
pairs each left word only with the group at that word's range, so words
that do not compose are never paired.  ``normal_form`` rewrites against
two local patterns:

* a ghost letter followed by a direct letter of the same group collapses
  to the range vertex (equal edges) or kills the term (distinct edges);
* the pair e e* for the designated edge e of a group expands to the source
  vertex minus the matching pairs g g* over the other group members.

The designated edge of each group is the lexicographically greatest name,
recorded per algebra and reported by the CLI.  Irreducible words form a
linear basis, so two elements are equal in the algebra exactly when their
normal forms match termwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graphs import as_bipartite, as_separated

DIRECT = 0
GHOST = 1
VERTEX = 2

Letter = tuple[str, int]
Word = tuple[Letter, ...]
Coeff = int | Fraction


class AlgebraError(ValueError):
    """Ill-typed algebra operation (unknown name, mixed graphs, ...)."""


class StarAlgebra:
    """Carrier for elements over one separated graph.

    Accepts a separated or bipartite separated graph; the bipartite level
    data only matters for corner projections.
    """

    def __init__(self, graph):
        sep = as_separated(graph)
        self.graph = graph
        self.sep = sep
        d = sep.graph
        self.ends: dict[Letter, tuple[str, str]] = {
            (v, VERTEX): (v, v) for v in d.vertices}
        self.ends.update(((e, DIRECT), (s, r)) for e, s, r in d.edges)
        self.ends.update(((e, GHOST), (r, s)) for e, s, r in d.edges)
        self.vertex_names = d.vertex_set
        self.group_key = sep.group_key
        self.group_of = sep.group_of
        self.chosen: dict[tuple[str, int], str] = {}
        for v, groups in sep.separation:
            for i, grp in enumerate(groups):
                self.chosen[(v, i)] = max(grp)

    def same_carrier(self, other: "StarAlgebra") -> bool:
        return self is other or self.sep == other.sep

    # -- element constructors

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def vertex(self, name: str) -> "AlgElement":
        if name not in self.vertex_names:
            raise AlgebraError(f"unknown vertex {name!r}")
        return AlgElement(self, {((name, VERTEX),): 1})

    def edge(self, name: str) -> "AlgElement":
        if (name, DIRECT) not in self.ends:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {((name, DIRECT),): 1})

    def ghost(self, name: str) -> "AlgElement":
        if (name, GHOST) not in self.ends:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {((name, GHOST),): 1})

    def element(self, terms: dict[Word, Coeff]) -> "AlgElement":
        """An element from words of this graph: each word is non-empty,
        every letter is known, a vertex letter stands alone, and
        consecutive letters meet."""
        ends = self.ends
        for w in terms:
            if not w:
                raise AlgebraError("the empty word is not an element")
            if not all(l in ends for l in w):
                raise AlgebraError(f"unknown letter in word {w!r}")
            if len(w) > 1 and any(k == VERTEX for _, k in w):
                raise AlgebraError(f"vertex letter inside word {w!r}")
            if any(ends[a][1] != ends[b][0] for a, b in zip(w, w[1:])):
                raise AlgebraError(f"letters of {w!r} do not meet")
        return AlgElement(self, {w: as_coeff(c) for w, c in terms.items()
                                 if c != 0})

    # -- word geometry

    def word_source(self, word: Word) -> str:
        return self.ends[word[0]][0]

    def word_range(self, word: Word) -> str:
        return self.ends[word[-1]][1]


def _collect(terms: dict, word, coeff) -> None:
    """Add ``coeff`` to the term ``word`` of ``terms``, dropping a zero."""
    c = terms.get(word, 0) + coeff
    if c:
        terms[word] = c
    else:
        terms.pop(word, None)


def as_coeff(c) -> Coeff:
    """A coefficient from outside the core: ints pass through unchanged,
    anything else becomes an exact ``Fraction``."""
    return c if type(c) is int else Fraction(c)


def _measure(alg: StarAlgebra, word: Word):
    # strictly decreasing along every rewrite: designated letters rank
    # above their group mates at equal length
    key = []
    for name, kind in word:
        if kind == VERTEX:
            key.append((kind, 0, name))
        else:
            gk = alg.group_key[name]
            key.append((kind, 1 if alg.chosen[gk] == name else 0, name))
    return (len(word), tuple(key))


class AlgElement:
    """Immutable-by-convention linear combination of words.

    The arithmetic operators are raw: they multiply and collect words but
    never rewrite.  Use the module-level ``mul``/``add``/``star``/``equals``
    for normalized results.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: StarAlgebra, terms: dict[Word, Coeff]):
        self.alg = alg
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _need_same(self, other: "AlgElement") -> None:
        if not self.alg.same_carrier(other.alg):
            raise AlgebraError("operands live over different graphs")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._need_same(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _collect(terms, w, c)
        return AlgElement(self.alg, terms)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + (-other)

    def scale(self, c) -> "AlgElement":
        c = as_coeff(c)
        if c == 0:
            return AlgElement(self.alg, {})
        return AlgElement(self.alg, {w: c * k for w, k in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgElement):
            return self.scale(other)
        self._need_same(other)
        ends = self.alg.ends
        by_source: dict[str, list[tuple[Word, Coeff]]] = {}
        for wb, cb in other.terms.items():
            by_source.setdefault(ends[wb[0]][0], []).append((wb, cb))
        out: dict[Word, Coeff] = {}
        for wa, ca in self.terms.items():
            group = by_source.get(ends[wa[-1]][1], ())
            if wa[0][1] == VERTEX:  # v b = b for every b that starts at v
                for wb, cb in group:
                    _collect(out, wb, ca * cb)
                continue
            for wb, cb in group:  # a u = a for the vertex u where a ends
                _collect(out, wa if wb[0][1] == VERTEX else wa + wb, ca * cb)
        return AlgElement(self.alg, out)

    def __rmul__(self, other) -> "AlgElement":
        return self.scale(other)

    def star(self) -> "AlgElement":
        out = {}
        for w, c in self.terms.items():
            out[_word_star(w)] = c
        return AlgElement(self.alg, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgElement)
                and self.alg.same_carrier(other.alg)
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "<0>"
        bits = []
        for w in sorted(self.terms, key=lambda w: _measure(self.alg, w)):
            c = self.terms[w]
            txt = " ".join(n if k == DIRECT else n + "*" if k == GHOST else n
                           for n, k in w)
            bits.append(f"{c}·{txt}" if c != 1 else txt)
        return "<" + " + ".join(bits) + ">"


def _word_star(w: Word) -> Word:
    if w[0][1] == VERTEX:
        return w
    return tuple((n, DIRECT if k == GHOST else GHOST) for n, k in reversed(w))


def _redexes(alg: StarAlgebra, word: Word) -> Iterator[int]:
    for i in range(len(word) - 1):
        n1, k1 = word[i]
        n2, k2 = word[i + 1]
        if k1 == GHOST and k2 == DIRECT and \
                alg.group_key[n1] == alg.group_key[n2]:
            yield i
        elif k1 == DIRECT and k2 == GHOST and n1 == n2 and \
                alg.chosen[alg.group_key[n1]] == n1:
            yield i


def _splice(word: Word, i: int, vertex: str) -> Word:
    rest = word[:i] + word[i + 2:]
    return rest if rest else ((vertex, VERTEX),)


def _rewrite(alg: StarAlgebra, word: Word, i: int) -> list[tuple[Word, int]]:
    n1, k1 = word[i]
    n2, _ = word[i + 1]
    if k1 == GHOST and n1 != n2:
        return []
    # e* e collapses to r(e) and e e* expands around s(e): either way the
    # vertex is the source of the redex's first letter
    out = [(_splice(word, i, alg.ends[word[i]][0]), 1)]
    if k1 == DIRECT:
        for g in alg.group_of[n1]:
            if g != n1:
                out.append((word[:i] + ((g, DIRECT), (g, GHOST))
                            + word[i + 2:], -1))
    return out


def normal_form(elem: AlgElement) -> AlgElement:
    """Rewrite every term to the irreducible basis, always at its leftmost
    redex.  The rules are confluent and each step shrinks a well-founded
    term measure, so every choice of redex gives this answer; the tests
    check it against a rewriter that picks redexes at random."""
    alg = elem.alg
    pending = dict(elem.terms)
    done: dict[Word, Coeff] = {}
    while pending:
        word, coeff = pending.popitem()
        i = next(_redexes(alg, word), None)
        if i is None:
            _collect(done, word, coeff)
            continue
        for new_word, sign in _rewrite(alg, word, i):
            _collect(pending, new_word, sign * coeff)
    return AlgElement(alg, done)


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    return normal_form(a * b)


def add(a: AlgElement, b: AlgElement) -> AlgElement:
    return normal_form(a + b)


def star(a: AlgElement) -> AlgElement:
    return normal_form(a.star())


def equals(a: AlgElement, b: AlgElement) -> bool:
    return normal_form(a - b).is_zero


def is_normal(elem: AlgElement) -> bool:
    return all(next(_redexes(elem.alg, w), None) is None for w in elem.terms)


def basis_words(alg: StarAlgebra, max_len: int,
                start: str | None = None) -> list[Word]:
    """All irreducible words with at most ``max_len`` edge letters,
    optionally restricted to a given source vertex, in breadth-first order."""
    if start is not None and start not in alg.vertex_names:
        raise AlgebraError(f"unknown vertex {start!r}")
    # edge letters by source vertex: direct letters, then ghosts, each in
    # edge order
    leaving: dict[str, list[Letter]] = {}
    for l, (s, _) in alg.ends.items():
        if l[1] != VERTEX:
            leaving.setdefault(s, []).append(l)
    vertices = (start,) if start is not None else tuple(alg.sep.graph.vertices)
    out: list[Word] = [((v, VERTEX),) for v in vertices]
    layer: list[Word] = [(l,) for v in vertices for l in leaving.get(v, ())]
    for _ in range(max_len):
        out += layer
        nxt = []
        for w in layer:
            if len(w) == max_len:
                continue
            for l in leaving.get(alg.ends[w[-1]][1], ()):
                two = (w[-1], l)
                if next(_redexes(alg, two), None) is not None:
                    continue
                nxt.append(w + (l,))
        layer = nxt
        if not layer:
            break
    return out


def corner(elem: AlgElement, side: str) -> AlgElement:
    """Restrict to the terms whose words start and end on one level of a
    bipartite separated graph: side ``V`` is upper, ``W`` lower."""
    bip = as_bipartite(elem.alg.graph)
    if side == "V":
        level = bip.upper_set
    elif side == "W":
        level = bip.lower_set
    else:
        raise AlgebraError(f"side must be V or W, not {side!r}")
    alg = elem.alg
    return AlgElement(alg, {
        w: c for w, c in elem.terms.items()
        if alg.word_source(w) in level and alg.word_range(w) in level})
