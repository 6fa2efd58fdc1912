"""Star algebra of a separated graph with a confluent normal form.

Elements are linear combinations of words over direct and ghost edge
letters, plus one trivial word per vertex.  Coefficients are integers:
every relation and rewrite rule has coefficients ±1, so the core works
over Z.  A rational that a caller supplies (through ``element``, ``scale``
or a parsed expression) stays an exact ``Fraction`` and mixes with the
integers through plain arithmetic.  Coefficients are coerced once, at
those public constructors; sums, products and rewrites combine
coefficients that are already coerced.  Words store composability
internally, so raw products of incomposable words vanish without any
rewriting.  ``normal_form`` rewrites against two local patterns:

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

from .constructions import to_separated
from .graphs import BipartiteSeparatedGraph, as_bipartite, require_valid

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
        sep = to_separated(graph)
        require_valid(sep)
        self.graph = graph
        self.sep = sep
        d = sep.graph
        self._src = {e: s for e, s, _ in d.edges}
        self._rng = {e: r for e, _, r in d.edges}
        self.vertex_names = d.vertex_set
        self.group_key = sep.group_key
        self.members: dict[tuple[str, int], tuple[str, ...]] = {}
        self.chosen: dict[tuple[str, int], str] = {}
        for v, groups in sep.separation:
            for i, grp in enumerate(groups):
                self.members[(v, i)] = grp
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
        if name not in self._src:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {((name, DIRECT),): 1})

    def ghost(self, name: str) -> "AlgElement":
        if name not in self._src:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {((name, GHOST),): 1})

    def element(self, terms: dict[Word, Coeff]) -> "AlgElement":
        return AlgElement(self, {w: as_coeff(c) for w, c in terms.items()
                                 if c != 0})

    # -- word geometry

    def letter_source(self, letter: Letter) -> str:
        name, kind = letter
        if kind == VERTEX:
            return name
        return self._src[name] if kind == DIRECT else self._rng[name]

    def letter_range(self, letter: Letter) -> str:
        name, kind = letter
        if kind == VERTEX:
            return name
        return self._rng[name] if kind == DIRECT else self._src[name]

    def word_source(self, word: Word) -> str:
        return self.letter_source(word[0])

    def word_range(self, word: Word) -> str:
        return self.letter_range(word[-1])


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
            c2 = terms.get(w, 0) + c
            if c2:
                terms[w] = c2
            else:
                terms.pop(w, None)
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
        alg = self.alg
        out: dict[Word, Coeff] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = _word_mul(alg, wa, wb)
                if w is None:
                    continue
                c = out.get(w, 0) + ca * cb
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return AlgElement(alg, out)

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


def _word_mul(alg: StarAlgebra, a: Word, b: Word) -> Word | None:
    if a[0][1] == VERTEX:
        return b if a[0][0] == alg.word_source(b) else None
    if b[0][1] == VERTEX:
        return a if alg.word_range(a) == b[0][0] else None
    if alg.word_range(a) != alg.word_source(b):
        return None
    return a + b


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


def _splice(alg: StarAlgebra, word: Word, i: int, vertex: str) -> Word:
    rest = word[:i] + word[i + 2:]
    return rest if rest else ((vertex, VERTEX),)


def _rewrite(alg: StarAlgebra, word: Word, i: int) -> list[tuple[Word, int]]:
    n1, k1 = word[i]
    n2, _ = word[i + 1]
    if k1 == GHOST:
        if n1 != n2:
            return []
        return [(_splice(alg, word, i, alg._rng[n1]), 1)]
    out = [(_splice(alg, word, i, alg._src[n1]), 1)]
    for g in alg.members[alg.group_key[n1]]:
        if g != n1:
            out.append((word[:i] + ((g, DIRECT), (g, GHOST)) + word[i + 2:],
                        -1))
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
            c = done.get(word, 0) + coeff
            if c:
                done[word] = c
            else:
                done.pop(word, None)
            continue
        for new_word, sign in _rewrite(alg, word, i):
            c = pending.get(new_word, 0) + sign * coeff
            if c:
                pending[new_word] = c
            else:
                pending.pop(new_word, None)
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
    letters = [(e, DIRECT) for e in alg._src] + [(e, GHOST) for e in alg._src]
    vertices = (start,) if start else tuple(alg.sep.graph.vertices)
    out: list[Word] = [((v, VERTEX),) for v in vertices]
    layer: list[Word] = []
    for v in vertices:
        for l in letters:
            if alg.letter_source(l) == v:
                layer.append((l,))
    for _ in range(max_len):
        out += layer
        nxt = []
        for w in layer:
            if len(w) == max_len:
                continue
            for l in letters:
                if alg.letter_source(l) != alg.word_range(w):
                    continue
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
    g = elem.alg.graph
    bip = g if isinstance(g, BipartiteSeparatedGraph) else as_bipartite(g)
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
