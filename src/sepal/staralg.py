"""Star algebra of a separated graph with a confluent normal form.

Elements are linear combinations of words over direct and ghost edge
letters, plus one trivial word per vertex.  Coefficients are integers:
every relation and rewrite rule has coefficients ±1, so the core works
over Z.  A rational that a caller supplies (through ``element``, ``scale``,
a parsed expression or ``homs.evaluate``) stays an exact ``Fraction`` and
mixes with the integers through plain arithmetic.  Coefficients are
coerced once, at those entry points; sums, products and rewrites combine
coefficients that are already coerced.

Every question about where a word starts and ends reads one table,
``StarAlgebra.ends``, which maps each letter to its (source, range): a
vertex letter to (v, v), a direct letter e to (s(e), r(e)) and a ghost
letter e* to (r(e), s(e)).  ``element`` accepts only words whose letters
meet.  ``normal_form`` rewrites against two local patterns:

* a ghost letter followed by a direct letter of the same group collapses
  to the range vertex (equal edges) or kills the term (distinct edges):
  e* f = δ_ef r(e);
* the pair e e* for the designated edge e of a group expands to the source
  vertex minus the matching pairs g g* over the other group members.

A product applies the first rule where two words meet, and nothing else.
It groups its right operand by source vertex, then by the group of a
direct first letter, and pairs each left word only with the words that
start where it ends.  A left word ending in e* skips the bucket of e's
group and splices only with the right words that start with e, so a sum
over a group of g edges times its adjoint tries g pairs, not g².

Two tables hold the groups.  ``group_of``, the graph's own, maps each edge
to its group tuple, one shared object per group, so two letters share a
group exactly when those tuples are the same object; ``designated`` is the
set of each group's lexicographically greatest edge.  ``chosen`` lists the
designated edges per vertex, in group order, for the CLI.  Irreducible
words form a linear basis (Bergman's Diamond Lemma), so two elements are
equal exactly when their normal forms match termwise.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import as_separated

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

    Accepts a separated or bipartite separated graph.  The graph given is
    kept as ``graph``; the algebra reads only its separated base, ``sep``.
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
        self.group_of = sep.group_of
        self.chosen: dict[str, list[str]] = {
            v: [max(grp) for grp in groups] for v, groups in sep.separation}
        self.designated = frozenset(
            e for names in self.chosen.values() for e in names)

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


class AlgElement:
    """Immutable-by-convention linear combination of words.

    The arithmetic operators are raw but for one rule: ``+`` and ``-``
    collect words and never rewrite, and ``*`` (the product of two
    elements) applies e* f = δ_ef r(e) where a left word ending in e* meets
    a right word starting with f in e's group, and nothing else; the e e*
    expansion and every redex inside a word stay with ``normal_form``.
    ``scale`` multiplies by a scalar.  Use ``normal_form`` for normalized
    results.
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

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        self._need_same(other)
        alg = self.alg
        ends, group_of = alg.ends, alg.group_of
        # right words by source vertex: those that start with a ghost or a
        # vertex in one list, those that start with a direct letter in one
        # bucket per group (named by its first edge) and again by that letter
        loose: dict[str, list[tuple[Word, Coeff]]] = {}
        grouped: dict[str, dict[str, list[tuple[Word, Coeff]]]] = {}
        by_first: dict[str, list[tuple[Word, Coeff]]] = {}
        for wb, cb in other.terms.items():
            name, kind = first = wb[0]
            if kind == DIRECT:
                grouped.setdefault(ends[first][0], {}).setdefault(
                    group_of[name][0], []).append((wb, cb))
                by_first.setdefault(name, []).append((wb, cb))
            else:
                loose.setdefault(ends[first][0], []).append((wb, cb))
        out: dict[Word, Coeff] = {}
        for wa, ca in self.terms.items():
            name, kind = last = wa[-1]
            v = ends[last][1]
            buckets = grouped.get(v)
            head = () if kind == VERTEX else wa  # v b = b
            for wb, cb in loose.get(v, ()):  # a u = a for the vertex u = v
                _collect(out, wa if head and wb[0][1] == VERTEX
                         else head + wb, ca * cb)
            for key, bucket in buckets.items() if buckets else ():
                # e* f with f in e's group is left to the seam rule below,
                # which reads only the words that start with e
                if kind == GHOST and _ghost_direct(alg, name, key) is not None:
                    continue
                for wb, cb in bucket:
                    _collect(out, head + wb, ca * cb)
            if kind == GHOST:  # h e* . e t = h t, or r(e) when both are empty
                for wb, cb in by_first.get(name, ()):
                    for u in _ghost_direct(alg, name, name):
                        _collect(out, wa[:-1] + wb[1:] or u, ca * cb)
        return AlgElement(alg, out)

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
        return f"<{format_element(self)}>"


def _word_star(w: Word) -> Word:
    if w[0][1] == VERTEX:
        return w
    return tuple((n, DIRECT if k == GHOST else GHOST) for n, k in reversed(w))


def format_element(elem: AlgElement) -> str:
    """Canonical rendering: terms sorted by word length then letters, ghost
    letters with a postfix star, coefficients as integers or fractions."""
    if elem.is_zero:
        return "0"
    parts: list[str] = []
    for word in sorted(elem.terms, key=lambda w: (len(w), w)):
        coeff = elem.terms[word]
        body = " ".join(n + "*" if k == GHOST else n for n, k in word)
        mag = abs(coeff)
        txt = body if mag == 1 else f"{mag} {body}"
        if not parts:
            parts.append(txt if coeff > 0 else "-" + txt)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + txt)
    return " ".join(parts)


def _ghost_direct(alg: StarAlgebra, e: str, f: str) -> tuple[Word, ...] | None:
    """The rule e* f = δ_ef r(e) for edges e and f of one group: the words
    e* f becomes, the vertex word r(e) when f = e and none otherwise.  None
    when e and f lie in different groups, where no rule applies."""
    if alg.group_of[e] is not alg.group_of[f]:
        return None
    return (((alg.ends[(e, GHOST)][0], VERTEX),),) if e == f else ()


def _first_redex(alg: StarAlgebra, word: Word) -> int | None:
    """Where the leftmost redex of ``word`` starts, or None: e* f with e, f
    in one group, or e e* with e designated."""
    designated = alg.designated
    for i in range(len(word) - 1):
        n1, k1 = word[i]
        n2, k2 = word[i + 1]
        if k1 == GHOST:
            if k2 == DIRECT and _ghost_direct(alg, n1, n2) is not None:
                return i
        elif k1 == DIRECT and k2 == GHOST and n1 == n2 and n1 in designated:
            return i
    return None


def _rewrite(alg: StarAlgebra, word: Word, i: int) -> list[tuple[Word, int]]:
    (n1, k1), (n2, _) = word[i], word[i + 1]
    rest = word[:i] + word[i + 2:]
    if k1 == GHOST:
        return [(rest or v, 1) for v in _ghost_direct(alg, n1, n2)]
    # e e* expands around s(e)
    out = [(rest or ((alg.ends[word[i]][0], VERTEX),), 1)]
    for g in alg.group_of[n1]:
        if g != n1:
            out.append((word[:i] + ((g, DIRECT), (g, GHOST))
                        + word[i + 2:], -1))
    return out


def normal_form(elem: AlgElement) -> AlgElement:
    """Rewrite every term to the irreducible basis, always at its leftmost
    redex.  The rules are confluent and each step shrinks a well-founded
    term measure, so every choice of redex gives this answer; the tests
    check it against a rewriter with its own rules and random redexes."""
    alg = elem.alg
    pending = dict(elem.terms)
    done: dict[Word, Coeff] = {}
    while pending:
        word, coeff = pending.popitem()
        i = _first_redex(alg, word)
        if i is None:
            _collect(done, word, coeff)
            continue
        for new_word, sign in _rewrite(alg, word, i):
            _collect(pending, new_word, sign * coeff)
    return AlgElement(alg, done)


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
                if _first_redex(alg, (w[-1], l)) is None:
                    nxt.append(w + (l,))
        layer = nxt
        if not layer:
            break
    return out
