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
meet.  Another, ``StarAlgebra.star_of``, maps each letter to its star:
a direct letter e to the ghost e* and back, and a vertex letter to
itself.  ``AlgElement.star`` reverses each word through it, so a starred
word holds the letters the algebra made once, and makes no new ones.

One table, ``StarAlgebra.rules``, holds the rewrite rules.  It maps the
letter pair of a redex to the vertex word left when a splice is empty and
the (letters, sign) pairs spliced in the pair's place:

* e* e -> r(e), splicing in ((), +1), for every edge e;
* e e* -> s(e), splicing in ((), +1) and ((g, g*), -1) for each other
  member g of e's group, for the designated (greatest) edge e of a group.

The rule e* f = 0 for f ≠ e in e's group needs no entries: it is the
test ``group_of[e] is group_of[f]`` on the graph's table of group tuples,
one shared object per group.  ``normal_form`` splices at the leftmost
redex; a product applies only the (e*, e) entries, where two words meet.
It pairs each left word only with the right words that start where it
ends, and a left word ending in e* skips the bucket of e's group and
splices only with the right words that start with e, so a sum over a
group of g edges times its adjoint tries g pairs, not g².

``chosen`` lists the designated edges per vertex, for the CLI.
Irreducible words form a linear basis (Bergman's Diamond Lemma), so two
elements are equal exactly when their normal forms match termwise.
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
        # each vertex word and edge letter is made once and shared by the
        # tables and by ``vertex``, ``edge`` and ``ghost``: fewer live
        # objects, fewer garbage collections
        self._word = word = {v: ((v, VERTEX),) for v in d.vertices}
        self._direct = direct = {e: (e, DIRECT) for e in d.edge_names}
        self._ghost = ghost = {e: (e, GHOST) for e in d.edge_names}
        self.ends: dict[Letter, tuple[str, str]] = {
            w[0]: (v, v) for v, w in word.items()}
        self.ends.update((direct[e], (s, r)) for e, s, r in d.edges)
        self.ends.update((ghost[e], (r, s)) for e, s, r in d.edges)
        self.star_of: dict[Letter, Letter] = {
            w[0]: w[0] for w in word.values()}
        self.star_of.update((direct[e], ghost[e]) for e in d.edge_names)
        self.star_of.update((ghost[e], direct[e]) for e in d.edge_names)
        self.vertex_names = d.vertex_set
        self.group_of = sep.group_of
        self.chosen: dict[str, list[str]] = {
            v: [max(grp) for grp in groups] for v, groups in sep.separation}
        collapse = {v: (w, (((), 1),)) for v, w in word.items()}
        self.rules: dict[tuple[Letter, Letter], tuple[Word, tuple]] = {
            (ghost[e], direct[e]): collapse[r] for e, _, r in d.edges}
        for v, groups in sep.separation:
            for e, grp in zip(self.chosen[v], groups):
                self.rules[direct[e], ghost[e]] = word[v], (
                    ((), 1), *(((direct[g], ghost[g]), -1)
                               for g in grp if g != e))

    def same_carrier(self, other: "StarAlgebra") -> bool:
        return self is other or self.sep == other.sep

    # -- element constructors

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def vertex(self, name: str) -> "AlgElement":
        if name not in self._word:
            raise AlgebraError(f"unknown vertex {name!r}")
        return AlgElement(self, {self._word[name]: 1})

    def edge(self, name: str) -> "AlgElement":
        if name not in self._direct:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {(self._direct[name],): 1})

    def ghost(self, name: str) -> "AlgElement":
        if name not in self._ghost:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {(self._ghost[name],): 1})

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
    elements) drops a pair where a left word ending in e* meets a right
    word starting with f ≠ e in e's group, and applies the table's (e*, e)
    entry where it meets one starting with e; the e e* entries and every
    redex inside a word stay with ``normal_form``.
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
        ends, group_of, rules = alg.ends, alg.group_of, alg.rules
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
                # e* f with f in e's group is 0 for f ≠ e; e* e is left to
                # the seam below, which reads only the words that start with e
                if kind == GHOST and group_of[key] is group_of[name]:
                    continue
                for wb, cb in bucket:
                    _collect(out, head + wb, ca * cb)
            if kind == GHOST and name in by_first:  # h e* . e t, by (e*, e)
                u, splices = rules[last, (name, DIRECT)]
                for wb, cb in by_first[name]:
                    for mid, sign in splices:
                        _collect(out, wa[:-1] + mid + wb[1:] or u,
                                 sign * ca * cb)
        return AlgElement(alg, out)

    def star(self) -> "AlgElement":
        flip = self.alg.star_of.__getitem__
        return AlgElement(self.alg, {tuple(map(flip, reversed(w))): c
                                     for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgElement)
                and self.alg.same_carrier(other.alg)
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


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


def _first_redex(alg: StarAlgebra, word: Word) -> int | None:
    """Where the leftmost redex of ``word`` starts, or None: e* f with e, f
    in one group, or a key of ``alg.rules``.  Every redex joins letters of
    two kinds and every key a letter to its star, so those cheap tests come
    before the key is looked up."""
    group_of, rules = alg.group_of, alg.rules
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a[1] == GHOST:
            if b[1] == DIRECT and group_of[a[0]] is group_of[b[0]]:
                return i
        elif b[1] == GHOST and a[0] == b[0] and (a, b) in rules:
            return i
    return None


def normal_form(elem: AlgElement) -> AlgElement:
    """Rewrite every term to the irreducible basis, always at its leftmost
    redex: the redex's entry in ``alg.rules`` splices in its place, and an
    e* f with no entry kills the term.  The rules are confluent and each
    step shrinks a well-founded term measure, so every choice of redex
    gives this answer; the tests check it against a rewriter with its own
    rules and random redexes."""
    alg = elem.alg
    rules = alg.rules
    pending = dict(elem.terms)
    done: dict[Word, Coeff] = {}
    while pending:
        word, coeff = pending.popitem()
        i = _first_redex(alg, word)
        if i is None:
            _collect(done, word, coeff)
            continue
        u, splices = rules.get((word[i], word[i + 1]), (None, ()))
        head, tail = word[:i], word[i + 2:]
        for mid, sign in splices:
            _collect(pending, head + mid + tail or u, sign * coeff)
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
