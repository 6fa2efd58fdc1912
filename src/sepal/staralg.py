"""Star algebra of a separated graph with a confluent normal form.

Elements are linear combinations of words over direct and ghost edge
letters, plus one trivial word per vertex.  Coefficients are integers:
every relation and rewrite rule has coefficients ±1, so the core works
over Z.  A rational that a caller supplies (through ``element``, ``scale``,
a parsed expression or ``homs.evaluate``) stays an exact ``Fraction`` and
mixes with the integers through plain arithmetic.  Coefficients are
coerced once, at those entry points; sums, products and rewrites combine
coefficients that are already coerced.

Letters are ints.  ``StarAlgebra`` numbers each letter once, in the
graph's order: vertices 0..V-1, direct edges V..V+E-1 and their ghosts
V+E..V+2E-1.  A word is a tuple of letter ids, the key of
``AlgElement.terms``, and the core reads flat lists indexed by letter:

* ``src`` and ``rng``, where a letter starts and ends: v at (v, v), e at
  (s(e), r(e)) and e* at (r(e), s(e));
* ``star_of``, e to e* and back, a vertex to itself; ``AlgElement.star``
  reverses each word through it;
* ``group``, the id of e's group, shared by e and e*, and -1 at a vertex;
  groups are numbered in separation order;
* ``rules``, at letter l the rewrite of the redex l star_of[l], or None:
  the vertex word left when a splice is empty and the (letters, sign)
  pairs spliced in the pair's place.  Every ghost has one, and so does the
  edge ``designated`` in each group, its greatest:

  * e* e -> r(e), splicing in ((), +1), for every edge e;
  * e e* -> s(e), splicing in ((), +1) and ((g, g*), -1) for each other
    member g of e's group.

The rule e* f = 0 for f ≠ e in e's group needs no entry: it is the test
``group[e*] == group[f]``.  ``normal_form`` splices at the leftmost redex;
a product applies only the e* e rules, where two words meet.  It pairs
each left word only with the right words that start where it ends, and a
left word ending in e* skips the bucket of e's group and splices only with
the right words that start with e, so a sum over a group of g edges times
its adjoint tries g pairs, not g².

Names appear only at the boundary: ``element`` reads words of (name, kind)
letters (kinds ``DIRECT``, ``GHOST``, ``VERTEX``), ``vertex``, ``edge`` and
``ghost`` take names, ``StarAlgebra.named`` spells an element's words back
in letters, and ``format_element`` and ``basis_words`` print and return
those.  ``homs.phi0`` reads letter ids off the layout of a one-step
resolution.  Irreducible words form a linear basis (Bergman's Diamond
Lemma), so two elements are equal exactly when their normal forms match
termwise.
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

# the splices of e* e -> r(e): the pair alone, dropped
_DROP_PAIR = (((), 1),)


class AlgebraError(ValueError):
    """Ill-typed algebra operation (unknown name, mixed graphs, ...)."""


def designated(group: tuple[str, ...]) -> str:
    """The edge of a separation group that keeps the rule e e* -> s(e) -
    sum of the others: its greatest."""
    return max(group)


class StarAlgebra:
    """Carrier for elements over one separated graph.

    Accepts a separated or bipartite separated graph.  The graph given is
    kept as ``graph``; the algebra reads only its separated base, ``sep``.
    ``nv`` is the number of vertices and ``ghosts`` the first ghost id.
    """

    def __init__(self, graph):
        sep = as_separated(graph)
        self.graph = graph
        self.sep = sep
        d = sep.graph
        self._vertices, self._edges = d.vertices, d.edge_names
        nv, ne = len(d.vertices), len(d.edges)
        self.nv, self.ghosts = nv, nv + ne
        self._vertex_id = vid = {v: i for i, v in enumerate(d.vertices)}
        self._edge_id = eid = {e: nv + j for j, e in enumerate(self._edges)}
        self.vertex_names = d.vertex_set
        sources = [vid[s] for _, s, _ in d.edges]
        ranges = [vid[r] for _, _, r in d.edges]
        verts = range(nv)
        self.src = [*verts, *sources, *ranges]
        self.rng = [*verts, *ranges, *sources]
        self.star_of = [*verts, *range(nv + ne, nv + 2 * ne),
                        *range(nv, nv + ne)]
        # each vertex word is made once and shared by the rules
        unit = [(v,) for v in verts]
        self.rules: list = [None] * self.ghosts
        self.rules += [(unit[r], _DROP_PAIR) for r in ranges]
        self.group = [-1] * (nv + 2 * ne)
        groups = [(v, grp) for v, gs in sep.separation for grp in gs]
        for k, (v, grp) in enumerate(groups):
            members = [eid[e] for e in grp]
            for a in members:
                self.group[a] = self.group[a + ne] = k
            e = eid[designated(grp)]
            self.rules[e] = unit[vid[v]], (((), 1), *(
                ((a, a + ne), -1) for a in members if a != e))

    def same_carrier(self, other: "StarAlgebra") -> bool:
        return self is other or self.sep == other.sep

    def _letter(self, l: int) -> Letter:
        if l < self.nv:
            return self._vertices[l], VERTEX
        if l < self.ghosts:
            return self._edges[l - self.nv], DIRECT
        return self._edges[l - self.ghosts], GHOST

    def named(self, elem: "AlgElement") -> dict[Word, Coeff]:
        """The terms of ``elem``, each word spelled in (name, kind)
        letters."""
        letter = self._letter
        return {tuple(map(letter, w)): c for w, c in elem.terms.items()}

    # -- element constructors

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def vertex(self, name: str) -> "AlgElement":
        if name not in self._vertex_id:
            raise AlgebraError(f"unknown vertex {name!r}")
        return AlgElement(self, {(self._vertex_id[name],): 1})

    def edge(self, name: str) -> "AlgElement":
        if name not in self._edge_id:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {(self._edge_id[name],): 1})

    def ghost(self, name: str) -> "AlgElement":
        if name not in self._edge_id:
            raise AlgebraError(f"unknown edge {name!r}")
        return AlgElement(self, {(self.star_of[self._edge_id[name]],): 1})

    def element(self, terms: dict[Word, Coeff]) -> "AlgElement":
        """An element from (name, kind) words of this graph: each word is
        non-empty, every letter is known, a vertex letter stands alone, and
        consecutive letters meet."""
        src, rng, vid, eid = self.src, self.rng, self._vertex_id, self._edge_id
        shift = {DIRECT: 0, GHOST: self.ghosts - self.nv}
        out = {}
        for w, c in terms.items():
            if not w:
                raise AlgebraError("the empty word is not an element")
            try:
                word = tuple(vid[n] if k == VERTEX else eid[n] + shift[k]
                             for n, k in w)
            except (KeyError, TypeError, ValueError):
                raise AlgebraError(f"unknown letter in word {w!r}") from None
            if len(word) > 1 and min(word) < self.nv:
                raise AlgebraError(f"vertex letter inside word {w!r}")
            if any(rng[a] != src[b] for a, b in zip(word, word[1:])):
                raise AlgebraError(f"letters of {w!r} do not meet")
            if c != 0:
                out[word] = as_coeff(c)
        return AlgElement(self, out)


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
    word starting with f ≠ e in e's group, and applies the rule of e* e
    where it meets one starting with e; the e e* rules and every redex
    inside a word stay with ``normal_form``.
    ``scale`` multiplies by a scalar.  Use ``normal_form`` for normalized
    results.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: StarAlgebra, terms: dict[tuple[int, ...], Coeff]):
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
        src, rng, group, rules = alg.src, alg.rng, alg.group, alg.rules
        star_of, nv, ghosts = alg.star_of, alg.nv, alg.ghosts
        # right words by source vertex: those that start with a ghost or a
        # vertex in one list, those that start with a direct letter in one
        # bucket per group and again by that letter
        loose: dict[int, list] = {}
        grouped: dict[int, dict[int, list]] = {}
        by_first: dict[int, list] = {}
        for wb, cb in other.terms.items():
            first = wb[0]
            if nv <= first < ghosts:
                grouped.setdefault(src[first], {}).setdefault(
                    group[first], []).append((wb, cb))
                by_first.setdefault(first, []).append((wb, cb))
            else:
                loose.setdefault(src[first], []).append((wb, cb))
        out: dict = {}
        for wa, ca in self.terms.items():
            last = wa[-1]
            v = rng[last]
            head = wa if last >= nv else ()  # v b = b
            for wb, cb in loose.get(v, ()):  # a u = a for the vertex u = v
                _collect(out, wa if head and wb[0] < nv else head + wb,
                         ca * cb)
            buckets = grouped.get(v)
            if buckets:
                # e* f with f in e's group is 0 for f ≠ e; e* e is left to
                # the seam below, which reads only the words that start with e
                mates = group[last] if last >= ghosts else -1
                for key, bucket in buckets.items():
                    if key != mates:
                        for wb, cb in bucket:
                            _collect(out, head + wb, ca * cb)
            if last >= ghosts and star_of[last] in by_first:
                u, splices = rules[last]  # h e* . e t, by e* e -> r(e)
                for wb, cb in by_first[star_of[last]]:
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
    """Canonical rendering: terms sorted by word length then (name, kind)
    letters, ghost letters with a postfix star, coefficients as integers or
    fractions."""
    if elem.is_zero:
        return "0"
    parts: list[str] = []
    terms = elem.alg.named(elem)
    for word in sorted(terms, key=lambda w: (len(w), w)):
        coeff = terms[word]
        body = " ".join(n + "*" if k == GHOST else n for n, k in word)
        mag = abs(coeff)
        txt = body if mag == 1 else f"{mag} {body}"
        if not parts:
            parts.append(txt if coeff > 0 else "-" + txt)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + txt)
    return " ".join(parts)


def _first_redex(alg: StarAlgebra, word: tuple[int, ...]) -> int | None:
    """Where the leftmost redex of ``word`` starts, or None: e* f with e, f
    in one group, or e e* with a rule at e."""
    group, star_of, rules, ghosts = alg.group, alg.star_of, alg.rules, \
        alg.ghosts
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a >= ghosts:
            if b < ghosts and group[a] == group[b]:
                return i
        elif b == star_of[a] and rules[a] is not None:
            return i
    return None


def normal_form(elem: AlgElement) -> AlgElement:
    """Rewrite every term to the irreducible basis, always at its leftmost
    redex: the redex's rule in ``alg.rules`` splices in its place, and an
    e* f with no rule kills the term.  The rules are confluent and each
    step shrinks a well-founded term measure, so every choice of redex
    gives this answer; the tests check it against a rewriter with its own
    rules and random redexes."""
    alg = elem.alg
    rules, star_of = alg.rules, alg.star_of
    pending = dict(elem.terms)
    done: dict = {}
    while pending:
        word, coeff = pending.popitem()
        i = _first_redex(alg, word)
        if i is None:
            _collect(done, word, coeff)
            continue
        a = word[i]
        if word[i + 1] != star_of[a]:  # e* f for f ≠ e in e's group
            continue
        u, splices = rules[a]
        head, tail = word[:i], word[i + 2:]
        for mid, sign in splices:
            _collect(pending, head + mid + tail or u, sign * coeff)
    return AlgElement(alg, done)


def basis_words(alg: StarAlgebra, max_len: int,
                start: str | None = None) -> list[Word]:
    """All irreducible words with at most ``max_len`` edge letters,
    optionally restricted to a given source vertex, in breadth-first order,
    spelled in (name, kind) letters."""
    if start is not None and start not in alg.vertex_names:
        raise AlgebraError(f"unknown vertex {start!r}")
    # edge letters by source vertex: direct letters, then ghosts, each in
    # edge order
    leaving: list[list[int]] = [[] for _ in range(alg.nv)]
    for l in range(alg.nv, len(alg.src)):
        leaving[alg.src[l]].append(l)
    vertices = (range(alg.nv) if start is None
                else (alg._vertex_id[start],))
    out: list[tuple[int, ...]] = [(v,) for v in vertices]
    layer = [(l,) for v in vertices for l in leaving[v]]
    for _ in range(max_len):
        out += layer
        nxt = []
        for w in layer:
            if len(w) == max_len:
                continue
            for l in leaving[alg.rng[w[-1]]]:
                if _first_redex(alg, (w[-1], l)) is None:
                    nxt.append(w + (l,))
        layer = nxt
        if not layer:
            break
    letter = alg._letter
    return [tuple(map(letter, w)) for w in out]
