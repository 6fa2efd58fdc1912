"""Parsing of algebra elements.

Grammar (whitespace separates factors, ``#`` is not special here):

    expr   := ['-'] term (('+'|'-') term)*  |  '0'
    term   := [coef] factor+
    coef   := INT ['/' INT]
    factor := NAME ['.' INT] ['*']

Names are matched longest-first against the known vertex and edge names,
so a name that holds punctuation tokenizes without quoting: the colons of
resolved names (``v:3``, ``e1:0:2``) and the parentheses and commas of the
companions' names (``v(e,1)``, ``a^e(1)``).  The ``.`` index form
addresses the slot generators of a weighted graph and is rejected
elsewhere.  A postfix ``*`` stars the factor.
``staralg.format_element`` prints an element back in this grammar.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import WeightedGraph, as_weighted
from .homs import Terms, slot_name
from .staralg import AlgElement, StarAlgebra, _collect

_IDENT = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class ExprError(ValueError):
    """Malformed element expression; the message carries the position."""


def _tokenize(text: str, names: list[str]) -> list[tuple[str, object, int]]:
    ordered = sorted(names, key=len, reverse=True)
    toks: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        hit = None
        for name in ordered:
            if text.startswith(name, i):
                if all(ch in _IDENT for ch in name) and \
                        i + len(name) < n and text[i + len(name)] in _IDENT:
                    continue
                hit = name
                break
        if hit is not None:
            toks.append(("name", hit, i))
            i += len(hit)
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c in "+-/*.":
            toks.append((c, c, i))
            i += 1
            continue
        if c in _IDENT:
            j = i
            while j < n and text[j] in _IDENT:
                j += 1
            raise ExprError(f"unknown identifier {text[i:j]!r} at {i}")
        raise ExprError(f"unexpected character {c!r} at {i}")
    return toks


def _parse(text: str, names: list[str]):
    """Sign-expanded term list: (coeff, [(name, index|None, starred)...])."""
    toks = _tokenize(text, names)
    if not toks:
        raise ExprError("empty expression")
    if len(toks) == 1 and toks[0][0] == "int" and toks[0][1] == 0:
        return []
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None, len(text))

    terms = []
    sign = 1
    if peek()[0] == "-":
        sign = -1
        pos += 1
    while True:
        coeff = sign
        kind, val, at = peek()
        if kind == "int":
            pos += 1
            num = val
            if peek()[0] == "/":
                pos += 1
                kind2, den, at2 = peek()
                if kind2 != "int" or den == 0:
                    raise ExprError(f"bad denominator at {at2}")
                pos += 1
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        factors = []
        while peek()[0] == "name":
            _, name, at = peek()
            pos += 1
            index = None
            if peek()[0] == ".":
                pos += 1
                kind2, idx, at2 = peek()
                if kind2 != "int":
                    raise ExprError(f"expected an index after '.' at {at2}")
                pos += 1
                index = idx
            starred = False
            if peek()[0] == "*":
                pos += 1
                starred = True
            factors.append((name, index, starred, at))
        if not factors:
            raise ExprError(f"expected a generator name at {peek()[2]}")
        terms.append((coeff, factors))
        kind, _, at = peek()
        if kind is None:
            return terms
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ExprError(f"expected '+' or '-' at {at}")
        pos += 1


def parse_element(text: str, alg: StarAlgebra) -> AlgElement:
    """Parse over the vertex and edge names of a separated-graph algebra.

    A term is the product of its factors under ``*`` of the algebra, so
    factors that do not meet give 0 (``e1 e1`` over E(2,3)), and so does a
    ghost followed by another edge of its group (``e1* e2``)."""
    d = alg.sep.graph
    names = list(d.vertices) + list(d.edge_names)
    out = alg.zero()
    for coeff, factors in _parse(text, names):
        acc = None
        for name, index, starred, at in factors:
            if index is not None:
                raise ExprError(
                    f"index syntax at {at} needs a weighted graph")
            if name in alg.vertex_names:
                el = alg.vertex(name)
            else:
                el = alg.ghost(name) if starred else alg.edge(name)
            acc = el if acc is None else acc * el
        out = out + acc.scale(coeff)
    return out


def parse_weighted(text: str, g: WeightedGraph) -> Terms:
    """Parse over the generators of a weighted graph: vertices and e.i.

    The result is a term dict as ``homs.evaluate`` reads it: like words
    are collected and zero terms dropped."""
    g = as_weighted(g)
    d = g.graph
    names = list(d.vertices) + list(d.edge_names)
    terms: Terms = {}
    for coeff, factors in _parse(text, names):
        word = []
        for name, index, starred, at in factors:
            if name in d.vertex_set:
                if index is not None:
                    raise ExprError(f"vertex {name!r} takes no index (at {at})")
                word.append((name, starred))
                continue
            if index is None:
                raise ExprError(
                    f"edge {name!r} needs an index like {name}.1 (at {at})")
            if not 1 <= index <= g.w[name]:
                raise ExprError(
                    f"index {index} out of range for {name!r} "
                    f"(weight {g.w[name]})")
            word.append((slot_name(name, index), starred))
        _collect(terms, tuple(word), coeff)
    return terms

