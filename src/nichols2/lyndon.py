"""Words over the two-letter alphabet a < b, Lyndon machinery, and the
order-preserving map from tree nodes to Lyndon words.

A word is a plain string over "ab": the order of Python strings is the
lexicographic order with a < b (u < v iff v extends u, or they first differ
a against b), and slicing and concatenation are its prefixes, suffixes and
products.
"""

from __future__ import annotations

from itertools import product

from .fbtree import LGH, RGH, FullBinaryTree


class WordError(ValueError):
    pass


def is_lyndon(u: str) -> bool:
    """Whether u is strictly smaller than all of its proper suffixes."""
    if not u:
        raise WordError("the empty word is neither Lyndon nor not")
    return all(u < u[i:] for i in range(1, len(u)))


def shirshow(u: str) -> tuple[str, str]:
    """Split a Lyndon word of length >= 2 as u = vw, both factors Lyndon
    and |v| minimal.  Found by scanning split points left to right."""
    if len(u) < 2 or not is_lyndon(u):
        raise WordError(f"{u!r} has no standard decomposition")
    for i in range(1, len(u)):
        v, w = u[:i], u[i:]
        if is_lyndon(v) and is_lyndon(w):
            return v, w
    raise AssertionError("unreachable: every Lyndon word of length >= 2 splits")


def lyndon_factorization(u: str) -> list[str]:
    """The unique nonincreasing factorization of u into Lyndon words (Duval)."""
    out = []
    k = 0
    n = len(u)
    while k < n:
        i, j = k, k + 1
        while j < n and u[i] <= u[j]:
            i = k if u[i] < u[j] else i + 1
            j += 1
        while k <= i:
            out.append(u[k:k + j - i])
            k += j - i
    return out


def gamma(t: FullBinaryTree) -> dict:
    """Map every extended node to its Lyndon word: boundary nodes go to the
    single letters and an inner node to the concatenation over its godfathers."""
    out = {LGH: "a", RGH: "b"}
    for a in t.nodes():
        out[a] = out[t.lgf(a)] + out[t.rgf(a)]
    return out


def all_words(length: int):
    """All words of exactly the given length, in lexicographic order."""
    return map("".join, product("ab", repeat=length))
