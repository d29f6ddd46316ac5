"""Words over the two-letter alphabet a < b, Lyndon machinery, and the
order-preserving map from tree nodes to Lyndon words.

A word is a plain string over "ab": the order of Python strings is the
lexicographic order with a < b (u < v iff v extends u, or they first differ
a against b), and slicing and concatenation are its prefixes, suffixes and
products.
"""

from __future__ import annotations

from itertools import product

from .fbtree import FullBinaryTree


class WordError(ValueError):
    pass


def is_lyndon(u: str) -> bool:
    """Whether u is strictly smaller than all of its proper suffixes."""
    if not u:
        raise WordError("the empty word is neither Lyndon nor not")
    return all(u < u[i:] for i in range(1, len(u)))


def shirshow(u: str) -> tuple[str, str]:
    """Split a Lyndon word of length >= 2 as u = vw, both factors Lyndon
    and |v| minimal: w is the least proper suffix of u (Lothaire,
    "Combinatorics on Words", 1983, section 5.1)."""
    if len(u) < 2 or not is_lyndon(u):
        raise WordError(f"{u!r} has no standard decomposition")
    i = min(range(1, len(u)), key=lambda i: u[i:])
    return u[:i], u[i:]


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


def christoffel(r: int, s: int) -> str:
    """The Christoffel word of the label (r, s): letter i of n = r + s is b when
    (i + 1) r // n > i r // n.  It is Lyndon, and `shirshow` splits it into the
    words of its two Stern-Brocot parents (Berstel, Lauve, Reutenauer and
    Saliola, "Combinatorics on Words", 2008): a node's godfathers' words."""
    n = r + s
    return "".join("b" if (i + 1) * r // n > i * r // n else "a" for i in range(n))


def gamma(t: FullBinaryTree) -> dict:
    """Map every extended node to its Lyndon word, the Christoffel word of its label."""
    return {a: christoffel(*t.stern_brocot(a)) for a in t.nbar()}


def all_words(length: int):
    """All words of exactly the given length, in lexicographic order."""
    return map("".join, product("ab", repeat=length))
