"""Full binary trees with godfather maps and Stern-Brocot labels.

Trees are immutable after construction; every derived map (godfathers,
branch lengths, labels, the Q order, the mixed-relation index) is computed
once up front because all downstream modules query them heavily.  Real
nodes are integer ids in preorder; the two virtual nodes LGH and RGH extend
the node set and carry the boundary labels (0,1) and (1,0).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .families import TREE_TEXT

if TYPE_CHECKING:
    from random import Random


class TreeParseError(ValueError):
    """Malformed tree text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Virtual:
    """One of the two virtual boundary nodes."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name.upper()


LGH = Virtual("lgh")
RGH = Virtual("rgh")

# An extended node is either a real node id (int) or one of the two
# virtual boundary nodes above.


class FullBinaryTree:
    """A finite tree in which every node has exactly zero or two children."""

    __slots__ = ("left", "right", "parent", "_stbr", "_lgf", "_rgf", "_lgfl", "_rgfl",
                 "_lchl", "_rchl", "_n0", "_n2", "_nbar2", "_mixed")

    def __init__(self, shape):
        # shape: None for a leaf, a pair (left_shape, right_shape) for an
        # inner node.  Nodes are numbered in preorder by an explicit stack,
        # the left subtree on top, so no depth meets the recursion limit.
        left: list[int | None] = []
        right: list[int | None] = []
        parent: list[int | None] = []
        todo = [(shape, None, left)]  # (shape, parent id, the parent's child list)
        while todo:
            s, par, side = todo.pop()
            if par is not None:
                side[par] = len(left)
            left.append(None)
            right.append(None)
            parent.append(par)
            if s is not None:
                todo += ((s[1], len(left) - 1, right), (s[0], len(left) - 1, left))
        self.left = tuple(left)
        self.right = tuple(right)
        self.parent = tuple(parent)
        self._precompute()

    # -- structure queries ---------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def size(self) -> int:
        return len(self.left)

    def nodes(self) -> range:
        return range(len(self.left))

    def is_leaf(self, a: int) -> bool:
        return self.left[a] is None

    def lch(self, a: int) -> int:
        if self.left[a] is None:
            raise ValueError(f"node {a} is a leaf")
        return self.left[a]

    def rch(self, a: int) -> int:
        if self.right[a] is None:
            raise ValueError(f"node {a} is a leaf")
        return self.right[a]

    def _precompute(self):
        n = len(self.left)
        lgf: list = [None] * n
        rgf: list = [None] * n
        # Parents precede children in preorder, so one forward pass settles
        # the three-case godfather recursion.
        for a in range(n):
            p = self.parent[a]
            if p is None:
                lgf[a], rgf[a] = LGH, RGH
            elif self.right[p] == a:
                lgf[a], rgf[a] = p, rgf[p]
            else:
                lgf[a], rgf[a] = lgf[p], p
        self._lgf = tuple(lgf)
        self._rgf = tuple(rgf)

        lgfl = [0] * n
        rgfl = [0] * n
        for a in range(n):
            b = lgf[a]
            lgfl[a] = lgfl[b] + 1 if isinstance(b, int) and self.right[b] == a else 1
            b = rgf[a]
            rgfl[a] = rgfl[b] + 1 if isinstance(b, int) and self.left[b] == a else 1
        self._lgfl = tuple(lgfl)
        self._rgfl = tuple(rgfl)

        lchl = [0] * n
        rchl = [0] * n
        for a in reversed(range(n)):
            if self.is_leaf(a):
                lchl[a] = rchl[a] = 1
            else:
                lchl[a] = lchl[self.left[a]] + 1
                rchl[a] = rchl[self.right[a]] + 1
        self._lchl = tuple(lchl)
        self._rchl = tuple(rchl)

        stbr = {LGH: (0, 1), RGH: (1, 0)}
        for a in range(n):
            r1, s1 = stbr[lgf[a]]
            r2, s2 = stbr[rgf[a]]
            stbr[a] = (r1 + r2, s1 + s2)
        self._stbr = stbr

        self._n0 = tuple(a for a in range(n) if self.is_leaf(a))
        self._n2 = tuple(a for a in range(n) if not self.is_leaf(a))
        # A node's label lies between its godfathers', so the Q order is the
        # in-order, where leaves (in preorder) and inner nodes alternate: a
        # leaf is followed by its rgf, the last one by RGH.
        self._nbar2 = (LGH, *(rgf[a] for a in self._n0))
        # A real left godfather is an ancestor, so an inner node.
        self._mixed = {a: (lgf[a], rgfl[a], self.weight(a) + self.weight(lgf[lgf[a]]))
                       for a in self._n2 if isinstance(lgf[a], int)}

    # -- the derived maps ------------------------------------------------------

    def lgf(self, a: int):
        return self._lgf[a]

    def rgf(self, a: int):
        return self._rgf[a]

    def branch_lengths(self, a: int) -> tuple[int, int, int, int]:
        return self._lgfl[a], self._rgfl[a], self._lchl[a], self._rchl[a]

    def lgfl(self, a: int) -> int:
        return self._lgfl[a]

    def rgfl(self, a: int) -> int:
        return self._rgfl[a]

    def lchl(self, a: int) -> int:
        return self._lchl[a]

    def rchl(self, a: int) -> int:
        return self._rchl[a]

    def stern_brocot(self, a) -> tuple[int, int]:
        return self._stbr[a]

    def weight(self, a) -> int:
        r, s = self._stbr[a]
        return r + s

    def cmp_q(self, a, b) -> int:
        """Sign of Q(a) - Q(b), comparing labels by cross multiplication."""
        r1, s1 = self._stbr[a]
        r2, s2 = self._stbr[b]
        d = r1 * s2 - r2 * s1
        return (d > 0) - (d < 0)

    def leaves(self) -> tuple[int, ...]:
        """The leaves in preorder, which is also their Q order."""
        return self._n0

    def internal(self) -> tuple[int, ...]:
        return self._n2

    def nbar2(self) -> tuple:
        """N_2 extended by the virtual nodes, ascending in the Q order."""
        return self._nbar2

    def mixed(self) -> dict:
        """{bb: (c, k, degree)} in preorder over the inner nodes bb whose left
        godfather c is inner, one mixed relation each: k = rgfl(bb) and the
        degree is weight(bb) + weight(lgf c)."""
        return self._mixed

    def nbar(self) -> tuple:
        return (LGH, RGH, *self.nodes())

    # -- shape identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FullBinaryTree):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"FullBinaryTree({serialize_tree(self)!r})"


def parse_tree(text: str) -> FullBinaryTree:
    """Parse the grammar  tree := "L" | "(" tree " " tree ")" ."""
    pos, n = 0, len(text)
    root = [None]
    # Slots still to parse, the next on top: (children list, index), or
    # (None, 0) for the ')' closing an inner node.  A stack, not recursion,
    # so that no nesting depth meets the recursion limit.
    todo = [(root, 0)]
    while todo:
        slot, i = todo.pop()
        while pos < n and text[pos].isspace():
            pos += 1
        if slot is None:
            if pos >= n or text[pos] != ")":
                raise TreeParseError("expected ')'", pos)
        elif pos >= n:
            raise TreeParseError("unexpected end of input", pos)
        elif text[pos] == "(":
            slot[i] = node = [None, None]
            todo += ((None, 0), (node, 1), (node, 0))
        elif text[pos] != "L":
            raise TreeParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
    while pos < n and text[pos].isspace():
        pos += 1
    if pos != n:
        raise TreeParseError("trailing input after tree", pos)
    return FullBinaryTree(root[0])


def serialize_tree(t: FullBinaryTree) -> str:
    out, todo = [], [0]  # nodes and closing text, the next on top
    while todo:
        a = todo.pop()
        if type(a) is str:
            out.append(a)
        elif t.is_leaf(a):
            out.append("L")
        else:
            out.append("(")
            todo += (")", t.right[a], " ", t.left[a])
    return "".join(out)


def random_full_tree(rng: Random, internal: int) -> FullBinaryTree:
    """Uniformly random full binary tree with the given number of inner nodes."""
    catalan = [1]  # C_(n+1) = C_n 2(2n + 1) / (n + 2)
    for n in range(internal):
        catalan.append(catalan[n] * 2 * (2 * n + 1) // (n + 2))
    # In preorder, a subtree of n inner nodes draws the size i of its left
    # subtree with probability C_i C_(n-1-i) / C_n, then its left subtree
    # draws, then its right.
    inner, todo = [], [internal]
    while todo:
        n = todo.pop()
        inner.append(n > 0)
        if n:
            pick, i = rng.randrange(catalan[n]), 0
            while pick >= (block := catalan[i] * catalan[n - 1 - i]):
                pick, i = pick - block, i + 1
            todo += [n - 1 - i, i]
    # In reverse preorder a node's left subtree is built last, so it is on top.
    built = []
    for is_inner in reversed(inner):
        built.append((built.pop(), built.pop()) if is_inner else None)
    return FullBinaryTree(built[0])


TREES: dict[int, FullBinaryTree] = {k: parse_tree(v) for k, v in TREE_TEXT.items()}
