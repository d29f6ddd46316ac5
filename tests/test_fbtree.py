import functools
import math

import pytest

from nichols2.fbtree import (LGH, RGH, TREES, FullBinaryTree, TreeParseError, parse_tree,
                             random_full_tree, serialize_tree)


def corpus(rng, extra=1000, max_internal=16):
    trees = list(TREES.values())
    for _ in range(extra):
        trees.append(random_full_tree(rng, rng.randrange(0, max_internal + 1)))
    return trees


def test_parse_examples():
    assert parse_tree("L").size() == 1
    assert parse_tree("(L L)") == TREES[2]
    assert parse_tree("(L (L L))") == TREES[3]
    assert parse_tree("((L L) (L L))") == TREES[4]


def test_round_trip_all_constants():
    for t in TREES.values():
        assert parse_tree(serialize_tree(t)) == t


def test_parse_errors_carry_position():
    for text, pos in (("", 0), ("(L", 2), ("(L L", 4), ("X", 0), ("L L", 2), ("(L L))", 5)):
        with pytest.raises(TreeParseError) as err:
            parse_tree(text)
        assert err.value.position == pos


def label_order(t, nodes):
    # Ascending labels r/s, compared by cross multiplication (RGH's 1/0 last).
    def cmp(x, y):
        (r1, s1), (r2, s2) = t.stern_brocot(x), t.stern_brocot(y)
        return (r1 * s2 > r2 * s1) - (r1 * s2 < r2 * s1)

    return sorted(nodes, key=functools.cmp_to_key(cmp))


def test_deep_chains_round_trip():
    # Depths far past the recursion limit: parsing, building, the maps and
    # serializing walk explicit stacks.  Every inner node of the right chain
    # but the root has an inner left godfather; none of the left chain has.
    d = 5000
    right, left = "(L " * d + "L" + ")" * d, "(" * d + "L" + " L)" * d
    for text, mixed in ((right, d - 1), (left, 0)):
        t = parse_tree(text)
        assert t.size() == 2 * d + 1 and len(t.mixed()) == mixed
        assert serialize_tree(t) == text and parse_tree(serialize_tree(t)) == t
        assert t.nbar2() == (LGH, *label_order(t, t.internal()), RGH)


def test_q_order_is_the_order_of_the_labels(rng):
    # nbar2 holds the inner nodes in the Q order, and the leaves come in it.
    for t in corpus(rng, extra=300, max_internal=40):
        assert t.nbar2() == (LGH, *label_order(t, t.internal()), RGH)
        assert list(t.leaves()) == label_order(t, t.leaves())


def test_mixed_index_is_the_enumeration_over_inner_nodes(rng):
    for t in corpus(rng, extra=300, max_internal=40):
        want = {}
        for bb in t.internal():
            c = t.lgf(bb)
            if isinstance(c, int) and not t.is_leaf(c):
                want[bb] = (c, t.rgfl(bb), t.weight(bb) + t.weight(t.lgf(c)))
        assert list(t.mixed().items()) == list(want.items())


def test_godfather_examples():
    t = TREES[2]
    assert t.lgf(t.root) is LGH
    assert t.rgf(t.root) is RGH
    assert t.rgf(t.lch(t.root)) == t.root
    assert t.lgf(t.rch(t.root)) == t.root


def test_branch_length_examples():
    t = TREES[2]
    leaf = t.lch(t.root)
    assert t.branch_lengths(leaf)[2:] == (1, 1)
    assert t.branch_lengths(t.root) == (1, 1, 2, 2)


def test_label_examples():
    t = TREES[2]
    assert t.stern_brocot(LGH) == (0, 1)
    assert t.stern_brocot(RGH) == (1, 0)
    assert t.stern_brocot(t.root) == (1, 1)
    assert t.stern_brocot(t.lch(t.root)) == (1, 2)


def test_order_examples():
    t4 = TREES[4]
    r = t4.root
    assert t4.cmp_q(LGH, r) < 0 and t4.cmp_q(r, RGH) < 0
    assert t4.cmp_q(t4.lch(r), r) < 0 < t4.cmp_q(t4.rch(r), r)
    for a in t4.nodes():
        assert t4.cmp_q(t4.lgf(a), a) < 0 < t4.cmp_q(t4.rgf(a), a)


def test_node_sets():
    t = TREES[1]
    assert len(t.leaves()) == 1 and len(t.internal()) == 0 and t.nbar2() == (LGH, RGH)
    assert TREES[2].nbar2() == (LGH, TREES[2].root, RGH)
    assert len(TREES[3].internal()) == 2


def check_label_identities(t: FullBinaryTree):
    # Neighboring labels are unimodular and coprime; the induced order is
    # total; godfathers straddle their node.
    for a in t.nodes():
        r, s = t.stern_brocot(a)
        r1, s1 = t.stern_brocot(t.lgf(a))
        r2, s2 = t.stern_brocot(t.rgf(a))
        assert r * s1 - r1 * s == 1
        assert r2 * s - r * s2 == 1
        assert r2 * s1 - r1 * s2 == 1
    for c in t.nbar():
        r, s = t.stern_brocot(c)
        assert math.gcd(r, s) == 1
    labels = [t.stern_brocot(c) for c in t.nbar()]
    assert len({(r, s) for r, s in labels}) == len(labels)


def check_order_identities(t: FullBinaryTree):
    for a in t.nodes():
        assert t.cmp_q(t.lgf(a), a) < 0 < t.cmp_q(t.rgf(a), a)
        la, ra = t.lgf(a), t.rgf(a)
        if isinstance(la, int):
            assert t.cmp_q(a, t.rgf(la)) < 0
        if isinstance(ra, int):
            assert t.cmp_q(t.lgf(ra), a) < 0


def check_separation_identities(t: FullBinaryTree):
    # A node is pinned between its godfathers among all lighter labels, and
    # consecutive extended inner nodes have a real node strictly between.
    for a in t.nodes():
        wa = t.weight(a)
        for b in t.nbar():
            if t.weight(b) <= wa and t.cmp_q(t.lgf(a), b) < 0 and t.cmp_q(b, t.rgf(a)) < 0:
                assert b == a
    seq = t.nbar2()
    for x, y in zip(seq, seq[1:]):
        assert any(t.cmp_q(x, c) < 0 and t.cmp_q(c, y) < 0 for c in t.nodes())


def check_godfathers_determine_node(t: FullBinaryTree):
    seen = {}
    for a in t.nodes():
        key = (t.lgf(a), t.rgf(a))
        assert key not in seen
        seen[key] = a


def godfathers_by_definition(t, a):
    # Literal three-case recursions, walking parents, independent of the
    # single-pass computation inside the tree.
    def lgf(x):
        p = t.parent[x]
        if p is None:
            return LGH
        if t.right[p] == x:
            return p
        return lgf(p)

    def rgf(x):
        p = t.parent[x]
        if p is None:
            return RGH
        if t.left[p] == x:
            return p
        return rgf(p)

    return lgf(a), rgf(a)


def test_godfathers_match_definition(rng):
    for t in corpus(rng, extra=60):
        for a in t.nodes():
            assert (t.lgf(a), t.rgf(a)) == godfathers_by_definition(t, a)


def branch_lengths_by_definition(t, a):
    def lgfl(x):
        g = t.lgf(x)
        return lgfl(g) + 1 if isinstance(g, int) and t.right[g] == x else 1

    def rgfl(x):
        g = t.rgf(x)
        return rgfl(g) + 1 if isinstance(g, int) and t.left[g] == x else 1

    def lchl(x):
        return 1 if t.is_leaf(x) else lchl(t.lch(x)) + 1

    def rchl(x):
        return 1 if t.is_leaf(x) else rchl(t.rch(x)) + 1

    return lgfl(a), rgfl(a), lchl(a), rchl(a)


def test_branch_lengths_match_definition(rng):
    for t in corpus(rng, extra=40):
        for a in t.nodes():
            assert t.branch_lengths(a) == branch_lengths_by_definition(t, a)


def test_label_properties_on_corpus(rng):
    for t in corpus(rng, extra=120):
        check_label_identities(t)
        check_order_identities(t)
        check_separation_identities(t)
        check_godfathers_determine_node(t)


def test_random_trees_are_full_and_sized(rng):
    for n in range(0, 12):
        t = random_full_tree(rng, n)
        assert len(t.internal()) == n
        assert len(t.leaves()) == n + 1
        for a in t.nodes():
            assert (t.left[a] is None) == (t.right[a] is None)


def test_random_tree_distribution_smoke(rng):
    # All five shapes with 3 inner nodes appear.
    seen = set()
    for _ in range(300):
        seen.add(serialize_tree(random_full_tree(rng, 3)))
    assert len(seen) == 5


def test_tree_constants_count():
    assert set(TREES) == set(range(1, 23))
    sizes = {k: len(TREES[k].internal()) for k in TREES}
    assert sizes[1] == 0 and sizes[2] == 1 and sizes[19] == 10 and sizes[22] == 10
