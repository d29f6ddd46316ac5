import functools

import pytest
from hypothesis import given, settings, strategies as st

from nichols2.fbtree import LGH, RGH, TREES
from nichols2.lyndon import WordError, all_words, gamma, is_lyndon, lyndon_factorization, shirshow

W = str
EMPTY = ""


def lex_cmp(u: str, v: str) -> int:
    return (u > v) - (u < v)


def is_lyndon_definitional(u: str) -> bool:
    # u = vw implies vw < wv, for every proper split.
    if len(u) == 0:
        return False
    for i in range(1, len(u)):
        v, w = u[:i], u[i:]
        if lex_cmp(v + w, w + v) >= 0:
            return False
    return True


def shirshow_minimal_v(u: str):
    # Brute force over all splits with both parts Lyndon, minimizing |v|.
    splits = [(u[:i], u[i:]) for i in range(1, len(u))
              if is_lyndon(u[:i]) and is_lyndon(u[i:])]
    return min(splits, key=lambda vw: len(vw[0]))


def test_lex_examples():
    assert W("a") < W("b")
    assert W("a") < W("ab")
    assert W("ab") < W("b")
    assert lex_cmp(W("ab"), W("ab")) == 0
    assert W("abab") < W("abb")


def test_is_lyndon_examples():
    assert is_lyndon(W("a"))
    assert not is_lyndon(W("ba"))
    assert is_lyndon(W("aab"))
    with pytest.raises(WordError):
        is_lyndon(EMPTY)


def test_criteria_agree_up_to_length_ten():
    # The acceptance suite pushes this to length 14.
    for n in range(1, 11):
        for u in all_words(n):
            assert is_lyndon(u) == is_lyndon_definitional(u)


def test_shirshow_examples():
    assert shirshow(W("ab")) == (W("a"), W("b"))
    assert shirshow(W("aab")) == (W("a"), W("ab"))
    assert shirshow(W("abb")) == (W("ab"), W("b"))
    with pytest.raises(WordError):
        shirshow(W("ba"))
    with pytest.raises(WordError):
        shirshow(W("a"))


def test_shirshow_agrees_with_brute_force_up_to_ten():
    for n in range(2, 11):
        for u in all_words(n):
            if is_lyndon(u):
                v, w = shirshow(u)
                assert (v, w) == shirshow_minimal_v(u)
                assert is_lyndon(v) and is_lyndon(w) and v < w


def test_factorization_examples():
    assert lyndon_factorization(W("ba")) == [W("b"), W("a")]
    assert lyndon_factorization(W("abab")) == [W("ab"), W("ab")]
    assert lyndon_factorization(EMPTY) == []
    assert lyndon_factorization(W("aab")) == [W("aab")]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1), st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, max(0, (1 << n) - 1)))))
def test_factorization_properties(_, nb):
    n, bits = nb
    u = "".join("ab"[bits >> i & 1] for i in range(n))
    factors = lyndon_factorization(u)
    acc = EMPTY
    for f in factors:
        acc = acc + f
        assert is_lyndon(f)
    assert acc == u
    for f1, f2 in zip(factors, factors[1:]):
        assert lex_cmp(f1, f2) >= 0


def test_power_stays_below_larger_lyndon_word(rng):
    # By length, then colexicographically: the order the seeded draws index.
    lyndons = sorted((u for n in range(1, 8) for u in all_words(n) if is_lyndon(u)),
                     key=lambda u: (len(u), u[::-1]))
    for _ in range(300):
        u, v = rng.choice(lyndons), rng.choice(lyndons)
        if not u < v:
            continue
        for h in range(1, 6):
            power = EMPTY
            for _ in range(h):
                power = power + u
            assert power < v


def test_gamma_examples():
    g = gamma(TREES[2])
    assert g[LGH] == W("a")
    assert g[RGH] == W("b")
    assert g[TREES[2].root] == W("ab")
    assert g[TREES[2].lch(0)] == W("aab")


def test_gamma_properties_on_constants():
    for t in TREES.values():
        g = gamma(t)
        for a in t.nodes():
            u = g[a]
            assert is_lyndon(u)
            assert len(u) == t.weight(a)
            assert shirshow(u) == (g[t.lgf(a)], g[t.rgf(a)])
        ordered = sorted(t.nbar(), key=functools.cmp_to_key(t.cmp_q))
        words = [g[a] for a in ordered]
        for w1, w2 in zip(words, words[1:]):
            assert w1 < w2
