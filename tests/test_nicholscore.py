import itertools

import pytest

from nichols2.cyclotomic import MINUS_ONE, ONE, qfact, root_of_unity
from nichols2.braidedalg import Braiding, NCPoly, is_zero_in_nichols, tau0
from nichols2.fbtree import TREES, random_full_tree
from nichols2.admissibility import lambda_of, mu_of, p_of
from nichols2.nicholscore import (NicholsError, PBWMonomial, TypeVerdict, _relation_generators,
                                  count_by_degree,
                                  dim_at_degree, dimension, evaluate_monomial, hilbert_prefix,
                                  pbw_monomials, relation_set, top_total_degree, verify_type)


def exterior():
    return Braiding(MINUS_ONE, ONE, ONE, MINUS_ONE)


def cartan_a2():
    z3 = root_of_unity(1, 3)
    return Braiding(z3, z3 ** 2, ONE, z3)


def test_hilbert_trivial_degrees(rng):
    from conftest import random_root_braiding

    for _ in range(3):
        b = random_root_braiding(rng)
        dims = hilbert_prefix(b, 1)
        assert dims[0] == 1 and dims[1] == 2


def test_hilbert_exterior():
    assert list(hilbert_prefix(exterior(), 4)) == [1, 2, 1, 0, 0]


def generating_function_prefix(t, b, cap):
    """Independent oracle: expand the product over generators of
    1 + t^w + t^(2w) + ... + t^(w (ord-1))."""
    from nichols2.nicholscore import generator_orders

    poly = [1]
    for a, o in zip(t.nbar2(), generator_orders(t, b)):
        w = t.weight(a)
        factor = [0] * (w * (o - 1) + 1)
        for e in range(o):
            factor[w * e] = 1
        out = [0] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            if x:
                for j, y in enumerate(factor):
                    if y:
                        out[i + j] += x * y
        poly = out
    return (poly + [0] * (cap + 1))[:cap + 1]


def test_hilbert_cartan_a2():
    # The generating function (1+t+t^2)^2 (1+t^2+t^4) expands to
    # 1,2,4,4,5,4,4,2,1 (total 27); the symmetrizer ranks must agree with
    # that expansion term by term.
    expected = generating_function_prefix(TREES[2], cartan_a2(), 8)
    assert expected == [1, 2, 4, 4, 5, 4, 4, 2, 1]
    got = list(hilbert_prefix(cartan_a2(), 8))
    assert got == expected
    assert sum(got) == 27


def test_pbw_monomials_exterior():
    monos = pbw_monomials(TREES[1], exterior(), 2)
    assert [m.exponents for m in monos] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert list(count_by_degree(monos, 2)) == [1, 2, 1]


def test_pbw_monomials_degree_zero(rng):
    monos = pbw_monomials(TREES[4], cartan_a2_like_t4(), 0)
    assert len(monos) == 1 and monos[0].weighted_degree() == 0


def cartan_a2_like_t4():
    z12 = root_of_unity(1, 12)
    return Braiding(z12 ** 4, z12 ** 9, ONE, -(z12 ** 2))


def test_pbw_monomials_cartan_a2():
    monos = pbw_monomials(TREES[2], cartan_a2(), 8)
    assert len(monos) == 27
    assert list(count_by_degree(monos, 8)) == [1, 2, 4, 4, 5, 4, 4, 2, 1]


def test_pbw_requires_finite_orders():
    with pytest.raises(NicholsError):
        pbw_monomials(TREES[1], Braiding(MINUS_ONE, ONE, ONE, ONE + ONE), 2)
    # chi(a, a) = 1 at the root is a tree/braiding mismatch as well
    with pytest.raises(NicholsError):
        pbw_monomials(TREES[2], exterior(), 2)


def test_verify_type_exterior():
    assert verify_type(TREES[1], exterior(), 4).holds


def test_verify_type_cartan():
    assert verify_type(TREES[2], cartan_a2(), 8).holds


def test_verify_type_wrong_tree_fails():
    verdict = verify_type(TREES[1], cartan_a2(), 2)
    assert not verdict.holds
    assert verdict.failed_degree == 2
    assert "4" in verdict.detail


def test_relation_set_exterior():
    rels = relation_set(TREES[1], exterior())
    b = exterior()
    x1 = NCPoly.generator(1)
    x2 = NCPoly.generator(2)
    assert x2 * x2 in rels and x1 * x1 in rels
    assert x1 * x2 - b.q12 * (x2 * x1) in rels
    assert len(rels) == 3  # no mixed family on a tree without nested inner nodes


def test_relation_set_cartan():
    b = cartan_a2()
    rels = relation_set(TREES[2], b)
    # two leaf relations, three cube relations, no mixed family
    assert len(rels) == 5
    degrees = sorted(r.total_degree() for r in rels)
    assert degrees == [3, 3, 3, 3, 6]


def vanishes(b, rel):
    """Both zero tests."""
    return is_zero_in_nichols(b, rel) and is_zero_in_nichols(b, rel, "derivations")


def test_relation_generators_follow_the_q_order(rng):
    # chi(a, a) = z3^(r^2 + s^2) has order 3 at every coprime label (r, s),
    # so every tree has finite heights here.
    z3 = root_of_unity(1, 3)
    b = Braiding(z3, ONE, ONE, z3)
    trees = [*TREES.values(), *(random_full_tree(rng, rng.randrange(41)) for _ in range(300))]
    for t in trees:
        gens = _relation_generators(t, b)
        n0, n2 = len(t.leaves()), len(t.nbar2())
        leaves = [build.args[-1] for _, build in gens[:n0]]
        powers = [build.__defaults__[0] for _, build in gens[n0:n0 + n2]]
        mixed = [build.args[-1] for _, build in gens[n0 + n2:]]
        for seq, nodes in ((leaves, t.leaves()), (mixed, t.mixed())):
            assert sorted(seq) == sorted(nodes)
            assert all(t.cmp_q(x, y) < 0 for x, y in zip(seq, seq[1:]))
        assert powers == list(t.nbar2())
        assert [d for d, _ in gens[n0 + n2:]] == [t.mixed()[bb][2] for bb in mixed]


def test_relations_vanish_positive():
    b = exterior()
    assert all(vanishes(b, rel) for rel in relation_set(TREES[1], b, max_degree=4))
    b = cartan_a2()
    assert all(vanishes(b, rel) for rel in relation_set(TREES[2], b, max_degree=8))


def test_relation_degree_cap_skips_expansion():
    z14 = root_of_unity(1, 14)
    b = Braiding(z14, z14 ** 9, ONE, MINUS_ONE)
    rels = relation_set(TREES[22], b, max_degree=6)
    assert all(r.total_degree() <= 6 for r in rels)


def test_perturbed_mixed_relation_fails():
    z12 = root_of_unity(1, 12)
    b = Braiding(z12, z12 ** 9, ONE, MINUS_ONE)
    t = TREES[7]
    bb = t.rch(t.rch(0))
    c = t.lgf(bb)
    k = t.rgfl(bb)
    coeff = mu_of(t, b, bb) * qfact(k + 1, p_of(t, b, c)).inv()
    lgc = t.lgf(c)
    base = (tau0(t, b, bb) * tau0(t, b, lgc)
            - b.chi_nodes(t, bb, lgc) * (tau0(t, b, lgc) * tau0(t, b, bb)))
    good = base - coeff * tau0(t, b, c) ** (k + 1)
    bad = base - (coeff + coeff) * tau0(t, b, c) ** (k + 1)
    assert is_zero_in_nichols(b, good) and is_zero_in_nichols(b, good, "derivations")
    assert not is_zero_in_nichols(b, bad)
    assert not is_zero_in_nichols(b, bad, "derivations")


def test_relation_zero_test_agrees_with_both_full_tests(monkeypatch):
    # The symmetrizer zero test reads the image at the reversed basis words
    # only.  Both zero tests must agree with the references, the whole
    # image at every word and the derivation recursion on CycNum
    # polynomials, on the relations of every family sample through degree
    # 8, on each of them with one coefficient doubled, and above the first
    # zero degree, where a bidegree has no basis words.
    from conftest import basis_words, derivations_vanish, reference_symmetrize
    from nichols2 import braidedalg
    from nichols2.braidedalg import _conductor, _engine, clear_caches
    from nichols2.classify import fixtures

    # The skew derivations each test takes; the rank oracle takes none, and
    # the references take conftest's own.
    derivations = {"symmetrizer": 0, "derivations": 0}
    skew_derivation, method = braidedalg.skew_derivation, [None]

    def counted(*args):
        derivations[method[0]] += 1
        return skew_derivation(*args)

    def zero_test(b, rel, m):
        method[0] = m
        return is_zero_in_nichols(b, rel, m)

    monkeypatch.setattr(braidedalg, "skew_derivation", counted)

    def verdict(b, rel):
        sym, der = zero_test(b, rel, "symmetrizer"), zero_test(b, rel, "derivations")
        image = reference_symmetrize(b, rel, _conductor(b, rel),
                                     basis_words(len(min(rel.terms))))
        assert sym == (not any(map(any, image.values()))), (b, rel)
        assert der == derivations_vanish(b, rel) == sym, (b, rel)
        return sym

    vanishing = []
    for (n, c), b in sorted(fixtures().items()):
        clear_caches()
        for rel in relation_set(TREES[n], b, max_degree=8):
            w = min(rel.terms)
            for poly in (rel, rel + NCPoly({w: rel.terms[w]})):
                vanishing.append(verdict(b, poly))
    # 273 relations, all zero; doubling a coefficient keeps 130 of them
    # zero, those whose doubled term is itself zero in the algebra.
    assert len(vanishing) == 546 and all(vanishing[::2])
    assert sum(vanishing[1::2]) == 130
    # One walk of iterated skew derivations serves both tests: at the
    # reversed basis words it takes 5205, at every word, stopping at the
    # first nonzero entry, 3729.
    assert derivations == {"symmetrizer": 5205, "derivations": 3729}
    # Cartan A2 is zero from degree 9 on; degree 10 is never ranked.
    clear_caches()
    b = cartan_a2()
    rho = NCPoly({w: root_of_unity(k, 3) for k, w in enumerate(
        [(1, 2) * 5, (2, 1) * 5, (1,) * 4 + (2,) * 6, (2, 1, 1) * 3 + (2,)])})
    assert verdict(b, rho)


def test_hilbert_prefix_reaches_past_the_top_degree():
    # Every family sample of dimension at most 625 reaches one degree past
    # its top degree, where the dimension is 0, with the PBW monomial count
    # in every degree, and its dimensions sum to the dimension.
    from nichols2.braidedalg import clear_caches
    from nichols2.classify import fixtures

    small = ((1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1),
             (7, 2))
    assert [key for key, b in sorted(fixtures().items())
            if dimension(TREES[key[0]], b) <= 625] == list(small)
    for key in small:
        clear_caches()
        b, t = fixtures()[key], TREES[key[0]]
        top = top_total_degree(t, b)
        prefix = hilbert_prefix(b, top + 1)
        assert prefix == count_by_degree(pbw_monomials(t, b, top + 1), top + 1), key
        assert prefix[-1] == 0 and sum(prefix) == dimension(t, b), key


def test_dimension_examples():
    assert dimension(TREES[1], exterior()) == 4
    assert dimension(TREES[2], cartan_a2()) == 27
    b = Braiding(root_of_unity(1, 5), ONE, ONE, MINUS_ONE)
    assert dimension(TREES[1], b) == 10


def test_dimension_infinite_order_raises():
    with pytest.raises(NicholsError):
        dimension(TREES[1], Braiding(MINUS_ONE, ONE, ONE, ONE + ONE))


@pytest.mark.parametrize("q11, dims", [(ONE, [1, 2, 3, 4, 5, 6]),
                                       (root_of_unity(1, 3), [1, 2, 3, 3, 3, 3])])
def test_trivial_self_pairing_has_infinite_height(q11, dims):
    # chi(x2, x2) = 1 makes x2 a polynomial generator: the oracle sees its
    # powers in every degree, so no PBW or dimension reader may give a
    # finite answer on the one-leaf tree.
    b = Braiding(q11, ONE, ONE, ONE)
    t = TREES[1]
    for reader in (dimension, relation_set, top_total_degree,
                   lambda t, b: pbw_monomials(t, b, 5)):
        with pytest.raises(NicholsError, match="LGH"):
            reader(t, b)
    assert list(hilbert_prefix(b, 5)) == dims


def test_dimension_agrees_with_classify():
    from nichols2.admissibility import ReconstructionError, reconstruct_tree
    from nichols2.classify import classify_full

    finite = 0
    for n in (6, 8):
        for a, c, d in itertools.product(range(n), repeat=3):
            b = Braiding(root_of_unity(a, n), root_of_unity(c, n), ONE, root_of_unity(d, n))
            try:
                t = reconstruct_tree(b, 16)
            except ReconstructionError:
                continue
            try:
                dim = dimension(t, b)
            except NicholsError:
                dim = None
            assert classify_full(b, 0).dimension_value == dim, (n, a, c, d)
            finite += dim is not None
    assert finite


def test_dimension_equals_hilbert_total_small():
    # Full-range dual route on the three smallest instances: symmetrizer
    # ranks equal the monomial generating function termwise (including a
    # trailing zero past the top degree), and they sum to the dimension.
    z3 = root_of_unity(1, 3)
    minimal_t3 = Braiding(z3, -z3, ONE, MINUS_ONE)
    for t, b in ((TREES[1], exterior()), (TREES[2], cartan_a2()),
                 (TREES[3], minimal_t3)):
        top = top_total_degree(t, b)
        dims = hilbert_prefix(b, top + 1)
        assert list(dims) == generating_function_prefix(t, b, top + 1)
        assert sum(dims) == dimension(t, b)


def test_quadratic_cross_check_identity():
    # For an inner left child d with real right godfather c and f = rgf(c):
    # tau(f) tau(d) - chi(f, d) tau(d) tau(f) - lambda(d)/[2]_{p_c} tau(c)^2
    # vanishes in the quotient where the degree is in reach.
    from nichols2.cyclotomic import qnum

    checked = 0
    cases = [(6, Braiding(root_of_unity(1, 18), root_of_unity(16, 18), ONE,
                          -root_of_unity(3, 18))),
             (7, Braiding(root_of_unity(1, 12), root_of_unity(9, 12), ONE, MINUS_ONE))]
    for key, b in cases:
        t = TREES[key]
        for d in t.internal():
            c = t.rgf(d)
            if not (isinstance(c, int) and t.lch(c) == d):
                continue
            f = t.rgf(c)
            if t.weight(f) + t.weight(d) > 8:
                continue
            lam = lambda_of(t, b, d)
            denom = qnum(2, p_of(t, b, c))
            if denom.is_zero():
                continue
            el = (tau0(t, b, f) * tau0(t, b, d)
                  - b.chi_nodes(t, f, d) * (tau0(t, b, d) * tau0(t, b, f))
                  - (lam * denom.inv()) * tau0(t, b, c) ** 2)
            assert is_zero_in_nichols(b, el)
            checked += 1
    assert checked >= 1


def test_evaluate_monomial_degree():
    b = cartan_a2()
    t = TREES[2]
    for mono in pbw_monomials(t, b, 6):
        poly = evaluate_monomial(t, b, mono)
        labels = [t.stern_brocot(a) for a in t.nbar2()]
        assert poly.multidegree() == mono.multidegree(labels)


def full_block(b, r, s):
    """The bidegree-(r, s) block of the symmetrizer over every word of that
    bidegree, with no reduction of rows or columns, from the whole-word
    images of the reference: (words, rows), where row i holds the image of
    words[i] at each word, as coordinates at the braiding's conductor."""
    from conftest import basis_words, reference_images

    ref = reference_images(b)
    words = [w for w in basis_words(r + s) if w.count(1) == r]
    return words, [[ref.image(w)[u] for u in words] for w in words]


def full_block_dims(b, n):
    """Independent oracle: the symmetrizer rank over every word of each
    bidegree, with no spanning-set reduction."""
    from nichols2._linalg import exact_rank_vectors
    from nichols2.braidedalg import _engine

    conductor = _engine(b).conductor
    return [sum(exact_rank_vectors(full_block(b, r, m - r)[1], conductor)
                for r in range(m + 1))
            for m in range(n + 1)]


def test_hilbert_prefix_matches_full_block_rank(rng):
    from conftest import random_root_braiding
    from nichols2.classify import fixtures

    for b in fixtures().values():
        assert list(hilbert_prefix(b, 6)) == full_block_dims(b, 6), b
    for _ in range(20):
        b = random_root_braiding(rng)
        assert list(hilbert_prefix(b, 5)) == full_block_dims(b, 5), b


def test_derivative_rows_give_the_image_block_basis_words():
    # The oracle ranks the coordinates of the two skew derivatives, which
    # are injective in positive degree; the image blocks of the reference
    # rank the same candidates in the same order, so every bidegree has the
    # same basis words, and both stop at the first zero degree.
    from conftest import image_block_pivot_words
    from nichols2.braidedalg import _engine, clear_caches
    from nichols2.classify import fixtures

    for key, b in sorted(fixtures().items()):
        clear_caches()
        hilbert_prefix(b, 8)
        assert _engine(b).pivot_words == image_block_pivot_words(b, 8), key
    clear_caches()


def test_reversal_transposes_the_symmetrizer(rng):
    # Step a of the nicholscore docstring, entry by entry on random root
    # braidings: with b' the transposed braiding and R word reversal, the
    # matrix of S_b' is the transpose of that of S_b, and R S_b = S_b' R;
    # together, the coefficient of u in S_b(v) is that of R(v) in S_b(R(u)).
    from conftest import basis_words, random_root_braiding, symmetrizer
    from nichols2.braidedalg import clear_caches

    entries = 0
    for _ in range(12):
        b = random_root_braiding(rng, 30)
        bt = Braiding(b.q11, b.q21, b.q12, b.q22)
        for m in range(1, 6):
            words = basis_words(m)
            rev = [words.index(w[::-1]) for w in words]
            s, st = symmetrizer(b, m), symmetrizer(bt, m)
            for u in range(len(words)):
                for v in range(len(words)):
                    assert s[u][v] == st[v][u], (b, words[u], words[v])
                    assert s[u][v] == st[rev[u]][rev[v]], (b, words[u], words[v])
                    assert s[u][v] == s[rev[v]][rev[u]], (b, words[u], words[v])
                    entries += 1
        clear_caches()
    assert entries == 12 * sum(4 ** m for m in range(1, 6))


def test_column_words_select_full_rank_columns():
    # The exact ranks read the columns at reversed words: the oracle at
    # R(w) + (j,) for the basis words w of the bidegrees below, and
    # `verify_type` at the reversed basis words of its bidegree.  In the
    # block over every word, the columns at the reversed basis words must
    # have the full rank (step b of the nicholscore docstring).
    from nichols2._linalg import exact_rank_vectors
    from nichols2.braidedalg import _engine
    from nichols2.classify import fixtures

    for b in fixtures().values():
        hilbert_prefix(b, 6)
        eng = _engine(b)
        for m in range(7):
            for r in range(m + 1):
                basis = eng.pivot_words.get((r, m - r), [])
                words, rows = full_block(b, r, m - r)
                at = [words.index(w[::-1]) for w in basis]
                sub = [[row[j] for j in at] for row in rows]
                assert exact_rank_vectors(sub, eng.conductor) == len(basis), (b, r, m - r)


def test_dim_at_degree_on_a_cold_engine(monkeypatch):
    from nichols2 import braidedalg
    from nichols2.braidedalg import _engine, clear_caches
    from nichols2.classify import fixtures

    for key in ((2, 1), (7, 1), (15, 1)):
        b = fixtures()[key]
        clear_caches()
        prefix = hilbert_prefix(b, 6)
        clear_caches()
        assert dim_at_degree(b, 6) == prefix[6]
        clear_caches()
        assert [dim_at_degree(b, m) for m in (4, 1, 6, 0, 3, 5, 2)] == \
            [prefix[m] for m in (4, 1, 6, 0, 3, 5, 2)]
    # The Cartan A2 braiding has top degree 8: degree 9 ranks the two
    # products of the top word to 0, so degree 10 has no candidates and no
    # bidegree of degree 10 is ranked.  The oracle images no word at all: it
    # takes no skew derivation.
    clear_caches()
    derivations = []

    def counted(*args):
        derivations.append(args)
        return skew_derivation(*args)

    skew_derivation = braidedalg.skew_derivation
    monkeypatch.setattr(braidedalg, "skew_derivation", counted)
    assert list(hilbert_prefix(cartan_a2(), 10)) == [1, 2, 4, 4, 5, 4, 4, 2, 1, 0, 0]
    eng = _engine(cartan_a2())
    assert max(map(sum, eng.pivot_words)) == 9 and derivations == []


def test_tau0_coefficients_are_integral_at_the_engine_conductor():
    # The exact rank takes integer coordinates only: on every family sample,
    # each coefficient of tau0 on a PBW generator node of its own tree has
    # int coordinates at the engine's conductor.
    from nichols2.braidedalg import _engine
    from nichols2.classify import fixtures

    for (n, _), b in sorted(fixtures().items()):
        t, conductor = TREES[n], _engine(b).conductor
        for a in t.nbar2():
            for c in tau0(t, b, a).terms.values():
                assert all(type(x) is int for x in c._lift(conductor)), (n, a, c)


def colex_leads(t, b, n):
    """The colex-largest word of the expanded tau0 at each extended inner node
    of weight at most n: the reference for the words `verify_type` reads."""
    return {a: max(tau0(t, b, a).terms, key=lambda w: w[::-1])
            for a in t.nbar2() if t.weight(a) <= n}


def test_leading_words_are_the_oracle_basis_words():
    # On every family sample through degree 8, at every bidegree, the
    # monomials' leading words are distinct and are the oracle's basis
    # words, so the word comparison alone proves each fixture's independence.
    # Each leading word is that of the expanded monomial (step 2 of the
    # nicholscore docstring), checked through degree 6.
    from nichols2.braidedalg import _engine
    from nichols2.classify import fixtures
    from nichols2.nicholscore import _leading_word, _monomials_by_bidegree

    bidegrees = 0
    for (n, _), b in sorted(fixtures().items()):
        t = TREES[n]
        hilbert_prefix(b, 8)
        leads = colex_leads(t, b, 8)
        groups = _monomials_by_bidegree(t, pbw_monomials(t, b, 8))
        for (r, s), basis in _engine(b).pivot_words.items():
            if 2 <= r + s <= 8:
                words = [_leading_word(mo, leads) for mo in groups.get((r, s), [])]
                assert len(set(words)) == len(words), (n, r, s)
                assert sorted(words) == sorted(basis), (n, r, s)
                bidegrees += 1
        for mo in pbw_monomials(t, b, 6):
            poly = evaluate_monomial(t, b, mo)
            assert max(poly.terms, key=lambda w: w[::-1]) == _leading_word(mo, leads), (n, mo)
    assert bidegrees > 1000


def test_generator_leading_words_are_the_lyndon_words():
    # The colex-largest word of tau0 at a node is its Lyndon word gamma,
    # read backwards with the letters a -> x2 and b -> x1 (as tau0 seeds
    # them), at every node of weight at most 9 of every family sample.
    from nichols2.classify import fixtures
    from nichols2.lyndon import gamma

    nodes = 0
    for (n, _), b in sorted(fixtures().items()):
        t = TREES[n]
        lyndon = gamma(t)
        for a, lead in colex_leads(t, b, 9).items():
            assert lead == tuple({"a": 2, "b": 1}[x] for x in reversed(lyndon[a])), (n, a)
            nodes += 1
    assert nodes == 194


def test_verify_type_expands_no_bracket_for_its_leading_words(monkeypatch):
    # The leading word of each node bracket is read off its Lyndon word
    # (step 2 of the nicholscore docstring), and every family sample's words
    # agree with the oracle's through degree 8, so no bracket is expanded.
    from nichols2 import nicholscore
    from nichols2.classify import fixtures

    calls = []

    def counting(t, b, a):
        calls.append(a)
        return tau0(t, b, a)

    monkeypatch.setattr(nicholscore, "tau0", counting)
    for (n, _), b in sorted(fixtures().items()):
        assert verify_type(TREES[n], b, 8)
    assert calls == []


# The (family sample, tree) pairs of the type-verification gate whose
# monomial counts match the oracle through degree 5 but whose leading words
# differ from its basis words at some bidegree.
_WORDS_DIFFER = {
    ((8, 1), 14), ((8, 1), 20), ((8, 1), 21), ((8, 4), 14), ((11, 1), 14),
    ((13, 1), 14), ((13, 1), 20), ((13, 1), 21), ((14, 1), 8), ((14, 1), 11),
    ((14, 1), 13), ((14, 1), 19), ((19, 1), 14), ((19, 1), 20), ((19, 1), 21),
    ((20, 1), 8), ((21, 1), 8), ((21, 1), 11), ((21, 1), 13), ((21, 1), 19),
}


def test_word_check_on_every_fixture_and_tree(monkeypatch):
    # Over the pairs of the type-verification gate, the words differ only on
    # the pinned pairs.  The exact rank then decides each such bidegree:
    # every pinned pair is found dependent, every "dependent" verdict is an
    # exact rank below its group's size, and 11 groups whose words differ
    # are independent all the same.
    from nichols2 import nicholscore
    from nichols2.classify import fixtures

    exact = nicholscore._exact_monomial_rank
    ranks = []  # (rank, group size) per exact rank of the current pair

    def recording(t, b, eng, group, words):
        ranks.append((exact(t, b, eng, group, words), len(group)))
        return ranks[-1][0]

    monkeypatch.setattr(nicholscore, "_exact_monomial_rank", recording)
    differ, dependent, independent = set(), set(), 0
    for key, b in sorted(fixtures().items()):
        for n, t in sorted(TREES.items()):
            ranks.clear()
            try:
                verdict = verify_type(t, b, 5)
            except NicholsError:
                assert not ranks
                continue
            if ranks:
                differ.add((key, n))
            if "dependent" in (verdict.detail or ""):
                dependent.add((key, n))
                rank, size = ranks[-1]
                assert rank < size and f"(rank {rank} of {size})" in verdict.detail
                independent += len(ranks) - 1
            else:
                assert all(rank == size for rank, size in ranks)
                independent += len(ranks)
    assert differ == dependent == _WORDS_DIFFER
    assert independent == 11


def test_fixture_matrix_builds_no_exact_monomial_rows(monkeypatch):
    from nichols2 import nicholscore
    from nichols2.classify import run_fixture_matrix

    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate_monomial(*args)

    monkeypatch.setattr(nicholscore, "evaluate_monomial", counted)
    rows = run_fixture_matrix(8)
    assert all(row.passed for row in rows)
    assert calls == []


def test_exact_rows_decide_every_shortfall(monkeypatch):
    # With the leading words differing from the basis words on every group,
    # the exact rows decide everything; the verdicts, dependent ones
    # included, must not change.
    from nichols2 import nicholscore
    from nichols2.classify import fixtures
    from nichols2.nicholscore import exact_rank_vectors

    def verdicts():
        out = []
        for b in fixtures().values():
            for key in (8, 14, 20):
                try:
                    out.append(verify_type(TREES[key], b, 5))
                except NicholsError as exc:
                    out.append(str(exc))
        return out

    compared = verdicts()
    blocks = []

    def recording(rows, conductor, pivot_rows=None, dependencies=None):
        blocks.append(rows)
        return exact_rank_vectors(rows, conductor, pivot_rows, dependencies)

    monkeypatch.setattr(nicholscore, "_leading_word", lambda mono, leads: ())
    monkeypatch.setattr(nicholscore, "exact_rank_vectors", recording)
    assert verdicts() == compared
    # The exact monomial rows, like the oracle's, have integer coordinates.
    assert blocks and all(type(c) is int for rows in blocks for row in rows
                          for vec in row for c in vec)
    assert sum("dependent" in (v.detail or "") for v in compared if not isinstance(v, str)) == 11


def test_verdict_truth_and_monomial_identity():
    # A verdict is true when it holds; a monomial is immutable, and equal
    # and hashed by its fields.
    v = TypeVerdict(False, 3, "predicted 4 monomials", (1, 2, 4), (1, 2, 3))
    assert not v and v.unexercised_nodes == ()
    assert TypeVerdict(holds=True, failed_degree=None, detail=None, counts=(1,), dims=(1,))
    mo = PBWMonomial((1, 2), (0, 1), (1, 2))
    same = PBWMonomial(nodes=(1, 2), exponents=(0, 1), weights=(1, 2))
    assert mo == same and hash(mo) == hash(same) and len({mo, same}) == 1
    assert mo != PBWMonomial((1, 2), (1, 0), (1, 2))
    with pytest.raises(AttributeError):
        mo.exponents = (1, 1)
