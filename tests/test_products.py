import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zerosum.groups import Element, mk_cyclic, mk_metacyclic
from zerosum.sequences import Sequence
from zerosum.products import (
    BudgetExceeded,
    ProductWitness,
    find_arrangement,
    format_witness_line,
    has_product_one,
    parse_witness_line,
    pi_set,
    product_one_lengths,
    products_with_arranger,
    subproducts,
    verify_witness,
)

D6 = mk_metacyclic(3, 2)
G30 = mk_metacyclic(15, 11)
KERNEL_GROUPS = [
    mk_metacyclic(8, 3),
    mk_metacyclic(8, 5),
    mk_metacyclic(12, 7),
    mk_metacyclic(5, 4),  # D10
    G30,
    mk_metacyclic(6, 1),  # C_6 x C_2
    mk_cyclic(4),
    mk_cyclic(7),
]


def seq_of(g, *terms):
    return Sequence.from_terms(g, terms)


def brute_pi(g, terms, k):
    """Independent factorial oracle: all ordered k-arrangements by position."""
    out = set()
    for arr in itertools.permutations(terms, k):
        prod = g.identity
        for el in arr:
            prod = g.mul(prod, el)
        out.add(prod)
    return out


def test_pi_examples():
    x = Element(1, 0)
    assert pi_set(seq_of(D6, x, x)) == frozenset([D6.identity])
    # pi(xy^a . xy^b) = {y^(as+b), y^(bs+a)}
    got = pi_set(seq_of(G30, Element(1, 2), Element(1, 3)))
    assert got == frozenset([Element(0, (2 * 11 + 3) % 15), Element(0, (3 * 11 + 2) % 15)])
    # abelian: always a singleton
    c9 = mk_cyclic(9)
    s = Sequence.from_counts(c9, {Element(0, 2): 4, Element(0, 5): 3})
    assert pi_set(s) == frozenset([Element(0, (8 + 15) % 9)])


def test_pi_matches_oracle_small():
    rng = random.Random(0)
    for g in (D6, G30, mk_metacyclic(4, 3)):
        els = g.elements()
        for _ in range(40):
            terms = [rng.choice(els) for _ in range(rng.randrange(1, 7))]
            assert pi_set(Sequence.from_terms(g, terms)) == brute_pi(g, terms, len(terms))


def test_pi_single_commutator_coset():
    # all of pi(S) lies in one coset of the commutator subgroup <y^(s-1)>,
    # whose members are the multiples of gcd(n, s-1)
    import math

    rng = random.Random(3)
    for g in (D6, G30, mk_metacyclic(9, 8), mk_metacyclic(15, 4)):
        d = math.gcd(g.n, g.s - 1)
        comm = {Element(0, a) for a in range(0, g.n, d)}
        els = g.elements()
        for _ in range(30):
            terms = [rng.choice(els) for _ in range(rng.randrange(1, 7))]
            members = sorted(pi_set(Sequence.from_terms(g, terms)))
            base = members[0]
            coset = {g.mul(base, c) for c in comm}
            assert set(members) <= coset


def test_subproducts_examples():
    s = Sequence.from_counts(G30, {Element(0, 1): 3, Element(1, 2): 1})
    assert subproducts(s, 0).members == frozenset([G30.identity])
    assert subproducts(s, 1).members == frozenset(s.support)
    # whole-group subproduct set has the whole group as stabilizer
    full = Sequence.from_terms(D6, D6.elements() * 2)
    sub = subproducts(full, 6)
    if sub.members == frozenset(D6.elements()):
        assert sub.stabilizer.order == D6.order


def test_subproducts_match_oracle():
    rng = random.Random(1)
    groups = [mk_cyclic(n) for n in (2, 5, 9)] + [D6, mk_metacyclic(5, 4)]
    for _ in range(60):
        g = rng.choice(groups)
        els = g.elements()
        terms = [rng.choice(els) for _ in range(rng.randrange(1, 8))]
        n = rng.randrange(0, len(terms) + 1)
        got = subproducts(Sequence.from_terms(g, terms), n).members
        assert got == brute_pi(g, terms, n)


def test_abelian_dp_against_subset_oracle():
    # bounded-knapsack path vs explicit subset enumeration over Z_m
    rng = random.Random(2)
    for _ in range(50):
        m = rng.randrange(2, 12)
        g = mk_cyclic(m)
        terms = [Element(0, rng.randrange(m)) for _ in range(rng.randrange(1, 10))]
        n = rng.randrange(0, len(terms) + 1)
        got = {el.a for el in subproducts(Sequence.from_terms(g, terms), n).members}
        expect = {sum(c) % m for c in itertools.combinations([t.a for t in terms], n)}
        assert got == expect


def test_has_product_one_examples():
    id6 = Sequence.from_counts(D6, {D6.identity: 6})
    w = has_product_one(id6, 6)
    assert w is not None and w.elements == (D6.identity,) * 6
    # known free sequences stay free
    ext = Sequence.from_counts(G30, {Element(0, 1): 29, Element(0, 2): 14, Element(1, 7): 1})
    assert has_product_one(ext, 30) is None
    d6_free = Sequence.from_counts(
        D6, {D6.identity: 5, Element(1, 0): 1, Element(1, 1): 1, Element(1, 2): 1}
    )
    assert has_product_one(d6_free, 6) is None
    assert has_product_one(Sequence.from_terms(D6, [Element(0, 1)]), 0) is not None


def test_witness_roundtrip_and_verification():
    rng = random.Random(4)
    els = G30.elements()
    found = 0
    for _ in range(60):
        terms = [rng.choice(els) for _ in range(rng.randrange(2, 9))]
        s = Sequence.from_terms(G30, terms)
        k = rng.randrange(1, len(terms) + 1)
        w = has_product_one(s, k)
        if w is None:
            continue
        found += 1
        ok, reason = verify_witness(s, w)
        assert ok, reason
        assert w.k == k
    assert found > 5


def test_verify_witness_rejections():
    s = seq_of(D6, Element(1, 0), Element(0, 1))
    bad = ProductWitness((Element(0, 2),), D6.identity)
    assert verify_witness(s, bad) == (False, "not-a-subsequence")
    wrong = ProductWitness((Element(1, 0), Element(0, 1)), D6.identity)
    ok, reason = verify_witness(s, wrong)
    assert not ok and reason == "wrong-product"
    # hand-checked: x . y . x = y^s = y^2 in D6
    s2 = seq_of(D6, Element(1, 0), Element(1, 0), Element(0, 1))
    w = ProductWitness((Element(1, 0), Element(0, 1), Element(1, 0)), Element(0, 2))
    assert verify_witness(s2, w) == (True, "ok")


def test_find_arrangement_targets():
    s = seq_of(D6, Element(1, 0), Element(1, 0), Element(0, 1))
    w = find_arrangement(s, 3, Element(0, 2))
    assert w is not None
    assert verify_witness(s, w, Element(0, 2))[0]
    assert find_arrangement(s, 1, Element(0, 2)) is None


def test_single_x_term_cannot_join_identity_products():
    s = Sequence.from_counts(G30, {Element(0, 3): 6, Element(1, 2): 1})
    for k in (5, 7):
        w = has_product_one(s, k)
        if w is not None:
            assert all(el.eps == 0 for el in w.elements)
    assert has_product_one(s, 7) is None  # would need the x-term


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 14)), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 14)), min_size=0, max_size=4),
       st.integers(1, 8))
def test_monotonicity_under_supersequences(base, extra, k):
    s = Sequence.from_terms(G30, (Element(*t) for t in base))
    if k > s.length:
        return
    w = has_product_one(s, k)
    if w is None:
        return
    bigger = s.concat(Sequence.from_terms(G30, (Element(*t) for t in extra)))
    assert has_product_one(bigger, k) is not None


def test_product_one_lengths():
    s = Sequence.from_counts(mk_cyclic(4), {Element(0, 2): 2, Element(0, 1): 1})
    assert product_one_lengths(s) == [2]
    s2 = seq_of(D6, Element(1, 0), Element(1, 0), Element(0, 1))
    assert product_one_lengths(s2) == [2]


def test_budget_exceeded():
    rng = random.Random(5)
    els = G30.elements()
    terms = [rng.choice(els) for _ in range(20)]
    s = Sequence.from_terms(G30, terms)
    with pytest.raises(BudgetExceeded):
        pi_set(s, budget=50)


def test_products_with_arranger():
    c5c2 = mk_metacyclic(5, 1)  # C5 x C2
    for s in (
        seq_of(D6, Element(1, 0), Element(1, 1), Element(0, 1)),
        Sequence.from_counts(c5c2, {Element(0, 2): 3, Element(1, 1): 2, Element(1, 4): 1}),
    ):
        g = s.group
        members, arrange = products_with_arranger(s)
        if g.is_abelian:
            assert members == {Element(1, 2)}
        for target in sorted(members):
            arr = arrange(target)
            prod = g.identity
            for el in arr:
                prod = g.mul(prod, el)
            assert prod == target and len(arr) == s.length
            assert verify_witness(s, ProductWitness(arr, target)) == (True, "ok")
        missing = next(el for el in g.elements() if el not in members)
        with pytest.raises(KeyError):
            arrange(missing)


def test_stabilizer_of_subproducts():
    # a <y^3>-closed member set is stabilized by exactly <y^3>
    s = Sequence.from_counts(G30, {Element(0, 3): 10, Element(0, 6): 5})
    sub = subproducts(s, 5)
    assert all(el.a % 3 == 0 and el.eps == 0 for el in sub.members)
    if len(sub.members) == 5:
        assert sub.stabilizer.order == 5
    # the stabilizer is exactly the set of u with u*Pi = Pi, element by element
    brute = {
        u for u in G30.elements()
        if frozenset(G30.mul(u, a) for a in sub.members) == sub.members
    }
    assert brute == sub.stabilizer.members


def test_witness_line_roundtrip():
    w = ProductWitness((Element(1, 0), Element(0, 1), Element(1, 0)), Element(0, 2))
    line = format_witness_line(w)
    assert line == "witness k=3 target=y^2 : x y^1 x"
    assert parse_witness_line(line, D6) == w
    with pytest.raises(ValueError):
        parse_witness_line("witness k=2 target=1 : x", D6)
    with pytest.raises(ValueError):
        parse_witness_line("no colon here", D6)


def test_k_beyond_length_has_no_arrangement():
    s = seq_of(D6, Element(1, 0), Element(0, 1))
    assert has_product_one(s, 3) is None
    assert find_arrangement(s, 99, Element(0, 1)) is None
    with pytest.raises(ValueError):
        find_arrangement(s, -1, D6.identity)


def test_budget_contract(monkeypatch):
    s = Sequence.from_terms(G30, [Element(e, a) for e in (0, 1) for a in range(15)])
    with pytest.raises(ValueError):
        subproducts(s, 3, budget=-5)
    with pytest.raises(BudgetExceeded) as info:
        pi_set(s, budget=10)
    assert info.value.limit == 10 and info.value.used > 10
    assert "DP cells" in str(info.value)
    monkeypatch.setenv("ZEROSUM_BUDGET", "abc")
    with pytest.raises(ValueError):
        subproducts(s, 3)
    monkeypatch.setenv("ZEROSUM_BUDGET", "-1")
    with pytest.raises(ValueError):
        has_product_one(s, 3)


def test_kernel_memory_follows_budget():
    # the y-lanes hold only the copy counts a query charges: 2 * 10**6 copies
    # of two y-terms cost 75 cells, not lanes over every count up to the length
    s = Sequence.from_counts(G30, {Element(0, 1): 10**6, Element(0, 2): 10**6, Element(1, 3): 1})
    expect = {Element(1, 3), Element(1, 8), Element(1, 13)}
    assert pi_set(s, budget=75) == expect
    with pytest.raises(BudgetExceeded) as info:
        pi_set(s, budget=74)
    assert info.value.used == 75 and info.value.limit == 74
    tracemalloc.start()
    try:
        assert pi_set(s) == expect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the backtrack visits the same live slots, so arranging 4001 terms is quick
    s = Sequence.from_counts(G30, {Element(0, 1): 2000, Element(0, 2): 2000, Element(1, 3): 1})
    start = time.perf_counter()
    members, arrange = products_with_arranger(s)
    arrangements = [(target, arrange(target)) for target in members]
    assert time.perf_counter() - start < 0.5
    assert members == expect
    for target, arr in arrangements:
        assert verify_witness(s, ProductWitness(arr, target), target) == (True, "ok")
    # the empty sequence still spends nothing
    empty = Sequence.from_terms(G30, [])
    assert subproducts(empty, 0, budget=0).members == {G30.identity}
    assert pi_set(empty, budget=0) == {G30.identity}


def _law(g, u, v):
    # x^e1 y^a1 * x^e2 y^a2 = x^(e1+e2) y^(a1*s^e2 + a2), written out apart from GroupSpec.mul
    return Element(u.eps ^ v.eps, (u.a * (g.s if v.eps else 1) + v.a) % g.n)


def _oracle_by_length(g, terms):
    """Products of every ordered k-arrangement, for each k, by position permutations."""
    out = {}
    for k in range(len(terms) + 1):
        prods = set()
        for arr in itertools.permutations(terms, k):
            prod = Element(0, 0)
            for el in arr:
                prod = _law(g, prod, el)
            prods.add(prod)
        out[k] = prods
    return out


def _sign_class_oracle(g, counts):
    """Pi_k for every k, as sets, from the class rule: t x-terms split
    ceil(t/2) into class 0 and floor(t/2) into class 1, y-terms take either
    class only when t >= 1, and a term x^e y^a in class c adds a*s^c."""
    n, s = g.n, g.s
    xs = [el.a for el, m in counts.items() if el.eps for _ in range(m)]
    xsums = set()  # (t, sum) over x-terms chosen by position
    for t in range(1, len(xs) + 1):
        for chosen in itertools.combinations(range(len(xs)), t):
            for ones in itertools.combinations(chosen, t // 2):
                xsums.add((t, sum(xs[i] * (s if i in ones else 1) for i in chosen) % n))
    only0, either = {(0, 0)}, {(0, 0)}  # (copies, sum) over y-terms
    for el, m in counts.items():
        if not el.eps:
            a = el.a
            opts0 = {(j, j * a % n) for j in range(m + 1)}
            opts = {
                (j0 + j1, (j0 + j1 * s) * a % n) for j0 in range(m + 1) for j1 in range(m + 1 - j0)
            }
            only0 = {(c + j, (v + w) % n) for c, v in only0 for j, w in opts0}
            either = {(c + j, (v + w) % n) for c, v in either for j, w in opts}
    out = {}
    for c, v in only0:
        out.setdefault(c, set()).add(Element(0, v))
    for t, xv in xsums:
        for c, v in either:
            out.setdefault(t + c, set()).add(Element(t % 2, (xv + v) % n))
    return out


def test_windowed_lanes_match_sign_class_oracle():
    # y-entries with 16-40 copies and k near the length start the t >= 1
    # lanes more than n copies into an entry, past where its rotations
    # repeat; over D18 a lone y^1 entry rotates with period n itself
    rng = random.Random(24)
    cases = [(mk_metacyclic(9, 8), {Element(0, 1): 20, Element(1, 1): 1})]
    for g in (G30, mk_metacyclic(8, 3), mk_metacyclic(12, 7)):
        els = g.elements()
        for _ in range(2):
            ys = rng.sample(els[1 : g.n], rng.randint(2, 3))
            counts = {el: rng.randint(16, 40) for el in ys}
            for el in rng.choices(els[g.n :], k=rng.randint(1, 3)):
                counts[el] = counts.get(el, 0) + 1
            cases.append((g, counts))
    for g, counts in cases:
        s = Sequence.from_counts(g, counts)
        expect = _sign_class_oracle(g, counts)
        length = s.length
        for k in (length, length - rng.randint(1, 3), length // 2):
            assert subproducts(s, k).members == expect[k]
            for target in g.elements():
                w = find_arrangement(s, k, target)
                if target in expect[k]:
                    assert w.k == k and verify_witness(s, w, target) == (True, "ok")
                else:
                    assert w is None
        assert product_one_lengths(s) == [
            k for k in range(1, length + 1) if g.identity in expect[k]
        ]
    # pinned cells of four queries: each answers under exactly that budget
    # and raises one cell below it
    g8, g12 = mk_metacyclic(8, 3), mk_metacyclic(12, 7)
    s1 = Sequence.from_counts(G30, {Element(1, 1): 10**4, Element(0, 1): 10**4})
    s2 = Sequence.from_counts(
        g8, {Element(0, 1): 40, Element(0, 3): 17, Element(1, 2): 1, Element(1, 5): 1}
    )
    s3 = Sequence.from_counts(
        g12, {Element(0, 5): 23, Element(0, 2): 31, Element(0, 9): 16, Element(1, 4): 2}
    )
    s4 = Sequence.from_counts(G30, {Element(0, 4): 20, Element(0, 7): 18, Element(1, 3): 3})
    queries = [
        (150_060, lambda b: subproducts(s1, 10**4, budget=b)),
        (504, lambda b: subproducts(s2, 29, budget=b)),
        (240, lambda b: find_arrangement(s3, 70, g12.identity, budget=b)),
        (2895, lambda b: product_one_lengths(s4, budget=b)),
    ]
    for cells, query in queries:
        query(cells)
        with pytest.raises(BudgetExceeded) as info:
            query(cells - 1)
        assert (info.value.used, info.value.limit) == (cells, cells - 1)


@st.composite
def _group_and_terms(draw):
    g = draw(st.sampled_from(KERNEL_GROUPS))
    els = g.elements()
    pool = draw(st.lists(st.sampled_from(els), min_size=1, max_size=2))
    # terms from a small pool repeat, so multiplicities above one get exercised
    terms = draw(st.lists(st.sampled_from(els), max_size=3)) + draw(
        st.lists(st.sampled_from(pool), max_size=3)
    )
    return g, terms


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_group_and_terms())
def test_sign_class_kernel_matches_permutation_oracle(case):
    g, terms = case
    s = Sequence.from_terms(g, terms)
    expect = _oracle_by_length(g, terms)
    for k in range(len(terms) + 1):
        assert subproducts(s, k).members == expect[k]
        for target in g.elements():
            w = find_arrangement(s, k, target)
            if target in expect[k]:
                assert w is not None and w.k == k
                assert verify_witness(s, w, target) == (True, "ok")
            else:
                assert w is None
    lengths = [k for k in range(1, len(terms) + 1) if g.identity in expect[k]]
    assert product_one_lengths(s) == lengths
    assert pi_set(s) == expect[len(terms)]
    members, arrange = products_with_arranger(s)
    assert members == expect[len(terms)]
    for target in members:
        w = ProductWitness(arrange(target), target)
        assert w.k == len(terms) and verify_witness(s, w, target) == (True, "ok")


def test_saturated_subset_sum_matches_combinations_oracle():
    # few residues with many copies fill a t = 0 slot's mask part-way through
    # its loop over copy counts: Pi_k and the product-one lengths must equal
    # the sums of k-subsets by position
    rng = random.Random(5)
    cases = []
    for g in (mk_cyclic(5), mk_cyclic(7), G30):  # G30 with y-terms only
        for _ in range(4):
            residues = rng.sample(range(1, g.n), rng.randrange(2, 4))
            cases.append((g, [Element(0, rng.choice(residues)) for _ in range(rng.randrange(10, 15))]))
    saturated = 0
    for g, terms in cases:
        s = Sequence.from_terms(g, terms)
        sums = [set() for _ in range(len(terms) + 1)]
        for k in range(len(terms) + 1):
            for combo in itertools.combinations(terms, k):
                sums[k].add(sum(el.a for el in combo) % g.n)
        for k, expect in enumerate(sums):
            assert subproducts(s, k).members == {Element(0, a) for a in expect}
        assert product_one_lengths(s) == [k for k in range(1, len(terms) + 1) if 0 in sums[k]]
        saturated += any(len(expect) == g.n for expect in sums)
    assert saturated >= len(cases) // 2


def test_pi_set_never_lists_terms(monkeypatch):
    # pi(S), of commuting terms too, is a DP over the support; the term list is
    # never built
    def no_terms(self):
        raise AssertionError("pi_set listed the terms")

    monkeypatch.setattr(Sequence, "terms", no_terms)
    ys = Sequence.from_counts(G30, {Element(0, 1): 7, Element(0, 4): 3})
    assert pi_set(ys) == {Element(0, 4)}
    c6c2 = mk_metacyclic(6, 1)
    mixed = Sequence.from_counts(c6c2, {Element(0, 5): 2, Element(1, 1): 3, Element(1, 4): 2})
    assert pi_set(mixed) == {Element(1, 3)}


def test_commuting_pi_charges_the_kernel():
    # commuting terms take the kernel like any other: n cells per support entry
    s = Sequence.from_counts(G30, {Element(0, 1): 3, Element(0, 2): 2})
    assert pi_set(s, budget=30) == {Element(0, 7)}
    with pytest.raises(BudgetExceeded) as info:
        pi_set(s, budget=29)
    assert info.value.used == 30 and info.value.limit == 29

