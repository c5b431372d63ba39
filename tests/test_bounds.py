import itertools
import random

import pytest

from zerosum.groups import Element, mk_cyclic, mk_metacyclic, stabilizer
from zerosum.sequences import Sequence
from zerosum.bounds import dgm_check, dgm_rhs
from zerosum.products import subproducts


def test_stabilizer_examples():
    g = mk_metacyclic(15, 11)
    assert stabilizer(g, [g.identity]).order == 1
    assert stabilizer(g, g.elements()).order == g.order
    y3 = frozenset(Element(0, a) for a in range(0, 15, 3))  # <y^3>
    assert stabilizer(g, y3).members == y3
    # stabilizer really stabilizes, exhaustively
    members = frozenset([Element(0, 0), Element(0, 5), Element(0, 10)])
    st2 = stabilizer(g, members)
    for u in st2.members:
        assert frozenset(g.mul(u, a) for a in members) == members


def test_dgm_single_orbit_cases():
    # S = g^[n] over C_n: Pi_n = {1}, bound degenerates but holds
    for n in (3, 5, 8):
        g = mk_cyclic(n)
        s = Sequence.from_counts(g, {Element(0, 1): n})
        rep = dgm_check(s, n)
        assert rep.lhs == 1 and rep.holds
    # all-identity sequences
    g = mk_cyclic(7)
    s = Sequence.from_counts(g, {Element(0, 0): 10})
    for n in (1, 5, 10):
        rep = dgm_check(s, n)
        assert rep.lhs == 1 and rep.holds


def test_dgm_rejects_nonabelian():
    g = mk_metacyclic(3, 2)
    s = Sequence.from_terms(g, [Element(0, 1)] * 3)
    with pytest.raises(ValueError):
        dgm_check(s, 2)


def test_dgm_accepts_abelian_metacyclic():
    g = mk_metacyclic(5, 1)  # C5 x C2, abelian
    s = Sequence.from_terms(g, [Element(1, 1), Element(0, 2), Element(1, 3), Element(0, 0)])
    rep = dgm_check(s, 2)
    assert rep.holds


def test_dgm_rhs_formula_by_hand():
    # S over C_6 with terms 1,1,2: Pi_2 = {1+1, 1+2} = {2,3}; H trivial;
    # coset tallies are the multiplicities: min(2,2)+min(2,1) - 2 + 1 = 2 (tight)
    g = mk_cyclic(6)
    s = Sequence.from_counts(g, {Element(0, 1): 2, Element(0, 2): 1})
    sub = subproducts(s, 2)
    assert sorted(el.a for el in sub.members) == [2, 3]
    assert sub.stabilizer.order == 1
    assert dgm_rhs(s, 2, sub.stabilizer) == 2
    rep = dgm_check(s, 2)
    assert rep.lhs == 2 and rep.rhs == 2 and rep.holds


def test_dgm_vacuous_rhs_not_clamped():
    # a single coset with few terms drives the parenthesized sum below zero
    g = mk_cyclic(9)
    s = Sequence.from_counts(g, {Element(0, 1): 2})
    rep = dgm_check(s, 2)
    assert rep.lhs == 1
    assert rep.rhs <= 1
    assert rep.holds


def test_dgm_randomized_with_exhaustive_lhs():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(2, 13)
        g = mk_cyclic(m)
        length = rng.randrange(1, 9)
        terms = [Element(0, rng.randrange(m)) for _ in range(length)]
        s = Sequence.from_terms(g, terms)
        n = rng.randrange(1, length + 1)
        rep = dgm_check(s, n)
        # independent lhs: all n-subsets by index
        expect = {sum(t.a for t in combo) % m for combo in itertools.combinations(terms, n)}
        assert rep.lhs == len(expect)
        assert rep.holds, f"bound violated: {rep}"
