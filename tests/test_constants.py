import itertools
import math
import random

import pytest

from zerosum.groups import CYCLIC, Element, mk_cyclic, mk_metacyclic
from zerosum import constants
from zerosum.sequences import Sequence
from zerosum.constants import (
    InfeasibleSize,
    TEMPLATE_CYCLIC,
    TEMPLATE_D6,
    TEMPLATE_METACYCLIC,
    apply_automorphism,
    automorphisms,
    check_template,
    classify_extremal,
    davenport_constant,
    enumerate_free,
    gao_constant,
    orbit_sequences,
    template_instances,
    template_terms,
)
from zerosum.products import has_product_one, product_one_lengths

D6 = mk_metacyclic(3, 2)


def test_gao_small_cyclic():
    assert gao_constant(mk_cyclic(2)).value == 3
    assert gao_constant(mk_cyclic(3)).value == 5
    assert gao_constant(mk_cyclic(4)).value == 7


def test_gao_d6():
    rep = gao_constant(D6)
    assert rep.value == 9
    # every certificate is verified free and has length 8
    for cert in rep.certificates:
        assert cert.length == 8
        assert has_product_one(cert, 6) is None


def test_davenport_values():
    for n in range(2, 6):
        rep = davenport_constant(mk_cyclic(n))
        assert rep.value == n - 1
        assert any(cert.length == n - 1 for cert in rep.certificates)
    assert davenport_constant(mk_cyclic(1)).value == 0
    assert davenport_constant(D6).value == 3


def test_identity_e_equals_d_plus_order():
    for g in [mk_cyclic(n) for n in range(2, 6)] + [D6]:
        assert gao_constant(g).value == davenport_constant(g).value + g.order


def test_automorphism_group_sizes():
    assert len(automorphisms(D6)) == 6  # |Aut(D6)| = 3 * phi(3)
    assert len(automorphisms(mk_cyclic(6))) == 2
    assert len(automorphisms(mk_cyclic(5))) == 4
    # the maps really are automorphisms
    for g in (D6, mk_metacyclic(15, 11), mk_cyclic(8)):
        els = g.elements()
        for perm in automorphisms(g):
            assert sorted(perm) == list(range(g.order))
            for u in els:
                for v in els:
                    lhs = perm[g.element_index(g.mul(u, v))]
                    rhs = g.element_index(
                        g.mul(g.element_at(perm[g.element_index(u)]),
                              g.element_at(perm[g.element_index(v)]))
                    )
                    assert lhs == rhs


def _unpruned_free_set(g, length, k):
    """Oracle: every multiset of the length, tested one by one, no orbits."""
    out = set()
    for combo in itertools.combinations_with_replacement(g.elements(), length):
        seq = Sequence.from_terms(g, combo)
        free = not product_one_lengths(seq) if k is None else has_product_one(seq, k) is None
        if free:
            out.add(seq)
    return out


@pytest.mark.parametrize(
    "g", [mk_cyclic(5), mk_cyclic(6), D6, mk_metacyclic(3, 1)], ids=["C5", "C6", "D6", "C3xC2"]
)
def test_level_enumeration_matches_unpruned_oracle(g):
    # orbit-expanded representatives equal the brute-force free set at every length
    top = {g.order: gao_constant(g).value, None: davenport_constant(g).value + 1}
    for k, last in top.items():
        for length in range(last + 1):
            reps = enumerate_free(g, length, k)
            expanded = {s for rep in reps for s in orbit_sequences(rep)}
            assert len(expanded) == sum(len(orbit_sequences(rep)) for rep in reps)
            assert expanded == _unpruned_free_set(g, length, k), (k, length)


def test_classify_d6():
    fams = classify_extremal(D6, 8, 6)
    names = {f.template for f in fams}
    assert names == {TEMPLATE_D6, TEMPLATE_METACYCLIC}
    by_name = {f.template: f for f in fams}
    assert len(by_name[TEMPLATE_D6].representatives) == 1
    # every representative is free and matches its family's template
    for fam in fams:
        for rep in fam.representatives:
            assert has_product_one(rep, 6) is None
            assert check_template(rep).name == fam.template


def test_classify_cyclic():
    fams = classify_extremal(mk_cyclic(5), 13, 10)
    assert [f.template for f in fams] == [TEMPLATE_CYCLIC]
    fams3 = classify_extremal(mk_cyclic(3), 7, 6)
    assert [f.template for f in fams3] == [TEMPLATE_CYCLIC]


def test_check_template_examples():
    g = mk_metacyclic(15, 11)
    good = Sequence.from_counts(g, {Element(0, 1): 29, Element(0, 2): 14, Element(1, 7): 1})
    m = check_template(good)
    assert m is not None and m.name == TEMPLATE_METACYCLIC
    t1, t2, _ = m.params
    assert math.gcd(t1 - t2, 15) == 1
    # gcd(t1 - t2, 3 n2) = 3 must not match
    bad = Sequence.from_counts(g, {Element(0, 1): 29, Element(0, 4): 14, Element(1, 7): 1})
    assert check_template(bad) is None
    special = Sequence.from_counts(
        D6, {Element(0, 0): 5, Element(1, 0): 1, Element(1, 1): 1, Element(1, 2): 1}
    )
    assert check_template(special).name == TEMPLATE_D6
    # wrong multiplicity pattern
    assert check_template(Sequence.from_counts(g, {Element(0, 1): 30, Element(0, 2): 13, Element(1, 0): 1})) is None


def test_metacyclic_template_parameters():
    # generators are (x, y) and the parameters (t1, t2, t3) are the exponents of
    # y^t1, y^t2 and x*y^t3, also where x*y^c is an involution for some c > 0
    for n, s in ((3, 2), (5, 4), (8, 3), (15, 11)):
        g = mk_metacyclic(n, s)
        seq = Sequence.from_counts(g, {Element(0, 1): 2 * n - 1, Element(0, 2): n - 1, Element(1, n - 1): 1})
        m = check_template(seq)
        assert m.generators == (Element(1, 0), Element(0, 1))
        assert m.params == (1, 2, n - 1)


def test_template_instances_are_free():
    for s in template_instances(mk_cyclic(4), TEMPLATE_CYCLIC):
        assert has_product_one(s, 8) is None
    count = sum(1 for _ in template_instances(D6, TEMPLATE_METACYCLIC))
    assert count == 18  # 3 choices of (t1,t2) with gcd(t1-t2,3)=1 ... times 3 positions
    # template instances of foreign kinds are empty
    assert list(template_instances(D6, TEMPLATE_CYCLIC)) == []


TEMPLATE_GROUPS = [mk_cyclic(n) for n in range(1, 9)] + [
    D6,
    mk_metacyclic(4, 3),  # D8
    mk_metacyclic(5, 4),  # D10
    mk_metacyclic(3, 1),  # C3 x C2
    mk_metacyclic(8, 3),
    mk_metacyclic(15, 11),  # G30
]
TEMPLATE_IDS = ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "D6", "D8", "D10", "C3xC2", "n8s3", "G30"]


@pytest.mark.parametrize("g", TEMPLATE_GROUPS, ids=TEMPLATE_IDS)
def test_template_generator_and_matcher_agree(g):
    instances = set()
    for name in (TEMPLATE_CYCLIC, TEMPLATE_METACYCLIC, TEMPLATE_D6):
        found = list(template_instances(g, name))
        assert len(set(found)) == len(found)
        for s in found:
            m = check_template(s)
            assert m is not None and m.name == name
            if name != TEMPLATE_D6:  # the parameters rebuild the sequence
                assert Sequence.from_counts(g, template_terms(g, *m.params)) == s
        instances.update(found)
    if g.n < 2:  # y^t1 and y^t2 would coincide
        assert instances == set()
    # a match exactly when the sequence is an instance: on raw template shapes
    # with any parameters and 0-2 reflections, and on instances with one term
    # overwritten
    rng = random.Random(g.order)
    pool = sorted(instances, key=lambda s: s.counts)
    els = g.elements()
    for _ in range(200):
        params = [rng.randrange(g.n) for _ in range(2 if g.kind == CYCLIC else rng.randrange(2, 5))]
        s = Sequence.from_counts(g, template_terms(g, *params))
        assert (check_template(s) is not None) == (s in instances)
        if pool:
            s = rng.choice(pool)
            old = rng.choice(s.support)
            s = s.remove(Sequence.from_terms(g, [old])).concat(Sequence.from_terms(g, [rng.choice(els)]))
            assert (check_template(s) is not None) == (s in instances)


def test_infeasible_guard():
    with pytest.raises(InfeasibleSize):
        enumerate_free(mk_metacyclic(15, 11), 44, 30)
    with pytest.raises(InfeasibleSize):
        gao_constant(mk_metacyclic(15, 11))


@pytest.mark.parametrize(
    "g", [mk_metacyclic(8, s) for s in (7, 1, 3, 5)] + [mk_cyclic(16)],
    ids=["D16", "n8s1", "n8s3", "n8s5", "C16"],
)
def test_order_16_gao_is_infeasible_before_enumerating(g):
    # the estimate of the first tested level fires before any level is grown;
    # a level grown too large would report its own size instead
    with pytest.raises(InfeasibleSize) as err:
        gao_constant(g)
    order = g.order
    assert err.value.estimate == math.comb(2 * order - 2, order - 1) // len(automorphisms(g)) * order


def test_longest_free_level():
    g = mk_cyclic(5)
    assert enumerate_free(g, None, 5) == enumerate_free(g, 8, 5) == list(gao_constant(g).certificates)
    assert enumerate_free(g, None, None) == enumerate_free(g, 4, None)
    with pytest.raises(InfeasibleSize):  # y^j is 2-product-one free at every length
        enumerate_free(mk_cyclic(3), None, 2)


def test_davenport_ceiling(monkeypatch):
    # d(G30) = 15 finishes under the default ceiling, in about 10 s
    monkeypatch.setattr(constants, "DEFAULT_CEILING", 1000)
    with pytest.raises(InfeasibleSize) as err:
        davenport_constant(mk_metacyclic(15, 11))
    assert err.value.ceiling == 1000


def test_apply_automorphism_preserves_freeness():
    rep = gao_constant(D6).certificates[0]
    for perm in automorphisms(D6):
        img = apply_automorphism(rep, perm)
        assert img.length == rep.length
        assert has_product_one(img, 6) is None
