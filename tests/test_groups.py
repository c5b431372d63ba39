import math

import pytest
from hypothesis import given, settings, strategies as st

from zerosum.groups import (
    Element,
    GroupError,
    crt_scalars,
    factorize,
    format_element,
    format_group,
    mk_cyclic,
    mk_metacyclic,
    parse_element,
    parse_group,
    stabilizer,
    Subgroup,
)

SMALL_GROUPS = [
    mk_cyclic(1), mk_cyclic(2), mk_cyclic(6), mk_cyclic(15),
    mk_metacyclic(3, 2), mk_metacyclic(3, 1), mk_metacyclic(15, 11),
    mk_metacyclic(15, 4), mk_metacyclic(15, 1), mk_metacyclic(9, 8),
    mk_metacyclic(8, 3), mk_metacyclic(12, 5),
]


def test_mk_metacyclic_examples():
    assert mk_metacyclic(3, 2).order == 6
    assert mk_metacyclic(15, 1).order == 30
    assert mk_metacyclic(15, 11).order == 30
    with pytest.raises(GroupError, match=r"mod 15"):
        mk_metacyclic(15, 2)
    with pytest.raises(GroupError):
        mk_metacyclic(2, 1)


def test_twist_reduced_mod_n():
    assert mk_metacyclic(15, 26).s == 11
    assert mk_metacyclic(9, -1).s == 8


def test_mul_relations(d6, g30):
    x = Element(1, 0)
    assert d6.mul(x, x) == d6.identity
    # (x y^a)(x y^b) = y^(11a + b) in the order-30 group
    for a in range(15):
        for b in range(15):
            assert g30.mul(Element(1, a), Element(1, b)) == Element(0, (11 * a + b) % 15)


def test_inverses():
    for g in SMALL_GROUPS:
        for u in g.elements():
            assert g.mul(u, g.inv(u)) == g.identity
            assert g.mul(g.inv(u), u) == g.identity
    d6 = mk_metacyclic(3, 2)
    # reflections are involutions when s = -1
    for a in range(3):
        assert d6.inv(Element(1, a)) == Element(1, a)
    g30 = mk_metacyclic(15, 11)
    for a in range(15):
        assert g30.inv(Element(1, a)) == Element(1, (-a * 11) % 15)
        assert g30.inv(Element(0, a)) == Element(0, (-a) % 15)


def test_group_axioms_exhaustive():
    # associativity, identity, inverses for every group of order <= 30
    for g in SMALL_GROUPS:
        if g.order > 30:
            continue
        els = g.elements()
        for u in els:
            assert g.mul(g.identity, u) == u == g.mul(u, g.identity)
        for u in els:
            for v in els:
                for w in els:
                    assert g.mul(g.mul(u, v), w) == g.mul(u, g.mul(v, w))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=39))
def test_constructor_invariant(n, s):
    try:
        g = mk_metacyclic(n, s)
    except GroupError:
        assert (s * s) % n != 1 % n or not (0 <= s % n < n) or n < 3
        return
    assert (g.s * g.s) % g.n == 1 % g.n


def test_factorize_examples():
    f = factorize(mk_metacyclic(15, 11))
    assert (f.n1, f.n2) == (3, 5)
    f = factorize(mk_metacyclic(15, 4))
    assert (f.n1, f.n2) == (5, 3)
    f = factorize(mk_metacyclic(9, 8))
    assert (f.n1, f.n2) == (9, 1)


def test_factorize_invariants():
    for n in range(3, 40):
        for s in range(n):
            if (s * s) % n != 1 % n:
                continue
            g = mk_metacyclic(n, s)
            f = factorize(g)
            assert f.n1 * f.n2 == n
            assert (g.s + 1) % f.n1 == 0
            assert (g.s - 1) % f.n2 == 0
            assert math.gcd(f.n1, f.n2) in (1, 2)


def test_factorize_unique_for_odd_n():
    # for odd n the congruences pin the split prime power by prime power
    for n in range(3, 40, 2):
        for s in range(n):
            if (s * s) % n != 1:
                continue
            f = factorize(mk_metacyclic(n, s))
            assert f.n1 == math.gcd(n, s + 1)
            assert f.n2 == (n if s == 1 else math.gcd(n, s - 1))


def test_direct_decomposition_isomorphism():
    # CRT split of y in the order-30 group: 6 + 10 = 16 = 1 (mod 15),
    # with 6 in <y^3> and 10 in <y^5>
    assert crt_scalars(mk_metacyclic(15, 11)) == (6, 10)
    with pytest.raises(GroupError, match="not coprime"):
        crt_scalars(mk_metacyclic(8, 3))  # factorization (4, 2), gcd 2
    # for odd n with coprime factors, G is C_{n2} x D_{2n1}: check the map
    # u = x^e y^a -> (a*e1 component, (e, a*e2) component) is a bijective hom
    for g in (mk_metacyclic(15, 11), mk_metacyclic(15, 4), mk_metacyclic(9, 8)):
        f = factorize(g)
        e1, e2 = crt_scalars(g, f)
        d_part = mk_metacyclic(f.n1, (g.s % f.n1 + f.n1) % f.n1) if f.n1 >= 3 else mk_cyclic(1)
        w1 = (e1 // f.n1) % f.n2 if f.n2 > 1 else 0
        w2 = (e2 // f.n2) % f.n1 if f.n1 > 1 else 0

        def phi(u):
            return ((u.a * w1) % f.n2, (u.eps, (u.a * w2) % f.n1))

        images = {phi(u) for u in g.elements()}
        assert len(images) == g.order
        for u in g.elements():
            for v in g.elements():
                cu, du = phi(u)
                cv, dv = phi(v)
                cw, dw = phi(g.mul(u, v))
                assert cw == (cu + cv) % f.n2
                if f.n1 >= 3:
                    assert Element(*dw) == d_part.mul(Element(*du), Element(*dv))


def test_stabilizer_basics(g30):
    assert stabilizer(g30, [g30.identity]).order == 1
    assert stabilizer(g30, g30.elements()).order == g30.order
    y3 = frozenset(Element(0, a) for a in range(0, 15, 3))  # <y^3>
    assert stabilizer(g30, y3).members == y3
    with pytest.raises(GroupError):
        stabilizer(g30, [])


def test_subgroup_requires_closure(g30):
    c5 = mk_cyclic(5)
    y = Element(0, 1)
    for g, members in ((c5, set()), (c5, {y}), (c5, {c5.identity, y})):
        with pytest.raises(GroupError):
            Subgroup(g, frozenset(members))
    # {1, y^5, y^10, x}: closed under inverses, but y^5 * x = x*y^10 is outside
    members = frozenset({g30.identity, Element(0, 5), Element(0, 10), Element(1, 0)})
    assert all(g30.inv(u) in members for u in members)
    with pytest.raises(GroupError, match="multiplication"):
        Subgroup(g30, members)
    y3 = frozenset(Element(0, a) for a in range(0, 15, 3))  # <y^3>
    assert Subgroup(g30, y3).order == 5
    kernel = frozenset(Element(e, a) for e in (0, 1) for a in range(0, 15, 5))  # <x, y^5>
    assert Subgroup(g30, kernel).order == 6


def test_literals_roundtrip():
    for g in SMALL_GROUPS:
        assert parse_group(format_group(g)) == g
        for u in g.elements():
            assert parse_element(format_element(u), g) == u
    g = mk_metacyclic(15, 11)
    assert parse_element("1", g) == Element(0, 0)
    assert parse_element("x", g) == Element(1, 0)
    assert parse_element("x*y^7", g) == Element(1, 7)
    assert parse_element("y^-1", g) == Element(0, 14)
    with pytest.raises(GroupError):
        parse_element("z^2", g)
    with pytest.raises(GroupError):
        parse_group("metacyclic n=15")
    # x is rejected for cyclic groups
    with pytest.raises(GroupError):
        parse_element("x", mk_cyclic(5))
