"""Finite metacyclic groups G = <x, y : x^2 = y^n = 1, yx = x y^s> and their cyclic parts.

Every element has the unique normal form x^eps * y^a with eps in {0,1} and
0 <= a < n; multiplication renormalizes immediately, so equality, hashing and
set membership are exact.  The degenerate no-x case (plain C_n) is the same
type with kind="cyclic" so that one multiplication kernel serves everything
downstream.

Also provides: the n = n1*n2 factorization with s = -1 (mod n1), s = +1
(mod n2); quotients by <y^d>; the coprime-part projections; subgroups as
explicit membership tables; set stabilizers; and the text literals used by
sequence files and the CLI (`metacyclic n=15 s=11`, `x*y^7`, ...).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

CYCLIC = "cyclic"
METACYCLIC = "metacyclic"


class GroupError(ValueError):
    """Invalid group parameters, elements, or subgroup/homomorphism requests."""


class Element(NamedTuple):
    """Group element x^eps * y^a in normal form."""

    eps: int
    a: int

    def __str__(self) -> str:
        return format_element(self)


@dataclass(frozen=True)
class GroupSpec:
    """A group <x, y : x^2 = y^n = 1, yx = x y^s>, or its cyclic part <y>.

    Invariants: 0 <= s < n, s^2 = 1 (mod n); for kind="cyclic" the twist is
    unused (stored as 1 mod n) and eps is always 0.  Instances are immutable
    and safe to share across threads.
    """

    n: int
    s: int
    kind: str = METACYCLIC

    def __post_init__(self):
        if self.kind not in (CYCLIC, METACYCLIC):
            raise GroupError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise GroupError(f"n must be positive, got {self.n}")
        if not 0 <= self.s < self.n:
            raise GroupError(f"twist s={self.s} not reduced mod n={self.n}")
        if self.kind == CYCLIC and self.s != 1 % self.n:
            raise GroupError("cyclic groups fix s = 1")
        if (self.s * self.s) % self.n != 1 % self.n:
            raise GroupError(
                f"s^2 = {self.s * self.s} != 1 (mod {self.n}): "
                f"{self.s}^2 mod {self.n} is {(self.s * self.s) % self.n}"
            )

    @property
    def order(self) -> int:
        return self.n if self.kind == CYCLIC else 2 * self.n

    @property
    def identity(self) -> Element:
        return Element(0, 0)

    @property
    def is_abelian(self) -> bool:
        return self.kind == CYCLIC or self.s == 1 % self.n

    def elements(self) -> tuple[Element, ...]:
        return _elements(self)

    def element_index(self, u: Element) -> int:
        return u.eps * self.n + u.a

    def element_at(self, idx: int) -> Element:
        return _elements(self)[idx]

    def contains(self, u: Element) -> bool:
        if not 0 <= u.a < self.n:
            return False
        if self.kind == CYCLIC:
            return u.eps == 0
        return u.eps in (0, 1)

    def check(self, u: Element) -> Element:
        if not self.contains(u):
            raise GroupError(f"element {format_element(u)} not valid for {format_group(self)}")
        return u

    def make(self, eps: int, a: int) -> Element:
        """Build an element, reducing the y-exponent mod n."""
        return self.check(Element(eps % 2, a % self.n))

    def mul(self, u: Element, v: Element) -> Element:
        # (eps1,a1)*(eps2,a2) = (eps1^eps2, a1*s^eps2 + a2), from yx = xy^s.
        return Element(u.eps ^ v.eps, (u.a * (self.s if v.eps else 1) + v.a) % self.n)

    def inv(self, u: Element) -> Element:
        if u.eps == 0:
            return Element(0, (-u.a) % self.n)
        return Element(1, (-u.a * self.s) % self.n)

    def power(self, u: Element, k: int) -> Element:
        if k < 0:
            return self.power(self.inv(u), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, u)
        return acc

    def element_order(self, u: Element) -> int:
        acc, k = u, 1
        while acc != self.identity:
            acc = self.mul(acc, u)
            k += 1
        return k

    def conjugate(self, h: Element, u: Element) -> Element:
        """h * u * h^-1."""
        return self.mul(self.mul(h, u), self.inv(h))


@functools.lru_cache(maxsize=None)
def _elements(g: GroupSpec) -> tuple[Element, ...]:
    els = [Element(0, a) for a in range(g.n)]
    if g.kind == METACYCLIC:
        els += [Element(1, a) for a in range(g.n)]
    return tuple(els)


@functools.lru_cache(maxsize=None)
def mul_table(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Cayley table on element indices (idx = eps*n + a)."""
    els = _elements(g)
    return tuple(
        tuple(g.element_index(g.mul(u, v)) for v in els) for u in els
    )


def mk_metacyclic(n: int, s: int) -> GroupSpec:
    """The order-2n group <x, y : x^2 = y^n = 1, yx = x y^s>; requires s^2 = 1 (mod n)."""
    if n < 3:
        raise GroupError(f"metacyclic construction needs n >= 3, got {n}")
    return GroupSpec(n=n, s=s % n, kind=METACYCLIC)


def mk_cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise GroupError(f"cyclic group needs n >= 1, got {n}")
    return GroupSpec(n=n, s=1 % n, kind=CYCLIC)


def dihedral(n: int) -> GroupSpec:
    """D_{2n} as the s = -1 twist."""
    return mk_metacyclic(n, n - 1)


# -- factorization n = n1 * n2 ------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """n = n1*n2 with s = -1 (mod n1), s = +1 (mod n2), gcd(n1,n2) in {1,2}."""

    n1: int
    n2: int

    @property
    def coprime(self) -> bool:
        return math.gcd(self.n1, self.n2) == 1


def factorize(g: GroupSpec) -> Factorization:
    """Split n per the twist congruences.

    Unique for odd n.  For even n several splits can satisfy the congruences;
    we prefer a coprime one, then the largest n1, which keeps the choice
    deterministic.
    """
    if g.kind != METACYCLIC:
        raise GroupError("factorize applies to metacyclic groups")
    n, s = g.n, g.s
    candidates = []
    for n1 in range(1, n + 1):
        if n % n1:
            continue
        n2 = n // n1
        if (s + 1) % n1 == 0 and (s - 1) % n2 == 0 and math.gcd(n1, n2) in (1, 2):
            candidates.append(Factorization(n1, n2))
    if not candidates:
        raise GroupError(f"no admissible factorization for n={n}, s={s}")
    candidates.sort(key=lambda f: (0 if f.coprime else 1, -f.n1))
    f = candidates[0]
    assert f.n1 * f.n2 == n
    assert (s + 1) % f.n1 == 0 and (s - 1) % f.n2 == 0
    return f


def crt_scalars(g: GroupSpec, f: Factorization | None = None) -> tuple[int, int]:
    """Idempotent pair (e1, e2) mod n: e1 = 0 (mod n1), e1 = 1 (mod n2), e2 = 1 - e1.

    Splitting y^a = y^(a*e1) * y^(a*e2) realizes <y> = <y^n1> x <y^n2>.
    Requires the coprime factorization.
    """
    f = f or factorize(g)
    if not f.coprime:
        raise GroupError(f"factorization ({f.n1},{f.n2}) is not coprime")
    if f.n2 == 1:
        e1 = 0
    else:
        e1 = (f.n1 * pow(f.n1, -1, f.n2)) % g.n
    return e1, (1 - e1) % g.n


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as an explicit membership table (groups here are small)."""

    group: GroupSpec
    members: frozenset[Element]
    description: str = ""

    def __post_init__(self):
        g = self.group
        if g.identity not in self.members:
            raise GroupError("subgroup must contain the identity")
        for u in self.members:
            g.check(u)
            if g.inv(u) not in self.members:
                raise GroupError(f"subgroup not closed under inverse at {format_element(u)}")
        table = mul_table(g)
        idx = [g.element_index(u) for u in self.members]
        inside = set(idx)
        for i in idx:
            row = table[i]
            if any(row[j] not in inside for j in idx):
                raise GroupError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, u: Element) -> bool:
        return u in self.members

    def coset_of(self, u: Element) -> frozenset[Element]:
        g = self.group
        return frozenset(g.mul(u, h) for h in self.members)

    def cosets(self) -> list[frozenset[Element]]:
        """Left cosets, deterministically ordered by their minimal element."""
        seen: set[Element] = set()
        out = []
        for u in self.group.elements():
            if u in seen:
                continue
            c = self.coset_of(u)
            seen |= c
            out.append(c)
        return out

    def is_normal(self) -> bool:
        g = self.group
        return all(
            g.conjugate(u, h) in self.members for u in g.elements() for h in self.members
        )


def trivial_subgroup(g: GroupSpec) -> Subgroup:
    return Subgroup(g, frozenset([g.identity]), "<1>")


def whole_group(g: GroupSpec) -> Subgroup:
    return Subgroup(g, frozenset(g.elements()), "G")


def cyclic_y_subgroup(g: GroupSpec, d: int) -> Subgroup:
    """<y^d> for d | n; normal in G since conjugation by x maps y^d to y^(d*s)."""
    if d < 1 or g.n % d:
        raise GroupError(f"d={d} does not divide n={g.n}")
    members = frozenset(Element(0, a) for a in range(0, g.n, d))
    return Subgroup(g, members, f"<y^{d}>")


def subgroup_generated(g: GroupSpec, gens: Iterable[Element], description: str = "") -> Subgroup:
    gens = [g.check(u) for u in gens]
    members = {g.identity}
    frontier = [g.identity]
    while frontier:
        u = frontier.pop()
        for v in gens:
            for w in (g.mul(u, v), g.mul(u, g.inv(v))):
                if w not in members:
                    members.add(w)
                    frontier.append(w)
    desc = description or "<" + ", ".join(format_element(u) for u in gens) + ">"
    return Subgroup(g, frozenset(members), desc)


def all_subgroups(g: GroupSpec) -> list[Subgroup]:
    """Every subgroup.  H meets <y> in some <y^d>; an x-part, when present, is a
    single coset x*y^c*<y^d> and closure forces c*(s+1) = 0 (mod d)."""
    out = []
    for d in range(1, g.n + 1):
        if g.n % d:
            continue
        out.append(cyclic_y_subgroup(g, d))
        if g.kind != METACYCLIC:
            continue
        for c in range(d):
            if (c * (g.s + 1)) % d == 0:
                members = frozenset(
                    [Element(0, a) for a in range(0, g.n, d)]
                    + [Element(1, (c + a) % g.n) for a in range(0, g.n, d)]
                )
                out.append(Subgroup(g, members, f"<x*y^{c}, y^{d}>"))
    out.sort(key=lambda h: (h.order, sorted(h.members)))
    return out


def stabilizer(g: GroupSpec, members: Iterable[Element]) -> Subgroup:
    """H(A) = {h : hA = A}, the full set stabilizer.

    H(A) = G exactly when A = G; anything else indicates a bug, so it is
    asserted.
    """
    aset = frozenset(g.check(u) for u in members)
    if not aset:
        raise GroupError("stabilizer of the empty set is undefined")
    # left multiplication is injective, so hA is inside A exactly when hA = A
    idx = [g.element_index(a) for a in aset]
    inside = set(idx)
    stab = frozenset(
        h for h, row in zip(g.elements(), mul_table(g)) if all(row[i] in inside for i in idx)
    )
    assert (len(stab) == g.order) == (len(aset) == g.order)
    return Subgroup(g, stab, "stab")


# -- homomorphisms ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Hom:
    """A homomorphism given by an explicit table on its domain."""

    source: GroupSpec
    target: GroupSpec
    table: dict[Element, Element]
    name: str = ""

    def __call__(self, u: Element) -> Element:
        try:
            return self.table[u]
        except KeyError:
            raise GroupError(
                f"{self.name or 'map'} is not defined on {format_element(u)}"
            ) from None


def quotient_map(g: GroupSpec, h: Subgroup) -> Hom:
    """Natural map G -> G/<y^d>, realized as the group with (n'=d, s'=s mod d).

    The kernel is exactly <y^d>; elements map by reducing the y-exponent mod d.
    """
    if h.group != g:
        raise GroupError("subgroup belongs to a different group")
    d = None
    for cand in range(1, g.n + 1):
        if g.n % cand == 0 and g.n // cand == h.order:
            d = cand
            break
    expected = frozenset(Element(0, a) for a in range(0, g.n, d)) if d else None
    if expected is None or h.members != expected:
        raise GroupError(f"quotient_map needs a subgroup of the form <y^d>, got {h.description}")
    target = GroupSpec(n=d, s=g.s % d if d > 1 else 0, kind=g.kind)
    table = {u: Element(u.eps, u.a % d) for u in g.elements()}
    return Hom(g, target, table, name=f"mod <y^{d}>")


def projection(g: GroupSpec, which: int) -> Hom:
    """Coprime-part projections for <y> = <y^n1> x <y^n2>.

    which=1: y^a -> its <y^n1> component (defined on <y> only).
    which=2: x^e y^a -> x^e y^(a*e2), defined on all of G via the direct
    decomposition G = <y^n1> x <x, y^n2>.
    """
    f = factorize(g)
    if not f.coprime:
        raise GroupError(f"projections need coprime factors, got ({f.n1},{f.n2})")
    e1, e2 = crt_scalars(g, f)
    if which == 1:
        table = {Element(0, a): Element(0, (a * e1) % g.n) for a in range(g.n)}
        return Hom(g, g, table, name="proj-1")
    if which == 2:
        table = {u: Element(u.eps, (u.a * e2) % g.n) for u in g.elements()}
        return Hom(g, g, table, name="proj-2")
    raise GroupError(f"projection index must be 1 or 2, got {which}")


# -- literals -----------------------------------------------------------------

_ELEMENT_RE = re.compile(r"^\s*(?:(?P<one>1)|x\s*\*\s*y\^(?P<xy>-?\d+)|(?P<x>x)|y\^(?P<y>-?\d+))\s*$")
_GROUP_RE = re.compile(
    r"^\s*(?:metacyclic\s+n=(?P<mn>\d+)\s+s=(?P<ms>-?\d+)|cyclic\s+n=(?P<cn>\d+))\s*$"
)


def format_element(u: Element) -> str:
    if u.eps == 0:
        return "1" if u.a == 0 else f"y^{u.a}"
    return "x" if u.a == 0 else f"x*y^{u.a}"


def parse_element(text: str, g: GroupSpec) -> Element:
    m = _ELEMENT_RE.match(text)
    if not m:
        raise GroupError(f"bad element literal {text!r} (expected 1, x, y^<a>, or x*y^<a>)")
    if m.group("one"):
        return Element(0, 0)
    if m.group("x"):
        return g.check(Element(1, 0))
    if m.group("xy") is not None:
        return g.check(Element(1, int(m.group("xy")) % g.n))
    return Element(0, int(m.group("y")) % g.n)


def format_group(g: GroupSpec) -> str:
    if g.kind == CYCLIC:
        return f"cyclic n={g.n}"
    return f"metacyclic n={g.n} s={g.s}"


def parse_group(text: str) -> GroupSpec:
    m = _GROUP_RE.match(text)
    if not m:
        raise GroupError(
            f"bad group literal {text!r} (expected 'metacyclic n=<int> s=<int>' or 'cyclic n=<int>')"
        )
    if m.group("cn"):
        return mk_cyclic(int(m.group("cn")))
    return mk_metacyclic(int(m.group("mn")), int(m.group("ms")))
