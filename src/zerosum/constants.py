"""Brute-force group constants and extremal-sequence classification.

Free sequences are grown one length at a time, one representative per orbit
under the automorphisms that fix <y> setwise: every free sequence of length
L+1 extends a free one of length L by one term.  The Gao constant E(G) is the
first length with no |G|-product-one-free sequence, whose free sequences one
step earlier are the extremal certificates; the small Davenport constant d(G)
grows the same levels with freeness meaning "no product-one subsequence of
any positive length".

Classification matches each extremal orbit against the known shape templates
(two-block over a cyclic group, two-block-plus-reflection over a metacyclic
group, and the order-6 identity-plus-reflections special form); orbits that
match nothing are reported as their own "unmatched" family so they cannot be
silently dropped.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .groups import CYCLIC, Element, GroupSpec, METACYCLIC
from .sequences import Sequence
from .products import has_product_one, product_one_lengths

TEMPLATE_CYCLIC = "cyclic_two_block"
TEMPLATE_METACYCLIC = "two_block_reflection"
TEMPLATE_D6 = "identity_reflections"

DEFAULT_CEILING = 10_000_000


class InfeasibleSize(RuntimeError):
    def __init__(self, estimate: int, ceiling: int):
        super().__init__(
            f"enumeration would visit about {estimate} multisets (ceiling {ceiling}); "
            "use the sampling tools instead"
        )
        self.estimate = estimate
        self.ceiling = ceiling


@dataclass(frozen=True)
class ConstantReport:
    group: GroupSpec
    constant: str  # "gao" | "davenport"
    value: int
    certificates: tuple[Sequence, ...]  # orbit representatives of maximal free sequences


@dataclass(frozen=True)
class TemplateMatch:
    name: str
    generators: tuple[Element, ...]
    params: tuple[int, ...]


@dataclass(frozen=True)
class ExtremalFamily:
    template: str
    representatives: tuple[Sequence, ...]


# -- automorphisms ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def automorphisms(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Automorphisms as permutations of element indices.

    y maps to y^u (u a unit) and x to x*y^c with c*(s+1) = 0 (mod n); both
    relations and bijectivity are then automatic.  For odd n this is all of
    Aut(G); for even n it is the subgroup fixing <y> setwise, which is all
    orbit enumeration needs (soundness, not maximal reduction).
    """
    n = g.n
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    perms = []
    if g.kind == CYCLIC:
        for u in units:
            perms.append(tuple((a * u) % n for a in range(n)))
    else:
        shifts = [c for c in range(n) if (c * (g.s + 1)) % n == 0]
        for u in units:
            for c in shifts:
                perm = [0] * (2 * n)
                for e in (0, 1):
                    for a in range(n):
                        perm[e * n + a] = e * n + (a * u + e * c) % n
                perms.append(tuple(perm))
    return tuple(perms)


def apply_automorphism(seq: Sequence, perm: tuple[int, ...]) -> Sequence:
    g = seq.group
    return Sequence.from_counts(
        g, {g.element_at(perm[g.element_index(el)]): m for el, m in seq.counts}
    )


def orbit_sequences(seq: Sequence) -> set[Sequence]:
    return {apply_automorphism(seq, p) for p in automorphisms(seq.group)}


# -- enumeration -----------------------------------------------------------------


def _counts_sequence(g: GroupSpec, counts: tuple[int, ...]) -> Sequence:
    return Sequence.from_counts(g, {g.element_at(i): m for i, m in enumerate(counts) if m})


def _free_levels(
    g: GroupSpec, k: int | None, last: int, budget: int | None
) -> Iterator[list[tuple[int, ...]]]:
    """The free orbits of lengths 0..last, one level per length, up to the first
    empty level.  A multiset is its tuple of multiplicities by element index; an
    orbit is its greatest tuple (its least sorted image), and a level lists its
    orbits in descending order.  A level, or the first tested one's estimate,
    over DEFAULT_CEILING candidates raises InfeasibleSize."""
    ceiling = DEFAULT_CEILING
    order = g.order
    images = [operator.itemgetter(*sorted(range(order), key=p.__getitem__)) for p in automorphisms(g)]

    def canon(counts: tuple[int, ...]) -> tuple[int, ...]:
        # itemgetter of one index returns the item, not a 1-tuple
        return max(image(counts) for image in images) if order > 1 else counts

    top = min(last, k) if k is not None else 0
    if top > 0:  # levels below k hold every orbit, and each orbit grows |G| candidates
        estimate = math.comb(top + order - 2, order - 1) // len(images) * order
        if estimate > ceiling:
            raise InfeasibleSize(estimate, ceiling)
    level, candidates = [], {(0,) * order}
    for length in range(last + 1):
        prev, level = set(level), []
        for c in candidates:
            # a subsequence of a free sequence is free; through length k, prev is every orbit
            if (k is None or length > k) and any(
                canon(c[:i] + (m - 1,) + c[i + 1 :]) not in prev for i, m in enumerate(c) if m
            ):
                continue
            if k is None or length >= k:
                seq = _counts_sequence(g, c)
                # k=None: free of product-one subsequences of every positive length
                if product_one_lengths(seq, budget) if k is None else has_product_one(seq, k, budget):
                    continue
            level.append(c)
        level.sort(reverse=True)
        yield level
        if not level or length == last:
            return
        if len(level) * order > ceiling:
            raise InfeasibleSize(len(level) * order, ceiling)
        candidates = {canon(r[:i] + (r[i] + 1,) + r[i + 1 :]) for r in level for i in range(order)}


def enumerate_free(
    g: GroupSpec, length: int | None, k: int | None, *, budget: int | None = None
) -> list[Sequence]:
    """All k-product-one-free sequences of the given length, one
    representative per automorphism orbit, in canonical order.  Length None
    asks for the greatest length that has any, searched up to 3|G|+1."""
    if length is not None and length < 0:
        raise ValueError(f"length {length} is negative")
    cap = 3 * g.order + 1 if length is None else length
    found: list[tuple[int, ...]] = []
    for level in _free_levels(g, k, cap, budget):
        if level or length is not None:
            found = level
    if level and length is None:  # still not empty at the cap
        raise InfeasibleSize(
            math.comb(cap + g.order, g.order - 1) if g.order > 1 else cap, DEFAULT_CEILING
        )
    return [_counts_sequence(g, c) for c in found]


def gao_constant(g: GroupSpec, *, budget: int | None = None) -> ConstantReport:
    """Exact E(G): least length forcing a |G|-product-one subsequence."""
    certs = tuple(enumerate_free(g, None, g.order, budget=budget))
    return ConstantReport(group=g, constant="gao", value=certs[0].length + 1, certificates=certs)


def davenport_constant(g: GroupSpec, *, budget: int | None = None) -> ConstantReport:
    """Exact small Davenport constant d(G): maximal product-one-free length."""
    certs = tuple(enumerate_free(g, None, None, budget=budget))
    return ConstantReport(group=g, constant="davenport", value=certs[0].length, certificates=certs)


# -- templates ---------------------------------------------------------------------


def template_terms(g: GroupSpec, t1: int, t2: int, *xs: int) -> list[tuple[Element, int]]:
    """The (element, copies) list y^t1 * (2n-1), y^t2 * (n-1), x*y^b * 1 for
    each b in xs, in this order: the two-block shape, plus its reflections."""
    n = g.n
    return [(Element(0, t1 % n), 2 * n - 1), (Element(0, t2 % n), n - 1)] + [
        (Element(1, b % n), 1) for b in xs
    ]


_D6_TERMS = {Element(0, 0): 5, Element(1, 0): 1, Element(1, 1): 1, Element(1, 2): 1}


def _is_d6(g: GroupSpec) -> bool:
    return g.kind == METACYCLIC and g.n == 3 and not g.is_abelian


def check_template(seq: Sequence) -> TemplateMatch | None:
    """Match the sequence shape against the known extremal templates.

    A match constrains shape only; freeness still needs the product engine.
    The generator pair is reported canonically (alpha = y, tau = x, an
    involution in every C_n x| C_2); any other admissible pair differs only by
    reparametrizing t1, t2, t3.
    """
    g = seq.group
    if g.kind == METACYCLIC and g.is_abelian:
        return None
    if _is_d6(g) and seq == Sequence.from_counts(g, _D6_TERMS):
        return TemplateMatch(TEMPLATE_D6, (Element(1, 0), Element(0, 1)), ())
    # t1 has the most copies, a metacyclic template has one reflection, and
    # template_terms fixes every multiplicity
    ys = sorted(((m, el.a) for el, m in seq.counts if el.eps == 0), reverse=True)
    xs = tuple(el.a for el, _ in seq.counts if el.eps == 1)
    if len(ys) != 2 or len(xs) != (g.kind == METACYCLIC):
        return None
    (_, t1), (_, t2) = ys
    if math.gcd(t1 - t2, g.n) != 1 or seq != Sequence.from_counts(g, template_terms(g, t1, t2, *xs)):
        return None
    if g.kind == CYCLIC:
        return TemplateMatch(TEMPLATE_CYCLIC, (Element(0, 1),), (t1, t2))
    return TemplateMatch(TEMPLATE_METACYCLIC, (Element(1, 0), Element(0, 1)), (t1, t2) + xs)


def template_instances(g: GroupSpec, name: str) -> Iterator[Sequence]:
    """All sequences matching a template over g, without repetition."""
    n = g.n
    if name == TEMPLATE_D6:
        if _is_d6(g):
            yield Sequence.from_counts(g, _D6_TERMS)
        return
    if name == TEMPLATE_CYCLIC:
        xs_choices = [()] if g.kind == CYCLIC else []
    elif name == TEMPLATE_METACYCLIC:
        xs_choices = [(b,) for b in range(n)] if g.kind == METACYCLIC and not g.is_abelian else []
    else:
        raise ValueError(f"unknown template {name!r}")
    if n < 2 or not xs_choices:  # at n = 1, y^t1 and y^t2 coincide
        return
    for t1 in range(n):
        for t2 in range(n):
            if math.gcd(t1 - t2, n) == 1:
                for xs in xs_choices:
                    yield Sequence.from_counts(g, template_terms(g, t1, t2, *xs))


def classify_extremal(
    g: GroupSpec, length: int, k: int, *, budget: int | None = None
) -> list[ExtremalFamily]:
    """Group all k-product-one-free sequences of the given length into
    automorphism-orbit representatives and match each against the templates."""
    buckets: dict[str, list[Sequence]] = {}
    for rep in enumerate_free(g, length, k, budget=budget):
        match = check_template(rep)
        buckets.setdefault("unmatched" if match is None else match.name, []).append(rep)
    return [ExtremalFamily(name, tuple(buckets[name])) for name in sorted(buckets)]
