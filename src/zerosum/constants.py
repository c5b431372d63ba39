"""Brute-force group constants and extremal-sequence classification.

The Gao constant E(G) is found by enumerating multisets of each length
starting at |G|, pruned to minimal representatives under the automorphisms
that fix <y> setwise, until a length carries no |G|-product-one-free
sequence; the free sequences one step earlier are the extremal certificates.
The small Davenport constant d(G) runs the same scan with freeness meaning
"no product-one subsequence of any positive length".

Classification matches each extremal orbit against the known shape templates
(two-block over a cyclic group, two-block-plus-reflection over a metacyclic
group, and the order-6 identity-plus-reflections special form); orbits that
match nothing are reported as their own "unmatched" family so they cannot be
silently dropped.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .groups import CYCLIC, Element, GroupSpec, METACYCLIC
from .sequences import Sequence, canonical_key
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
    parameters: tuple[tuple[int, ...], ...]


# -- automorphisms ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def automorphisms(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Automorphisms as permutations of element indices.

    y maps to y^u (u a unit) and x to x*y^c with c*(s+1) = 0 (mod n); both
    relations and bijectivity are then automatic.  For odd n this is all of
    Aut(G); for even n it is the subgroup fixing <y> setwise, which is all
    orbit pruning needs (soundness, not maximal reduction).
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


def orbit_keys(seq: Sequence) -> frozenset[bytes]:
    return frozenset(canonical_key(apply_automorphism(seq, p)) for p in automorphisms(seq.group))


def orbit_sequences(seq: Sequence) -> list[Sequence]:
    out = {}
    for p in automorphisms(seq.group):
        img = apply_automorphism(seq, p)
        out[canonical_key(img)] = img
    return [out[k] for k in sorted(out)]


# -- enumeration -----------------------------------------------------------------


def _guard(g: GroupSpec, length: int, ceiling: int) -> None:
    estimate = math.comb(length + g.order - 1, g.order - 1) // max(1, len(automorphisms(g)))
    if estimate > ceiling:
        raise InfeasibleSize(estimate, ceiling)


def _iter_multisets(g: GroupSpec, length: int, prune: bool) -> Iterator[tuple[int, ...]]:
    autos = automorphisms(g) if prune else ()
    for combo in itertools.combinations_with_replacement(range(g.order), length):
        if prune:
            keep = True
            for perm in autos:
                if tuple(sorted(perm[i] for i in combo)) < combo:
                    keep = False
                    break
            if not keep:
                continue
        yield combo


def _combo_sequence(g: GroupSpec, combo: tuple[int, ...]) -> Sequence:
    return Sequence.from_terms(g, (g.element_at(i) for i in combo))


def _is_free(seq: Sequence, k: int | None, budget: int | None) -> bool:
    # k=None: free of product-one subsequences of every positive length.
    if k is None:
        return not product_one_lengths(seq, budget)
    return has_product_one(seq, k, budget) is None


def enumerate_free(
    g: GroupSpec,
    length: int,
    k: int | None,
    *,
    prune: bool = True,
    ceiling: int = DEFAULT_CEILING,
    budget: int | None = None,
) -> list[Sequence]:
    """All k-product-one-free sequences of the given length (orbit
    representatives when prune=True), in canonical order."""
    _guard(g, length, ceiling)
    out = []
    for combo in _iter_multisets(g, length, prune):
        seq = _combo_sequence(g, combo)
        if _is_free(seq, k, budget):
            out.append(seq)
    return out


def _scan_constant(
    g: GroupSpec,
    start: int,
    k: int | None,
    constant: str,
    length_cap: int | None,
    ceiling: int,
    budget: int | None,
) -> tuple[int, tuple[Sequence, ...]]:
    cap = length_cap if length_cap is not None else 3 * max(g.order, 1) + 1
    prev_free: list[Sequence] | None = None
    length = start
    while length <= cap:
        free = enumerate_free(g, length, k, ceiling=ceiling, budget=budget)
        if not free:
            if prev_free is None:
                prev_free = (
                    enumerate_free(g, length - 1, k, ceiling=ceiling, budget=budget)
                    if length - 1 >= 0
                    else []
                )
            return length, tuple(prev_free)
        prev_free = free
        length += 1
    raise InfeasibleSize(math.comb(cap + g.order, g.order - 1) if g.order > 1 else cap, ceiling)


def gao_constant(
    g: GroupSpec,
    length_cap: int | None = None,
    *,
    ceiling: int = DEFAULT_CEILING,
    budget: int | None = None,
) -> ConstantReport:
    """Exact E(G): least length forcing a |G|-product-one subsequence."""
    value, certs = _scan_constant(g, g.order, g.order, "gao", length_cap, ceiling, budget)
    return ConstantReport(group=g, constant="gao", value=value, certificates=certs)


def davenport_constant(
    g: GroupSpec,
    length_cap: int | None = None,
    *,
    ceiling: int = DEFAULT_CEILING,
    budget: int | None = None,
) -> ConstantReport:
    """Exact small Davenport constant d(G): maximal product-one-free length."""
    no_free_at, certs = _scan_constant(g, 1, None, "davenport", length_cap, ceiling, budget)
    return ConstantReport(group=g, constant="davenport", value=no_free_at - 1, certificates=certs)


# -- templates ---------------------------------------------------------------------


def _canonical_reflection(g: GroupSpec) -> Element | None:
    for c in range(g.n):
        if (c * (g.s + 1)) % g.n == 0:
            return Element(1, c)
    return None


def check_template(seq: Sequence) -> TemplateMatch | None:
    """Match the sequence shape against the known extremal templates.

    A match constrains shape only; freeness still needs the product engine.
    The generator pair is reported canonically (alpha = y, tau = the least
    involution x*y^c); any other admissible pair differs only by reparametrizing
    t1, t2, t3.
    """
    g = seq.group
    n = g.n
    if n < 2:
        return None
    counts = dict(seq.counts)
    if g.kind == CYCLIC:
        if len(counts) != 2:
            return None
        by_mult = {m: el for el, m in counts.items()}
        if set(by_mult) != {2 * n - 1, n - 1}:
            return None
        a1, a2 = by_mult[2 * n - 1].a, by_mult[n - 1].a
        if math.gcd(a1 - a2, n) != 1:
            return None
        return TemplateMatch(TEMPLATE_CYCLIC, (Element(0, 1),), (a1, a2))

    if g.kind != METACYCLIC or g.is_abelian:
        return None

    if n == 3:
        want = {Element(0, 0): 5, Element(1, 0): 1, Element(1, 1): 1, Element(1, 2): 1}
        if counts == want:
            return TemplateMatch(TEMPLATE_D6, (Element(1, 0), Element(0, 1)), ())

    if len(counts) != 3:
        return None
    xs = [(el, m) for el, m in counts.items() if el.eps == 1]
    ys = [(el, m) for el, m in counts.items() if el.eps == 0]
    if len(xs) != 1 or xs[0][1] != 1 or len(ys) != 2:
        return None
    by_mult = {m: el for el, m in ys}
    if set(by_mult) != {2 * n - 1, n - 1}:
        return None
    a1, a2 = by_mult[2 * n - 1].a, by_mult[n - 1].a
    if math.gcd(a1 - a2, n) != 1:
        return None
    tau = _canonical_reflection(g)
    b = xs[0][0].a
    t3 = (b - tau.a) % n
    return TemplateMatch(TEMPLATE_METACYCLIC, (tau, Element(0, 1)), (a1, a2, t3))


def template_instances(g: GroupSpec, name: str) -> Iterator[Sequence]:
    """All sequences matching a template over g, without repetition."""
    n = g.n
    if name == TEMPLATE_CYCLIC:
        if g.kind != CYCLIC:
            return
        for a1 in range(n):
            for a2 in range(n):
                if math.gcd(a1 - a2, n) == 1:
                    yield Sequence.from_counts(
                        g, {Element(0, a1): 2 * n - 1, Element(0, a2): n - 1}
                    )
    elif name == TEMPLATE_METACYCLIC:
        if g.kind != METACYCLIC or g.is_abelian:
            return
        for a1 in range(n):
            for a2 in range(n):
                if math.gcd(a1 - a2, n) != 1:
                    continue
                for b in range(n):
                    yield Sequence.from_counts(
                        g,
                        {Element(0, a1): 2 * n - 1, Element(0, a2): n - 1, Element(1, b): 1},
                    )
    elif name == TEMPLATE_D6:
        if g.kind == METACYCLIC and n == 3 and not g.is_abelian:
            yield Sequence.from_counts(
                g,
                {Element(0, 0): 5, Element(1, 0): 1, Element(1, 1): 1, Element(1, 2): 1},
            )
    else:
        raise ValueError(f"unknown template {name!r}")


def classify_extremal(
    g: GroupSpec,
    length: int,
    k: int,
    *,
    ceiling: int = DEFAULT_CEILING,
    budget: int | None = None,
) -> list[ExtremalFamily]:
    """Group all k-product-one-free sequences of the given length into
    automorphism-orbit representatives and match each against the templates."""
    reps = enumerate_free(g, length, k, ceiling=ceiling, budget=budget)
    buckets: dict[str, list[tuple[Sequence, tuple[int, ...]]]] = {}
    for rep in reps:
        match = check_template(rep)
        if match is None:
            buckets.setdefault("unmatched", []).append((rep, ()))
        else:
            buckets.setdefault(match.name, []).append((rep, match.params))
    out = []
    for name in sorted(buckets):
        rows = buckets[name]
        out.append(
            ExtremalFamily(
                template=name,
                representatives=tuple(r for r, _ in rows),
                parameters=tuple(p for _, p in rows),
            )
        )
    return out
