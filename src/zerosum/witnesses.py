"""Constructive extraction of long product-one subsequences over C_{3m} x| C_2.

For the groups <x, y : x^2 = y^{3m} = 1, yx = x y^s> with gcd(6, m) = 1,
s = -1 (mod 3) and s = +1 (mod m), every sequence of length 9m has a
product-one subsequence of length 6m.  This module finds such witnesses on one
verified path:

1. exact subset-sum DP on the <y>-part (complete whenever at most one term
   lies outside <y>, and cheap to try always);
2. one block pass: pull eight length-m blocks whose C_m-component sums
   vanish, each picked by a subset-sum DP over one class-count histogram of
   C_m components that the picks update in place, and build each block's
   product DP once; then search depth-first, over (used blocks, running
   product) states with dead states recorded, for the first composition of
   six whole blocks, with products chosen from each block's product set,
   that closes over the order-6 kernel;
3. the exact sign-class DP on the whole sequence, which is complete.

Every rung returns only witnesses that pass the independent verifier, and a
trace records which rung produced each one.

Beside the path sit the block decompositions of rung 2
(`improve_x_coverage`, a greedy x-coverage heuristic, is not on the path)
and `singleton_pi_structure`, the coset-case check for singleton pi(S).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from .groups import (
    Element,
    GroupSpec,
    Subgroup,
    crt_scalars,
    factorize,
    mul_table,
)
from .sequences import Sequence
from .products import (
    ProductWitness,
    _Budget,
    _SignClassDP,
    find_arrangement,
    pi_set,
    products_with_arranger,
    verify_witness,
)


class WitnessSearchExhausted(RuntimeError):
    """Raised when every rung ran to completion without finding a witness.

    At the extremal length this can mean the input really is free; the caller
    should fall back to an exact freeness check or the shape templates.
    """


@dataclass(frozen=True)
class FamilyContext:
    """Validated parameters of a group in the C_{3m} x| C_2 family."""

    group: GroupSpec
    n2: int
    kernel: Subgroup  # <x, y^{n2}>, the order-6 kernel of the C_{n2} component
    _w: int  # scalar: C_{n2}-coordinate of x^e y^a is a*_w mod n2

    def component(self, el: Element) -> int:
        return (el.a * self._w) % self.n2


@functools.lru_cache(maxsize=None)
def family_context(g: GroupSpec) -> FamilyContext:
    if g.kind != "metacyclic":
        raise ValueError("not a metacyclic group")
    f = factorize(g)
    if f.n1 != 3 or f.n2 % 2 == 0 or f.n2 % 3 == 0:
        raise ValueError(
            f"group {g.n},{g.s} is outside the C_3m x| C_2 family "
            f"(needs n1=3 and gcd(6, n2)=1; factorization gives ({f.n1},{f.n2}))"
        )
    n2 = f.n2
    e1, _ = crt_scalars(g, f)
    w = (e1 // f.n1) % n2
    members = frozenset(el for el in g.elements() if el.a % n2 == 0)
    kernel = Subgroup(g, members)
    return FamilyContext(group=g, n2=n2, kernel=kernel, _w=w)


# -- decompositions ----------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """A partition of part of a sequence into kernel-product blocks.

    Each block T satisfies pi(T) inside the kernel subgroup (its C_{n2}
    component sums vanish).  products and arrangers hold each block's pi(T)
    and its arranger, from the one DP built per block.
    """

    blocks: tuple[Sequence, ...]
    remainder: Sequence
    products: tuple[frozenset[Element], ...] = field(compare=False, repr=False)
    arrangers: tuple[Callable[[Element], tuple[Element, ...]], ...] = field(
        compare=False, repr=False
    )

    def x_coverage(self) -> int:
        return sum(1 for b in self.blocks if any(el.eps == 1 for el, _ in b.counts))


def make_decomposition(
    blocks: list[Sequence], remainder: Sequence, budget: int | None = None
) -> Decomposition:
    fam = family_context(remainder.group)
    products, arrangers = [], []
    for b in blocks:
        pset, arrange = products_with_arranger(b, budget)
        if min(pset) not in fam.kernel:
            raise ValueError(f"block {b} is not a product-<x, y^{fam.n2}> sequence")
        products.append(pset)
        arrangers.append(arrange)
    return Decomposition(tuple(blocks), remainder, tuple(products), tuple(arrangers))


def extract_product_h_blocks(seq: Sequence, *, budget: int | None = None) -> Decomposition:
    """Pull eight disjoint length-n2 blocks whose C_{n2} component sums vanish."""
    fam = family_context(seq.group)
    n2 = fam.n2
    need = 9 * n2 - 1
    if seq.length < need:
        raise ValueError(f"need length >= {need} to pull 8 blocks, got {seq.length}")
    b = _Budget(budget)
    left = dict(seq.counts)  # copies not yet in a block, in canonical order
    pools: dict[int, list[Element]] = {}
    for el, _ in seq.counts:
        pools.setdefault(fam.component(el), []).append(el)
    classes = sorted(pools)
    hist = {cls: sum(left[el] for el in pools[cls]) for cls in classes}
    blocks = []
    for _ in range(8):
        # the DP resolves class counts over the classes still holding terms;
        # concrete terms are then taken in canonical element order
        live = [cls for cls in classes if hist[cls]]
        dp = _SignClassDP([(False, cls, hist[cls]) for cls in live], n2, 1, n2, n2, b)
        picks = dp.pick(n2, 0, 0)
        assert picks is not None, "block extraction guarantee violated"
        picked = {}
        for cls, (copies, _) in zip(live, picks):
            hist[cls] -= copies
            for el in pools[cls]:
                if not copies:
                    break
                take = min(left[el], copies)
                if take:
                    picked[el] = take
                    left[el] -= take
                    copies -= take
        blocks.append(Sequence(seq.group, tuple(sorted(picked.items()))))
    remainder = Sequence(seq.group, tuple((el, cnt) for el, cnt in left.items() if cnt))
    return make_decomposition(blocks, remainder, budget)


def improve_x_coverage(d: Decomposition, budget: int | None = None) -> Decomposition:
    """Greedy single-term swaps (matching C_{n2} classes, so every block stays a
    kernel-product block) until no move raises the number of blocks holding an
    x-term.  A heuristic fixpoint, not a certified maximum; `d` itself when
    no swap applies."""
    fam = family_context(d.remainder.group)
    blocks = list(d.blocks)
    remainder = d.remainder
    swapped, improved = False, True
    while improved:
        improved = False
        for i, blk in enumerate(blocks):
            if blk.x_part().length:
                continue
            swap = _coverage_move(blocks, remainder, i, fam)
            if swap is None:
                continue
            u, v, src = swap
            one_u = Sequence.from_counts(blk.group, {u: 1})
            one_v = Sequence.from_counts(blk.group, {v: 1})
            blocks[i] = blk.remove(one_u).concat(one_v)
            if src == -1:
                remainder = remainder.remove(one_v).concat(one_u)
            else:
                blocks[src] = blocks[src].remove(one_v).concat(one_u)
            swapped = improved = True
            break
    if not swapped:
        return d
    return make_decomposition(blocks, remainder, budget)


def _coverage_move(blocks, remainder, i, fam):
    """First legal (u out, v in, source) raising coverage for block i."""
    for u, _ in blocks[i].counts:
        cu = fam.component(u)
        for v, _ in remainder.counts:
            if v.eps == 1 and fam.component(v) == cu:
                return u, v, -1
        for j, other in enumerate(blocks):
            if j == i or other.x_part().length < 2:
                continue
            for v, _ in other.counts:
                if v.eps == 1 and fam.component(v) == cu:
                    return u, v, j
    return None


# -- the witness path -----------------------------------------------------------------


def find_big_product_one(
    seq: Sequence, *, budget: int | None = None, trace: list[str] | None = None
) -> ProductWitness:
    """A verified product-one subsequence of length 6*n2.

    Accepts sequences of length >= 9*n2 - 1 (existence is guaranteed at 9*n2;
    at 9*n2 - 1 free inputs exist and raise WitnessSearchExhausted).
    """
    g = seq.group
    fam = family_context(g)
    k = 6 * fam.n2
    if seq.length < 9 * fam.n2 - 1:
        raise ValueError(f"need length >= {9 * fam.n2 - 1}, got {seq.length}")

    def tr(**kv):
        if trace is not None:
            trace.append(" ".join(f"{a}={b}" for a, b in kv.items()))

    def done(w: ProductWitness, rung: str) -> ProductWitness:
        ok, reason = verify_witness(seq, w, g.identity)
        assert ok, f"unverified witness from {rung}: {reason}"
        tr(step="found", rung=rung, k=w.k)
        return w

    ypart = seq.y_part()
    tr(step="start", length=seq.length, x_terms=seq.length - ypart.length, k=k)
    if ypart.length >= k:
        w = find_arrangement(ypart, k, g.identity, budget)
        if w is not None:
            return done(w, "y-part")
        tr(step="y-part", hit="none")

    d = extract_product_h_blocks(seq, budget=budget)
    if trace is not None:
        tr(step="extract", coverage=d.x_coverage())
    w = _stage_whole_blocks(d, fam, tr)
    if w is not None:
        return done(w, "pipeline")

    tr(step="direct")
    w = find_arrangement(seq, k, g.identity, budget)
    if w is not None:
        return done(w, "direct")
    raise WitnessSearchExhausted(
        f"no product-one subsequence of length {k} exists in this sequence"
    )


def trace_rung(trace: list[str]) -> str:
    """The rung named by the final `step=found` line of a find_big_product_one trace."""
    return trace[-1].split("rung=")[1].split()[0]


def _stage_whole_blocks(d, fam, tr):
    """Order six whole blocks, products chosen freely from each pi(T).

    A depth-first search over (used-block mask, product index) on the Cayley
    table that tries blocks in index order and each block's products in index
    order, which is the canonical element order since index = eps*n + a.  It
    returns the lexicographically first closing sequence of (block, product)
    pairs; a state that failed once is recorded dead and never expanded again.
    """
    g = fam.group
    table = mul_table(g)
    sets = [sorted(g.element_index(el) for el in ps) for ps in d.products]
    ident = g.element_index(g.identity)
    dead = set()
    path = []

    def close(mask, prod):
        row = table[prod]
        last = len(path) == 5
        for i, sigmas in enumerate(sets):
            if mask >> i & 1:
                continue
            bit = mask | 1 << i
            for sigma in sigmas:
                nxt = row[sigma]
                # the sixth block must close; earlier ones skip dead states
                if (nxt != ident) if last else ((bit, nxt) in dead):
                    continue
                path.append((i, sigma))
                if last or close(bit, nxt):
                    return True
                path.pop()
        dead.add((mask, prod))
        return False

    if not close(0, ident):
        tr(step="whole-blocks", hit="none")
        return None
    elements = []
    for i, sigma in path:
        elements.extend(d.arrangers[i](g.element_at(sigma)))
    tr(step="whole-blocks", blocks=",".join(str(i) for i, _ in path))
    return ProductWitness(tuple(elements), g.identity)


# -- structure of singleton product sets ----------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    clause: int  # 1 or 2; 0 when neither coset case applies
    holds: bool
    product: Element
    detail: str


def singleton_pi_structure(seq: Sequence, budget: int | None = None) -> StructureReport:
    """For |S| = n2 with singleton pi(S): check the coset-case conclusions.

    Clause 1: pi(S) inside <y^n2> with at least one x-term forces pi(S) = {1}.
    Clause 2: pi(S) inside x<y^n2> forces an odd number of x-terms whose
    exponents agree mod n1, y-terms with exponents divisible by n1, and the
    product's exponent congruent to them mod n1.
    """
    g = seq.group
    f = factorize(g)
    n1, n2 = f.n1, f.n2
    if seq.length != n2:
        raise ValueError(f"need length n2 = {n2}, got {seq.length}")
    pset = pi_set(seq, budget)
    if len(pset) != 1:
        raise ValueError(f"pi(S) has {len(pset)} elements, not a singleton")
    p = next(iter(pset))
    xs = [el.a for el, m in seq.x_part().counts for _ in range(m)]
    ys = [el.a for el, m in seq.y_part().counts for _ in range(m)]
    if p.eps == 0 and p.a % n2 == 0 and xs:
        holds = p == g.identity
        return StructureReport(1, holds, p, "product must be the identity")
    if p.eps == 1 and p.a % n2 == 0:
        holds = (
            len(xs) % 2 == 1
            and len({b % n1 for b in xs}) == 1
            and all(b % n1 == 0 for b in ys)
            and p.a % n1 == xs[0] % n1
        )
        return StructureReport(2, holds, p, "x-exponents agree mod n1; y-exponents vanish mod n1")
    return StructureReport(0, True, p, "no coset clause applies")
