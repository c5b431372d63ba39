"""Constructive extraction of long product-one subsequences over C_{3m} x| C_2.

For the groups <x, y : x^2 = y^{3m} = 1, yx = x y^s> with gcd(6, m) = 1,
s = -1 (mod 3) and s = +1 (mod m), every sequence of length 9m has a
product-one subsequence of length 6m.  This module finds such witnesses on one
verified path:

1. exact subset-sum DP on the <y>-part (complete whenever at most one term
   lies outside <y>, and cheap to try always);
2. one block pass: pull eight length-m blocks whose C_m-component sums
   vanish, building each block's product DP once, then search the
   compositions of six whole blocks, with products chosen from each block's
   product set, for one that closes over the order-6 kernel;
3. the exact sign-class DP on the whole sequence, which is complete.

Every rung returns only witnesses that pass the independent verifier, and a
trace records which rung produced each one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .groups import (
    Element,
    Factorization,
    GroupSpec,
    Subgroup,
    crt_scalars,
    factorize,
    mul_table,
)
from .sequences import Sequence, canonical_key
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
    if n2 == 1:
        w = 0
    else:
        e1, _ = crt_scalars(g, f)
        w = (e1 // f.n1) % n2
    members = frozenset(el for el in g.elements() if el.a % n2 == 0)
    kernel = Subgroup(g, members, f"<x, y^{n2}>")
    return FamilyContext(group=g, n2=n2, kernel=kernel, _w=w)


# -- class-constrained subset picking ---------------------------------------------


def _pick_subset(
    seq: Sequence,
    class_of,
    m: int,
    k: int,
    target: int,
    budget: _Budget,
) -> Sequence | None:
    """A k-term subsequence whose class values sum to target mod m, or None.

    Deterministic: the DP resolves class counts, then concrete terms are
    assigned in canonical element order.
    """
    if m == 1:
        if k > seq.length:
            return None
        picked: dict[Element, int] = {}
        left = k
        for el, cnt in seq.counts:
            take = min(cnt, left)
            if take:
                picked[el] = take
                left -= take
        return Sequence.from_counts(seq.group, picked) if left == 0 else None

    classes: dict[int, int] = {}
    for el, cnt in seq.counts:
        c = class_of(el)
        classes[c] = classes.get(c, 0) + cnt
    pairs = sorted(classes.items())
    dp = _SignClassDP([(False, cls, cnt) for cls, cnt in pairs], m, 1, k, k, budget)
    picks = dp.pick(k, 0, target % m)
    if picks is None:
        return None
    picked: dict[Element, int] = {}
    for (cls, _), (copies, _) in zip(pairs, picks):
        if not copies:
            continue
        pool = [(el, cnt) for el, cnt in seq.counts if class_of(el) == cls]
        left = copies
        for el, cnt in pool:
            take = min(cnt, left)
            if take:
                picked[el] = picked.get(el, 0) + take
                left -= take
            if not left:
                break
        assert left == 0
    return Sequence.from_counts(seq.group, picked)


def egz_extract(seq: Sequence, *, budget: int | None = None) -> Sequence:
    """A length-n subsequence with product one over the cyclic part <y> of order n.

    Requires |seq| >= 2n-1, which guarantees existence; the subsequence is
    found by the exact subset-sum DP and is deterministic.
    """
    g = seq.group
    if any(el.eps for el in seq.support):
        raise ValueError("egz_extract needs a sequence over the cyclic part <y>")
    m = g.n
    if seq.length < 2 * m - 1:
        raise ValueError(f"need length >= {2 * m - 1}, got {seq.length}")
    block = _pick_subset(seq, lambda el: el.a % m, m, m, 0, _Budget(budget))
    assert block is not None, "EGZ guarantee violated"
    return block


# -- decompositions ----------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """A partition of part of a sequence into kernel-product blocks.

    Each block T satisfies pi(T) inside the kernel subgroup (its C_{n2}
    component sums vanish); sigmas holds one chosen product per block, the
    canonically smallest element of pi(T).  products and arrangers hold each
    block's pi(T) and its arranger, from the one DP built per block.
    """

    blocks: tuple[Sequence, ...]
    remainder: Sequence
    kernel: Subgroup
    sigmas: tuple[Element, ...]
    products: tuple[frozenset[Element], ...] = field(compare=False, repr=False)
    arrangers: tuple[Callable[[Element], tuple[Element, ...]], ...] = field(
        compare=False, repr=False
    )

    def reassemble(self) -> Sequence:
        out = self.remainder
        for b in self.blocks:
            out = out.concat(b)
        return out

    def x_coverage(self) -> int:
        return sum(1 for b in self.blocks if b.x_part().length > 0)


def make_decomposition(
    blocks: list[Sequence], remainder: Sequence, kernel: Subgroup, budget: int | None = None
) -> Decomposition:
    sigmas, products, arrangers = [], [], []
    for b in blocks:
        pset, arrange = products_with_arranger(b, budget)
        sigma = min(pset)
        if sigma not in kernel:
            raise ValueError(f"block {b} is not a product-{kernel.description} sequence")
        sigmas.append(sigma)
        products.append(pset)
        arrangers.append(arrange)
    return Decomposition(
        tuple(blocks), remainder, kernel, tuple(sigmas), tuple(products), tuple(arrangers)
    )


def extract_product_h_blocks(
    seq: Sequence, kernel: Subgroup, count: int, *, budget: int | None = None
) -> Decomposition:
    """Pull `count` disjoint length-n2 blocks whose C_{n2} component sums vanish."""
    fam = family_context(seq.group)
    if kernel.members != fam.kernel.members:
        raise ValueError(f"kernel must be {fam.kernel.description}")
    n2 = fam.n2
    need = count * n2 + (2 * n2 - 1) - n2
    if seq.length < need:
        raise ValueError(f"need length >= {need} to pull {count} blocks, got {seq.length}")
    b = _Budget(budget)
    blocks = []
    remaining = seq
    for _ in range(count):
        block = _pick_subset(remaining, fam.component, n2, n2, 0, b)
        assert block is not None, "block extraction guarantee violated"
        blocks.append(block)
        remaining = remaining.remove(block)
    return make_decomposition(blocks, remaining, fam.kernel, budget)


def improve_x_coverage(d: Decomposition, budget: int | None = None) -> Decomposition:
    """Greedy single-term swaps (matching C_{n2} classes, so every block stays a
    kernel-product block) until no move raises the number of blocks holding an
    x-term.  A heuristic fixpoint, not a certified maximum; `d` itself when
    no swap applies."""
    fam = family_context(d.blocks[0].group if d.blocks else d.remainder.group)
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
    return make_decomposition(blocks, remainder, d.kernel, budget)


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


# -- the swap-argument replay -------------------------------------------------------


@dataclass(frozen=True)
class SwapOutcome:
    """Result of exploring re-decompositions by class-preserving term swaps."""

    kind: str  # "selection" | "rigid"
    blocks: tuple[Sequence, ...]
    selection: tuple[int, ...] | None  # six block indices whose sigmas multiply to one
    shape: tuple[int, int] | None  # (value with multiplicity 5, value with multiplicity 2)
    explored: int


def _c3_values(blocks: tuple[Sequence, ...], fam: FamilyContext) -> list[int] | None:
    """Per-block value t with sigma(T) = y^(t*n2), or None if some block strays."""
    n = fam.group.n
    n2 = fam.n2
    out = []
    for b in blocks:
        total = sum(el.a * m for el, m in b.counts) % n
        if any(el.eps for el in b.support) or total % n2:
            return None
        out.append(total // n2)
    return out


def _selection_from_values(values: list[int]) -> tuple[int, ...] | None:
    total = sum(values) % 3
    for skip in range(len(values)):
        if (total - values[skip]) % 3 == 0:
            return tuple(i for i in range(len(values)) if i != skip)
    return None


def replay_swap_argument(d: Decomposition, swap_budget: int = 10_000) -> SwapOutcome:
    """Search re-decompositions of seven <y>-blocks reachable by swapping terms
    with equal C_{n2} class between blocks; report a six-block product-one
    selection, or certify that everything explored has the rigid 5+2 shape."""
    fam = family_context(d.blocks[0].group)
    if len(d.blocks) != 7:
        raise ValueError("the swap replay expects exactly seven blocks")
    values = _c3_values(d.blocks, fam)
    if values is None:
        raise ValueError("blocks must lie in <y> with vanishing C_{n2} component")

    seen = {tuple(sorted(map(canonical_key, d.blocks)))}
    queue = [d.blocks]
    explored = 0
    first_shape = _rigid_shape(values)
    while queue and explored < swap_budget:
        blocks = queue.pop(0)
        explored += 1
        vals = _c3_values(blocks, fam)
        sel = _selection_from_values(vals)
        if sel is not None:
            return SwapOutcome("selection", blocks, sel, None, explored)
        assert _rigid_shape(vals) is not None, "no selection yet not 5+2 shaped"
        for li, mi in itertools.combinations(range(7), 2):
            for u, _ in blocks[li].counts:
                for v, _ in blocks[mi].counts:
                    if u == v or fam.component(u) != fam.component(v):
                        continue
                    nb = list(blocks)
                    one_u = Sequence.from_counts(blocks[li].group, {u: 1})
                    one_v = Sequence.from_counts(blocks[mi].group, {v: 1})
                    nb[li] = blocks[li].remove(one_u).concat(one_v)
                    nb[mi] = blocks[mi].remove(one_v).concat(one_u)
                    key = tuple(sorted(map(canonical_key, nb)))
                    if key not in seen:
                        seen.add(key)
                        queue.append(tuple(nb))
    return SwapOutcome("rigid", d.blocks, None, first_shape, explored)


def _rigid_shape(values: list[int]) -> tuple[int, int] | None:
    counts = {t: values.count(t) for t in set(values)}
    by = sorted(counts.items(), key=lambda kv: -kv[1])
    if len(by) == 2 and by[0][1] == 5 and by[1][1] == 2:
        return by[0][0], by[1][0]
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

    d = extract_product_h_blocks(seq, fam.kernel, 8, budget=budget)
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

    A breadth-first search over (used-block mask, product index) on the Cayley
    table; each block's products are visited in index order, which is the
    canonical element order since index = eps*n + a.
    """
    g = fam.group
    table = mul_table(g)
    sets = [sorted(g.element_index(el) for el in ps) for ps in d.products]
    ident = g.element_index(g.identity)
    start = (0, ident)
    parents = {start: None}
    frontier = [start]
    for level in range(6):
        nxt = []
        for state in frontier:
            mask, prod = state
            row = table[prod]
            for i, sigmas in enumerate(sets):
                if mask >> i & 1:
                    continue
                bit = mask | 1 << i
                for sigma in sigmas:
                    nst = (bit, row[sigma])
                    if nst not in parents:
                        parents[nst] = (state, i, sigma)
                        nxt.append(nst)
                        if level == 5 and nst[1] == ident:
                            return _assemble_whole(g, parents, nst, d.arrangers, tr)
        frontier = nxt
    tr(step="whole-blocks", hit="none")
    return None


def _assemble_whole(g, parents, state, arrangers, tr):
    path = []
    cur = state
    while parents[cur] is not None:
        prev, i, sigma = parents[cur]
        path.append((i, g.element_at(sigma)))
        cur = prev
    path.reverse()
    elements = []
    for i, sigma in path:
        elements.extend(arrangers[i](sigma))
    tr(step="whole-blocks", blocks=",".join(str(i) for i, _ in path))
    return ProductWitness(tuple(elements), g.identity)


# -- structure of singleton product sets ----------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    clause: int  # 1 or 2; 0 when neither coset case applies
    holds: bool
    product: Element
    detail: str


def singleton_pi_structure(
    seq: Sequence, f: Factorization | None = None, budget: int | None = None
) -> StructureReport:
    """For |S| = n2 with singleton pi(S): check the coset-case conclusions.

    Clause 1: pi(S) inside <y^n2> with at least one x-term forces pi(S) = {1}.
    Clause 2: pi(S) inside x<y^n2> forces an odd number of x-terms whose
    exponents agree mod n1, y-terms with exponents divisible by n1, and the
    product's exponent congruent to them mod n1.
    """
    g = seq.group
    f = f or factorize(g)
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
