"""Answer checks that share no code with the zerosum engine.

Elements are plain ``(e, a)`` pairs for ``x^e y^a`` in ``C_n x|_s C_2``
(cyclic groups use ``s = 1`` and never carry ``e = 1``).  Everything here is
derived from the group law alone:

    x^e1 y^a1 * x^e2 y^a2 = x^(e1+e2) y^(a1 * s^e2 + a2)
"""

from __future__ import annotations

from collections import Counter


def mul(n: int, s: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return ((u[0] + v[0]) % 2, (u[1] * (s if v[0] else 1) + v[1]) % n)


def product(n: int, s: int, terms) -> tuple[int, int]:
    acc = (0, 0)
    for t in terms:
        acc = mul(n, s, acc, t)
    return acc


def is_submultiset(part, whole) -> bool:
    need, have = Counter(part), Counter(whole)
    return all(have[el] >= m for el, m in need.items())


def witness_problem(n: int, s: int, terms, witness, k: int) -> str | None:
    """Why `witness` is not an ordered length-k product-one subsequence of
    `terms`, or None when it is."""
    if len(witness) != k:
        return f"length {len(witness)} != {k}"
    if not is_submultiset(witness, terms):
        return "not a sub-multiset of the input"
    if product(n, s, witness) != (0, 0):
        return f"product {product(n, s, witness)} is not the identity"
    return None


def subproduct_set(n: int, s: int, terms, k: int) -> frozenset[tuple[int, int]]:
    """Pi_k: products of all orderings of all length-k subsequences.

    In an ordering, term ``x^e y^a`` contributes ``a * s^c`` where c is the
    parity of the x-terms after it.  With t chosen x-terms, ceil(t/2) of them
    get c = 0 and floor(t/2) get c = 1, in any assignment; y-terms take either
    class when t >= 1 and class 0 when t = 0.  So Pi_k is a bounded subset sum
    over (copies, x0 - x1, any x chosen, any y in class 1) with residue masks.
    """
    full = (1 << n) - 1

    def shift(mask: int, r: int) -> int:
        r %= n
        return ((mask << r) | (mask >> (n - r))) & full if r else mask

    # (copies, x0 - x1, has_x, y_in_class_1) -> bitmask of y-exponent sums
    states = {(0, 0, False, False): 1}
    for (e, a), m in sorted(Counter(terms).items()):
        nxt: dict = {}
        for (c, d, hx, y1), mask in states.items():
            for j0 in range(min(m, k - c) + 1):
                for j1 in range(min(m - j0, k - c - j0) + 1):
                    key = (
                        c + j0 + j1,
                        d + (j0 - j1 if e else 0),
                        hx or (e == 1 and j0 + j1 > 0),
                        y1 or (e == 0 and j1 > 0),
                    )
                    moved = shift(mask, a * j0 + a * s * j1)
                    nxt[key] = nxt.get(key, 0) | moved
        states = nxt
    out = set()
    for (c, d, hx, y1), mask in states.items():
        if c != k or d not in (0, 1) or (y1 and not hx):
            continue
        out.update((d, r) for r in range(n) if mask >> r & 1)
    return frozenset(out)


def set_stabilizer(n: int, s: int, members, elements) -> frozenset[tuple[int, int]]:
    """{h : hA = A} over the given element list."""
    aset = frozenset(members)
    return frozenset(h for h in elements if frozenset(mul(n, s, h, a) for a in aset) == aset)


def dgm_rhs(n: int, s: int, terms, k: int, stab) -> int:
    """(sum over cosets gH of min(k, #terms in gH) - k + 1) * |H|, abelian G."""
    tally: Counter = Counter()
    for t in terms:
        tally[min(mul(n, s, t, h) for h in stab)] += 1
    return (sum(min(k, v) for v in tally.values()) - k + 1) * len(stab)


def expected_constants(kind: str, n: int, s: int) -> tuple[int, int] | None:
    """(E(G), d(G)) from the literature, or None when no formula applies.

    E(C_n) = 2n - 1 and d(C_n) = n - 1 (Erdos-Ginzburg-Ziv); E(D_2n) = 3n
    and d(D_2n) = n (Bass 2007)."""
    if kind == "cyclic":
        return 2 * n - 1, n - 1
    if s == n - 1:
        return 3 * n, n
    return None


def constants_problem(kind: str, n: int, s: int, gao: int, davenport: int) -> str | None:
    order = n if kind == "cyclic" else 2 * n
    want = expected_constants(kind, n, s)
    if want is None:
        return f"no reference value for {kind} n={n} s={s}"
    if (gao, davenport) != want:
        return f"E, d = {gao}, {davenport}; expected {want[0]}, {want[1]}"
    if gao != davenport + order:
        return f"E = {gao} != d + |G| = {davenport + order}"
    return None
