"""Exact product-set computation: pi(S), Pi_k(S), product-one witnesses.

One kernel backs every operation.  In an ordering of terms x^e y^a over
C_n x|_s C_2, a term adds a*s^c to the y-exponent of the product, where c is
the parity of the number of x-terms after it (s^2 = 1).  With t x-terms,
ceil(t/2) of them get c = 0 and floor(t/2) get c = 1; the y-terms take either
class when t >= 1 and only class 0 when t = 0.  Every such class assignment
is realized by the ordering

    ... X0[1] X1[0] Y1... X0[0] Y0...

(read from the right, the x-terms alternate classes 0, 1, 0, ...), so Pi_k(S)
is a bounded-multiplicity subset sum over Z_n.  The kernel runs it as a DP
over (copies used, x0 - x1, has-x) states mapped to bitmasks over Z_n, with
one table per support entry so that a backtrack recovers the (j0, j1) class
counts of every entry, and from them a witness ordering.  Over <y>, or over a
cyclic group, no x-term exists and the DP is the plain subset sum (t = 0).

Budgets count DP cells, n per (copies, x0 - x1, has-x) slot that a support
entry's table fills: one per residue of Z_n in the slot's bitmask.  Exceeding
one raises BudgetExceeded rather than truncating — exactness is the contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from .groups import Element, GroupSpec, Subgroup, format_element, parse_element, stabilizer
from .sequences import Sequence

DEFAULT_BUDGET = 100_000_000


def resolve_budget(budget: int | None = None) -> int:
    """The DP-cell limit: `budget` if given, else ZEROSUM_BUDGET, else the default.

    A negative or non-integer value raises ValueError instead of falling back.
    """
    source = "budget"
    if budget is None:
        env = os.environ.get("ZEROSUM_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        source = "ZEROSUM_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            budget = env
    if not isinstance(budget, int) or budget < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {budget!r}")
    return budget


class BudgetExceeded(RuntimeError):
    def __init__(self, used: int, limit: int):
        super().__init__(
            f"search budget exceeded: {used} DP cells used, limit {limit}; "
            "raise --budget to continue"
        )
        self.used = used
        self.limit = limit

    def __reduce__(self):  # keeps the exception intact across --jobs worker processes
        return type(self), (self.used, self.limit)


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        self.limit = resolve_budget(limit)
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit)


@dataclass(frozen=True)
class ProductWitness:
    """An ordered arrangement of a subsequence certifying a product value."""

    elements: tuple[Element, ...]
    product: Element

    @property
    def k(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SubproductSet:
    """Pi_n(S) together with its full set stabilizer."""

    n: int
    members: frozenset[Element]
    stabilizer: Subgroup


def _is_y_supported(seq: Sequence) -> bool:
    return all(el.eps == 0 for el, _ in seq.counts)


# -- the sign-class DP -----------------------------------------------------------


class _SignClassDP:
    """Sign-class subset sums over Z_n, with one table per entry for backtracking.

    `entries` lists (is_x, residue, count) with every x-entry before every
    y-entry, so has-x is settled before any y-term picks a class.  A pick of
    j0 copies in class 0 and j1 in class 1 adds j0*a + j1*a*s.  Only copy
    counts in [lo, hi] survive to the end: states that can no longer reach lo
    copies, or a balance x0 - x1 in {0, 1}, are dropped as they arise.

    x-phase tables map copies c to {x0 - x1: mask}.  y-phase tables
    are triples (lane0, even, odd) of lists over c: lane0 holds t = 0, where
    y-terms take class 0 only, and even/odd hold t >= 1 by the parity of t,
    which is the eps of the product.
    """

    def __init__(
        self,
        entries: list[tuple[bool, int, int]],
        n: int,
        s: int,
        lo: int,
        hi: int,
        budget: _Budget,
    ):
        self.entries = entries
        self.n = n
        self.s = s
        full = (1 << n) - 1
        rem = xrem = 0  # copies, and x-copies, in the entries still to come
        for is_x, _, cnt in entries:
            rem += cnt
            if is_x:
                xrem += cnt
        table: dict[int, dict[int, int]] = {0: {0: 1}}
        self.xtables = [table]
        for is_x, a, cnt in entries:
            if not is_x:
                break
            rem -= cnt
            xrem -= cnt
            delta = a * (s - 1) % n
            new: dict[int, dict[int, int]] = {}
            for c, row in table.items():
                for cc in range(max(0, lo - rem - c), min(cnt, hi - c) + 1):
                    nc = c + cc
                    room = xrem if xrem < hi - nc else hi - nc
                    nrow = new.get(nc)
                    if nrow is None:
                        nrow = new[nc] = {}
                    base = cc * a
                    for d, mask in row.items():
                        # j1 of the cc copies go to class 1; x0 - x1 must stay
                        # within `room` of {0, 1}
                        j1_lo = (d + cc - room) // 2
                        j1_hi = (d + cc + room) // 2
                        if j1_lo < 0:
                            j1_lo = 0
                        if j1_hi > cc:
                            j1_hi = cc
                        for j1 in range(j1_lo, j1_hi + 1):
                            r = (base + j1 * delta) % n
                            nd = d + cc - 2 * j1
                            nrow[nd] = nrow.get(nd, 0) | (
                                ((mask << r) | (mask >> (n - r))) & full if r else mask
                            )
            budget.spend(n * sum(map(len, new.values())))
            table = new
            self.xtables.append(table)

        zeros = [0] * (hi + 1)
        lane0 = list(zeros)
        even, odd = list(zeros), list(zeros)
        used1 = -1  # most copies in the t >= 1 lanes; -1 while they are empty
        for c, row in table.items():
            if not c:
                lane0[0] = row.get(0, 0)
            elif row:
                even[c] = row.get(0, 0)
                odd[c] = row.get(1, 0)
                used1 = max(used1, c)
        self.ytables = [(lane0, even, odd)]
        used0 = 0 if lane0[0] else -1  # the same for lane0
        for _, a, cnt in entries[len(self.xtables) - 1 :]:
            rem -= cnt
            low = lo - rem if lo > rem else 0
            slots = 0
            if used0 >= 0:
                # t = 0: the plain bounded subset sum, class 0 only
                old, lane0 = lane0, list(zeros)
                top = used0 + cnt if used0 + cnt < hi else hi
                for c in range(low, top + 1):
                    acc = 0
                    for j in range(c - used0 if c > used0 else 0, (cnt if cnt < c else c) + 1):
                        prev = old[c - j]
                        if prev:
                            r = a * j % n
                            acc |= ((prev << r) | (prev >> (n - r))) & full if r else prev
                    lane0[c] = acc
                used0 = top
                slots += max(0, top - low + 1)
            if used1 >= 0:
                even = self._y_lane(even, used1, cnt, a, low, hi)
                odd = self._y_lane(odd, used1, cnt, a, low, hi)
                used1 = min(hi, used1 + cnt)
                slots += 2 * max(0, used1 - low + 1)
            budget.spend(n * slots)
            self.ytables.append((lane0, even, odd))

    def _y_lane(self, lane, used, cnt, a, low, hi):
        # t >= 1: j0 + j1 = cc copies add cc*a + j1*a*(s-1), so the masks of
        # all splits of cc accumulate in w as cc grows.
        n = self.n
        full = (1 << n) - 1
        delta = a * (self.s - 1) % n
        new = [0] * (hi + 1)
        for c in range(used + 1):
            mask = lane[c]
            if not mask:
                continue
            w = mask
            for cc in range(min(cnt, hi - c) + 1):
                if cc and delta:
                    r = cc * delta % n
                    if r:
                        w |= ((mask << r) | (mask >> (n - r))) & full
                nc = c + cc
                if nc < low:
                    continue
                r = cc * a % n
                new[nc] |= ((w << r) | (w >> (n - r))) & full if r else w
        return new

    def reachable(self, k: int) -> tuple[int, int]:
        """Masks of the y-exponents reachable with k copies, for eps 0 and 1."""
        lane0, even, odd = self.ytables[-1]
        return lane0[k] | even[k], odd[k]

    def pick(self, k: int, eps: int, target: int) -> list[tuple[int, int]] | None:
        """(j0, j1) class counts per entry realizing (eps, target) with k copies."""
        n, s = self.n, self.s
        lane0, even, odd = self.ytables[-1]
        if eps == 0 and lane0[k] >> target & 1:
            lane = 0
        elif (odd if eps else even)[k] >> target & 1:
            lane = 1 + eps
        else:
            return None
        nx = len(self.xtables) - 1
        picks = []
        c, v = k, target
        for i in range(len(self.ytables) - 1, 0, -1):
            _, a, cnt = self.entries[nx + i - 1]
            prev = self.ytables[i - 1][lane]
            delta = a * (s - 1) % n if lane else 0
            for cc in range(min(cnt, c) + 1):
                for j1 in range(cc + 1 if lane else 1):
                    want = (v - cc * a - j1 * delta) % n
                    if prev[c - cc] >> want & 1:
                        break
                else:
                    continue
                break
            else:  # pragma: no cover - contradicts the forward pass
                raise AssertionError("sign-class DP backtrack failed in the y-phase")
            picks.append((cc - j1, j1))
            c, v = c - cc, want
        d = eps if lane else 0
        for i in range(nx, 0, -1):
            _, a, cnt = self.entries[i - 1]
            prev = self.xtables[i - 1]
            delta = a * (s - 1) % n
            for cc in range(min(cnt, c) + 1):
                row = prev.get(c - cc)
                if row is None:
                    continue
                for j1 in range(cc + 1):
                    mask = row.get(d - cc + 2 * j1, 0)
                    want = (v - cc * a - j1 * delta) % n
                    if mask >> want & 1:
                        break
                else:
                    continue
                break
            else:  # pragma: no cover - contradicts the forward pass
                raise AssertionError("sign-class DP backtrack failed in the x-phase")
            picks.append((cc - j1, j1))
            c, v, d = c - cc, want, d - cc + 2 * j1
        assert c == 0 and v == 0 and d == 0
        picks.reverse()
        return picks


def _sequence_dp(
    seq: Sequence, lo: int, hi: int, budget: _Budget
) -> tuple[list[Element], _SignClassDP]:
    """The kernel over a sequence, and its support in the kernel's entry order."""
    g = seq.group
    counts = seq.counts  # sorted, so the x-entries (eps = 1) come last
    if counts and counts[-1][0].eps:
        split = next(i for i, (el, _) in enumerate(counts) if el.eps)
        counts = counts[split:] + counts[:split]
    entries = [(el.eps == 1, el.a, m) for el, m in counts]
    return [el for el, _ in counts], _SignClassDP(entries, g.n, g.s, lo, hi, budget)


def _members(g: GroupSpec, dp: _SignClassDP, k: int) -> frozenset[Element]:
    els = g.elements()
    even, odd = dp.reachable(k)
    return frozenset(
        [els[a] for a in range(g.n) if even >> a & 1]
        + [els[g.n + a] for a in range(g.n) if odd >> a & 1]
    )


def _arrange(support: list[Element], picks: list[tuple[int, int]]) -> tuple[Element, ...]:
    """The ordering ... X0[1] X1[0] Y1... X0[0] Y0... of a class assignment."""
    x0: list[Element] = []
    x1: list[Element] = []
    y0: list[Element] = []
    y1: list[Element] = []
    for el, (j0, j1) in zip(support, picks):
        if el.eps:
            x0 += [el] * j0
            x1 += [el] * j1
        else:
            y0 += [el] * j0
            y1 += [el] * j1
    if not x0:
        return tuple(y0)
    from_right = [x0[0]]
    for i, el in enumerate(x1):
        from_right.append(el)
        if i + 1 < len(x0):
            from_right.append(x0[i + 1])
    return tuple(from_right[:0:-1] + y1 + [x0[0]] + y0)


# -- public operations -----------------------------------------------------------


def pi_set(seq: Sequence, budget: int | None = None) -> frozenset[Element]:
    """All products of the full sequence over all orderings."""
    g = seq.group
    b = _Budget(budget)
    if seq.length == 0:
        return frozenset([g.identity])
    if g.is_abelian or _is_y_supported(seq):
        eps = 0
        a = 0
        for el, m in seq.counts:
            eps ^= (el.eps * m) & 1
            a = (a + el.a * m) % g.n
        return frozenset([Element(eps, a)])
    _, dp = _sequence_dp(seq, seq.length, seq.length, b)
    return _members(g, dp, seq.length)


def products_with_arranger(
    seq: Sequence, budget: int | None = None
) -> tuple[frozenset[Element], Callable[[Element], tuple[Element, ...]]]:
    """pi(S) plus a deterministic arranger: target -> ordered full arrangement."""
    g = seq.group
    b = _Budget(budget)
    if _is_y_supported(seq):
        total = 0
        for el, m in seq.counts:
            total = (total + el.a * m) % g.n
        members = frozenset([Element(0, total)])

        def arrange_y(target: Element) -> tuple[Element, ...]:
            if target not in members:
                raise KeyError(f"{format_element(target)} not in pi(S)")
            return tuple(seq.terms())

        return members, arrange_y

    length = seq.length
    support, dp = _sequence_dp(seq, length, length, b)
    members = _members(g, dp, length)

    def arrange(target: Element) -> tuple[Element, ...]:
        if target not in members:
            raise KeyError(f"{format_element(target)} not in pi(S)")
        return _arrange(support, dp.pick(length, target.eps, target.a))

    return members, arrange


def subproducts(seq: Sequence, n: int, budget: int | None = None) -> SubproductSet:
    """Pi_n(S): products over all length-n subsequences, with its stabilizer."""
    g = seq.group
    if not 0 <= n <= seq.length:
        raise ValueError(f"subproduct length {n} out of range [0, {seq.length}]")
    b = _Budget(budget)
    if n == 0:
        members = frozenset([g.identity])
    else:
        _, dp = _sequence_dp(seq, n, n, b)
        members = _members(g, dp, n)
    return SubproductSet(n=n, members=members, stabilizer=stabilizer(g, members))


def has_product_one(seq: Sequence, k: int, budget: int | None = None) -> ProductWitness | None:
    """A witness that 1_G lies in Pi_k(S), or None if it does not."""
    return find_arrangement(seq, k, seq.group.identity, budget)


def find_arrangement(
    seq: Sequence, k: int, target: Element, budget: int | None = None
) -> ProductWitness | None:
    """An ordered length-k subsequence multiplying to `target`, or None.

    None also for k > |S|, where no length-k subsequence exists.
    """
    g = seq.group
    g.check(target)
    if k < 0:
        raise ValueError(f"arrangement length {k} is negative")
    b = _Budget(budget)
    if k > seq.length:
        return None
    if k == 0:
        return ProductWitness((), g.identity) if target == g.identity else None
    support, dp = _sequence_dp(seq, k, k, b)
    picks = dp.pick(k, target.eps, target.a)
    if picks is None:
        return None
    w = ProductWitness(_arrange(support, picks), target)
    prod = g.identity
    for el in w.elements:
        prod = g.mul(prod, el)
    assert prod == target, "sign-class arrangement does not multiply to its target"
    return w


def product_one_lengths(seq: Sequence, budget: int | None = None) -> list[int]:
    """All k >= 1 with 1_G in Pi_k(S)."""
    b = _Budget(budget)
    if seq.length == 0:
        return []
    _, dp = _sequence_dp(seq, 1, seq.length, b)
    return [k for k in range(1, seq.length + 1) if dp.reachable(k)[0] & 1]


# -- independent verifier --------------------------------------------------------


def verify_witness(
    seq: Sequence, witness: ProductWitness, target: Element | None = None
) -> tuple[bool, str]:
    """Check a witness without any shared search machinery.

    Returns (ok, reason); reason is "ok", "not-a-subsequence", or
    "wrong-product".
    """
    g = seq.group
    target = witness.product if target is None else target
    needed: dict[Element, int] = {}
    for el in witness.elements:
        if not g.contains(el):
            return False, "not-a-subsequence"
        needed[el] = needed.get(el, 0) + 1
    for el, m in needed.items():
        if m > seq.multiplicity(el):
            return False, "not-a-subsequence"
    prod = g.identity
    for el in witness.elements:
        prod = g.mul(prod, el)
    if prod != target:
        return False, "wrong-product"
    return True, "ok"


# -- certificate lines -----------------------------------------------------------


def format_witness_line(w: ProductWitness) -> str:
    body = " ".join(format_element(el) for el in w.elements)
    return f"witness k={w.k} target={format_element(w.product)} : {body}"


def parse_witness_line(text: str, g: GroupSpec) -> ProductWitness:
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError("witness line must contain ':'")
    fields = head.split()
    if len(fields) != 3 or fields[0] != "witness":
        raise ValueError("witness line must start with 'witness k=<int> target=<element>'")
    if not fields[1].startswith("k=") or not fields[2].startswith("target="):
        raise ValueError("witness line must carry k= and target= fields")
    k = int(fields[1][2:])
    target = parse_element(fields[2][len("target="):], g)
    elements = tuple(parse_element(tok, g) for tok in body.split())
    if len(elements) != k:
        raise ValueError(f"witness claims k={k} but lists {len(elements)} elements")
    return ProductWitness(elements, target)
