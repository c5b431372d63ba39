"""Seeded input generators for every workload.

Each input is a plain description (group parameters and a term list of
``(e, a)`` pairs) derived only from the seed and the op index, so the run length
never changes which input an index gets.  The library sees
only the sequences and groups built from these descriptions.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

CYCLIC = "cyclic"
METACYCLIC = "metacyclic"


@dataclass(frozen=True)
class GroupDesc:
    kind: str
    n: int
    s: int

    @property
    def abelian(self) -> bool:
        return self.kind == CYCLIC or self.s == 1

    def elements(self) -> list[tuple[int, int]]:
        eps = (0,) if self.kind == CYCLIC else (0, 1)
        return [(e, a) for e in eps for a in range(self.n)]

    def encode(self) -> str:
        return f"{self.kind}:{self.n}:{self.s}"


@dataclass(frozen=True)
class OpInput:
    index: int
    stratum: str
    group: GroupDesc
    terms: tuple[tuple[int, int], ...]  # sorted multiset
    k: int

    def encode(self) -> str:
        body = " ".join(f"{e},{a}" for e, a in self.terms)
        return f"{self.index}|{self.stratum}|{self.group.encode()}|k={self.k}|{body}"


def cyclic(n: int) -> GroupDesc:
    return GroupDesc(CYCLIC, n, 1 % n)


def metacyclic(n: int, s: int) -> GroupDesc:
    return GroupDesc(METACYCLIC, n, s)


G30 = metacyclic(15, 11)  # n2 = 5
G42 = metacyclic(21, 8)  # n2 = 7
N2 = {G30: 5, G42: 7}

# gao-exact: every group has a literature value for E and d, and one op takes
# at most about 0.5 s, so a run repeats each many times.  Longer ops (C7 about
# 1.5 s, D8 17-25 s) spread by 0.26-0.29 (IQR/median) across runs on a shared
# VM, since a single op cannot dodge a slow spell.
GAO_GROUPS = (cyclic(5), cyclic(6), metacyclic(3, 2))


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _uniform(rng: random.Random, g: GroupDesc, length: int) -> list[tuple[int, int]]:
    els = g.elements()
    return [els[rng.randrange(len(els))] for _ in range(length)]


def is_template(g: GroupDesc, terms) -> bool:
    """The extremal shape y^t1 * (6n2-1), y^t2 * (3n2-1), x*y^b * 1 with
    gcd(t1 - t2, n) = 1: the only 6n2-product-one-free length-(9n2-1)
    sequences, so a 'non-template' input always has a witness."""
    n2 = N2[g]
    counts: dict = {}
    for t in terms:
        counts[t] = counts.get(t, 0) + 1
    ys = {m: t for t, m in counts.items() if t[0] == 0}
    xs = [m for t, m in counts.items() if t[0] == 1]
    if len(counts) != 3 or xs != [1] or set(ys) != {6 * n2 - 1, 3 * n2 - 1}:
        return False
    return math.gcd(ys[6 * n2 - 1][1] - ys[3 * n2 - 1][1], g.n) == 1


WITNESS_STRATA = tuple(
    (g, kind) for kind in ("uniform", "near-template", "non-template") for g in (G30, G42)
)


def witness_input(seed: int, index: int) -> OpInput:
    g, kind = WITNESS_STRATA[index % len(WITNESS_STRATA)]
    n2 = N2[g]
    rng = _rng(seed, index)
    if kind == "uniform":
        terms = _uniform(rng, g, 9 * n2)
    elif kind == "near-template":
        # a free template of length 9n2-1, 1-4 terms overwritten, one appended
        n = g.n
        t2 = rng.randrange(n)
        t1 = rng.choice([t for t in range(n) if math.gcd(t - t2, n) == 1])
        terms = [(0, t1)] * (6 * n2 - 1) + [(0, t2)] * (3 * n2 - 1) + [(1, rng.randrange(n))]
        els = g.elements()
        for _ in range(rng.randrange(1, 5)):
            terms[rng.randrange(len(terms))] = els[rng.randrange(len(els))]
        terms.append(els[rng.randrange(len(els))])
    else:
        terms = _uniform(rng, g, 9 * n2 - 1)
        while is_template(g, terms):
            terms = _uniform(rng, g, 9 * n2 - 1)
    return OpInput(index, f"{kind}/{g.n}", g, tuple(sorted(terms)), 6 * n2)


# Lengths keep each stratum's cost distribution narrow enough that a run of a
# few thousand ops has a steady mean; the non-abelian state search grows
# roughly tenfold per four extra terms.
ABELIAN_STRATA = ("cyclic", "cyclic", "cyclic-x-c2")
NONABELIAN_STRATA = (metacyclic(5, 4), metacyclic(8, 3), G30)


def abelian_input(seed: int, index: int) -> OpInput:
    kind = ABELIAN_STRATA[index % len(ABELIAN_STRATA)]
    rng = _rng(seed, index)
    if kind == "cyclic":
        g = cyclic(rng.randrange(2, 31))
        length = rng.randrange(8, 17)
    else:  # C_n x C_2 as the untwisted metacyclic group
        g = metacyclic(rng.randrange(3, 16), 1)
        length = rng.randrange(6, 10)
    terms = _uniform(rng, g, length)
    return OpInput(index, kind, g, tuple(sorted(terms)), rng.randrange(1, length + 1))


def nonabelian_input(seed: int, index: int) -> OpInput:
    g = NONABELIAN_STRATA[index % len(NONABELIAN_STRATA)]
    rng = _rng(seed, index)
    length = rng.randrange(6, 11)
    terms = _uniform(rng, g, length)
    return OpInput(index, f"n={g.n} s={g.s}", g, tuple(sorted(terms)), rng.randrange(1, length + 1))


def gao_input(seed: int, index: int) -> GroupDesc:
    """The index-th group of GAO_GROUPS in a seeded order."""
    order = list(GAO_GROUPS)
    _rng(seed, index // len(order)).shuffle(order)
    return order[index % len(order)]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
