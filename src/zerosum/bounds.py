"""The DeVos-Goddyn-Mohar lower bound on |Pi_n(S)| for abelian groups.

With H the full stabilizer of Pi_n(S), the bound reads

    |Pi_n(S)|  >=  ( sum over cosets gH of min(n, #terms of S in gH) - n + 1 ) * |H|.

The left side comes from the exact subproduct engine, the right side from the
coset tallies; a report where `holds` is false indicates an implementation
bug, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import Subgroup
from .sequences import Sequence
from .products import SubproductSet, subproducts


@dataclass(frozen=True)
class DgmReport:
    sequence: Sequence
    n: int
    lhs: int
    stabilizer: Subgroup
    rhs: int
    holds: bool


def dgm_rhs(seq: Sequence, n: int, h: Subgroup) -> int:
    """Right-hand side of the bound for stabilizer h.

    The parenthesized sum is reported raw (possibly nonpositive): a vacuous
    bound should look vacuous, and lhs >= 1 beats any nonpositive rhs anyway.
    """
    tally: dict[frozenset, int] = {}
    for el, m in seq.counts:
        coset = h.coset_of(el)
        tally[coset] = tally.get(coset, 0) + m
    total = sum(min(n, v) for v in tally.values())
    return (total - n + 1) * h.order


def dgm_check(seq: Sequence, n: int, budget: int | None = None) -> DgmReport:
    """Evaluate the bound on an abelian instance; rejects non-abelian groups."""
    g = seq.group
    if not g.is_abelian:
        raise ValueError("the bound is stated for abelian groups only")
    if not 1 <= n <= seq.length:
        raise ValueError(f"n={n} out of range [1, {seq.length}]")
    sub: SubproductSet = subproducts(seq, n, budget)
    lhs = len(sub.members)
    rhs = dgm_rhs(seq, n, sub.stabilizer)
    return DgmReport(
        sequence=seq, n=n, lhs=lhs, stabilizer=sub.stabilizer, rhs=rhs, holds=lhs >= rhs
    )
