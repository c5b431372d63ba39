"""The benchmark workloads: what one op calls, and how its answer is checked.

Every op goes through the public ``zerosum`` API only.  `check` runs outside
the timed region and uses `oracle`, which shares no code with the engine; it
returns None for a correct answer and a reason otherwise.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import inputs
import oracle
from tracing import RUNGS


def _pairs(elements) -> list[tuple[int, int]]:
    return [(el.eps, el.a) for el in elements]


def library_group(lib, g: inputs.GroupDesc):
    return lib.mk_cyclic(g.n) if g.kind == inputs.CYCLIC else lib.mk_metacyclic(g.n, g.s)


def library_sequence(lib, inp: inputs.OpInput):
    group = library_group(lib, inp.group)
    return lib.Sequence.from_terms(group, [lib.Element(e, a) for e, a in inp.terms])


def rung_of(trace) -> str:
    """The ladder rung named by the last trace entry ('unknown' if unreadable)."""
    last = trace[-1] if trace else None
    rung = last.partition("rung=")[2].split(" ", 1)[0] if isinstance(last, str) else ""
    return rung if rung in RUNGS else "unknown"


# -- witness-9n2 -------------------------------------------------------------------


def witness_op(lib, seq, trace: list | None = None):
    if trace is None:
        w = lib.find_big_product_one(seq)
    else:
        w = lib.find_big_product_one(seq, trace=trace)
    return w, lib.verify_witness(seq, w)


def witness_check(inp: inputs.OpInput, result) -> str | None:
    w, (ok, reason) = result
    if not ok:
        return f"verify_witness rejected its own witness: {reason}"
    g = inp.group
    return oracle.witness_problem(g.n, g.s, inp.terms, _pairs(w.elements), inp.k)


def witness_traced_op(lib, seq, rungs: dict):
    """The traced form of witness_op: also reads the rung from the string trace."""
    if "trace" not in inspect.signature(lib.find_big_product_one).parameters:
        rungs["unknown"] += 1
        return witness_op(lib, seq)
    trace: list = []
    try:
        return witness_op(lib, seq, trace)
    finally:
        rungs[rung_of(trace)] += 1


# -- gao-exact -----------------------------------------------------------------------


def gao_op(lib, group):
    return lib.gao_constant(group).value, lib.davenport_constant(group).value


def gao_check(g: inputs.GroupDesc, result) -> str | None:
    return oracle.constants_problem(g.kind, g.n, g.s, *result)


# -- subproducts ---------------------------------------------------------------------


def subproducts_op(lib, seq, k: int):
    sub = lib.subproducts(seq, k)
    w = lib.has_product_one(seq, k)
    report = lib.dgm_check(seq, k) if seq.group.is_abelian else None
    return sub, w, report


def subproducts_check(inp: inputs.OpInput, result) -> str | None:
    sub, w, report = result
    g, terms, k = inp.group, inp.terms, inp.k
    members = frozenset(_pairs(sub.members))
    want = oracle.subproduct_set(g.n, g.s, terms, k)
    if members != want:
        return f"Pi_{k} has {sorted(members)}, oracle has {sorted(want)}"
    stab = oracle.set_stabilizer(g.n, g.s, want, g.elements())
    if frozenset(_pairs(sub.stabilizer.members)) != stab:
        return f"stabilizer of Pi_{k} is wrong"
    if (w is None) == ((0, 0) in want):
        return f"has_product_one returned {w!r} but 1 in Pi_{k} is {(0, 0) in want}"
    if w is not None:
        problem = oracle.witness_problem(g.n, g.s, terms, _pairs(w.elements), k)
        if problem:
            return f"has_product_one witness: {problem}"
    if g.abelian:
        if report is None or not report.holds:
            return "DGM bound reported as failing"
        if report.lhs != len(want) or report.rhs != oracle.dgm_rhs(g.n, g.s, terms, k, stab):
            return f"DGM sides ({report.lhs}, {report.rhs}) disagree with the oracle"
    return None


# -- registry ------------------------------------------------------------------------


def _gao_warm(lib, seed: int) -> None:
    # fills the per-group caches (Cayley table, automorphisms) cheaply
    for g in inputs.GAO_GROUPS:
        lib.davenport_constant(library_group(lib, g))


def _warm_by_ops(describe, strata, prepare, op):
    def warm(lib, seed: int) -> None:
        # one op per stratum on inputs the work set does not hold (negative indices)
        for j in range(strata):
            op(lib, *prepare(lib, describe(seed, -1 - j)))

    return warm


def _seq_args(lib, inp):
    return (library_sequence(lib, inp),)


def _seq_k_args(lib, inp):
    return library_sequence(lib, inp), inp.k


@dataclass(frozen=True)
class Workload:
    describe: Callable  # (seed, index) -> input description with .encode()
    prepare: Callable  # (lib, description) -> op arguments, fresh library values
    op: Callable  # (lib, *arguments) -> answer; the timed call
    check: Callable  # (description, answer) -> None, or why the answer is wrong
    warm: Callable  # (lib, seed) -> None; fills the library's caches
    size: int  # inputs in the work set; a pass runs each once
    traced_op: Callable | None = None  # (lib, *arguments, rungs) -> answer


# Work-set sizes make one pass take 0.7-3 s on a 2-vCPU Xeon VM, so a 20 s run
# repeats every input seven times or more.
WORKLOADS = {
    "witness-9n2": Workload(
        inputs.witness_input, _seq_args, witness_op, witness_check,
        _warm_by_ops(inputs.witness_input, len(inputs.WITNESS_STRATA), _seq_args, witness_op),
        size=48 * len(inputs.WITNESS_STRATA), traced_op=witness_traced_op,
    ),
    "gao-exact": Workload(
        inputs.gao_input, lambda lib, g: (library_group(lib, g),), gao_op, gao_check, _gao_warm,
        size=len(inputs.GAO_GROUPS),
    ),
    "subproducts-abelian": Workload(
        inputs.abelian_input, _seq_k_args, subproducts_op, subproducts_check,
        _warm_by_ops(inputs.abelian_input, len(inputs.ABELIAN_STRATA), _seq_k_args, subproducts_op),
        size=1800,
    ),
    "subproducts-nonabelian": Workload(
        inputs.nonabelian_input, _seq_k_args, subproducts_op, subproducts_check,
        _warm_by_ops(inputs.nonabelian_input, len(inputs.NONABELIAN_STRATA), _seq_k_args, subproducts_op),
        size=900,
    ),
}
