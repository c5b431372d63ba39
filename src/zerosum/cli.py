"""Command-line front end.

Subcommands: group, pi, subproducts, check, verify-witness, gao, davenport,
classify, template, dgm, witness, repro.  Output is human-readable by
default; --records switches to line-delimited key=value records in which every
line parses independently.  Exit statuses: 0 ok, 2 claim false, 3 infeasible,
4 budget exceeded, 64 usage error.  ZEROSUM_BUDGET overrides the default
limit on DP cells per search; a negative or non-integer limit is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .groups import (
    GroupError,
    factorize,
    format_element,
    format_group,
    parse_group,
)
from .sequences import (
    Sequence,
    SequenceParseError,
    format_sequence,
    parse_sequence_file,
)
from .products import (
    BudgetExceeded,
    find_arrangement,
    format_witness_line,
    has_product_one,
    parse_witness_line,
    pi_set,
    resolve_budget,
    subproducts,
    verify_witness,
)
from .bounds import dgm_check
from .constants import (
    InfeasibleSize,
    check_template,
    classify_extremal,
    davenport_constant,
    gao_constant,
)
from .witnesses import WitnessSearchExhausted, family_context, find_big_product_one, trace_rung
from . import repro

EXIT_OK = 0
EXIT_CLAIM_FALSE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Out:
    def __init__(self, records: bool):
        self.records = records

    def emit(self, human: str, **fields):
        if self.records:
            print(" ".join(f"{k}={_quote(v)}" for k, v in fields.items()))
        else:
            print(human)

    def raw(self, line: str):
        print(line)


def _quote(v) -> str:
    s = str(v)
    if isinstance(v, bool):
        s = s.lower()
    return f'"{s}"' if " " in s else s


def _load_sequence(path: str, expected_group: str | None = None) -> Sequence:
    seq = parse_sequence_file(Path(path).read_text(encoding="utf-8"))
    if expected_group is not None and parse_group(expected_group) != seq.group:
        raise ValueError(
            f"--group {expected_group!r} does not match the file's group "
            f"{format_group(seq.group)!r}"
        )
    return seq


def _budget(args) -> int:
    return resolve_budget(args.budget)


def _jobs(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _add_common(p: argparse.ArgumentParser, *, seq=False, group=False, budget=True):
    p.add_argument("--records", action="store_true", help="line-delimited key=value output")
    if budget:
        p.add_argument("--budget", type=int, default=None,
                       help="limit on DP cells per search (default: ZEROSUM_BUDGET or 10^8)")
    if seq:
        p.add_argument("--seq", required=True, help="sequence file")
        p.add_argument("--group", default=None,
                       help="optional group literal; must match the file's group line")
    if group:
        p.add_argument("--group", required=True, help='group literal, e.g. "metacyclic n=15 s=11"')


def build_parser() -> _Parser:
    top = _Parser(prog="zerosum", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("group", help="validate and describe a group literal")
    _add_common(p, group=True, budget=False)
    p.set_defaults(run=_cmd_group)

    p = sub.add_parser("pi", help="the set of products of the full sequence")
    _add_common(p, seq=True)
    p.set_defaults(run=_cmd_pi)

    p = sub.add_parser("subproducts", help="products over all length-n subsequences")
    _add_common(p, seq=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_subproducts)

    p = sub.add_parser("check", help="assert the sequence is k-product-one free")
    _add_common(p, seq=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("verify-witness", help="verify witness certificate lines against a sequence")
    _add_common(p, seq=True, budget=False)
    p.add_argument("--witness", required=True, help="file of witness lines")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("gao", help="exact Gao constant by growing free sequences level by level")
    _add_common(p, group=True)
    p.set_defaults(run=functools.partial(_cmd_constant, gao_constant))

    p = sub.add_parser("davenport", help="exact small Davenport constant")
    _add_common(p, group=True)
    p.set_defaults(run=functools.partial(_cmd_constant, davenport_constant))

    p = sub.add_parser("classify", help="classify k-product-one-free sequences of a length")
    _add_common(p, group=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("template", help="match a sequence against the extremal templates")
    _add_common(p, seq=True, budget=False)
    p.set_defaults(run=_cmd_template)

    p = sub.add_parser("dgm", help="subproduct lower-bound report (seeded fuzzing: repro dgm)")
    _add_common(p, seq=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_dgm)

    p = sub.add_parser("witness", help="find a verified k-product-one witness")
    _add_common(p, seq=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--trace", action="store_true",
        help="print the step records of the witness path (y-part, one block pass, kernel) "
             "first; only family inputs with k = 6*n2 and length >= 9*n2 - 1 take that "
             "path, and others print no trace",
    )
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("repro", help="run a reproduction suite")
    p.add_argument("suite", choices=repro.SUITE_NAMES)
    p.add_argument("--records", action="store_true")
    p.add_argument("--seed", type=int, default=repro.DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    p.set_defaults(run=_cmd_repro)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return exc.code
    out = _Out(getattr(args, "records", False))
    try:
        return args.run(args, out)
    except (GroupError, SequenceParseError, FileNotFoundError, ValueError) as exc:
        print(f"zerosum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleSize as exc:
        print(f"zerosum: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceeded as exc:
        print(f"zerosum: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def _cmd_group(args, out: _Out) -> int:
    g = parse_group(args.group)
    fields = {"group": format_group(g), "order": g.order, "abelian": g.is_abelian}
    human = f"{format_group(g)}: order {g.order}, {'abelian' if g.is_abelian else 'non-abelian'}"
    if g.kind == "metacyclic":
        f = factorize(g)
        fields.update(n1=f.n1, n2=f.n2)
        human += f", n = {f.n1} * {f.n2}"
    out.emit(human, op="group", **fields)
    return EXIT_OK


def _cmd_pi(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    members = sorted(pi_set(seq, _budget(args)))
    out.emit(
        f"pi(S) has {len(members)} element(s) for |S| = {seq.length}",
        op="pi", length=seq.length, size=len(members),
    )
    for el in members:
        out.emit(f"  {format_element(el)}", member=format_element(el))
    return EXIT_OK


def _cmd_subproducts(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    sub = subproducts(seq, args.n, _budget(args))
    out.emit(
        f"Pi_{args.n}(S) has {len(sub.members)} element(s); stabilizer of order {sub.stabilizer.order}",
        op="subproducts", n=args.n, size=len(sub.members), stabilizer_order=sub.stabilizer.order,
    )
    for el in sorted(sub.members):
        out.emit(f"  {format_element(el)}", member=format_element(el))
    return EXIT_OK


def _cmd_check(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    w = has_product_one(seq, args.k, _budget(args))
    free = w is None
    out.emit(
        f"S is {'free of' if free else 'NOT free of'} product-one subsequences of length {args.k}",
        op="check", k=args.k, free=free,
    )
    if w is not None:
        out.raw(format_witness_line(w))
    return EXIT_OK if free else EXIT_CLAIM_FALSE


def _cmd_verify(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    status = EXIT_OK
    for lineno, line in enumerate(Path(args.witness).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        w = parse_witness_line(line, seq.group)
        ok, reason = verify_witness(seq, w)
        out.emit(
            f"line {lineno}: {'OK' if ok else 'FAILED'} ({reason})",
            op="verify-witness", line=lineno, ok=ok, reason=reason,
        )
        if not ok:
            status = EXIT_CLAIM_FALSE
    return status


def _cmd_constant(fn, args, out: _Out) -> int:
    g = parse_group(args.group)
    rep = fn(g, budget=_budget(args))
    out.emit(
        f"{args.cmd} constant of {format_group(g)} = {rep.value} "
        f"({len(rep.certificates)} extremal orbit(s))",
        constant=args.cmd, group=format_group(g), value=rep.value,
        extremal_count=len(rep.certificates),
    )
    for cert in rep.certificates:
        out.raw(format_sequence(cert))
    return EXIT_OK


def _cmd_classify(args, out: _Out) -> int:
    g = parse_group(args.group)
    fams = classify_extremal(g, args.length, args.k, budget=_budget(args))
    out.emit(
        f"{sum(len(f.representatives) for f in fams)} extremal orbit(s) in {len(fams)} family(ies)",
        op="classify", group=format_group(g), length=args.length, k=args.k, families=len(fams),
    )
    status = EXIT_OK
    for fam in fams:
        out.emit(
            f"family {fam.template}: {len(fam.representatives)} orbit(s)",
            family=fam.template, orbits=len(fam.representatives),
        )
        for rep in fam.representatives:
            out.raw(format_sequence(rep))
        if fam.template == "unmatched":
            print("zerosum: warning: unmatched extremal orbits found", file=sys.stderr)
            status = EXIT_CLAIM_FALSE
    return status


def _cmd_template(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    m = check_template(seq)
    if m is None:
        out.emit("no template matches", op="template", match="none")
        return EXIT_CLAIM_FALSE
    gens = " ".join(format_element(e) for e in m.generators)
    params = ",".join(map(str, m.params))
    out.emit(
        f"matches {m.name} with generators ({gens}) and parameters ({params})",
        op="template", match=m.name, generators=gens, params=params,
    )
    return EXIT_OK


def _cmd_dgm(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    rep = dgm_check(seq, args.n, _budget(args))
    out.emit(
        f"|Pi_{args.n}(S)| = {rep.lhs} >= bound {rep.rhs} (stabilizer order {rep.stabilizer.order}): "
        f"{'holds' if rep.holds else 'VIOLATED'}",
        op="dgm", n=args.n, lhs=rep.lhs, rhs=rep.rhs,
        stabilizer_order=rep.stabilizer.order, holds=rep.holds,
    )
    return EXIT_OK if rep.holds else EXIT_CLAIM_FALSE


def _cmd_witness(args, out: _Out) -> int:
    seq = _load_sequence(args.seq, args.group)
    g = seq.group
    w = None
    via = "direct"
    try:
        fam = family_context(g)
    except ValueError:
        fam = None
    if fam is not None and args.k == 6 * fam.n2 and seq.length >= 9 * fam.n2 - 1:
        trace: list[str] = []
        try:
            w = find_big_product_one(seq, budget=_budget(args), trace=trace)
            via = trace_rung(trace)
        except WitnessSearchExhausted:
            w = None
        if args.trace:
            for line in trace:
                out.raw(line)
    else:
        w = find_arrangement(seq, args.k, g.identity, _budget(args))
    if w is None:
        out.emit(f"no product-one subsequence of length {args.k} found", op="witness", k=args.k, found=False)
        return EXIT_CLAIM_FALSE
    ok, reason = verify_witness(seq, w)
    assert ok, reason
    out.emit(f"found and verified (via {via}):", op="witness", k=args.k, found=True, rung=via)
    out.raw(format_witness_line(w))
    return EXIT_OK


def _cmd_repro(args, out: _Out) -> int:
    jobs = _jobs(args)
    resolve_budget()  # a bad ZEROSUM_BUDGET is a usage error, not a failed trial
    t0 = time.time()
    results = repro.run_suite(args.suite, seed=args.seed, jobs=jobs)
    failed = 0
    for r in results:
        out.emit(
            f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}",
            suite=args.suite, criterion=r.name, passed=r.passed,
        )
        for line in r.lines:
            out.raw("  " + line if not out.records else line)
        failed += 0 if r.passed else 1
    out.emit(
        f"suite {args.suite}: {len(results) - failed}/{len(results)} criteria passed",
        suite=args.suite, passed=len(results) - failed, failed=failed, seed=args.seed,
    )
    print(f"zerosum: suite {args.suite} took {time.time() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_CLAIM_FALSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
