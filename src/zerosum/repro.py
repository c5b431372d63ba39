"""Reproduction suites: seeded end-to-end checks of every headline claim.

Each criterion function returns a CriterionResult with a stable name, a
pass/fail flag, and a short detail string; suites bundle them for the CLI.
All randomness flows from one explicit seed, and per-trial seeds are derived
by index so results are independent of worker scheduling under --jobs.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .groups import Element, GroupSpec, mk_cyclic, mk_metacyclic, format_group
from .sequences import Sequence, format_sequence
from .products import BudgetExceeded, has_product_one, pi_set, subproducts, verify_witness
from .bounds import dgm_check
from .constants import (
    TEMPLATE_CYCLIC,
    TEMPLATE_D6,
    TEMPLATE_METACYCLIC,
    check_template,
    classify_extremal,
    davenport_constant,
    enumerate_free,
    gao_constant,
    orbit_sequences,
    template_instances,
    template_terms,
)
from .witnesses import (
    WitnessSearchExhausted,
    find_big_product_one,
    singleton_pi_structure,
    trace_rung,
)

D6 = mk_metacyclic(3, 2)
G30 = mk_metacyclic(15, 11)
G42 = mk_metacyclic(21, 8)  # n2 = 7: s = -1 (mod 3), s = +1 (mod 7)
DEFAULT_SEED = 42

# criterion sizes; each criterion prints its size on its row
LOWER_PER_GROUP = 24  # free and witnessed templates per group
UPPER_TRIALS = 1000  # uniform length-9n2 inputs
UPPER_ADVERSARIAL = 100  # near-template length-9n2 inputs
INVERSE_TRIALS = 1000
STRUCTURE_TRIALS = 1000
DGM_TRIALS = 10_000
ORACLE_TRIALS = 1000
WIDE_TRIALS = 200  # uniform and near-template inputs per group
WIDE_TEMPLATES = 50  # free templates per group


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    lines: list[str] = field(default_factory=list)


def _parallel_map(fn, items, jobs: int):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 4))))


# -- exact constants -------------------------------------------------------------------


def crit_gao_cyclic() -> CriterionResult:
    rows = []
    ok = True
    for n in range(2, 7):
        value = gao_constant(mk_cyclic(n)).value
        good = value == 2 * n - 1
        ok &= good
        rows.append(f"gao group=\"cyclic n={n}\" value={value} expect={2 * n - 1}")
    return CriterionResult("gao-cyclic", ok, "E(C_n) = 2n-1 for n in [2,6]", rows)


def crit_gao_d6() -> CriterionResult:
    rep = gao_constant(D6)
    rows = [f"gao group=\"{format_group(D6)}\" value={rep.value} expect=9"]
    return CriterionResult("gao-d6", rep.value == 9, "E(D6) = 9 by orbit-pruned enumeration", rows)


def crit_identity() -> CriterionResult:
    rows = []
    ok = True
    for g in [mk_cyclic(n) for n in range(2, 7)] + [D6]:
        e = gao_constant(g).value
        d = davenport_constant(g).value
        good = e == d + g.order
        ok &= good
        rows.append(f"identity group=\"{format_group(g)}\" gao={e} davenport={d} holds={str(good).lower()}")
    return CriterionResult("constant-identity", ok, "E(G) = d(G) + |G| wherever both are exact", rows)


# -- extremal classifications ------------------------------------------------------------


def crit_inverse_cyclic() -> CriterionResult:
    ok = True
    rows = []
    for n in (3, 4, 5):
        g = mk_cyclic(n)
        free = {s for rep in enumerate_free(g, 3 * n - 2, 2 * n) for s in orbit_sequences(rep)}
        tmpl = set(template_instances(g, TEMPLATE_CYCLIC))
        good = free == tmpl
        ok &= good
        rows.append(f"inverse group=\"cyclic n={n}\" free={len(free)} template={len(tmpl)} equal={str(good).lower()}")
    return CriterionResult(
        "inverse-cyclic", ok, "2n-product-one-free length-(3n-2) sequences = two-block template set", rows
    )


def crit_inverse_d6() -> CriterionResult:
    fams = classify_extremal(D6, 8, 6)
    names = {f.template for f in fams}
    good_names = names == {TEMPLATE_METACYCLIC, TEMPLATE_D6}
    free = {s for f in fams for rep in f.representatives for s in orbit_sequences(rep)}
    tmpl = set(template_instances(D6, TEMPLATE_METACYCLIC)) | set(template_instances(D6, TEMPLATE_D6))
    good = good_names and free == tmpl
    rows = [
        f"inverse group=\"{format_group(D6)}\" families={','.join(sorted(names))} "
        f"free={len(free)} template={len(tmpl)} equal={str(good).lower()}"
    ]
    return CriterionResult("inverse-d6", good, "6-product-one-free length-8 sequences: exactly the two families", rows)


# -- the 9*n2 threshold and its extremal shapes ------------------------------------------


def crit_lower_direction(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed)
    ok = True
    rows = []
    for g, n2 in ((G30, 5), (G42, 7)):
        n = g.n
        free_params, busy_params = [], []
        while len(free_params) < LOWER_PER_GROUP or len(busy_params) < LOWER_PER_GROUP:
            t1, t2, t3 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            d = math.gcd(t1 - t2, n)
            if d == 1 and len(free_params) < LOWER_PER_GROUP:
                free_params.append((t1, t2, t3))
            elif d > 1 and len(busy_params) < LOWER_PER_GROUP:
                busy_params.append((t1, t2, t3))
        free_ok = 0
        for params in free_params:
            s = Sequence.from_counts(g, template_terms(g, *params))
            if has_product_one(s, 6 * n2) is None:
                free_ok += 1
        busy_ok = 0
        for params in busy_params:
            s = Sequence.from_counts(g, template_terms(g, *params))
            w = has_product_one(s, 6 * n2)
            if w is not None and verify_witness(s, w)[0]:
                busy_ok += 1
        good = free_ok == LOWER_PER_GROUP and busy_ok == LOWER_PER_GROUP
        ok &= good
        rows.append(
            f"lower group=\"{format_group(g)}\" free_confirmed={free_ok}/{LOWER_PER_GROUP} "
            f"witnessed={busy_ok}/{LOWER_PER_GROUP}"
        )
    return CriterionResult(
        "lower-direction", ok, "template sequences are 6n2-product-one free iff gcd(t1-t2,3n2)=1", rows
    )


def _length_9n2_sequence(g: GroupSpec, n2: int, rng: random.Random, near_template: bool) -> Sequence:
    """A seeded length-9*n2 input: uniform, or a free template of length
    9*n2 - 1 with 1-4 terms overwritten and one term appended."""
    n = g.n
    els = g.elements()
    if not near_template:
        return Sequence.from_terms(g, [els[rng.randrange(len(els))] for _ in range(9 * n2)])
    t2 = rng.randrange(n)
    t1 = (t2 + 1) % n  # gcd(t1 - t2, n) = gcd(1, n) = 1 keeps the template free
    terms = [el for el, m in template_terms(g, t1, t2, rng.randrange(n)) for _ in range(m)]
    for _ in range(rng.randrange(1, 5)):
        terms[rng.randrange(len(terms))] = els[rng.randrange(len(els))]
    terms.append(els[rng.randrange(len(els))])
    return Sequence.from_terms(g, terms)


def _witness_trial(args) -> tuple[bool, str]:
    """One seeded (group, n2, kind, seed) trial.  `uniform` and `near-template`
    inputs of length 9*n2, and non-template ones of length 9*n2 - 1, must yield
    a verified 6*n2-witness, reported by its rung; a free `template` of length
    9*n2 - 1 must exhaust the search instead."""
    g, n2, kind, seed = args
    rng = random.Random(seed)
    if kind == "template":
        t2 = rng.randrange(g.n)
        t1 = rng.choice([t for t in range(g.n) if math.gcd(t - t2, g.n) == 1])
        s = Sequence.from_counts(g, template_terms(g, t1, t2, rng.randrange(g.n)))
    elif kind == "non-template":
        els = g.elements()
        s = None
        while s is None or check_template(s) is not None:
            s = Sequence.from_terms(g, (els[rng.randrange(len(els))] for _ in range(9 * n2 - 1)))
    else:
        s = _length_9n2_sequence(g, n2, rng, kind == "near-template")
    trace: list[str] = []
    try:
        w = find_big_product_one(s, trace=trace)
    except BudgetExceeded:
        raise  # an exhausted budget is no verdict on the theorem
    except Exception as exc:  # noqa: BLE001 - tallied, not hidden
        # exhausting a non-template input would be a brand-new extremal shape
        if kind == "template" and isinstance(exc, WitnessSearchExhausted):
            return True, "exhausted"
        return False, type(exc).__name__
    if kind == "template":
        return False, "witness-on-free-template"
    ok, reason = verify_witness(s, w)
    if not ok or w.k != 6 * n2:
        return False, reason
    return True, trace_rung(trace)


def _rung_tally(results: list[tuple[bool, str]]) -> str:
    """`rung_<name>=<count>` fields, one per rung that produced a passing trial."""
    rungs: dict[str, int] = {}
    for okflag, label in results:
        if okflag:
            rungs[label] = rungs.get(label, 0) + 1
    return " ".join(f"rung_{k.replace('-', '_')}={v}" for k, v in sorted(rungs.items()))


def _sampled(name: str, detail: str, head: str, args: list, jobs: int) -> CriterionResult:
    """One row: `head`, the failure count and the rung tally of the trials."""
    results = _parallel_map(_witness_trial, args, jobs)
    failures = sum(not okflag for okflag, _ in results)
    return CriterionResult(name, not failures, detail, [f"{head} failures={failures} " + _rung_tally(results)])


def crit_upper_sampled(seed: int = DEFAULT_SEED, jobs: int = 1) -> CriterionResult:
    args = [(G30, 5, "uniform", seed * 1_000_003 + i) for i in range(UPPER_TRIALS)]
    args += [(G30, 5, "near-template", seed * 2_000_003 + i) for i in range(UPPER_ADVERSARIAL)]
    return _sampled(
        "upper-sampled",
        f"verified 6n2-witness on all {UPPER_TRIALS}+{UPPER_ADVERSARIAL} seeded length-9n2 samples",
        f"upper trials={UPPER_TRIALS} adversarial={UPPER_ADVERSARIAL}",
        args,
        jobs,
    )


def crit_inverse_sampled(seed: int = DEFAULT_SEED, jobs: int = 1) -> CriterionResult:
    return _sampled(
        "inverse-sampled",
        "every non-template length-(9n2-1) sample yields a verified 6n2-witness",
        f"inverse-sampled trials={INVERSE_TRIALS}",
        [(G30, 5, "non-template", seed * 3_000_017 + i) for i in range(INVERSE_TRIALS)],
        jobs,
    )


# -- the 9*n2 theorem on wider groups -----------------------------------------------------

WIDE_GROUPS = ((mk_metacyclic(33, 23), 11), (mk_metacyclic(39, 14), 13), (mk_metacyclic(75, 26), 25))


def crit_main_theorem_wide(seed: int = DEFAULT_SEED, jobs: int = 1) -> CriterionResult:
    counts = {"uniform": WIDE_TRIALS, "near-template": WIDE_TRIALS, "template": WIDE_TEMPLATES}
    args = [(g, n2, kind) for g, n2 in WIDE_GROUPS for kind, count in counts.items() for _ in range(count)]
    args = [(*a, seed * 11_000_027 + i) for i, a in enumerate(args)]
    results = _parallel_map(_witness_trial, args, jobs)
    rows = []
    failed = 0
    for g, _ in WIDE_GROUPS:
        mine = [(kind, r) for (h, _, kind, _), r in zip(args, results) if h == g]
        failures = sum(not okflag for _, (okflag, _) in mine)
        exhausted = sum(okflag for kind, (okflag, _) in mine if kind == "template")
        failed += failures
        rows.append(
            f"wide group=\"{format_group(g)}\" uniform={WIDE_TRIALS} near_template={WIDE_TRIALS} "
            f"templates={WIDE_TEMPLATES} failures={failures} exhausted={exhausted} "
            + _rung_tally([r for kind, r in mine if kind != "template"])
        )
    return CriterionResult(
        "main-theorem-wide",
        failed == 0,
        "verified 6n2-witnesses on length-9n2 samples and exhausted free templates over G66, G78, G150",
        rows,
    )


# -- singleton product-set structure -----------------------------------------------------


def _structure_instance(rng: random.Random) -> tuple[Sequence, int]:
    """A length-5 sequence over G30 with singleton pi landing in a coset clause."""
    n1, n2 = 3, 5
    clause = rng.choice((1, 2))
    x_count = rng.choice((2, 4)) if clause == 1 else rng.choice((1, 3, 5))
    r = rng.randrange(n1)
    terms = [Element(1, (r + n1 * rng.randrange(n2)) % 15) for _ in range(x_count)]
    terms += [Element(0, (n1 * rng.randrange(n2)) % 15) for _ in range(n2 - x_count)]
    for delta in range(n2):
        cand = list(terms)
        el = cand[-1]
        cand[-1] = Element(el.eps, (el.a + n1 * delta) % 15)
        seq = Sequence.from_terms(G30, cand)
        pset = pi_set(seq)
        if len(pset) == 1 and next(iter(pset)).a % n2 == 0:
            return seq, clause
    raise AssertionError("mod-n2 adjustment must land within n2 tries")


def crit_structure(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = random.Random(seed)
    bad = 0
    per_clause = {1: 0, 2: 0}
    for _ in range(STRUCTURE_TRIALS):
        seq, clause = _structure_instance(rng)
        report = singleton_pi_structure(seq)
        if report.clause != clause or not report.holds:
            bad += 1
        else:
            per_clause[clause] += 1
    rows = [f"structure trials={STRUCTURE_TRIALS} clause1={per_clause[1]} clause2={per_clause[2]} failures={bad}"]
    return CriterionResult(
        "singleton-structure", bad == 0, "coset-clause conclusions hold on all constructed singleton-pi inputs", rows
    )


# -- engine cross-checks ------------------------------------------------------------------


def _dgm_trial(seed: int) -> tuple[int, int, int, Sequence] | None:
    """One seeded DGM instance: at most 20 terms over a cyclic group of order at
    most 30.  None when the bound holds, else the violation (n, lhs, rhs, sequence)."""
    rng = random.Random(seed)
    m = rng.randrange(2, 31)
    g = mk_cyclic(m)
    length = rng.randrange(1, 21)
    seq = Sequence.from_terms(g, (Element(0, rng.randrange(m)) for _ in range(length)))
    n = rng.randrange(1, length + 1)
    rep = dgm_check(seq, n)
    return None if rep.holds else (n, rep.lhs, rep.rhs, seq)


def crit_dgm(seed: int = DEFAULT_SEED, jobs: int = 1) -> CriterionResult:
    results = _parallel_map(_dgm_trial, [seed * 5_000_011 + i for i in range(DGM_TRIALS)], jobs)
    violations = [(i, r) for i, r in enumerate(results) if r is not None]
    rows = [f"dgm-fuzz trials={DGM_TRIALS} violations={len(violations)}"]
    rows += [
        f"dgm-violation trial={i} group=\"{format_group(seq.group)}\" n={n} lhs={lhs} rhs={rhs} "
        f": {format_sequence(seq)}"
        for i, (n, lhs, rhs, seq) in violations
    ]
    return CriterionResult(
        "dgm-bound", not violations, "subproduct lower bound holds on all seeded abelian instances", rows
    )


_SMALL_GROUPS = (
    [mk_cyclic(n) for n in range(2, 11)]
    + [mk_metacyclic(3, 2), mk_metacyclic(3, 1), mk_metacyclic(4, 3), mk_metacyclic(4, 1),
       mk_metacyclic(5, 4), mk_metacyclic(5, 1)]
)


def _oracle_trial(seed: int) -> bool:
    rng = random.Random(seed)
    g = _SMALL_GROUPS[rng.randrange(len(_SMALL_GROUPS))]
    els = g.elements()
    length = rng.randrange(1, 10)
    terms = [els[rng.randrange(len(els))] for _ in range(length)]
    seq = Sequence.from_terms(g, terms)
    n = rng.randrange(0, length + 1)
    got = sorted(subproducts(seq, n).members)
    return got == sorted(_arrangement_products(g, terms, n))


def _arrangement_products(g: GroupSpec, terms: list[Element], n: int) -> set[Element]:
    """Products of every ordered length-n arrangement of terms, by a depth-first
    walk over distinct multiset arrangements that extends prefix products."""
    distinct = sorted(set(terms))
    left = [terms.count(el) for el in distinct]
    out: set[Element] = set()

    def walk(depth: int, prod: Element) -> None:
        if depth == n:
            out.add(prod)
            return
        for i, el in enumerate(distinct):
            if left[i]:
                left[i] -= 1
                walk(depth + 1, g.mul(prod, el))
                left[i] += 1

    walk(0, g.identity)
    return out


def crit_oracle(seed: int = DEFAULT_SEED, jobs: int = 1) -> CriterionResult:
    results = _parallel_map(_oracle_trial, [seed * 7_000_003 + i for i in range(ORACLE_TRIALS)], jobs)
    bad = results.count(False)
    rows = [f"oracle trials={ORACLE_TRIALS} mismatches={bad}"]
    return CriterionResult(
        "oracle-equivalence", bad == 0, "subproducts matches the factorial-enumeration oracle", rows
    )


# -- suites ------------------------------------------------------------------------------


SUITES = {
    "cyclic": lambda seed, jobs: [crit_gao_cyclic(), crit_inverse_cyclic(), crit_identity()],
    "d6": lambda seed, jobs: [crit_gao_d6(), crit_inverse_d6()],
    "main-theorem": lambda seed, jobs: [
        crit_lower_direction(seed),
        crit_upper_sampled(seed, jobs=jobs),
        crit_inverse_sampled(seed, jobs=jobs),
        crit_structure(seed),
    ],
    "main-theorem-wide": lambda seed, jobs: [crit_main_theorem_wide(seed, jobs=jobs)],
    "dgm": lambda seed, jobs: [crit_dgm(seed, jobs=jobs), crit_oracle(seed, jobs=jobs)],
    "all": lambda seed, jobs: [
        r for part in ("cyclic", "d6", "main-theorem", "dgm") for r in SUITES[part](seed, jobs)
    ],
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED, jobs: int = 1) -> list[CriterionResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose {', '.join(SUITE_NAMES)})")
    return SUITES[name](seed, jobs)
