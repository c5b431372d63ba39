import random
from functools import reduce

import pytest

from zerosum import witnesses
from zerosum.constants import gao_constant
from zerosum.groups import (
    Element,
    crt_scalars,
    factorize,
    mk_metacyclic,
    mul_table,
)
from zerosum.sequences import Sequence
from zerosum.products import (
    BudgetExceeded,
    ProductWitness,
    _Budget,
    _SignClassDP,
    has_product_one,
    pi_set,
    verify_witness,
)
from zerosum.repro import _length_9n2_sequence, _witness_trial
from zerosum.witnesses import (
    WitnessSearchExhausted,
    extract_product_h_blocks,
    family_context,
    find_big_product_one,
    improve_x_coverage,
    make_decomposition,
    singleton_pi_structure,
    trace_rung,
)

G30 = mk_metacyclic(15, 11)
G42 = mk_metacyclic(21, 8)


def y(a, g=G30):
    return Element(0, a % g.n)


def xy(a, g=G30):
    return Element(1, a % g.n)


def test_family_context():
    fam = family_context(G30)
    assert fam.n2 == 5
    assert fam.kernel.order == 6
    assert {fam.component(Element(0, a)) for a in range(0, 15, 5)} == {0}
    assert fam.component(Element(0, 3)) != 0
    assert family_context(G42).n2 == 7
    with pytest.raises(ValueError):
        family_context(mk_metacyclic(9, 8))  # n1 = 9, outside the family
    with pytest.raises(ValueError):
        family_context(mk_metacyclic(15, 4))  # n1 = 5


def test_extract_blocks_accounting():
    fam = family_context(G30)
    rng = random.Random(0)
    els = G30.elements()
    terms = [els[rng.randrange(30)] for _ in range(44)]
    s = Sequence.from_terms(G30, terms)
    d = extract_product_h_blocks(s)
    assert len(d.blocks) == 8
    assert all(b.length == 5 for b in d.blocks)
    # conservation: blocks + remainder = source
    assert reduce(Sequence.concat, d.blocks, d.remainder) == s
    # every block is a kernel-product block: its products stay inside the kernel
    for b, ps in zip(d.blocks, d.products):
        assert ps == pi_set(b)
        assert all(p in fam.kernel for p in ps)
    # eight blocks need 9*n2 - 1 = 44 terms
    with pytest.raises(ValueError, match="44"):
        extract_product_h_blocks(Sequence.from_terms(G30, terms[:43]))
    # a block whose products leave the kernel is rejected
    with pytest.raises(ValueError, match=r"not a product-<x, y\^5> sequence"):
        make_decomposition([Sequence.from_terms(G30, [y(1)] + [y(0)] * 4)], Sequence.empty(G30))


def test_blocks_trivial_when_inside_kernel():
    fam = family_context(G30)
    s = Sequence.from_counts(G30, {Element(0, 5): 30, Element(1, 10): 14})
    d = extract_product_h_blocks(s)
    assert all(all(fam.component(el) == 0 for el in b.support) for b in d.blocks)


def test_improve_x_coverage():
    fam = family_context(G30)
    # blocks of matching component classes; x-terms stuck in the remainder
    s = Sequence.from_counts(
        G30, {Element(0, 0): 39, Element(1, 0): 2, Element(1, 5): 2, Element(0, 5): 1}
    )
    d = extract_product_h_blocks(s)
    base = make_decomposition(list(d.blocks), d.remainder)
    improved = improve_x_coverage(base)
    assert improved.x_coverage() >= base.x_coverage()
    assert improved.x_coverage() >= 2  # enough matching classes to spread both
    # conservation and kernel-product preserved
    assert reduce(Sequence.concat, improved.blocks, improved.remainder) == s
    for b in improved.blocks:
        assert all(p in fam.kernel for p in pi_set(b))
    # a fixpoint stays put, without rebuilding the decomposition
    again = improve_x_coverage(improved)
    assert again is improved


def test_find_big_product_one_trivial():
    s = Sequence.from_counts(G30, {y(1): 45})
    w = find_big_product_one(s)
    assert w.k == 30
    assert verify_witness(s, w) == (True, "ok")


def test_find_big_product_one_extremal_plus_one():
    s = Sequence.from_counts(G30, {y(1): 29, y(2): 14, xy(7): 1, Element(0, 0): 1})
    trace = []
    w = find_big_product_one(s, trace=trace)
    assert verify_witness(s, w)[0]
    assert any("rung=" in t for t in trace)


def test_find_big_product_one_random_batch():
    rng = random.Random(123)
    els = G30.elements()
    for _ in range(150):
        s = Sequence.from_terms(G30, (els[rng.randrange(30)] for _ in range(45)))
        w = find_big_product_one(s)
        assert w.k == 30
        assert verify_witness(s, w)[0]


def test_find_big_product_one_order42():
    rng = random.Random(7)
    els = G42.elements()
    for _ in range(40):
        s = Sequence.from_terms(G42, (els[rng.randrange(42)] for _ in range(63)))
        w = find_big_product_one(s)
        assert w.k == 42
        assert verify_witness(s, w)[0]


def test_find_big_product_one_order66_uses_block_pass():
    # n2 = 11: the block pass answers uniform inputs where the whole-sequence
    # kernel alone is several times slower
    g66 = mk_metacyclic(33, 23)
    rng = random.Random(11)
    els = g66.elements()
    for _ in range(30):
        s = Sequence.from_terms(g66, (els[rng.randrange(66)] for _ in range(99)))
        trace = []
        w = find_big_product_one(s, trace=trace)
        assert w.k == 66
        assert verify_witness(s, w) == (True, "ok")
        assert trace_rung(trace) == "pipeline"


def test_block_pass_builds_one_dp_per_block(monkeypatch):
    # eight blocks, one product DP each: no second DP for whole-blocks and
    # no rebuild after a coverage swap
    calls = []
    for name in ("pi_set", "products_with_arranger"):
        inner = getattr(witnesses, name)

        def counted(*args, _inner=inner, **kwargs):
            calls.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(witnesses, name, counted)
    rng = random.Random(123)
    els = G30.elements()
    served = 0
    for _ in range(50):
        s = Sequence.from_terms(G30, (els[rng.randrange(30)] for _ in range(45)))
        calls.clear()
        trace = []
        w = find_big_product_one(s, trace=trace)
        assert verify_witness(s, w) == (True, "ok")
        if trace_rung(trace) == "pipeline":
            served += 1
            assert len(calls) == 8
    assert served > 0


def test_failed_whole_blocks_falls_to_kernel(monkeypatch):
    # adversarial trial 29 of `repro upper` at seed 42: the whole-blocks
    # search finds no closing composition, and the kernel answers at once
    traces = []
    inner = witnesses.find_big_product_one

    def traced(seq, **kwargs):
        w = inner(seq, **kwargs)
        traces.append((seq, kwargs["trace"], w))
        return w

    monkeypatch.setattr("zerosum.repro.find_big_product_one", traced)
    assert _witness_trial((G30, 5, "near-template", 84000155)) == (True, "direct")
    (s, trace, w), = traces
    assert sum(t.startswith("step=whole-blocks") for t in trace) == 1
    assert trace_rung(trace) == "direct"
    assert w.k == 30
    assert verify_witness(s, w) == (True, "ok")


def _whole_blocks_bfs(d, fam, tr):
    """The breadth-first (used-block mask, product) search the depth-first
    one replaced: it expands every reachable state of levels 0-5, records
    the first parent of each state, and stops at the first closing state."""
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
                    if nst in parents:
                        continue
                    parents[nst] = (state, i, sigma)
                    nxt.append(nst)
                    if level == 5 and nst[1] == ident:
                        path = []
                        while parents[nst] is not None:
                            nst, i, sigma = parents[nst]
                            path.append((i, g.element_at(sigma)))
                        path.reverse()
                        elements = [el for i, sigma in path for el in d.arrangers[i](sigma)]
                        tr(step="whole-blocks", blocks=",".join(str(i) for i, _ in path))
                        return ProductWitness(tuple(elements), g.identity)
        frontier = nxt
    tr(step="whole-blocks", hit="none")
    return None


def test_whole_blocks_matches_bfs_oracle():
    # the depth-first search returns the lexicographically first closing
    # (block, product) sequence, which is the one the breadth-first search
    # reaches first: same hit or none, same witness, same blocks= field
    # the near-template input of `_witness_trial((G30, 5, "near-template", 84000155))`:
    # no closing composition
    inputs = [(G30, 5, _length_9n2_sequence(G30, 5, random.Random(84000155), True))]
    rng = random.Random(10)
    for g, n2, count in ((G30, 5, 40), (G42, 7, 30), (mk_metacyclic(33, 23), 11, 15)):
        for near_template in (False, True):
            inputs += [(g, n2, _length_9n2_sequence(g, n2, rng, near_template)) for _ in range(count)]
    hits = misses = 0
    for g, n2, s in inputs:
        fam = family_context(g)
        d = extract_product_h_blocks(s)
        got, want = [], []
        w = witnesses._stage_whole_blocks(d, fam, lambda **kv: got.append(kv))
        expect = _whole_blocks_bfs(d, fam, lambda **kv: want.append(kv))
        assert got == want
        assert w == expect
        if w is None:
            misses += 1
            continue
        hits += 1
        assert w.k == 6 * n2
        assert verify_witness(s, w, g.identity) == (True, "ok")
    assert misses >= 1 and hits > misses


def _pick_subset(seq, class_of, m, budget):
    """The per-pick regrouping the one-histogram extraction replaced: an
    m-term subsequence whose class values sum to 0 mod m, class counts from
    the DP and terms in canonical element order."""
    pools = {}
    for el, cnt in seq.counts:
        pools.setdefault(class_of(el), []).append((el, cnt))
    pairs = sorted(pools.items())
    entries = [(False, cls, sum(cnt for _, cnt in pool)) for cls, pool in pairs]
    dp = _SignClassDP(entries, m, 1, m, m, budget)
    picks = dp.pick(m, 0, 0)
    if picks is None:
        return None
    picked = {}
    for (_, pool), (copies, _) in zip(pairs, picks):
        if not copies:
            continue
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


def _extract_sequential(seq, budget):
    """Eight picks, each over what the previous ones left: (blocks, remainder, spend)."""
    fam = family_context(seq.group)
    b = _Budget(budget)
    blocks, remaining = [], seq
    for _ in range(8):
        blocks.append(_pick_subset(remaining, fam.component, fam.n2, b))
        remaining = remaining.remove(blocks[-1])
    return blocks, remaining, b.used


def _outcome(run):
    try:
        return run()
    except BudgetExceeded as exc:
        return ("budget", exc.used, exc.limit)


def test_extract_matches_sequential_oracle():
    # the same blocks, remainder and DP spend as the sequential picks, under
    # the pick spend U, U - 1 and the default budget
    rng = random.Random(17)
    inputs = []
    for g, n2, count in ((G30, 5, 6), (G42, 7, 4), (mk_metacyclic(33, 23), 11, 2)):
        for near_template in (False, True):
            inputs += [_length_9n2_sequence(g, n2, rng, near_template) for _ in range(count)]
    d6 = mk_metacyclic(3, 2)  # n2 = 1: single-term blocks
    els = d6.elements()
    inputs += [Sequence.from_terms(d6, (rng.choice(els) for _ in range(9))) for _ in range(3)]
    for s in inputs:
        blocks, remainder, used = _extract_sequential(s, None)
        d = extract_product_h_blocks(s)
        assert d.blocks == tuple(blocks) and d.remainder == remainder
        for budget in (used, used - 1, None):

            def oracle():
                blocks, remainder, _ = _extract_sequential(s, budget)
                return make_decomposition(blocks, remainder, budget)

            got = _outcome(lambda: extract_product_h_blocks(s, budget=budget))
            assert got == _outcome(oracle)


def test_find_big_product_one_d6():
    # n2 = 1: the blocks are single terms, picked by the subset-sum DP over Z_1
    d6 = mk_metacyclic(3, 2)
    assert crt_scalars(d6) == (0, 1)
    rng = random.Random(6)
    els = d6.elements()
    inputs = list(gao_constant(d6).certificates)  # free at length 8
    for length in (8, 9, 12):
        inputs += [
            Sequence.from_terms(d6, (els[rng.randrange(6)] for _ in range(length)))
            for _ in range(40)
        ]
    exhausted = 0
    for s in inputs:
        try:
            w = find_big_product_one(s)
        except WitnessSearchExhausted:
            exhausted += 1
            assert has_product_one(s, 6) is None
            continue
        assert has_product_one(s, 6) is not None
        assert w.k == 6 and verify_witness(s, w) == (True, "ok")
    assert exhausted == 4


def test_find_big_product_one_rejections():
    s = Sequence.from_counts(G30, {y(1): 10})
    with pytest.raises(ValueError):
        find_big_product_one(s)
    ext = Sequence.from_counts(G30, {y(1): 29, y(2): 14, xy(7): 1})
    with pytest.raises(WitnessSearchExhausted):
        find_big_product_one(ext)
    d10 = Sequence.from_counts(mk_metacyclic(5, 4), {Element(0, 1): 14, Element(1, 0): 1})
    with pytest.raises(ValueError, match="outside"):
        find_big_product_one(d10)


def test_conjugation_identity_exhaustive():
    # h y^(t*n2) h^-1 = y^(t*n2*s) and y^(t*n2*(s+1)) = 1 when s = -1 (mod 3)
    for g in (G30, G42):
        n2 = factorize(g).n2
        for b in range(g.n):
            h = Element(1, b)
            for t in range(3):
                u = Element(0, (t * n2) % g.n)
                conj = g.mul(g.mul(h, u), g.inv(h))
                assert conj == Element(0, (t * n2 * g.s) % g.n)
                assert g.mul(conj, u) == g.identity or (t * n2 * (g.s + 1)) % g.n == 0
                assert Element(0, (t * n2 * (g.s + 1)) % g.n) == g.identity


def test_decomposition_conservation_under_ops():
    rng = random.Random(9)
    els = G30.elements()
    s = Sequence.from_terms(G30, (els[rng.randrange(30)] for _ in range(44)))
    d = extract_product_h_blocks(s)
    d2 = improve_x_coverage(d)
    assert reduce(Sequence.concat, d2.blocks, d2.remainder) == s


def test_singleton_pi_structure_clauses():
    # clause 1: two x-terms sharing a mod-3 class, y-terms 0 mod 3, product forced to 1
    s1 = Sequence.from_terms(G30, [xy(1), xy(4), y(0), y(3), y(12)])
    ps = pi_set(s1)
    if len(ps) == 1 and next(iter(ps)).a % 5 == 0:
        rep = singleton_pi_structure(s1)
        assert rep.clause == 1 and rep.holds and rep.product == G30.identity
    # clause 2: designed instance with one x-term
    s2 = Sequence.from_terms(G30, [xy(10), y(0), y(3), y(6), y(6)])
    ps2 = pi_set(s2)
    assert len(ps2) == 1
    p = next(iter(ps2))
    if p.eps == 1 and p.a % 5 == 0:
        rep2 = singleton_pi_structure(s2)
        assert rep2.clause == 2 and rep2.holds
    # wrong length rejected
    with pytest.raises(ValueError):
        singleton_pi_structure(Sequence.from_terms(G30, [y(1)] * 4))
    # non-singleton pi rejected
    wide = Sequence.from_terms(G30, [xy(0), xy(1), y(1), y(2), y(4)])
    if len(pi_set(wide)) > 1:
        with pytest.raises(ValueError):
            singleton_pi_structure(wide)


def test_singleton_pi_no_clause():
    s = Sequence.from_terms(G30, [y(1), y(0), y(0), y(0), y(0)])  # product y^1, not in <y^5>
    rep = singleton_pi_structure(s)
    assert rep.clause == 0 and rep.holds
