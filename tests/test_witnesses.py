import random

import pytest

from zerosum import witnesses
from zerosum.groups import Element, factorize, mk_cyclic, mk_metacyclic, subgroup_generated
from zerosum.sequences import Sequence, canonical_key
from zerosum.products import pi_set, verify_witness
from zerosum.repro import _upper_trial
from zerosum.witnesses import (
    WitnessSearchExhausted,
    egz_extract,
    extract_product_h_blocks,
    family_context,
    find_big_product_one,
    improve_x_coverage,
    make_decomposition,
    replay_swap_argument,
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


def test_egz_examples():
    c5 = mk_cyclic(5)
    s = Sequence.from_counts(c5, {Element(0, 2): 9})
    block = egz_extract(s)
    assert block.length == 5 and block.multiplicity(Element(0, 2)) == 5
    # 0^[m-1] . 1^[m]
    s2 = Sequence.from_counts(c5, {Element(0, 0): 4, Element(0, 1): 5})
    block2 = egz_extract(s2)
    assert block2.length == 5
    assert sum(el.a * m for el, m in block2.counts) % 5 == 0
    # length 3m-1 allows two disjoint extractions
    s3 = Sequence.from_terms(c5, [Element(0, a % 5) for a in range(14)])
    b1 = egz_extract(s3)
    b2 = egz_extract(s3.remove(b1))
    assert b1.length == b2.length == 5
    combined = b1.concat(b2)
    assert sum(el.a * m for el, m in combined.counts) % 5 == 0
    with pytest.raises(ValueError):
        egz_extract(Sequence.from_counts(c5, {Element(0, 1): 8}))


def test_extract_blocks_accounting():
    fam = family_context(G30)
    rng = random.Random(0)
    els = G30.elements()
    s = Sequence.from_terms(G30, (els[rng.randrange(30)] for _ in range(44)))
    d = extract_product_h_blocks(s, fam.kernel, 8)
    assert len(d.blocks) == 8
    assert all(b.length == 5 for b in d.blocks)
    # conservation: blocks + remainder = source
    assert canonical_key(d.reassemble()) == canonical_key(s)
    # every block is a kernel-product block: its products stay inside the kernel
    for b, sigma in zip(d.blocks, d.sigmas):
        ps = pi_set(b)
        assert sigma in ps
        assert all(p in fam.kernel for p in ps)
    with pytest.raises(ValueError):
        extract_product_h_blocks(s, fam.kernel, 9)
    # wrong kernel rejected
    with pytest.raises(ValueError):
        extract_product_h_blocks(s, subgroup_generated(G30, [Element(0, 3)]), 8)


def test_blocks_trivial_when_inside_kernel():
    fam = family_context(G30)
    s = Sequence.from_counts(G30, {Element(0, 5): 30, Element(1, 10): 14})
    d = extract_product_h_blocks(s, fam.kernel, 8)
    assert all(all(fam.component(el) == 0 for el in b.support) for b in d.blocks)


def test_improve_x_coverage():
    fam = family_context(G30)
    # blocks of matching component classes; x-terms stuck in the remainder
    s = Sequence.from_counts(
        G30, {Element(0, 0): 39, Element(1, 0): 2, Element(1, 5): 2, Element(0, 5): 1}
    )
    d = extract_product_h_blocks(s, fam.kernel, 8)
    base = make_decomposition([b for b in d.blocks], d.remainder, d.kernel)
    improved = improve_x_coverage(base)
    assert improved.x_coverage() >= base.x_coverage()
    assert improved.x_coverage() >= 2  # enough matching classes to spread both
    # conservation and kernel-product preserved
    assert canonical_key(improved.reassemble()) == canonical_key(s)
    for b in improved.blocks:
        assert all(p in fam.kernel for p in pi_set(b))
    # a fixpoint stays put, without rebuilding the decomposition
    again = improve_x_coverage(improved)
    assert again is improved


def _pure_y_decomposition(values_per_block):
    """Seven length-5 blocks over <y>, block i having component values given
    as (t-class contributions via exponents 3*v picked to sum to t*5 mod 15)."""
    fam = family_context(G30)
    blocks = []
    for t in values_per_block:
        # five terms from <y^3>-classes summing to t*n2 (mod 15): use t*n2 once
        # plus 0s: exponent t*5 has component t*5*w mod 5 = 0, class sum stays 0
        terms = [Element(0, (t * 5) % 15)] + [Element(0, 0)] * 4
        blocks.append(Sequence.from_terms(G30, terms))
    return make_decomposition(blocks, Sequence.empty(G30), fam.kernel)


def test_replay_swap_selection_immediate():
    d = _pure_y_decomposition([0, 0, 0, 0, 0, 0, 1])
    out = replay_swap_argument(d)
    assert out.kind == "selection"
    assert len(out.selection) == 6
    # the selected sigmas multiply to one
    total = sum(
        sum(el.a * m for el, m in d.blocks[i].counts) for i in out.selection
    ) % 15
    assert total == 0


def test_replay_swap_rigid():
    # uniform blocks admit no class-preserving swaps at all: truly rigid.
    # (y^a)^[5] always has vanishing C_5 component since 5a*w = 0 (mod 5).
    fam = family_context(G30)
    blocks = [Sequence.from_counts(G30, {y(1): 5}) for _ in range(5)]
    blocks += [Sequence.from_counts(G30, {y(2): 5}) for _ in range(2)]
    d = make_decomposition(blocks, Sequence.empty(G30), fam.kernel)
    out = replay_swap_argument(d, swap_budget=50)
    assert out.kind == "rigid"
    assert out.shape == (2, 1) or out.shape == (1, 2)
    assert out.explored >= 1


def test_replay_swap_unblocks_mixed_classes():
    # blocks holding equal-class distinct terms admit swaps that change the
    # block values and unblock a six-block selection
    d = _pure_y_decomposition([1, 1, 1, 1, 1, 2, 2])
    out = replay_swap_argument(d)
    assert out.kind == "selection"


def test_replay_swap_finds_after_swap():
    # block with exponents (5,0,0,0,0) ~ t=1 and one with (10,0,0,0,0) ~ t=2
    # swapping y^5 against y^10 flips classes and unblocks a selection
    fam = family_context(G30)
    blocks = [Sequence.from_terms(G30, [y(5)] + [y(0)] * 4) for _ in range(5)]
    blocks += [Sequence.from_terms(G30, [y(10)] + [y(0)] * 4) for _ in range(2)]
    d = make_decomposition(blocks, Sequence.empty(G30), fam.kernel)
    out = replay_swap_argument(d)
    assert out.kind == "selection"


def test_replay_rejects_wrong_shape():
    fam = family_context(G30)
    blocks = [Sequence.from_terms(G30, [y(0)] * 5) for _ in range(6)]
    d = make_decomposition(blocks, Sequence.empty(G30), fam.kernel)
    with pytest.raises(ValueError):
        replay_swap_argument(d)


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
    assert _upper_trial((84000155, True)) == (True, "direct")
    (s, trace, w), = traces
    assert sum(t.startswith("step=whole-blocks") for t in trace) == 1
    assert trace_rung(trace) == "direct"
    assert w.k == 30
    assert verify_witness(s, w) == (True, "ok")


def test_find_big_product_one_rejections():
    s = Sequence.from_counts(G30, {y(1): 10})
    with pytest.raises(ValueError):
        find_big_product_one(s)
    ext = Sequence.from_counts(G30, {y(1): 29, y(2): 14, xy(7): 1})
    with pytest.raises(WitnessSearchExhausted):
        find_big_product_one(ext)


def test_conjugation_identity_exhaustive():
    # h y^(t*n2) h^-1 = y^(t*n2*s) and y^(t*n2*(s+1)) = 1 when s = -1 (mod 3)
    for g in (G30, G42):
        n2 = factorize(g).n2
        for b in range(g.n):
            h = Element(1, b)
            for t in range(3):
                u = Element(0, (t * n2) % g.n)
                conj = g.conjugate(h, u)
                assert conj == Element(0, (t * n2 * g.s) % g.n)
                assert g.mul(conj, u) == g.identity or (t * n2 * (g.s + 1)) % g.n == 0
                assert Element(0, (t * n2 * (g.s + 1)) % g.n) == g.identity


def test_decomposition_conservation_under_ops():
    fam = family_context(G30)
    rng = random.Random(9)
    els = G30.elements()
    s = Sequence.from_terms(G30, (els[rng.randrange(30)] for _ in range(44)))
    d = extract_product_h_blocks(s, fam.kernel, 8)
    d2 = improve_x_coverage(d)
    assert canonical_key(d2.reassemble()) == canonical_key(s)


def test_singleton_pi_structure_clauses():
    f = factorize(G30)
    # clause 1: two x-terms sharing a mod-3 class, y-terms 0 mod 3, product forced to 1
    s1 = Sequence.from_terms(G30, [xy(1), xy(4), y(0), y(3), y(12)])
    ps = pi_set(s1)
    if len(ps) == 1 and next(iter(ps)).a % 5 == 0:
        rep = singleton_pi_structure(s1, f)
        assert rep.clause == 1 and rep.holds and rep.product == G30.identity
    # clause 2: designed instance with one x-term
    s2 = Sequence.from_terms(G30, [xy(10), y(0), y(3), y(6), y(6)])
    ps2 = pi_set(s2)
    assert len(ps2) == 1
    p = next(iter(ps2))
    if p.eps == 1 and p.a % 5 == 0:
        rep2 = singleton_pi_structure(s2, f)
        assert rep2.clause == 2 and rep2.holds
    # wrong length rejected
    with pytest.raises(ValueError):
        singleton_pi_structure(Sequence.from_terms(G30, [y(1)] * 4), f)
    # non-singleton pi rejected
    wide = Sequence.from_terms(G30, [xy(0), xy(1), y(1), y(2), y(4)])
    if len(pi_set(wide)) > 1:
        with pytest.raises(ValueError):
            singleton_pi_structure(wide, f)


def test_singleton_pi_no_clause():
    f = factorize(G30)
    s = Sequence.from_terms(G30, [y(1), y(0), y(0), y(0), y(0)])  # product y^1, not in <y^5>
    rep = singleton_pi_structure(s, f)
    assert rep.clause == 0 and rep.holds
