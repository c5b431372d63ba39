"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, gao_check, rung_of, witness_check, witness_op  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.fresh_import()


def _library_state():
    """Identity of every attribute the tracer may patch."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "zerosum" or name.startswith("zerosum.")):
            state.update({(name, k): id(v) for k, v in vars(mod).items()})
    for mod, cls, _ in tracing.COUNTED.values():
        state.update({(mod, cls, k): id(v) for k, v in vars(getattr(sys.modules[mod], cls)).items()})
    return state


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digest(name):
    wl = WORKLOADS[name]

    def stream(seed):
        return inputs.digest(wl.describe(seed, i).encode() for i in range(wl.size))

    assert stream(7) == stream(7)
    assert stream(7) != stream(8) or name == "gao-exact"  # gao seeds only reorder the groups


def test_inputs_are_well_formed():
    for i in range(60):
        inp = inputs.witness_input(3, i)
        assert len(inp.terms) in (9 * inputs.N2[inp.group], 9 * inputs.N2[inp.group] - 1)
        assert not (len(inp.terms) % 9 and inputs.is_template(inp.group, inp.terms))
        for make in (inputs.abelian_input, inputs.nonabelian_input):
            sub = make(3, i)
            assert 1 <= sub.k <= len(sub.terms) <= 16
            assert sub.group.abelian == (make is inputs.abelian_input)


def test_corrupted_witness_rejected(lib):
    inp = inputs.witness_input(5, 0)
    seq = WORKLOADS["witness-9n2"].prepare(lib, inp)[0]
    w, verdict = witness_op(lib, seq)
    assert witness_check(inp, (w, verdict)) is None
    els = list(w.elements)
    swapped = next(lib.Element(e, a) for e, a in inp.group.elements() if lib.Element(e, a) != els[0])
    bad_product = lib.ProductWitness(tuple([swapped] + els[1:]), w.product)
    assert witness_check(inp, (bad_product, (True, "ok"))) is not None
    short = lib.ProductWitness(tuple(els[:-1]), w.product)
    assert "length" in witness_check(inp, (short, (True, "ok")))
    assert witness_check(inp, (w, (False, "wrong-product"))) is not None


def test_wrong_constant_rejected():
    d8, c6 = inputs.metacyclic(4, 3), inputs.cyclic(6)
    assert gao_check(d8, (12, 4)) is None and gao_check(c6, (11, 5)) is None
    assert gao_check(d8, (11, 4)) is not None
    assert gao_check(d8, (12, 5)) is not None
    assert gao_check(c6, (11, 4)) is not None
    assert gao_check(inputs.metacyclic(8, 3), (1, 1)) is not None  # no reference value


@pytest.mark.parametrize("g", [inputs.metacyclic(3, 2), inputs.metacyclic(4, 1), inputs.metacyclic(8, 3),
                               inputs.metacyclic(5, 4), inputs.cyclic(5)])
def test_oracle_matches_brute_force(g):
    rng = random.Random(g.n * 31 + g.s)
    els = g.elements()
    for _ in range(25):
        terms = [els[rng.randrange(len(els))] for _ in range(rng.randrange(1, 7))]
        k = rng.randrange(0, len(terms) + 1)
        brute = {oracle.product(g.n, g.s, p) for p in itertools.permutations(terms, k)}
        assert oracle.subproduct_set(g.n, g.s, terms, k) == brute


def test_tail_percentile_choice():
    assert run.tail([float(i) for i in range(1000)])[:1] == (99,)
    assert run.tail([float(i) for i in range(50)])[0] == 50
    assert run.tail([1.0, 4.0, 2.0, 3.0]) == (100, 4.0, 0)


def test_rung_read_from_trace():
    assert rung_of(["step=start", "step=found rung=pipeline k=30"]) == "pipeline"
    assert rung_of(["step=found rung=teleport k=30"]) == "unknown"
    assert rung_of([{"rung": "direct"}]) == "unknown"
    assert rung_of([]) == "unknown"


@pytest.mark.parametrize("name", ["witness-9n2", "subproducts-abelian"])
def test_traced_run_restores_library_and_repeats(lib, name):
    wl = WORKLOADS[name]
    descs = [wl.describe(11, i) for i in range(60)]
    before = _library_state()
    first = run.traced_run(lib, wl, descs)
    assert _library_state() == before
    second = run.traced_run(lib, wl, descs)
    assert not first[1].wrong and not second[1].wrong
    counts = [k for k, u in tracing.LAYER_METRICS if u == "count"]
    assert {k: first[0][k] for k in counts} == {k: second[0][k] for k in counts}
    rungs = sum(first[0][f"witnesses.rung.{r}"] for r in tracing.RUNGS)
    assert first[0]["witnesses.rung.unknown"] == 0
    assert rungs == (len(descs) if name == "witness-9n2" else 0)


def test_tracer_restores_after_error_and_counts_freeness(lib):
    before = _library_state()
    g = lib.mk_cyclic(4)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with pytest.raises(ZeroDivisionError), tracer:
            tracer.op(0, lib.davenport_constant, g)
            1 / 0
        assert _library_state() == before
        runs.append(tracer.layer_metrics())
    assert runs[0]["constants.freeness_tests"] == runs[1]["constants.freeness_tests"] > 0
    assert 0 < runs[0]["constants.free_ratio"] < 1


def test_absent_name_reported(lib, monkeypatch):
    monkeypatch.setitem(tracing.SPANNED, "products.gone", ("zerosum.products", "gone"))
    before = _library_state()
    with tracing.Tracer() as tracer:
        tracer.op(0, lib.pi_set, lib.Sequence.from_terms(lib.mk_metacyclic(3, 2), [lib.Element(1, 0)] * 2))
    assert tracer.absent == ["products.gone"]
    assert tracer.layer_metrics()["products.gone.calls"] == 0
    assert tracer.layer_metrics()["products.pi_set.calls"] == 1
    assert _library_state() == before


def test_exits_nonzero_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gao-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
