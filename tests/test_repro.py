import pytest

from zerosum import repro
from zerosum.groups import Element, mk_cyclic
from zerosum.sequences import Sequence


def test_parallel_map_matches_serial():
    # every trial kind crosses the process boundary, GroupSpec included
    kinds = ("uniform", "near-template", "non-template", "template")
    args = [(repro.G30, 5, kinds[i % 4], repro.DEFAULT_SEED * 1_000_003 + i) for i in range(20)]
    serial = [repro._witness_trial(a) for a in args]
    assert repro._parallel_map(repro._witness_trial, args, 2) == serial
    assert all(ok for ok, _ in serial)
    assert {label for _, label in serial[3::4]} == {"exhausted"}


def test_crit_dgm_reports_each_violation(monkeypatch):
    seq = Sequence.from_counts(mk_cyclic(4), {Element(0, 1): 3})
    seeds = []

    def eighth_violates(seed):
        seeds.append(seed)
        return (2, 1, 2, seq) if len(seeds) == 8 else None

    monkeypatch.setattr(repro, "_dgm_trial", eighth_violates)
    r = repro.crit_dgm()
    assert not r.passed
    assert r.lines == [
        f"dgm-fuzz trials={repro.DGM_TRIALS} violations=1",
        'dgm-violation trial=7 group="cyclic n=4" n=2 lhs=1 rhs=2 : seq y^1 * 3',
    ]


def test_suite_table():
    assert repro.SUITE_NAMES == ("cyclic", "d6", "main-theorem", "main-theorem-wide", "dgm", "all")
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        repro.run_suite("nope")
