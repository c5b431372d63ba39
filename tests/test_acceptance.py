"""Acceptance suite: every headline criterion at its stated size and tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest -s or -rA to see them all)
and fails hard on any violation.  Sizes are the full stated ones; the time
limits are asserted too, with large real-world margins.
"""

import time

from zerosum.groups import mk_cyclic, mk_metacyclic
from zerosum import repro

SEED = repro.DEFAULT_SEED


def _report(name, passed, elapsed, limit_s, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s, limit {limit_s}s)"
    print(line)
    assert passed, line
    assert elapsed <= limit_s, f"{name} exceeded its time budget: {elapsed:.1f}s > {limit_s}s"


def test_criterion_01_gao_constants_exact():
    t0 = time.time()
    ok = True
    details = []
    for n in range(2, 7):
        t1 = time.time()
        v = repro.gao_constant(mk_cyclic(n)).value
        ok &= v == 2 * n - 1 and time.time() - t1 <= 60
        details.append(f"E(C{n})={v}")
    t1 = time.time()
    v = repro.gao_constant(mk_metacyclic(3, 2)).value
    ok &= v == 9 and time.time() - t1 <= 60
    details.append(f"E(D6)={v}")
    _report("criterion-1 gao-exact", ok, time.time() - t0, 6 * 60, " ".join(details))


def test_criterion_02_inverse_cyclic():
    t0 = time.time()
    r = repro.crit_inverse_cyclic()
    _report("criterion-2 inverse-cyclic", r.passed, time.time() - t0, 120, r.detail)


def test_criterion_03_inverse_d6():
    t0 = time.time()
    r = repro.crit_inverse_d6()
    _report("criterion-3 inverse-d6", r.passed, time.time() - t0, 60, r.detail)


def test_criterion_04_lower_direction():
    t0 = time.time()
    r = repro.crit_lower_direction(SEED)
    _report("criterion-4 lower-direction", r.passed, time.time() - t0, 600, "; ".join(r.lines))
    assert len(r.lines) == 2
    assert all(" free_confirmed=24/24 witnessed=24/24" in line for line in r.lines)


def test_criterion_05_upper_sampled():
    t0 = time.time()
    r = repro.crit_upper_sampled(SEED)
    _report("criterion-5 upper-sampled", r.passed, time.time() - t0, 900, "; ".join(r.lines))
    assert r.lines == ["upper trials=1000 adversarial=100 failures=0 rung_direct=13 rung_pipeline=1001 rung_y_part=86"]


def test_criterion_06_inverse_sampled():
    t0 = time.time()
    r = repro.crit_inverse_sampled(SEED)
    _report("criterion-6 inverse-sampled", r.passed, time.time() - t0, 900, "; ".join(r.lines))
    assert r.lines == ["inverse-sampled trials=1000 failures=0 rung_pipeline=990 rung_y_part=10"]


def test_criterion_07_dgm_bound():
    t0 = time.time()
    r = repro.crit_dgm(SEED)
    _report("criterion-7 dgm-bound", r.passed, time.time() - t0, 600, "; ".join(r.lines))
    assert r.lines[0].startswith("dgm-fuzz trials=10000 ")


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    r = repro.crit_oracle(SEED)
    _report("criterion-8 oracle-equivalence", r.passed, time.time() - t0, 300, "; ".join(r.lines))
    assert r.lines[0].startswith("oracle trials=1000 ")


def test_criterion_09_singleton_structure():
    t0 = time.time()
    r = repro.crit_structure(SEED)
    _report("criterion-9 singleton-structure", r.passed, time.time() - t0, 300, "; ".join(r.lines))
    assert r.lines[0].startswith("structure trials=1000 ")


def test_criterion_10_constant_identity():
    t0 = time.time()
    r = repro.crit_identity()
    _report("criterion-10 constant-identity", r.passed, time.time() - t0, 120, r.detail)


def test_main_theorem_wide():
    t0 = time.time()
    r = repro.crit_main_theorem_wide(SEED)
    _report("main-theorem-wide", r.passed, time.time() - t0, 120, "; ".join(r.lines))
    head = "uniform=200 near_template=200 templates=50 failures=0 exhausted=50"
    assert r.lines == [
        f'wide group="metacyclic n=33 s=23" {head} rung_direct=18 rung_pipeline=209 rung_y_part=173',
        f'wide group="metacyclic n=39 s=14" {head} rung_direct=23 rung_pipeline=216 rung_y_part=161',
        f'wide group="metacyclic n=75 s=26" {head} rung_direct=13 rung_pipeline=210 rung_y_part=177',
    ]
    assert "main-theorem-wide" in repro.SUITE_NAMES
