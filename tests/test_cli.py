import pytest

from zerosum.cli import (
    EXIT_BUDGET,
    EXIT_CLAIM_FALSE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from zerosum.sequences import parse_sequence_file
from zerosum.witnesses import WitnessSearchExhausted, find_big_product_one

EXTREMAL = "group metacyclic n=15 s=11\nseq y^1 * 29, y^2 * 14, x*y^7 * 1\n"
LONG = "group metacyclic n=15 s=11\nseq y^1 * 30, y^2 * 14, x*y^7 * 1\n"
BUSY = "group metacyclic n=15 s=11\nseq y^1 * 29, y^2 * 14, x*y^7 * 1, 1 * 1\n"
D10 = "group metacyclic n=5 s=4\nseq y^1 * 14, x * 1\n"


@pytest.fixture
def extremal_file(tmp_path):
    p = tmp_path / "extremal.seq"
    p.write_text(EXTREMAL)
    return str(p)


@pytest.fixture
def long_file(tmp_path):
    p = tmp_path / "long.seq"
    p.write_text(LONG)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_ok(capsys):
    code, out, _ = run(capsys, "group", "--group", "metacyclic n=3 s=2", "--records")
    assert code == EXIT_OK
    assert 'group="metacyclic n=3 s=2"' in out
    assert "order=6" in out


def test_group_bad_twist(capsys):
    code, _, err = run(capsys, "group", "--group", "metacyclic n=15 s=2")
    assert code == EXIT_USAGE
    assert "mod 15" in err


def test_check_free_vs_not(capsys, extremal_file, long_file):
    code, out, _ = run(capsys, "check", "--seq", extremal_file, "--k", "30", "--records")
    assert code == EXIT_OK and "free=true" in out
    code, out, _ = run(capsys, "check", "--seq", long_file, "--k", "30", "--records")
    assert code == EXIT_CLAIM_FALSE and "free=false" in out
    assert "witness k=30" in out


def test_witness_and_verify_roundtrip(capsys, long_file, tmp_path):
    code, out, _ = run(capsys, "witness", "--seq", long_file, "--k", "30")
    assert code == EXIT_OK
    wline = [l for l in out.splitlines() if l.startswith("witness ")][0]
    wfile = tmp_path / "w.txt"
    wfile.write_text(wline + "\n")
    code, out, _ = run(capsys, "verify-witness", "--seq", long_file, "--witness", str(wfile))
    assert code == EXIT_OK
    tampered = tmp_path / "bad.txt"
    tampered.write_text(wline.replace("y^1", "y^4", 1) + "\n")
    code, out, _ = run(capsys, "verify-witness", "--seq", long_file, "--witness", str(tampered))
    assert code == EXIT_CLAIM_FALSE


def test_gao_records(capsys):
    code, out, _ = run(capsys, "gao", "--group", "metacyclic n=3 s=2", "--records")
    assert code == EXIT_OK
    assert 'constant=gao group="metacyclic n=3 s=2" value=9' in out
    assert any(line.startswith("seq ") for line in out.splitlines())


def test_infeasible_exit(capsys):
    code, _, err = run(capsys, "gao", "--group", "metacyclic n=15 s=11")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_budget_exit(capsys, tmp_path):
    p = tmp_path / "big.seq"
    terms = ", ".join(f"y^{a} * 1, x*y^{a} * 1" for a in range(15))
    p.write_text(f"group metacyclic n=15 s=11\nseq {terms}\n")
    code, _, err = run(capsys, "pi", "--seq", str(p), "--budget", "100")
    assert code == EXIT_BUDGET


def test_template_match_and_miss(capsys, extremal_file, tmp_path):
    code, out, _ = run(capsys, "template", "--seq", extremal_file, "--records")
    assert code == EXIT_OK and "match=two_block_reflection" in out
    p = tmp_path / "plain.seq"
    p.write_text("group metacyclic n=15 s=11\nseq y^1 * 3\n")
    code, out, _ = run(capsys, "template", "--seq", str(p), "--records")
    assert code == EXIT_CLAIM_FALSE and "match=none" in out


def test_dgm_single(capsys, tmp_path):
    p = tmp_path / "ab.seq"
    p.write_text("group cyclic n=12\nseq y^1 * 4, y^5 * 3\n")
    code, out, _ = run(capsys, "dgm", "--seq", str(p), "--n", "3", "--records")
    assert code == EXIT_OK and "holds=true" in out


def test_repro_dgm_budget_exit_across_jobs(capsys, monkeypatch):
    # the BudgetExceeded raised in a worker process reaches the CLI intact, and
    # no suite tallies it as a failed trial
    monkeypatch.setenv("ZEROSUM_BUDGET", "1")
    for suite in ("dgm", "main-theorem-wide"):
        code, out, err = run(capsys, "repro", suite, "--jobs", "2")
        assert code == EXIT_BUDGET and "limit 1" in err and "ZEROSUM_BUDGET" in err, suite
        assert "failures=" not in out


def test_repro_bad_jobs_is_usage_error(capsys):
    code, out, err = run(capsys, "repro", "cyclic", "--jobs", "0")
    assert code == EXIT_USAGE and "--jobs" in err and out == ""


def test_dgm_usage_error(capsys):
    code, _, err = run(capsys, "dgm")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [("dgm", "--fuzz"), ("replay", "--trace")])
def test_removed_forms_are_usage_errors(capsys, long_file, argv):
    code, out, _ = run(capsys, *argv, "--seq", long_file)
    assert code == EXIT_USAGE and out == ""


# stdout of `witness --k 30` on each file, human and --records
_WITNESS_OUT = {
    LONG: ("y-part", " ".join(["y^1"] * 30)),
    BUSY: ("y-part", " ".join(["1"] + ["y^1"] * 28 + ["y^2"])),
    EXTREMAL: None,
}


def _witness_out(text, records):
    if _WITNESS_OUT[text] is None:
        miss = "op=witness k=30 found=false" if records else "no product-one subsequence of length 30 found"
        return miss + "\n"
    rung, terms = _WITNESS_OUT[text]
    head = f"op=witness k=30 found=true rung={rung}" if records else f"found and verified (via {rung}):"
    return f"{head}\nwitness k=30 target=1 : {terms}\n"


def test_witness_trace(capsys, tmp_path):
    for i, text in enumerate(_WITNESS_OUT):
        p = tmp_path / f"{i}.seq"
        p.write_text(text)
        for records in ((), ("--records",)):
            code, out, _ = run(capsys, "witness", "--seq", str(p), "--k", "30", *records)
            assert out == _witness_out(text, bool(records))
            assert code == (EXIT_CLAIM_FALSE if _WITNESS_OUT[text] is None else EXIT_OK)
        if text == BUSY:
            continue
        trace = []
        try:
            find_big_product_one(parse_sequence_file(text), trace=trace)
        except WitnessSearchExhausted:
            pass
        assert trace[0].startswith("step=start")
        code, out, _ = run(capsys, "witness", "--seq", str(p), "--k", "30", "--trace")
        assert out == "".join(line + "\n" for line in trace) + _witness_out(text, False)


def test_witness_outside_family_goes_direct(capsys, tmp_path):
    p = tmp_path / "d10.seq"
    p.write_text(D10)
    code, out, _ = run(capsys, "witness", "--seq", str(p), "--k", "10", "--trace")
    assert code == EXIT_OK
    assert out == "found and verified (via direct):\nwitness k=10 target=1 : " + " ".join(["y^1"] * 10) + "\n"


def test_classify_records(capsys):
    code, out, _ = run(capsys, "classify", "--group", "metacyclic n=3 s=2",
                       "--length", "8", "--k", "6", "--records")
    assert code == EXIT_OK
    assert "family=identity_reflections" in out
    assert "family=two_block_reflection" in out


def test_repro_d6_deterministic(capsys):
    code1, out1, _ = run(capsys, "repro", "d6", "--records")
    code2, out2, _ = run(capsys, "repro", "d6", "--records")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "criterion=gao-d6 passed=true" in out1


def test_subproducts_records(capsys, extremal_file):
    code, out, _ = run(capsys, "subproducts", "--seq", extremal_file, "--n", "2", "--records")
    assert code == EXIT_OK
    assert "op=subproducts n=2" in out


def test_subproducts_human_line(capsys, extremal_file):
    code, out, _ = run(capsys, "subproducts", "--seq", extremal_file, "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "Pi_2(S) has 7 element(s); stabilizer of order 1"


def test_pi_of_empty_sequence(capsys, tmp_path):
    p = tmp_path / "empty.seq"
    p.write_text("group metacyclic n=15 s=11\nseq \n")
    code, out, _ = run(capsys, "pi", "--seq", str(p), "--records")
    assert code == EXIT_OK
    assert out.splitlines() == ["op=pi length=0 size=1", "member=1"]


def test_env_budget(capsys, tmp_path, monkeypatch):
    p = tmp_path / "big.seq"
    terms = ", ".join(f"y^{a} * 1, x*y^{a} * 1" for a in range(15))
    p.write_text(f"group metacyclic n=15 s=11\nseq {terms}\n")
    monkeypatch.setenv("ZEROSUM_BUDGET", "100")
    code, _, err = run(capsys, "pi", "--seq", str(p))
    assert code == EXIT_BUDGET


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "--seq", "/nonexistent.seq", "--k", "3")
    assert code == EXIT_USAGE


def test_group_crosscheck(capsys, extremal_file):
    code, _, _ = run(capsys, "check", "--seq", extremal_file, "--k", "30",
                     "--group", "metacyclic n=15 s=11")
    assert code == EXIT_OK
    code, _, err = run(capsys, "check", "--seq", extremal_file, "--k", "30",
                       "--group", "cyclic n=15")
    assert code == EXIT_USAGE
    assert "does not match" in err


def test_bad_budget_is_usage_error(capsys, tmp_path, monkeypatch):
    p = tmp_path / "small.seq"
    p.write_text("group metacyclic n=15 s=11\nseq y^1 * 2, x*y^3 * 2\n")
    code, _, err = run(capsys, "pi", "--seq", str(p), "--budget", "-5")
    assert code == EXIT_USAGE and "non-negative" in err
    monkeypatch.setenv("ZEROSUM_BUDGET", "abc")
    code, _, err = run(capsys, "pi", "--seq", str(p))
    assert code == EXIT_USAGE and "ZEROSUM_BUDGET" in err
    code, out, err = run(capsys, "repro", "main-theorem-wide")
    assert code == EXIT_USAGE and "ZEROSUM_BUDGET" in err and out == ""


def test_budget_exit_reports_cells_used(capsys, tmp_path):
    p = tmp_path / "big.seq"
    terms = ", ".join(f"y^{a} * 1, x*y^{a} * 1" for a in range(15))
    p.write_text(f"group metacyclic n=15 s=11\nseq {terms}\n")
    code, _, err = run(capsys, "pi", "--seq", str(p), "--budget", "10")
    assert code == EXIT_BUDGET
    assert "DP cells" in err and "limit 10" in err


def test_check_k_beyond_length_is_free(capsys, tmp_path):
    p = tmp_path / "eight.seq"
    p.write_text("group metacyclic n=15 s=11\nseq y^1 * 5, x*y^2 * 3\n")
    code, out, _ = run(capsys, "check", "--seq", str(p), "--k", "99", "--records")
    assert code == EXIT_OK and "free=true" in out
