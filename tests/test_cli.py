import pytest

from zerosum.cli import (
    EXIT_BUDGET,
    EXIT_CLAIM_FALSE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

EXTREMAL = "group metacyclic n=15 s=11\nseq y^1 * 29, y^2 * 14, x*y^7 * 1\n"
LONG = "group metacyclic n=15 s=11\nseq y^1 * 30, y^2 * 14, x*y^7 * 1\n"
BUSY = "group metacyclic n=15 s=11\nseq y^1 * 29, y^2 * 14, x*y^7 * 1, 1 * 1\n"


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


def test_dgm_single_and_fuzz(capsys, tmp_path):
    p = tmp_path / "ab.seq"
    p.write_text("group cyclic n=12\nseq y^1 * 4, y^5 * 3\n")
    code, out, _ = run(capsys, "dgm", "--seq", str(p), "--n", "3", "--records")
    assert code == EXIT_OK and "holds=true" in out
    code, out, _ = run(capsys, "dgm", "--fuzz", "--trials", "50", "--seed", "3", "--records")
    assert code == EXIT_OK and "violations=0" in out


def test_dgm_fuzz_same_output_across_jobs(capsys):
    code1, out1, _ = run(capsys, "dgm", "--fuzz", "--trials", "50", "--seed", "3", "--jobs", "1")
    code2, out2, _ = run(capsys, "dgm", "--fuzz", "--trials", "50", "--seed", "3", "--jobs", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2 and "50 trials, 0 violation(s)" in out1


def test_dgm_fuzz_budget_exit_across_jobs(capsys):
    code, _, err = run(capsys, "dgm", "--fuzz", "--trials", "4", "--budget", "1", "--jobs", "2")
    assert code == EXIT_BUDGET and "limit 1" in err


def test_dgm_fuzz_bad_jobs_is_usage_error(capsys):
    code, out, err = run(capsys, "dgm", "--fuzz", "--trials", "5", "--jobs", "-3")
    assert code == EXIT_USAGE and "--jobs" in err and out == ""


@pytest.mark.parametrize(
    "flag,value", [("--trials", "-5"), ("--max-order", "1"), ("--max-len", "0")]
)
def test_dgm_fuzz_bad_sizes_are_usage_errors(capsys, monkeypatch, flag, value):
    def no_trial(*args, **kwargs):
        raise AssertionError("a fuzz trial ran")

    monkeypatch.setattr("zerosum.repro._dgm_trial", no_trial)
    code, out, err = run(capsys, "dgm", "--fuzz", flag, value)
    assert code == EXIT_USAGE and flag in err and out == ""


def test_repro_bad_jobs_is_usage_error(capsys):
    code, out, err = run(capsys, "repro", "cyclic", "--jobs", "0")
    assert code == EXIT_USAGE and "--jobs" in err and out == ""


def test_dgm_usage_error(capsys):
    code, _, err = run(capsys, "dgm")
    assert code == EXIT_USAGE


def test_replay_trace(capsys, extremal_file):
    code, out, _ = run(capsys, "replay", "--seq", extremal_file, "--trace")
    assert code == EXIT_CLAIM_FALSE
    assert "step=start" in out
    assert "witness path exhausted" in out


def test_replay_outside_family_is_usage_error(capsys, tmp_path):
    p = tmp_path / "d10.seq"
    p.write_text("group metacyclic n=5 s=4\nseq y^1 * 14, x * 1\n")
    code, out, err = run(capsys, "replay", "--seq", str(p))
    assert code == EXIT_USAGE and "outside" in err and out == ""


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
