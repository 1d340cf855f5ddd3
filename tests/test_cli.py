import glob
import json
import os
import shutil

import pytest

from tunav.cli import main

OK_SRC = """
proof fn fine(x: int)
    requires x > 1
    ensures x > 0
{
    assert(x >= 2);
}
"""

BAD_SRC = "proof fn broken(x: int) ensures x > 0 { }"


@pytest.fixture
def ok_file(tmp_path):
    p = tmp_path / "ok.tv"
    p.write_text(OK_SRC)
    return str(p)


def test_verify_exit_zero(ok_file, capsys):
    assert main(["verify", ok_file, "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "PASS ok::fine (2 obligations)" in out


def test_verify_exit_one_on_failure(tmp_path, capsys):
    p = tmp_path / "bad.tv"
    p.write_text(BAD_SRC)
    assert main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL bad::broken" in out


def test_verify_exit_two_on_parse_error(tmp_path, capsys):
    p = tmp_path / "junk.tv"
    p.write_text("proof fn oops( {")
    assert main(["verify", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_usage_error_without_files(capsys):
    assert main(["verify"]) == 2


def test_prelude_only(capsys):
    assert main(["verify", "--prelude-only", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "PASS prelude::seq::lemma_seq_contains_after_push" in out


def test_metrics_and_compare(tmp_path, ok_file, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["verify", ok_file, "--metrics-out", a]) == 0
    assert main(["verify", ok_file, "--metrics-out", b]) == 0
    out_csv = str(tmp_path / "cmp.csv")
    assert main(["compare", a, b, "--out", out_csv]) == 0
    text = capsys.readouterr().out
    assert "median time ratio" in text
    assert open(out_csv).read().startswith("function,")


def test_emit_smtlib(tmp_path, ok_file):
    d = str(tmp_path / "smt")
    assert main(["verify", ok_file, "--emit-smtlib", d]) == 0
    assert glob.glob(os.path.join(d, "*.smt2"))


def test_minimize_and_write(tmp_path, capsys):
    p = tmp_path / "m.tv"
    p.write_text(OK_SRC)
    report_path = str(tmp_path / "report.json")
    assert main(["minimize", str(p), "--write", "--report-json",
                 report_path]) == 0
    payload = json.loads(open(report_path).read())
    assert payload["original_count"] == 1
    assert payload["surviving_count"] == 0
    # --write rewrote the file without the assert, and it still verifies
    assert "assert" not in p.read_text()
    assert main(["verify", str(p)]) == 0


def test_minimize_write_keeps_source_spelling(tmp_path, capsys):
    p = tmp_path / "w.tv"
    p.write_text("""
proof fn push_contains(a: Seq<int>) {
    broadcast use {group_seq_properties};
    let b = a.push(3);
    assert(b.len() > 0);
    assert(b.contains(3));
}
""")
    assert main(["minimize", str(p), "--write"]) == 0
    text = p.read_text()
    assert "a: Seq<int>" in text
    assert "broadcast use {group_seq_properties};" in text
    assert "prelude::seq::Seq" not in text
    assert "prelude::seq::group_seq_properties" not in text


def test_minimize_baseline_failure_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.tv"
    p.write_text(BAD_SRC)
    assert main(["minimize", str(p)]) == 1


def test_sample_failures(tmp_path, capsys):
    corpus = sorted(glob.glob("tests/corpus/*.tv"))[:1]
    target = tmp_path / "c.tv"
    shutil.copy(corpus[0], target)
    out_csv = str(tmp_path / "fails.csv")
    assert main(["sample-failures", str(target), "--n", "3", "--seed", "1",
                 "--out", out_csv]) == 0
    text = capsys.readouterr().out
    assert "sampled 3 removals" in text
    rows = open(out_csv).read().splitlines()
    assert rows[0] == "function,site,status,baseline_ms,removed_ms,ratio"
    assert len(rows) == 4


def test_trigger_strategy_flag(tmp_path):
    src = """
spec fn is_even(i: int) -> bool { i % 2 == 0 }
proof fn needs_liberal(s: Seq<int>)
    requires
        5 <= s.len(),
        forall|i: int| 0 <= i < s.len() ==> is_even(s.index(i))
    ensures s.index(3) % 2 == 0
{ }
"""
    p = tmp_path / "strat.tv"
    p.write_text(src)
    assert main(["verify", str(p)]) == 1  # conservative picks is_even(...)
    assert main(["verify", str(p), "--trigger-strategy", "all-triggers"]) == 0
