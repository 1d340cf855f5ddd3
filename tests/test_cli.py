import csv
import glob
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tunav.driver
from tunav.cli import main
from tunav.metrics import read_metrics

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    # the second is a numeric character that no token starts with
    for text in ["proof fn oops( {", "spec fn f() -> int { ² }"]:
        p.write_text(text)
        assert main(["verify", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


def test_verify_exit_two_on_invalid_utf8(tmp_path, capsys):
    p = tmp_path / "bad.tv"
    p.write_bytes(b"proof fn f() {}\n\xff")
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: not valid UTF-8 (byte 0xff at offset 16)\n")


def test_verify_exit_two_on_a_proof_that_relies_on_itself(tmp_path, capsys):
    """`a` calls `b`, and `b` imports `a`: neither may be assumed while the
    other is proven, or `wrong` proves a false fact about `g`."""
    p = tmp_path / "m.tv"
    p.write_text("""
spec fn g(y: int) -> int;
broadcast proof fn a(y: int)
    ensures #[trigger] g(y) == 0
{
    b(y);
}
proof fn b(y: int)
    ensures g(y) == 0
{
    broadcast use {a};
}
proof fn wrong(y: int)
    ensures g(y) == 0
{
    broadcast use {a};
}
""")
    assert main(["verify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cyclic proof fn dependencies: {m::a, m::b}\n"
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "tunav", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: tunav ")


def test_verify_usage_error_without_files(capsys):
    assert main(["verify"]) == 2


def test_prelude_only(capsys):
    assert main(["verify", "--prelude-only", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "PASS prelude::seq::lemma_seq_contains_after_push" in out


def test_prelude_only_with_files_is_usage_error(tmp_path, capsys):
    """Files given with `--prelude-only` are refused, not silently dropped,
    whether or not they exist."""
    for path in (str(tmp_path / "missing.tv"), str(tmp_path)):
        assert main(["verify", "--prelude-only", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "tunav verify: --prelude-only takes no input files\n"
        assert captured.out == ""


def test_prelude_only_writes_metrics_and_smtlib(tmp_path, capsys):
    """`--prelude-only` writes both outputs, each naming exactly the prelude
    tasks that the report lists."""
    metrics, smt = str(tmp_path / "m.json"), str(tmp_path / "smt")
    assert main(["verify", "--prelude-only", "--no-timing", "--metrics-out",
                 metrics, "--emit-smtlib", smt]) == 0
    reported = {line.split()[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("PASS ")}
    assert reported and all(t.startswith("prelude::") for t in reported)
    assert {r.function for r in read_metrics(metrics)} == reported
    scripts = {os.path.basename(p).rsplit("__", 1)[0]
               for p in glob.glob(os.path.join(smt, "*.smt2"))}
    assert scripts == {t.replace("::", "_") for t in reported}


def test_metrics_and_compare(tmp_path, ok_file, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["verify", ok_file, "--metrics-out", a]) == 0
    assert main(["verify", ok_file, "--metrics-out", b]) == 0
    out_csv = str(tmp_path / "cmp.csv")
    assert main(["compare", a, b, "--out", out_csv]) == 0
    text = capsys.readouterr().out
    assert "median time ratio" in text
    assert Path(out_csv).read_text().startswith("function,")


@pytest.mark.parametrize("name, text, message", [
    ("short.csv", "function,status\nok::fine,verified\n",
     "row 1: missing field 'time_ms'"),
    ("text.csv", "function,status,time_ms,obligations,instantiations,rounds,"
     "context_facts,strategy\nok::fine,verified,fast,2,0,1,0,default\n",
     "row 1: field 'time_ms' is not float: 'fast'"),
    ("keys.json", '[{"function": "ok::fine", "status": "verified"}]',
     "row 1: missing field 'time_ms'"),
    ("rows.json", '{"function": "ok::fine"}', "expected a list of objects"),
    ("broken.json", '[{"function": ', "not a metrics file"),
    ("source.tv", OK_SRC, "row 1: missing field 'function'"),
])
def test_compare_rejects_a_malformed_metrics_file(tmp_path, ok_file, capsys,
                                                  name, text, message):
    """A metrics file comes from outside the program: what is wrong with it
    is a usage error naming the file and the row or field, not an internal
    error."""
    good = str(tmp_path / "good.csv")
    assert main(["verify", ok_file, "--metrics-out", good]) == 0
    bad = tmp_path / name
    bad.write_text(text)
    capsys.readouterr()
    for args in ([good, str(bad)], [str(bad), good]):
        assert main(["compare", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err, err


def test_emit_smtlib(tmp_path, ok_file):
    d = str(tmp_path / "smt")
    assert main(["verify", ok_file, "--emit-smtlib", d]) == 0
    assert glob.glob(os.path.join(d, "*.smt2"))


# Rendered as `a <= b == c`, the body would re-parse as the chain
# `a <= b && b == c` and no longer type-check.
LE_IS_SRC = "spec fn le_is(a: int, b: int, c: bool) -> bool { (a <= b) == c }\n"


def test_minimize_and_write(tmp_path, capsys):
    p = tmp_path / "m.tv"
    p.write_text(OK_SRC + LE_IS_SRC)
    report_path = str(tmp_path / "report.json")
    assert main(["minimize", str(p), "--write", "--report-json",
                 report_path]) == 0
    payload = json.loads(Path(report_path).read_text())
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


def test_minimize_write_leaves_untouched_files(tmp_path, capsys):
    kept = tmp_path / "kept.tv"
    kept_src = ("// nothing to remove here\n"
                "proof fn kept(x: int) requires x > 1 ensures x > 0 { }\n")
    kept.write_text(kept_src)
    pruned = tmp_path / "pruned.tv"
    pruned.write_text("// this file loses its assert\n" + OK_SRC)
    assert main(["minimize", str(kept), str(pruned), "--write"]) == 0
    assert kept.read_bytes() == kept_src.encode()
    assert "assert" not in pruned.read_text()
    assert main(["verify", str(kept), str(pruned)]) == 0


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
    rows = Path(out_csv).read_text().splitlines()
    assert rows[0] == "function,site,status,baseline_ms,removed_ms,ratio"
    assert len(rows) == 4


def test_sample_failures_times_the_function_alone(tmp_path, monkeypatch):
    """`removed_ms` is the function's own verify time, as `baseline_ms` is,
    so a slow resolve of the whole program shows in neither; `ratio` is the
    quotient of the two as printed (to their rounding)."""
    resolve = tunav.driver.resolve_with_prelude

    def slow_resolve(*args, **kwargs):
        time.sleep(0.2)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(tunav.driver, "resolve_with_prelude", slow_resolve)
    target = tmp_path / "c.tv"
    shutil.copy(sorted(glob.glob("tests/corpus/*.tv"))[0], target)
    out_csv = str(tmp_path / "fails.csv")
    assert main(["sample-failures", str(target), "--n", "3", "--seed", "1",
                 "--out", out_csv]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        base, removed = float(row["baseline_ms"]), float(row["removed_ms"])
        assert removed < 200
        assert (removed - 5e-4) / (base + 5e-4) - 5e-5 <= float(row["ratio"]) \
            <= (removed + 5e-4) / max(base - 5e-4, 1e-3) + 5e-5


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


@pytest.mark.parametrize("command,flag,value", [
    pytest.param("verify", "--jobs", "0", id="0"),
    pytest.param("verify", "--jobs", "-3", id="-3"),
    pytest.param("verify", "--fuel", "-1", id="fuel=-1"),
    *[pytest.param(command, flag, value, id=f"{flag[2:]}={value}")
      for command, flag in [("verify", "--max-rounds"),
                            ("verify", "--max-instantiations"),
                            ("verify", "--max-splits"),
                            ("verify", "--time-budget-ms"),
                            ("sample-failures", "--n")]
      for value in ("0", "-1")],
])
def test_jobs_below_one_rejected(ok_file, capsys, command, flag, value):
    """Counts and limits below their minimum (0 for `--fuel`, else 1) are
    usage errors (exit 2), not internal errors or silent clamps of the run."""
    minimum = 0 if flag == "--fuel" else 1
    with pytest.raises(SystemExit) as exc:
        main([command, ok_file, flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be at least {minimum}" in capsys.readouterr().err


WRAP_SRC = """
spec fn wrap<A>(s: Seq<A>) -> Seq<Seq<A>>;
broadcast axiom fn axiom_wrap_len<A>(s: Seq<A>)
    ensures #[trigger] wrap(s).len() == s.len();
proof fn uses_wrap(s: Seq<int>)
    ensures wrap(s).len() == s.len()
{
    broadcast use {axiom_wrap_len};
}
"""


def test_verify_warns_when_a_liveness_cap_cut_instances(tmp_path, capsys):
    p = tmp_path / "wrap.tv"
    p.write_text(WRAP_SRC)
    assert main(["verify", str(p), "--no-timing"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("PASS wrap::uses_wrap (1 obligation)\n"
                            "1/1 functions verified\n")
    [warning] = captured.err.splitlines()
    assert warning.startswith("warning: liveness instantiation stopped at its cap of "
                              "10 rounds for ")
    assert "wrap::axiom_wrap_len" in warning


def test_verify_corpus_hits_no_liveness_cap(capsys):
    corpus = sorted(glob.glob("tests/corpus/*.tv"))
    assert main(["verify", *corpus, "--no-timing"]) == 0
    assert capsys.readouterr().err == ""


def test_jobs_two_through_a_pipe_prints_what_jobs_one_does():
    """Forked workers leave without flushing the stdio buffers they inherit,
    so through a pipe `--jobs 2` prints byte for byte what `--jobs 1` does,
    and a line buffered before the fork is printed once."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    argv = ["verify", "--no-timing", "--broadcast-usage-info", *sorted(glob.glob("tests/corpus/*.tv"))]

    def stdout(*cmd):
        done = subprocess.run([sys.executable, *cmd], env=env, capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    serial = stdout("-m", "tunav", *argv, "--jobs", "1")
    assert serial.count(b"functions verified") == 1
    assert stdout("-m", "tunav", *argv, "--jobs", "2") == serial
    script = ("import sys; from tunav.cli import main; print('before fork'); "
              "sys.exit(main(sys.argv[1:]))")
    assert stdout("-c", script, *argv, "--jobs", "2") == b"before fork\n" + serial
