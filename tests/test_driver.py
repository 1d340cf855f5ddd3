import glob
import sys
from collections import Counter

from tunav import triggers as trig
from tunav import vcgen
from tunav.driver import (
    RunConfig,
    load_sources,
    render_report,
    report_usage,
    verify_program,
)
from tunav.syntax import parse_module

PUSH_CONTAINS_GROUP = """
proof fn push_contains(a: Seq<int>) {
    broadcast use {group_seq_properties};
    let b = a.push(3);
    assert(b.contains(3));
}
"""

PUSH_CONTAINS_DIRECT = PUSH_CONTAINS_GROUP.replace(
    "group_seq_properties", "lemma_seq_contains_after_push")


def run_src(src, config=None, module="user"):
    return verify_program([parse_module(src, f"{module}.tv", module=module)],
                          config or RunConfig())


def test_usage_report_group_format():
    run = run_src(PUSH_CONTAINS_GROUP)
    r = run.results["user::push_contains"]
    assert r.passed
    assert report_usage(r) == (
        "checking this function used these broadcasted lemmas "
        "and broadcast groups:\n"
        "        - (group) prelude::seq::group_seq_properties,\n"
        "        - prelude::seq::lemma_seq_contains_after_push")


def test_usage_report_direct_import_no_group_line():
    run = run_src(PUSH_CONTAINS_DIRECT)
    r = run.results["user::push_contains"]
    assert report_usage(r) == (
        "checking this function used these broadcasted lemmas "
        "and broadcast groups:\n"
        "        - prelude::seq::lemma_seq_contains_after_push")


def test_usage_report_empty_when_no_broadcast_origins():
    run = run_src("proof fn pure_arith(x: int) requires x > 1 ensures x > 0 { }")
    r = run.results["user::pure_arith"]
    assert report_usage(r) == ("checking this function used these broadcasted "
                               "lemmas and broadcast groups:")


def test_report_lines_and_diagnostics():
    src = """
proof fn ok(x: int) requires x > 1 ensures x > 0 { }
proof fn broken(x: int) ensures x > 0 { }
"""
    run = run_src(src)
    config = RunConfig(no_timing=True)
    text = render_report(run, config)
    assert "PASS user::ok (1 obligation)" in text
    assert "FAIL user::broken (1 obligation)" in text
    assert "user.tv:3:" in text  # diagnostic carries the span
    assert "1/2 functions verified" in text
    assert not run.all_verified


def test_determinism_two_runs_byte_identical():
    paths = sorted(glob.glob("tests/corpus/*.tv"))[:3]
    config = RunConfig(no_timing=True, usage_report=True)
    out1 = render_report(verify_program(load_sources(paths), config), config)
    out2 = render_report(verify_program(load_sources(paths), config), config)
    assert out1 == out2


def _run_summary(run):
    """Verdicts, usage reports and counts of a run, per task."""
    return {
        t: (r.status, report_usage(r) if r.passed else None,
            [(site, out.status, out.reason, out.instantiations, out.splits_used,
              out.rounds_used, out.used_core) for site, out in r.obligations],
            r.context_facts, r.fact_groups)
        for t, r in run.results.items()
    }


def test_parallel_statuses_match_sequential():
    """jobs must not change what a run decides or reports. The tasks of a run
    share one cache of lowered facts; a short switch interval makes the
    worker threads interleave inside it."""
    paths = sorted(glob.glob("tests/corpus/*.tv"))
    asts = load_sources(paths)
    seq = verify_program(asts, RunConfig(jobs=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [verify_program(asts, RunConfig(jobs=jobs)) for jobs in (2, 8)]
    finally:
        sys.setswitchinterval(interval)
    for par in runs:
        assert _run_summary(par) == _run_summary(seq)
        assert par.program.instances.keys() == seq.program.instances.keys()


def test_unknown_status_reported():
    src = """
spec fn g(i: int) -> int;
proof fn loops(x: int)
    requires forall|i: int| #[trigger] g(i) == g(i + 1) + 1, g(0) == 7
    ensures g(0) == 99
{ }
"""
    run = run_src(src)
    r = run.results["user::loops"]
    assert r.status == "unknown"
    assert any(out.reason == "rounds" for _, out in r.obligations)


def test_broadcast_lemma_verified_before_importer():
    src = """
spec fn g(i: int) -> int;
broadcast axiom fn base(i: int)
    ensures #[trigger] g(i) >= 0;
broadcast proof fn lifted(i: int)
    ensures #[trigger] g(i) + 1 >= 1
{
    broadcast use {base};
}
proof fn user_fn(x: int)
    ensures g(x) + 1 >= 1
{
    broadcast use {lifted};
}
"""
    run = run_src(src)
    order = run.order.tasks
    assert order.index("user::lifted") < order.index("user::user_fn")
    assert run.all_verified


def _record_lowerings(monkeypatch) -> list:
    """(symbol, strategy, selection strategy) of every fact lowered."""
    calls = []
    lower = vcgen.lower_quantified_fact

    def recording(inst, strategy):
        qf = lower(inst, strategy)
        calls.append((inst.symbol, strategy, qf.triggers.strategy_used))
        return qf

    monkeypatch.setattr(vcgen, "lower_quantified_fact", recording)
    return calls


def test_broadcast_facts_lowered_once_per_run(monkeypatch):
    calls = _record_lowerings(monkeypatch)
    run = verify_program(load_sources(sorted(glob.glob("tests/corpus/*.tv"))),
                         RunConfig())
    assert run.all_verified
    keys = [(sym, strategy) for sym, strategy, _ in calls]
    assert len(keys) > 50
    assert len(keys) == len(set(keys))


UNMARKED_FACT = """
spec fn f(i: int) -> int;
spec fn g(i: int) -> int;
broadcast axiom fn fg(i: int)
    ensures f(i) == g(i);
proof fn use_fg(x: int)
    ensures f(x) == g(x)
{
    broadcast use {fg};
}
"""


def test_lowered_facts_do_not_outlive_their_run(monkeypatch):
    calls = _record_lowerings(monkeypatch)
    strategies = (trig.CONSERVATIVE, trig.ALL_TRIGGERS, trig.CONSERVATIVE)
    for strategy in strategies:
        assert run_src(UNMARKED_FACT, RunConfig(strategy=strategy)).all_verified
    symbols = {sym for sym, _, _ in calls}
    # every run lowers each fact it imports afresh, with its own strategy
    assert Counter((sym, strategy) for sym, strategy, _ in calls) == {
        **{(sym, trig.CONSERVATIVE): 2 for sym in symbols},
        **{(sym, trig.ALL_TRIGGERS): 1 for sym in symbols}}
    assert [used for sym, _, used in calls if sym == "user::fg"] == list(strategies)
