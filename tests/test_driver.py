import gc
import glob
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from tunav import driver
from tunav import triggers as trig
from tunav import vcgen
from tunav.driver import (
    RunConfig,
    load_sources,
    render_report,
    report_usage,
    verify_program,
)
from tunav.engine import prover
from tunav.errors import TriggerError, TunavError
from tunav.minimize import minimize
from tunav.syntax import parse_module
from tunav.syntax.ast import Type

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


PUSH_LEN_DIRECT = """
proof fn push_len(a: Seq<int>) {
    broadcast use {axiom_seq_push_len};
    assert(a.push(3).len() == a.len() + 1);
}
"""


def test_usage_report_follows_ambient_imports():
    """An ambient group is imported into user functions only, so their
    reports name it and no prelude task's report does."""
    group = "prelude::seq::group_seq_properties"
    run = run_src(PUSH_CONTAINS_DIRECT, RunConfig(ambient=(group,)))
    reports = {t: report_usage(r) for t, r in run.results.items() if r.passed}
    assert f"(group) {group}" in reports["user::push_contains"]
    prelude = [rep for t, rep in reports.items() if t not in run.user_tasks]
    assert prelude and not any(group in rep for rep in prelude)


def test_usage_report_without_default_group():
    """A default-group axiom imported directly is reported through the
    default group only while that group is imported."""
    axiom = "prelude::seq::axiom_seq_push_len"
    on = run_src(PUSH_LEN_DIRECT).results["user::push_len"]
    assert on.passed
    assert "(group) prelude::core::group_default" in report_usage(on)
    bare = run_src(PUSH_LEN_DIRECT, RunConfig(no_default_prelude=True))
    reports = [report_usage(r) for r in bare.results.values() if r.passed]
    assert f"- {axiom}" in report_usage(bare.results["user::push_len"])
    assert not any("group_default" in rep for rep in reports)


def test_user_declaration_does_not_capture_prelude_calls():
    """A user fn named like a prelude fn leaves the prelude's own calls
    resolved within the prelude; user code still sees both."""
    push = "spec fn push<A>(s: Seq<A>, a: A) -> Seq<A>;\n"
    run = run_src(push + "proof fn fine(x: int) requires x > 1 ensures x > 0 { }")
    assert run.all_verified
    assert len(run.results) > len(run.user_tasks)
    with pytest.raises(TunavError, match="ambiguous call 'push'"):
        run_src(push + PUSH_LEN_DIRECT)


def test_user_sort_named_like_a_prelude_sort():
    """A module's own sort wins in that module, and the prelude keeps its
    own: a user `Seq` neither clashes with the prelude's nor captures it."""
    run = run_src("sort Seq<A>;\nspec fn f(s: Seq<int>) -> int;\n"
                  "proof fn g(s: Seq<int>) ensures f(s) == f(s) { }\n")
    assert run.all_verified
    assert len(run.results) > len(run.user_tasks)
    [param] = run.program.verify_instance("user::g").decl.params
    assert param.ty == Type("user::Seq", (Type("int"),))


def test_sort_name_ambiguous_only_at_a_use_with_two_candidates():
    """A module that declares no `Seq` but sees the prelude's and another
    module's is ambiguous where it names `Seq`, not where either is declared."""
    own = parse_module("sort Seq<A>;\n", "a.tv", module="a")
    user = parse_module("proof fn g() ensures true { }\n"
                        "proof fn h(s: Seq<int>) ensures true { }\n",
                        "b.tv", module="b")
    assert verify_program([own], RunConfig()).all_verified
    with pytest.raises(TunavError, match="ambiguous sort name 'Seq'") as err:
        verify_program([own, user], RunConfig())
    assert err.value.span.file == "b.tv" and err.value.span.line == 2


def test_nat_sort_argument_matches_a_live_int_sort():
    """A broadcast fact over `Box<nat, V>` gets liveness instances from a live
    `Box<int, int>`: `nat` matches `int` here as it does for calls."""
    src = """
sort Box<K, V>;
spec fn put<K, V>(b: Box<K, V>, k: K, v: V) -> Box<K, V>;
spec fn get<K, V>(b: Box<K, V>, k: K) -> V;

broadcast axiom fn ax<V>(b: Box<nat, V>, k: nat, v: V)
    ensures #[trigger] get(put(b, k, v), k) == v;

proof fn use_box(b: Box<int, int>, k: nat) {
    broadcast use {ax};
    assert(get(put(b, k, 5), k) == 5);
}
"""
    run = run_src(src)
    assert run.all_verified
    assert run.program.instances_of["user::ax"] == ["user::ax<int>"]


CONST_K = "const K: int;\n"


def test_const_of_another_module_by_bare_name():
    """Const names resolve like sorts and callees: `b` sees `a::K`."""
    a = parse_module(CONST_K, "a.tv", module="a")
    b = parse_module("proof fn g() ensures K == K { }\n", "b.tv", module="b")
    run = verify_program([a, b], RunConfig())
    assert run.all_verified
    [ensures] = run.program.verify_instance("b::g").decl.ensures
    assert ensures.lhs.resolved == "a::K"


def test_own_const_wins_over_another_modules():
    a = parse_module(CONST_K, "a.tv", module="a")
    b = parse_module(CONST_K + "proof fn g() ensures K == K { }\n", "b.tv",
                     module="b")
    run = verify_program([a, b], RunConfig())
    [ensures] = run.program.verify_instance("b::g").decl.ensures
    assert ensures.lhs.resolved == ensures.rhs.resolved == "b::K"


def test_const_name_ambiguous_at_a_use_with_two_candidates():
    a = parse_module(CONST_K, "a.tv", module="a")
    c = parse_module(CONST_K, "c.tv", module="c")
    b = parse_module("proof fn g() ensures K == K { }\n", "b.tv", module="b")
    assert verify_program([a, c], RunConfig()).all_verified
    with pytest.raises(TunavError, match="ambiguous const name 'K'") as err:
        verify_program([a, c, b], RunConfig())
    assert err.value.span.file == "b.tv"


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


CORPUS = sorted(glob.glob("tests/corpus/*.tv"))


def test_a_run_leaves_no_reference_cycles():
    """Everything a run builds is freed by reference counting once the run
    is dropped; none of it waits for a full pass of the cycle collector."""
    asts = load_sources(CORPUS)
    gc.collect()
    gc.disable()
    try:
        run = verify_program(asts, RunConfig())
        assert run.all_verified
        del run
        assert gc.collect() == 0
    finally:
        gc.enable()


def _run_counts(run):
    """(obligations, instantiations, splits, mono instances) of a run."""
    outs = [out for r in run.results.values() for _, out in r.obligations]
    return (len(outs), sum(sum(o.instantiations.values()) for o in outs),
            sum(o.splits_used for o in outs), len(run.program.instances))


def test_parallel_statuses_match_sequential():
    """jobs must not change what a run decides or reports: forked workers
    return the results a serial run computes."""
    asts = load_sources(CORPUS)
    seq = verify_program(asts, RunConfig(jobs=1))
    for jobs in (2, 8):
        par = verify_program(asts, RunConfig(jobs=jobs))
        assert _run_summary(par) == _run_summary(seq)
        assert par.program.instances.keys() == seq.program.instances.keys()


def test_file_order_does_not_change_results():
    """Metamorphic check: permuting the input files, or the declarations
    within each file, changes no verdict, usage report or count, serially or
    in worker processes."""
    orders = [CORPUS, CORPUS[::-1], random.Random(7).sample(CORPUS, len(CORPUS))]
    assert len({tuple(o) for o in orders}) == 3
    rng = random.Random(7)
    shuffled = [replace(a, declarations=rng.sample(a.declarations,
                                                   len(a.declarations)))
                for a in load_sources(CORPUS)]
    assert shuffled != load_sources(CORPUS)
    inputs = [load_sources(paths) for paths in orders] + [shuffled]
    want = None
    for asts in inputs:
        for jobs in (1, 2):
            run = verify_program(asts, RunConfig(jobs=jobs))
            assert _run_counts(run) == (176, 693, 160, 188)
            if want is None:
                want = _run_summary(run)
            assert _run_summary(run) == want


def _word_map(mapping):
    """Replace every whole-word occurrence of a key of `mapping`."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    return lambda text: pattern.sub(lambda m: mapping[m.group()], text)


def _summary_through(run, name):
    """`_run_summary` with every declared name passed through `name`, and
    without byte offsets and columns, which a renaming shifts."""
    def core(origins):
        return sorted((o.kind, name(o.path.rsplit(":", 1)[0] if o.kind == "goal" else o.path))
                      for o in origins)

    out = {}
    for t, r in run.results.items():
        named = replace(r, used_core=frozenset(prover.Origin(o.kind, name(o.path))
                                               for o in r.used_core),
                        fact_groups={name(k): tuple(map(name, v))
                                     for k, v in r.fact_groups.items()})
        out[name(t)] = (
            r.status, report_usage(named) if r.passed else None,
            [(site.kind, site.span.line, site.index, o.status, o.reason and name(o.reason),
              {name(k): n for k, n in o.instantiations.items()}, o.splits_used,
              o.rounds_used, core(o.used_core)) for site, o in r.obligations],
            r.context_facts, named.fact_groups)
    return out


def test_renaming_does_not_change_results():
    """Metamorphic check: renaming every top-level name the corpus declares,
    by a seeded map, changes no verdict, usage report (read back through the
    inverse map) or count."""
    texts = {p: open(p, encoding="utf-8").read() for p in CORPUS}
    asts = load_sources(CORPUS)
    declared = sorted({d.name for a in asts for d in a.declarations if d.name})
    rng = random.Random(11)
    fresh = dict(zip(declared, (f"v{k}" for k in rng.sample(range(10 * len(declared)),
                                                            len(declared)))))
    words = {w for text in texts.values() for w in re.findall(r"\w+", text)}
    assert len(declared) > 50 and not words & set(fresh.values())
    rename = _word_map(fresh)
    renamed = [parse_module(rename(texts[p]), p) for p in CORPUS]
    runs = [verify_program(a, RunConfig(jobs=1)) for a in (asts, renamed)]
    for run in runs:
        assert _run_counts(run) == (176, 693, 160, 188)
    back = _word_map({v: k for k, v in fresh.items()})
    assert _summary_through(runs[1], back) == _summary_through(runs[0], str)


TRIGGERLESS = """
proof fn fine(x: int) requires x > 1 ensures x > 0 { }
proof fn no_trigger(x: int) requires forall|i: int| i == i ensures x == x { }
proof fn also_fine(x: int) requires x > 2 ensures x > 1 { }
"""

NO_ENSURES = """
broadcast proof fn nothing(i: int) { }
proof fn fine(x: int) requires x > 1 ensures x > 0 { broadcast use {nothing}; }
proof fn also_fine(x: int) requires x > 2 ensures x > 1 { broadcast use {nothing}; }
"""


class FakePool:
    """Stands in for the driver's process pool: records what it was asked
    for and runs the tasks inline."""
    made: list["FakePool"] = []

    def __init__(self, workers):
        self.workers = workers
        self.shutdowns = []
        FakePool.made.append(self)

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]

    def shutdown(self, **kwargs):
        self.shutdowns.append(kwargs)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.made = []
    monkeypatch.setattr(driver, "_fork_pool", FakePool)
    return FakePool.made


def test_pool_sized_by_largest_layer(fake_pool):
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=10_000))
    assert run.all_verified
    largest = max(len(layer) for layer in run.order.layers)
    assert [p.workers for p in fake_pool] == [largest]
    assert fake_pool[0].shutdowns == [{"cancel_futures": True}]
    assert driver._forked_run is None


def test_serial_runs_make_no_pool(fake_pool):
    assert verify_program(load_sources(CORPUS), RunConfig(jobs=1)).all_verified
    assert fake_pool == []


def test_minimizer_trials_make_no_pool(fake_pool):
    """A trial re-verifies one task, so only the baseline run may fork."""
    src = """
proof fn a(x: int) requires x > 1 ensures x > 0 { assert(x > 0); assert(x >= 1); }
proof fn b(x: int) requires x > 2 ensures x > 0 { assert(x > 1); }
"""
    asts = [parse_module(src, "user.tv", module="user")]
    report, _ = minimize(asts, RunConfig(jobs=4), scope="function")
    assert report.runs == 4
    assert len(fake_pool) == 1  # the baseline


def test_no_fork_means_serial(fake_pool, monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=2))
    assert run.all_verified
    assert fake_pool == []


def test_pool_shut_down_when_a_task_raises(fake_pool):
    with pytest.raises(TriggerError):
        run_src(TRIGGERLESS, RunConfig(jobs=2))
    assert [p.shutdowns for p in fake_pool] == [[{"cancel_futures": True}]]
    assert driver._forked_run is None


@pytest.mark.parametrize("src, error, line", [
    (TRIGGERLESS, TriggerError, None),
    (NO_ENSURES, TunavError, 2),
])
def test_worker_errors_surface_unchanged(src, error, line):
    """An error raised in a worker process reaches the caller as it would
    at jobs=1: same type, message and span."""
    errors = []
    for jobs in (1, 2):
        with pytest.raises(error) as exc:
            run_src(src, RunConfig(jobs=jobs))
        errors.append(exc.value)
    serial, forked = errors
    assert forked.__cause__ is not None  # the worker's traceback
    assert type(forked) is type(serial)
    assert (forked.message, forked.span) == (serial.message, serial.span)
    assert (forked.span and forked.span.line) == line
    assert str(forked) == str(serial)
    assert driver._forked_run is None


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


def test_engine_facts_built_once_per_run(monkeypatch):
    """Each lowered fact is converted to the engine's form once per run, and
    every context holds that one fact; only quantifiers met while proving are
    converted per obligation."""
    keys = []
    displays = set()
    to_engine, in_engine = vcgen.make_fact, prover.make_fact

    def recording(key, *args, **kwargs):
        keys.append(key)
        return to_engine(key, *args, **kwargs)

    def recording_local(key, display, *args, **kwargs):
        displays.add(display)
        return in_engine(key, display, *args, **kwargs)

    monkeypatch.setattr(vcgen, "make_fact", recording)
    monkeypatch.setattr(prover, "make_fact", recording_local)
    run = verify_program(load_sources(CORPUS), RunConfig())
    assert _run_counts(run) == (176, 693, 160, 188)
    assert len(keys) > 60
    assert len(keys) == len(set(keys))
    assert displays == {"<local quantifier>"}


def test_broadcast_facts_lowered_once_per_run(monkeypatch):
    calls = _record_lowerings(monkeypatch)
    run = verify_program(load_sources(CORPUS), RunConfig())
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
