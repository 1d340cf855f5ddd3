import gc
import glob
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import tunav.cli
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
from tunav.errors import ResolveError, TriggerError, TunavError
from tunav.metrics import records_of_run
from tunav.minimize import minimize
from tunav.smtlib import emit_all
from tunav.syntax import parse_module
from tunav.syntax.ast import Type
from tunav.vcgen import VcgenRun, generate_obligations

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
    is dropped; none of it waits for a full pass of the cycle collector.
    The same holds on every path that pauses the collector (`cyclegc`): a
    run at jobs=2, a minimizer pass, the trials of `tunav sample-failures`,
    parsing, and a run that raises."""
    asts = load_sources(CORPUS)
    unresolved = [parse_module("proof fn f() { assert(nowhere(1)); }", "bad.tv")]
    sample = tunav.cli.build_parser().parse_args(
        ["sample-failures", *CORPUS, "--n", "40", "--seed", "1", "--no-timing"])

    def run(jobs):
        assert verify_program(asts, RunConfig(jobs=jobs)).all_verified

    def raising_run():
        try:
            verify_program(unresolved, RunConfig())
        except ResolveError:
            pass
        else:
            raise AssertionError("expected a ResolveError")

    cases = {
        "jobs=1": lambda: run(1),
        "jobs=2": lambda: run(2),
        "minimize": lambda: minimize(asts, RunConfig()),
        "sample-failures": lambda: tunav.cli.cmd_sample_failures(sample),
        "parse": lambda: load_sources(CORPUS),
        "ResolveError": raising_run,
    }
    # the first jobs=2 run imports the fork-join's modules, and the first
    # sample-failures imports csv: module imports make cycles
    run(2)
    tunav.cli.cmd_sample_failures(sample)
    gc.collect()
    gc.disable()
    try:
        for name, case in cases.items():
            case()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
    _assert_no_worker_left()


def _run_counts(run):
    """(obligations, instantiations, splits, mono instances) of a run."""
    outs = [out for r in run.results.values() for _, out in r.obligations]
    return (len(outs), sum(sum(o.instantiations.values()) for o in outs),
            sum(o.splits_used for o in outs), len(run.program.instances))


def test_parallel_statuses_match_sequential():
    """jobs must not change what a run decides or reports: the `jobs`
    processes, the parent and `jobs - 1` forked workers, each proving a
    share, return together the results a serial run computes."""
    asts = load_sources(CORPUS)
    seq = verify_program(asts, RunConfig(jobs=1))
    for jobs in (2, 8):
        par = verify_program(asts, RunConfig(jobs=jobs))
        assert _run_summary(par) == _run_summary(seq)
        assert par.program.instances.keys() == seq.program.instances.keys()
    _assert_no_worker_left()


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
            assert _run_counts(run) == (176, 449, 102, 188)
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
    texts = {p: Path(p).read_text(encoding="utf-8") for p in CORPUS}
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
        assert _run_counts(run) == (176, 449, 102, 188)
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


TWO_RAISE = """
broadcast proof fn hollow(i: int) { }
broadcast proof fn empty(i: int) { }
proof fn early(x: int) requires x > 1 ensures x > 0 { broadcast use {empty}; }
proof fn late(x: int) requires x > 2 ensures x > 1 { broadcast use {hollow}; }
"""


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Gate:
    """A one-shot signal that forked workers inherit: once any process has
    opened it, `wait` returns at once in every process. A wait that is never
    opened gives up after `timeout` seconds, so no worker hangs."""

    def __init__(self):
        self.r, self.w = os.pipe()

    def open(self):
        os.write(self.w, b"x")

    def wait(self, timeout=30):
        select.select([self.r], [], [], timeout)


@pytest.fixture
def gates():
    """Makes `_Gate`s, closed at the end of the test."""
    made = []

    def gate():
        made.append(_Gate())
        return made[-1]

    yield gate
    for g in made:
        os.close(g.r)
        os.close(g.w)


def _start_workers_at(gate, monkeypatch):
    """Forked workers claim no task until `gate` is open."""
    work = driver._work

    def gated(*args):
        gate.wait()
        work(*args)

    monkeypatch.setattr(driver, "_work", gated)


@pytest.fixture
def fork_joins(monkeypatch):
    """Stands in for the driver's fork-join: records the worker count of
    each call and verifies the tasks inline, so no process is forked."""
    made = []

    def serial(todo, workers, verify):
        made.append(workers)
        return [verify(t) for t in todo]

    monkeypatch.setattr(driver, "_fork_join", serial)
    return made


def test_workers_sized_by_jobs_and_tasks(fork_joins, cold_prelude):
    """One proving process, the parent or a forked worker, per task the
    prelude store does not hold, up to `jobs`: a cold run proves every task
    there, a warm one all but the prelude's, whose results the first run
    kept."""
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=10_000))
    assert run.all_verified
    assert fork_joins == [len(run.order.tasks)]
    prelude = [t for t in run.order.tasks if t not in run.user_tasks]
    assert len(prelude) == 5
    verify_program(load_sources(CORPUS), RunConfig(jobs=10_000))
    assert fork_joins[1:] == [len(run.order.tasks) - 5]
    some = run.user_tasks[:3]
    verify_program(load_sources(CORPUS), RunConfig(jobs=2), tasks=some)
    verify_program(load_sources(CORPUS), RunConfig(jobs=8), tasks=some)
    assert fork_joins[2:] == [2, 3]


def test_a_forked_run_makes_each_tasks_obligations_once(tmp_path, monkeypatch,
                                                        cold_prelude, gates):
    """A cold jobs=2 run makes each task's obligations once: the parent
    makes those of the tasks the prelude store keeps, to look them up, and
    no process makes them again when it proves them. The worker starts
    claiming once the parent is making a user task's obligations, and the
    parent goes on once the worker is making one, so both prove some."""
    path = tmp_path / "made"
    log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    parent = os.getpid()
    generate = driver.generate_obligations
    start, handoff = gates(), gates()

    def recording(task, run):
        here = os.getpid() == parent
        os.write(log, f"{task} {'parent' if here else 'worker'}\n".encode())
        if not run.program.verify_instance(task).kept:
            if here:
                start.open()
                handoff.wait()
            else:
                handoff.open()
        return generate(task, run)

    monkeypatch.setattr(driver, "generate_obligations", recording)
    _start_workers_at(start, monkeypatch)
    try:
        run = verify_program(load_sources(CORPUS), RunConfig(jobs=2))
    finally:
        os.close(log)
    assert run.all_verified
    made = [line.split() for line in path.read_text().splitlines()]
    assert sorted(task for task, _ in made) == sorted(run.order.tasks)
    user = set(run.user_tasks)
    assert all(where == "parent" for task, where in made if task not in user)
    assert {where for task, where in made if task in user} == {"parent", "worker"}


def test_a_single_task_left_to_prove_forks_no_worker(fork_joins, cold_prelude):
    """A warm jobs=2 run that finds every prelude task in the store has one
    task left, which it proves in this process."""
    src = "proof fn p(x: int) requires x > 1 ensures x > 0 { }"
    cold = run_src(src, RunConfig(jobs=2))
    assert len(cold.order.tasks) == 6 and fork_joins == [2]
    warm = run_src(src, RunConfig(jobs=2))
    assert fork_joins == [2]
    assert warm.all_verified
    assert all(warm.results[t] is cold.results[t] for t in warm.order.tasks
               if t != "user::p")


def test_serial_runs_make_no_pool(fork_joins):
    """jobs=1 forks nothing."""
    assert verify_program(load_sources(CORPUS), RunConfig(jobs=1)).all_verified
    assert fork_joins == []


def test_a_serial_run_imports_no_fork_join_module():
    """A fresh interpreter that verifies the corpus at jobs=1, through the
    CLI, never loads the modules only the fork-join needs."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from tunav.cli import main\n"
            "assert main(['verify', '--jobs', '1', *sys.argv[1:]]) == 0\n"
            "print(sorted({'multiprocessing', 'pickle', 'select'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code, *CORPUS],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_minimizer_trials_make_no_pool(fork_joins):
    """A trial re-verifies one task, so only the baseline run may fork."""
    src = """
proof fn a(x: int) requires x > 1 ensures x > 0 { assert(x > 0); assert(x >= 1); }
proof fn b(x: int) requires x > 2 ensures x > 0 { assert(x > 1); }
"""
    asts = [parse_module(src, "user.tv", module="user")]
    report, _ = minimize(asts, RunConfig(jobs=4), scope="function")
    assert report.runs == 4
    assert len(fork_joins) == 1  # the baseline


def test_no_fork_means_serial(fork_joins, monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=2))
    assert run.all_verified
    assert fork_joins == []


def test_pool_shut_down_when_a_task_raises():
    """Workers forked for a run whose task raised are all reaped."""
    with pytest.raises(TriggerError):
        run_src(TRIGGERLESS, RunConfig(jobs=2))
    _assert_no_worker_left()


@pytest.mark.parametrize("claimer", ["parent", "worker"])
@pytest.mark.parametrize("src, error, line, failing", [
    (TRIGGERLESS, TriggerError, None, "user::no_trigger"),
    (NO_ENSURES, TunavError, 2, "user::fine"),
    (TWO_RAISE, TunavError, 3, "user::early"),
])
def test_worker_errors_surface_unchanged(src, error, line, failing, claimer,
                                         monkeypatch, gates):
    """An error raised at jobs=2 reaches the caller as it would at jobs=1:
    same type, message, span and text, whichever process claims `failing`,
    the earliest task in order that raises. From a worker, it carries the
    worker's traceback as its cause. With "parent", the worker starts
    claiming once the parent has claimed `failing`; with "worker", the
    parent's first task waits until the worker has claimed it. Where two
    tasks raise, the error of the earlier one surfaces, though
    `user::early` is delayed so that `user::late` raises first."""
    with pytest.raises(error) as exc:
        run_src(src, RunConfig(jobs=1))
    serial = exc.value
    parent = os.getpid()
    verify_task = driver.verify_task
    start, handoff = gates(), gates()

    def delayed(task, *args):
        here = os.getpid() == parent
        if claimer == "parent" and here and task == failing:
            start.open()
        elif claimer == "worker" and here:
            start.open()
            handoff.wait()
        elif claimer == "worker" and task == failing:
            handoff.open()
        if task == "user::early":
            time.sleep(0.2)
        return verify_task(task, *args)

    monkeypatch.setattr(driver, "verify_task", delayed)
    _start_workers_at(start, monkeypatch)
    with pytest.raises(error) as exc:
        run_src(src, RunConfig(jobs=2))
    forked = exc.value
    if claimer == "worker":
        assert isinstance(forked.__cause__, driver.WorkerTraceback)
        assert "Traceback" in str(forked.__cause__)
    else:
        assert type(forked.__cause__) is type(serial.__cause__)
    assert type(forked) is type(serial)
    assert (forked.message, forked.span) == (serial.message, serial.span)
    assert (forked.span and forked.span.line) == line
    assert str(forked) == str(serial)
    _assert_no_worker_left()


@pytest.mark.parametrize("death, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
    (lambda: os._exit(3), "exited with code 3 without writing its results"),
    (lambda: os._exit(0), "exited with code 0 without writing its results"),
])
def test_a_dead_worker_is_an_error(death, message, monkeypatch, gates):
    """A worker that dies makes the run raise a TunavError naming the signal
    or exit code; every worker is reaped. The worker dies on the first task
    it claims, and the parent's tasks wait until it has claimed one."""
    src = TRIGGERLESS.replace("forall|i: int| i == i", "x > 0")
    assert run_src(src, RunConfig(jobs=1)).all_verified
    parent = os.getpid()
    verify_task = driver.verify_task
    claimed = gates()

    def dying(task, *args):
        if os.getpid() == parent:
            claimed.wait()
        else:
            claimed.open()
            death()
        return verify_task(task, *args)

    monkeypatch.setattr(driver, "verify_task", dying)
    with pytest.raises(TunavError, match=message):
        run_src(src, RunConfig(jobs=2))
    _assert_no_worker_left()


def test_interrupted_wait_kills_and_reaps_workers(monkeypatch):
    """If the parent is interrupted while it waits for its workers, it kills
    and reaps them before the interruption propagates: it does not wait for
    workers whose every task takes a minute."""
    parent = os.getpid()
    verify_task = driver.verify_task

    def slow(task, *args):
        if os.getpid() != parent:
            time.sleep(60)
        return verify_task(task, *args)

    def interrupted(pipes):
        time.sleep(0.05)
        raise KeyboardInterrupt

    monkeypatch.setattr(driver, "verify_task", slow)
    monkeypatch.setattr(driver, "_join", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_src(TRIGGERLESS.replace("forall|i: int| i == i", "x > 0"), RunConfig(jobs=2))
    assert time.monotonic() - t0 < 10
    _assert_no_worker_left()


def test_an_interrupted_share_kills_and_reaps_workers(monkeypatch, gates):
    """If the parent is interrupted while it proves its own share, it kills
    and reaps its workers before the interruption propagates: it does not
    wait for a worker whose task takes a minute."""
    parent = os.getpid()
    verify_task = driver.verify_task
    claimed = gates()

    def interrupted(task, *args):
        if os.getpid() != parent:
            claimed.open()
            time.sleep(60)
        claimed.wait()
        raise KeyboardInterrupt

    monkeypatch.setattr(driver, "verify_task", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_src(TRIGGERLESS.replace("forall|i: int| i == i", "x > 0"), RunConfig(jobs=2))
    assert time.monotonic() - t0 < 10
    _assert_no_worker_left()


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

    def recording(inst, strategy, *args):
        qf = lower(inst, strategy, *args)
        calls.append((inst.symbol, strategy, qf.triggers.strategy_used))
        return qf

    monkeypatch.setattr(vcgen, "lower_quantified_fact", recording)
    return calls


def test_engine_facts_built_once_per_run(monkeypatch, cold_prelude):
    """Each lowered fact is converted to the engine's form once per run (the
    prelude's once per process, here in this first run), and every context
    holds that one fact. Each hypothesis and goal is compiled once, by vcgen,
    and each nested quantifier the engine registers selects its triggers
    once per polarity, not once per registration."""
    keys = []
    displays = []
    to_engine, in_engine = vcgen.make_fact, prover.make_fact
    compile_formula = prover.compile_formula
    # expressions compiled as hypotheses or goals (vcgen), and as fact or
    # quantifier bodies (the prover); kept alive so that no id is reused
    compiled = {vcgen: [], prover: []}

    def recording(key, *args, **kwargs):
        keys.append(key)
        return to_engine(key, *args, **kwargs)

    def recording_local(key, display, *args, **kwargs):
        displays.append(display)
        return in_engine(key, display, *args, **kwargs)

    def compiling_in(module):
        def compiling(e, strategy):
            compiled[module].append(e)
            return compile_formula(e, strategy)
        return compiling

    monkeypatch.setattr(vcgen, "make_fact", recording)
    monkeypatch.setattr(prover, "make_fact", recording_local)
    for module in compiled:
        monkeypatch.setattr(module, "compile_formula", compiling_in(module))
    run = verify_program(load_sources(CORPUS), RunConfig())
    assert _run_counts(run) == (176, 449, 102, 188)
    assert len(keys) > 60
    assert len(keys) == len(set(keys))
    # 20 (quantifier, polarity) pairs, which a run registers 40 times
    assert displays == ["<local quantifier>"] * 20
    for exprs in compiled.values():
        assert len({id(e) for e in exprs}) == len(exprs)
    # one compile per distinct hypothesis or goal of the corpus
    assert len(compiled[vcgen]) == 261
    # and one per distinct fact or quantifier body; one expression is both,
    # the one ensures of a broadcast lemma (`lemma_rank_two_pushes`), which
    # its task compiles as a goal and its fact as its body
    every = [id(e) for exprs in compiled.values() for e in exprs]
    assert len(every) == 350 and len(set(every)) == 349


LEMMA_AND_USER = """
spec fn f(i: int) -> int;
broadcast proof fn lemma_f(i: int)
    ensures #[trigger] f(i) == f(i)
{
}
proof fn use_f(x: int)
    ensures f(x) == f(x)
{
    broadcast use {lemma_f};
}
"""


@pytest.mark.parametrize("src, shared", [
    (LEMMA_AND_USER, True),
    # a requires joins the body, which is then not the goal
    (LEMMA_AND_USER.replace("(i: int)\n", "(i: int)\n    requires i >= 0\n"), False),
    # the conclusion of two ensures is their conjunction
    (LEMMA_AND_USER.replace("f(i) == f(i)", "f(i) == f(i), f(i) >= f(i)"), False),
], ids=["one-ensures", "requires", "two-ensures"])
def test_broadcast_lemma_ensures_compiled_once(monkeypatch, src, shared):
    """A broadcast lemma's ensures is compiled once as its task's goal and,
    where it alone is its fact's body, once as that body: the fact compiles
    its own, so making one task's obligations changes no other task's
    engine input."""
    compiled = {vcgen: [], prover: []}
    compile_formula = prover.compile_formula

    def compiling_in(module):
        def compiling(e, strategy):
            formula = compile_formula(e, strategy)
            compiled[module].append((e, formula))
            return formula
        return compiling

    for module in compiled:
        monkeypatch.setattr(module, "compile_formula", compiling_in(module))
    run = run_src(src)
    assert run.all_verified
    ensures = run.program.verify_instance("user::lemma_f").decl.ensures
    goals = [f for e, f in compiled[vcgen] if any(e is x for x in ensures)]
    bodies = [f for e, f in compiled[prover] if any(e is x for x in ensures)]
    assert len(goals) == len(ensures)
    assert len(bodies) == shared
    fact = run.program.instances["user::lemma_f"].lowered[
        (trig.CONSERVATIVE, 1, None)][0].engine
    assert not any(fact.compiled is g for g in goals)
    assert (fact.compiled in bodies) == shared


@pytest.mark.parametrize("clause, error", [
    # a goal's `forall` is skolemized, never registered: no triggers needed
    ("ensures forall|i: int| i >= 0 ==> i >= 0", None),
    ("requires forall|i: int| i >= 0 ensures x == x",
     "no valid trigger: candidates do not mention every quantified variable"),
])
def test_nested_quantifier_selects_triggers_only_when_registered(clause, error):
    src = f"proof fn p(x: int) {clause} {{ }}"
    if error is None:
        assert run_src(src).results["user::p"].passed
    else:
        with pytest.raises(TriggerError, match=error):
            run_src(src)


# The layer entry points the benchmark's `--trace 1` wraps by name in
# `tunav.driver` (`DRIVER_LAYERS` in bench/workloads.py).
DRIVER_LAYERS = ("load_prelude", "resolve_program", "order_tasks",
                 "generate_obligations", "prove_obligation")


def test_driver_calls_each_layer_through_its_module(monkeypatch, cold_prelude):
    """A run calls every traced layer through `tunav.driver`'s namespace, so
    a wrapper put there sees each call: one per run, per task, or per
    obligation proved. A second run reuses the prelude's task results that
    the first one kept, so it proves only the user's obligations."""
    calls = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in DRIVER_LAYERS:
        monkeypatch.setattr(driver, name, counting(name, getattr(driver, name)))
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=1))
    assert _run_counts(run) == (176, 449, 102, 188)
    assert calls == {"load_prelude": 1, "resolve_program": 1, "order_tasks": 1,
                     "generate_obligations": len(run.results),
                     "prove_obligation": 176}
    calls.clear()
    again = verify_program(load_sources(CORPUS), RunConfig(jobs=1))
    assert _run_counts(again) == (176, 449, 102, 188)
    assert calls == {"load_prelude": 1, "resolve_program": 1, "order_tasks": 1,
                     "generate_obligations": len(run.results),
                     "prove_obligation": 166}


def test_broadcast_facts_lowered_once_per_run(monkeypatch, cold_prelude):
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


def test_lowered_facts_do_not_outlive_their_run(monkeypatch, cold_prelude):
    calls = _record_lowerings(monkeypatch)
    strategies = (trig.CONSERVATIVE, trig.ALL_TRIGGERS, trig.CONSERVATIVE)
    for strategy in strategies:
        assert run_src(UNMARKED_FACT, RunConfig(strategy=strategy)).all_verified
    lowered = Counter((sym, strategy) for sym, strategy, _ in calls)
    prelude = {sym for sym, _, _ in calls if sym != "user::fg"}
    assert prelude
    # every run lowers the user's fact afresh, with its own strategy; the
    # prelude store keeps the prelude's, lowered once per strategy
    assert lowered == {
        ("user::fg", trig.CONSERVATIVE): 2, ("user::fg", trig.ALL_TRIGGERS): 1,
        **{(sym, strategy): 1 for sym in prelude for strategy in strategies}}
    assert [used for sym, _, used in calls if sym == "user::fg"] == list(strategies)


GENERIC_B = """
proof fn b<T>(s: Seq<T>, x: T)
    ensures s.push(x).len() == s.len() + 1
{
    broadcast use {group_seq_properties};
}
"""
GENERIC_C = GENERIC_B.replace("fn b<T>", "fn c<U>").replace("T", "U")


def test_skolem_facts_do_not_depend_on_module_names(tmp_path):
    """Task `a::b` sees the group's instances at its own skolem sort only,
    whatever the other module is named: one named `a::b`, whose generic `c`
    is verified at `!a::b::c::U`, changes nothing in its report, metrics
    row or SMT-LIB scripts."""
    config = RunConfig(usage_report=True, no_timing=True)
    got = {}
    for other in ("a::b", "zz"):
        run = verify_program([parse_module(GENERIC_B, "a.tv", module="a"),
                              parse_module(GENERIC_C, "c.tv", module=other)],
                             config)
        smt_dir = tmp_path / other.replace(":", "_")
        emit_all(generate_obligations("a::b", VcgenRun(run.program, run.registry,
                                                       config)), str(smt_dir))
        got[other] = (render_report(run, config, ["a::b"]),
                      records_of_run(run, config, ["a::b"]),
                      {p.name: p.read_text() for p in sorted(smt_dir.iterdir())})
        # each generic task sees the same number of facts: its own sort's
        assert (run.results["a::b"].context_facts
                == run.results[f"{other}::c"].context_facts)
    assert got["a::b"] == got["zz"]
    assert got["zz"][0].endswith("1/1 functions verified")
