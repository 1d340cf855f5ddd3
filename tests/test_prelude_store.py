"""The prelude store keeps the prelude's resolve and lowered facts for the
life of the process. What a run reports must not depend on what ran before
it in the process, and the store must hold only prelude work: its size is
fixed by the prelude, not by the programs verified."""

import functools
import glob
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, replace
from importlib import resources

import pytest
from test_resolve_snapshot import renamed_corpus

import tunav.prelude
from tunav import driver, vcgen
from tunav import triggers as trig
from tunav.driver import (
    RunConfig,
    load_sources,
    render_report,
    verify_program,
    verify_task,
)
from tunav.engine.prover import Limits
from tunav.errors import TunavError
from tunav.metrics import records_of_run, write_metrics
from tunav.prelude import PRELUDE_FILES, prelude_store
from tunav.resolve import ResolveMemo, order_tasks, resolve_program
from tunav.smtlib import emit_all
from tunav.syntax import parse_module
from tunav.vcgen import VcgenRun, generate_obligations

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.tv")))

# prelude generics made live at a user sort
KEYS = """
sort Key;
proof fn push_len(s: Seq<Key>, k: Key)
    ensures s.push(k).len() == s.len() + 1
{ }
proof fn push_contains(s: Seq<Key>, k: Key) {
    broadcast use {group_seq_properties};
    assert(s.push(k).contains(k));
}
"""

# a user module whose name starts like the prelude's, declaring a sort
EXTRA = """
sort Item;
spec fn weight(i: Item) -> int;
proof fn push_items(s: Seq<Item>, i: Item)
    ensures s.push(i).len() == s.len() + 1, s.push(i).index(s.len()) == i
{ }
"""

# name -> (user sources as (text, path, module), config, --prelude-only)
CASES = {
    "corpus": (None, RunConfig(), False),
    "keys": ([(KEYS, "keys_user.tv", "keys_user")], RunConfig(), False),
    "prelude-extra": ([(EXTRA, "extra.tv", "prelude::extra")], RunConfig(), False),
    "prelude-all-triggers": ([], RunConfig(strategy=trig.ALL_TRIGGERS), True),
    "prelude-fuel-2": ([], RunConfig(fuel=2), True),
    "corpus-jobs-2": (None, RunConfig(jobs=2), False),
}
ORDER = ["corpus", "keys", "prelude-extra", "prelude-all-triggers",
         "prelude-fuel-2", "corpus", "corpus-jobs-2"]


def outputs(case: str, out_dir: str) -> dict:
    """What `tunav verify --broadcast-usage-info --no-timing --metrics-out
    --emit-smtlib` reports for `case`: the report, the metrics records and
    the SMT-LIB files."""
    sources, config, prelude_only = CASES[case]
    config = replace(config, usage_report=True, no_timing=True)
    asts = (load_sources(CORPUS) if sources is None
            else [parse_module(*source) for source in sources])
    run = verify_program(asts, config)
    tasks = run.program.proof_fns() if prelude_only else run.user_tasks
    os.makedirs(out_dir)
    metrics = os.path.join(out_dir, "metrics.json")
    write_metrics(records_of_run(run, config, tasks), metrics)
    smt_dir = os.path.join(out_dir, "smt")
    vcgen_run = VcgenRun(run.program, run.registry, config)
    emit_all([ob for task in tasks for ob in generate_obligations(task, vcgen_run)],
             smt_dir)
    smt = {}
    for name in sorted(os.listdir(smt_dir)):
        with open(os.path.join(smt_dir, name), encoding="utf-8") as fh:
            smt[name] = fh.read()
    with open(metrics, encoding="utf-8") as fh:
        records = fh.read()
    return {"report": render_report(run, config, tasks), "metrics": records,
            "smtlib": smt}


def in_fresh_process(function: str, *args: str):
    """`function(*args)` of this module, in a new interpreter; its result
    goes through JSON."""
    code = ("import json, sys; import test_prelude_store as t; "
            "print(json.dumps(getattr(t, sys.argv[1])(*sys.argv[2:])))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(HERE), "src"), HERE])}
    done = subprocess.run([sys.executable, "-c", code, function, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_results_do_not_depend_on_what_ran_before(tmp_path, cold_prelude):
    fresh = {case: in_fresh_process("outputs", case, str(tmp_path / f"fresh-{case}"))
             for case in CASES}
    for i, case in enumerate(ORDER):
        got = outputs(case, str(tmp_path / f"{i}-{case}"))
        assert got["report"] == fresh[case]["report"], case
        assert got["metrics"] == fresh[case]["metrics"], case
        assert got["smtlib"] == fresh[case]["smtlib"], case
    assert fresh["keys"]["report"].endswith("2/2 functions verified")
    assert fresh["prelude-extra"]["report"].endswith("1/1 functions verified")


def store_lowered() -> list:
    """(symbol, key) of every list of facts lowered into the prelude store's
    instance entries."""
    return [(sym, key) for (sym, _), fn in prelude_store().instances.items()
            for key in fn.lowered]


def store_keys() -> list:
    """Every key of every table of the prelude store, and of the lowered
    facts of its instance entries."""
    store = prelude_store()
    return [key for table in (store.checked, store.instances, store.keys,
                              store.canonical, store.verdicts)
            for key in table] + store_lowered()


def test_store_holds_only_prelude_work(cold_prelude):
    """Twenty renamed corpus copies fill the store as the first one does,
    and no key names a user module or a user sort."""
    user_modules = set()
    sizes = []
    for c in range(20):
        asts = renamed_corpus(c)
        user_modules.update(a.module for a in asts)
        assert verify_program(asts, RunConfig()).all_verified
        sizes.append(len(store_keys()))
    assert sizes[0] > 0 and sizes == [sizes[0]] * 20
    for source in CASES["keys"][0] + CASES["prelude-extra"][0]:
        user_modules.add(source[2])
        assert verify_program([parse_module(*source)], RunConfig()).all_verified
    assert len(store_keys()) == sizes[0]

    store = prelude_store()
    assert all(key in store.decls for key in store.checked)
    assert all(decl in store.decls for _, decl in store.instances)
    assert all(fn.kept and all(map(store.holds, fn.targs))
               for fn in store.instances.values())
    assert len(store.verdicts) == 5
    assert all(result.task.startswith("prelude::") for result in store.verdicts.values())
    named = re.compile(r"(?<![\w:])(" + "|".join(map(re.escape, user_modules))
                       + r")::")
    assert not [key for key in store_keys() if named.search(repr(key))]


# a user module that names nothing of the prelude
BARE = """
sort Key;
spec fn rank(k: Key) -> int;
broadcast axiom fn rank_pos(k: Key)
    ensures #[trigger] rank(k) > 0;
proof fn rank_nonneg(k: Key)
    ensures rank(k) >= 0
{
    broadcast use {rank_pos};
}
"""


def verdicts_without_the_store(case: str) -> dict:
    """Each task's status, used core and instantiations, verified in
    dependency order, for a program without the prelude store's ASTs: a user
    module alone ("bare"), or a separately parsed copy of the prelude sources
    and the `keys` case's user module ("copy")."""
    asts = [parse_module(BARE, "bare.tv", module="bare")]
    if case == "copy":
        prelude = resources.files("tunav.prelude")
        asts = [parse_module(prelude.joinpath(fname).read_text(),
                             f"<prelude>/{fname}", module=module)
                for fname, module in PRELUDE_FILES]
        asts.append(parse_module(*CASES["keys"][0][0]))
    program, registry = resolve_program(asts)
    run = VcgenRun(program, registry, RunConfig())
    results = [verify_task(t, run) for t in order_tasks(program, registry).tasks]
    return {r.task: [r.status, sorted(map(repr, r.used_core)),
                     sorted(r.instantiations.items())] for r in results}


def test_programs_without_the_stores_asts_leave_it_alone(cold_prelude):
    """A program without the store's declaration objects matches none of its
    entries and adds none, even where its prelude modules have the same
    paths and sources; its verdicts are those of a fresh process."""
    assert verify_program([parse_module(*CASES["keys"][0][0])],
                          RunConfig()).all_verified
    before = store_keys()
    assert before
    for case in ("bare", "copy"):
        got = json.loads(json.dumps(verdicts_without_the_store(case)))
        assert store_keys() == before, case
        assert got == in_fresh_process("verdicts_without_the_store", case), case
        assert {status for status, _, _ in got.values()} == {"verified"}, case


def test_clearing_the_parse_cache_empties_the_store():
    assert verify_program([], RunConfig(), tasks=[]).order.tasks
    assert store_keys()
    before = prelude_store()
    tunav.prelude.prelude_store.cache_clear()
    assert prelude_store() is not before
    assert not store_keys()


@pytest.mark.parametrize("jobs", [1, 2])
def test_forked_workers_inherit_the_prelude_facts(jobs, cold_prelude, monkeypatch):
    """At jobs=2 the prelude's facts are lowered before the fork, in this
    process, so the next run lowers none of them, at any jobs."""
    assert verify_program(load_sources(CORPUS), RunConfig(jobs=jobs)).all_verified
    lowered = len(store_lowered())
    assert lowered > 100
    made = []
    lower = vcgen.lower_quantified_fact
    monkeypatch.setattr(vcgen, "lower_quantified_fact",
                        lambda inst, *args: made.append(inst) or lower(inst, *args))
    assert verify_program(load_sources(CORPUS), RunConfig()).all_verified
    assert len(store_lowered()) == lowered
    assert not [inst.symbol for inst in made if inst.kept]


def run_digest(run) -> dict:
    """Each task's verdict, used core and instantiation counts."""
    return {t: (r.status, r.used_core, r.instantiations)
            for t, r in run.results.items()}


def test_runs_on_threads_share_the_store(cold_prelude, monkeypatch):
    """Runs on more threads than cores, switching as often as the
    interpreter allows, fill the cold store together: each run equals a
    serial one, and every stored entry's demanded symbols have keys. Each
    thread runs twice, so its second run starts from a store holding at
    least its first run's work; every run's memo renders each key the store
    held when the memo adopted it as the store's own symbol object."""
    programs = [load_sources(CORPUS), [parse_module(*CASES["keys"][0][0])]] * 3
    want = [run_digest(verify_program(asts, RunConfig())) for asts in programs[:2]]
    tunav.prelude.prelude_store.cache_clear()
    got, errors, adopted = {}, [], []
    real_adopt = ResolveMemo.adopt

    def adopt(memo, store):
        if memo.store is None:
            adopted.append((memo, list(store.keys.items())))
        real_adopt(memo, store)

    monkeypatch.setattr(ResolveMemo, "adopt", adopt)

    def verify(i, asts):
        try:
            for _ in range(2):
                got.setdefault(i, []).append(
                    run_digest(verify_program(asts, RunConfig())))
        except Exception as e:  # reported below, with the thread's index
            errors.append((i, e))

    threads = [threading.Thread(target=verify, args=item)
               for item in enumerate(programs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [got[i] for i in range(len(programs))] == [[w, w] for w in want * 3]
    store = prelude_store()
    assert all(sym in store.keys for fn in store.instances.values()
               for sym in fn.demands)
    assert len(adopted) == 2 * len(programs)
    assert sum(1 for _, keys in adopted if keys) >= len(programs)
    for memo, keys in adopted:
        assert all(memo.symbol(*key) is sym for sym, key in keys)


# -- task results ------------------------------------------------------------

HEAVY = "prelude::seq::lemma_seq_contains_after_push"


@functools.cache
def bench_inputs():
    """The benchmark's `inputs` module, which makes its projects from a
    seed."""
    path = os.path.join(os.path.dirname(HERE), "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # for its dataclasses
    spec.loader.exec_module(inputs)
    return inputs


@functools.cache
def bench_synth_sources():
    """The benchmark's synth project (seed 1): four renamed corpus copies
    with eight witness asserts deleted, so eight of its functions fail."""
    return [(s.text, s.path, s.module) for s in bench_inputs().synth_project(1).sources]


def parity_outputs(project: str, jobs: str, smtlib: str = "yes") -> dict:
    """What a run of `project` ("corpus" or "synth") at `jobs` reports, for
    every task, prelude's included: the `--broadcast-usage-info
    --no-timing` report, the metrics records, each obligation's outcome but
    its duration and, unless `smtlib` is "no", the SHA-256 of each
    obligation's SMT-LIB script."""
    config = RunConfig(jobs=int(jobs), usage_report=True, no_timing=True)
    asts = (load_sources(CORPUS) if project == "corpus"
            else [parse_module(*source) for source in bench_synth_sources()])
    run = verify_program(asts, config)
    tasks = run.program.proof_fns()
    outcomes = [[t, site.describe(), o.status, o.reason,
                 sorted(map(repr, o.used_core)), sorted(o.instantiations.items()),
                 o.rounds_used, o.splits_used]
                for t in tasks for site, o in run.results[t].obligations]
    digests = {}
    if smtlib != "no":
        vcgen_run = VcgenRun(run.program, run.registry, config)
        with tempfile.TemporaryDirectory() as smt_dir:
            emit_all([ob for t in tasks for ob in generate_obligations(t, vcgen_run)],
                     smt_dir)
            for name in sorted(os.listdir(smt_dir)):
                with open(os.path.join(smt_dir, name), "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return json.loads(json.dumps({
        "report": render_report(run, config, tasks),
        "metrics": [asdict(r) for r in records_of_run(run, config, tasks)],
        "outcomes": outcomes, "smtlib": digests}))


@pytest.mark.parametrize("project", ["corpus", "synth"])
def test_warm_store_runs_equal_cold_and_fresh_ones(project):
    """At jobs 1, 2 and 8, a cold-store run and a run whose store a run at
    the same or at other jobs filled each equal a fresh process's run byte
    for byte. The SMT-LIB scripts, which vcgen writes whatever the store
    holds, are compared on the first two runs."""
    fresh = in_fresh_process("parity_outputs", project, "1")
    assert fresh["report"].count("PASS prelude::") == 5
    assert len(fresh["smtlib"]) == len(fresh["outcomes"])
    runs = [("cold", "1"), ("warm", "1"), ("warm", "2"), ("warm", "8"),
            ("cold", "2"), ("warm", "2"), ("cold", "8"), ("warm", "8")]
    for i, (store, jobs) in enumerate(runs):
        if store == "cold":
            tunav.prelude.prelude_store.cache_clear()
        got = parity_outputs(project, jobs, "yes" if i < 2 else "no")
        if i >= 2:
            got["smtlib"] = fresh["smtlib"]
        assert got == fresh, (i, store, jobs)


def record_proved(monkeypatch) -> list:
    """The task of every obligation proved in this process from now on."""
    proved = []
    prove = driver.prove_obligation

    def recording(ob, *args):
        proved.append(ob.function)
        return prove(ob, *args)

    monkeypatch.setattr(driver, "prove_obligation", recording)
    return proved


def kept_tasks() -> set:
    """The tasks whose results the prelude store keeps."""
    return {result.task for result in prelude_store().verdicts.values()}


def prelude_tasks(run) -> set:
    return {t for t in run.results if t.startswith("prelude::")}


def test_prelude_results_are_shared_by_runs_that_differ_in_nothing_they_read(
        cold_prelude, monkeypatch):
    """A prelude task's result is proved once and then read from the store,
    also by runs that differ in `jobs`, `ambient` (which prelude tasks never
    import) or `usage_report`. A user task is proved by every run."""
    proved = record_proved(monkeypatch)
    first = verify_program(load_sources(CORPUS), RunConfig())
    prelude = prelude_tasks(first)
    assert len(prelude) == 5 and kept_tasks() == prelude
    assert prelude <= set(proved)
    ambient = ("prelude::seq::group_seq_properties",)
    for config in (RunConfig(), RunConfig(ambient=ambient),
                   RunConfig(usage_report=True), RunConfig(jobs=2)):
        proved.clear()
        run = verify_program(load_sources(CORPUS), config)
        assert run.all_verified
        assert all(run.results[t] is first.results[t] for t in prelude), config
        if config.jobs == 1:
            assert not prelude & set(proved) and set(run.user_tasks) <= set(proved)
    assert len(prelude_store().verdicts) == 5


@pytest.mark.parametrize("change", [
    {"strategy": trig.ALL_TRIGGERS}, {"fuel": 2}, {"limits": Limits(max_rounds=4)},
    {"no_default_prelude": True}, {"no_timing": True},
], ids=["strategy", "fuel", "limits", "no-default-prelude", "no-timing"])
def test_a_config_field_that_decides_the_outcome_is_part_of_the_key(
        change, cold_prelude, monkeypatch):
    """A run whose config differs in a field that decides a prelude task's
    outcome, or its reported time, proves the task again, and the next run
    under that config reads it from the store."""
    proved = record_proved(monkeypatch)
    prelude = prelude_tasks(verify_program([], RunConfig()))
    for proves in (True, False):
        proved.clear()
        verify_program([], RunConfig(**change))
        assert (set(proved) == prelude) == proves
        assert not proved or set(proved) == prelude
    assert len(prelude_store().verdicts) == 10


def test_a_kept_result_names_only_what_the_store_holds(cold_prelude):
    """A kept result's key names objects by id: its task's declaration and
    the facts of each of its contexts. The store's own records hold those
    objects for as long as the store keeps the key, so no id in a key is
    reused; and a kept instance is the same record, with the same lowered
    lists, in every later run."""
    first = verify_program(load_sources(CORPUS), RunConfig())
    kept = {sym: (fn, dict(fn.lowered)) for sym, fn in first.program.instances.items()
            if fn.kept}
    assert any(lowered for _, lowered in kept.values())
    for config in (RunConfig(no_default_prelude=True), RunConfig(fuel=2)):
        verify_program(load_sources(CORPUS), config)
    store = prelude_store()
    records = list(store.instances.values())
    decls = {id(fn.decl) for fn in records}
    facts = {id(qf) for fn in records for lowered in fn.lowered.values()
             for qf in lowered}
    assert len(store.verdicts) == 15
    for decl, contexts, *_ in store.verdicts:
        assert decl in decls
        assert all(fact in facts for context in contexts for fact in context)
    again = verify_program(load_sources(CORPUS), RunConfig()).program.instances
    for sym, (fn, lowered) in kept.items():
        assert again[sym] is fn, sym
        assert all(fn.lowered[key] is facts for key, facts in lowered.items()), sym


def test_a_context_with_a_user_sort_instance_is_proved_again(cold_prelude,
                                                              monkeypatch):
    """Liveness makes prelude facts live at the user's `sort Key`, and the
    default group brings those instances into prelude tasks' contexts. Such
    a task is proved by every run and never kept; the others are kept."""
    proved = record_proved(monkeypatch)
    asts = [parse_module(*CASES["keys"][0][0])]
    run = verify_program(asts, RunConfig())
    vcgen_run = VcgenRun(run.program, run.registry, RunConfig())
    user_sorted = {t for t in prelude_tasks(run)
                   for ob in generate_obligations(t, vcgen_run)
                   if any(not qf.kept for qf in ob.context.facts)}
    assert user_sorted and all(
        any("keys_user::Key" in qf.key for ob in generate_obligations(t, vcgen_run)
            for qf in ob.context.facts if not qf.kept) for t in user_sorted)
    assert kept_tasks() == prelude_tasks(run) - user_sorted
    proved.clear()
    assert verify_program(asts, RunConfig()).all_verified
    assert set(proved) - set(run.user_tasks) == user_sorted


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_outcome_the_time_budget_ended_is_not_kept(jobs, cold_prelude,
                                                      monkeypatch):
    """A result with an outcome that the time budget ended is reported but
    not kept, at any jobs, so the next run proves the task again."""
    prove = driver.prove_obligation

    def timed_out(ob, *args):
        out = prove(ob, *args)
        return replace(out, status="unknown", reason="time") if ob.function == HEAVY else out

    with monkeypatch.context() as m:
        m.setattr(driver, "prove_obligation", timed_out)
        run = verify_program(load_sources(CORPUS), RunConfig(jobs=jobs))
    assert run.results[HEAVY].status == "unknown"
    assert kept_tasks() == prelude_tasks(run) - {HEAVY}
    again = verify_program(load_sources(CORPUS), RunConfig(jobs=jobs))
    assert again.all_verified and kept_tasks() == prelude_tasks(run)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_task_that_raises_keeps_nothing(jobs, cold_prelude, monkeypatch):
    prove = driver.prove_obligation

    def raising(ob, *args):
        if ob.function == HEAVY:
            raise TunavError("engine failure")
        return prove(ob, *args)

    with monkeypatch.context() as m:
        m.setattr(driver, "prove_obligation", raising)
        with pytest.raises(TunavError, match="engine failure"):
            verify_program(load_sources(CORPUS), RunConfig(jobs=jobs))
    assert HEAVY not in kept_tasks()
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=jobs))
    assert run.all_verified and kept_tasks() == prelude_tasks(run)


def test_forked_runs_keep_what_the_workers_prove(cold_prelude, monkeypatch):
    """At jobs=2 the parent keeps the prelude results the workers return,
    under the keys it worked out before the fork: a serial run then proves
    no prelude task."""
    run = verify_program(load_sources(CORPUS), RunConfig(jobs=2))
    assert kept_tasks() == prelude_tasks(run)
    assert all(run.results[result.task] is result
               for result in prelude_store().verdicts.values())
    proved = record_proved(monkeypatch)
    again = verify_program(load_sources(CORPUS), RunConfig())
    assert not set(proved) & prelude_tasks(run)
    assert all(again.results[t] is run.results[t] for t in prelude_tasks(run))


def test_clearing_the_store_drops_the_kept_results(cold_prelude, monkeypatch):
    verify_program([], RunConfig())
    assert len(prelude_store().verdicts) == 5
    tunav.prelude.prelude_store.cache_clear()
    assert not prelude_store().verdicts
    proved = record_proved(monkeypatch)
    run = verify_program([], RunConfig())
    assert set(proved) == prelude_tasks(run)


def test_snapshots_hold_with_a_warm_store():
    """Each of the five snapshots, made in a process whose store earlier
    runs filled, equals its file."""
    import test_outcome_snapshot
    import test_parse_snapshot
    import test_resolve_snapshot
    import test_smtlib_snapshot
    import test_trigger_snapshot

    modules = (test_outcome_snapshot, test_parse_snapshot, test_resolve_snapshot,
               test_smtlib_snapshot, test_trigger_snapshot)
    test_outcome_snapshot.dump_all()
    assert prelude_store().verdicts
    for module in modules:
        dump = module.dump_all
        if module is test_smtlib_snapshot:
            module.scripts.cache_clear()
        with open(module.SNAPSHOT, encoding="utf-8") as fh:
            assert dump() == fh.read(), module.__name__
