"""The prelude store keeps the prelude's resolve and lowered facts for the
life of the process. What a run reports must not depend on what ran before
it in the process, and the store must hold only prelude work: its size is
fixed by the prelude, not by the programs verified."""

import glob
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources

import pytest
from test_resolve_snapshot import renamed_corpus

import tunav.prelude
from tunav import triggers as trig
from tunav import vcgen
from tunav.driver import (
    RunConfig,
    load_sources,
    render_report,
    verify_program,
    verify_task,
)
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
    return [(sym, key) for (sym, _), (_, _, _, lowered)
            in prelude_store().instances.items() for key in lowered]


def store_keys() -> list:
    """Every key of every table of the prelude store, and of the lowered
    facts of its instance entries."""
    store = prelude_store()
    return [key for table in (store.checked, store.instances, store.keys,
                              store.canonical) for key in table] + store_lowered()


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
               for fn, _, _, _ in store.instances.values())
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
    assert all(sym in store.keys for _, demands, _, _ in store.instances.values()
               for sym in demands)
    assert len(adopted) == 2 * len(programs)
    assert sum(1 for _, keys in adopted if keys) >= len(programs)
    for memo, keys in adopted:
        assert all(memo.symbol(*key) is sym for sym, key in keys)
