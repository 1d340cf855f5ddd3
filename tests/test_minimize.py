import contextvars
import gc
import glob
import os
import random
import threading
import weakref
from collections import Counter
from dataclasses import fields, replace

import pytest

import tunav.cli
import tunav.minimize
from tunav import driver, resolve, vcgen
from tunav.driver import RunConfig, load_sources, verify_program
from tunav.errors import BaselineFailure, ResolveError
from tunav.minimize import enumerate_assert_sites, minimize, prune_asts
from tunav.resolve import ResolveMemo, resolve_program
from tunav.syntax import parse_module, render_module
from tunav.syntax.ast import (
    AssertBy,
    AxiomFn,
    Declaration,
    Expr,
    Let,
    ProofFn,
    Stmt,
    UseStmt,
    walk_stmts,
)
from tunav.triggers import ALL_TRIGGERS

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))


def asts_of(src, module="user"):
    return [parse_module(src, f"{module}.tv", module=module)]


def test_enumerate_single_site():
    asts = asts_of("""
proof fn push_contains(a: Seq<int>) {
    broadcast use {group_seq_properties};
    let b = a.push(3);
    assert(b.contains(3));
}
""")
    sites = enumerate_assert_sites(asts)
    assert len(sites) == 1 and sites[0].kind == "assert"


def test_enumerate_nested_block_first():
    asts = asts_of("""
proof fn nested(x: int) {
    assert(x == x) by {
        assert(1 == 1);
        assert(2 == 2);
    }
}
""")
    sites = enumerate_assert_sites(asts)
    assert [s.kind for s in sites] == ["assert-by", "assert", "assert"]
    assert [s.ordinal for s in sites] == [0, 1, 2]


def test_enumerate_empty():
    assert enumerate_assert_sites(asts_of("spec fn f(i: int) -> int;")) == []


def test_minimize_removes_redundant_keeps_needed():
    asts = asts_of("""
proof fn two_asserts(a: Seq<int>)
    ensures a.push(3).contains(3)
{
    assert(1 + 1 == 2);
    assert(a.push(3).contains(3)) by {
        broadcast use {lemma_seq_contains_after_push};
    }
}
""")
    report, pruned = minimize(asts, RunConfig())
    assert report.original_count == 2
    assert report.surviving_count == 1
    assert len(report.removed) == 1 and report.removed[0].kind == "assert"
    # the pruned program still verifies and renders back to valid source
    text = render_module(pruned[0])
    assert "1 + 1" not in text and "by" in text


def test_minimize_already_minimal_is_idempotent():
    src = """
proof fn lean(a: Seq<int>)
    requires
        3 <= a.len(),
        forall|i: int| 0 <= i < a.len() ==> #[trigger] a.index(i) > 0
    ensures exists|j: int| 0 <= j < a.len() && a.index(j) > 0
{
    assert(a.index(0) > 0);
}
"""
    report1, pruned1 = minimize(asts_of(src), RunConfig())
    assert report1.removed == []
    report2, pruned2 = minimize(pruned1, RunConfig())
    assert report2.removed == []
    assert report2.surviving_count == report1.surviving_count


def test_minimize_baseline_failure():
    asts = asts_of("proof fn broken(x: int) ensures x > 0 { }")
    with pytest.raises(BaselineFailure):
        minimize(asts, RunConfig())


def test_minimize_unknown_counts_as_failure():
    # without the assert-by, the context only offers a self-feeding fact:
    # the trial ends Unknown(rounds) and the site must be kept
    src = """
spec fn p(i: int) -> bool;
spec fn g(i: int) -> int;
broadcast axiom fn axiom_p(i: int)
    ensures #[trigger] p(i);
proof fn unknown_case(x: int)
    requires forall|i: int| #[trigger] g(i) == g(i + 1) + 1, g(0) == 7
    ensures p(x)
{
    assert(p(x)) by {
        broadcast use {axiom_p};
    }
}
"""
    report, _ = minimize(asts_of(src), RunConfig())
    assert report.removed == []
    assert len(report.unknown_kept) == 1


def test_minimize_assert_by_removal_skips_children():
    src = """
proof fn with_block(x: int)
    requires x > 4
    ensures x * 2 > 8
{
    assert(x * 2 > 8) by {
        assert(x >= 5);
    }
}
"""
    asts = asts_of(src)
    report, pruned = minimize(asts, RunConfig())
    assert len(report.removed) == 1
    assert report.removed[0].kind == "assert-by"
    assert report.surviving_count == 0
    # exactly one trial beyond the baseline: the child was never tried
    assert report.runs == 2


def test_minimize_project_scope_agrees_here():
    src = """
proof fn a_fn(x: int) requires x > 2 ensures x > 1 { assert(x > 2); }
proof fn b_fn(y: int) requires y > 0 ensures y >= 1 { assert(y >= 1); }
"""
    r_fn, _ = minimize(asts_of(src), RunConfig(), scope="function")
    r_pr, _ = minimize(asts_of(src), RunConfig(), scope="project")
    assert {(s.function, s.ordinal) for s in r_fn.removed} == \
           {(s.function, s.ordinal) for s in r_pr.removed}


def test_project_scope_agrees_with_function_scope_on_the_corpus():
    """A removed assert changes only its own function's obligations, so
    project scope, which re-verifies every task on every trial, makes the
    removals of function scope: it is a cross-check, not a finer pass."""
    def outcome(report, current):
        return ([(s.function, s.ordinal, s.kind, s.span.key()) for s in report.removed],
                report.surviving_count, report.runs, report.unknown_kept,
                [render_module(a) for a in current])

    by_function = outcome(*minimize(load_sources(CORPUS), RunConfig(), scope="function"))
    by_project = outcome(*minimize(load_sources(CORPUS), RunConfig(), scope="project"))
    assert by_project == by_function
    assert (len(by_function[0]), by_function[1]) == (98, 9)


def test_prune_asts_keeps_spans():
    asts = asts_of("proof fn f(x: int) { assert(x == x); assert(1 == 1); }")
    sites = enumerate_assert_sites(asts)
    pruned = prune_asts(asts, {sites[0].span.key()})
    remaining = enumerate_assert_sites(pruned)
    assert len(remaining) == 1
    assert remaining[0].span.key() == sites[1].span.key()


def test_prune_asts_shares_what_loses_no_site():
    asts = load_sources(CORPUS)
    sites = enumerate_assert_sites(asts)
    site = next(s for s in sites if s.kind == "assert"
                and s.function == "heavy::seq_growth_narrative")
    pruned = prune_asts(asts, {site.span.key()})
    changed = []
    for ast, new in zip(asts, pruned):
        assert (new is ast) == (ast.module != "heavy")
        for d, nd in zip(ast.declarations, new.declarations):
            if nd is not d:
                changed.append(f"{ast.module}::{d.name}")
                # the pruned fn keeps every statement that lost no site
                old_stmts = {id(s) for s in d.body}
                kept = [s for s in nd.body if id(s) in old_stmts]
                assert len(kept) == len(nd.body)
                assert len(nd.body) == len(d.body) - 1
    assert changed == [site.function]
    left = [(s.span.key(), s.kind, s.function) for s in sites if s is not site]
    assert [(s.span.key(), s.kind, s.function)
            for s in enumerate_assert_sites(pruned)] == left
    assert all(a is b for a, b in zip(prune_asts(asts, set()), asts))


def test_prune_asts_rebuilds_only_the_enclosing_assert_by():
    asts = asts_of("""
proof fn f(x: int) {
    assert(x == x) by { assert(1 == 1); }
    assert(x >= x) by { assert(2 == 2); }
}
""")
    sites = enumerate_assert_sites(asts)
    pruned = prune_asts(asts, {sites[1].span.key()})
    old, new = asts[0].declarations[0].body, pruned[0].declarations[0].body
    assert isinstance(new[0], AssertBy) and new[0] is not old[0]
    assert new[0].body == [] and new[0].expr is old[0].expr
    assert new[1] is old[1] and new[1].body is old[1].body


def tree_digest(node):
    """A typed tree as nested tuples of every field of every node, among
    them the spans, types (`ty`) and callee symbols (`resolved`) that node
    equality ignores."""
    if isinstance(node, list):
        return tuple(map(tree_digest, node))
    if isinstance(node, (Expr, Stmt, Declaration)):
        return (type(node).__name__,
                *(tree_digest(getattr(node, f.name)) for f in fields(node)))
    return node


def program_digest(program):
    """Every table of a resolved program: instance symbols in order, with
    what each records but its lowered facts, among it the symbols it
    demands, how many of them its clauses demand, and its typed tree
    (`tree_digest`); the declaration each path names; each path's
    instances, spec SCCs, module imports, task instances and liveness caps."""
    return ({sym: (fn.decl_path, fn.targs, fn.kind, fn.demands, fn.clause_demands,
                   fn.sorts, fn.uses, fn.lemmas, fn.kept, fn.owners,
                   tree_digest(fn.decl))
             for sym, fn in program.instances.items()},
            list(program.instances),
            {path: id(d) for path, d in program.symbols.items()},
            program.instances_of, program.spec_scc,
            program.module_uses, program.task_symbols, program.liveness_caps)


def run_digest(run):
    """What a run decides and how: the program's tables (`program_digest`),
    task layers, and per obligation the site, status, reason,
    instantiations, splits, rounds and used core."""
    return (program_digest(run.program), run.order.layers,
            {task: (result.status,
                    [(site, out.status, out.reason, dict(out.instantiations),
                      out.splits_used, out.rounds_used, out.used_core)
                     for site, out in result.obligations])
             for task, result in run.results.items()})


def fresh_verify(asts, config, tasks=None):
    """`verify_program` outside any shared block: a full re-resolve."""
    return contextvars.Context().run(verify_program, asts, config, tasks=tasks)


def record_builds(monkeypatch, made: list[str]):
    """Append to `made` the path of every declaration whose tree resolve
    builds: checked, or copied at a substitution."""
    for name in ("_check_decl", "_instantiate_decl"):
        def recording(path, *args, build=getattr(resolve, name)):
            made.append(path)
            return build(path, *args)

        monkeypatch.setattr(resolve, name, recording)


def record_checks(monkeypatch) -> list:
    """Append to the list returned every requires/ensures clause and every
    statement that resolve's checker checks rather than takes from the
    memo's parts."""
    checked = []
    for name in ("check_clause", "check_stmt"):
        def recording(self, node, check=getattr(resolve._Checker, name)):
            checked.append(node)
            return check(self, node)

        monkeypatch.setattr(resolve._Checker, name, recording)
    return checked


def clauses_and_stmts(asts) -> list:
    """The requires/ensures clauses and the statements, nested ones too, of
    every fn in `asts`."""
    return [node for a in asts for d in a.declarations
            if isinstance(d, (ProofFn, AxiomFn))
            for node in (*d.requires, *d.ensures,
                         *(walk_stmts(d.body) if isinstance(d, ProofFn) else ()))]


def compare_trials_with_fresh_runs(monkeypatch) -> list[int]:
    """Make every run of a minimizer pass, or of `tunav sample-failures`,
    check that it equals a fresh run on the same trees, and that its resolve
    built trees only for the re-verified function. Returns each run's
    instance count."""
    sizes = []
    made = []
    shared_verify = tunav.minimize.verify_program

    def compared(asts, config, tasks=None):
        assert driver._shared.get() is not None
        made.clear()
        run = shared_verify(asts, config, tasks=tasks)
        if sizes and tasks is not None:
            assert set(made) <= set(tasks)
        assert run_digest(run) == run_digest(fresh_verify(asts, config, tasks))
        sizes.append(len(run.program.instances))
        return run

    record_builds(monkeypatch, made)
    monkeypatch.setattr(tunav.minimize, "verify_program", compared)
    monkeypatch.setattr(tunav.cli, "verify_program", compared)
    return sizes


@pytest.mark.parametrize("files, config, scope", [
    (CORPUS, RunConfig(), "function"),
    (CORPUS, RunConfig(strategy=ALL_TRIGGERS), "function"),
    # every project-scope trial verifies all files: two keep it quick
    (CORPUS[:2], RunConfig(), "project"),
    # `tunav sample-failures`, whose trials are each pruned from the baseline
    (CORPUS, RunConfig(), "sample"),
], ids=["function", "all-triggers", "project", "sample"])
def test_trials_equal_a_fresh_resolve(monkeypatch, capsys, files, config, scope):
    sizes = compare_trials_with_fresh_runs(monkeypatch)
    if scope != "sample":
        report, _ = minimize(load_sources(files), config, scope=scope)
        assert len(sizes) == report.runs > 10
        assert report.removed
        return
    # a trial restores the site the one before it removed: against the
    # memo's last program, two declarations change when the two sites lie
    # in different functions
    changed, changes = [], ResolveMemo.changes

    def counting(memo, asts):
        got = changes(memo, asts)
        changed.append(got and len(got))
        return got

    monkeypatch.setattr(ResolveMemo, "changes", counting)
    assert tunav.cli.main(["sample-failures", *files, "--n", "40", "--seed", "1"]) == 0
    assert "sampled 40 removals" in capsys.readouterr().out
    # the baseline has no last program to compare with
    assert len(sizes) == len(changed) == 41 and changed[0] is None
    assert 2 in changed and None not in changed[1:]


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(ambient=("prelude::seq::group_seq_properties",)),
], ids=["default", "ambient"])
def test_trial_task_order_equals_a_fresh_run(monkeypatch, config):
    """On every trial, each task's imports (read off the `use` paths its
    instance keeps) and the task order equal those of a fresh resolve."""
    shared_verify = tunav.minimize.verify_program
    trials, uses = [], set()

    def imports_and_order(program, registry):
        order = resolve.order_tasks(program, registry, config.ambient)
        return ({t: resolve.task_imports(program, registry, t, config.ambient,
                                         not config.no_default_prelude)
                 for t in program.proof_fns()},
                (order.tasks, order.layers, order.deps))

    def compared(asts, run_config, tasks=None):
        run = shared_verify(asts, run_config, tasks=tasks)
        for fn in run.program.instances.values():
            body = fn.decl.body if fn.kind == "proof" else []
            assert list(fn.uses) == [p for s in walk_stmts(body)
                                     if isinstance(s, UseStmt) for p in s.paths]
            uses.update(fn.uses)
        got = imports_and_order(run.program, run.registry)
        assert got[1] == (run.order.tasks, run.order.layers, run.order.deps)
        assert got == imports_and_order(*driver.resolve_with_prelude(asts))
        trials.append(got)
        return run

    monkeypatch.setattr(tunav.minimize, "verify_program", compared)
    report, _ = minimize(load_sources(CORPUS), config, scope="function")
    assert len(trials) == report.runs > 10
    assert uses  # the corpus has `broadcast use` in proof bodies


def test_trial_drops_instances_its_removal_no_longer_demands(monkeypatch):
    # Seq<bool> is live only through the assert, which the pass removes
    src = """
proof fn p(x: int) requires x > 0 ensures x >= 1 {
    assert(forall|s: Seq<bool>| s.len() == s.len());
}
"""
    sizes = compare_trials_with_fresh_runs(monkeypatch)
    report, pruned = minimize(asts_of(src), RunConfig())
    assert len(report.removed) == 1
    baseline, trial = sizes
    assert trial < baseline
    fresh = fresh_verify(pruned, RunConfig())
    assert len(fresh.program.instances) == trial
    assert not any("bool" in sym for sym in fresh.program.instances)


def test_missing_verdict_fails_the_trial(monkeypatch):
    real = tunav.minimize.verify_program

    def losing_verdicts(asts, config, tasks=None):
        run = real(asts, config, tasks=tasks)
        if tasks is not None:
            run.results.clear()
        return run

    monkeypatch.setattr(tunav.minimize, "verify_program", losing_verdicts)
    report, _ = minimize(asts_of(
        "proof fn f(x: int) requires x > 1 ensures x > 0 { assert(x > 0); }"),
        RunConfig())
    assert report.runs == 2
    assert report.removed == [] and report.surviving_count == 1


def watch_memos(monkeypatch, fail_on_run=None) -> list:
    """Weak references to the memo of every run the pass makes, which must
    all be the same; the run numbered `fail_on_run` raises."""
    refs = []
    real = tunav.minimize.verify_program

    def watched(asts, config, tasks=None):
        memo = driver._shared.get()
        assert not refs or refs[0]() is memo
        refs.append(weakref.ref(memo))
        if len(refs) == fail_on_run:
            raise RuntimeError("trial failed")
        return real(asts, config, tasks=tasks)

    monkeypatch.setattr(tunav.minimize, "verify_program", watched)
    return refs


def assert_memo_gone(refs):
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert driver._shared.get() is None


def test_memo_gone_after_the_pass(monkeypatch):
    refs = watch_memos(monkeypatch)
    minimize(asts_of("proof fn f(x: int) requires x > 1 ensures x > 0 "
                     "{ assert(x > 0); assert(x > 1); }"), RunConfig())
    assert len(refs) == 3
    assert_memo_gone(refs)


def test_memo_gone_after_baseline_failure(monkeypatch):
    refs = watch_memos(monkeypatch)
    with pytest.raises(BaselineFailure):
        minimize(asts_of("proof fn broken(x: int) ensures x > 0 { }"), RunConfig())
    assert_memo_gone(refs)


def test_memo_gone_after_a_trial_raises(monkeypatch):
    refs = watch_memos(monkeypatch, fail_on_run=2)
    with pytest.raises(RuntimeError):
        minimize(asts_of("proof fn f(x: int) requires x > 1 ensures x > 0 "
                         "{ assert(x > 0); }"), RunConfig())
    assert_memo_gone(refs)


def test_runs_outside_the_pass_get_no_memo(monkeypatch):
    memos = []
    real_resolve = driver.resolve_program

    def recording(asts, memo=None):
        memos.append((threading.get_ident(), memo))
        return real_resolve(asts, memo)

    monkeypatch.setattr(driver, "resolve_program", recording)
    other = asts_of("proof fn g(y: int) ensures y == y { }", module="other")
    verify_program(other, RunConfig())
    assert memos == [(threading.get_ident(), None)]

    real_verify = tunav.minimize.verify_program
    elsewhere = []

    def with_a_run_on_another_thread(asts, config, tasks=None):
        thread = threading.Thread(
            target=lambda: elsewhere.append(verify_program(other, RunConfig())))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return real_verify(asts, config, tasks=tasks)

    monkeypatch.setattr(tunav.minimize, "verify_program",
                        with_a_run_on_another_thread)
    memos.clear()
    minimize(asts_of("proof fn f(x: int) requires x > 1 ensures x > 0 "
                     "{ assert(x > 0); }"), RunConfig())
    assert elsewhere and elsewhere[0].all_verified
    on_thread = [memo for ident, memo in memos if ident != threading.get_ident()]
    in_pass = [memo for ident, memo in memos if ident == threading.get_ident()]
    assert on_thread == [None, None]
    assert len(in_pass) == 2 and in_pass[0] is in_pass[1] is not None


def record_outcomes(monkeypatch) -> list[str | None]:
    """Append to the list returned the outcome of each resolve whose memo
    had a last program: "kept" if it kept that program's drain, "redrain"
    if it drained the memo's records again, "fresh" if an interface changed
    and it resolved under a new memo, or None if checking a changed
    declaration raised."""
    outcomes = []
    changes, reuse = ResolveMemo.changes, resolve._Resolver.reuse

    def comparing(memo, asts):
        changed = changes(memo, asts)
        if changed is None and memo.last is not None:
            outcomes.append("fresh")
        return changed

    def reusing(self, changed, last):
        outcomes.append(None)
        program = reuse(self, changed, last)
        # a kept drain shares the last program's tables of it
        outcomes[-1] = "kept" if program.instances_of is last.instances_of else "redrain"
        return program

    monkeypatch.setattr(ResolveMemo, "changes", comparing)
    monkeypatch.setattr(resolve._Resolver, "reuse", reusing)
    return outcomes


BASE = """
spec fn g(i: int) -> int { i + 1 }
proof fn f(x: int) ensures g(x) > x { assert(g(x) == x + 1); }
"""
# signatures that nothing in BASE's bodies reads
SIGNED = BASE + "const K: int;\nspec fn h(i: int) -> int;\n"
# a group and a module-level `broadcast use` that BASE's bodies do not need
GROUPED = BASE + """
broadcast axiom fn a1(i: int) ensures #[trigger] g(i) > i;
broadcast axiom fn a2(i: int) ensures #[trigger] g(i) >= i;
broadcast group both { a1, a2 }
broadcast use {a1};
"""


@pytest.mark.parametrize("base, other", [
    (BASE, BASE.replace("spec fn g", "spec fn h").replace("g(", "h(")),  # a name
    (BASE, BASE + "proof fn g2(x: int) { }"),  # one more declaration
    (BASE, BASE.replace("(i: int) -> int { i + 1 }", "(i: nat) -> int { i + 1 }")),
    (BASE, "proof fn g(i: int) { }\nproof fn f(x: int) { }"),  # a kind
    (SIGNED, SIGNED.replace("const K: int", "const K: bool")),
    (SIGNED, SIGNED.replace("(i: int) -> int;", "(i: int) -> bool;")),
    (GROUPED, GROUPED.replace("broadcast use {a1}", "broadcast use {a2}")),
    (GROUPED, GROUPED.replace("{ a1, a2 }", "{ a2 }")),
], ids=["renamed", "added", "signature", "kind", "const-type", "return-type",
        "module-use", "group-members"])
def test_memo_serves_only_the_baselines_declarations(monkeypatch, base, other):
    """A program whose interfaces differ from the memo's last program's is
    resolved under a new memo: the shared memo keeps its work and its last
    program, and the program equals a fresh resolve's."""
    base, changed = asts_of(base), asts_of(other)
    outcomes = record_outcomes(monkeypatch)
    memo = ResolveMemo()
    resolve_program(base, memo)
    checked, made, signatures = dict(memo.checked), dict(memo.instances), memo.signatures
    last = memo.last
    program, _ = resolve_program(changed, memo)
    assert outcomes == ["fresh"]
    assert memo.checked == checked and memo.instances == made
    assert memo.signatures is signatures and memo.last is last
    assert program_digest(program) == program_digest(resolve_program(changed)[0])
    with driver.shared_runs():
        verify_program(base, RunConfig())
        shared = verify_program(changed, RunConfig())
    assert run_digest(shared) == run_digest(fresh_verify(changed, RunConfig()))


def seeded_corpus(seed: int) -> list:
    """The corpus in the file order `bench/inputs.corpus_project` shuffles
    it into for `seed`."""
    by_module = {os.path.basename(f)[:-3]: f for f in CORPUS}
    order = sorted(by_module)
    random.Random(seed).shuffle(order)
    return load_sources([by_module[m] for m in order])


def test_a_pass_does_each_resolve_step_once(monkeypatch):
    """Work counts over the pass that the benchmark's minimize-corpus times
    at seed 1, with no clock involved: liveness unifies each fact parameter
    with each sort once, each instance symbol is rendered once, `collect`
    runs for the baseline only, 98 of the 107 trials keep the last
    program's drain and the other 9 drain the memo's records again, a
    trial builds trees only for the function it re-verifies, and in it
    re-checks no clause, and no statement but a `let`, that an earlier run
    of the pass checked."""
    unified, rendered, made, collected = Counter(), Counter(), [], []
    checked = record_checks(monkeypatch)
    # every earlier run's trees, so that the ids in `seen` stay theirs
    runs, seen, rechecked_lets = [], set(), []
    outcomes = record_outcomes(monkeypatch)
    in_liveness = []  # whether the innermost unify call comes from liveness
    matches, unify = resolve._Resolver.matches, resolve.unify
    render = resolve.mono_symbol
    shared_verify = tunav.minimize.verify_program

    def matching(self, s):
        in_liveness.append(True)
        try:
            return matches(self, s)
        finally:
            in_liveness.pop()

    def unifying(pattern, actual, sub, tps):
        if in_liveness and in_liveness[-1]:
            # a parameter type belongs to one fact: its identity names both
            unified[id(pattern), actual] += 1
        in_liveness.append(False)  # not the recursion within
        try:
            return unify(pattern, actual, sub, tps)
        finally:
            in_liveness.pop()

    def rendering(path, targs):
        sym = render(path, targs)
        rendered[sym] += 1
        return sym

    def trial(asts, config, tasks=None):
        made.clear()
        checked.clear()
        run = shared_verify(asts, config, tasks=tasks)
        if tasks is not None:
            assert made and set(made) <= set(tasks)
            assert all(isinstance(node, Let) or id(node) not in seen
                       for node in checked)
            rechecked_lets.extend(node for node in checked if isinstance(node, Let))
        runs.append(asts)
        seen.update(map(id, clauses_and_stmts(asts)))
        return run

    collect = resolve._Resolver.collect
    monkeypatch.setattr(resolve._Resolver, "collect",
                        lambda self: collected.append(self) or collect(self))
    monkeypatch.setattr(resolve._Resolver, "matches", matching)
    monkeypatch.setattr(resolve, "unify", unifying)
    monkeypatch.setattr(resolve, "mono_symbol", rendering)
    record_builds(monkeypatch, made)
    monkeypatch.setattr(tunav.minimize, "verify_program", trial)
    report, _ = minimize(seeded_corpus(1), RunConfig(), scope="function")
    assert report.runs - 1 == len(outcomes) == 107 and report.removed
    assert Counter(outcomes) == {"kept": 98, "redrain": 9}
    assert rechecked_lets  # the corpus has lets in the functions it prunes
    assert len(collected) == 1
    assert unified and max(unified.values()) == 1
    assert rendered and max(rendered.values()) == 1


# a user broadcast fact that no trial changes, imported by a task whose
# asserts the pass removes
USER_FACT = """
spec fn f(i: int) -> int;
spec fn g(i: int) -> int;
broadcast axiom fn fg(i: int)
    ensures #[trigger] f(i) == g(i);
proof fn use_fg(x: int)
    ensures f(x) == g(x)
{
    broadcast use {fg};
    assert(f(x) == g(x));
    assert(f(x + 1) == g(x + 1));
}
"""


def test_a_pass_lowers_an_unchanged_fact_once(monkeypatch):
    """The facts lowered from an instance live in its resolve entry, which
    the pass's memo keeps: every trial reuses the baseline's."""
    lowered = []
    lower = vcgen.lower_quantified_fact
    monkeypatch.setattr(vcgen, "lower_quantified_fact",
                        lambda inst, *args: lowered.append(inst.symbol)
                        or lower(inst, *args))
    report, _ = minimize(asts_of(USER_FACT), RunConfig())
    assert report.runs == 3 and len(report.removed) == 2
    assert lowered.count("user::fg") == 1


# `f` calls `g`; in MUTUAL only `g`'s body changes, to call `f` back, so the
# same `f` declaration joins a recursive SCC
CALLER = """
spec fn f(n: nat) -> bool { n == 0 || (n >= 1 && g(n - 1)) }
spec fn g(n: nat) -> bool { n == 0 }
proof fn check(x: int) ensures f(1) { }
"""
MUTUAL_G = "spec fn g(n: nat) -> bool { n == 0 || (n >= 1 && !f(n - 1)) }"


def test_shared_runs_lower_again_under_a_new_scc(monkeypatch):
    """Under one memo, a spec fn whose declaration is unchanged but whose
    SCC changed is lowered again, and the run equals a fresh one: with
    `f`'s stale, non-recursive axiom, `f(1)` would unfold through `g`."""
    [caller] = asts_of(CALLER)
    [mutual_g] = asts_of(MUTUAL_G).pop().declarations
    mutual = [replace(caller, declarations=[
        mutual_g if d.name == "g" else d for d in caller.declarations])]
    sccs = []
    definitions = vcgen.definitional_axiom

    def recording(inst, fuel, program, strategy):
        sccs.append((inst.symbol, program.spec_scc.get(inst.symbol)))
        return definitions(inst, fuel, program, strategy)

    monkeypatch.setattr(vcgen, "definitional_axiom", recording)
    with driver.shared_runs():
        first = verify_program([caller], RunConfig())
        second = verify_program(mutual, RunConfig())
    assert first.results["user::check"].passed
    assert [scc for sym, scc in sccs if sym == "user::f"] == [
        None, ("user::f", "user::g")]
    assert run_digest(second) == run_digest(fresh_verify(mutual, RunConfig()))
    assert second.results["user::check"].status == "failed"


def without_assert(asts, ordinal):
    """`asts` without the assert site numbered `ordinal`."""
    site = enumerate_assert_sites(asts)[ordinal]
    return prune_asts(asts, {site.span.key()})


def resolve_twice(monkeypatch, src, ordinal):
    """Resolve `src`, then, under the same memo, `src` without the assert
    numbered `ordinal`; return the second's outcome (`record_outcomes`), and
    check that its program equals a fresh resolve's."""
    base = asts_of(src)
    pruned = without_assert(base, ordinal)
    outcomes = record_outcomes(monkeypatch)
    memo = ResolveMemo()
    driver.resolve_with_prelude(base, memo)
    program, _ = driver.resolve_with_prelude(pruned, memo)
    assert program_digest(program) == program_digest(
        driver.resolve_with_prelude(pruned)[0])
    with driver.shared_runs():
        verify_program(base, RunConfig())
        shared = verify_program(pruned, RunConfig())
    assert run_digest(shared) == run_digest(fresh_verify(pruned, RunConfig()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


CALLS_AGAIN = """
spec fn g(i: int) -> int { i + 1 }
spec fn h(i: int) -> int { i }
proof fn f(x: int) ensures x + 1 > x {
    assert(g(x) == x + 1);
    assert(h(x) == x);
    assert(g(x) > x);
}
"""


def test_a_removal_whose_callee_is_called_again_later_patches(monkeypatch):
    # demands g, h, g before and h, g after: the drain pops the last demand
    # first, so it meets g, then h, either way
    assert resolve_twice(monkeypatch, CALLS_AGAIN, 0) == "kept"


def test_a_removal_that_reorders_the_drain_falls_back(monkeypatch):
    # demands h, g, h before (the drain meets h first) and h, g after (g
    # first): the instances come in another order, so drain again
    src = CALLS_AGAIN.replace("assert(g(x) == x + 1);\n    assert(h(x) == x);",
                              "assert(h(x) == x);\n    assert(g(x) == x + 1);")
    src = src.replace("assert(g(x) > x);", "assert(h(x) >= x);")
    assert resolve_twice(monkeypatch, src, 2) == "redrain"


@pytest.mark.parametrize("src, ordinal", [
    # Seq<bool> is mentioned only by the assert, which calls nothing
    ("proof fn p(x: int) { assert(x == x); "
     "assert(forall|s: Seq<bool>| s == s); }", 1),
    # h is demanded only by the assert
    (CALLS_AGAIN, 1),
], ids=["sort", "demand"])
def test_a_removal_that_drops_a_sort_or_a_demand_falls_back(monkeypatch, src,
                                                           ordinal):
    assert resolve_twice(monkeypatch, src, ordinal) == "redrain"


# asserts 0 and 3 demand nothing, 1 is the only demand of h, 2 and 4 demand g
CHAIN = """
spec fn g(i: int) -> int { i + 1 }
spec fn h(i: int) -> int { i }
proof fn f(x: int) ensures x + 1 > x {
    assert(x + 1 > x);
    assert(h(x) == x);
    assert(g(x) == x + 1);
    assert(x + 2 > x);
    assert(g(x) > x);
}
"""


def test_a_chain_of_trials_under_one_memo(monkeypatch):
    """Trials under one memo, each made from the last program resolved:
    the baseline; a kept drain; a dropped demand, drained again; a kept
    drain; a changed interface, resolved under a new memo; then one more
    trial of the last accepted program, which keeps the shared memo's
    drain. Every program and run equals a fresh one."""
    base = asts_of(CHAIN)
    sites = [s.span.key() for s in enumerate_assert_sites(base)]
    chain = [base]
    for ordinal in (0, 1, 3):
        chain.append(prune_asts(chain[-1], {sites[ordinal]}))
    [accepted] = chain[-1]
    [extra] = asts_of("proof fn extra(x: int) { }")[0].declarations
    chain.append([replace(accepted, declarations=accepted.declarations + [extra])])
    chain.append(prune_asts(chain[-2], {sites[2]}))
    outcomes = record_outcomes(monkeypatch)
    memo = ResolveMemo()
    for asts in chain:
        program, _ = driver.resolve_with_prelude(asts, memo)
        assert program_digest(program) == program_digest(
            driver.resolve_with_prelude(asts)[0])
    with driver.shared_runs():
        runs = [verify_program(asts, RunConfig()) for asts in chain]
    for asts, run in zip(chain, runs):
        assert run.all_verified
        assert run_digest(run) == run_digest(fresh_verify(asts, RunConfig()))
    assert outcomes == ["kept", "redrain", "kept", "fresh", "kept"] * 2


def test_a_memo_whose_first_resolve_failed_serves_no_other_program(monkeypatch):
    """A memo without a last program but with work in it holds what a
    failed resolve did: the next program is resolved under a new memo."""
    memo = ResolveMemo()
    with pytest.raises(ResolveError):
        resolve_program(asts_of(BASE + "spec fn k(i: int) -> int { j }"), memo)
    signatures = memo.signatures
    other = asts_of(BASE.replace("(i: int) -> int { i + 1 }", "(i: nat) -> int { i + 1 }"))
    program, _ = resolve_program(other, memo)
    assert memo.last is None and memo.signatures is signatures
    assert program_digest(program) == program_digest(resolve_program(other)[0])


def test_trial_task_order_is_reused_only_when_no_import_changed(monkeypatch):
    """A trial whose changed proof fns keep their `broadcast use`
    paths and lemma calls gets the last run's task order itself; one that
    drops a `broadcast use` gets a fresh one, equal to a fresh run's."""
    src = """
broadcast proof fn lemma_a(x: int) ensures #[trigger] (x + 0) == x { }
proof fn p(x: int) ensures x == x {
    assert(x + 1 == 1 + x);
    assert(x == x) by { broadcast use {lemma_a}; }
}
"""
    base = asts_of(src)
    keep_use, drop_use = without_assert(base, 0), without_assert(base, 1)
    outcomes = record_outcomes(monkeypatch)
    with driver.shared_runs():
        first = verify_program(base, RunConfig())
        same = verify_program(keep_use, RunConfig())
        other = verify_program(drop_use, RunConfig())
    assert outcomes == ["kept", "kept"]
    assert same.order is first.order
    assert other.order is not first.order
    assert first.order.deps["user::p"] == {"user::lemma_a"}
    assert other.order.deps["user::p"] == set()
    assert run_digest(other) == run_digest(fresh_verify(drop_use, RunConfig()))


# `f` with the body of each case in place of its first assert
BAD_BODIES = {
    "unbound": "assert(y == 1);",
    "mismatch": "assert(x + true == 1);",
    "callee": "assert(k(x) == 1);",
    "trigger": "assert(#[trigger] g(x) == x + 1);",
}


@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_a_trial_that_fails_to_check_raises_a_fresh_resolves_error(monkeypatch,
                                                                    case):
    """Through the public `resolve_program(asts, memo)`, a changed
    declaration that fails to check raises the error, message and span, of
    a fresh resolve; the memo then still keeps the drain of the last
    program it resolved."""
    [base] = asts_of(CALLS_AGAIN)
    [bad_f] = [d for d in asts_of(CALLS_AGAIN.replace(
        "assert(g(x) == x + 1);", BAD_BODIES[case]))[0].declarations
        if d.name == "f"]
    bad = [replace(base, declarations=[bad_f if d.name == "f" else d
                                       for d in base.declarations])]
    outcomes = record_outcomes(monkeypatch)
    memo = ResolveMemo()
    resolve_program([base], memo)
    with pytest.raises(ResolveError) as shared:
        resolve_program(bad, memo)
    with pytest.raises(ResolveError) as fresh:
        resolve_program(bad)
    assert type(shared.value) is type(fresh.value)
    assert str(shared.value) == str(fresh.value)
    assert shared.value.span == fresh.value.span is not None
    pruned = without_assert([base], 0)
    program, _ = resolve_program(pruned, memo)
    assert outcomes == [None, "kept"]
    assert program_digest(program) == program_digest(resolve_program(pruned)[0])


def test_a_lone_resolve_records_nothing(monkeypatch):
    """A resolve without a caller's memo, and so every run outside a
    shared block, keeps no clause or statement: resolving the same trees
    again checks each of them again."""
    memos = []

    class Watched(ResolveMemo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(resolve, "ResolveMemo", Watched)
    checked = record_checks(monkeypatch)
    asts = asts_of(CALLS_AGAIN)
    resolve_program(asts)
    first = list(checked)
    resolve_program(asts)
    verify_program(asts, RunConfig())
    assert len(memos) == 3 and all(memo.parts is None for memo in memos)
    # f's ensures clause and its three asserts, each time
    assert len(first) == 4
    assert list(map(id, checked[4:8])) == list(map(id, first))


# `y`'s type comes from the let; the last assert is the one pruned
SCOPED = """
proof fn f(x: int) {
    let y = 1;
    assert(y == 1);
    assert(x == x);
}
"""


def f_tree(program):
    return program.instances["user::f"].decl


def test_a_kept_statement_comes_from_the_memo_in_the_same_scope(monkeypatch):
    base = asts_of(SCOPED)
    pruned = without_assert(base, 1)
    memo = ResolveMemo()
    first, _ = resolve_program(base, memo)
    checked = record_checks(monkeypatch)
    program, _ = resolve_program(pruned, memo)
    # the let is checked again, as it binds `y`; the assert after it is not
    assert [type(node).__name__ for node in checked] == ["Let"]
    assert f_tree(program).body[1] is f_tree(first).body[1]
    assert program_digest(program) == program_digest(resolve_program(pruned)[0])


def test_a_kept_statement_under_a_changed_let_raises_a_fresh_resolves_error():
    """The same `assert(y == 1)` object after `let y = true;`: `y` has
    another type in its scope, so it is checked again and fails as in a
    fresh resolve."""
    [base] = asts_of(SCOPED)
    [f] = base.declarations
    [bool_let] = [s for s in asts_of(SCOPED.replace("let y = 1;", "let y = true;"))[0]
                  .declarations[0].body if isinstance(s, Let)]
    changed = [replace(base, declarations=[replace(f, body=[bool_let, *f.body[1:]])])]
    memo = ResolveMemo()
    resolve_program([base], memo)
    with pytest.raises(ResolveError) as shared:
        resolve_program(changed, memo)
    with pytest.raises(ResolveError) as fresh:
        resolve_program(changed)
    assert type(shared.value) is type(fresh.value)
    assert str(shared.value) == str(fresh.value)
    assert "type mismatch" in str(fresh.value)
    assert shared.value.span == fresh.value.span == f.body[1].expr.span


def test_a_rebuilt_assert_by_takes_its_kept_statements_from_the_memo(monkeypatch):
    base = asts_of("""
proof fn f(x: int) ensures x == x {
    assert(x == x) by {
        let z = x;
        assert(1 == 1);
        assert(z >= x);
    }
}
""")
    pruned = without_assert(base, 1)
    memo = ResolveMemo()
    first, _ = resolve_program(base, memo)
    checked = record_checks(monkeypatch)
    program, _ = resolve_program(pruned, memo)
    [block] = pruned[0].declarations[0].body
    # the block is new, so it is checked, its let again, and nothing else
    assert list(map(id, checked)) == [id(block), id(block.body[0])]
    [old], [new] = f_tree(first).body, f_tree(program).body
    assert new is not old and new.body[1] is old.body[2]
    assert program_digest(program) == program_digest(resolve_program(pruned)[0])
