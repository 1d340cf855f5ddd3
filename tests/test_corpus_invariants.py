"""Corpus-wide invariants: parse/render round-trips, group-import flattening
equivalence, and the usage-report-driven import-trimming workflow."""

import glob
import os
from pathlib import Path

import pytest

from tunav.driver import RunConfig, load_sources, report_usage, verify_program
from tunav.engine.arith import Constraint, check_constraints
from tunav.syntax import parse_module, render_module
from tunav.syntax.ast import ProofFn, UseStmt, walk_stmts
from tunav.vcgen import VcgenRun, generate_obligations

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_round_trip_corpus_file(path):
    src = Path(path).read_text()
    first = parse_module(src, path)
    second = parse_module(render_module(first), path)
    assert first.declarations == second.declarations


def statuses(run):
    return {t: r.status for t, r in run.results.items()}


def rewrite_group_imports(run, asts, replace) -> int:
    """Set the paths of every `broadcast use` in the proof fns of `asts` to
    `replace(task, group)` for each group import and keep fact imports. The
    absolute paths come from the resolver's copy of each fn in `run`, whose
    statements carry the same spans. Returns how many group imports were
    replaced."""
    replaced = 0
    for ast in asts:
        for d in ast.declarations:
            if not isinstance(d, ProofFn):
                continue
            task = f"{ast.module}::{d.name}"
            resolved = {s.span.key(): s.paths for s in walk_stmts(
                run.program.verify_instance(task).decl.body)
                if isinstance(s, UseStmt)}
            for s in walk_stmts(d.body):
                if isinstance(s, UseStmt):
                    out = []
                    for p in resolved[s.span.key()]:
                        if p in run.registry.groups:
                            out.extend(replace(task, p))
                            replaced += 1
                        else:
                            out.append(p)
                    s.paths = out
    return replaced


def test_group_import_equals_flattened_members():
    # replace every group import with its flattened members and re-verify
    base = verify_program(load_sources(CORPUS), RunConfig())
    asts = load_sources(CORPUS)
    assert rewrite_group_imports(
        base, asts, lambda task, group: base.registry.groups[group])
    rerun = verify_program(asts, RunConfig())
    assert statuses(rerun) == statuses(base)


def test_usage_report_trim_workflow():
    # the trim workflow: replace each function's group imports with exactly
    # the facts named in its usage report; the whole corpus re-verifies
    run = verify_program(load_sources(CORPUS), RunConfig())
    assert all(run.results[t].passed for t in run.user_tasks)
    used = {t: {o.path for o in run.results[t].used_core
                if o.kind in ("lemma", "axiom")} for t in run.user_tasks}
    asts = load_sources(CORPUS)
    assert rewrite_group_imports(
        run, asts, lambda task, group: [f for f in run.registry.groups[group]
                                        if f in used[task]])
    rerun = verify_program(asts, RunConfig())
    assert all(rerun.results[t].passed for t in rerun.user_tasks)


def test_assemble_context_examples():
    src = """
proof fn via_group(a: Seq<int>) {
    broadcast use {group_seq_properties};
    let b = a.push(3);
    assert(b.contains(3));
}
proof fn via_lemma(a: Seq<int>) {
    broadcast use {lemma_seq_contains_after_push};
    let b = a.push(3);
    assert(b.contains(3));
}
"""
    run = verify_program([parse_module(src, "u.tv", module="u")], RunConfig())
    lemma = "prelude::seq::lemma_seq_contains_after_push"
    group = "prelude::seq::group_seq_properties"
    ctx = generate_obligations("u::via_group",
                               VcgenRun(run.program, run.registry))[-1].context
    assert next(q for q in ctx.facts if q.origin.path == lemma).origin.kind == "lemma"
    via_group, via_lemma = run.results["u::via_group"], run.results["u::via_lemma"]
    assert via_group.passed and via_lemma.passed
    assert via_group.fact_groups[lemma] == (group,)
    assert via_lemma.fact_groups[lemma] == ()
    assert f"(group) {group}" in report_usage(via_group)
    assert f"(group) {group}" not in report_usage(via_lemma)
    assert f"- {lemma}" in report_usage(via_lemma)


def test_check_constraints_status():
    x, y, z = 1, 2, 3
    cs = [Constraint({x: -1}, 11, frozenset([0])),
          Constraint({y: -1}, 21, frozenset([1])),
          Constraint({z: 1, x: -1, y: -1}, 0, frozenset([2])),
          Constraint({z: -1, x: 1, y: 1}, 0, frozenset([2])),
          Constraint({z: 1}, -30, frozenset([3]))]
    assert check_constraints(cs).status == "inconsistent"
    assert check_constraints([]).status == "consistent"
